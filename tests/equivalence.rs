//! Behavioural-equivalence tests: profiling must not change what programs
//! compute. Every workload's checksum must be identical uninstrumented,
//! under SPA, under statically instrumented IPA, and under dynamically
//! instrumented IPA — and deterministic across repeated runs.

use std::sync::Arc;

use jnativeprof::harness::AgentChoice;
use jnativeprof::session::{RunOutcome, Session};
use jnativeprof::vm::Vm;
use nativeprof::{InstrumentationMode, IpaConfig};
use workloads::{by_name, ProblemSize, Workload};

fn run(w: &dyn Workload, size: ProblemSize, agent: AgentChoice) -> RunOutcome {
    Session::new(w, size)
        .agent(agent)
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

const ALL: [&str; 8] = [
    "compress",
    "jess",
    "db",
    "javac",
    "mpegaudio",
    "mtrt",
    "jack",
    "jbb",
];

#[test]
fn checksums_identical_across_all_agent_configurations() {
    for name in ALL {
        let w = by_name(name).unwrap();
        let size = ProblemSize(3);
        let base = run(w.as_ref(), size, AgentChoice::None).checksum;
        let spa = run(w.as_ref(), size, AgentChoice::Spa).checksum;
        let ipa_static = run(w.as_ref(), size, AgentChoice::ipa()).checksum;
        let ipa_dynamic = run(
            w.as_ref(),
            size,
            AgentChoice::Ipa(IpaConfig {
                mode: InstrumentationMode::Dynamic,
                ..IpaConfig::default()
            }),
        )
        .checksum;
        let ipa_uncompensated = run(
            w.as_ref(),
            size,
            AgentChoice::Ipa(IpaConfig {
                compensate: false,
                ..IpaConfig::default()
            }),
        )
        .checksum;
        assert_eq!(base, spa, "{name}: SPA changed behaviour");
        assert_eq!(base, ipa_static, "{name}: static IPA changed behaviour");
        assert_eq!(base, ipa_dynamic, "{name}: dynamic IPA changed behaviour");
        assert_eq!(
            base, ipa_uncompensated,
            "{name}: compensation is stats-only"
        );
    }
}

#[test]
fn runs_are_fully_deterministic() {
    for name in ALL {
        let w = by_name(name).unwrap();
        let a = run(w.as_ref(), ProblemSize(3), AgentChoice::ipa());
        let b = run(w.as_ref(), ProblemSize(3), AgentChoice::ipa());
        assert_eq!(a.checksum, b.checksum, "{name}");
        assert_eq!(
            a.outcome.total_cycles, b.outcome.total_cycles,
            "{name}: cycle counts must be exactly reproducible"
        );
        let (pa, pb) = (a.profile.unwrap(), b.profile.unwrap());
        assert_eq!(pa, pb, "{name}: profiles must be identical");
    }
}

#[test]
fn static_and_dynamic_instrumentation_agree_on_counts() {
    for name in ["compress", "javac", "jbb"] {
        let w = by_name(name).unwrap();
        let s = run(w.as_ref(), ProblemSize(3), AgentChoice::ipa());
        let d = run(
            w.as_ref(),
            ProblemSize(3),
            AgentChoice::Ipa(IpaConfig {
                mode: InstrumentationMode::Dynamic,
                ..IpaConfig::default()
            }),
        );
        let (ps, pd) = (s.profile.unwrap(), d.profile.unwrap());
        assert_eq!(ps.native_method_calls, pd.native_method_calls, "{name}");
        assert_eq!(ps.jni_calls, pd.jni_calls, "{name}");
    }
}

#[test]
fn compensation_changes_statistics_not_behaviour() {
    let w = by_name("jack").unwrap();
    let on = run(w.as_ref(), ProblemSize(5), AgentChoice::ipa());
    let off = run(
        w.as_ref(),
        ProblemSize(5),
        AgentChoice::Ipa(IpaConfig {
            compensate: false,
            ..IpaConfig::default()
        }),
    );
    let (pon, poff) = (on.profile.unwrap(), off.profile.unwrap());
    assert_eq!(pon.native_method_calls, poff.native_method_calls);
    // Without compensation the measured spans absorb the wrapper overhead,
    // so the uncompensated split accounts strictly more cycles.
    assert!(
        poff.total.total() > pon.total.total(),
        "uncompensated {} must exceed compensated {}",
        poff.total.total(),
        pon.total.total()
    );
}

/// A program is a reusable value: its natives keep their statics per VM,
/// so loading one program into three VMs gives three identical runs.
#[test]
fn one_program_reruns_identically_in_fresh_vms() {
    let mut diverged = Vec::new();
    for name in ALL {
        let program = by_name(name).unwrap().program();
        let runs: Vec<_> = (0..3)
            .map(|_| {
                let mut vm = Vm::new();
                program.load(&mut vm);
                let outcome = program.run(&mut vm, ProblemSize::S10).expect(name);
                let checksum = outcome.main.expect(name);
                (outcome.total_cycles, checksum, outcome.stats)
            })
            .collect();
        if runs.iter().any(|run| *run != runs[0]) {
            diverged.push(format!("{name}: {runs:?}"));
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}

/// One `--tiers full` run of `name` at size 1 under `agent`, with a
/// trace recorder attached and, if `polled`, a sampler whose interval is
/// never reached. The sampler charges nothing, but it makes the
/// interpreter poll, so its run takes one op per instruction (polled).
fn tiered_run(name: &str, agent: &AgentChoice, polled: bool) -> (jvmsim_vm::RunOutcome, String) {
    struct NeverFires;
    impl jvmsim_vm::events::SampleSink for NeverFires {
        fn sample(&self, _thread: jvmsim_vm::ThreadId, _in_native: bool) {
            unreachable!("a sampler interval of 2^60 cycles is never reached");
        }
    }
    let program = by_name(name).unwrap().program();
    let (archive, _) = jnativeprof::session::program_archive(&program, agent, None).unwrap();
    let recorder = jvmsim_trace::TraceRecorder::with_default_capacity();
    let mut vm = Vm::new();
    vm.set_tiers_mode(jvmsim_vm::TiersMode::Full);
    vm.set_trace_sink(Arc::clone(&recorder) as Arc<dyn jvmsim_vm::TraceSink>);
    if polled {
        vm.set_sampler(1 << 60, Arc::new(NeverFires));
    }
    program.load_archive(&mut vm, archive);
    let _attached = agent.attach(&mut vm).unwrap();
    let outcome = program.run(&mut vm, ProblemSize::S1).expect(name);
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.dropped(), 0, "{name}: trace buffer too small");
    let digest = jvmsim_cache::Digest::of(jvmsim_trace::csv::events_csv(&snapshot).as_bytes());
    (outcome, digest.to_hex())
}

/// Folded dispatch counts exactly like polled dispatch: every workload,
/// under no agent and under SPA, gives the same cycles (total and per
/// thread), `VmStats`, checksum and transition trace whether the
/// interpreter runs folded bodies or, because a sampler makes it poll,
/// one op per instruction. ("Fused" and "unfused" are the older names of
/// the folded and the polled path.)
#[test]
fn fused_and_unfused_dispatch_agree() {
    let mut diverged = Vec::new();
    for name in ALL {
        for agent in [AgentChoice::None, AgentChoice::Spa] {
            let (folded, folded_trace) = tiered_run(name, &agent, false);
            let (polled, polled_trace) = tiered_run(name, &agent, true);
            assert!(folded.main.is_ok(), "{name}: {:?}", folded.main);
            if folded != polled || folded_trace != polled_trace {
                diverged.push(format!(
                    "{name}/{}: folded {folded:?} trace {folded_trace}\n  polled {polled:?} trace {polled_trace}",
                    agent.label()
                ));
            }
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}
