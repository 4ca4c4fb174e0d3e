//! Behavioural-equivalence tests: profiling must not change what programs
//! compute. Every workload's checksum must be identical uninstrumented,
//! under SPA, under statically instrumented IPA, and under dynamically
//! instrumented IPA — and deterministic across repeated runs.

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
