//! Graceful-degradation acceptance tests for the hardened suite driver:
//!
//! * a deliberately panicking workload is *quarantined* — its cells turn
//!   into explicit failure records while every other cell completes and
//!   the assembled artifacts are byte-identical to a run without it, with
//!   or without a result cache attached;
//! * `jprof run` of that workload exits with the typed `panicked` code
//!   (11), cached or not, instead of dying with a Rust panic;
//! * every `jprof` subcommand prints its usage and exits 0 on `--help`,
//!   and exits with the usage code (2) on an unknown argument;
//! * a present-but-disabled fault injector changes no measurement;
//! * the chaos driver is deterministic (same seeds → same report, any
//!   job count) and every accounting invariant holds under injection.

use std::sync::Arc;

use jnativeprof::harness::AgentChoice;
use jnativeprof::session::Session;
use jvmsim_cache::CacheStore;
use jvmsim_faults::FaultInjector;
use jvmsim_metrics::CounterId;
use nativeprof_bench::{
    agents_artifact, run_chaos, run_suite, run_suite_with_workloads, table1_artifact,
    table2_artifact, CellFailureKind, SuiteConfig, SuiteResult,
};
use workloads::{by_name, jvm98_suite, ProblemSize};

fn jvm98_names() -> Vec<&'static str> {
    jvm98_suite().iter().map(|w| w.name()).collect()
}

#[test]
fn crashy_workload_is_quarantined_without_touching_other_rows() {
    let config = SuiteConfig::with_size(ProblemSize::S1).jobs(4);
    let baseline = run_suite(config.clone());
    assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);

    // Append the deliberately panicking workload: 5 extra cells, all of
    // which must fail, while the original 40 complete untouched.
    let mut names = jvm98_names();
    names.push("crashy");
    let with_crashy = run_suite_with_workloads(config, &names);

    assert_eq!(with_crashy.failures.len(), 5, "{:?}", with_crashy.failures);
    for failure in &with_crashy.failures {
        assert_eq!(failure.workload, "crashy");
        assert!(
            matches!(&failure.kind, CellFailureKind::Panicked(m) if m.contains("deliberate")),
            "{failure}"
        );
    }
    // The crashy row is absent; every real row survives byte-for-byte.
    assert_eq!(
        table1_artifact(&baseline.table1, baseline.jbb).to_csv(),
        table1_artifact(&with_crashy.table1, with_crashy.jbb).to_csv()
    );
    assert_eq!(
        table2_artifact(&baseline.table2).to_csv(),
        table2_artifact(&with_crashy.table2).to_csv()
    );
}

#[test]
fn crashy_workload_is_quarantined_with_a_cache_attached() {
    // Deriving a cell's result key builds its program, which is exactly
    // what panics for crashy: that panic must stay inside the cell.
    let dir = std::env::temp_dir().join(format!("jvmsim-crashy-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CacheStore::open(&dir).unwrap();
    let config = SuiteConfig::with_size(ProblemSize::S1).jobs(4).cache(store);
    let baseline = run_suite(config.clone());
    assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);

    let mut names = jvm98_names();
    names.push("crashy");
    let with_crashy = run_suite_with_workloads(config, &names);

    assert_eq!(with_crashy.failures.len(), 5, "{:?}", with_crashy.failures);
    for failure in &with_crashy.failures {
        assert_eq!(failure.workload, "crashy");
        assert!(
            matches!(&failure.kind, CellFailureKind::Panicked(m) if m.contains("deliberate")),
            "{failure}"
        );
    }
    // Every real row came from the cache the baseline filled, and its
    // bytes are the baseline's.
    let hits: u64 = with_crashy
        .metrics
        .iter()
        .map(|e| e.snapshot.counter(CounterId::CacheHits))
        .sum();
    assert_eq!(hits, 40);
    let artifacts = |suite: &SuiteResult| {
        (
            table1_artifact(&suite.table1, suite.jbb).to_csv(),
            table2_artifact(&suite.table2).to_csv(),
            agents_artifact(&suite.agent_rows).to_csv(),
        )
    };
    assert_eq!(artifacts(&baseline), artifacts(&with_crashy));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jprof_run_of_a_panicking_workload_exits_with_the_panicked_code() {
    let dir = std::env::temp_dir().join(format!("jvmsim-crashy-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_str().expect("utf8 tmp path");
    for extra in [&[][..], &["--cache-dir", cache_dir][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_jprof"))
            .args(["run", "--workload", "crashy"])
            .args(extra)
            .output()
            .expect("spawn jprof");
        assert_eq!(out.status.code(), Some(11), "jprof run {extra:?}: {out:?}");
        assert!(out.stdout.is_empty(), "no row for a panicked run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("run panicked: "), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_jprof_subcommand_exits_0_on_help_and_2_on_an_unknown_argument() {
    let jprof = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_jprof"))
            .args(args)
            .output()
            .expect("spawn jprof")
    };
    for sub in [
        "trace", "suite", "chaos", "report", "serve", "client", "run", "cluster", "list",
    ] {
        for help in ["--help", "-h"] {
            let out = jprof(&[sub, help]);
            assert_eq!(out.status.code(), Some(0), "jprof {sub} {help}: {out:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("usage:"), "jprof {sub} {help}: {stdout}");
        }
        let out = jprof(&[sub, "--no-such-flag", "1"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "jprof {sub} --no-such-flag: {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument"), "{stderr}");
    }
}

#[test]
fn disabled_injector_changes_no_measurement() {
    // The fault plane is always compiled in; with injection disabled the
    // hooks must be measurement-invisible — identical cycles, checksum,
    // and Table II counters.
    let workload = by_name("compress").expect("workload");
    let bare = Session::new(workload.as_ref(), ProblemSize::S1)
        .agent(AgentChoice::ipa())
        .run()
        .expect("run");
    let plumbed = Session::new(workload.as_ref(), ProblemSize::S1)
        .agent(AgentChoice::ipa())
        .faults(Arc::new(FaultInjector::disabled()))
        .run()
        .expect("run");
    assert_eq!(bare.seconds, plumbed.seconds);
    assert_eq!(bare.checksum, plumbed.checksum);
    let (a, b) = (bare.profile.unwrap(), plumbed.profile.unwrap());
    assert_eq!(a.native_method_calls, b.native_method_calls);
    assert_eq!(a.jni_calls, b.jni_calls);
    assert_eq!(a.total.native, b.total.native);
    assert_eq!(a.total.bytecode, b.total.bytecode);
}

#[test]
fn chaos_holds_invariants_and_is_deterministic() {
    let config = SuiteConfig::with_size(ProblemSize::S1).jobs(4);
    let first = run_chaos(config.clone(), 2);
    assert!(first.passed(), "{}", first.render());
    assert_eq!(first.cells, 80); // 2 seeds × 40 cells
    assert!(first.injected() > 0, "chaos injected nothing");
    // The tier pipeline is in the blast radius: the compile-abort site
    // must be consulted (every promotion attempt) and fire under the
    // standard chaos plan — the invariant pass above already proved the
    // half-charged aborts kept every cell's ledger exact.
    let (_, consulted, injected) = first
        .sites
        .iter()
        .find(|&&(label, _, _)| label == "tier-compile-abort")
        .copied()
        .expect("tier-compile-abort site missing from chaos summary");
    assert!(consulted > 0, "no compile attempts consulted the site");
    assert!(injected > 0, "chaos never aborted a tier compile");
    assert!(
        !first.failures.is_empty(),
        "chaos rates should fell at least one cell"
    );
    // Deterministic under re-run and under a different job count.
    let second = run_chaos(config.jobs(1), 2);
    assert_eq!(first.render(), second.render());
}
