//! Tier determinism across the parallel driver (ISSUE satellite):
//! for any workload and any `--tiers` setting, tier-up ordinals and the
//! per-tier cycle columns must be **byte-identical** at `--jobs 1` and
//! `--jobs 4`. Promotion decisions live entirely inside each cell's
//! deterministic simulator, so worker scheduling can only change
//! wall-clock time — never which call crosses a threshold or which
//! back-edge fires an OSR.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::{collections::BTreeMap, path::PathBuf};

use jnativeprof::session::Session;
use jvmsim_cache::CacheStore;
use jvmsim_metrics::{Bucket, HistogramId};
use jvmsim_trace::{TraceEvent, TraceRecorder};
use jvmsim_vm::{TiersMode, TraceEventKind};
use nativeprof_bench::{
    agents_artifact, run_suite, run_suite_with_workloads, table1_artifact, table2_artifact,
    SuiteConfig, SuiteResult,
};
use proptest::prelude::*;
use workloads::{by_name, ProblemSize};

const WORKLOADS: [&str; 8] = [
    "compress",
    "jess",
    "db",
    "javac",
    "mpegaudio",
    "mtrt",
    "jack",
    "jbb",
];

const MODES: [TiersMode; 3] = [TiersMode::InterpOnly, TiersMode::Tiered, TiersMode::Full];

fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jvmsim-tiers-test-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn artifacts(suite: &SuiteResult) -> (String, String, String) {
    (
        table1_artifact(&suite.table1, suite.jbb).to_csv(),
        table2_artifact(&suite.table2).to_csv(),
        agents_artifact(&suite.agent_rows).to_csv(),
    )
}

/// Every memoized cell entry in a store, keyed by file name. Schema-v3
/// rows embed the per-tier cycle columns, so byte equality here *is*
/// column equality.
fn cell_bytes(store: &CacheStore) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    for entry in std::fs::read_dir(store.root().join("cell")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        map.insert(name, std::fs::read(&path).unwrap());
    }
    map
}

/// Tier-transition events (kind, cycles-at-emission, method) in order —
/// the "tier-up ordinals" of a run.
fn tier_ordinals(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::TierUpC1
                    | TraceEventKind::TierUpC2
                    | TraceEventKind::Osr
                    | TraceEventKind::Deopt
            )
        })
        .copied()
        .collect()
}

/// One traced run of `workload` at `mode`; returns the tier ordinals.
fn traced_ordinals(workload: &str, mode: TiersMode) -> Vec<TraceEvent> {
    let w = by_name(workload).unwrap();
    let recorder = TraceRecorder::new(1 << 16);
    Session::new(w.as_ref(), ProblemSize::S1)
        .tiers(mode)
        .trace(recorder.clone() as Arc<dyn jvmsim_vm::TraceSink>)
        .run()
        .unwrap();
    tier_ordinals(&recorder.snapshot().merged_events())
}

/// The bucket ledger partitions `total_cycles` **exactly** in every cell
/// at every `--tiers` setting: each cell's bucket sum (filled by
/// charge-site mirroring) equals the PCL total the driver observed into
/// the `CellCycles` histogram — and tiers the mode forbids charge
/// nothing to their compile buckets.
#[test]
fn bucket_ledger_partitions_every_cell_at_every_tiers_setting() {
    for mode in MODES {
        let suite = run_suite(SuiteConfig::with_size(ProblemSize::S1).tiers(mode).jobs(2));
        assert!(suite.failures.is_empty(), "{mode:?}: {:?}", suite.failures);
        for e in &suite.metrics {
            let cell = format!("{}/{} at {:?}", e.benchmark, e.agent, mode);
            let h = e.snapshot.histogram(HistogramId::CellCycles);
            assert_eq!(h.count, 1, "{cell}");
            assert_eq!(
                e.snapshot.total_cycles(),
                h.sum,
                "{cell}: bucket sum != PCL total"
            );
            let c1c = e.snapshot.bucket_cycles(Bucket::C1Compile);
            let c2c = e.snapshot.bucket_cycles(Bucket::C2Compile);
            match mode {
                TiersMode::InterpOnly => assert_eq!(c1c + c2c, 0, "{cell}"),
                TiersMode::Tiered => assert_eq!(c2c, 0, "{cell}"),
                TiersMode::Full => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `--jobs 1` vs `--jobs 4` over a random workload × tiers cell:
    /// identical artifacts AND byte-identical memoized cell rows (which
    /// carry the per-tier cycle columns since schema v3).
    #[test]
    fn suite_rows_are_byte_identical_across_job_counts(
        w_ix in 0usize..8,
        mode_ix in 0usize..3,
    ) {
        let workload = WORKLOADS[w_ix];
        let mode = MODES[mode_ix];
        // `run_suite_with_workloads` always appends the JBB cells, so the
        // list only carries non-jbb names.
        let jvm98: Vec<&'static str> =
            if workload == "jbb" { vec![] } else { vec![workload] };

        let store1 = CacheStore::open(scratch("j1")).unwrap();
        let store4 = CacheStore::open(scratch("j4")).unwrap();
        let seq = run_suite_with_workloads(
            SuiteConfig::with_size(ProblemSize::S1).tiers(mode).cache(store1.clone()),
            &jvm98,
        );
        let par = run_suite_with_workloads(
            SuiteConfig::with_size(ProblemSize::S1).tiers(mode).jobs(4).cache(store4.clone()),
            &jvm98,
        );
        prop_assert!(seq.failures.is_empty(), "{:?}", seq.failures);
        prop_assert!(par.failures.is_empty(), "{:?}", par.failures);
        prop_assert_eq!(artifacts(&seq), artifacts(&par));
        // Same digests, same bytes: the memoized v3 rows (per-tier cycle
        // columns included) are byte-identical.
        prop_assert_eq!(cell_bytes(&store1), cell_bytes(&store4));
    }

    /// Tier-up ordinals are scheduling-independent: four concurrent
    /// traced sessions and one sequential session of the same cell all
    /// emit the same tier-transition stream, event for event.
    #[test]
    fn tier_up_ordinals_are_identical_under_concurrency(
        w_ix in 0usize..8,
        mode_ix in 1usize..3, // interp-only has no transitions to order
    ) {
        let workload = WORKLOADS[w_ix];
        let mode = MODES[mode_ix];
        let sequential = traced_ordinals(workload, mode);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let name = workload.to_owned();
                std::thread::spawn(move || traced_ordinals(&name, mode))
            })
            .collect();
        for h in handles {
            let concurrent = h.join().unwrap();
            prop_assert_eq!(&sequential, &concurrent);
        }
        if mode == TiersMode::Full {
            prop_assert!(
                !sequential.is_empty(),
                "{workload}: full pipeline produced no tier transitions"
            );
        }
    }
}
