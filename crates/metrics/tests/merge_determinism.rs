//! The determinism contract, pinned by property test: interleaved
//! counter/gauge/histogram/charge updates distributed over N simulated
//! threads (ledgers) merge to the same [`MetricsSnapshot`] regardless of
//! merge order, and the registry's own fold agrees with a manual fold.

use proptest::prelude::*;

use jvmsim_metrics::{Bucket, CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};

/// Apply one encoded update to a thread ledger. The encoding keeps the
/// strategy simple: `kind` selects the metric family, `a`/`b` select the
/// id and the value.
fn apply(ledger: &mut MetricsSnapshot, kind: u8, a: u64, b: u64) {
    match kind % 5 {
        0 => ledger.add(
            CounterId::ALL[(a % CounterId::COUNT as u64) as usize],
            b % 1_000,
        ),
        1 => ledger.gauge_max(GaugeId::ALL[(a % GaugeId::COUNT as u64) as usize], b),
        2 => ledger.observe(
            HistogramId::ALL[(a % HistogramId::COUNT as u64) as usize],
            b,
        ),
        3 => ledger.charge(Bucket::Workload, b % 100_000),
        _ => ledger.charge(
            Bucket::ALL[(a % Bucket::COUNT as u64) as usize],
            b % 100_000,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_order_never_changes_the_snapshot(
        threads in 1usize..6,
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..200),
        rotation in any::<usize>(),
    ) {
        let reg = MetricsRegistry::new();
        // Interleave the update stream over the simulated threads.
        let mut ledgers = vec![MetricsSnapshot::default(); threads];
        for (i, (kind, a, b)) in ops.iter().enumerate() {
            apply(&mut ledgers[i % threads], *kind, *a, *b);
        }
        for (i, ledger) in ledgers.iter().enumerate() {
            reg.absorb(i, ledger);
        }
        reg.global().incr(CounterId::CellsStarted);

        // Manual folds in three different orders: forward, reverse, rotated.
        let mut parts = ledgers;
        parts.push(reg.global().snapshot());
        let fold = |order: &[usize]| {
            let mut out = MetricsSnapshot::default();
            for &i in order {
                out.absorb(&parts[i]);
            }
            out
        };
        let forward: Vec<usize> = (0..parts.len()).collect();
        let reverse: Vec<usize> = (0..parts.len()).rev().collect();
        let rot = rotation % parts.len();
        let rotated: Vec<usize> = (0..parts.len()).map(|i| (i + rot) % parts.len()).collect();

        let a = fold(&forward);
        let b = fold(&reverse);
        let c = fold(&rotated);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        // The registry's own fold agrees with the manual one.
        prop_assert_eq!(&a, &reg.snapshot());
    }

    #[test]
    fn absorb_is_associative(
        ops_a in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..50),
        ops_b in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..50),
        ops_c in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..50),
    ) {
        let snap = |ops: &[(u8, u64, u64)]| {
            let mut ledger = MetricsSnapshot::default();
            for (kind, a, b) in ops {
                apply(&mut ledger, *kind, *a, *b);
            }
            ledger
        };
        let (a, b, c) = (snap(&ops_a), snap(&ops_b), snap(&ops_c));
        // (a + b) + c == a + (b + c)
        let mut left = a.clone();
        left.absorb(&b);
        left.absorb(&c);
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut right = a.clone();
        right.absorb(&bc);
        prop_assert_eq!(left, right);
    }
}
