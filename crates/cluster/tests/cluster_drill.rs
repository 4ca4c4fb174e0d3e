//! End-to-end kill/rejoin drill on a small matrix: a 2-member fleet,
//! one seeded kill, one wiped rejoin, every invariant checked.

use jvmsim_cluster::{cluster_drill, ClusterDrillConfig};

#[test]
fn small_fleet_survives_a_kill_and_a_wiped_rejoin() {
    let root = std::env::temp_dir().join(format!("jvmsim-cluster-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ClusterDrillConfig {
        peers: 2,
        kill: 1,
        seed: 7,
        size: 1,
        workloads: Some(vec!["db".to_owned(), "jess".to_owned()]),
        cache_root: Some(root.clone()),
        // Quiet peer transport: this test gates on the exactly-once and
        // byte-identity invariants, not on fault-site survival (the
        // seeded-chaos path is exercised by the `jprof cluster` drill).
        peer_fault_ppm: 0,
        ..ClusterDrillConfig::default()
    };
    let report = cluster_drill(&config).expect("drill setup");
    let _ = std::fs::remove_dir_all(&root);

    assert!(
        report.is_clean(),
        "drill violations: {:#?}\n{}",
        report.violations,
        report.render_summary()
    );
    assert_eq!(report.cells, 10, "2 workloads x 5 agents");
    assert_eq!(report.killed.len(), 1, "exactly one member must die");
    // Healthy pass: every cell computed exactly once fleet-wide.
    assert_eq!(report.runs_after_pass[0], 10);
    // A single kill plus a wiped rejoin can force at most one recompute
    // per cell: pass 2 recomputes what the death rerouted, pass 3
    // recomputes only entries whose sole copy died with the wiped disk
    // (cells the victim served from its own cache before the kill).
    let kill_recomputes = report.runs_after_pass[1] - report.runs_after_pass[0];
    let rejoin_recomputes = report.runs_after_pass[2] - report.runs_after_pass[1];
    assert!(
        kill_recomputes + rejoin_recomputes <= report.cells as u64,
        "one failure cost more than one recompute per cell: {report:#?}"
    );
    // Everything the survivor recomputed in pass 2 must come back to the
    // wiped rejoiner over the peer tier, not as fresh runs.
    assert_eq!(
        report.peer_hits, kill_recomputes,
        "rejoin must refill the survivor-held entries from peers"
    );
    assert!(report.peer_hits > 0, "rejoin never touched the peer tier");
    assert!(report.failovers > 0, "the kill never forced a failover");
    assert_eq!(report.byte_mismatches, 0);
    for (i, &bytes) in report.store_bytes.iter().enumerate() {
        assert!(
            bytes <= report.eviction_limit,
            "member {i} store {bytes} over bound {}",
            report.eviction_limit
        );
    }
}

#[test]
fn traced_drill_partitions_every_root_and_stitches_the_fleet() {
    let root = std::env::temp_dir().join(format!("jvmsim-cluster-spans-it-{}", std::process::id()));
    let trace_path = root.join("fleet-trace.json");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create drill root");
    let config = ClusterDrillConfig {
        peers: 2,
        kill: 1,
        seed: 11,
        size: 1,
        workloads: Some(vec!["db".to_owned(), "jess".to_owned()]),
        cache_root: Some(root.join("stores")),
        peer_fault_ppm: 0,
        spans: true,
        trace_out: Some(trace_path.clone()),
        ..ClusterDrillConfig::default()
    };
    let report = cluster_drill(&config).expect("drill setup");
    let trace = std::fs::read_to_string(&trace_path);
    let _ = std::fs::remove_dir_all(&root);

    assert!(
        report.is_clean(),
        "drill violations: {:#?}\n{}",
        report.violations,
        report.render_summary()
    );
    assert!(report.spans_enabled);
    assert!(report.spans_total > 0, "a traced drill must record spans");
    assert_eq!(report.span_partition_violations, 0);
    // Cold pass-1 misses walk the peer tier, and the peer's /v1/cell
    // answer is traced under the propagated context — so a 2-member
    // fleet must stitch at least one trace.
    assert!(
        report.stitched_traces >= 1,
        "no trace crossed the fleet: {}",
        report.render_summary()
    );
    let summary = report.render_summary();
    assert!(summary.contains("partition_violations 0"), "{summary}");
    assert!(summary.contains("cluster stage recompute"), "{summary}");
    let trace = trace.expect("chrome trace written");
    assert!(trace.contains("\"traceEvents\""), "not a chrome trace");
    assert!(
        trace.contains("\"name\":\"member-1\""),
        "missing fleet lane"
    );
}

#[test]
fn a_panicking_workload_fails_drill_setup_with_a_typed_error() {
    let config = ClusterDrillConfig {
        workloads: Some(vec!["crashy".to_owned()]),
        ..ClusterDrillConfig::default()
    };
    let err = cluster_drill(&config).expect_err("crashy has no cell key");
    assert_eq!(err, "cell crashy/original: key derivation panicked");
}
