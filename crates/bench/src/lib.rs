//! Shared measurement and rendering code for the Table I / Table II
//! regeneration binaries.
//!
//! The paper's numbers are reproduced in *shape*, not absolute value: the
//! simulated problem sizes are scaled down (EXPERIMENTS.md documents the
//! factors), the virtual clock runs at the paper's 2.66 GHz, and each
//! measurement is a single run because the simulator is deterministic
//! (the paper needed the median of 15 runs on real hardware).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;

pub use driver::{
    agents_artifact, run_chaos, run_suite, run_suite_with_workloads, table1_artifact,
    table2_artifact, CellFailure, CellFailureKind, ChaosReport, ChaosSpec, SuiteConfig,
    SuiteResult,
};

use jnativeprof::harness::{self, overhead_percent, throughput_overhead_percent, AgentChoice};
use jnativeprof::session::{RunOutcome, Session};
use jvmsim_metrics::{Bucket, MetricsEntry};
use workloads::{by_name, ProblemSize, Workload};

/// Run `workload` under `agent`, panicking on any failure — the standard
/// entry for the measurement paths here, which expect healthy workloads.
fn measure(workload: &dyn Workload, size: ProblemSize, agent: AgentChoice) -> RunOutcome {
    match Session::new(workload, size).agent(agent).run() {
        Ok(run) => run,
        Err(e) => panic!("{}: {e}", workload.name()),
    }
}

/// Paper reference values for Table I (JVM98 rows).
#[derive(Debug, Clone, Copy)]
pub struct PaperTable1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// "time original \[s\]".
    pub time_original_s: f64,
    /// "overhead SPA" in percent.
    pub overhead_spa_pct: f64,
    /// "overhead IPA" in percent.
    pub overhead_ipa_pct: f64,
}

/// Table I of the paper (JVM98 rows).
pub const PAPER_TABLE1: [PaperTable1Row; 7] = [
    PaperTable1Row {
        name: "compress",
        time_original_s: 5.74,
        overhead_spa_pct: 7_667.60,
        overhead_ipa_pct: 11.15,
    },
    PaperTable1Row {
        name: "jess",
        time_original_s: 1.49,
        overhead_spa_pct: 15_819.46,
        overhead_ipa_pct: 2.68,
    },
    PaperTable1Row {
        name: "db",
        time_original_s: 14.25,
        overhead_spa_pct: 1_527.23,
        overhead_ipa_pct: 0.70,
    },
    PaperTable1Row {
        name: "javac",
        time_original_s: 3.80,
        overhead_spa_pct: 5_813.95,
        overhead_ipa_pct: 13.68,
    },
    PaperTable1Row {
        name: "mpegaudio",
        time_original_s: 2.54,
        overhead_spa_pct: 9_801.57,
        overhead_ipa_pct: 4.33,
    },
    PaperTable1Row {
        name: "mtrt",
        time_original_s: 1.16,
        overhead_spa_pct: 41_775.00,
        overhead_ipa_pct: 0.00,
    },
    PaperTable1Row {
        name: "jack",
        time_original_s: 3.47,
        overhead_spa_pct: 3_448.13,
        overhead_ipa_pct: 20.17,
    },
];

/// Paper Table I JBB2005 row: throughput 7 251 ops/s original, 66.4 under
/// SPA (10 820.18 % overhead), 6 021 under IPA (20.43 %).
pub const PAPER_JBB_THROUGHPUT: (f64, f64, f64) = (7_251.0, 66.4, 6_021.0);

/// Paper reference values for Table II.
#[derive(Debug, Clone, Copy)]
pub struct PaperTable2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// "% native execution".
    pub pct_native: f64,
    /// "JNI calls" (15 JVM98 runs / the warehouse sequence).
    pub jni_calls: u64,
    /// "native method calls".
    pub native_method_calls: u64,
}

/// Table II of the paper.
pub const PAPER_TABLE2: [PaperTable2Row; 8] = [
    PaperTable2Row {
        name: "compress",
        pct_native: 4.54,
        jni_calls: 1_538,
        native_method_calls: 45_858,
    },
    PaperTable2Row {
        name: "jess",
        pct_native: 5.38,
        jni_calls: 918,
        native_method_calls: 492_762,
    },
    PaperTable2Row {
        name: "db",
        pct_native: 0.84,
        jni_calls: 512,
        native_method_calls: 595_849,
    },
    PaperTable2Row {
        name: "javac",
        pct_native: 16.82,
        jni_calls: 25_633,
        native_method_calls: 3_701_694,
    },
    PaperTable2Row {
        name: "mpegaudio",
        pct_native: 0.95,
        jni_calls: 571,
        native_method_calls: 106_117,
    },
    PaperTable2Row {
        name: "mtrt",
        pct_native: 1.62,
        jni_calls: 513,
        native_method_calls: 73_357,
    },
    PaperTable2Row {
        name: "jack",
        pct_native: 20.26,
        jni_calls: 1_308,
        native_method_calls: 4_991_615,
    },
    PaperTable2Row {
        name: "JBB2005",
        pct_native: 12.19,
        jni_calls: 770_123,
        native_method_calls: 199_879,
    },
];

/// One measured Table I row.
#[derive(Debug, Clone)]
pub struct MeasuredOverheadRow {
    /// Benchmark name.
    pub name: String,
    /// Virtual seconds, original.
    pub time_original_s: f64,
    /// Virtual seconds under SPA.
    pub time_spa_s: f64,
    /// Virtual seconds under IPA.
    pub time_ipa_s: f64,
    /// Measured SPA overhead in percent.
    pub overhead_spa_pct: f64,
    /// Measured IPA overhead in percent.
    pub overhead_ipa_pct: f64,
}

/// One measured Table II row.
#[derive(Debug, Clone)]
pub struct MeasuredProfileRow {
    /// Benchmark name.
    pub name: String,
    /// Measured % native execution (IPA report).
    pub pct_native: f64,
    /// Intercepted JNI calls.
    pub jni_calls: u64,
    /// Native method calls.
    pub native_method_calls: u64,
}

/// One agent-axis row: the ALLOC and LOCK summary triples for a workload.
#[derive(Debug, Clone)]
pub struct MeasuredAgentRow {
    /// Benchmark name.
    pub name: String,
    /// `(sites, total_objects, total_bytes)` when the ALLOC cell ran.
    pub alloc: Option<(u64, u64, u64)>,
    /// `(entries, contended, blocked_cycles)` when the LOCK cell ran.
    pub lock: Option<(u64, u64, u64)>,
}

/// Measure one JVM98 workload under all three configurations.
pub fn measure_overheads(name: &str, size: ProblemSize) -> MeasuredOverheadRow {
    let workload = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let base = measure(workload.as_ref(), size, AgentChoice::None);
    let spa = measure(workload.as_ref(), size, AgentChoice::Spa);
    let ipa = measure(workload.as_ref(), size, AgentChoice::ipa());
    assert_eq!(base.checksum, spa.checksum, "{name}: SPA changed behaviour");
    assert_eq!(base.checksum, ipa.checksum, "{name}: IPA changed behaviour");
    MeasuredOverheadRow {
        name: name.to_owned(),
        time_original_s: base.seconds,
        time_spa_s: spa.seconds,
        time_ipa_s: ipa.seconds,
        overhead_spa_pct: overhead_percent(&base, &spa),
        overhead_ipa_pct: overhead_percent(&base, &ipa),
    }
}

/// Measure the JBB2005 throughput row: `(orig, spa, ipa)` ops/s plus the
/// two overhead percentages.
pub fn measure_jbb_throughput(size: ProblemSize) -> (f64, f64, f64, f64, f64) {
    let workload = by_name("jbb").unwrap();
    let tx = |run: &RunOutcome| run.checksum.max(0) as u64;
    let base = measure(workload.as_ref(), size, AgentChoice::None);
    let spa = measure(workload.as_ref(), size, AgentChoice::Spa);
    let ipa = measure(workload.as_ref(), size, AgentChoice::ipa());
    let t_base = base.throughput(tx(&base));
    let t_spa = spa.throughput(tx(&spa));
    let t_ipa = ipa.throughput(tx(&ipa));
    (
        t_base,
        t_spa,
        t_ipa,
        throughput_overhead_percent(t_base, t_spa),
        throughput_overhead_percent(t_base, t_ipa),
    )
}

/// Measure one workload's Table II row with IPA.
pub fn measure_profile(name: &str, size: ProblemSize) -> MeasuredProfileRow {
    let workload = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let run = measure(workload.as_ref(), size, AgentChoice::ipa());
    let profile = run.profile.expect("IPA attached");
    MeasuredProfileRow {
        name: name.to_owned(),
        pct_native: profile.percent_native(),
        jni_calls: profile.jni_calls,
        native_method_calls: profile.native_method_calls,
    }
}

/// Render a Table I analog.
pub fn render_table1(rows: &[MeasuredOverheadRow], jbb: (f64, f64, f64, f64, f64)) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE I (analog): EXECUTION TIME AND PROFILING OVERHEAD FOR SPA AND IPA"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12} {:>14} {:>12} || paper: {:>12} {:>10}",
        "benchmark",
        "time orig[s]",
        "time SPA[s]",
        "time IPA[s]",
        "overhead SPA",
        "overhead IPA",
        "ovh SPA",
        "ovh IPA"
    );
    for row in rows {
        let paper = PAPER_TABLE1.iter().find(|p| p.name == row.name);
        let _ = writeln!(
            out,
            "{:<12} {:>12.4} {:>12.4} {:>12.4} {:>13.2}% {:>11.2}% || {:>11.2}% {:>9.2}%",
            row.name,
            row.time_original_s,
            row.time_spa_s,
            row.time_ipa_s,
            row.overhead_spa_pct,
            row.overhead_ipa_pct,
            paper.map_or(f64::NAN, |p| p.overhead_spa_pct),
            paper.map_or(f64::NAN, |p| p.overhead_ipa_pct),
        );
    }
    let gm = |f: fn(&MeasuredOverheadRow) -> f64| {
        harness::geometric_mean(&rows.iter().map(f).collect::<Vec<_>>())
    };
    let _ = writeln!(
        out,
        "{:<12} {:>12.4} {:>12.4} {:>12.4} {:>13.2}% {:>11.2}% || {:>11.2}% {:>9.2}%",
        "geom. mean",
        gm(|r| r.time_original_s),
        gm(|r| r.time_spa_s),
        gm(|r| r.time_ipa_s),
        gm(|r| r.overhead_spa_pct),
        gm(|r| r.overhead_ipa_pct),
        7_696.25,
        7.31,
    );
    let (b, s, i, ovh_s, ovh_i) = jbb;
    let _ = writeln!(
        out,
        "{:<12} {:>12.1} {:>12.1} {:>12.1} {:>13.2}% {:>11.2}% || {:>11.2}% {:>9.2}%  (throughput ops/s)",
        "JBB2005", b, s, i, ovh_s, ovh_i, 10_820.18, 20.43,
    );
    out
}

/// Render the internal overhead-attribution table: one row per suite
/// cell, decomposing the cell's total charged cycles into the nine
/// attribution buckets, plus the overhead percentage those buckets imply
/// (`non-workload / workload × 100`). This reproduces Table I's overhead
/// columns from *internal* measurement — every cycle is attributed at the
/// charge site — instead of end-to-end time subtraction.
pub fn render_overhead_attribution(entries: &[MetricsEntry]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "OVERHEAD ATTRIBUTION: CHARGED CYCLES BY BUCKET (internal measurement)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:<9} {:>16} {:>16} {:>13} {:>13} {:>13} {:>13} {:>7} {:>11} {:>11} {:>11} {:>10}",
        "benchmark",
        "agent",
        "total_cycles",
        "workload",
        "ipa_probe",
        "spa_probe",
        "alloc_probe",
        "lock_probe",
        "trace",
        "harness",
        "c1_compile",
        "c2_compile",
        "overhead"
    );
    for e in entries {
        let s = &e.snapshot;
        let workload = s.bucket_cycles(Bucket::Workload);
        let overhead_pct = if workload == 0 {
            0.0
        } else {
            s.overhead_cycles() as f64 / workload as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "{:<12} {:<9} {:>16} {:>16} {:>13} {:>13} {:>13} {:>13} {:>7} {:>11} {:>11} {:>11} {:>9.2}%",
            e.benchmark,
            e.agent,
            s.total_cycles(),
            workload,
            s.bucket_cycles(Bucket::IpaProbe),
            s.bucket_cycles(Bucket::SpaProbe),
            s.bucket_cycles(Bucket::AllocProbe),
            s.bucket_cycles(Bucket::LockProbe),
            s.bucket_cycles(Bucket::Trace),
            s.bucket_cycles(Bucket::Harness),
            s.bucket_cycles(Bucket::C1Compile),
            s.bucket_cycles(Bucket::C2Compile),
            overhead_pct,
        );
    }
    out
}

/// Render the agent-axis table: ALLOC site totals and LOCK contention
/// totals per workload, `-` for an agent that did not run.
pub fn render_agents(rows: &[MeasuredAgentRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "AGENT AXIS: ALLOCATION SITES (ALLOC) AND MONITOR CONTENTION (LOCK)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>11} {:>13} {:>13} {:>12} {:>12} {:>16}",
        "benchmark",
        "alloc sites",
        "alloc objects",
        "alloc bytes",
        "lock entries",
        "contended",
        "blocked cycles"
    );
    let col = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |n| n.to_string());
    for row in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>11} {:>13} {:>13} {:>12} {:>12} {:>16}",
            row.name,
            col(row.alloc.map(|a| a.0)),
            col(row.alloc.map(|a| a.1)),
            col(row.alloc.map(|a| a.2)),
            col(row.lock.map(|l| l.0)),
            col(row.lock.map(|l| l.1)),
            col(row.lock.map(|l| l.2)),
        );
    }
    out
}

/// Render a Table II analog.
pub fn render_table2(rows: &[MeasuredProfileRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "TABLE II (analog): PROFILING STATISTICS (IPA)");
    let _ = writeln!(
        out,
        "{:<12} {:>15} {:>12} {:>20} || paper: {:>10} {:>12} {:>14}",
        "benchmark",
        "% native exec",
        "JNI calls",
        "native method calls",
        "% native",
        "JNI",
        "native calls"
    );
    for row in rows {
        let paper_name = if row.name == "jbb" {
            "JBB2005"
        } else {
            row.name.as_str()
        };
        let paper = PAPER_TABLE2.iter().find(|p| p.name == paper_name);
        let _ = writeln!(
            out,
            "{:<12} {:>14.2}% {:>12} {:>20} || {:>9.2}% {:>12} {:>14}",
            row.name,
            row.pct_native,
            row.jni_calls,
            row.native_method_calls,
            paper.map_or(f64::NAN, |p| p.pct_native),
            paper.map_or(0, |p| p.jni_calls),
            paper.map_or(0, |p| p.native_method_calls),
        );
    }
    out
}
