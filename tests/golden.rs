//! The golden corpus: absolute, committed expectations for every cell of
//! the 8-workload × 5-agent × 3-`--tiers` matrix at size 1.
//!
//! Every other equivalence test compares two live runs, so a change that
//! shifts both sides alike passes unnoticed. This one checks each run
//! against `tests/golden/cells.tsv`: the canonical [`cell_row_json`] row,
//! a SHA-256 of the run's transition-trace CSV export, a SHA-256 of
//! [`VmStats`] with its fields written out in declaration order, a
//! SHA-256 of the run's [`MetricsSnapshot`] (bucket cycles, counters,
//! gauges and histograms, each in declaration order) and the cell's
//! [`Session::result_key`] in hex. A changed key silently orphans every
//! result cache, so the key is pinned like an output. A mismatch names
//! every differing cell with expected and actual values.
//!
//! The ignored `regenerate_golden_corpus` test prints a fresh file. Every
//! corpus line contains a tab and none of the test harness's lines do:
//!
//! ```sh
//! cargo test --release --test golden -- --ignored --nocapture \
//!     | grep -P '\t' > tests/golden/cells.tsv
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use jnativeprof::cell::{cell_row_json, CellQuantities};
use jnativeprof::session::Session;
use jvmsim_cache::Digest;
use jvmsim_metrics::{Bucket, CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
use jvmsim_trace::{csv::events_csv, TraceRecorder};
use jvmsim_vm::{TiersMode, TraceSink, VmStats};
use workloads::{by_name, ProblemSize};

const CORPUS: &str = include_str!("golden/cells.tsv");

const COLUMNS: [&str; 8] = [
    "workload",
    "agent",
    "tiers",
    "trace_sha256",
    "stats_sha256",
    "metrics_sha256",
    "result_key",
    "row",
];

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

const AGENTS: [&str; 5] = ["original", "spa", "ipa", "alloc", "lock"];

/// `name=value\n` for each listed field. The destructuring has no `..`,
/// so a field added to `VmStats` fails to compile until it is listed.
macro_rules! stats_text {
    ($stats:expr; $($field:ident),+) => {{
        let VmStats { $($field),+ } = $stats;
        let mut text = String::new();
        $(text.push_str(&format!(concat!(stringify!($field), "={}\n"), $field));)+
        text
    }};
}

fn stats_digest(stats: &VmStats) -> String {
    let text = stats_text!(*stats; insns, invocations, native_calls, jni_upcalls,
        classes_loaded, allocations, events_dispatched, native_cycles, samples_taken,
        interp_cycles, c1_cycles, c2_cycles, c1_compile_cycles, c2_compile_cycles,
        c1_compiles, c2_compiles, osrs, deopts, tier_compile_aborts);
    Digest::of(text.as_bytes()).to_hex()
}

/// `name=value\n` for every bucket, counter, gauge and histogram of
/// `snapshot`, each family in declaration order; a histogram line lists
/// its bucket counts, then its sum and count.
fn metrics_digest(snapshot: &MetricsSnapshot) -> String {
    let mut text = String::new();
    for bucket in Bucket::ALL {
        let cycles = snapshot.bucket_cycles(bucket);
        text.push_str(&format!("bucket.{}={cycles}\n", bucket.name()));
    }
    for id in CounterId::ALL {
        text.push_str(&format!("counter.{}={}\n", id.name(), snapshot.counter(id)));
    }
    for id in GaugeId::ALL {
        text.push_str(&format!("gauge.{}={}\n", id.name(), snapshot.gauge(id)));
    }
    for id in HistogramId::ALL {
        let h = snapshot.histogram(id);
        text.push_str(&format!(
            "histogram.{}={:?},{},{}\n",
            id.name(),
            h.buckets,
            h.sum,
            h.count
        ));
    }
    Digest::of(text.as_bytes()).to_hex()
}

/// The corpus line of one cell. The row is escaped onto one line
/// (injectively, so comparing lines compares rows).
fn cell_line(workload: &str, agent: &str, tiers: TiersMode) -> String {
    let w = by_name(workload).expect("corpus workload exists");
    let recorder = TraceRecorder::with_default_capacity();
    let registry = MetricsRegistry::new();
    let session = Session::new(w.as_ref(), ProblemSize::S1)
        .agent(agent.parse().expect("corpus agent label"))
        .tiers(tiers)
        .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .metrics(registry.clone());
    let key = session.result_key().digest().to_hex();
    let run = session
        .run()
        .unwrap_or_else(|e| panic!("{workload}/{agent}/{}: {e}", tiers.label()));
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.dropped(), 0, "trace buffer too small for size 1");
    let row = cell_row_json(workload, run.agent, 1, &CellQuantities::from_run(&run))
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\t', "\\t");
    let trace = Digest::of(events_csv(&snapshot).as_bytes()).to_hex();
    let stats = stats_digest(&run.outcome.stats);
    let metrics = metrics_digest(&registry.snapshot());
    format!(
        "{workload}\t{}\t{}\t{trace}\t{stats}\t{metrics}\t{key}\t{row}",
        run.agent,
        tiers.label()
    )
}

/// Every cell of the matrix, one line each, in file order.
fn corpus_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        for agent in AGENTS {
            for tiers in TiersMode::ALL {
                lines.push(cell_line(workload, agent, tiers));
            }
        }
    }
    lines.sort();
    lines
}

/// Corpus lines keyed by `workload/agent/tiers`, split into columns.
fn by_cell<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeMap<String, Vec<&'a str>> {
    let mut cells = BTreeMap::new();
    for line in lines.filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), COLUMNS.len(), "malformed corpus line: {line}");
        let previous = cells.insert(fields[..3].join("/"), fields);
        assert!(previous.is_none(), "duplicate corpus cell: {line}");
    }
    cells
}

#[test]
fn golden_corpus_matches_every_cell() {
    let expected = by_cell(CORPUS.lines());
    assert_eq!(expected.len(), 120, "corpus covers the whole matrix");
    let lines = corpus_lines();
    let actual = by_cell(lines.iter().map(String::as_str));
    let mut diffs = Vec::new();
    for cell in expected
        .keys()
        .chain(actual.keys())
        .collect::<BTreeSet<_>>()
    {
        match (expected.get(cell), actual.get(cell)) {
            (Some(want), Some(got)) => {
                for (i, column) in COLUMNS.iter().enumerate().skip(3) {
                    if want[i] != got[i] {
                        diffs.push(format!(
                            "{cell} {column}:\n  expected {}\n  actual   {}",
                            want[i], got[i]
                        ));
                    }
                }
            }
            (Some(_), None) => diffs.push(format!("{cell}: not computed")),
            (None, _) => diffs.push(format!("{cell}: missing from the corpus")),
        }
    }
    assert!(
        diffs.is_empty(),
        "golden cells differ:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn golden_corpus_covers_virtual_dispatch_and_both_compiled_tiers() {
    let corpus = by_cell(CORPUS.lines());
    assert!(corpus.keys().any(|cell| cell.starts_with("mtrt/")));
    // A full-tier row with non-zero c1 and c2 cycle columns.
    assert!(corpus.values().any(|fields| fields[2] == "full"
        && !fields[7].contains("\"c1_cycles\":\"0\"")
        && !fields[7].contains("\"c2_cycles\":\"0\"")));
}

#[test]
#[ignore = "prints a regenerated corpus to stdout"]
fn regenerate_golden_corpus() {
    println!("# {}", COLUMNS.join("\t"));
    for line in corpus_lines() {
        println!("{line}");
    }
}
