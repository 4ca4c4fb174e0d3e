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
//! Each cell also runs bare, with no metrics registry and no trace sink,
//! and that run's row, `VmStats` digest and result key must match the
//! same committed columns: observation planes never change a measured quantity, and the
//! bare path is pinned absolutely rather than against a live metered run.
//!
//! `tests/golden/ids.txt` pins every dense id table the same way: one
//! `Type<TAB>index<TAB>name` line per variant. Those indices are not just
//! array slots: a [`FaultSite`] index salts its fault-decision stream, a
//! [`SpanStage`] index is the `/v1/spans/bin` wire byte, and the metrics
//! and trace-kind orders fix exposition and digest order.
//!
//! The ignored `regenerate_golden_corpus` test rewrites both files:
//!
//! ```sh
//! cargo test --release --test golden -- --ignored
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use jnativeprof::cell::{cell_row_json, CellQuantities};
use jnativeprof::session::Session;
use jvmsim_cache::Digest;
use jvmsim_faults::FaultSite;
use jvmsim_metrics::{Bucket, CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
use jvmsim_spans::SpanStage;
use jvmsim_trace::{csv::events_csv, TraceRecorder};
use jvmsim_vm::{TiersMode, TraceEventKind, TraceSink, VmStats};
use workloads::{by_name, ProblemSize};

const CORPUS: &str = include_str!("golden/cells.tsv");
const IDS: &str = include_str!("golden/ids.txt");

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

/// One run of a cell: its result key and its agent label, `row` and
/// `stats_sha256` columns. The row is escaped onto one line (injectively,
/// so comparing lines compares rows).
struct CellRun {
    key: String,
    label: &'static str,
    row: String,
    stats: String,
}

/// Run one cell, with `observers` (a trace sink and a metrics registry)
/// attached when given, bare otherwise.
fn run_cell(
    workload: &str,
    agent: &str,
    tiers: TiersMode,
    observers: Option<(Arc<dyn TraceSink>, MetricsRegistry)>,
) -> CellRun {
    let w = by_name(workload).expect("corpus workload exists");
    let mut session = Session::new(w.as_ref(), ProblemSize::S1)
        .agent(agent.parse().expect("corpus agent label"))
        .tiers(tiers);
    if let Some((trace, registry)) = observers {
        session = session.trace(trace).metrics(registry);
    }
    let key = session.result_key().digest().to_hex();
    let run = session
        .run()
        .unwrap_or_else(|e| panic!("{workload}/{agent}/{}: {e}", tiers.label()));
    let row = cell_row_json(workload, run.agent, 1, &CellQuantities::from_run(&run))
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\t', "\\t");
    CellRun {
        key,
        label: run.agent,
        row,
        stats: stats_digest(&run.outcome.stats),
    }
}

/// The corpus line of one cell, run with a trace recorder and a metrics
/// registry attached.
fn cell_line(workload: &str, agent: &str, tiers: TiersMode) -> String {
    let recorder = TraceRecorder::with_default_capacity();
    let registry = MetricsRegistry::new();
    let observers = (
        Arc::clone(&recorder) as Arc<dyn TraceSink>,
        registry.clone(),
    );
    let CellRun {
        key,
        label,
        row,
        stats,
    } = run_cell(workload, agent, tiers, Some(observers));
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.dropped(), 0, "trace buffer too small for size 1");
    let trace = Digest::of(events_csv(&snapshot).as_bytes()).to_hex();
    let metrics = metrics_digest(&registry.snapshot());
    format!(
        "{workload}\t{label}\t{}\t{trace}\t{stats}\t{metrics}\t{key}\t{row}",
        tiers.label()
    )
}

/// Every cell of the matrix, with the corpus agent argument each was run
/// with.
fn cells() -> impl Iterator<Item = (&'static str, &'static str, TiersMode)> {
    WORKLOADS.into_iter().flat_map(|workload| {
        AGENTS.into_iter().flat_map(move |agent| {
            TiersMode::ALL
                .into_iter()
                .map(move |tiers| (workload, agent, tiers))
        })
    })
}

/// Every cell of the matrix, one line each, in file order.
fn corpus_lines() -> Vec<String> {
    let mut lines: Vec<String> = cells()
        .map(|(workload, agent, tiers)| cell_line(workload, agent, tiers))
        .collect();
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
fn golden_corpus_matches_every_bare_cell() {
    let expected = by_cell(CORPUS.lines());
    let mut diffs = Vec::new();
    let mut checked = 0;
    for (workload, agent, tiers) in cells() {
        let run = run_cell(workload, agent, tiers, None);
        let cell = format!("{workload}/{}/{}", run.label, tiers.label());
        let Some(want) = expected.get(&cell) else {
            diffs.push(format!("{cell}: missing from the corpus"));
            continue;
        };
        checked += 1;
        let columns = [
            ("stats_sha256", &run.stats),
            ("result_key", &run.key),
            ("row", &run.row),
        ];
        for (column, got) in columns {
            let i = COLUMNS.iter().position(|c| *c == column).expect("column");
            if want[i] != got {
                diffs.push(format!(
                    "{cell} bare {column}:\n  expected {}\n  actual   {got}",
                    want[i]
                ));
            }
        }
    }
    assert_eq!(checked, 120, "every bare cell has a corpus line");
    assert!(
        diffs.is_empty(),
        "bare golden cells differ:\n{}",
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

/// One `(type, index, name)` row per variant of every dense id table, in
/// declaration order.
fn id_rows() -> Vec<(&'static str, usize, &'static str)> {
    macro_rules! rows {
        ($($ty:ident),+) => {
            [$($ty::ALL.map(|id| (stringify!($ty), id.index(), id.name())).to_vec()),+].concat()
        };
    }
    rows!(
        Bucket,
        CounterId,
        GaugeId,
        HistogramId,
        TraceEventKind,
        SpanStage,
        FaultSite
    )
}

/// The `ids.txt` text for [`id_rows`].
fn ids_text() -> String {
    id_rows()
        .into_iter()
        .map(|(ty, index, name)| format!("{ty}\t{index}\t{name}\n"))
        .collect()
}

#[test]
fn golden_id_tables_match_and_names_are_unique() {
    let actual = ids_text();
    let diffs: Vec<String> = IDS
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  expected {want}\n  actual   {got}"))
        .collect();
    assert!(
        diffs.is_empty() && IDS.lines().count() == actual.lines().count(),
        "id tables differ from tests/golden/ids.txt ({} vs {} lines):\n{}",
        IDS.lines().count(),
        actual.lines().count(),
        diffs.join("\n")
    );
    let mut names = BTreeSet::new();
    for (ty, _, name) in id_rows() {
        assert!(names.insert((ty, name)), "duplicate {ty} name {name}");
    }
}

#[test]
#[ignore = "rewrites tests/golden/cells.tsv and tests/golden/ids.txt"]
fn regenerate_golden_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let mut cells = format!("# {}\n", COLUMNS.join("\t"));
    for line in corpus_lines() {
        cells.push_str(&line);
        cells.push('\n');
    }
    std::fs::write(format!("{dir}/cells.tsv"), cells).expect("write cells.tsv");
    std::fs::write(format!("{dir}/ids.txt"), ids_text()).expect("write ids.txt");
}
