//! `jprof cluster`: the kill/rejoin drill.
//!
//! Three passes over the workload × agent matrix against a live fleet,
//! asserting the robustness invariants on every cell:
//!
//! 1. **Healthy** — every cell routes to its ring home and is computed
//!    exactly once fleet-wide (`Σ serve_runs_executed == cells`), and
//!    every served row is byte-identical to the batch driver's (an
//!    independently computed reference, not the fleet's own output).
//! 2. **Kill** — a seeded `member-crash` schedule kills `kill` members
//!    mid-pass. The next failed request triggers a health sweep, the
//!    corpse is quarantined, routing fails over along the ring, and the
//!    successor recomputes only what the failure actually lost. Rows
//!    stay byte-identical; each death's final admission ledger must
//!    balance.
//! 3. **Rejoin** — the dead members come back *with wiped stores* (a
//!    replacement node). Their keys route home again, miss locally, and
//!    are refilled over the peer-fetch tier from the survivors — the
//!    pass that proves a rejoin costs peer traffic, not recomputes.
//!
//! After the passes the whole fleet drains; every member's all-lives
//! ledger must balance and every store must sit under the eviction
//! bound.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use jnativeprof::cell::{self, cell_row_json, CellQuantities};
use jnativeprof::harness::AGENT_AXIS;
use jnativeprof::session::SessionSpec;
use jnativeprof::workloads::{row_size, ProblemSize, AXIS};
use jvmsim_cache::{hex_decode, hex_encode};
use jvmsim_faults::{splitmix64, FaultInjector, FaultPlan, FaultSite};
use jvmsim_pcl::PAPER_CLOCK_HZ;
use jvmsim_serve::client::{connect_with_retry, http_request};
use jvmsim_serve::RunSpec;
use jvmsim_spans::{
    decode_spans, encode_spans, partition_violations, stitched_traces, StageLatencyTable,
};
use jvmsim_trace::chrome::chrome_span_json;

use crate::fleet::{Cluster, ClusterConfig};
use crate::ring::key_of;

/// Drill configuration.
#[derive(Debug, Clone)]
pub struct ClusterDrillConfig {
    /// Fleet size.
    pub peers: usize,
    /// Members to kill during pass 2 (clamped to `peers - 1`).
    pub kill: usize,
    /// Seed for the kill schedule, member fault plans, and retry jitter.
    pub seed: u64,
    /// Problem size for the JVM98-analog workloads (`jbb` runs at the
    /// conventional tenth, floored at 1).
    pub size: u32,
    /// Workload subset; `None` is the full eight-workload axis.
    pub workloads: Option<Vec<String>>,
    /// Per-plane store bound per member (bytes).
    pub eviction_limit: u64,
    /// Fleet store root; `None` uses a per-process temp dir that the
    /// drill removes afterwards.
    pub cache_root: Option<PathBuf>,
    /// When set, pass-1 rows are saved as
    /// `run-<workload>-<agent>-<size>.json` for external comparison
    /// against batch-driver rows.
    pub rows_dir: Option<PathBuf>,
    /// Injection rate (ppm) for the peer transport fault sites on every
    /// member.
    pub peer_fault_ppm: u32,
    /// Trace every request: per-member span planes, fleet-wide partition
    /// and stitching checks, the per-stage latency table, and the wire
    /// codec cross-check.
    pub spans: bool,
    /// When set (and `spans` is on), export the fleet's spans as Chrome
    /// `trace_event` JSON here after the drill.
    pub trace_out: Option<PathBuf>,
}

impl Default for ClusterDrillConfig {
    fn default() -> ClusterDrillConfig {
        ClusterDrillConfig {
            peers: 3,
            kill: 1,
            seed: 0,
            size: 1,
            workloads: None,
            eviction_limit: 256 * 1024,
            cache_root: None,
            rows_dir: None,
            peer_fault_ppm: 50_000,
            spans: false,
            trace_out: None,
        }
    }
}

/// What the drill observed and asserted.
#[derive(Debug, Clone, Default)]
pub struct ClusterDrillReport {
    /// Fleet size.
    pub peers: usize,
    /// Matrix size.
    pub cells: usize,
    /// Members killed (slot indices, kill order).
    pub killed: Vec<usize>,
    /// Fleet-wide rows computed by the end of each pass.
    pub runs_after_pass: [u64; 3],
    /// Served rows that differed from the batch reference (must be 0).
    pub byte_mismatches: usize,
    /// Peer-fetch hits / misses / retries across the fleet.
    pub peer_hits: u64,
    /// Peer walks that degraded to a recompute.
    pub peer_misses: u64,
    /// Extra peer-fetch attempts after the first.
    pub retries: u64,
    /// Routing failovers past quarantined members.
    pub failovers: u64,
    /// Store-compaction evictions across the fleet.
    pub evictions: u64,
    /// Final result-plane bytes per member.
    pub store_bytes: Vec<u64>,
    /// The configured store bound.
    pub eviction_limit: u64,
    /// Were span planes open? (The span fields below are meaningful only
    /// when they were.)
    pub spans_enabled: bool,
    /// Spans surviving in the fleet's rings (retired lives included).
    pub spans_total: u64,
    /// Spans the fleet dropped (ring eviction or injected saturation).
    pub spans_dropped: u64,
    /// Roots whose children failed to tile them exactly (must be 0).
    pub span_partition_violations: usize,
    /// Traces with spans on two or more members (peer-fetch hops
    /// stitched across the fleet).
    pub stitched_traces: usize,
    /// Fleet-wide per-stage latency table.
    pub stage_table: StageLatencyTable,
    /// Invariant breaks, each described (empty ⇔ clean).
    pub violations: Vec<String>,
}

impl ClusterDrillReport {
    /// Did every invariant hold?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic drill summary (stdout).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster peers {} cells {} killed {:?}\n",
            self.peers, self.cells, self.killed
        ));
        out.push_str(&format!(
            "cluster runs_executed pass1 {} pass2 {} pass3 {}\n",
            self.runs_after_pass[0], self.runs_after_pass[1], self.runs_after_pass[2]
        ));
        out.push_str(&format!(
            "cluster peer_hits {} peer_misses {} retries {} failovers {} evictions {}\n",
            self.peer_hits, self.peer_misses, self.retries, self.failovers, self.evictions
        ));
        out.push_str(&format!(
            "cluster byte_mismatches {}\n",
            self.byte_mismatches
        ));
        out.push_str(&format!(
            "cluster store_bytes {:?} limit {}\n",
            self.store_bytes, self.eviction_limit
        ));
        if self.spans_enabled {
            out.push_str(&format!(
                "cluster spans total {} dropped {} partition_violations {} stitched_traces {}\n",
                self.spans_total,
                self.spans_dropped,
                self.span_partition_violations,
                self.stitched_traces
            ));
            out.push_str(&self.stage_table.render("cluster"));
        }
        for violation in &self.violations {
            out.push_str(&format!("cluster VIOLATION {violation}\n"));
        }
        out.push_str(if self.is_clean() {
            "cluster verdict CLEAN\n"
        } else {
            "cluster verdict DEGRADED\n"
        });
        out
    }
}

/// One matrix cell: the request body and the spec whose digest shards it.
struct DrillCell {
    body: String,
    spec: SessionSpec,
    key: u64,
    file_name: String,
}

/// Run the drill.
///
/// # Errors
///
/// Setup failures only (store open, bind, reference-run failures);
/// invariant breaks are *reported* on the
/// [`violations`](ClusterDrillReport::violations) list, not errors.
pub fn cluster_drill(config: &ClusterDrillConfig) -> Result<ClusterDrillReport, String> {
    let cells = build_cells(config)?;
    let mut report = ClusterDrillReport {
        peers: config.peers.max(1),
        cells: cells.len(),
        eviction_limit: config.eviction_limit,
        ..ClusterDrillReport::default()
    };

    // The batch oracle: every cell's row computed independently of the
    // fleet (no cache, no HTTP) through the same Session API the suite
    // driver uses. Row bytes are a pure function of run identity, so
    // this is exactly what `jprof suite` would emit for the cell.
    let mut reference = Vec::with_capacity(cells.len());
    for cell in &cells {
        reference.push(reference_row(&cell.spec)?);
    }

    let (cache_root, ephemeral_root) = match &config.cache_root {
        Some(root) => (root.clone(), false),
        None => (
            std::env::temp_dir().join(format!(
                "jvmsim-cluster-{}-{:x}",
                std::process::id(),
                config.seed
            )),
            true,
        ),
    };
    if ephemeral_root && cache_root.exists() {
        let _ = std::fs::remove_dir_all(&cache_root);
    }
    let mut cluster = Cluster::start(ClusterConfig {
        peers: config.peers.max(1),
        seed: config.seed,
        cache_root: cache_root.clone(),
        eviction_limit: config.eviction_limit,
        peer_fault_ppm: config.peer_fault_ppm,
        spans: config.spans,
        ..ClusterConfig::default()
    })?;
    report.spans_enabled = config.spans;

    if let Some(dir) = &config.rows_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }

    // Pass 1: healthy fleet. Every row must match the oracle and the
    // fleet must compute each cell exactly once.
    run_pass(
        &mut cluster,
        &cells,
        &reference,
        &mut report,
        |row, cell| {
            if let Some(dir) = &config.rows_dir {
                let _ = std::fs::write(dir.join(&cell.file_name), row.as_bytes());
            }
        },
    );
    let after1 = cluster.fleet_totals().runs_executed;
    report.runs_after_pass[0] = after1;
    if after1 != cells.len() as u64 {
        report.violations.push(format!(
            "healthy pass computed {after1} rows for {} cells (double-compute or lost run)",
            cells.len()
        ));
    }
    if config.spans {
        // The wire-codec cross-check: what member 0 serves on
        // `GET /v1/spans/bin` must decode to exactly its in-process ring.
        // The driver is sequential, so nothing lands between the scrape
        // and the snapshot.
        check_span_codec(&cluster, &mut report);
    }

    // Pass 2: the seeded crash schedule. Before each request the drill
    // consults the member-crash site; an injection (or the midpoint
    // backstop, so `--kill N` always means N) kills the *home* member
    // of the cell about to be requested — the worst case for routing.
    let crash_injector = FaultInjector::new(
        FaultPlan::new(splitmix64(config.seed ^ 0xC4A5)).with_rate(FaultSite::MemberCrash, 150_000),
    );
    let kill_budget = config.kill.min(report.peers.saturating_sub(1));
    for (idx, cell) in cells.iter().enumerate() {
        let force = idx == cells.len() / 2;
        if report.killed.len() < kill_budget
            && (crash_injector.inject(FaultSite::MemberCrash).is_some() || force)
        {
            if let Some(victim) = cluster.route(cell.key) {
                match cluster.kill(victim) {
                    Ok(totals) => {
                        if !totals.balanced() {
                            report.violations.push(format!(
                                "member {victim} died with an unbalanced ledger: {totals:?}"
                            ));
                        }
                        report.killed.push(victim);
                    }
                    Err(e) => report.violations.push(format!("kill: {e}")),
                }
            }
        }
        request_and_check(&mut cluster, cell, &reference[idx], &mut report);
    }
    report.runs_after_pass[1] = cluster.fleet_totals().runs_executed;

    // Pass 3: rejoin with wiped stores, then the full matrix again. The
    // rejoined members' cells must come back over the peer-fetch tier.
    for &victim in &report.killed.clone() {
        if let Err(e) = cluster.rejoin(victim, true) {
            report.violations.push(format!("rejoin {victim}: {e}"));
        }
    }
    cluster.health_sweep();
    run_pass(&mut cluster, &cells, &reference, &mut report, |_, _| {});
    report.runs_after_pass[2] = cluster.fleet_totals().runs_executed;

    // Drain everything and audit the survivors and the rejoined alike.
    let final_totals = cluster.shutdown_all();
    for (i, totals) in final_totals.iter().enumerate() {
        if !totals.balanced() {
            report.violations.push(format!(
                "member {i} all-lives ledger unbalanced: {totals:?}"
            ));
        }
        if !cluster.death_ledgers_balanced(i) {
            report
                .violations
                .push(format!("member {i} had an unbalanced death ledger"));
        }
    }
    let fleet = cluster.fleet_totals();
    report.peer_hits = fleet.peer_hits;
    report.peer_misses = fleet.peer_misses;
    report.retries = fleet.retries;
    report.evictions = fleet.evictions;
    report.failovers = cluster.failovers();
    report.store_bytes = cluster.store_sizes();
    for (i, &bytes) in report.store_bytes.iter().enumerate() {
        if bytes > config.eviction_limit {
            report.violations.push(format!(
                "member {i} store {bytes} bytes exceeds the {} byte bound",
                config.eviction_limit
            ));
        }
    }
    if !report.killed.is_empty() && report.failovers == 0 {
        report
            .violations
            .push("members died but routing never failed over".to_owned());
    }

    if config.spans {
        // Every member is dead by now, so the fleet view is all retired
        // rings — the complete span record of the drill.
        let (appended, dropped, spans) = cluster.fleet_spans();
        report.spans_total = spans.len() as u64;
        report.spans_dropped = dropped;
        if appended != spans.len() as u64 + dropped {
            report.violations.push(format!(
                "span accounting leak: appended {appended} != surviving {} + dropped {dropped}",
                spans.len()
            ));
        }
        let partition = partition_violations(&spans);
        report.span_partition_violations = partition.len();
        for violation in partition {
            report
                .violations
                .push(format!("span partition: {violation}"));
        }
        report.stitched_traces = stitched_traces(&spans);
        if report.peers >= 2 && report.stitched_traces == 0 {
            report
                .violations
                .push("no trace stitched across members despite a multi-member fleet".to_owned());
        }
        report.stage_table.observe_all(&spans);
        if let Some(path) = &config.trace_out {
            let written = chrome_span_json(&spans, PAPER_CLOCK_HZ)
                .map_err(|e| format!("chrome span export: {e}"))
                .and_then(|json| {
                    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
                });
            if let Err(violation) = written {
                report.violations.push(violation);
            }
        }
    }

    if ephemeral_root {
        let _ = std::fs::remove_dir_all(&cache_root);
    }
    Ok(report)
}

/// One full pass: route, request, byte-compare every cell.
fn run_pass(
    cluster: &mut Cluster,
    cells: &[DrillCell],
    reference: &[String],
    report: &mut ClusterDrillReport,
    mut on_row: impl FnMut(&str, &DrillCell),
) {
    for (idx, cell) in cells.iter().enumerate() {
        if let Some(row) = request_and_check(cluster, cell, &reference[idx], report) {
            on_row(&row, cell);
        }
    }
}

/// Route and serve one cell, with health-sweep-driven failover: a
/// transport failure quarantines whatever the sweep finds dead and
/// retries on the next live owner. Byte-compares the row against the
/// oracle. Returns the row when one was served.
fn request_and_check(
    cluster: &mut Cluster,
    cell: &DrillCell,
    reference: &str,
    report: &mut ClusterDrillReport,
) -> Option<String> {
    // Up to one attempt per member plus one: every retry follows a
    // sweep, so the loop shrinks the live set or succeeds.
    for _ in 0..=cluster.peers() {
        let Some(member) = cluster.route(cell.key) else {
            report
                .violations
                .push(format!("{}: whole fleet quarantined", cell.file_name));
            return None;
        };
        let Some(addr) = cluster.addr_of(member) else {
            cluster.health_sweep();
            continue;
        };
        match send_run(addr, &cell.body) {
            Ok((200, row)) => {
                if row != reference {
                    report.byte_mismatches += 1;
                    report.violations.push(format!(
                        "{}: served row differs from the batch row",
                        cell.file_name
                    ));
                }
                return Some(row);
            }
            Ok((status, body)) => {
                report.violations.push(format!(
                    "{}: member {member} answered {status}: {}",
                    cell.file_name,
                    body.trim()
                ));
                return None;
            }
            Err(_) => {
                // Dead or dying member: let the health sweep find out
                // and fail over on the next loop turn.
                cluster.health_sweep();
            }
        }
    }
    report.violations.push(format!(
        "{}: no member could serve the cell",
        cell.file_name
    ));
    None
}

/// POST one run spec to a member.
fn send_run(addr: SocketAddr, body: &str) -> Result<(u16, String), String> {
    let mut stream = connect_with_retry(&addr.to_string(), Duration::from_millis(500))?;
    http_request(&mut stream, "POST", "/v1/run", Some(body))
}

/// Scrape member 0's `GET /v1/spans/bin`, decode the wire codec, and
/// require byte-exact agreement with the in-process ring — the check
/// that keeps the binary format honest against a live producer.
fn check_span_codec(cluster: &Cluster, report: &mut ClusterDrillReport) {
    let fail = |report: &mut ClusterDrillReport, what: &str| {
        report.violations.push(format!("span codec: {what}"));
    };
    let Some(snap) = cluster.member_spans(0) else {
        return fail(report, "member 0 has no span plane");
    };
    let Some(addr) = cluster.addr_of(0) else {
        return fail(report, "member 0 has no published address");
    };
    let scraped = connect_with_retry(&addr.to_string(), Duration::from_millis(500))
        .and_then(|mut s| http_request(&mut s, "GET", "/v1/spans/bin", None));
    let (body, bytes) = match scraped {
        Ok((200, body)) => match hex_decode(body.trim()) {
            Some(bytes) => (body, bytes),
            None => return fail(report, "scrape body is not hex"),
        },
        Ok((status, _)) => return fail(report, &format!("scrape answered {status}")),
        Err(e) => return fail(report, &format!("scrape failed: {e}")),
    };
    // Compared as text, so an uppercase digit fails too: the spans
    // endpoint emits lowercase hex.
    if body.trim() != hex_encode(&encode_spans(&snap.records)) {
        return fail(report, "wire bytes differ from the in-process encoding");
    }
    match decode_spans(&bytes) {
        Some(decoded) if decoded == snap.records => {}
        Some(_) => fail(report, "decoded records differ from the in-process ring"),
        None => fail(report, "wire bytes fail to decode"),
    }
}

/// The batch oracle for one cell (no cache, no transport).
fn reference_row(spec: &SessionSpec) -> Result<String, String> {
    let run = spec.run().map_err(|e| {
        format!(
            "reference run {}/{}: {e}",
            spec.workload,
            spec.agent.label()
        )
    })?;
    let cell = CellQuantities::from_run(&run);
    Ok(cell_row_json(
        &spec.workload,
        spec.agent.label(),
        spec.size.0,
        &cell,
    ))
}

/// Enumerate the matrix: selected workloads × the five agents, with the
/// JBB row at [`row_size`], sharded by result-key digest.
fn build_cells(config: &ClusterDrillConfig) -> Result<Vec<DrillCell>, String> {
    let workloads: Vec<String> = match &config.workloads {
        Some(list) if !list.is_empty() => list.clone(),
        _ => AXIS.iter().map(|w| (*w).to_owned()).collect(),
    };
    let mut cells = Vec::new();
    for workload in &workloads {
        let size = row_size(workload, ProblemSize(config.size)).0;
        for agent in AGENT_AXIS {
            let run_spec = RunSpec {
                workload: workload.clone(),
                agent: agent.to_owned(),
                size,
                tiers: "full".to_owned(),
            };
            let body = run_spec.to_json();
            let spec = run_spec
                .to_session_spec()
                .map_err(|e| format!("cell {workload}/{agent}: {e}"))?;
            let key = spec
                .with_session(|s| cell::result_key(&s))
                .map_err(|e| format!("cell {workload}/{agent}: {e}"))?
                .map(|k| key_of(&k.digest().0))
                .ok_or_else(|| format!("cell {workload}/{agent}: key derivation panicked"))?;
            cells.push(DrillCell {
                body,
                file_name: format!("run-{workload}-{agent}-{size}.json"),
                spec,
                key,
            });
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_forty_cells_with_jbb_scaling() {
        let cells = build_cells(&ClusterDrillConfig {
            size: 10,
            ..ClusterDrillConfig::default()
        })
        .unwrap();
        assert_eq!(cells.len(), 40);
        // Workload-major, JVM98 table order then jbb at a tenth of the size.
        let expected = [
            "run-compress-original-10.json",
            "run-compress-spa-10.json",
            "run-compress-ipa-10.json",
            "run-compress-alloc-10.json",
            "run-compress-lock-10.json",
            "run-jess-original-10.json",
            "run-jess-spa-10.json",
            "run-jess-ipa-10.json",
            "run-jess-alloc-10.json",
            "run-jess-lock-10.json",
            "run-db-original-10.json",
            "run-db-spa-10.json",
            "run-db-ipa-10.json",
            "run-db-alloc-10.json",
            "run-db-lock-10.json",
            "run-javac-original-10.json",
            "run-javac-spa-10.json",
            "run-javac-ipa-10.json",
            "run-javac-alloc-10.json",
            "run-javac-lock-10.json",
            "run-mpegaudio-original-10.json",
            "run-mpegaudio-spa-10.json",
            "run-mpegaudio-ipa-10.json",
            "run-mpegaudio-alloc-10.json",
            "run-mpegaudio-lock-10.json",
            "run-mtrt-original-10.json",
            "run-mtrt-spa-10.json",
            "run-mtrt-ipa-10.json",
            "run-mtrt-alloc-10.json",
            "run-mtrt-lock-10.json",
            "run-jack-original-10.json",
            "run-jack-spa-10.json",
            "run-jack-ipa-10.json",
            "run-jack-alloc-10.json",
            "run-jack-lock-10.json",
            "run-jbb-original-1.json",
            "run-jbb-spa-1.json",
            "run-jbb-ipa-1.json",
            "run-jbb-alloc-1.json",
            "run-jbb-lock-1.json",
        ];
        let names: Vec<&str> = cells.iter().map(|c| c.file_name.as_str()).collect();
        assert_eq!(names, expected);
        // Shard keys are distinct across the matrix (digest prefixes).
        let mut keys: Vec<u64> = cells.iter().map(|c| c.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 40, "shard keys must not collide");
    }

    #[test]
    fn report_renders_verdict_and_violations() {
        let mut report = ClusterDrillReport {
            peers: 3,
            cells: 40,
            ..ClusterDrillReport::default()
        };
        assert!(report.is_clean());
        assert!(report.render_summary().contains("cluster verdict CLEAN"));
        report.violations.push("something broke".to_owned());
        let summary = report.render_summary();
        assert!(summary.contains("cluster VIOLATION something broke"));
        assert!(summary.contains("cluster verdict DEGRADED"));
    }
}
