//! The parallel suite driver behind `jprof suite` and the table binaries.
//!
//! The workload × agent matrix (8 workloads × {original, SPA, IPA, ALLOC,
//! LOCK} = 40 cells) is embarrassingly parallel: every cell is one
//! self-contained,
//! deterministic simulator run (its own `Vm`, own PCL registry, own green
//! threads). Worker OS threads pull cells from a shared index counter and
//! run them; results are stored by cell index and assembled in a fixed
//! order afterwards. Because each run is deterministic and cells share no
//! state, the assembled tables are **byte-identical** for any job count —
//! `--jobs 4` reproduces the sequential output exactly (a property the
//! test suite pins down).
//!
//! # Fault isolation
//!
//! Every cell runs behind `catch_unwind` (on its own thread when a
//! [`SuiteConfig::soft_timeout`] is set), so one failing workload cannot
//! take the suite down: the cell is retried up to [`SuiteConfig::retries`]
//! times and then *quarantined* — recorded as a [`CellFailure`] on the
//! [`SuiteResult`] while every other cell's row is assembled normally.
//! Checksum mismatches and missing IPA profiles, previously hard asserts,
//! are quarantined the same way.
//!
//! # Chaos mode
//!
//! [`run_chaos`] re-runs the matrix under N deterministic fault schedules
//! (seeded per cell from `jvmsim_faults`), shadow-accounting every
//! J2N/N2J transition in a [`TransitionLedger`] and asserting the
//! paper-level invariants that must survive *any* injected fault:
//! transitions balance per thread, trace accounting never loses events,
//! and IPA's Table II counters agree with the shadow ledger. Injected
//! failures (escaped exceptions, dead threads, truncated classfiles) are
//! *expected* and merely reported; only invariant breaks fail the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use jnativeprof::cell::{decode_cell_entry, encode_cell_entry, CellQuantities, SiteTally};
use jnativeprof::harness::{self, throughput_overhead_percent, AgentChoice};
use jnativeprof::session::Session;
use jvmsim_cache::{CacheKey, CacheStore, Plane};
use jvmsim_faults::{
    splitmix64, FaultInjector, FaultPlan, FaultSite, TransitionKind, TransitionLedger,
};
use jvmsim_metrics::{CounterId, HistogramId, MetricsEntry, MetricsRegistry, MetricsSnapshot};
use jvmsim_trace::csv::Table;
use jvmsim_trace::TraceRecorder;
use jvmsim_vm::{MethodId, ThreadId, TiersMode, TraceEventKind, TraceSink};
use workloads::{by_name, jvm98_suite, ProblemSize};

use crate::{MeasuredAgentRow, MeasuredOverheadRow, MeasuredProfileRow};

/// Agent column of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentCol {
    Original,
    Spa,
    Ipa,
    Alloc,
    Lock,
}

impl AgentCol {
    const ALL: [AgentCol; 5] = [
        AgentCol::Original,
        AgentCol::Spa,
        AgentCol::Ipa,
        AgentCol::Alloc,
        AgentCol::Lock,
    ];

    fn choice(self) -> AgentChoice {
        match self {
            AgentCol::Original => AgentChoice::None,
            AgentCol::Spa => AgentChoice::Spa,
            AgentCol::Ipa => AgentChoice::ipa(),
            AgentCol::Alloc => AgentChoice::Alloc,
            AgentCol::Lock => AgentChoice::Lock,
        }
    }

    fn label(self) -> &'static str {
        match self {
            AgentCol::Original => "original",
            AgentCol::Spa => "SPA",
            AgentCol::Ipa => "IPA",
            AgentCol::Alloc => "ALLOC",
            AgentCol::Lock => "LOCK",
        }
    }

    /// Lowercase label used for metric entries (Prometheus label values).
    fn metric_label(self) -> &'static str {
        match self {
            AgentCol::Original => "original",
            AgentCol::Spa => "spa",
            AgentCol::Ipa => "ipa",
            AgentCol::Alloc => "alloc",
            AgentCol::Lock => "lock",
        }
    }
}

/// Chaos-mode switch: when set on a [`SuiteConfig`], every cell runs under
/// a deterministic fault schedule derived from `seed` and the cell index.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Base seed; each cell's injector is seeded with
    /// `splitmix64(seed ^ cell_index)`.
    pub seed: u64,
}

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Worker OS threads (≥ 1; 1 = the plain sequential loop).
    pub jobs: usize,
    /// Problem size for the JVM98-analog workloads.
    pub size: ProblemSize,
    /// Problem size for the JBB throughput analog (heavier per unit; the
    /// binaries historically run it at a tenth of the JVM98 size).
    pub jbb_size: ProblemSize,
    /// Per-cell soft timeout: when set, each cell runs on its own thread
    /// and a cell that exceeds the budget is quarantined as
    /// [`CellFailureKind::TimedOut`] (the runaway thread is detached, not
    /// killed — "soft").
    pub soft_timeout: Option<Duration>,
    /// Bounded retries per failing cell before it is quarantined.
    pub retries: u32,
    /// Deterministic fault injection (None = the measurement path;
    /// nothing is perturbed and artifacts are byte-identical to a build
    /// without the fault plane).
    pub chaos: Option<ChaosSpec>,
    /// Content-addressed cache. When set, static IPA instrumentation is
    /// memoized on the instrumentation plane and completed cell rows on
    /// the result plane — a warm suite skips the runs entirely yet
    /// assembles byte-identical table artifacts (runs are deterministic,
    /// and every hit re-verifies the stored digest before it is served).
    pub cache: Option<CacheStore>,
    /// Agent-axis subset: when set, only the matching columns of the
    /// matrix run (matched by [`AgentChoice::label`]). Table I/II rows
    /// whose inputs were filtered out are simply absent — the assembler
    /// already degrades to partial matrices. `None` runs the full axis.
    pub agents: Option<Vec<AgentChoice>>,
    /// Execution-engine scenario axis: the tier ceiling every cell runs
    /// under (interp-only / tiered / full). Part of each cell's result
    /// identity, so the same cache serves all three settings without
    /// cross-contamination.
    pub tiers: TiersMode,
}

impl SuiteConfig {
    /// Sequential suite at `size`, with the conventional JBB scaling.
    pub fn with_size(size: ProblemSize) -> Self {
        SuiteConfig {
            jobs: 1,
            size,
            jbb_size: ProblemSize(size.0.max(10) / 10),
            soft_timeout: None,
            retries: 0,
            chaos: None,
            cache: None,
            agents: None,
            tiers: TiersMode::Full,
        }
    }

    /// Same configuration with `jobs` workers.
    pub fn jobs(self, jobs: usize) -> Self {
        SuiteConfig {
            jobs: jobs.max(1),
            ..self
        }
    }

    /// Same configuration with a per-cell soft timeout.
    pub fn soft_timeout(self, timeout: Duration) -> Self {
        SuiteConfig {
            soft_timeout: Some(timeout),
            ..self
        }
    }

    /// Same configuration with `retries` bounded retries per cell.
    pub fn retries(self, retries: u32) -> Self {
        SuiteConfig { retries, ..self }
    }

    /// Same configuration with chaos-mode fault injection under `seed`.
    pub fn chaos_seed(self, seed: u64) -> Self {
        SuiteConfig {
            chaos: Some(ChaosSpec { seed }),
            ..self
        }
    }

    /// Same configuration consulting (and filling) `store`.
    pub fn cache(self, store: CacheStore) -> Self {
        SuiteConfig {
            cache: Some(store),
            ..self
        }
    }

    /// Same configuration restricted to the given agent columns.
    pub fn agents(self, agents: Vec<AgentChoice>) -> Self {
        SuiteConfig {
            agents: Some(agents),
            ..self
        }
    }

    /// Same configuration under the given tier ceiling.
    pub fn tiers(self, tiers: TiersMode) -> Self {
        SuiteConfig { tiers, ..self }
    }
}

/// One cell of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    workload: &'static str,
    agent: AgentCol,
    size: ProblemSize,
    tiers: TiersMode,
}

/// Why a cell was quarantined.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CellFailureKind {
    /// The cell panicked (workload bug or deliberate crash drill).
    Panicked(String),
    /// The cell exceeded [`SuiteConfig::soft_timeout`].
    TimedOut,
    /// The harness returned a typed error (instrumentation, attach, VM
    /// error, escaped exception, bad checksum shape).
    Harness(String),
    /// An agent changed the workload's observable behaviour.
    ChecksumMismatch {
        /// Checksum of the uninstrumented run.
        original: i64,
        /// Checksum under the agent.
        with_agent: i64,
    },
    /// The IPA cell completed but produced no profile.
    MissingProfile,
}

impl std::fmt::Display for CellFailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailureKind::Panicked(m) => write!(f, "panicked: {m}"),
            CellFailureKind::TimedOut => write!(f, "soft timeout exceeded"),
            CellFailureKind::Harness(e) => write!(f, "{e}"),
            CellFailureKind::ChecksumMismatch {
                original,
                with_agent,
            } => write!(
                f,
                "checksum mismatch: {with_agent} under agent vs {original} original"
            ),
            CellFailureKind::MissingProfile => write!(f, "IPA cell produced no profile"),
        }
    }
}

/// One quarantined cell: which cell, how many attempts, and why.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Workload name.
    pub workload: String,
    /// Agent label (`original` / `SPA` / `IPA`).
    pub agent: &'static str,
    /// Attempts made (1 + retries actually used).
    pub attempts: u32,
    /// The failure itself.
    pub kind: CellFailureKind,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} (attempt {}): {}",
            self.workload, self.agent, self.attempts, self.kind
        )
    }
}

/// The assembled suite results (Table I rows, the JBB throughput tuple,
/// Table II rows), plus the quarantine list for cells that failed.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Table I rows, JVM98 order (rows with quarantined cells are absent).
    pub table1: Vec<MeasuredOverheadRow>,
    /// `(orig, spa, ipa, overhead_spa_pct, overhead_ipa_pct)` throughput.
    pub jbb: (f64, f64, f64, f64, f64),
    /// Table II rows, Table II order (JVM98 then `jbb`).
    pub table2: Vec<MeasuredProfileRow>,
    /// Agent-axis rows (ALLOC site totals, LOCK contention totals), one
    /// per workload that ran at least one of the two agents, Table II
    /// order. A checksum mismatch against the original baseline drops the
    /// offending triple and records a [`CellFailure`], like Table I.
    pub agent_rows: Vec<MeasuredAgentRow>,
    /// Cells that failed after all retries, with explicit reasons. Empty
    /// on a healthy run.
    pub failures: Vec<CellFailure>,
    /// One metrics snapshot per cell, in fixed matrix order — independent
    /// of `jobs`, so the rendered metric artifacts are byte-identical for
    /// any worker count (quarantined cells keep whatever their last
    /// attempt recorded).
    pub metrics: Vec<MetricsEntry>,
}

// ---------------------------------------------------------------------
// Cell execution: catch_unwind + optional soft timeout + bounded retry,
// with chaos-mode shadow accounting.

/// Shadow-accounting sink for chaos cells: mirrors every J2N/N2J event
/// into a [`TransitionLedger`] (independent of the agents' own counters)
/// and forwards everything to a saturating [`TraceRecorder`] whose
/// accounting is checked after the run.
struct ChaosSink {
    ledger: Arc<TransitionLedger>,
    recorder: Arc<TraceRecorder>,
}

impl TraceSink for ChaosSink {
    fn record(
        &self,
        thread: ThreadId,
        kind: TraceEventKind,
        cycles: u64,
        method: Option<MethodId>,
    ) {
        let transition = match kind {
            TraceEventKind::J2nBegin => Some(TransitionKind::J2nBegin),
            TraceEventKind::J2nEnd => Some(TransitionKind::J2nEnd),
            TraceEventKind::N2jBegin => Some(TransitionKind::N2jBegin),
            TraceEventKind::N2jEnd => Some(TransitionKind::N2jEnd),
            _ => None,
        };
        if let Some(transition) = transition {
            self.ledger.record(thread.index(), transition);
        }
        self.recorder.record(thread, kind, cycles, method);
    }
}

/// Result of one cell attempt, including chaos-mode bookkeeping.
struct CellExecution {
    result: Result<CellQuantities, CellFailureKind>,
    /// Invariant breaks found by the shadow accounting (chaos mode only).
    /// Non-empty means a *bug*, not an injected fault.
    violations: Vec<String>,
    /// Per-site `(consulted, injected)` counts from this cell's injector.
    sites: Vec<SiteTally>,
    /// The cell's merged metric registry (empty when the cell never ran
    /// or timed out before reporting).
    snapshot: MetricsSnapshot,
    attempts: u32,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Chaos-mode trace capacity: small enough to actually saturate at real
/// sizes (exercising the drop path), large enough to retain structure.
const CHAOS_TRACE_CAPACITY: usize = 1 << 14;

/// Finish a warm cell: replay the memoized outcome into this cell's
/// metric shard and merge the live injector's consultations (the cache
/// reads themselves) into the stored fault schedule so chaos reports
/// keep balancing.
fn replay_cell(
    outcome: CellQuantities,
    stored_sites: Vec<SiteTally>,
    chaos: Option<&Arc<FaultInjector>>,
    metrics: &MetricsRegistry,
) -> CellExecution {
    let global = metrics.global();
    global.incr(CounterId::CellsCompleted);
    global.observe(HistogramId::CellCycles, outcome.total_cycles);
    let mut sites = Vec::new();
    if chaos.is_some() || !stored_sites.is_empty() {
        let mut totals = [(0u64, 0u64); FaultSite::COUNT];
        for &(site, consulted, injected) in &stored_sites {
            totals[site.index()].0 += consulted;
            totals[site.index()].1 += injected;
        }
        if let Some(injector) = chaos {
            for &(site, consulted, injected) in &injector.summary() {
                totals[site.index()].0 += consulted;
                totals[site.index()].1 += injected;
            }
        }
        sites = FaultSite::ALL
            .iter()
            .map(|&s| (s, totals[s.index()].0, totals[s.index()].1))
            .collect();
        if chaos.is_some() {
            for &(_, consulted, injected) in &sites {
                global.add(CounterId::FaultsConsulted, consulted);
                global.add(CounterId::FaultsInjected, injected);
            }
        }
    }
    CellExecution {
        result: Ok(outcome),
        violations: Vec::new(),
        sites,
        snapshot: metrics.snapshot(),
        attempts: 1,
    }
}

/// Run one cell once: look up the workload, run it behind `catch_unwind`,
/// and — in chaos mode — check the accounting invariants that must
/// survive any injected fault. With a cache attached, a completed row is
/// served from the result plane when present (skipping the run entirely)
/// and stored there afterwards when the run was clean.
fn execute_cell(cell: Cell, chaos_seed: Option<u64>, cache: Option<&CacheStore>) -> CellExecution {
    // Every cell gets its own registry: cells share no metric state, so
    // the per-cell snapshots (and anything assembled from them) are
    // byte-identical for any worker count.
    let metrics = MetricsRegistry::new();
    metrics.global().incr(CounterId::CellsStarted);
    let chaos = chaos_seed.map(|seed| {
        let injector = Arc::new(FaultInjector::new(FaultPlan::chaos(seed)));
        let ledger = Arc::new(TransitionLedger::new());
        let recorder = TraceRecorder::with_injector(CHAOS_TRACE_CAPACITY, Arc::clone(&injector));
        recorder.set_metrics(metrics.global());
        (injector, ledger, recorder)
    });
    // Per-cell scoped cache handle: hit/miss accounting lands in this
    // cell's metric shard, and in chaos mode reads pass through this
    // cell's injector (the cache-corrupt site).
    let cache = cache.map(|store| {
        let store = store.with_metrics(metrics.global());
        match &chaos {
            Some((injector, _, _)) => store.with_faults(Arc::clone(injector)),
            None => store,
        }
    });
    // Result-plane identity: needs the workload's program bytes, so an
    // unknown workload, or one whose program panics, has no key and falls
    // through to the guarded cold path, failing there exactly as an
    // uncached run does.
    let result_key: Option<CacheKey> = cache.as_ref().and_then(|_| {
        let workload = by_name(cell.workload)?;
        let mut session = Session::new(workload.as_ref(), cell.size)
            .agent(cell.agent.choice())
            .tiers(cell.tiers);
        if let Some((injector, _, _)) = &chaos {
            session = session.faults(Arc::clone(injector));
        }
        catch_unwind(AssertUnwindSafe(|| session.result_key())).ok()
    });
    if let (Some(store), Some(key)) = (&cache, &result_key) {
        if let Some(bytes) = store.lookup(Plane::CellResult, key) {
            match decode_cell_entry(&bytes) {
                Some((outcome, stored_sites)) => {
                    return replay_cell(
                        outcome,
                        stored_sites,
                        chaos.as_ref().map(|(injector, _, _)| injector),
                        &metrics,
                    );
                }
                // The frame's digest verified but the payload does not
                // decode: foreign or stale bytes under this key —
                // quarantine them and recompute.
                None => store.quarantine(Plane::CellResult, key),
            }
        }
    }

    let run = catch_unwind(AssertUnwindSafe(|| {
        let workload = by_name(cell.workload).ok_or_else(|| {
            harness::HarnessError::Vm(format!("unknown workload {}", cell.workload))
        })?;
        let mut session = Session::new(workload.as_ref(), cell.size)
            .agent(cell.agent.choice())
            .tiers(cell.tiers)
            .metrics(metrics.clone());
        if let Some((injector, ledger, recorder)) = &chaos {
            session = session
                .trace(Arc::new(ChaosSink {
                    ledger: Arc::clone(ledger),
                    recorder: Arc::clone(recorder),
                }) as Arc<dyn TraceSink>)
                .faults(Arc::clone(injector));
        }
        if let Some(store) = &cache {
            session = session.cache(store.clone());
        }
        session.run()
    }));

    let mut violations = Vec::new();
    let result = match run {
        Ok(Ok(run)) => {
            // Agent-ledger invariants must hold on every run, faulted or
            // not: contended + discarded ≤ entries, the allocation object
            // and byte ledgers balance against the overflow bin, and
            // per-thread blocked cycles sum to the per-monitor totals. A
            // break here is an agent bug, never an injected fault.
            if let Some(report) = &run.alloc {
                violations.extend(report.check());
            }
            if let Some(report) = &run.lock {
                violations.extend(report.check());
            }
            Ok(CellQuantities::from_run(&run))
        }
        Ok(Err(e)) => Err(CellFailureKind::Harness(e.to_string())),
        Err(payload) => Err(CellFailureKind::Panicked(panic_message(payload))),
    };
    match &result {
        Ok(outcome) => {
            metrics.global().incr(CounterId::CellsCompleted);
            metrics
                .global()
                .observe(HistogramId::CellCycles, outcome.total_cycles);
        }
        Err(_) => metrics.global().incr(CounterId::CellsQuarantined),
    }

    let mut sites = Vec::new();
    if let Some((injector, ledger, recorder)) = &chaos {
        // Invariant 1: every J2N_Begin matched by a J2N_End, every
        // N2J_Begin by an N2J_End, per thread, depths back to zero —
        // even when the run itself failed (unwinding must balance).
        match ledger.check() {
            Ok(totals) => {
                // Invariant 3: on a successful IPA run, the agent's
                // Table II counters agree with the shadow ledger.
                if let Ok(outcome) = &result {
                    if let Some((_, jni_calls, native_method_calls)) = outcome.profile {
                        if totals.j2n_begins != native_method_calls {
                            violations.push(format!(
                                "IPA counted {native_method_calls} native method calls \
                                 but the ledger saw {} J2N transitions",
                                totals.j2n_begins
                            ));
                        }
                        if totals.n2j_begins != jni_calls {
                            violations.push(format!(
                                "IPA counted {jni_calls} JNI calls but the ledger saw {} \
                                 N2J transitions",
                                totals.n2j_begins
                            ));
                        }
                    }
                }
            }
            Err(breaks) => {
                violations.extend(breaks.iter().map(ToString::to_string));
            }
        }
        // Invariant 2: trace accounting loses payloads, never counts —
        // including counts dropped by injected sink saturation.
        let snapshot = recorder.snapshot();
        if snapshot.recorded() + snapshot.dropped() != snapshot.appended() {
            violations.push(format!(
                "trace accounting broke: {} recorded + {} dropped != {} appended",
                snapshot.recorded(),
                snapshot.dropped(),
                snapshot.appended()
            ));
        }
        sites = injector.summary();
        // The faults crate stays dependency-free: the driver feeds the
        // injector's totals into the registry after the run instead of
        // instrumenting the injector itself.
        let global = metrics.global();
        for &(_, consulted, injected) in &sites {
            global.add(CounterId::FaultsConsulted, consulted);
            global.add(CounterId::FaultsInjected, injected);
        }
    }

    // Memoize only clean rows: failures and invariant breaks always
    // re-run live. A failed store just means the next run pays again.
    if let (Some(store), Some(key), Ok(outcome)) = (&cache, &result_key, &result) {
        if violations.is_empty() {
            let _ = store.store(Plane::CellResult, key, &encode_cell_entry(outcome, &sites));
        }
    }

    CellExecution {
        result,
        violations,
        sites,
        snapshot: metrics.snapshot(),
        attempts: 1,
    }
}

/// [`execute_cell`] behind the configured soft timeout and bounded retry.
fn run_cell_guarded(cell: Cell, chaos_seed: Option<u64>, config: &SuiteConfig) -> CellExecution {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let mut exec = match config.soft_timeout {
            None => execute_cell(cell, chaos_seed, config.cache.as_ref()),
            Some(budget) => {
                let (tx, rx) = mpsc::channel();
                // The cell thread may outlive this frame (soft timeout
                // detaches it), so it gets its own store handle.
                let cache = config.cache.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("cell-{}-{}", cell.workload, cell.agent.label()))
                    .spawn(move || {
                        let _ = tx.send(execute_cell(cell, chaos_seed, cache.as_ref()));
                    });
                match spawned {
                    Err(e) => CellExecution {
                        result: Err(CellFailureKind::Harness(format!("spawn failed: {e}"))),
                        violations: Vec::new(),
                        sites: Vec::new(),
                        snapshot: MetricsSnapshot::default(),
                        attempts: 1,
                    },
                    Ok(handle) => match rx.recv_timeout(budget) {
                        Ok(exec) => {
                            let _ = handle.join();
                            exec
                        }
                        // Soft timeout: the runaway thread is detached —
                        // it owns only cell-local state, so leaking it is
                        // safe; the cell is quarantined.
                        Err(_) => CellExecution {
                            result: Err(CellFailureKind::TimedOut),
                            violations: Vec::new(),
                            sites: Vec::new(),
                            snapshot: MetricsSnapshot::default(),
                            attempts: 1,
                        },
                    },
                }
            }
        };
        exec.attempts = attempts;
        if exec.result.is_ok() || attempts > config.retries {
            return exec;
        }
    }
}

// ---------------------------------------------------------------------
// Matrix construction, parallel execution, and partial assembly.

fn build_cells(config: &SuiteConfig, jvm98: &[&'static str]) -> Vec<Cell> {
    let selected = |col: AgentCol| match &config.agents {
        None => true,
        Some(agents) => agents.iter().any(|a| a.label() == col.label()),
    };
    let mut cells = Vec::new();
    for &workload in jvm98 {
        for agent in AgentCol::ALL {
            if selected(agent) {
                cells.push(Cell {
                    workload,
                    agent,
                    size: config.size,
                    tiers: config.tiers,
                });
            }
        }
    }
    for agent in AgentCol::ALL {
        if selected(agent) {
            cells.push(Cell {
                workload: "jbb",
                agent,
                size: config.jbb_size,
                tiers: config.tiers,
            });
        }
    }
    cells
}

fn run_matrix(config: &SuiteConfig, cells: &[Cell]) -> Vec<CellExecution> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<CellExecution>>> =
        Mutex::new((0..cells.len()).map(|_| None).collect());
    let workers = config.jobs.max(1).min(cells.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let chaos_seed = config.chaos.map(|c| splitmix64(c.seed ^ i as u64));
                let exec = run_cell_guarded(*cell, chaos_seed, config);
                // Poison recovery: cells are already unwind-isolated, so a
                // poisoned store lock only means another worker died while
                // holding it — the data itself is per-index and intact.
                results.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(exec);
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|slot| {
            slot.unwrap_or(CellExecution {
                result: Err(CellFailureKind::Harness("cell never ran".to_owned())),
                violations: Vec::new(),
                sites: Vec::new(),
                snapshot: MetricsSnapshot::default(),
                attempts: 0,
            })
        })
        .collect()
}

/// Assemble the tables from whatever cells completed; failed cells turn
/// into [`CellFailure`] records and their rows are skipped.
fn assemble(cells: &[Cell], execs: &[CellExecution], jvm98: &[&'static str]) -> SuiteResult {
    let mut failures = Vec::new();
    let mut metrics = Vec::with_capacity(cells.len());
    for (cell, exec) in cells.iter().zip(execs) {
        if let Err(kind) = &exec.result {
            failures.push(CellFailure {
                workload: cell.workload.to_owned(),
                agent: cell.agent.label(),
                attempts: exec.attempts,
                kind: kind.clone(),
            });
        }
        metrics.push(MetricsEntry {
            benchmark: cell.workload.to_owned(),
            agent: cell.agent.metric_label().to_owned(),
            snapshot: exec.snapshot.clone(),
        });
        // Agent-ledger invariant breaks surface even on the plain
        // measurement path (chaos mode additionally fails the run on
        // them); the cell's row still assembles.
        for v in &exec.violations {
            failures.push(CellFailure {
                workload: cell.workload.to_owned(),
                agent: cell.agent.label(),
                attempts: exec.attempts,
                kind: CellFailureKind::Harness(format!("invariant: {v}")),
            });
        }
    }
    let outcome = |workload: &str, agent: AgentCol| -> Option<&CellQuantities> {
        let i = cells
            .iter()
            .position(|c| c.workload == workload && c.agent == agent)?;
        execs[i].result.as_ref().ok()
    };

    let mut table1 = Vec::new();
    for &name in jvm98 {
        let (Some(base), Some(spa), Some(ipa)) = (
            outcome(name, AgentCol::Original),
            outcome(name, AgentCol::Spa),
            outcome(name, AgentCol::Ipa),
        ) else {
            // The failing cell is already recorded; the row is quarantined.
            continue;
        };
        let mut row_ok = true;
        for (agent, with) in [(AgentCol::Spa, spa), (AgentCol::Ipa, ipa)] {
            if with.checksum != base.checksum {
                failures.push(CellFailure {
                    workload: name.to_owned(),
                    agent: agent.label(),
                    attempts: 1,
                    kind: CellFailureKind::ChecksumMismatch {
                        original: base.checksum,
                        with_agent: with.checksum,
                    },
                });
                row_ok = false;
            }
        }
        if !row_ok {
            continue;
        }
        table1.push(MeasuredOverheadRow {
            name: name.to_owned(),
            time_original_s: base.seconds,
            time_spa_s: spa.seconds,
            time_ipa_s: ipa.seconds,
            overhead_spa_pct: overhead_pct(base.seconds, spa.seconds),
            overhead_ipa_pct: overhead_pct(base.seconds, ipa.seconds),
        });
    }

    let throughput = |o: Option<&CellQuantities>| match o {
        Some(o) if o.seconds > 0.0 => o.checksum.max(0) as f64 / o.seconds,
        _ => 0.0,
    };
    let (b, s, i) = (
        throughput(outcome("jbb", AgentCol::Original)),
        throughput(outcome("jbb", AgentCol::Spa)),
        throughput(outcome("jbb", AgentCol::Ipa)),
    );
    let jbb = (
        b,
        s,
        i,
        throughput_overhead_percent(b, s),
        throughput_overhead_percent(b, i),
    );

    let mut table2 = Vec::new();
    for name in jvm98.iter().copied().chain(["jbb"]) {
        let Some(ipa) = outcome(name, AgentCol::Ipa) else {
            continue;
        };
        let Some((pct_native, jni_calls, native_method_calls)) = ipa.profile else {
            failures.push(CellFailure {
                workload: name.to_owned(),
                agent: AgentCol::Ipa.label(),
                attempts: 1,
                kind: CellFailureKind::MissingProfile,
            });
            continue;
        };
        table2.push(MeasuredProfileRow {
            name: name.to_owned(),
            pct_native,
            jni_calls,
            native_method_calls,
        });
    }

    let mut agent_rows = Vec::new();
    for name in jvm98.iter().copied().chain(["jbb"]) {
        let base = outcome(name, AgentCol::Original);
        // An agent column is kept only when it did not perturb the
        // workload; without a baseline cell the checksum is unverifiable
        // and the triple is reported as-is (the filter may have excluded
        // the original column on purpose).
        let mut checked = |agent: AgentCol| -> Option<&CellQuantities> {
            let with = outcome(name, agent)?;
            if let Some(base) = base {
                if with.checksum != base.checksum {
                    failures.push(CellFailure {
                        workload: name.to_owned(),
                        agent: agent.label(),
                        attempts: 1,
                        kind: CellFailureKind::ChecksumMismatch {
                            original: base.checksum,
                            with_agent: with.checksum,
                        },
                    });
                    return None;
                }
            }
            Some(with)
        };
        let alloc = checked(AgentCol::Alloc).and_then(|o| o.alloc);
        let lock = checked(AgentCol::Lock).and_then(|o| o.lock);
        if alloc.is_none() && lock.is_none() {
            continue;
        }
        agent_rows.push(MeasuredAgentRow {
            name: name.to_owned(),
            alloc,
            lock,
        });
    }

    SuiteResult {
        table1,
        jbb,
        table2,
        agent_rows,
        failures,
        metrics,
    }
}

/// Overhead from two virtual-second readings, the paper's formula.
fn overhead_pct(base: f64, with: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (with / base - 1.0) * 100.0
    }
}

/// Run the full workload × agent matrix with `config.jobs` workers.
///
/// Failing cells no longer abort the suite: they are quarantined into
/// [`SuiteResult::failures`] and the remaining rows assemble normally.
pub fn run_suite(config: SuiteConfig) -> SuiteResult {
    let jvm98: Vec<&'static str> = jvm98_suite().iter().map(|w| w.name()).collect();
    run_suite_with_workloads(config, &jvm98)
}

/// [`run_suite`] over an explicit JVM98-row workload list (the JBB
/// throughput cells are always appended). Exists so tests and drills can
/// extend the matrix — e.g. appending the deliberately panicking `crashy`
/// workload to exercise quarantine without touching the standard rows.
pub fn run_suite_with_workloads(config: SuiteConfig, jvm98: &[&'static str]) -> SuiteResult {
    let cells = build_cells(&config, jvm98);
    let execs = run_matrix(&config, &cells);
    assemble(&cells, &execs, jvm98)
}

// ---------------------------------------------------------------------
// Chaos driver.

/// Aggregated result of [`run_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Number of fault schedules (seeds) run.
    pub seeds: u64,
    /// Total cells attempted across all seeds.
    pub cells: usize,
    /// Cells that completed despite injection.
    pub completed: usize,
    /// Cells that failed — *expected* under chaos (escaped injected
    /// exceptions, dead threads, truncated classfiles, …).
    pub failures: Vec<CellFailure>,
    /// Accounting-invariant breaks. Any entry here is a bug; the chaos
    /// run fails if and only if this is non-empty.
    pub violations: Vec<String>,
    /// Per-site aggregate `(label, consulted, injected)` counts.
    pub sites: Vec<(&'static str, u64, u64)>,
    /// Artifact exports that were degraded by injected write failures
    /// (reported, never fatal).
    pub degraded_exports: usize,
    /// Artifact exports that succeeded.
    pub exports: usize,
    /// Per-cell metrics, fixed matrix order, merged across all seeds
    /// ([`MetricsSnapshot::absorb`] is commutative and associative, so the
    /// aggregate is independent of `jobs`).
    pub metrics: Vec<MetricsEntry>,
}

impl ChaosReport {
    /// Did every accounting invariant hold under every fault schedule?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total faults injected across all cells and seeds.
    pub fn injected(&self) -> u64 {
        self.sites.iter().map(|&(_, _, injected)| injected).sum()
    }

    /// Human-readable summary block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos: {} seeds x {} cells: {} completed, {} failed (expected), {} injected faults",
            self.seeds,
            self.cells / (self.seeds.max(1) as usize),
            self.completed,
            self.failures.len(),
            self.injected(),
        );
        for &(label, consulted, injected) in &self.sites {
            let _ = writeln!(
                out,
                "  {label:<16} {injected:>8} injected / {consulted:>10} consulted"
            );
        }
        let _ = writeln!(
            out,
            "  exports: {} ok, {} degraded by injected write failures",
            self.exports, self.degraded_exports
        );
        if self.violations.is_empty() {
            let _ = writeln!(out, "  invariants: all held");
        } else {
            let _ = writeln!(out, "  INVARIANT VIOLATIONS ({}):", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "    {v}");
            }
        }
        out
    }
}

/// Run the workload × agent matrix under `seeds` deterministic fault
/// schedules, checking the accounting invariants every run. Same seeds →
/// same report, regardless of `config.jobs`.
pub fn run_chaos(config: SuiteConfig, seeds: u64) -> ChaosReport {
    let jvm98: Vec<&'static str> = jvm98_suite().iter().map(|w| w.name()).collect();
    let mut report = ChaosReport {
        seeds,
        cells: 0,
        completed: 0,
        failures: Vec::new(),
        violations: Vec::new(),
        sites: FaultSite::ALL.iter().map(|s| (s.name(), 0, 0)).collect(),
        degraded_exports: 0,
        exports: 0,
        metrics: Vec::new(),
    };
    for seed_index in 0..seeds {
        let seed = splitmix64(0xC4A0_5EED ^ seed_index);
        let cfg = SuiteConfig {
            chaos: Some(ChaosSpec { seed }),
            ..config.clone()
        };
        let cells = build_cells(&cfg, &jvm98);
        let execs = run_matrix(&cfg, &cells);
        if report.metrics.is_empty() {
            report.metrics = cells
                .iter()
                .map(|cell| MetricsEntry {
                    benchmark: cell.workload.to_owned(),
                    agent: cell.agent.metric_label().to_owned(),
                    snapshot: MetricsSnapshot::default(),
                })
                .collect();
        }
        for (i, (cell, exec)) in cells.iter().zip(&execs).enumerate() {
            report.metrics[i].snapshot.absorb(&exec.snapshot);
            report.cells += 1;
            match &exec.result {
                Ok(_) => report.completed += 1,
                Err(kind) => report.failures.push(CellFailure {
                    workload: cell.workload.to_owned(),
                    agent: cell.agent.label(),
                    attempts: exec.attempts,
                    kind: kind.clone(),
                }),
            }
            for v in &exec.violations {
                report.violations.push(format!(
                    "seed {seed_index}, {}/{}: {v}",
                    cell.workload,
                    cell.agent.label()
                ));
            }
            for &(site, consulted, injected) in &exec.sites {
                let slot = &mut report.sites[site.index()];
                slot.1 += consulted;
                slot.2 += injected;
            }
        }
        // Partial assembly + exporter-write drill: render whatever rows
        // survived this schedule and push them through an injector that
        // fails writes — a failed export degrades (is counted, skipped),
        // never aborts.
        let suite = assemble(&cells, &execs, &jvm98);
        let exporter = FaultInjector::new(
            FaultPlan::new(splitmix64(seed ^ 0xE0)).with_rate(FaultSite::ExporterWrite, 300_000),
        );
        for artifact in [
            table1_artifact(&suite.table1, suite.jbb).to_csv(),
            table2_artifact(&suite.table2).to_csv(),
            agents_artifact(&suite.agent_rows).to_csv(),
        ] {
            if exporter.inject(FaultSite::ExporterWrite).is_some() {
                report.degraded_exports += 1;
            } else {
                report.exports += 1;
                // The artifact is well-formed even when assembled from a
                // partial matrix: header plus zero or more data rows.
                debug_assert!(artifact.contains('\n'));
            }
        }
        for &(site, consulted, injected) in &exporter.summary() {
            let slot = &mut report.sites[site.index()];
            slot.1 += consulted;
            slot.2 += injected;
        }
    }
    report
}

/// Table I quantities as a [`Table`] (render with `to_csv()`/`to_json()`).
/// Floats use fixed six-decimal formatting so the artifact is
/// byte-reproducible.
pub fn table1_artifact(rows: &[MeasuredOverheadRow], jbb: (f64, f64, f64, f64, f64)) -> Table {
    let mut t = Table::new([
        "benchmark",
        "time_original_s",
        "time_spa_s",
        "time_ipa_s",
        "overhead_spa_pct",
        "overhead_ipa_pct",
    ]);
    for r in rows {
        t.push_row([
            r.name.clone(),
            format!("{:.6}", r.time_original_s),
            format!("{:.6}", r.time_spa_s),
            format!("{:.6}", r.time_ipa_s),
            format!("{:.6}", r.overhead_spa_pct),
            format!("{:.6}", r.overhead_ipa_pct),
        ]);
    }
    let (b, s, i, ovh_s, ovh_i) = jbb;
    t.push_row([
        "jbb_throughput_ops".to_owned(),
        format!("{b:.6}"),
        format!("{s:.6}"),
        format!("{i:.6}"),
        format!("{ovh_s:.6}"),
        format!("{ovh_i:.6}"),
    ]);
    t
}

/// Agent-axis quantities as a [`Table`]: the ALLOC and LOCK triples per
/// workload, with empty cells for an agent that did not run (mirroring
/// the `cell_row_json` convention for absent agent columns).
pub fn agents_artifact(rows: &[MeasuredAgentRow]) -> Table {
    let mut t = Table::new([
        "benchmark",
        "alloc_sites",
        "alloc_objects",
        "alloc_bytes",
        "lock_entries",
        "lock_contended",
        "lock_blocked_cycles",
    ]);
    let triple = |v: Option<(u64, u64, u64)>| match v {
        Some((a, b, c)) => [a.to_string(), b.to_string(), c.to_string()],
        None => [String::new(), String::new(), String::new()],
    };
    for r in rows {
        let [a_sites, a_objects, a_bytes] = triple(r.alloc);
        let [l_entries, l_contended, l_blocked] = triple(r.lock);
        t.push_row([
            r.name.clone(),
            a_sites,
            a_objects,
            a_bytes,
            l_entries,
            l_contended,
            l_blocked,
        ]);
    }
    t
}

/// Table II quantities as a [`Table`].
pub fn table2_artifact(rows: &[MeasuredProfileRow]) -> Table {
    let mut t = Table::new([
        "benchmark",
        "pct_native",
        "jni_calls",
        "native_method_calls",
    ]);
    for r in rows {
        t.push_row([
            r.name.clone(),
            format!("{:.6}", r.pct_native),
            r.jni_calls.to_string(),
            r.native_method_calls.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_formula_matches_the_paper() {
        assert!((overhead_pct(2.0, 3.0) - 50.0).abs() < 1e-12);
        assert_eq!(overhead_pct(0.0, 3.0), 0.0);
    }

    #[test]
    fn config_defaults_scale_jbb() {
        let c = SuiteConfig::with_size(ProblemSize::S100);
        assert_eq!(c.jobs, 1);
        assert_eq!(c.jbb_size, ProblemSize(10));
        assert_eq!(c.clone().jobs(4).jobs, 4);
        assert!(c.soft_timeout.is_none());
        assert_eq!(c.retries, 0);
        assert!(c.chaos.is_none());
        assert!(c.cache.is_none());
        assert!(c.agents.is_none());
        assert_eq!(c.tiers, TiersMode::Full);
        assert_eq!(
            c.clone().tiers(TiersMode::InterpOnly).tiers,
            TiersMode::InterpOnly
        );
        // Tiny sizes floor at the JBB minimum scale.
        assert_eq!(
            SuiteConfig::with_size(ProblemSize::S1).jbb_size,
            ProblemSize(1)
        );
    }

    #[test]
    fn config_hardening_builders() {
        let c = SuiteConfig::with_size(ProblemSize::S1)
            .soft_timeout(Duration::from_secs(30))
            .retries(2)
            .chaos_seed(7);
        assert_eq!(c.soft_timeout, Some(Duration::from_secs(30)));
        assert_eq!(c.retries, 2);
        assert_eq!(c.chaos.unwrap().seed, 7);
    }

    #[test]
    fn failure_kinds_render() {
        let f = CellFailure {
            workload: "crashy".into(),
            agent: "IPA",
            attempts: 2,
            kind: CellFailureKind::ChecksumMismatch {
                original: 7,
                with_agent: 8,
            },
        };
        let text = f.to_string();
        assert!(text.contains("crashy/IPA"), "{text}");
        assert!(text.contains("checksum mismatch"), "{text}");
        assert!(CellFailureKind::TimedOut.to_string().contains("timeout"));
    }

    #[test]
    fn artifact_shapes() {
        let rows = vec![MeasuredOverheadRow {
            name: "compress".into(),
            time_original_s: 1.0,
            time_spa_s: 2.0,
            time_ipa_s: 1.1,
            overhead_spa_pct: 100.0,
            overhead_ipa_pct: 10.0,
        }];
        let t1 = table1_artifact(&rows, (5.0, 1.0, 4.0, 400.0, 25.0));
        assert_eq!(t1.len(), 2); // one row + the jbb throughput row
        assert!(t1.to_csv().starts_with("benchmark,time_original_s"));
        let t2 = table2_artifact(&[MeasuredProfileRow {
            name: "compress".into(),
            pct_native: 4.54,
            jni_calls: 3,
            native_method_calls: 7,
        }]);
        assert_eq!(
            t2.to_csv(),
            "benchmark,pct_native,jni_calls,native_method_calls\ncompress,4.540000,3,7\n"
        );
    }

    #[test]
    fn agents_artifact_renders_absent_columns_as_empty_cells() {
        let rows = vec![
            MeasuredAgentRow {
                name: "compress".into(),
                alloc: Some((3, 120, 4096)),
                lock: Some((9, 2, 550)),
            },
            MeasuredAgentRow {
                name: "db".into(),
                alloc: Some((1, 5, 80)),
                lock: None,
            },
        ];
        assert_eq!(
            agents_artifact(&rows).to_csv(),
            "benchmark,alloc_sites,alloc_objects,alloc_bytes,\
             lock_entries,lock_contended,lock_blocked_cycles\n\
             compress,3,120,4096,9,2,550\n\
             db,1,5,80,,,\n"
        );
    }

    #[test]
    fn agent_filter_selects_matrix_columns() {
        let all = build_cells(&SuiteConfig::with_size(ProblemSize::S1), &["compress"]);
        assert_eq!(all.len(), 2 * AgentCol::ALL.len());
        let some = build_cells(
            &SuiteConfig::with_size(ProblemSize::S1)
                .agents(vec![AgentChoice::Alloc, AgentChoice::Lock]),
            &["compress"],
        );
        assert_eq!(some.len(), 4); // {compress, jbb} × {ALLOC, LOCK}
        assert!(some
            .iter()
            .all(|c| matches!(c.agent, AgentCol::Alloc | AgentCol::Lock)));
        let none = build_cells(
            &SuiteConfig::with_size(ProblemSize::S1).agents(Vec::new()),
            &["compress"],
        );
        assert!(none.is_empty());
    }
}
