//! # jvmsim-metrics — deterministic internal metrics for the jvmsim stack
//!
//! The paper's headline result is an *overhead* study: Table I exists
//! because SPA's per-event probes cost 1 527 %–41 775 % while IPA's
//! transition-only probes cost 0–20.43 %. This crate lets the reproduction
//! measure that overhead *internally* — attributing every charged cycle to
//! a [`Bucket`] (workload, IPA probe, SPA probe, trace, harness) instead of
//! inferring it from end-to-end subtraction — plus monotonic counters and
//! log2-bucketed cycle histograms for the surrounding machinery.
//!
//! ## Determinism contract
//!
//! Mirrors the trace recorder's contract: snapshots are **byte-identical
//! for any `--jobs` value**. Each VM thread records into a plain
//! [`MetricsSnapshot`] it owns (its *ledger*) — no atomics, no locks, no
//! heap allocation — and hands it to [`MetricsRegistry::absorb`] when it
//! ends. [`MetricsRegistry::snapshot`] folds the thread ledgers in
//! thread-index order, then the global [`MetricsShard`], and
//! [`MetricsSnapshot::absorb`] is commutative and associative (counters and
//! histograms sum, gauges take the max), so the merged result is
//! independent of scheduling. A property test pins the merge-order
//! independence.
//!
//! Recording **never charges cycles**: a run with a registry attached
//! produces the same Table I/II numbers as a run without one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Declares a dense id enum: each variant is written once, as
/// `Variant => "name"`, and the macro generates `COUNT`, `ALL` (every
/// variant in declaration order), `const fn index` (the declaration
/// position) and `const fn name`. Attributes on the enum and on each
/// variant (docs, derives, `#[default]`) pass through unchanged.
///
/// An index is a variant's position, so inserting or reordering variants
/// renumbers every later one; the golden id corpus pins each table.
///
/// ```
/// jvmsim_metrics::id_table! {
///     /// Primary colours.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub enum Colour {
///         /// Red.
///         Red => "red",
///         /// Blue.
///         Blue => "blue",
///     }
/// }
///
/// assert_eq!(Colour::COUNT, 2);
/// assert_eq!(Colour::ALL, [Colour::Red, Colour::Blue]);
/// assert_eq!((Colour::Blue.index(), Colour::Blue.name()), (1, "blue"));
/// ```
#[macro_export]
macro_rules! id_table {
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        $vis enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Number of variants (array sizing).
            pub const COUNT: usize = [$($name),+].len();

            /// Every variant, in dense-index order.
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$variant),+];

            /// Dense index in `[0, COUNT)`: the declaration position.
            #[must_use]
            pub const fn index(self) -> usize {
                self as usize
            }

            /// Stable name (exporters, reports, wire formats).
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }
        }
    };
}

id_table! {
    /// Which machinery a charged cycle belongs to — the columns of the
    /// overhead-attribution table.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum Bucket {
        /// Application bytecode, JDK natives, and VM bookkeeping on their
        /// behalf — everything an unprofiled run would also pay.
        #[default]
        Workload => "workload",
        /// IPA probe machinery: wrapper-native dispatch, transition timestamps,
        /// meter updates, thread-lifecycle event delivery to the IPA agent.
        IpaProbe => "ipa_probe",
        /// SPA probe machinery: MethodEntry/MethodExit event dispatch, the
        /// reified stack, raw-monitor totals.
        SpaProbe => "spa_probe",
        /// Transition-trace recording. The recorder's documented contract is
        /// zero cycle perturbation, so this bucket must stay 0; it exists so
        /// the report *shows* that instead of assuming it.
        Trace => "trace",
        /// Launcher machinery: the JNI `Call*Method*` charge the harness pays
        /// to enter each thread's initial method.
        Harness => "harness",
        /// ALLOC agent machinery: allocation-event delivery and the agent's
        /// site-table bookkeeping.
        AllocProbe => "alloc_probe",
        /// LOCK agent machinery: monitor-ledger bookkeeping plus the modeled
        /// blocked cycles charged to waiting threads.
        LockProbe => "lock_probe",
        /// C1 quick-compiler time: cycles spent producing tier-1 code (and
        /// half-charged aborted compiles under fault injection).
        C1Compile => "c1_compile",
        /// C2 optimizing-compiler time: cycles spent producing tier-2 code
        /// (and half-charged aborted compiles under fault injection).
        C2Compile => "c2_compile",
    }
}

impl Bucket {
    fn from_index(i: u8) -> Bucket {
        Bucket::ALL[i as usize]
    }
}

id_table! {
    /// Monotonic counter identities. Static: adding one is a code change, so
    /// exposition order (and therefore artifact bytes) can never drift.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CounterId {
        /// Interpreted bytecode instructions executed.
        InterpInsns => "interp_insns",
        /// Method invocations (bytecode and native).
        Invocations => "invocations",
        /// Native method invocations from bytecode (J2N dispatches).
        NativeCalls => "native_calls",
        /// JNI `Call*Method*` upcalls (N2J dispatches).
        JniUpcalls => "jni_upcalls",
        /// JVMTI events delivered to an agent sink.
        JvmtiEvents => "jvmti_events",
        /// IPA probe executions (J2N begin/end + intercepted N2J begin/end).
        IpaProbes => "ipa_probes",
        /// SPA probe executions (MethodEntry/MethodExit callbacks).
        SpaProbes => "spa_probes",
        /// Transition-trace events appended (stored in a ring).
        TraceAppends => "trace_appends",
        /// Transition-trace events dropped (ring full or injected saturation).
        TraceDrops => "trace_drops",
        /// Fault-injector consultations across all sites.
        FaultsConsulted => "faults_consulted",
        /// Faults actually injected across all sites.
        FaultsInjected => "faults_injected",
        /// Suite cells whose execution began.
        CellsStarted => "cells_started",
        /// Suite cells that completed and produced a result.
        CellsCompleted => "cells_completed",
        /// Suite cells quarantined with a typed failure.
        CellsQuarantined => "cells_quarantined",
        /// Content-addressed cache lookups that verified and were served.
        CacheHits => "cache_hits",
        /// Content-addressed cache lookups that found no entry.
        CacheMisses => "cache_misses",
        /// Bytes moved through the content-addressed cache (reads + writes).
        CacheBytes => "cache_bytes",
        /// Cache entries that failed digest verification and were quarantined.
        CacheQuarantined => "cache_quarantined",
        /// Serve-plane requests admitted (parsed far enough to be accounted).
        ServeAccepted => "serve_accepted",
        /// Serve-plane requests answered successfully (2xx, including hits).
        ServeServed => "serve_served",
        /// Serve-plane requests shed with `429` because the queue was full.
        ServeShed => "serve_shed",
        /// Serve-plane requests that exceeded a deadline (`408`/`504`).
        ServeTimeout => "serve_timeout",
        /// Serve-plane requests whose connection dropped before the response.
        ServeDropped => "serve_dropped",
        /// Serve-plane requests rejected with a client/server error (4xx/5xx
        /// other than shed/timeout).
        ServeErrors => "serve_errors",
        /// Serve-plane run requests answered from the cell-result cache.
        ServeHits => "serve_hits",
        /// ALLOC probe executions (allocation-event callbacks).
        AllocProbes => "alloc_probes",
        /// LOCK probe executions (instrumented raw-monitor entries).
        LockProbes => "lock_probes",
        /// Serve-plane run requests executed through a worker (cache misses
        /// that actually computed a row). Summed across a fleet this counts
        /// rows computed, so a healthy cluster run asserts it equals the
        /// matrix size exactly — zero double-computes.
        ServeRunsExecuted => "serve_runs_executed",
        /// Cluster peer-fetch attempts that returned a verified cell entry.
        ClusterPeerHits => "cluster_peer_hits",
        /// Cluster peer-fetch rounds that exhausted every peer and degraded
        /// to local recompute.
        ClusterPeerMisses => "cluster_peer_misses",
        /// Cluster peer-fetch retries (attempts beyond the first per peer),
        /// driven by the seeded backoff policy.
        ClusterRetries => "cluster_retries",
        /// Cluster requests routed past a quarantined owner to its
        /// consistent-hash successor.
        ClusterFailovers => "cluster_failovers",
        /// Cache entries evicted by bounded-store compaction.
        ClusterEvictions => "cluster_evictions",
        /// Serve-plane connections accepted by the event loop over the
        /// daemon's lifetime (keep-alive connections count once).
        ServeConnsAccepted => "serve_conns_accepted",
        /// Methods promoted to the C1 quick tier (including via OSR).
        C1Compiles => "c1_compiles",
        /// Methods promoted to the C2 optimizing tier (including via OSR).
        C2Compiles => "c2_compiles",
        /// On-stack replacements: promotions triggered by a hot loop
        /// back-edge inside a running activation.
        OsrReplacements => "osr_replacements",
        /// Deoptimizations: compiled frames demoted back to the interpreter
        /// by exception unwinding.
        Deopts => "deopts",
        /// Tier compiles aborted by the `tier-compile-abort` fault site.
        TierCompileAborts => "tier_compile_aborts",
    }
}

id_table! {
    /// Gauge identities. Gauges merge by `max`, so they suit high-water marks.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum GaugeId {
        /// VM threads created (high-water mark).
        Threads => "threads",
        /// Trace-ring capacity in slots.
        TraceCapacity => "trace_capacity",
        /// Deepest the serve-plane admission queue ever got (jobs queued at
        /// the moment of a successful enqueue, high-water mark).
        ServeQueueDepthHighwater => "serve_queue_depth_highwater",
        /// Most connections the event loop ever held open at once
        /// (high-water mark) — the C10k headline number.
        ServeOpenConnsHighwater => "serve_open_conns_highwater",
    }
}

id_table! {
    /// Histogram identities (log2-bucketed cycle distributions).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum HistogramId {
        /// Self-timed cycles of one IPA probe body.
        IpaProbeCycles => "ipa_probe_cycles",
        /// Self-timed cycles of one SPA probe body.
        SpaProbeCycles => "spa_probe_cycles",
        /// Total cycles of one suite cell.
        CellCycles => "cell_cycles",
        /// Wall-clock latency of one serve-plane request, in microseconds.
        /// This is the only wall-clock quantity in the registry; it exists for
        /// operators and never feeds artifact bytes.
        ServeLatencyMicros => "serve_latency_micros",
        /// Self-timed cycles of one ALLOC probe body.
        AllocProbeCycles => "alloc_probe_cycles",
        /// Self-timed cycles of one LOCK probe body.
        LockProbeCycles => "lock_probe_cycles",
        /// Modeled cycles a served request spent waiting in the admission
        /// queue (the span plane's `queue_wait` stage, one observation per
        /// admitted request).
        ServeQueueWaitCycles => "serve_queue_wait_cycles",
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0; bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, up to `i = 64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The log2 bucket index of `v`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of histogram bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// Metric storage shared across host threads (the registry's global
/// shard, the cache and the serve daemon): fixed atomic arrays only, so
/// recording is lock-free and allocation-free. Simulated threads record
/// into their own [`MetricsSnapshot`] ledger instead.
#[derive(Debug)]
pub struct MetricsShard {
    counters: [AtomicU64; CounterId::COUNT],
    gauges: [AtomicU64; GaugeId::COUNT],
    histograms: [Histogram; HistogramId::COUNT],
}

impl Default for MetricsShard {
    fn default() -> Self {
        MetricsShard::new()
    }
}

impl MetricsShard {
    /// A zeroed shard.
    pub fn new() -> Self {
        MetricsShard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Increment counter `id` by one.
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increment counter `id` by `n`.
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Raise gauge `id` to at least `v` (merge semantics are `max`).
    pub fn gauge_max(&self, id: GaugeId, v: u64) {
        self.gauges[id.index()].fetch_max(v, Ordering::Relaxed);
    }

    /// Record one observation of `v` into histogram `id`.
    pub fn observe(&self, id: HistogramId, v: u64) {
        self.histograms[id.index()].observe(v);
    }

    /// Freeze this shard's contents (its bucket cycles are all zero: only
    /// thread ledgers attribute cycles).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed)),
            bucket_cycles: [0; Bucket::COUNT],
            histograms: std::array::from_fn(|h| HistogramSnapshot {
                buckets: std::array::from_fn(|i| {
                    self.histograms[h].buckets[i].load(Ordering::Relaxed)
                }),
                sum: self.histograms[h].sum.load(Ordering::Relaxed),
                count: self.histograms[h].count.load(Ordering::Relaxed),
            }),
        }
    }
}

#[derive(Debug)]
struct RegistryInner {
    /// Absorbed per-thread ledgers, indexed by VM thread index.
    threads: Mutex<Vec<MetricsSnapshot>>,
    /// Shard for machinery with no thread context (trace recorder totals,
    /// fault-plane totals, suite-cell lifecycle). Totals sum over shards,
    /// so *which* shard a count lands in never changes the snapshot.
    global: Arc<MetricsShard>,
    /// Which bucket the attached agent's machinery belongs to.
    agent_bucket: AtomicU8,
}

/// Handle to one cell's metric registry. Cheap to clone (`Arc` inside).
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with no thread ledgers yet.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                threads: Mutex::new(Vec::new()),
                global: Arc::new(MetricsShard::new()),
                agent_bucket: AtomicU8::new(Bucket::Workload.index() as u8),
            }),
        }
    }

    fn threads(&self) -> std::sync::MutexGuard<'_, Vec<MetricsSnapshot>> {
        // Every update is a single `absorb` into plain data, so a poisoned
        // lock still guards a consistent vector.
        self.inner.threads.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold VM thread `index`'s ledger into the registry. This locks, so
    /// the VM calls it at thread boundaries, never per event.
    pub fn absorb(&self, index: usize, ledger: &MetricsSnapshot) {
        let mut threads = self.threads();
        if threads.len() <= index {
            threads.resize_with(index + 1, MetricsSnapshot::default);
        }
        threads[index].absorb(ledger);
    }

    /// The global (thread-context-free) shard.
    pub fn global(&self) -> Arc<MetricsShard> {
        Arc::clone(&self.inner.global)
    }

    /// Declare which bucket the attached agent's machinery belongs to
    /// ([`Bucket::IpaProbe`], [`Bucket::SpaProbe`], or the default
    /// [`Bucket::Workload`] when no agent is attached).
    pub fn set_agent_bucket(&self, bucket: Bucket) {
        self.inner
            .agent_bucket
            .store(bucket.index() as u8, Ordering::Relaxed);
    }

    /// The declared agent bucket.
    pub fn agent_bucket(&self) -> Bucket {
        Bucket::from_index(self.inner.agent_bucket.load(Ordering::Relaxed))
    }

    /// Fold every thread ledger in thread-index order, then the global
    /// shard, into one snapshot. Because [`MetricsSnapshot::absorb`] is
    /// commutative and associative, the result is a pure function of what
    /// was recorded, independent of scheduling or fold order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for ledger in self.threads().iter() {
            out.absorb(ledger);
        }
        out.absorb(&self.inner.global.snapshot());
        out
    }
}

/// Frozen contents of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    fn observe(&mut self, v: u64) {
        let b = &mut self.buckets[bucket_index(v)];
        *b = b.wrapping_add(1);
        self.sum = self.sum.wrapping_add(v);
        self.count = self.count.wrapping_add(1);
    }

    /// Fold `other` into `self` (bucket-wise sums). Sums wrap on overflow,
    /// matching the wrapping semantics of the underlying atomic adds.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.wrapping_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.count = self.count.wrapping_add(other.count);
    }
}

/// Frozen registry contents: plain data, `Eq`, and mergeable. A simulated
/// thread also records into one of these directly, as its owned ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; CounterId::COUNT],
    gauges: [u64; GaugeId::COUNT],
    bucket_cycles: [u64; Bucket::COUNT],
    histograms: [HistogramSnapshot; HistogramId::COUNT],
}

// Manual impl: `derive(Default)` caps arrays at 32 elements and
// `CounterId::COUNT` has outgrown that.
impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: [0; CounterId::COUNT],
            gauges: [0; GaugeId::COUNT],
            bucket_cycles: [0; Bucket::COUNT],
            histograms: Default::default(),
        }
    }
}

impl MetricsSnapshot {
    /// Increment counter `id` by one.
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increment counter `id` by `n`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        let c = &mut self.counters[id.index()];
        *c = c.wrapping_add(n);
    }

    /// Raise gauge `id` to at least `v`.
    pub fn gauge_max(&mut self, id: GaugeId, v: u64) {
        let g = &mut self.gauges[id.index()];
        *g = (*g).max(v);
    }

    /// Record one observation of `v` into histogram `id`.
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        self.histograms[id.index()].observe(v);
    }

    /// Attribute `cycles` to `bucket`.
    #[inline]
    pub fn charge(&mut self, bucket: Bucket, cycles: u64) {
        let b = &mut self.bucket_cycles[bucket.index()];
        *b = b.wrapping_add(cycles);
    }

    /// Value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Value of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id.index()]
    }

    /// Cycles attributed to `bucket`.
    pub fn bucket_cycles(&self, bucket: Bucket) -> u64 {
        self.bucket_cycles[bucket.index()]
    }

    /// Sum over all buckets. For a VM's registry this equals
    /// `Pcl::total_cycles()` exactly: every clock charge also lands in the
    /// charging thread's ledger.
    pub fn total_cycles(&self) -> u64 {
        self.bucket_cycles
            .iter()
            .fold(0u64, |a, b| a.wrapping_add(*b))
    }

    /// Cycles attributed to any non-workload bucket (agent + harness
    /// machinery) — the numerator of the internal overhead percentage.
    pub fn overhead_cycles(&self) -> u64 {
        self.total_cycles()
            .saturating_sub(self.bucket_cycles(Bucket::Workload))
    }

    /// Frozen histogram `id`.
    pub fn histogram(&self, id: HistogramId) -> &HistogramSnapshot {
        &self.histograms[id.index()]
    }

    /// Fold `other` into `self`: counters, cycles and histograms sum;
    /// gauges take the max. Commutative and associative, so any merge
    /// order over any sharding yields the same snapshot.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.wrapping_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = (*a).max(*b);
        }
        for (a, b) in self
            .bucket_cycles
            .iter_mut()
            .zip(other.bucket_cycles.iter())
        {
            *a = a.wrapping_add(*b);
        }
        for (a, b) in self.histograms.iter_mut().zip(other.histograms.iter()) {
            a.absorb(b);
        }
    }
}

/// One labelled snapshot in an export set (one suite cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsEntry {
    /// Workload name (`benchmark` label).
    pub benchmark: String,
    /// Agent column label (`agent` label): `original` / `spa` / `ipa`.
    pub agent: String,
    /// The cell's merged snapshot.
    pub snapshot: MetricsSnapshot,
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render `entries` in the Prometheus text exposition format. Entry order
/// is preserved; everything else is a pure function of the snapshots, so
/// the output is byte-identical across runs.
pub fn render_prometheus(entries: &[MetricsEntry]) -> String {
    let mut out = String::new();
    for id in CounterId::ALL {
        let _ = writeln!(
            out,
            "# HELP jvmsim_{}_total {} (monotonic)",
            id.name(),
            id.name()
        );
        let _ = writeln!(out, "# TYPE jvmsim_{}_total counter", id.name());
        for e in entries {
            let _ = writeln!(
                out,
                "jvmsim_{}_total{{benchmark=\"{}\",agent=\"{}\"}} {}",
                id.name(),
                escape_label(&e.benchmark),
                escape_label(&e.agent),
                e.snapshot.counter(id)
            );
        }
    }
    for id in GaugeId::ALL {
        let _ = writeln!(
            out,
            "# HELP jvmsim_{} {} (high-water mark)",
            id.name(),
            id.name()
        );
        let _ = writeln!(out, "# TYPE jvmsim_{} gauge", id.name());
        for e in entries {
            let _ = writeln!(
                out,
                "jvmsim_{}{{benchmark=\"{}\",agent=\"{}\"}} {}",
                id.name(),
                escape_label(&e.benchmark),
                escape_label(&e.agent),
                e.snapshot.gauge(id)
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP jvmsim_cycles_total virtual cycles by attribution bucket"
    );
    let _ = writeln!(out, "# TYPE jvmsim_cycles_total counter");
    for e in entries {
        for b in Bucket::ALL {
            let _ = writeln!(
                out,
                "jvmsim_cycles_total{{benchmark=\"{}\",agent=\"{}\",bucket=\"{}\"}} {}",
                escape_label(&e.benchmark),
                escape_label(&e.agent),
                b.name(),
                e.snapshot.bucket_cycles(b)
            );
        }
    }
    for id in HistogramId::ALL {
        let _ = writeln!(
            out,
            "# HELP jvmsim_{} log2-bucketed cycle distribution",
            id.name()
        );
        let _ = writeln!(out, "# TYPE jvmsim_{} histogram", id.name());
        for e in entries {
            let labels = format!(
                "benchmark=\"{}\",agent=\"{}\"",
                escape_label(&e.benchmark),
                escape_label(&e.agent)
            );
            let h = e.snapshot.histogram(id);
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let _ = writeln!(
                    out,
                    "jvmsim_{}_bucket{{{},le=\"{}\"}} {}",
                    id.name(),
                    labels,
                    bucket_upper_bound(i),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "jvmsim_{}_bucket{{{},le=\"+Inf\"}} {}",
                id.name(),
                labels,
                h.count
            );
            let _ = writeln!(out, "jvmsim_{}_sum{{{}}} {}", id.name(), labels, h.sum);
            let _ = writeln!(out, "jvmsim_{}_count{{{}}} {}", id.name(), labels, h.count);
        }
    }
    out
}

/// Render `entries` as stable, hand-rolled JSON (fixed key order, entry
/// order preserved; byte-identical across runs).
pub fn render_json(entries: &[MetricsEntry]) -> String {
    let mut out = String::from("{\n  \"entries\": [");
    for (n, e) in entries.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"benchmark\": \"{}\", \"agent\": \"{}\"",
            escape_json(&e.benchmark),
            escape_json(&e.agent)
        );
        out.push_str(", \"counters\": {");
        for (i, id) in CounterId::ALL.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\": {}", id.name(), e.snapshot.counter(*id));
        }
        out.push_str("}, \"gauges\": {");
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\": {}", id.name(), e.snapshot.gauge(*id));
        }
        out.push_str("}, \"cycles\": {");
        for (i, b) in Bucket::ALL.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {}",
                b.name(),
                e.snapshot.bucket_cycles(*b)
            );
        }
        let _ = write!(out, ", \"total\": {}", e.snapshot.total_cycles());
        out.push_str("}, \"histograms\": {");
        for (i, id) in HistogramId::ALL.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let h = e.snapshot.histogram(*id);
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                id.name(),
                h.count,
                h.sum
            );
            let mut first = true;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "[{b}, {c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 7, 8, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} over bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} fits bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn enum_indices_dense_and_names_unique() {
        fn check<T: Copy>(all: &[T], index: impl Fn(T) -> usize, name: impl Fn(T) -> &'static str) {
            let mut seen = vec![false; all.len()];
            let mut names = std::collections::HashSet::new();
            for &x in all {
                assert!(!seen[index(x)]);
                seen[index(x)] = true;
                assert!(names.insert(name(x)));
            }
        }
        check(&Bucket::ALL, Bucket::index, Bucket::name);
        check(&CounterId::ALL, CounterId::index, CounterId::name);
        check(&GaugeId::ALL, GaugeId::index, GaugeId::name);
        check(&HistogramId::ALL, HistogramId::index, HistogramId::name);
    }

    #[test]
    fn ledger_charges_land_in_the_named_bucket() {
        let mut s = MetricsSnapshot::default();
        s.charge(Bucket::Workload, 13);
        s.charge(Bucket::IpaProbe, 6);
        s.charge(Bucket::Harness, 2);
        assert_eq!(s.bucket_cycles(Bucket::Workload), 13);
        assert_eq!(s.bucket_cycles(Bucket::IpaProbe), 6);
        assert_eq!(s.bucket_cycles(Bucket::Harness), 2);
        assert_eq!(s.total_cycles(), 21);
        assert_eq!(s.overhead_cycles(), 8);
    }

    #[test]
    fn registry_thread_ledgers_grow_and_snapshot_folds() {
        let reg = MetricsRegistry::new();
        let (mut t0, mut t2) = (MetricsSnapshot::default(), MetricsSnapshot::default());
        t0.incr(CounterId::InterpInsns);
        t2.add(CounterId::InterpInsns, 4);
        t2.gauge_max(GaugeId::Threads, 3);
        t0.gauge_max(GaugeId::Threads, 7);
        reg.absorb(2, &t2); // index 1 materializes too, empty
        reg.absorb(0, &t0);
        reg.absorb(0, &t0);
        reg.global().incr(CounterId::TraceAppends);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(CounterId::InterpInsns), 6);
        assert_eq!(snap.counter(CounterId::TraceAppends), 1);
        assert_eq!(snap.gauge(GaugeId::Threads), 7);
    }

    #[test]
    fn histogram_observations_round_trip() {
        let shard = MetricsShard::new();
        let mut ledger = MetricsSnapshot::default();
        for v in [0u64, 1, 100, 100, 5000] {
            shard.observe(HistogramId::IpaProbeCycles, v);
            ledger.observe(HistogramId::IpaProbeCycles, v);
        }
        let s = shard.snapshot();
        assert_eq!(s, ledger, "shard and ledger record alike");
        let h = s.histogram(HistogramId::IpaProbeCycles);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 5_201);
        assert_eq!(h.buckets[bucket_index(0)], 1);
        assert_eq!(h.buckets[bucket_index(100)], 2);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn agent_bucket_setting() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.agent_bucket(), Bucket::Workload);
        reg.set_agent_bucket(Bucket::SpaProbe);
        assert_eq!(reg.agent_bucket(), Bucket::SpaProbe);
    }

    #[test]
    fn absorb_is_commutative_on_fixed_values() {
        let a = {
            let mut s = MetricsSnapshot::default();
            s.add(CounterId::Invocations, 3);
            s.gauge_max(GaugeId::Threads, 2);
            s.observe(HistogramId::CellCycles, 77);
            s.charge(Bucket::Workload, 40);
            s
        };
        let b = {
            let mut s = MetricsSnapshot::default();
            s.add(CounterId::Invocations, 9);
            s.gauge_max(GaugeId::Threads, 5);
            s.observe(HistogramId::CellCycles, 3);
            s.charge(Bucket::Workload, 2);
            s
        };
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter(CounterId::Invocations), 12);
        assert_eq!(ab.gauge(GaugeId::Threads), 5);
        assert_eq!(ab.bucket_cycles(Bucket::Workload), 42);
        let empty = MetricsSnapshot::default();
        let mut ae = a.clone();
        ae.absorb(&empty);
        assert_eq!(ae, a, "empty snapshot is the merge identity");
    }

    #[test]
    fn exporters_emit_stable_labelled_lines() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.add(CounterId::JniUpcalls, 7);
        snapshot.charge(Bucket::Workload, 123);
        snapshot.observe(HistogramId::IpaProbeCycles, 55);
        let entries = vec![MetricsEntry {
            benchmark: "compress".into(),
            agent: "ipa".into(),
            snapshot,
        }];
        let prom = render_prometheus(&entries);
        assert!(prom.contains("# TYPE jvmsim_jni_upcalls_total counter"));
        assert!(prom.contains("jvmsim_jni_upcalls_total{benchmark=\"compress\",agent=\"ipa\"} 7"));
        assert!(prom.contains(
            "jvmsim_cycles_total{benchmark=\"compress\",agent=\"ipa\",bucket=\"workload\"} 123"
        ));
        assert!(prom.contains(
            "jvmsim_ipa_probe_cycles_bucket{benchmark=\"compress\",agent=\"ipa\",le=\"63\"} 1"
        ));
        assert!(
            prom.contains("jvmsim_ipa_probe_cycles_count{benchmark=\"compress\",agent=\"ipa\"} 1")
        );
        let json = render_json(&entries);
        assert!(json.contains("\"benchmark\": \"compress\""));
        assert!(json.contains("\"jni_upcalls\": 7"));
        assert!(json.contains("\"workload\": 123"));
        assert!(json.contains("\"total\": 123"));
        // Rendering the same entries twice is byte-identical.
        assert_eq!(prom, render_prometheus(&entries));
        assert_eq!(json, render_json(&entries));
    }
}
