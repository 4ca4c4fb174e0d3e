//! # jvmsim-trace — transition-event recording and export
//!
//! The paper's agents reduce a run to a handful of aggregate numbers
//! (Tables I and II). This crate keeps the underlying *event stream*: every
//! bytecode↔native transition IPA observes, every JIT promotion, and every
//! thread's lifetime, each stamped with the emitting thread's PCL virtual
//! clock. The [`TraceRecorder`] implements the VM's
//! [`TraceSink`] hook, so recording needs no changes
//! to agents or workloads — install it with [`jvmsim_vm::Vm::set_trace_sink`]
//! (and [IPA adopts it automatically at attach]) and export afterwards:
//!
//! * [`chrome`] — Chrome `trace_event` JSON, loadable in Perfetto /
//!   `chrome://tracing`,
//! * [`flame`] — collapsed stacks (`inferno` / `flamegraph.pl` input),
//!   weighting native vs bytecode spans by virtual cycles,
//! * [`csv`] — flat event dumps and generic table rendering used for the
//!   Table I / II CSV artifacts.
//!
//! [IPA adopts it automatically at attach]: #integration
//!
//! ## Memory bounds
//!
//! Memory is bounded: each VM thread gets a fixed-capacity buffer
//! (power-of-two, default [`DEFAULT_CAPACITY`]). On saturation the
//! recorder keeps the *earliest* events and counts the overflow — the
//! [`ThreadTrace::dropped`] counter and the per-kind totals (which count
//! every append, recorded or not) mean saturation is always accounted,
//! never silent: `recorded + dropped == appended` holds per thread, and
//! [`TraceSnapshot::count`] stays exact no matter how small the buffers
//! are.
//!
//! ## Integration
//!
//! The recorder observes; it never charges cycles. VM-side events
//! (`ThreadStart`/`ThreadEnd` and the tier kinds `TierUpC1`/`TierUpC2`/
//! `Osr`/`Deopt`) are stamped by the VM from the thread's clock, and IPA's
//! probes reuse the timestamp they already took for span banking — so a
//! traced run produces *identical* Table I/II quantities to an untraced
//! one.
//!
//! ```
//! use std::sync::Arc;
//! use jvmsim_trace::TraceRecorder;
//! use jvmsim_vm::{TraceEventKind, TraceSink, ThreadId};
//!
//! let recorder = TraceRecorder::with_default_capacity();
//! // (normally the VM and IPA emit; here we emit directly)
//! recorder.record(ThreadId::from_index(0), TraceEventKind::ThreadStart, 0, None);
//! recorder.record(ThreadId::from_index(0), TraceEventKind::ThreadEnd, 42, None);
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.recorded(), 2);
//! assert_eq!(snapshot.dropped(), 0);
//! let json = jvmsim_trace::chrome::chrome_trace_json(&snapshot, 2_660_000_000)
//!     .expect("nonzero clock rate");
//! assert!(json.contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod csv;
pub mod flame;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

use jvmsim_faults::{FaultInjector, FaultSite};
use jvmsim_metrics::{CounterId, GaugeId, MetricsShard};
use jvmsim_vm::{MethodId, ThreadId, TraceEventKind, TraceSink};

/// Typed error taxonomy for the export paths (replacing the panicking
/// `assert!`s the exporters used to contain). Exporters are the last hop
/// before artifacts leave the toolchain, so a failure here must surface as
/// a recordable error the CLI can turn into an exit code — never a panic
/// that takes a suite run down.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExportError {
    /// A cycle→time conversion was requested with a zero clock frequency.
    ZeroClockRate,
    /// A table row did not match the header width.
    RaggedRow {
        /// Number of header columns.
        expected: usize,
        /// Number of fields in the offending row.
        got: usize,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::ZeroClockRate => write!(f, "clock frequency must be nonzero"),
            ExportError::RaggedRow { expected, got } => {
                write!(f, "row width {got} does not match header width {expected}")
            }
        }
    }
}

impl std::error::Error for ExportError {}

/// Default per-thread buffer capacity (events). At ~32 bytes per slot this
/// is ≈2 MiB per thread, enough for the scaled-down JVM98 runs; pass a
/// larger capacity to [`TraceRecorder::new`] for full-size suites.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One recorded transition event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Emitting thread's index.
    pub thread: u32,
    /// Event category.
    pub kind: TraceEventKind,
    /// The thread's PCL virtual-clock reading at emission.
    pub cycles: u64,
    /// The method a compilation-pipeline event concerns
    /// ([`TraceEventKind::TierUpC1`], [`TraceEventKind::TierUpC2`],
    /// [`TraceEventKind::Osr`] and [`TraceEventKind::Deopt`]); `None` for
    /// every other kind.
    pub method: Option<MethodId>,
}

/// Fixed-capacity per-thread event buffer.
///
/// `appended` counts every record attempt; slots `[0, capacity)` hold the
/// earliest `min(appended, capacity)` events. Appends are a single
/// `fetch_add` plus a write-once slot store — no locks on the hot path.
struct ThreadRing {
    slots: Vec<OnceLock<TraceEvent>>,
    appended: AtomicU64,
}

impl ThreadRing {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, OnceLock::new);
        ThreadRing {
            slots,
            appended: AtomicU64::new(0),
        }
    }

    /// Append `event`, returning whether it landed in a slot (`false` =
    /// dropped to saturation). `appended` counts either way, so the
    /// overflow stays visible in the snapshot.
    fn push(&self, event: TraceEvent) -> bool {
        let idx = self.appended.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(idx as usize) {
            slot.set(event).expect("ring slot written once");
            true
        } else {
            false
        }
    }
}

/// Bounded-memory recorder of the VM's transition-event stream.
///
/// One instance serves one `Vm` (or several sequential runs whose thread
/// timelines you want concatenated — typically you want a fresh recorder
/// per run). Implements [`TraceSink`]; see the crate docs for the
/// saturation policy.
pub struct TraceRecorder {
    capacity: usize,
    threads: RwLock<Vec<Arc<ThreadRing>>>,
    counts: [AtomicU64; TraceEventKind::COUNT],
    /// Fault plane (disabled by default): the trace-saturation site forces
    /// an append to be dropped as if the ring were full, exercising the
    /// `recorded + dropped == appended` ledger under adversity.
    faults: Arc<FaultInjector>,
    /// Metrics shard fed with append/drop counters (observation-only: the
    /// recorder still charges no cycles, so the `trace` attribution bucket
    /// stays zero by design).
    metrics: OnceLock<Arc<MetricsShard>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("capacity", &self.capacity)
            .field("threads", &self.threads().len())
            .finish()
    }
}

impl TraceRecorder {
    /// Create a recorder whose per-thread buffers hold `capacity` events
    /// (rounded up to a power of two; zero is rejected).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Arc<Self> {
        Self::with_injector(capacity, Arc::new(FaultInjector::disabled()))
    }

    /// Create a recorder whose appends additionally consult `faults` at
    /// the [`FaultSite::TraceSaturation`] site: an injected fault forces
    /// the event to be dropped (counted, not stored), exactly as if the
    /// ring were saturated.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_injector(capacity: usize, faults: Arc<FaultInjector>) -> Arc<Self> {
        assert!(capacity > 0, "trace buffer capacity must be nonzero");
        Arc::new(TraceRecorder {
            capacity: capacity.next_power_of_two(),
            threads: RwLock::new(Vec::new()),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            faults,
            metrics: OnceLock::new(),
        })
    }

    /// Create a recorder with [`DEFAULT_CAPACITY`] slots per thread.
    pub fn with_default_capacity() -> Arc<Self> {
        Self::new(DEFAULT_CAPACITY)
    }

    /// Per-thread buffer capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Feed append/drop counters to `shard` (typically a registry's global
    /// shard; first call wins). Publishes the configured capacity on the
    /// `trace_capacity` gauge immediately.
    pub fn set_metrics(&self, shard: Arc<MetricsShard>) {
        shard.gauge_max(GaugeId::TraceCapacity, self.capacity as u64);
        let _ = self.metrics.set(shard);
    }

    /// Total appends of `kind` so far — exact even under saturation.
    pub fn count(&self, kind: TraceEventKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Relaxed)
    }

    /// The per-thread rings; a panicking recorder poisons nothing.
    fn threads(&self) -> RwLockReadGuard<'_, Vec<Arc<ThreadRing>>> {
        self.threads.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn ring(&self, index: usize) -> Arc<ThreadRing> {
        if let Some(ring) = self.threads().get(index) {
            return Arc::clone(ring);
        }
        let mut threads = self.threads.write().unwrap_or_else(PoisonError::into_inner);
        while threads.len() <= index {
            threads.push(Arc::new(ThreadRing::new(self.capacity)));
        }
        Arc::clone(&threads[index])
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        let threads = self.threads();
        let per_thread = threads
            .iter()
            .enumerate()
            .map(|(i, ring)| {
                let appended = ring.appended.load(Ordering::Acquire);
                let events: Vec<TraceEvent> = ring
                    .slots
                    .iter()
                    .take(appended.min(self.capacity as u64) as usize)
                    .filter_map(|slot| slot.get().copied())
                    .collect();
                let dropped = appended - events.len() as u64;
                ThreadTrace {
                    thread: i as u32,
                    events,
                    appended,
                    dropped,
                }
            })
            .collect();
        TraceSnapshot {
            capacity: self.capacity,
            threads: per_thread,
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
        }
    }
}

impl TraceSink for TraceRecorder {
    fn record(
        &self,
        thread: ThreadId,
        kind: TraceEventKind,
        cycles: u64,
        method: Option<MethodId>,
    ) {
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(shard) = self.metrics.get() {
            shard.incr(CounterId::TraceAppends);
        }
        let ring = self.ring(thread.index());
        // Fault plane: a forced drop counts as an append that never landed
        // in a slot — indistinguishable from genuine ring saturation, and
        // accounted identically by the snapshot ledger.
        if self.faults.inject(FaultSite::TraceSaturation).is_some() {
            ring.appended.fetch_add(1, Ordering::Relaxed);
            if let Some(shard) = self.metrics.get() {
                shard.incr(CounterId::TraceDrops);
            }
            return;
        }
        let stored = ring.push(TraceEvent {
            thread: thread.index() as u32,
            kind,
            cycles,
            method,
        });
        if !stored {
            if let Some(shard) = self.metrics.get() {
                shard.incr(CounterId::TraceDrops);
            }
        }
    }
}

/// One thread's recorded timeline.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Thread index.
    pub thread: u32,
    /// Recorded events, in emission order (cycles non-decreasing).
    pub events: Vec<TraceEvent>,
    /// Total record attempts on this thread.
    pub appended: u64,
    /// Events lost to saturation: `appended - events.len()`.
    pub dropped: u64,
}

/// A point-in-time copy of a [`TraceRecorder`]'s contents.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Per-thread buffer capacity of the source recorder.
    pub capacity: usize,
    /// Per-thread timelines, indexed by thread index.
    pub threads: Vec<ThreadTrace>,
    /// Exact per-kind append totals (immune to saturation).
    pub counts: [u64; TraceEventKind::COUNT],
}

impl TraceSnapshot {
    /// Exact number of `kind` events appended (recorded or dropped).
    pub fn count(&self, kind: TraceEventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Events actually held in buffers.
    pub fn recorded(&self) -> u64 {
        self.threads.iter().map(|t| t.events.len() as u64).sum()
    }

    /// Total append attempts across all threads.
    pub fn appended(&self) -> u64 {
        self.threads.iter().map(|t| t.appended).sum()
    }

    /// Events lost to saturation across all threads.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// All recorded events interleaved across threads, ordered by cycle
    /// stamp (ties broken by thread index — deterministic).
    pub fn merged_events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .threads
            .iter()
            .flat_map(|t| t.events.iter().copied())
            .collect();
        all.sort_by_key(|e| (e.cycles, e.thread));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(recorder: &TraceRecorder, thread: usize, kind: TraceEventKind, cycles: u64) {
        recorder.record(ThreadId::from_index(thread), kind, cycles, None);
    }

    #[test]
    fn records_in_order_per_thread() {
        let r = TraceRecorder::new(8);
        ev(&r, 0, TraceEventKind::ThreadStart, 0);
        ev(&r, 0, TraceEventKind::N2jBegin, 10);
        ev(&r, 1, TraceEventKind::ThreadStart, 5);
        ev(&r, 0, TraceEventKind::N2jEnd, 30);
        let snap = r.snapshot();
        assert_eq!(snap.threads.len(), 2);
        let t0: Vec<u64> = snap.threads[0].events.iter().map(|e| e.cycles).collect();
        assert_eq!(t0, vec![0, 10, 30]);
        assert_eq!(snap.threads[1].events.len(), 1);
        assert_eq!(snap.recorded(), 4);
        assert_eq!(snap.dropped(), 0);
    }

    #[test]
    fn saturation_keeps_earliest_and_accounts_overflow() {
        let r = TraceRecorder::new(4); // already a power of two
        for i in 0..10 {
            ev(&r, 0, TraceEventKind::J2nBegin, i * 100);
        }
        let snap = r.snapshot();
        let t = &snap.threads[0];
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.appended, 10);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.events.len() as u64 + t.dropped, t.appended);
        // Kept the earliest events...
        assert_eq!(t.events[0].cycles, 0);
        assert_eq!(t.events[3].cycles, 300);
        // ...and the per-kind count stays exact.
        assert_eq!(snap.count(TraceEventKind::J2nBegin), 10);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(TraceRecorder::new(5).capacity(), 8);
        assert_eq!(TraceRecorder::new(64).capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = TraceRecorder::new(0);
    }

    #[test]
    fn merged_events_sorted_by_cycles_then_thread() {
        let r = TraceRecorder::new(8);
        ev(&r, 1, TraceEventKind::ThreadStart, 50);
        ev(&r, 0, TraceEventKind::ThreadStart, 50);
        ev(&r, 0, TraceEventKind::ThreadEnd, 20);
        let merged = r.snapshot().merged_events();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].cycles, 20);
        assert_eq!((merged[1].cycles, merged[1].thread), (50, 0));
        assert_eq!((merged[2].cycles, merged[2].thread), (50, 1));
    }

    #[test]
    fn forced_saturation_faults_stay_accounted() {
        use jvmsim_faults::{FaultPlan, PPM};
        // Every append is forced to drop: the ledger must still balance
        // and the per-kind counts must stay exact.
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(11).with_rate(FaultSite::TraceSaturation, PPM),
        ));
        let r = TraceRecorder::with_injector(8, Arc::clone(&inj));
        for i in 0..20 {
            ev(&r, 0, TraceEventKind::J2nBegin, i);
        }
        let snap = r.snapshot();
        let t = &snap.threads[0];
        assert_eq!(t.events.len(), 0);
        assert_eq!(t.appended, 20);
        assert_eq!(t.dropped, 20);
        assert_eq!(snap.recorded() + snap.dropped(), snap.appended());
        assert_eq!(snap.count(TraceEventKind::J2nBegin), 20);
        assert_eq!(inj.injected(FaultSite::TraceSaturation), 20);
    }

    #[test]
    fn partial_saturation_faults_keep_ledger_balanced() {
        use jvmsim_faults::FaultPlan;
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(5).with_rate(FaultSite::TraceSaturation, 300_000),
        ));
        let r = TraceRecorder::with_injector(64, inj);
        for i in 0..50 {
            ev(&r, 0, TraceEventKind::N2jBegin, i);
        }
        let snap = r.snapshot();
        assert!(snap.dropped() > 0, "rate high enough to force drops");
        assert!(snap.recorded() > 0, "not everything dropped");
        assert_eq!(snap.recorded() + snap.dropped(), snap.appended());
        assert_eq!(snap.count(TraceEventKind::N2jBegin), 50);
    }

    #[test]
    fn metrics_counters_track_appends_and_drops() {
        use jvmsim_metrics::{CounterId, GaugeId, MetricsRegistry};
        let reg = MetricsRegistry::new();
        let r = TraceRecorder::new(4);
        r.set_metrics(reg.global());
        for i in 0..10 {
            ev(&r, 0, TraceEventKind::J2nBegin, i);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter(CounterId::TraceAppends), 10);
        assert_eq!(snap.counter(CounterId::TraceDrops), 6);
        assert_eq!(snap.gauge(GaugeId::TraceCapacity), 4);
        // The recorder charges no cycles: the trace bucket stays zero.
        assert_eq!(
            snap.bucket_cycles(jvmsim_metrics::Bucket::Trace),
            0,
            "trace recording is out-of-band by design"
        );
        // The metrics ledger agrees with the snapshot's own.
        let t = r.snapshot();
        assert_eq!(t.recorded() + t.dropped(), t.appended());
    }

    #[test]
    fn concurrent_appends_from_many_threads_are_all_accounted() {
        let r = TraceRecorder::new(64);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        r.record(ThreadId::from_index(t), TraceEventKind::J2nBegin, i, None);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.appended(), 400);
        assert_eq!(snap.recorded() + snap.dropped(), snap.appended());
        assert_eq!(snap.count(TraceEventKind::J2nBegin), 400);
        for t in &snap.threads {
            assert_eq!(t.events.len(), 64);
            assert_eq!(t.dropped, 36);
        }
    }
}
