//! # jvmsim-pcl — Performance Counter Library analog
//!
//! The paper's time measurements rest on the *Performance Counter Library*
//! (PCL), of which it only uses one capability: reading a **per-thread cycle
//! counter** (§II-C). Standard Java clocks were "severely out of scale with
//! the speed at which GHz-class CPUs execute native code", so the agents read
//! hardware timestamp counters virtualized per thread by the OS.
//!
//! In this reproduction the "hardware" is the `jvmsim-vm` simulator, which
//! charges a deterministic number of cycles to the running thread for every
//! bytecode instruction, JNI call, native-work quantum and agent action. This
//! crate owns those per-thread clocks and exposes the PCL-shaped read API
//! ([`Pcl::timestamp`], the stand-in for the paper's fictive
//! `PCL.getTimestamp(Thread)`).
//!
//! Virtual cycles convert to seconds at a configurable clock frequency; the
//! default matches the paper's 2.66 GHz Pentium 4 test machine.
//!
//! ```
//! use jvmsim_pcl::{Pcl, ThreadClockId};
//!
//! let pcl = Pcl::new();
//! let t = pcl.register_thread();
//! pcl.charge(t, 2_660_000_000); // one simulated second of work
//! assert_eq!(pcl.timestamp(t).cycles(), 2_660_000_000);
//! assert!((pcl.cycles_to_seconds(pcl.timestamp(t).cycles()) - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;

pub use cost::TierCostModel;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jvmsim_metrics::MetricsShard;
use parking_lot::RwLock;

/// Clock frequency of the paper's evaluation machine (Pentium 4, 2.66 GHz).
pub const PAPER_CLOCK_HZ: u64 = 2_660_000_000;

/// Identifier of a per-thread cycle clock.
///
/// The VM allocates one clock per green thread at thread creation; agents and
/// VM subsystems charge cycles to it and read it back as a [`Timestamp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadClockId(u32);

impl ThreadClockId {
    /// Raw index of this clock in the PCL registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadClockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clock#{}", self.0)
    }
}

/// A point-in-time reading of a thread's cycle counter.
///
/// Timestamps of *different* threads are not comparable (each thread's
/// counter advances independently, exactly as per-thread hardware counters
/// do); the newtype makes accidental cross-thread arithmetic explicit via
/// [`Timestamp::cycles_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// Construct a timestamp from a raw cycle count.
    pub fn from_cycles(cycles: u64) -> Self {
        Timestamp(cycles)
    }

    /// Raw cycle count of this reading.
    pub fn cycles(self) -> u64 {
        self.0
    }

    /// Cycles elapsed since `earlier` on the *same* thread's clock.
    ///
    /// Saturates at zero if `earlier` is in the future, which can only happen
    /// if readings from different threads are mixed — a caller bug this API
    /// deliberately keeps survivable, mirroring how the C agents treat the
    /// raw counter values.
    pub fn cycles_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// This reading moved `delta` cycles into the past (saturating at
    /// zero). Used by the fault-injection plane to model a clock
    /// step-back anomaly: consumers must treat a timestamp earlier than
    /// the previous reading as a zero-length interval, never underflow.
    pub fn rewound(self, delta: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(delta))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// The PCL registry: one virtual cycle counter per registered thread.
///
/// Cloning is cheap (`Arc` inside); the VM and any number of agents share one
/// instance. Every registry operation on a clock takes one `RwLock` read of
/// the slot table and then charges or reads the slot's [`ClockHandle`] in
/// place: an atomic add per charge, plus one into the mirrored metrics shard
/// if attached. Only registration and [`Pcl::attach_metrics`] write-lock.
/// The VM's interpreter skips even the read lock by holding a cloned handle.
#[derive(Clone, Default)]
pub struct Pcl {
    inner: Arc<PclInner>,
}

#[derive(Default)]
struct PclInner {
    /// One handle per registered clock, indexed by [`ThreadClockId`]. A
    /// slot's metrics shard, when attached, receives a mirror of every
    /// charge, so the bucket totals sum to `total_cycles()` *exactly*.
    /// Mirroring never charges cycles of its own.
    slots: RwLock<Vec<ClockHandle>>,
    clock_hz: AtomicU64,
}

impl fmt::Debug for Pcl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pcl")
            .field("threads", &self.thread_count())
            .field("clock_hz", &self.clock_hz())
            .finish()
    }
}

impl Pcl {
    /// Create a registry running at the paper's 2.66 GHz.
    pub fn new() -> Self {
        Self::with_clock_hz(PAPER_CLOCK_HZ)
    }

    /// Create a registry with an explicit clock frequency in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` is zero.
    pub fn with_clock_hz(clock_hz: u64) -> Self {
        assert!(clock_hz > 0, "clock frequency must be nonzero");
        let pcl = Pcl {
            inner: Arc::new(PclInner::default()),
        };
        pcl.inner.clock_hz.store(clock_hz, Ordering::Relaxed);
        pcl
    }

    /// The configured clock frequency in Hz.
    pub fn clock_hz(&self) -> u64 {
        let hz = self.inner.clock_hz.load(Ordering::Relaxed);
        if hz == 0 {
            PAPER_CLOCK_HZ
        } else {
            hz
        }
    }

    /// Number of registered thread clocks.
    pub fn thread_count(&self) -> usize {
        self.inner.slots.read().len()
    }

    /// Register a new thread and return its clock id. The clock starts at 0.
    pub fn register_thread(&self) -> ThreadClockId {
        let mut slots = self.inner.slots.write();
        let id = ThreadClockId(u32::try_from(slots.len()).expect("too many thread clocks"));
        slots.push(ClockHandle {
            clock: Arc::new(AtomicU64::new(0)),
            shard: None,
            id,
        });
        id
    }

    /// Mirror all future charges on `id`'s clock into `shard`'s current
    /// attribution bucket (see `jvmsim-metrics`). Handles created *after*
    /// this call carry the shard too.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not registered on this registry.
    pub fn attach_metrics(&self, id: ThreadClockId, shard: Arc<MetricsShard>) {
        let mut slots = self.inner.slots.write();
        let slot = slots
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("unregistered {id}"));
        slot.shard = Some(shard);
    }

    /// Run `f` on the handle of the clock registered at `index`, under one
    /// read lock and without cloning the handle, or return `None` if no
    /// clock is registered there. Callers that both charge and read a clock
    /// do it in one lookup this way. `f` must not register threads or
    /// attach metrics on this registry.
    pub fn with_clock<R>(&self, index: usize, f: impl FnOnce(&ClockHandle) -> R) -> Option<R> {
        self.inner.slots.read().get(index).map(f)
    }

    fn expect_clock<R>(&self, id: ThreadClockId, f: impl FnOnce(&ClockHandle) -> R) -> R {
        self.with_clock(id.index(), f)
            .unwrap_or_else(|| panic!("unregistered {id}"))
    }

    /// Advance thread `id`'s counter by `cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Pcl::register_thread`] on this
    /// registry.
    pub fn charge(&self, id: ThreadClockId, cycles: u64) {
        self.expect_clock(id, |h| h.charge(cycles));
    }

    /// Read thread `id`'s cycle counter — the paper's
    /// `PCL.getTimestamp(Thread)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not registered on this registry.
    pub fn timestamp(&self, id: ThreadClockId) -> Timestamp {
        self.expect_clock(id, ClockHandle::timestamp)
    }

    /// Convert a cycle count to seconds at this registry's clock frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz() as f64
    }

    /// Sum of all thread counters — total CPU cycles consumed by the program,
    /// the denominator for whole-program native-time percentages.
    pub fn total_cycles(&self) -> u64 {
        self.inner
            .slots
            .read()
            .iter()
            .map(ClockHandle::cycles)
            .sum()
    }

    /// A cheap handle that charges one fixed clock without registry lookup.
    ///
    /// The VM's interpreter loop holds one of these per running thread so the
    /// per-instruction charge is a single relaxed atomic add.
    pub fn handle(&self, id: ThreadClockId) -> ClockHandle {
        self.expect_clock(id, ClockHandle::clone)
    }
}

/// Direct handle to one thread's clock (hot-path accessor).
#[derive(Clone)]
pub struct ClockHandle {
    clock: Arc<AtomicU64>,
    /// Mirror target captured at handle creation (see
    /// [`Pcl::attach_metrics`]); `None` keeps the charge a single atomic add.
    shard: Option<Arc<MetricsShard>>,
    id: ThreadClockId,
}

impl fmt::Debug for ClockHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClockHandle")
            .field("id", &self.id)
            .field("cycles", &self.cycles())
            .finish()
    }
}

impl ClockHandle {
    /// The clock this handle charges.
    pub fn id(&self) -> ThreadClockId {
        self.id
    }

    /// Advance this clock by `cycles`.
    pub fn charge(&self, cycles: u64) {
        self.clock.fetch_add(cycles, Ordering::Relaxed);
        if let Some(shard) = &self.shard {
            shard.charge(cycles);
        }
    }

    /// The metric shard mirrored by this handle, if one was attached
    /// before the handle was created.
    pub fn metrics(&self) -> Option<&Arc<MetricsShard>> {
        self.shard.as_ref()
    }

    /// Current cycle count of this clock.
    pub fn cycles(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Current reading as a [`Timestamp`].
    pub fn timestamp(&self) -> Timestamp {
        Timestamp(self.cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_registry_is_empty() {
        let pcl = Pcl::new();
        assert_eq!(pcl.thread_count(), 0);
        assert_eq!(pcl.total_cycles(), 0);
        assert_eq!(pcl.clock_hz(), PAPER_CLOCK_HZ);
    }

    #[test]
    fn register_and_charge() {
        let pcl = Pcl::new();
        let a = pcl.register_thread();
        let b = pcl.register_thread();
        assert_ne!(a, b);
        pcl.charge(a, 100);
        pcl.charge(b, 7);
        pcl.charge(a, 1);
        assert_eq!(pcl.timestamp(a).cycles(), 101);
        assert_eq!(pcl.timestamp(b).cycles(), 7);
        assert_eq!(pcl.total_cycles(), 108);
    }

    #[test]
    fn clocks_are_independent() {
        let pcl = Pcl::new();
        let a = pcl.register_thread();
        let b = pcl.register_thread();
        pcl.charge(a, 1_000);
        assert_eq!(pcl.timestamp(b).cycles(), 0);
    }

    #[test]
    fn timestamp_delta() {
        let pcl = Pcl::new();
        let t = pcl.register_thread();
        let t0 = pcl.timestamp(t);
        pcl.charge(t, 42);
        let t1 = pcl.timestamp(t);
        assert_eq!(t1.cycles_since(t0), 42);
        // Reversed order saturates instead of wrapping.
        assert_eq!(t0.cycles_since(t1), 0);
    }

    #[test]
    fn cycles_to_seconds_at_paper_frequency() {
        let pcl = Pcl::new();
        assert!((pcl.cycles_to_seconds(PAPER_CLOCK_HZ) - 1.0).abs() < 1e-12);
        assert!((pcl.cycles_to_seconds(PAPER_CLOCK_HZ / 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn custom_frequency() {
        let pcl = Pcl::with_clock_hz(1_000);
        let t = pcl.register_thread();
        pcl.charge(t, 500);
        assert!((pcl.cycles_to_seconds(pcl.timestamp(t).cycles()) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be nonzero")]
    fn zero_frequency_rejected() {
        let _ = Pcl::with_clock_hz(0);
    }

    #[test]
    fn handle_charges_same_clock() {
        let pcl = Pcl::new();
        let t = pcl.register_thread();
        let h = pcl.handle(t);
        h.charge(10);
        pcl.charge(t, 5);
        assert_eq!(h.cycles(), 15);
        assert_eq!(pcl.timestamp(t), h.timestamp());
        assert_eq!(h.id(), t);
    }

    #[test]
    fn registry_is_shared_across_clones() {
        let pcl = Pcl::new();
        let t = pcl.register_thread();
        let clone = pcl.clone();
        clone.charge(t, 9);
        assert_eq!(pcl.timestamp(t).cycles(), 9);
    }

    #[test]
    fn charges_from_multiple_os_threads_accumulate() {
        let pcl = Pcl::new();
        let t = pcl.register_thread();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = pcl.handle(t);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        h.charge(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pcl.timestamp(t).cycles(), 4_000);
    }

    #[test]
    fn attached_shard_mirrors_every_charge() {
        use jvmsim_metrics::Bucket;
        let pcl = Pcl::new();
        let t = pcl.register_thread();
        let shard = Arc::new(MetricsShard::new());
        pcl.attach_metrics(t, Arc::clone(&shard));
        pcl.charge(t, 100);
        let h = pcl.handle(t);
        assert!(h.metrics().is_some());
        {
            let _g = shard.enter(Bucket::IpaProbe);
            h.charge(40);
        }
        h.charge(2);
        let snap = shard.snapshot();
        assert_eq!(snap.bucket_cycles(Bucket::Workload), 102);
        assert_eq!(snap.bucket_cycles(Bucket::IpaProbe), 40);
        assert_eq!(snap.total_cycles(), pcl.total_cycles());
    }

    #[test]
    fn unattached_thread_mirrors_nothing() {
        let pcl = Pcl::new();
        let a = pcl.register_thread();
        let b = pcl.register_thread();
        let shard = Arc::new(MetricsShard::new());
        pcl.attach_metrics(b, Arc::clone(&shard));
        pcl.charge(a, 50);
        assert!(pcl.handle(a).metrics().is_none());
        assert_eq!(shard.snapshot().total_cycles(), 0);
    }

    #[test]
    fn with_clock_borrows_the_registered_slot() {
        let pcl = Pcl::new();
        let t = pcl.register_thread();
        assert_eq!(pcl.with_clock(t.index() + 1, ClockHandle::cycles), None);
        let read = pcl.with_clock(t.index(), |h| {
            h.charge(3);
            (h.id(), h.timestamp())
        });
        assert_eq!(read, Some((t, Timestamp::from_cycles(3))));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pcl>();
        assert_send_sync::<ClockHandle>();
        assert_send_sync::<Timestamp>();
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn foreign_clock_id_panics() {
        let pcl = Pcl::new();
        let other = Pcl::new();
        let id = other.register_thread();
        let _ = pcl.timestamp(id);
    }
}
