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
//! bytecode instruction, JNI call, native-work quantum and agent action.
//! Each simulated thread owns its counter on its VM thread record, so a
//! charge or read is a plain add or load with no synchronisation — the
//! per-thread virtualisation the paper gets from the OS. This crate owns
//! the [`Timestamp`] reading type and the [`Pcl`] registry, into which the
//! VM publishes each thread's final count when the thread ends; that is
//! where whole-program totals and the cycles-to-seconds conversion live.
//!
//! Virtual cycles convert to seconds at a configurable clock frequency; the
//! default matches the paper's 2.66 GHz Pentium 4 test machine.
//!
//! ```
//! use jvmsim_pcl::Pcl;
//!
//! let pcl = Pcl::new();
//! pcl.publish(0, 2_000_000_000);
//! pcl.publish(1, 660_000_000); // one simulated second in total
//! assert_eq!(pcl.total_cycles(), 2_660_000_000);
//! assert!((pcl.cycles_to_seconds(pcl.total_cycles()) - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;

pub use cost::TierCostModel;

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Clock frequency of the paper's evaluation machine (Pentium 4, 2.66 GHz).
pub const PAPER_CLOCK_HZ: u64 = 2_660_000_000;

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

/// The PCL registry: the published cycle count of every ended thread.
///
/// Cloning is cheap (`Arc` inside); a handle taken before a run reads the
/// run's totals afterwards. The live per-thread counters are not here:
/// each simulated thread owns its counter, and the VM publishes the
/// thread's count when the thread ends (and again after `VMDeath`, so
/// late agent charges are included). Only publishing and reading lock,
/// never a charge.
#[derive(Clone)]
pub struct Pcl {
    inner: Arc<PclInner>,
}

struct PclInner {
    /// Published counts, indexed by VM thread index.
    published: Mutex<Vec<u64>>,
    clock_hz: u64,
}

impl Default for Pcl {
    fn default() -> Self {
        Self::new()
    }
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
        Pcl {
            inner: Arc::new(PclInner {
                published: Mutex::new(Vec::new()),
                clock_hz,
            }),
        }
    }

    /// The configured clock frequency in Hz.
    pub fn clock_hz(&self) -> u64 {
        self.inner.clock_hz
    }

    /// Number of threads published so far (the highest published index
    /// plus one).
    pub fn thread_count(&self) -> usize {
        self.published().len()
    }

    /// Record that thread `index`'s counter reads `cycles`. Publishing
    /// again replaces the earlier count, so it is idempotent.
    pub fn publish(&self, index: usize, cycles: u64) {
        let mut published = self.published();
        if published.len() <= index {
            published.resize(index + 1, 0);
        }
        published[index] = cycles;
    }

    /// Convert a cycle count to seconds at this registry's clock frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz() as f64
    }

    /// Sum of all published thread counters — total CPU cycles consumed by
    /// the program, the denominator for whole-program native-time
    /// percentages.
    pub fn total_cycles(&self) -> u64 {
        self.published().iter().fold(0, |a, b| a.wrapping_add(*b))
    }

    /// The published counts; a panicking publisher poisons nothing.
    fn published(&self) -> MutexGuard<'_, Vec<u64>> {
        self.inner
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
    fn publish_replaces_and_totals_sum() {
        let pcl = Pcl::new();
        pcl.publish(2, 7); // indices 0 and 1 read as zero until published
        assert_eq!(pcl.thread_count(), 3);
        pcl.publish(0, 100);
        pcl.publish(0, 101);
        assert_eq!(pcl.total_cycles(), 108);
    }

    #[test]
    fn timestamp_delta() {
        let t0 = Timestamp::from_cycles(0);
        let t1 = Timestamp::from_cycles(42);
        assert_eq!(t1.cycles_since(t0), 42);
        // Reversed order saturates instead of wrapping.
        assert_eq!(t0.cycles_since(t1), 0);
        assert_eq!(t1.rewound(50), t0);
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
        pcl.publish(0, 500);
        assert!((pcl.cycles_to_seconds(pcl.total_cycles()) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be nonzero")]
    fn zero_frequency_rejected() {
        let _ = Pcl::with_clock_hz(0);
    }

    #[test]
    fn registry_is_shared_across_clones() {
        let pcl = Pcl::new();
        let clone = pcl.clone();
        clone.publish(0, 9);
        assert_eq!(pcl.total_cycles(), 9);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pcl>();
        assert_send_sync::<Timestamp>();
    }
}
