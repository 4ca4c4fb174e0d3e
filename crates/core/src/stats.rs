//! Profiling statistics: per-thread contexts, global totals, and the final
//! report (the contents of the paper's Table II columns).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use jvmsim_pcl::{Pcl, Timestamp};

/// A count bumped only from one agent's event callbacks. An agent attaches
/// to one VM, and that VM's events all arrive on the one host thread that
/// is driving it, so each count has a single writer at a time: a bump is
/// a load and a store, not an atomic read-modify-write on the probe path.
/// A report read after the run sees every bump, because handing the VM
/// back to the reading thread (a join or a channel) orders them.
#[derive(Debug, Default)]
pub(crate) struct EventCount(AtomicU64);

impl EventCount {
    pub(crate) fn bump(&self) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which kind of code a thread is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Interpreted or JIT-compiled bytecode.
    Bytecode,
    /// Native library code.
    Native,
}

impl Side {
    /// The paper encodes the side as a boolean `inNative`.
    pub fn is_native(self) -> bool {
        matches!(self, Side::Native)
    }

    /// From the paper's boolean encoding.
    pub fn from_is_native(is_native: bool) -> Side {
        if is_native {
            Side::Native
        } else {
            Side::Bytecode
        }
    }
}

/// Accumulated split of one thread's cycles (the `timeBytecode` /
/// `timeNative` pair of `TC_SPA` / `TC_IPA`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeSplit {
    /// Cycles attributed to bytecode execution.
    pub bytecode: u64,
    /// Cycles attributed to native-code execution.
    pub native: u64,
}

impl TimeSplit {
    /// Bank `delta` cycles on `side`.
    pub fn add(&mut self, side: Side, delta: u64) {
        match side {
            Side::Bytecode => self.bytecode += delta,
            Side::Native => self.native += delta,
        }
    }

    /// Total cycles accounted.
    pub fn total(&self) -> u64 {
        self.bytecode + self.native
    }

    /// Fraction of accounted time spent in native code, in percent.
    pub fn percent_native(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.native as f64 / self.total() as f64
        }
    }

    /// Fold another split into this one.
    pub fn absorb(&mut self, other: TimeSplit) {
        self.bytecode += other.bytecode;
        self.native += other.native;
    }
}

/// Mutable per-thread measurement state shared by both agents: the last
/// timestamp and the running split.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    /// Most recent PCL reading for this thread.
    pub timestamp: Timestamp,
    /// The running split.
    pub split: TimeSplit,
}

impl Meter {
    /// Start metering at `now`.
    pub fn new(now: Timestamp) -> Self {
        Meter {
            timestamp: now,
            split: TimeSplit::default(),
        }
    }

    /// Bank the time since the previous timestamp on `side` (optionally
    /// compensating `comp` cycles of instrumentation overhead out of the
    /// delta, §IV last paragraph), then restart the span at `now`.
    pub fn bank(&mut self, side: Side, now: Timestamp, comp: u64) {
        let delta = now.cycles_since(self.timestamp).saturating_sub(comp);
        self.split.add(side, delta);
        self.timestamp = now;
    }
}

/// The final profile an agent reports — one row of Table II, plus
/// per-thread detail.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NativeProfile {
    /// Whole-program split.
    pub total: TimeSplit,
    /// Intercepted JNI calls (N2J transitions) — Table II "JNI calls".
    pub jni_calls: u64,
    /// Native method invocations from bytecode (J2N transitions) —
    /// Table II "native method calls".
    pub native_method_calls: u64,
    /// Per-thread splits, in thread-termination order.
    pub threads: Vec<(String, TimeSplit)>,
}

impl NativeProfile {
    /// Percentage of measured time in native code ("% native execution").
    pub fn percent_native(&self) -> f64 {
        self.total.percent_native()
    }

    /// Measured bytecode seconds at `pcl`'s clock rate.
    pub fn bytecode_seconds(&self, pcl: &Pcl) -> f64 {
        pcl.cycles_to_seconds(self.total.bytecode)
    }

    /// Measured native seconds at `pcl`'s clock rate.
    pub fn native_seconds(&self, pcl: &Pcl) -> f64 {
        pcl.cycles_to_seconds(self.total.native)
    }
}

impl fmt::Display for NativeProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "native execution: {:.2}%  (bytecode {} cy, native {} cy)",
            self.percent_native(),
            self.total.bytecode,
            self.total.native
        )?;
        writeln!(
            f,
            "JNI calls: {}   native method calls: {}",
            self.jni_calls, self.native_method_calls
        )?;
        for (name, split) in &self.threads {
            writeln!(
                f,
                "  thread {name}: {:.2}% native ({} / {} cy)",
                split.percent_native(),
                split.native,
                split.total()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_round_trip() {
        assert!(Side::Native.is_native());
        assert!(!Side::Bytecode.is_native());
        assert_eq!(Side::from_is_native(true), Side::Native);
        assert_eq!(Side::from_is_native(false), Side::Bytecode);
    }

    #[test]
    fn split_accounting() {
        let mut s = TimeSplit::default();
        s.add(Side::Bytecode, 300);
        s.add(Side::Native, 100);
        assert_eq!(s.total(), 400);
        assert!((s.percent_native() - 25.0).abs() < 1e-9);
        let mut t = TimeSplit::default();
        t.absorb(s);
        t.add(Side::Native, 100);
        assert_eq!(t.native, 200);
    }

    #[test]
    fn empty_split_is_zero_percent() {
        assert_eq!(TimeSplit::default().percent_native(), 0.0);
    }

    #[test]
    fn meter_banks_spans() {
        let mut m = Meter::new(Timestamp::from_cycles(100));
        m.bank(Side::Bytecode, Timestamp::from_cycles(160), 0);
        assert_eq!(m.split.bytecode, 60);
        m.bank(Side::Native, Timestamp::from_cycles(200), 0);
        assert_eq!(m.split.native, 40);
        assert_eq!(m.timestamp, Timestamp::from_cycles(200));
    }

    #[test]
    fn meter_compensation_saturates() {
        let mut m = Meter::new(Timestamp::from_cycles(0));
        m.bank(Side::Native, Timestamp::from_cycles(50), 80);
        assert_eq!(m.split.native, 0, "compensation larger than delta clamps");
        m.bank(Side::Native, Timestamp::from_cycles(150), 30);
        assert_eq!(m.split.native, 70);
    }

    #[test]
    fn profile_display() {
        let p = NativeProfile {
            total: TimeSplit {
                bytecode: 900,
                native: 100,
            },
            jni_calls: 5,
            native_method_calls: 12,
            threads: vec![(
                "main".into(),
                TimeSplit {
                    bytecode: 900,
                    native: 100,
                },
            )],
        };
        let s = p.to_string();
        assert!(s.contains("10.00%"));
        assert!(s.contains("JNI calls: 5"));
        assert!(s.contains("native method calls: 12"));
        assert!(s.contains("thread main"));
    }

    #[test]
    fn profile_seconds() {
        let pcl = Pcl::with_clock_hz(1_000);
        let p = NativeProfile {
            total: TimeSplit {
                bytecode: 500,
                native: 250,
            },
            ..NativeProfile::default()
        };
        assert!((p.bytecode_seconds(&pcl) - 0.5).abs() < 1e-12);
        assert!((p.native_seconds(&pcl) - 0.25).abs() < 1e-12);
    }
}
