//! A `tprof`-style sampling profiler — the related-work baseline (§VI).
//!
//! "Sampling-based profilers (e.g., IBM tprof) … are able to calculate the
//! time spent in native code very efficiently, but at the expense of a
//! slight loss of accuracy. These profilers work by periodically sampling
//! the PC, and comparing this value to a map of active code modules …, a
//! technique which is inherently system-dependent. In contrast to our
//! approach, such tools are not able to construct accurate counts of the
//! number or frequency of JNI calls."
//!
//! [`SamplingProfiler`] implements that baseline on the simulator's timer
//! hook ([`jvmsim_vm::events::SampleSink`]): it estimates the native-time
//! share from periodic PC samples. By construction it reports **no** JNI or
//! native-method call counts — reproducing the structural limitation the
//! paper contrasts IPA against — and its accuracy degrades as the sampling
//! interval grows (quantified by the `sampling` bench binary).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use jvmsim_vm::events::SampleSink;
use jvmsim_vm::{ThreadId, Vm};

/// What a sampling profiler can estimate: sample tallies, nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplingEstimate {
    /// Samples that hit bytecode (interpreted or compiled).
    pub bytecode_samples: u64,
    /// Samples that hit native-library code.
    pub native_samples: u64,
}

impl SamplingEstimate {
    /// Total samples.
    pub fn total(&self) -> u64 {
        self.bytecode_samples + self.native_samples
    }

    /// Estimated % of execution time in native code.
    pub fn percent_native(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.native_samples as f64 / self.total() as f64
        }
    }
}

/// The timer-sampling profiler.
///
/// Note the interface asymmetry with [`crate::IpaAgent`]: this is *not* a
/// JVMTI agent — it installs through the VM's system-specific sampling hook
/// ([`Vm::set_sampler`]), exactly as the paper characterizes tprof-class
/// tools ("inherently system-dependent").
pub struct SamplingProfiler {
    per_thread: Mutex<HashMap<ThreadId, SamplingEstimate>>,
}

impl std::fmt::Debug for SamplingProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplingProfiler")
            .field("estimate", &self.estimate())
            .finish()
    }
}

impl SamplingProfiler {
    /// Create a profiler; install with [`SamplingProfiler::install`].
    pub fn new() -> Arc<SamplingProfiler> {
        Arc::new(SamplingProfiler {
            per_thread: Mutex::new(HashMap::new()),
        })
    }

    /// Install into `vm`, sampling every `interval_cycles` per thread.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero.
    pub fn install(self: &Arc<Self>, vm: &mut Vm, interval_cycles: u64) {
        vm.set_sampler(interval_cycles, Arc::clone(self) as Arc<dyn SampleSink>);
    }

    /// The whole-program estimate (sum of the per-thread tallies).
    pub fn estimate(&self) -> SamplingEstimate {
        let map = self.tallies();
        let mut total = SamplingEstimate::default();
        for e in map.values() {
            total.bytecode_samples += e.bytecode_samples;
            total.native_samples += e.native_samples;
        }
        total
    }

    /// Per-thread estimates (thread id → tallies).
    pub fn per_thread(&self) -> Vec<(ThreadId, SamplingEstimate)> {
        let mut rows: Vec<_> = self.tallies().iter().map(|(&t, &e)| (t, e)).collect();
        rows.sort_by_key(|(t, _)| *t);
        rows
    }

    /// The per-thread tallies; a panicking sampler poisons nothing.
    fn tallies(&self) -> MutexGuard<'_, HashMap<ThreadId, SamplingEstimate>> {
        self.per_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl SampleSink for SamplingProfiler {
    fn sample(&self, thread: ThreadId, in_native: bool) {
        let mut map = self.tallies();
        let e = map.entry(thread).or_default();
        if in_native {
            e.native_samples += 1;
        } else {
            e.bytecode_samples += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_classfile::builder::ClassBuilder;
    use jvmsim_classfile::{Cond, MethodFlags};
    use jvmsim_vm::{NativeLibrary, Value};

    const ST: MethodFlags = MethodFlags::PUBLIC.with(MethodFlags::STATIC);

    /// ~50% native by construction: alternating bytecode and native burns.
    fn half_native_program() -> (jvmsim_classfile::ClassFile, NativeLibrary) {
        let mut cb = ClassBuilder::new("s/Half");
        cb.native_method("burnNative", "()V", ST).unwrap();
        let mut m = cb.method("burnJava", "(I)I", ST);
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(1);
        m.bind(top);
        m.iload(0).if_(Cond::Le, done);
        m.iload(1).iload(0).iadd().istore(1);
        m.iinc(0, -1).goto(top);
        m.bind(done);
        m.iload(1).ireturn();
        m.finish().unwrap();
        let mut m = cb.method("main", "(I)I", ST);
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(1);
        m.bind(top);
        m.iload(0).if_(Cond::Le, done);
        // ~10k bytecode cycles, then ~10k native cycles.
        m.iconst(2_000)
            .invokestatic("s/Half", "burnJava", "(I)I")
            .pop();
        m.invokestatic("s/Half", "burnNative", "()V");
        m.iinc(0, -1).goto(top);
        m.bind(done);
        m.iconst(0).ireturn();
        m.finish().unwrap();
        let mut lib = NativeLibrary::new("half");
        lib.register_method("s/Half", "burnNative", |env, _| {
            env.work(10_000);
            Ok(Value::Null)
        });
        (cb.finish().unwrap(), lib)
    }

    fn run_sampled(interval: u64) -> (SamplingEstimate, jvmsim_vm::RunOutcome) {
        let (class, lib) = half_native_program();
        let mut vm = Vm::new();
        vm.add_classfile(&class);
        vm.register_native_library(lib, true);
        let sampler = SamplingProfiler::new();
        sampler.install(&mut vm, interval);
        let outcome = vm
            .run("s/Half", "main", "(I)I", vec![Value::Int(200)])
            .unwrap();
        assert!(outcome.main.is_ok());
        (sampler.estimate(), outcome)
    }

    #[test]
    fn estimate_tracks_the_oracle() {
        let (estimate, outcome) = run_sampled(1_000);
        assert!(
            estimate.total() > 500,
            "enough samples: {}",
            estimate.total()
        );
        let oracle = 100.0 * outcome.stats.native_cycles as f64 / outcome.total_cycles as f64;
        let est = estimate.percent_native();
        assert!(
            (est - oracle).abs() < 8.0,
            "sampled {est:.1}% vs oracle {oracle:.1}%"
        );
        assert_eq!(outcome.stats.samples_taken, estimate.total());
    }

    #[test]
    fn coarser_interval_is_cheaper_but_noisier() {
        let (fine, fine_out) = run_sampled(500);
        let (coarse, coarse_out) = run_sampled(50_000);
        assert!(fine.total() > 20 * coarse.total());
        // Sampling cost scales with sample count (compare like with like by
        // subtracting nothing: total work identical apart from sampling).
        assert!(fine_out.total_cycles > coarse_out.total_cycles);
    }

    #[test]
    fn sampler_reports_no_call_counts_by_construction() {
        // The estimate type has no count fields — this test documents the
        // structural limitation the paper highlights. What we can check:
        // the VM oracle saw native calls, the sampler only saw samples.
        let (estimate, outcome) = run_sampled(2_000);
        assert_eq!(outcome.stats.native_calls, 200);
        // Samples != calls; there is no way to recover call counts.
        assert_ne!(estimate.total(), outcome.stats.native_calls);
    }

    #[test]
    fn per_thread_tallies_sum_to_totals() {
        let (class, lib) = half_native_program();
        let mut vm = Vm::new();
        vm.add_classfile(&class);
        vm.register_native_library(lib, true);
        let sampler = SamplingProfiler::new();
        sampler.install(&mut vm, 1_000);
        vm.run("s/Half", "main", "(I)I", vec![Value::Int(100)])
            .unwrap();
        let total = sampler.estimate();
        let per_thread = sampler.per_thread();
        let sum_native: u64 = per_thread.iter().map(|(_, e)| e.native_samples).sum();
        let sum_byte: u64 = per_thread.iter().map(|(_, e)| e.bytecode_samples).sum();
        assert_eq!(sum_native, total.native_samples);
        assert_eq!(sum_byte, total.bytecode_samples);
    }

    #[test]
    fn empty_estimate_is_zero_percent() {
        assert_eq!(SamplingEstimate::default().percent_native(), 0.0);
    }
}
