//! SPA — the Simple Profiling Agent (§III, Fig. 1).
//!
//! A faithful port of the paper's first agent: it enables the JVMTI
//! `MethodEntry`/`MethodExit` events, reifies each thread's execution stack
//! as a vector of "is this frame native?" booleans, and reads the PCL cycle
//! counter only when the implementation-type of caller and callee differ
//! (a bytecode↔native transition).
//!
//! SPA is deliberately kept naive: enabling method entry/exit events
//! disables JIT compilation, so its overhead is catastrophic (Table I
//! measures 1 527 % – 41 775 %). It exists as the baseline that motivates
//! IPA.

use std::sync::{Arc, OnceLock};

use jvmsim_jvmti::{
    Agent, AgentHost, Capabilities, EventType, JvmtiEnv, JvmtiError, ProbeKind, RawMonitor,
    ThreadLocalStorage,
};
use jvmsim_vm::{MethodView, ThreadInfo};

use crate::stats::{EventCount, Meter, NativeProfile, Side, TimeSplit};

/// The paper's `TC_SPA` thread context: last timestamp, per-side cycle
/// counters, and the reified boolean stack.
#[derive(Debug)]
struct TcSpa {
    meter: Meter,
    /// `stack`/`sp` of Fig. 1: one boolean per frame, `true` = native.
    stack: Vec<bool>,
}

impl TcSpa {
    /// Bank the open span at `now` and return the thread's split.
    fn close(&mut self, now: jvmsim_pcl::Timestamp) -> TimeSplit {
        let in_native = self.stack.last().copied().unwrap_or(true);
        self.meter.bank(Side::from_is_native(in_native), now, 0);
        self.meter.split
    }
}

/// Global profiling state, guarded by a raw monitor (§II-B c).
#[derive(Debug, Default)]
struct SpaTotals {
    split: TimeSplit,
    threads: Vec<(String, TimeSplit)>,
}

impl SpaTotals {
    fn absorb(&mut self, thread: &ThreadInfo, split: TimeSplit) {
        self.split.absorb(split);
        self.threads.push((format!("{}", thread.id()), split));
    }
}

/// The Simple Profiling Agent.
pub struct SpaAgent {
    env: OnceLock<JvmtiEnv>,
    tls: OnceLock<ThreadLocalStorage<TcSpa>>,
    totals: OnceLock<RawMonitor<SpaTotals>>,
    /// Extension over Fig. 1: SPA sees every invocation anyway, so it can
    /// count native-method entries for free.
    native_entries: EventCount,
}

impl std::fmt::Debug for SpaAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaAgent")
            .field("attached", &self.env.get().is_some())
            .finish()
    }
}

impl SpaAgent {
    /// Create the agent. Attach with [`jvmsim_jvmti::attach`].
    pub fn new() -> Arc<SpaAgent> {
        Arc::new(SpaAgent {
            env: OnceLock::new(),
            tls: OnceLock::new(),
            totals: OnceLock::new(),
            native_entries: EventCount::default(),
        })
    }

    fn env(&self) -> &JvmtiEnv {
        self.env.get().expect("SPA used before attach")
    }

    fn tls(&self) -> &ThreadLocalStorage<TcSpa> {
        self.tls.get().expect("SPA used before attach")
    }

    fn totals(&self) -> &RawMonitor<SpaTotals> {
        self.totals.get().expect("SPA used before attach")
    }

    /// The paper's `GetThreadLocalStorage` helper: the thread context is
    /// allocated on demand because the JVMTI "does not signal the
    /// ThreadStart event for the bootstrapping thread" (§III).
    fn with_context<R>(&self, thread: &ThreadInfo, f: impl FnOnce(&mut TcSpa) -> R) -> R {
        let env = self.env();
        let make = || TcSpa {
            meter: Meter::new(env.timestamp(thread)),
            stack: Vec::with_capacity(256),
        };
        self.tls().with_or_insert(thread, make, f)
    }

    /// Final statistics (what Fig. 1's `VMDeath` prints).
    ///
    /// Reports an empty profile (instead of panicking) if the agent was
    /// never attached, so partial suite assembly stays survivable.
    pub fn report(&self) -> NativeProfile {
        let Some(totals) = self.totals.get() else {
            return NativeProfile::default();
        };
        let totals = totals.enter_unaccounted();
        NativeProfile {
            total: totals.split,
            jni_calls: 0, // SPA cannot attribute entries to JNI upcalls
            native_method_calls: self.native_entries.get(),
            threads: totals.threads.clone(),
        }
    }
}

impl Agent for SpaAgent {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        host.add_capabilities(Capabilities::spa());
        host.enable_event(EventType::ThreadStart)?;
        host.enable_event(EventType::ThreadEnd)?;
        host.enable_event(EventType::MethodEntry)?;
        host.enable_event(EventType::MethodExit)?;
        host.enable_event(EventType::VmDeath)?;
        let env = host.env();
        self.tls.set(env.create_tls()).expect("SPA attached twice");
        self.totals
            .set(env.create_raw_monitor("SPA totals", SpaTotals::default()))
            .expect("SPA attached twice");
        self.env.set(env).expect("SPA attached twice");
        Ok(())
    }

    fn thread_start(&self, thread: &ThreadInfo) {
        // Same construction as the lazy path; creating it here just makes
        // the meter start at the thread's first instant.
        self.with_context(thread, |_| ());
    }

    fn method_entry(&self, thread: &ThreadInfo, method: MethodView<'_>) {
        let env = self.env();
        let _span = env.probe_span(thread, ProbeKind::Spa);
        self.with_context(thread, |tc| {
            let is_native_m = method.is_native;
            if is_native_m {
                self.native_entries.bump();
            }
            // "We assume that each thread initially executes native code."
            let is_native_caller = tc.stack.last().copied().unwrap_or(true);
            if is_native_m != is_native_caller {
                let now = env.timestamp(thread);
                tc.meter
                    .bank(Side::from_is_native(is_native_caller), now, 0);
            }
            tc.stack.push(is_native_m);
            env.charge(thread, env.costs().agent_logic);
        });
    }

    fn method_exit(&self, thread: &ThreadInfo, method: MethodView<'_>, _via_exception: bool) {
        let env = self.env();
        let _span = env.probe_span(thread, ProbeKind::Spa);
        self.with_context(thread, |tc| {
            // The reified stack tells us the implementation-type of the
            // method being left; for frames entered before the context
            // existed (bootstrap thread) fall back to the event's view.
            let is_native_m = tc.stack.pop().unwrap_or(method.is_native);
            let is_native_caller = tc.stack.last().copied().unwrap_or(true);
            if is_native_m != is_native_caller {
                let now = env.timestamp(thread);
                tc.meter.bank(Side::from_is_native(is_native_m), now, 0);
            }
            env.charge(thread, env.costs().agent_logic);
        });
    }

    fn thread_end(&self, thread: &ThreadInfo) {
        let env = self.env();
        // Take the context out of TLS: the thread is done, and a future
        // thread reusing the id (or a re-run of the VM) must start fresh
        // rather than double-count the banked split.
        let totals = match self.tls().remove(thread) {
            Some(mut tc) => tc.close(env.timestamp(thread)),
            None => self.with_context(thread, |tc| tc.close(env.timestamp(thread))),
        };
        self.totals().enter(thread).absorb(thread, totals);
    }

    fn vm_death(&self, threads: &[ThreadInfo]) {
        // Fig. 1 prints the statistics here; this port exposes them via
        // `report()` instead. Fold in any thread that never saw ThreadEnd
        // (defensive: the VM ends every thread it starts, but an agent must
        // not lose data if one slips through), in ascending thread order.
        for thread in self.tls().holders(threads) {
            let now = self.env().timestamp_unaccounted(thread);
            let mut tc = self.tls().remove(thread).expect("a holder holds");
            let totals = tc.close(now);
            self.totals().enter_unaccounted().absorb(thread, totals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_classfile::builder::ClassBuilder;
    use jvmsim_classfile::MethodFlags;
    use jvmsim_vm::{NativeLibrary, Value, Vm};

    fn mixed_program() -> (jvmsim_classfile::ClassFile, NativeLibrary) {
        // main: burn bytecode, then call a native that burns native cycles.
        let mut cb = ClassBuilder::new("p/Mix");
        cb.native_method("spin", "(I)V", MethodFlags::STATIC)
            .unwrap();
        let mut m = cb.method("burn", "(I)I", MethodFlags::STATIC);
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(1);
        m.bind(top);
        m.iload(0).if_(jvmsim_classfile::Cond::Le, done);
        m.iload(1).iload(0).iadd().istore(1);
        m.iinc(0, -1).goto(top);
        m.bind(done);
        m.iload(1).ireturn();
        m.finish().unwrap();
        let mut m = cb.method("main", "()I", MethodFlags::STATIC);
        m.iconst(5_000).invokestatic("p/Mix", "burn", "(I)I").pop();
        m.iconst(0).invokestatic("p/Mix", "spin", "(I)V");
        m.iconst(5_000)
            .invokestatic("p/Mix", "burn", "(I)I")
            .ireturn();
        m.finish().unwrap();
        let mut lib = NativeLibrary::new("mix");
        lib.register_method("p/Mix", "spin", |env, _args| {
            env.work(40_000);
            Ok(Value::Null)
        });
        (cb.finish().unwrap(), lib)
    }

    #[test]
    fn spa_measures_a_mixed_program() {
        let (class, lib) = mixed_program();
        let spa = SpaAgent::new();
        let mut vm = Vm::new();
        vm.add_classfile(&class);
        vm.register_native_library(lib, true);
        jvmsim_jvmti::attach(&mut vm, Arc::clone(&spa) as Arc<dyn Agent>).unwrap();
        let outcome = vm.run("p/Mix", "main", "()I", vec![]).unwrap();
        assert!(outcome.main.is_ok());
        let report = spa.report();
        // One native call seen.
        assert_eq!(report.native_method_calls, 1);
        // Both sides non-trivial; native work was 40k cycles.
        assert!(report.total.native >= 40_000, "{report}");
        assert!(report.total.bytecode > report.total.native, "{report}");
        let pct = report.percent_native();
        assert!(pct > 1.0 && pct < 50.0, "{pct}");
        assert_eq!(report.threads.len(), 1);
    }

    #[test]
    fn spa_accounts_all_measured_time() {
        let (class, lib) = mixed_program();
        let spa = SpaAgent::new();
        let mut vm = Vm::new();
        vm.add_classfile(&class);
        vm.register_native_library(lib, true);
        let pcl = vm.pcl();
        jvmsim_jvmti::attach(&mut vm, Arc::clone(&spa) as Arc<dyn Agent>).unwrap();
        vm.run("p/Mix", "main", "()I", vec![]).unwrap();
        let report = spa.report();
        let measured = report.total.total();
        let actual = pcl.total_cycles();
        // SPA misses only the pre-context slice of the bootstrap thread and
        // the final flush cost; the bulk must be accounted.
        assert!(
            measured as f64 > 0.95 * actual as f64 && measured <= actual,
            "measured {measured} vs actual {actual}"
        );
    }

    #[test]
    fn spa_handles_exceptional_exits() {
        // A native method that throws; the wrapper-free SPA still balances
        // its reified stack because MethodExit fires on exception too.
        let mut cb = ClassBuilder::new("p/Thr");
        cb.native_method("boom", "()V", MethodFlags::STATIC)
            .unwrap();
        let mut m = cb.method("main", "()I", MethodFlags::STATIC);
        let start = m.new_label();
        let end = m.new_label();
        let handler = m.new_label();
        m.bind(start);
        m.invokestatic("p/Thr", "boom", "()V");
        m.iconst(0).ireturn();
        m.bind(end);
        m.bind(handler);
        m.pop().iconst(1).ireturn();
        m.try_region(start, end, handler, None);
        m.finish().unwrap();
        let mut lib = NativeLibrary::new("thr");
        lib.register_method("p/Thr", "boom", |env, _| {
            env.work(1_000);
            Err(env.throw_new("java/lang/RuntimeException", "bang"))
        });
        let spa = SpaAgent::new();
        let mut vm = Vm::new();
        vm.add_classfile(&cb.finish().unwrap());
        vm.register_native_library(lib, true);
        jvmsim_jvmti::attach(&mut vm, Arc::clone(&spa) as Arc<dyn Agent>).unwrap();
        let outcome = vm.run("p/Thr", "main", "()I", vec![]).unwrap();
        assert_eq!(outcome.main.unwrap(), Value::Int(1));
        let report = spa.report();
        assert!(report.total.native >= 1_000, "{report}");
        assert_eq!(report.native_method_calls, 1);
    }
}
