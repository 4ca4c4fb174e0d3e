//! IPA — the Improved Profiling Agent (§IV, Fig. 3).
//!
//! IPA executes measurement code **only at bytecode↔native transitions**:
//!
//! * **J2N** (bytecode → native): static bytecode instrumentation wraps
//!   every `native` method in a same-signature Java wrapper (Fig. 2,
//!   implemented in [`jvmsim_instr::NativeWrapperTransform`]) that calls
//!   the bridge natives `IPA.J2N_Begin()` / `IPA.J2N_End()`; the original
//!   native method is renamed with a prefix announced via JVMTI 1.1
//!   *native method prefixing*.
//! * **N2J** (native → bytecode): JVMTI *JNI function interception* wraps
//!   all 3 × 3 × 10 = 90 `Call{,Nonvirtual,Static}<Type>Method{,V,A}`
//!   functions with `N2J_Begin()` / original / `N2J_End()`.
//!
//! `MethodEntry`/`MethodExit` events stay disabled, so the JIT stays on and
//! the overhead is 0 – 20 % (Table I) instead of SPA's 1 500 % – 42 000 %.
//!
//! As in the paper, the timestamps are adjusted "to compensate for the
//! average execution time of the corresponding wrapper" — see
//! [`Compensation`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use jvmsim_instr::{bridge_class, NativeWrapperTransform, WrapperConfig};
use jvmsim_jvmti::{
    Agent, AgentHost, Capabilities, EventType, JvmtiEnv, JvmtiError, ProbeKind, RawMonitor,
    ThreadLocalStorage,
};
use jvmsim_vm::cost::CostModel;
use jvmsim_vm::{NativeLibrary, ThreadInfo, TraceEventKind, TraceSink, Value};

use crate::stats::{EventCount, Meter, NativeProfile, Side, TimeSplit};

/// How the native-method wrappers get into the program (§IV discusses the
/// trade-off and the paper settles on static).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrumentationMode {
    /// Ahead-of-time rewriting of every classfile archive (the paper's
    /// choice: less runtime overhead and perturbation). The harness calls
    /// [`IpaAgent::instrument_archive`] before the run.
    #[default]
    Static,
    /// Rewrite classes as they are loaded, from the `ClassFileLoadHook`.
    /// Costs more at runtime (the paper's stated drawback) but needs no
    /// preprocessing step.
    Dynamic,
}

/// Per-transition compensation subtracted from banked deltas to exclude
/// wrapper execution time from the statistics (§IV, last paragraph).
///
/// The four values correspond to instrumentation overhead that lands on
/// the span *ending* at each transition routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Compensation {
    /// Wrapper head charged to the bytecode span ending at `J2N_Begin`.
    pub j2n_begin: u64,
    /// Wrapper overhead charged to the native span ending at `J2N_End`.
    pub j2n_end: u64,
    /// Interceptor head charged to the native span ending at `N2J_Begin`.
    pub n2j_begin: u64,
    /// Interceptor tail charged to the bytecode span ending at `N2J_End`.
    pub n2j_end: u64,
}

impl Compensation {
    /// No compensation (the ablation baseline).
    pub fn off() -> Self {
        Self::default()
    }

    /// Calibrate from the cost model, itemizing the instrumentation work
    /// that precedes each transition's timestamp:
    ///
    /// * `J2N_Begin`: wrapper invocation + a few wrapper instructions +
    ///   the bridge native's dispatch + the agent's TLS access and
    ///   timestamp read.
    /// * `J2N_End`: the trailing agent logic of `J2N_Begin`, the
    ///   `J2N_End` bridge dispatch, and its TLS/timestamp costs.
    /// * `N2J_Begin`: the interceptor's TLS access and timestamp read
    ///   (the JNI function's own marshalling cost is genuine JNI work and
    ///   is *not* compensated).
    /// * `N2J_End`: trailing agent logic plus TLS/timestamp of the end
    ///   probe.
    ///
    /// The wrapper head is priced at **steady-state (C2, top-tier)** cost,
    /// matching the paper's "average execution time of the corresponding
    /// wrapper": a wrapper's first executions run interpreted (and briefly
    /// at C1) and are therefore under-compensated (their residual
    /// overhead lands on the bytecode side — conservative, in that it can
    /// only *understate* the native share, never inflate it).
    pub fn calibrated(cost: &CostModel) -> Self {
        let probe = cost.tls_access + cost.timestamp_read;
        Compensation {
            j2n_begin: cost.tiers.call_overhead_c2
                + 4 * cost.tiers.c2_insn
                + cost.native_dispatch
                + probe,
            j2n_end: cost.agent_logic + cost.native_dispatch + probe,
            n2j_begin: probe,
            n2j_end: cost.agent_logic + probe,
        }
    }
}

/// IPA configuration.
#[derive(Debug, Clone)]
pub struct IpaConfig {
    /// Static (default) or dynamic instrumentation.
    pub mode: InstrumentationMode,
    /// Apply wrapper-cost compensation (default `true`).
    pub compensate: bool,
    /// Wrapper/prefix configuration shared with the instrumentation tool.
    pub wrapper: WrapperConfig,
}

impl Default for IpaConfig {
    fn default() -> Self {
        IpaConfig {
            mode: InstrumentationMode::Static,
            compensate: true,
            wrapper: WrapperConfig::default(),
        }
    }
}

/// The paper's `TC_IPA` thread context.
#[derive(Debug)]
struct TcIpa {
    meter: Meter,
    /// Fig. 3's `inNative`, initially `true` ("we assume that each thread
    /// initially executes native code when it is started").
    in_native: bool,
}

impl TcIpa {
    /// Bank the open span at `now` and return the thread's split.
    fn close(&mut self, now: jvmsim_pcl::Timestamp) -> TimeSplit {
        let side = Side::from_is_native(self.in_native);
        self.meter.bank(side, now, 0);
        self.meter.split
    }
}

#[derive(Debug, Default)]
struct IpaTotals {
    split: TimeSplit,
    threads: Vec<(String, TimeSplit)>,
}

impl IpaTotals {
    fn absorb(&mut self, thread: &ThreadInfo, split: TimeSplit) {
        self.split.absorb(split);
        self.threads.push((format!("{}", thread.id()), split));
    }
}

/// The Improved Profiling Agent.
pub struct IpaAgent {
    weak: Weak<IpaAgent>,
    config: IpaConfig,
    env: OnceLock<JvmtiEnv>,
    tls: OnceLock<ThreadLocalStorage<TcIpa>>,
    totals: OnceLock<RawMonitor<IpaTotals>>,
    comp: OnceLock<Compensation>,
    /// Table II "JNI calls": intercepted N2J transitions.
    jni_calls: EventCount,
    /// Table II "native method calls": J2N transitions.
    native_method_calls: EventCount,
    /// Classes the dynamic `ClassFileLoadHook` failed to instrument (left
    /// uninstrumented; their native calls escape the J2N count).
    instrumentation_failures: AtomicU64,
    /// Transition-trace sink (adopted from the VM at attach, or set
    /// explicitly before attach). Events reuse the timestamp the probe
    /// already read for banking, so tracing adds no charged cycles and
    /// leaves the Table I/II quantities untouched.
    trace: OnceLock<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for IpaAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpaAgent")
            .field("config", &self.config)
            .field("attached", &self.env.get().is_some())
            .finish()
    }
}

impl IpaAgent {
    /// Create an IPA agent with default configuration.
    pub fn new() -> Arc<IpaAgent> {
        Self::with_config(IpaConfig::default())
    }

    /// Create an IPA agent with an explicit configuration.
    pub fn with_config(config: IpaConfig) -> Arc<IpaAgent> {
        Arc::new_cyclic(|weak| IpaAgent {
            weak: weak.clone(),
            config,
            env: OnceLock::new(),
            tls: OnceLock::new(),
            totals: OnceLock::new(),
            comp: OnceLock::new(),
            jni_calls: EventCount::default(),
            native_method_calls: EventCount::default(),
            instrumentation_failures: AtomicU64::new(0),
            trace: OnceLock::new(),
        })
    }

    /// Install a transition-trace sink (before attach; later calls are
    /// ignored, first-set wins — matching the VM's single-tracer model).
    pub fn set_trace_sink(&self, trace: Arc<dyn TraceSink>) {
        let _ = self.trace.set(trace);
    }

    fn trace_record(&self, thread: &ThreadInfo, kind: TraceEventKind, now: jvmsim_pcl::Timestamp) {
        if let Some(trace) = self.trace.get() {
            trace.record(thread.id(), kind, now.cycles(), None);
        }
    }

    /// The static-instrumentation step (paper: "we resort to static
    /// instrumentation", applied to application classes *and* the JDK's
    /// `rt.jar`). Rewrites `archive` in place with this agent's wrapper
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates instrumentation failures.
    pub fn instrument_archive(
        &self,
        archive: &mut jvmsim_instr::Archive,
    ) -> Result<jvmsim_instr::ArchiveReport, jvmsim_instr::InstrError> {
        let transform = NativeWrapperTransform::with_config(self.config.wrapper.clone());
        archive.instrument(&transform)
    }

    fn env(&self) -> &JvmtiEnv {
        self.env.get().expect("IPA used before attach")
    }

    fn comp(&self) -> Compensation {
        self.comp.get().copied().unwrap_or_default()
    }

    fn tls(&self) -> &ThreadLocalStorage<TcIpa> {
        self.tls.get().expect("IPA used before attach")
    }

    fn totals(&self) -> &RawMonitor<IpaTotals> {
        self.totals.get().expect("IPA used before attach")
    }

    fn new_context(&self, thread: &ThreadInfo) -> TcIpa {
        TcIpa {
            meter: Meter::new(self.env().timestamp(thread)),
            in_native: true,
        }
    }

    /// One transition probe: inside an IPA probe span, read the clock,
    /// trace the transition, bank the span ending here (less `comp`), flip
    /// `inNative`, and charge the agent logic — all on `thread`'s context.
    fn transition(&self, thread: &ThreadInfo, kind: TraceEventKind, ending: Side, comp: u64) {
        let env = self.env();
        let _span = env.probe_span(thread, ProbeKind::Ipa);
        let make = || self.new_context(thread);
        self.tls().with_or_insert(thread, make, |tc| {
            let now = env.timestamp(thread);
            self.trace_record(thread, kind, now);
            tc.meter.bank(ending, now, comp);
            tc.in_native = ending == Side::Bytecode;
            env.charge(thread, env.costs().agent_logic);
        });
    }

    // ------------------------------------------------- transition probes

    /// `J2N_Begin()` — called (via the bridge native) at the top of every
    /// generated native-method wrapper.
    pub fn j2n_begin(&self, thread: &ThreadInfo) {
        self.native_method_calls.bump();
        let comp = self.comp().j2n_begin;
        self.transition(thread, TraceEventKind::J2nBegin, Side::Bytecode, comp);
    }

    /// `J2N_End()` — called in the wrapper's `finally`.
    pub fn j2n_end(&self, thread: &ThreadInfo) {
        let comp = self.comp().j2n_end;
        self.transition(thread, TraceEventKind::J2nEnd, Side::Native, comp);
    }

    /// `N2J_Begin()` — called by the intercepted JNI invocation functions
    /// before the actual call.
    pub fn n2j_begin(&self, thread: &ThreadInfo) {
        self.jni_calls.bump();
        let comp = self.comp().n2j_begin;
        self.transition(thread, TraceEventKind::N2jBegin, Side::Native, comp);
    }

    /// `N2J_End()` — called by the intercepted JNI functions after the
    /// call returns (or unwinds).
    pub fn n2j_end(&self, thread: &ThreadInfo) {
        let comp = self.comp().n2j_end;
        self.transition(thread, TraceEventKind::N2jEnd, Side::Bytecode, comp);
    }

    /// This agent as an owned handle, for the probes installed in the VM.
    /// The VM's event sink already owns the agent for the VM's lifetime,
    /// so the probes hold it strongly: a probe call is then a plain call,
    /// with no upgrade of a weak reference per transition.
    fn strong(&self) -> Arc<IpaAgent> {
        self.weak
            .upgrade()
            .expect("an attaching agent is owned by an Arc")
    }

    /// Build the native library implementing the bridge class's four
    /// static natives.
    fn bridge_library(&self) -> NativeLibrary {
        let class = self.config.wrapper.bridge_class.clone();
        let mut lib = NativeLibrary::new("nativeprof-ipa");
        type Probe = fn(&IpaAgent, &ThreadInfo);
        let probes: [(&str, Probe); 4] = [
            ("J2N_Begin", IpaAgent::j2n_begin),
            ("J2N_End", IpaAgent::j2n_end),
            ("N2J_Begin", IpaAgent::n2j_begin),
            ("N2J_End", IpaAgent::n2j_end),
        ];
        for (name, probe) in probes {
            let agent = self.strong();
            lib.register_method(&class, name, move |env, _args| {
                probe(&agent, env.thread_info());
                Ok(Value::Null)
            });
        }
        lib
    }

    /// Classes the dynamic hook failed to instrument (0 in static mode).
    /// A nonzero value means the J2N count under-reports.
    pub fn instrumentation_failures(&self) -> u64 {
        self.instrumentation_failures.load(Ordering::Relaxed)
    }

    /// Final statistics (Fig. 3's `VMDeath` printout): the Table II row.
    ///
    /// An agent that was never attached (e.g. a run that failed before
    /// `Agent_OnLoad`) reports an empty profile rather than panicking —
    /// the suite driver must be able to assemble partial results from
    /// quarantined cells.
    pub fn report(&self) -> NativeProfile {
        let Some(totals) = self.totals.get() else {
            return NativeProfile::default();
        };
        let totals = totals.enter_unaccounted();
        NativeProfile {
            total: totals.split,
            jni_calls: self.jni_calls.get(),
            native_method_calls: self.native_method_calls.get(),
            threads: totals.threads.clone(),
        }
    }
}

impl Agent for IpaAgent {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        // Adopt the VM's trace sink so one `Vm::set_trace_sink` before
        // attach wires both VM-level and agent-level events to one
        // recorder. An explicitly-set sink (set_trace_sink) wins.
        if let Some(trace) = host.vm().trace_sink() {
            let _ = self.trace.set(trace);
        }
        let mut caps = Capabilities::ipa();
        if self.config.mode == InstrumentationMode::Dynamic {
            caps.can_generate_class_file_load_hook = true;
        }
        host.add_capabilities(caps);
        host.enable_event(EventType::ThreadStart)?;
        host.enable_event(EventType::ThreadEnd)?;
        host.enable_event(EventType::VmDeath)?;
        if self.config.mode == InstrumentationMode::Dynamic {
            host.enable_event(EventType::ClassFileLoadHook)?;
        }
        // Announce the wrapper prefix so the VM's native resolution retries
        // without it (JVMTI 1.1 native method prefixing).
        host.set_native_method_prefix(&self.config.wrapper.prefix)?;
        // Install the 90 JNI invocation wrappers.
        let agent = self.strong();
        host.intercept_jni_functions(move |_key, original| {
            let agent = Arc::clone(&agent);
            Arc::new(move |env, spec| {
                agent.n2j_begin(env.thread_info());
                let result = original(env, spec);
                agent.n2j_end(env.thread_info());
                result
            })
        })?;
        // The bridge class (excluded from instrumentation) + its natives.
        let bridge = bridge_class(&self.config.wrapper.bridge_class);
        host.append_to_bootstrap_class_path(vec![(
            bridge.name().to_owned(),
            jvmsim_classfile::codec::encode(&bridge),
        )]);
        host.load_agent_native_library(self.bridge_library());

        let env = host.env();
        let comp = if self.config.compensate {
            Compensation::calibrated(env.costs())
        } else {
            Compensation::off()
        };
        self.comp.set(comp).expect("IPA attached twice");
        self.tls.set(env.create_tls()).expect("IPA attached twice");
        self.totals
            .set(env.create_raw_monitor("IPA totals", IpaTotals::default()))
            .expect("IPA attached twice");
        self.env.set(env).expect("IPA attached twice");
        Ok(())
    }

    fn thread_start(&self, thread: &ThreadInfo) {
        let tc = self.new_context(thread);
        self.tls().put(thread, tc);
    }

    fn thread_end(&self, thread: &ThreadInfo) {
        let env = self.env();
        // Remove the context so a re-run (or a reused thread id) cannot
        // double-count the already-banked split.
        let totals = match self.tls().remove(thread) {
            Some(mut tc) => tc.close(env.timestamp(thread)),
            None => {
                let make = || self.new_context(thread);
                self.tls()
                    .with_or_insert(thread, make, |tc| tc.close(env.timestamp(thread)))
            }
        };
        self.totals().enter(thread).absorb(thread, totals);
    }

    fn vm_death(&self, threads: &[ThreadInfo]) {
        // Statistics are exposed via `report()`. Fold in any thread that
        // never saw ThreadEnd so no measured time is lost, in ascending
        // thread order.
        for thread in self.tls().holders(threads) {
            let now = self.env().timestamp_unaccounted(thread);
            let mut tc = self.tls().remove(thread).expect("a holder holds");
            let totals = tc.close(now);
            self.totals().enter_unaccounted().absorb(thread, totals);
        }
    }

    fn class_file_load_hook(&self, class_name: &str, bytes: &[u8]) -> Option<Vec<u8>> {
        if self.config.mode != InstrumentationMode::Dynamic {
            return None;
        }
        if class_name == self.config.wrapper.bridge_class {
            return None;
        }
        let transform = NativeWrapperTransform::with_config(self.config.wrapper.clone());
        match jvmsim_instr::archive::instrument_class_bytes(&transform, bytes) {
            Ok(replacement) => replacement,
            Err(_) => {
                // The class loads uninstrumented: its native calls will be
                // invisible to the J2N count. Surface it via the counter so
                // reports can be distrusted rather than silently wrong.
                self.instrumentation_failures
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_classfile::builder::ClassBuilder;
    use jvmsim_classfile::MethodFlags;
    use jvmsim_instr::Archive;
    use jvmsim_vm::Vm;

    fn mixed_archive() -> (Archive, NativeLibrary) {
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
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(20).istore(0);
        m.bind(top);
        m.iload(0).if_(jvmsim_classfile::Cond::Le, done);
        m.iconst(2_000).invokestatic("p/Mix", "burn", "(I)I").pop();
        m.iconst(0).invokestatic("p/Mix", "spin", "(I)V");
        m.iinc(0, -1).goto(top);
        m.bind(done);
        m.iconst(0).ireturn();
        m.finish().unwrap();
        let mut archive = Archive::new();
        archive.insert_class(&cb.finish().unwrap()).unwrap();
        let mut lib = NativeLibrary::new("mix");
        lib.register_method("p/Mix", "spin", |env, _args| {
            env.work(30_000);
            Ok(Value::Null)
        });
        (archive, lib)
    }

    fn run_ipa(config: IpaConfig) -> (Arc<IpaAgent>, jvmsim_vm::RunOutcome, jvmsim_pcl::Pcl) {
        let (mut archive, lib) = mixed_archive();
        let ipa = IpaAgent::with_config(config.clone());
        if config.mode == InstrumentationMode::Static {
            let report = ipa.instrument_archive(&mut archive).unwrap();
            assert_eq!(report.classes_instrumented, 1);
        }
        let mut vm = Vm::new();
        vm.add_archive(archive);
        vm.register_native_library(lib, true);
        let pcl = vm.pcl();
        jvmsim_jvmti::attach(&mut vm, Arc::clone(&ipa) as Arc<dyn Agent>).unwrap();
        let outcome = vm.run("p/Mix", "main", "()I", vec![]).unwrap();
        assert!(outcome.main.is_ok(), "{:?}", outcome.main);
        (ipa, outcome, pcl)
    }

    #[test]
    fn static_mode_counts_and_measures() {
        let (ipa, outcome, _) = run_ipa(IpaConfig::default());
        let report = ipa.report();
        // 20 loop iterations → 20 J2N transitions; the thread's entry via
        // the JNI launcher path is the single N2J.
        assert_eq!(report.native_method_calls, 20);
        assert_eq!(report.jni_calls, 1);
        assert!(report.total.native >= 20 * 30_000, "{report}");
        assert!(report.total.bytecode > 0, "{report}");
        // JIT stayed on: invocations were compiled eventually.
        assert!(outcome.stats.insns > 0);
        let pct = report.percent_native();
        assert!(pct > 50.0, "native work dominates this program: {pct}");
    }

    #[test]
    fn dynamic_mode_matches_static_counts() {
        let (ipa_s, _, _) = run_ipa(IpaConfig::default());
        let (ipa_d, _, _) = run_ipa(IpaConfig {
            mode: InstrumentationMode::Dynamic,
            ..IpaConfig::default()
        });
        let rs = ipa_s.report();
        let rd = ipa_d.report();
        assert_eq!(rs.native_method_calls, rd.native_method_calls);
        assert_eq!(rs.jni_calls, rd.jni_calls);
        // Timing is close (dynamic adds load-time work only).
        let ps = rs.percent_native();
        let pd = rd.percent_native();
        assert!((ps - pd).abs() < 5.0, "static {ps} vs dynamic {pd}");
    }

    #[test]
    fn compensation_reduces_measured_native_share_inflation() {
        let (with_comp, _, _) = run_ipa(IpaConfig::default());
        let (no_comp, _, _) = run_ipa(IpaConfig {
            compensate: false,
            ..IpaConfig::default()
        });
        let a = with_comp.report();
        let b = no_comp.report();
        // Without compensation the wrapper overhead is attributed to the
        // measured spans, so the uncompensated totals are strictly larger.
        assert!(
            b.total.total() > a.total.total(),
            "{} vs {}",
            b.total.total(),
            a.total.total()
        );
    }

    #[test]
    fn ipa_leaves_jit_enabled_and_is_cheap() {
        // Same program with no agent vs IPA: overhead far below SPA-like
        // factors.
        let (archive, lib) = mixed_archive();
        let mut vm = Vm::new();
        vm.add_archive(archive.clone());
        vm.register_native_library(lib.clone(), true);
        let base = vm.run("p/Mix", "main", "()I", vec![]).unwrap().total_cycles;

        let (_, outcome, _) = run_ipa(IpaConfig::default());
        let with_ipa = outcome.total_cycles;
        let overhead = with_ipa as f64 / base as f64 - 1.0;
        assert!(
            overhead < 0.5,
            "IPA overhead must be moderate, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn n2j_interception_counts_jni_calls() {
        // A native method that upcalls into Java through the JNI table.
        let mut cb = ClassBuilder::new("p/Up");
        cb.native_method("viaJni", "(I)I", MethodFlags::STATIC)
            .unwrap();
        let mut m = cb.method("callback", "(I)I", MethodFlags::STATIC);
        m.iload(0).iconst(1).iadd().ireturn();
        m.finish().unwrap();
        let mut m = cb.method("main", "()I", MethodFlags::STATIC);
        m.iconst(5).invokestatic("p/Up", "viaJni", "(I)I").ireturn();
        m.finish().unwrap();
        let mut lib = NativeLibrary::new("up");
        lib.register_method("p/Up", "viaJni", |env, args| {
            env.work(500);
            env.call_static(
                jvmsim_vm::jni::JniRetType::Int,
                jvmsim_vm::jni::ParamStyle::Varargs,
                "p/Up",
                "callback",
                "(I)I",
                &[args[0]],
            )
        });
        let mut archive = Archive::new();
        archive.insert_class(&cb.finish().unwrap()).unwrap();
        let ipa = IpaAgent::new();
        ipa.instrument_archive(&mut archive).unwrap();
        let mut vm = Vm::new();
        vm.add_archive(archive);
        vm.register_native_library(lib, true);
        jvmsim_jvmti::attach(&mut vm, Arc::clone(&ipa) as Arc<dyn Agent>).unwrap();
        let outcome = vm.run("p/Up", "main", "()I", vec![]).unwrap();
        assert_eq!(outcome.main.unwrap(), Value::Int(6));
        let report = ipa.report();
        assert_eq!(report.native_method_calls, 1, "{report}");
        // One upcall from the native, plus the thread-entry launcher call.
        assert_eq!(report.jni_calls, 2, "{report}");
    }

    #[test]
    fn exception_through_wrapper_still_banks_native_time() {
        let mut cb = ClassBuilder::new("p/Boom");
        cb.native_method("boom", "()V", MethodFlags::STATIC)
            .unwrap();
        let mut m = cb.method("main", "()I", MethodFlags::STATIC);
        let start = m.new_label();
        let end = m.new_label();
        let handler = m.new_label();
        m.bind(start);
        m.invokestatic("p/Boom", "boom", "()V");
        m.iconst(0).ireturn();
        m.bind(end);
        m.bind(handler);
        m.pop().iconst(1).ireturn();
        m.try_region(start, end, handler, None);
        m.finish().unwrap();
        let mut lib = NativeLibrary::new("boom");
        lib.register_method("p/Boom", "boom", |env, _| {
            env.work(7_000);
            Err(env.throw_new("java/lang/RuntimeException", "bang"))
        });
        let mut archive = Archive::new();
        archive.insert_class(&cb.finish().unwrap()).unwrap();
        let ipa = IpaAgent::new();
        ipa.instrument_archive(&mut archive).unwrap();
        let mut vm = Vm::new();
        vm.add_archive(archive);
        vm.register_native_library(lib, true);
        jvmsim_jvmti::attach(&mut vm, Arc::clone(&ipa) as Arc<dyn Agent>).unwrap();
        let outcome = vm.run("p/Boom", "main", "()I", vec![]).unwrap();
        assert_eq!(outcome.main.unwrap(), Value::Int(1));
        let report = ipa.report();
        // The finally-encoded J2N_End ran despite the exception: native time
        // was banked and the thread ended in bytecode state.
        assert!(report.total.native >= 7_000, "{report}");
        assert_eq!(report.native_method_calls, 1);
    }
}
