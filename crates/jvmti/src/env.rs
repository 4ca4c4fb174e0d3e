//! The agent environment, agent trait, and attach protocol.

use std::sync::Arc;

use parking_lot::RwLock;

use jvmsim_faults::{FaultInjector, FaultSite};
use jvmsim_metrics::{Bucket, BucketGuard, CounterId, HistogramId, MetricsRegistry};
use jvmsim_pcl::{ClockHandle, Pcl, Timestamp};
use jvmsim_vm::cost::CostModel;
use jvmsim_vm::jni::{JniCallKey, JniEntryFn};
use jvmsim_vm::{AllocationView, EventMask, MethodView, NativeLibrary, ThreadId, Vm, VmEventSink};

use crate::caps::{Capabilities, EventType};
use crate::error::JvmtiError;
use crate::monitor::{MonitorLedger, RawMonitor};
use crate::tls::ThreadLocalStorage;

/// A JVMTI environment — the handle an agent keeps after load.
///
/// Cheap to clone; provides cycle-charged access to PCL timestamps,
/// thread-local storage and raw monitors, mirroring the services the
/// paper's C agents get from the real JVMTI + PCL.
#[derive(Clone)]
pub struct JvmtiEnv {
    pcl: Pcl,
    costs: Arc<CostModel>,
    granted: Arc<RwLock<Capabilities>>,
    /// The VM's fault-injection plane (disabled unless a chaos run armed
    /// it): timestamp reads are where per-thread clock anomalies surface
    /// to agents.
    faults: Arc<FaultInjector>,
    /// The VM's metrics registry, if one was installed before attach —
    /// probe spans attribute their cost through it.
    metrics: Option<MetricsRegistry>,
    /// The raw-monitor observation plane (disabled unless the LOCK agent
    /// enabled it; every monitor this env creates registers here).
    monitors: Arc<MonitorLedger>,
}

impl std::fmt::Debug for JvmtiEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JvmtiEnv")
            .field("granted", &*self.granted.read())
            .finish()
    }
}

impl JvmtiEnv {
    pub(crate) fn new(
        pcl: Pcl,
        costs: Arc<CostModel>,
        faults: Arc<FaultInjector>,
        metrics: Option<MetricsRegistry>,
    ) -> Self {
        JvmtiEnv {
            pcl,
            costs,
            granted: Arc::new(RwLock::new(Capabilities::none())),
            faults,
            metrics,
            monitors: Arc::new(MonitorLedger::new()),
        }
    }

    /// The cost model in force (agents charge themselves honestly with it).
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Capabilities granted so far.
    pub fn capabilities(&self) -> Capabilities {
        *self.granted.read()
    }

    /// Charge `cycles` of agent work to `thread`'s clock (a no-op for a
    /// thread with no registered clock).
    pub fn charge(&self, thread: ThreadId, cycles: u64) {
        self.pcl.with_clock(thread.index(), |h| h.charge(cycles));
    }

    /// Read `thread`'s cycle counter — `PCL.getTimestamp(Thread)` — charging
    /// the read cost first (the read itself takes time, and that time is
    /// visible to the next read, exactly like a real `rdtsc` pair).
    /// [`Timestamp::default()`] for a thread with no registered clock.
    pub fn timestamp(&self, thread: ThreadId) -> Timestamp {
        self.pcl
            .with_clock(thread.index(), |h| {
                h.charge(self.costs.timestamp_read);
                let ts = h.timestamp();
                // Fault plane: a clock step-back anomaly — this reading
                // observes an instant *earlier* than the previous one.
                // Agent meters must saturate such intervals to zero, not
                // underflow (pinned by the chaos invariant checks).
                match self.faults.inject(FaultSite::ClockStepBack) {
                    Some(entropy) => ts.rewound(entropy % 5_000 + 1),
                    None => ts,
                }
            })
            .unwrap_or_default()
    }

    /// Read `thread`'s counter without charging (harness-side inspection).
    pub fn timestamp_unaccounted(&self, thread: ThreadId) -> Timestamp {
        self.pcl
            .with_clock(thread.index(), ClockHandle::timestamp)
            .unwrap_or_default()
    }

    /// Open a self-timing probe span on `thread`: until the returned guard
    /// drops, every cycle the thread's clock charges is attributed to the
    /// probe's bucket rather than the workload, and on drop the span bumps
    /// the probe counter and records its own cycle cost in the probe-cost
    /// histogram. A no-op (still cheap and safe) without a metrics
    /// registry.
    ///
    /// The shard and start timestamp come from the thread's clock slot; the
    /// registry's (locked) shard lookup is the fallback for a slot without.
    ///
    /// This is how probe cost self-attribution works: the probe bodies do
    /// not estimate their own overhead — the span measures it from the
    /// same virtual clock the workload runs on.
    pub fn probe_span(&self, thread: ThreadId, kind: ProbeKind) -> ProbeSpan<'_> {
        let state = self.metrics.as_ref().map(|metrics| {
            let (mirror, start) = self
                .pcl
                .with_clock(thread.index(), |h| {
                    (h.metrics().map(|s| s.enter(kind.bucket())), h.timestamp())
                })
                .unwrap_or_default();
            ProbeState {
                pcl: &self.pcl,
                thread,
                kind,
                start,
                guard: mirror.unwrap_or_else(|| metrics.shard(thread.index()).enter(kind.bucket())),
            }
        });
        ProbeSpan { state }
    }

    /// Consult the fault-injection plane at `site` — agents own their
    /// fault sites (the ALLOC site-table overflow, the LOCK ledger
    /// corruption) and consult them exactly like the VM consults its own.
    #[inline]
    pub fn fault(&self, site: FaultSite) -> Option<u64> {
        self.faults.inject(site)
    }

    /// Sum of every thread's cycle counter — the end-of-run tick the ALLOC
    /// agent prices lifetimes against (≥ any single thread's clock).
    pub fn total_cycles(&self) -> u64 {
        self.pcl.total_cycles()
    }

    /// The raw-monitor observation plane shared by every monitor this env
    /// creates.
    pub fn monitor_ledger(&self) -> &Arc<MonitorLedger> {
        &self.monitors
    }

    /// Allocate a thread-local storage map for agent data.
    pub fn create_tls<T>(&self) -> ThreadLocalStorage<T> {
        ThreadLocalStorage::new(self.clone())
    }

    /// Create a raw monitor protecting `initial`.
    pub fn create_raw_monitor<T>(&self, name: &str, initial: T) -> RawMonitor<T> {
        RawMonitor::new(name.to_owned(), self.clone(), initial)
    }
}

/// Which profiling approach a probe span belongs to (selects the
/// attribution bucket, counter and cost histogram in one go).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// An IPA transition probe (J2N/N2J bracket).
    Ipa,
    /// An SPA probe (`MethodEntry`/`MethodExit` body).
    Spa,
    /// An ALLOC allocation-event probe (site-table bookkeeping).
    Alloc,
    /// A LOCK contention probe (monitor-ledger bookkeeping + modeled wait).
    Lock,
}

impl ProbeKind {
    fn bucket(self) -> Bucket {
        match self {
            ProbeKind::Ipa => Bucket::IpaProbe,
            ProbeKind::Spa => Bucket::SpaProbe,
            ProbeKind::Alloc => Bucket::AllocProbe,
            ProbeKind::Lock => Bucket::LockProbe,
        }
    }

    fn counter(self) -> CounterId {
        match self {
            ProbeKind::Ipa => CounterId::IpaProbes,
            ProbeKind::Spa => CounterId::SpaProbes,
            ProbeKind::Alloc => CounterId::AllocProbes,
            ProbeKind::Lock => CounterId::LockProbes,
        }
    }

    fn histogram(self) -> HistogramId {
        match self {
            ProbeKind::Ipa => HistogramId::IpaProbeCycles,
            ProbeKind::Spa => HistogramId::SpaProbeCycles,
            ProbeKind::Alloc => HistogramId::AllocProbeCycles,
            ProbeKind::Lock => HistogramId::LockProbeCycles,
        }
    }
}

struct ProbeState<'a> {
    pcl: &'a Pcl,
    thread: ThreadId,
    kind: ProbeKind,
    start: Timestamp,
    guard: BucketGuard,
}

/// RAII guard for one probe activation (see [`JvmtiEnv::probe_span`]).
/// Dropping it closes the attribution scope, counts the probe, and records
/// the probe's measured cycle cost.
#[must_use = "a probe span attributes cost only while it is alive"]
pub struct ProbeSpan<'a> {
    state: Option<ProbeState<'a>>,
}

impl std::fmt::Debug for ProbeSpan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeSpan")
            .field("active", &self.state.is_some())
            .finish()
    }
}

impl Drop for ProbeSpan<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            let end = state
                .pcl
                .with_clock(state.thread.index(), ClockHandle::timestamp)
                .unwrap_or_default();
            let shard = state.guard.shard();
            shard.incr(state.kind.counter());
            shard.observe(state.kind.histogram(), end.cycles_since(state.start));
        }
    }
}

/// The `Agent_OnLoad` context: configuration that is only legal while the
/// agent is being attached.
pub struct AgentHost<'vm> {
    vm: &'vm mut Vm,
    env: JvmtiEnv,
    enabled: EnabledEvents,
}

/// Which events an agent enabled, indexed by `EventType as usize`.
type EnabledEvents = [bool; EventType::ALL.len()];

impl<'vm> AgentHost<'vm> {
    /// The environment handle to keep for the agent's lifetime.
    pub fn env(&self) -> JvmtiEnv {
        self.env.clone()
    }

    /// `AddCapabilities`.
    pub fn add_capabilities(&mut self, caps: Capabilities) {
        let mut g = self.env.granted.write();
        *g = g.with(caps);
    }

    /// `SetEventNotificationMode(JVMTI_ENABLE, event)`.
    ///
    /// # Errors
    ///
    /// [`JvmtiError::MustPossessCapability`] if the event's gating
    /// capability was not requested.
    pub fn enable_event(&mut self, event: EventType) -> Result<(), JvmtiError> {
        if !event.required_capability(self.env.capabilities()) {
            return Err(JvmtiError::MustPossessCapability(format!(
                "event {event} requires a capability that was not requested"
            )));
        }
        self.enabled[event as usize] = true;
        Ok(())
    }

    /// `SetNativeMethodPrefix` (JVMTI 1.1).
    ///
    /// # Errors
    ///
    /// [`JvmtiError::MustPossessCapability`] without
    /// `can_set_native_method_prefix`; [`JvmtiError::IllegalArgument`] for
    /// an empty prefix.
    pub fn set_native_method_prefix(&mut self, prefix: &str) -> Result<(), JvmtiError> {
        if !self.env.capabilities().can_set_native_method_prefix {
            return Err(JvmtiError::MustPossessCapability(
                "can_set_native_method_prefix".into(),
            ));
        }
        if prefix.is_empty() {
            return Err(JvmtiError::IllegalArgument(
                "empty native method prefix".into(),
            ));
        }
        self.vm.register_native_prefix(prefix);
        Ok(())
    }

    /// Replace each of the 90 JNI `Call*Method*` functions through `wrap`
    /// (§II-B "JNI Function Interception"): `wrap` receives the function's
    /// identity and its current implementation and returns the replacement.
    ///
    /// # Errors
    ///
    /// [`JvmtiError::MustPossessCapability`] without
    /// `can_intercept_jni_calls`.
    pub fn intercept_jni_functions(
        &mut self,
        wrap: impl Fn(JniCallKey, JniEntryFn) -> JniEntryFn,
    ) -> Result<(), JvmtiError> {
        if !self.env.capabilities().can_intercept_jni_calls {
            return Err(JvmtiError::MustPossessCapability(
                "can_intercept_jni_calls".into(),
            ));
        }
        self.vm.jni_table_mut().intercept_all(wrap);
        Ok(())
    }

    /// Enable the raw-monitor observation plane: every `RawMonitorEnter`
    /// from now on is recorded in the [`MonitorLedger`] (the LOCK agent's
    /// data source).
    ///
    /// # Errors
    ///
    /// [`JvmtiError::MustPossessCapability`] without
    /// `can_observe_raw_monitors`.
    pub fn observe_raw_monitors(&mut self) -> Result<(), JvmtiError> {
        if !self.env.capabilities().can_observe_raw_monitors {
            return Err(JvmtiError::MustPossessCapability(
                "can_observe_raw_monitors".into(),
            ));
        }
        self.env.monitors.enable();
        Ok(())
    }

    /// `AddToBootstrapClassLoaderSearch` — the `-Xbootclasspath/p:` analog
    /// used to feed statically instrumented classes (including the rewritten
    /// `rt.jar`) to the VM.
    pub fn append_to_bootstrap_class_path<I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (String, Vec<u8>)>,
    {
        self.vm.add_archive(entries);
    }

    /// Load the agent's own native library (e.g. the IPA bridge
    /// implementation) into the VM, immediately visible to resolution.
    ///
    /// Agent libraries are exempted from fault injection: their natives
    /// are measurement infrastructure (real JVMTI agent code runs outside
    /// the Java exception machinery), so the fault plane perturbs only
    /// application and JDK natives.
    pub fn load_agent_native_library(&mut self, mut lib: NativeLibrary) {
        lib.exempt_from_faults();
        self.vm.register_native_library(lib, true);
    }

    /// Escape hatch to the VM during `OnLoad` (used by tests and the
    /// harness; real agents should not need it).
    pub fn vm(&mut self) -> &mut Vm {
        self.vm
    }
}

/// A JVMTI agent. `on_load` is `Agent_OnLoad`; the event callbacks mirror
/// the JVMTI event set. Only events the agent enabled during `on_load` are
/// delivered.
pub trait Agent: Send + Sync + 'static {
    /// Agent initialization: request capabilities, enable events, install
    /// interceptors, stash the [`JvmtiEnv`].
    ///
    /// # Errors
    ///
    /// Any [`JvmtiError`] aborts the attach.
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError>;

    /// `ThreadStart`.
    fn thread_start(&self, _thread: ThreadId) {}
    /// `ThreadEnd`.
    fn thread_end(&self, _thread: ThreadId) {}
    /// `MethodEntry`.
    fn method_entry(&self, _thread: ThreadId, _method: MethodView<'_>) {}
    /// `MethodExit`.
    fn method_exit(&self, _thread: ThreadId, _method: MethodView<'_>, _via_exception: bool) {}
    /// `VMDeath`.
    fn vm_death(&self) {}
    /// `ClassFileLoadHook`: return replacement bytes to rewrite the class.
    fn class_file_load_hook(&self, _class_name: &str, _bytes: &[u8]) -> Option<Vec<u8>> {
        None
    }
    /// `Allocation`: `thread` allocated one object.
    fn allocation(&self, _thread: ThreadId, _alloc: AllocationView<'_>) {}
}

/// Adapter delivering VM events to the agent, filtered by what it enabled.
struct AgentSink {
    agent: Arc<dyn Agent>,
    enabled: EnabledEvents,
}

impl VmEventSink for AgentSink {
    fn thread_start(&self, thread: ThreadId) {
        if self.enabled[EventType::ThreadStart as usize] {
            self.agent.thread_start(thread);
        }
    }
    fn thread_end(&self, thread: ThreadId) {
        if self.enabled[EventType::ThreadEnd as usize] {
            self.agent.thread_end(thread);
        }
    }
    fn vm_death(&self) {
        if self.enabled[EventType::VmDeath as usize] {
            self.agent.vm_death();
        }
    }
    fn method_entry(&self, thread: ThreadId, method: MethodView<'_>) {
        if self.enabled[EventType::MethodEntry as usize] {
            self.agent.method_entry(thread, method);
        }
    }
    fn method_exit(&self, thread: ThreadId, method: MethodView<'_>, via_exception: bool) {
        if self.enabled[EventType::MethodExit as usize] {
            self.agent.method_exit(thread, method, via_exception);
        }
    }
    fn class_file_load(&self, class_name: &str, bytes: &[u8]) -> Option<Vec<u8>> {
        if self.enabled[EventType::ClassFileLoadHook as usize] {
            self.agent.class_file_load_hook(class_name, bytes)
        } else {
            None
        }
    }
    fn allocation(&self, thread: ThreadId, alloc: AllocationView<'_>) {
        if self.enabled[EventType::Allocation as usize] {
            self.agent.allocation(thread, alloc);
        }
    }
}

/// Attach `agent` to `vm`: run `Agent_OnLoad`, install the event sink, and
/// set the VM event mask. If the agent enabled `MethodEntry`/`MethodExit`,
/// the mask disables JIT compilation — the cost the paper's SPA pays.
///
/// # Errors
///
/// Propagates any [`JvmtiError`] from the agent's `on_load`.
pub fn attach(vm: &mut Vm, agent: Arc<dyn Agent>) -> Result<JvmtiEnv, JvmtiError> {
    if vm.has_event_sink() {
        // A second agent would silently displace the first's sink while its
        // prefixes, interceptors and bridge library stayed installed.
        return Err(JvmtiError::IllegalArgument(
            "an agent is already attached to this VM".into(),
        ));
    }
    let env = JvmtiEnv::new(
        vm.pcl(),
        Arc::new(vm.cost().clone()),
        vm.fault_injector(),
        vm.metrics(),
    );
    let mut host = AgentHost {
        vm,
        env: env.clone(),
        enabled: [false; EventType::ALL.len()],
    };
    agent.on_load(&mut host)?;
    let enabled = host.enabled;
    let on = |event: EventType| enabled[event as usize];
    let mask = EventMask {
        thread_events: on(EventType::ThreadStart) || on(EventType::ThreadEnd),
        method_events: on(EventType::MethodEntry) || on(EventType::MethodExit),
        vm_death: on(EventType::VmDeath),
        class_file_load_hook: on(EventType::ClassFileLoadHook),
        alloc_events: on(EventType::Allocation),
    };
    vm.set_event_sink(Arc::new(AgentSink { agent, enabled }));
    vm.set_event_mask(mask);
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pcl: &Pcl, metrics: Option<MetricsRegistry>) -> JvmtiEnv {
        JvmtiEnv::new(
            pcl.clone(),
            Arc::new(CostModel::default()),
            Arc::new(FaultInjector::disabled()),
            metrics,
        )
    }

    #[test]
    fn clock_operations_on_a_thread_without_a_clock_are_no_ops() {
        let pcl = Pcl::new();
        let env = env(&pcl, None);
        let thread = ThreadId::from_index(3);
        env.charge(thread, 1_000);
        assert_eq!(env.timestamp(thread), Timestamp::default());
        assert_eq!(env.timestamp_unaccounted(thread), Timestamp::default());
        drop(env.probe_span(thread, ProbeKind::Spa));
        assert_eq!(pcl.thread_count(), 0);
        assert_eq!(pcl.total_cycles(), 0);
    }

    #[test]
    fn probe_span_without_a_clock_still_counts_into_the_registry() {
        let pcl = Pcl::new();
        let registry = MetricsRegistry::new();
        let env = env(&pcl, Some(registry.clone()));
        let thread = ThreadId::from_index(1);
        {
            let _span = env.probe_span(thread, ProbeKind::Spa);
            env.charge(thread, 500);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterId::SpaProbes), 1);
        assert_eq!(snap.histogram(HistogramId::SpaProbeCycles).count, 1);
        assert_eq!(snap.histogram(HistogramId::SpaProbeCycles).sum, 0);
        assert_eq!(snap.total_cycles(), 0);
        assert_eq!(pcl.total_cycles(), 0);
    }

    #[test]
    fn probe_span_on_a_clock_without_a_mirror_counts_into_the_registry_shard() {
        let pcl = Pcl::new();
        let id = pcl.register_thread();
        let registry = MetricsRegistry::new();
        let env = env(&pcl, Some(registry.clone()));
        let thread = ThreadId::from_index(id.index());
        {
            let _span = env.probe_span(thread, ProbeKind::Ipa);
            assert_eq!(
                registry.shard(thread.index()).current_bucket(),
                Bucket::IpaProbe
            );
            env.charge(thread, 40);
            let _ = env.timestamp(thread);
        }
        let cost = 40 + CostModel::default().timestamp_read;
        assert_eq!(pcl.timestamp(id).cycles(), cost);
        let shard = registry.shard(thread.index());
        assert_eq!(shard.current_bucket(), Bucket::Workload);
        let snap = shard.snapshot();
        assert_eq!(snap.counter(CounterId::IpaProbes), 1);
        assert_eq!(snap.histogram(HistogramId::IpaProbeCycles).sum, cost);
        // No mirror, so the clock's charges never reach the ledger.
        assert_eq!(snap.total_cycles(), 0);
    }

    #[test]
    fn probe_span_attributes_through_the_clock_mirror() {
        let pcl = Pcl::new();
        let id = pcl.register_thread();
        let registry = MetricsRegistry::new();
        let shard = registry.shard(id.index());
        pcl.attach_metrics(id, Arc::clone(&shard));
        let env = env(&pcl, Some(registry.clone()));
        let thread = ThreadId::from_index(id.index());
        env.charge(thread, 7);
        {
            let _span = env.probe_span(thread, ProbeKind::Spa);
            env.charge(thread, 30);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.bucket_cycles(Bucket::Workload), 7);
        assert_eq!(snap.bucket_cycles(Bucket::SpaProbe), 30);
        assert_eq!(snap.counter(CounterId::SpaProbes), 1);
        assert_eq!(snap.histogram(HistogramId::SpaProbeCycles).sum, 30);
        assert_eq!(snap.total_cycles(), pcl.total_cycles());
    }
}
