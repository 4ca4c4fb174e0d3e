//! The event contract between the VM and an attached agent, pinned on the
//! one workload that spawns a thread (size-1 `jbb`, so `ThreadStart`
//! fires): which callbacks are delivered, how many events are charged, and
//! what the run costs in modelled cycles.
//!
//! An agent receives exactly the events it enabled. Charging follows
//! pairs: a run that enables either of `MethodEntry`/`MethodExit` pays a
//! dispatch for both (and runs with the JIT off), and one that enables
//! either of `ThreadStart`/`ThreadEnd` pays for both. So the entry-only
//! agent below is charged for exits it never receives, and
//! `ChainProfiler` (`ThreadEnd` without `ThreadStart`) for thread starts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jvmsim_jvmti::{attach, Agent, AgentHost, Capabilities, EventType, JvmtiError, VmEventSink};
use jvmsim_vm::{AllocationView, MethodView, RunOutcome, ThreadInfo, Vm};
use nativeprof::ChainProfiler;
use workloads::{by_name, ProblemSize};

/// Counts every callback delivered to the wrapped agent, then forwards
/// it. Counting charges nothing, so the run costs what the inner agent's
/// run costs.
struct Counted<A> {
    inner: Arc<A>,
    delivered: [AtomicU64; EventType::ALL.len()],
}

impl<A: Agent> Counted<A> {
    fn new(inner: Arc<A>) -> Arc<Self> {
        Arc::new(Counted {
            inner,
            delivered: Default::default(),
        })
    }

    fn count(&self, event: EventType) {
        self.delivered[event as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Deliveries per event kind, in [`EventType::ALL`] order.
    fn delivered(&self) -> [u64; EventType::ALL.len()] {
        EventType::ALL.map(|e| self.delivered[e as usize].load(Ordering::Relaxed))
    }
}

impl<A: Agent> Agent for Counted<A> {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        self.inner.on_load(host)
    }
}

impl<A: Agent> VmEventSink for Counted<A> {
    fn thread_start(&self, thread: &ThreadInfo) {
        self.count(EventType::ThreadStart);
        self.inner.thread_start(thread);
    }
    fn thread_end(&self, thread: &ThreadInfo) {
        self.count(EventType::ThreadEnd);
        self.inner.thread_end(thread);
    }
    fn method_entry(&self, thread: &ThreadInfo, method: MethodView<'_>) {
        self.count(EventType::MethodEntry);
        self.inner.method_entry(thread, method);
    }
    fn method_exit(&self, thread: &ThreadInfo, method: MethodView<'_>, via_exception: bool) {
        self.count(EventType::MethodExit);
        self.inner.method_exit(thread, method, via_exception);
    }
    fn vm_death(&self, threads: &[ThreadInfo]) {
        self.count(EventType::VmDeath);
        self.inner.vm_death(threads);
    }
    fn class_file_load(&self, class_name: &str, bytes: &[u8]) -> Option<Vec<u8>> {
        self.count(EventType::ClassFileLoadHook);
        self.inner.class_file_load(class_name, bytes)
    }
    fn allocation(&self, thread: &ThreadInfo, alloc: AllocationView<'_>) {
        self.count(EventType::Allocation);
        self.inner.allocation(thread, alloc);
    }
}

/// Enables `MethodEntry` alone and does nothing with it.
struct EntryOnly;

impl Agent for EntryOnly {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        host.add_capabilities(Capabilities::spa());
        host.enable_event(EventType::MethodEntry)
    }
}

impl VmEventSink for EntryOnly {}

/// Run size-1 `jbb` under `agent`; return the outcome and its deliveries.
fn run_jbb<A: Agent>(agent: Arc<A>) -> (RunOutcome, [u64; EventType::ALL.len()]) {
    let program = by_name("jbb").expect("jbb exists").program();
    let mut vm = Vm::new();
    program.load(&mut vm);
    let counted = Counted::new(agent);
    attach(&mut vm, Arc::clone(&counted) as Arc<dyn Agent>).expect("attach");
    let outcome = program.run(&mut vm, ProblemSize::S1).expect("jbb runs");
    assert!(outcome.main.is_ok(), "{:?}", outcome.main);
    (outcome, counted.delivered())
}

#[test]
fn entry_only_agent_receives_entries_and_is_charged_for_exits() {
    let (outcome, delivered) = run_jbb(Arc::new(EntryOnly));
    // ThreadStart, ThreadEnd, MethodEntry, MethodExit, VMDeath,
    // ClassFileLoadHook, Allocation.
    assert_eq!(delivered, [0, 0, 17_531, 0, 0, 0, 0]);
    let entries = delivered[EventType::MethodEntry as usize];
    // Every entry has a charged exit; nothing else is dispatched.
    assert_eq!(outcome.stats.events_dispatched, 2 * entries);
    assert_eq!(outcome.stats.events_dispatched, 35_062);
    assert_eq!(outcome.total_cycles, 45_623_908);
}

#[test]
fn chain_profiler_receives_its_events_and_is_charged_for_thread_starts() {
    let (outcome, delivered) = run_jbb(ChainProfiler::new([], 0));
    assert_eq!(delivered, [0, 11, 17_531, 17_531, 0, 0, 0]);
    // The ten spawned threads' starts are charged but not delivered (the
    // primordial thread has no start event); every delivery is charged.
    let starts_charged = 10;
    assert_eq!(
        outcome.stats.events_dispatched,
        delivered.iter().sum::<u64>() + starts_charged
    );
    assert_eq!(outcome.stats.events_dispatched, 35_083);
    assert_eq!(outcome.total_cycles, 48_805_538);
}
