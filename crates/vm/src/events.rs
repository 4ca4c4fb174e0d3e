//! Low-level VM event hooks.
//!
//! The VM exposes raw hook points; the `jvmsim-jvmti` crate layers the
//! JVMTI-shaped API (capabilities, environments, TLS, raw monitors) on top.
//! Keeping the trait here breaks the dependency cycle: the VM knows only
//! about an abstract sink, never about agents.

use std::fmt;

use crate::klass::MethodId;
use crate::vm::ThreadInfo;

/// Identifier of a VM (green) thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub(crate) u32);

impl ThreadId {
    /// Raw index of this thread in the VM's thread table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. The VM assigns real ids; this exists so
    /// sinks and their tests can synthesize events without a running VM.
    pub fn from_index(index: usize) -> Self {
        ThreadId(index as u32)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread#{}", self.0)
    }
}

/// Lightweight view of a method passed to event callbacks — the analogue of
/// the JVMTI `jmethodID` plus the metadata the paper's agents query
/// (`m.isNative()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodView<'a> {
    /// Stable method identifier.
    pub id: MethodId,
    /// Declaring class's internal name.
    pub class_name: &'a str,
    /// Method name.
    pub name: &'a str,
    /// Method descriptor string.
    pub descriptor: &'a str,
    /// The paper's `m.isNative()`.
    pub is_native: bool,
}

/// Which event categories the VM should dispatch.
///
/// Mirrors JVMTI event enabling. **Enabling method entry/exit events
/// disables JIT compilation** for the lifetime of the setting — the
/// documented HotSpot behaviour that makes SPA's overhead catastrophic
/// (§III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventMask {
    /// `ThreadStart` / `ThreadEnd`.
    pub thread_events: bool,
    /// `MethodEntry` / `MethodExit` (forces interpreted-only execution).
    pub method_events: bool,
    /// `VMDeath`.
    pub vm_death: bool,
    /// `ClassFileLoadHook` (lets the sink rewrite classfile bytes before
    /// they are linked — the dynamic-instrumentation path of §IV).
    pub class_file_load_hook: bool,
    /// `Allocation` (the ALLOC agent's object-allocation hook; off for
    /// every other agent so the allocation fast path stays one branch).
    pub alloc_events: bool,
}

impl EventMask {
    /// All events off.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every event on (what SPA needs).
    pub fn all() -> Self {
        EventMask {
            thread_events: true,
            method_events: true,
            vm_death: true,
            class_file_load_hook: true,
            alloc_events: true,
        }
    }
}

/// One object allocation, as seen by the ALLOC agent's hook — the analogue
/// of JVMTI's `SampledObjectAlloc` payload, plus the *allocation site*
/// (class, method, bci) DJXPerf-style object-centric profilers key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationView<'a> {
    /// Internal name of the allocated object's class (or a synthetic label
    /// like `"long[]"` for arrays and `"java/lang/String"` for strings).
    pub class_name: &'a str,
    /// Modeled size of the allocation in bytes (see `HeapObject::model_bytes`).
    pub bytes: u64,
    /// Internal name of the class whose code performed the allocation.
    pub site_class: &'a str,
    /// Name of the method performing the allocation.
    pub site_method: &'a str,
    /// Bytecode index of the allocating instruction (0 for native sites).
    pub bci: u32,
}

/// Receiver of VM events. All methods have empty defaults so sinks override
/// only what they enable.
///
/// Callbacks take `&self`: agents keep their global state behind interior
/// mutability, exactly like a C JVMTI agent keeps globals behind raw
/// monitors. Per-thread callbacks borrow the acting thread's
/// [`ThreadInfo`] record for the duration of the event — its clock,
/// attribution bucket, metrics ledger and agent thread-local storage — so
/// per-thread agent state needs no synchronisation. Callbacks must not
/// re-enter the VM.
pub trait VmEventSink: Send + Sync {
    /// A new thread is about to execute its initial method.
    fn thread_start(&self, _thread: &ThreadInfo) {}
    /// A thread finished its initial method (normally or exceptionally).
    fn thread_end(&self, _thread: &ThreadInfo) {}
    /// The VM is terminating; no events follow. `threads` holds every
    /// thread's record in ascending thread order.
    fn vm_death(&self, _threads: &[ThreadInfo]) {}
    /// `thread` is entering `method` (bytecode *or* native).
    fn method_entry(&self, _thread: &ThreadInfo, _method: MethodView<'_>) {}
    /// `thread` is leaving `method`, by return or by exception.
    fn method_exit(&self, _thread: &ThreadInfo, _method: MethodView<'_>, _via_exception: bool) {}
    /// A classfile is about to be linked; return replacement bytes to
    /// rewrite it (dynamic instrumentation), or `None` to keep it.
    fn class_file_load(&self, _class_name: &str, _bytes: &[u8]) -> Option<Vec<u8>> {
        None
    }
    /// `thread` allocated one object (dispatched only when
    /// [`EventMask::alloc_events`] is set).
    fn allocation(&self, _thread: &ThreadInfo, _alloc: AllocationView<'_>) {}
}

/// A sink that ignores every event (useful as a baseline and in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl VmEventSink for NullSink {}

jvmsim_metrics::id_table! {
    /// Category of a transition-trace event.
    ///
    /// `J2nBegin`/`N2jBegin` mark the starts of the spans the paper's IPA banks
    /// time into; their `*End` counterparts close the spans. `TierUpC1`,
    /// `TierUpC2`, `Osr` and `Deopt` trace the interp → C1 → C2 pipeline, and
    /// `ThreadStart`/`ThreadEnd` bracket each thread's lifetime — including the
    /// primordial thread, which JVMTI itself never announces.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum TraceEventKind {
        /// Bytecode → native transition (wrapper's `J2N_Begin`).
        J2nBegin => "j2n_begin",
        /// Return from native back into the wrapper (`J2N_End`).
        J2nEnd => "j2n_end",
        /// Native → bytecode transition (intercepted `Call*Method*` entry).
        N2jBegin => "n2j_begin",
        /// The intercepted JNI call returned (`N2J_End`).
        N2jEnd => "n2j_end",
        /// A VM thread began executing its initial method.
        ThreadStart => "thread_start",
        /// A VM thread finished its initial method.
        ThreadEnd => "thread_end",
        /// The ALLOC agent recorded an object allocation at a site.
        AllocSite => "alloc_site",
        /// The LOCK agent observed a contended raw-monitor entry.
        MonitorContend => "monitor_contend",
        /// A method was promoted to the C1 quick tier.
        TierUpC1 => "tier_up_c1",
        /// A method was promoted to the C2 optimizing tier.
        TierUpC2 => "tier_up_c2",
        /// An on-stack replacement: a running activation was switched to the
        /// next tier at a hot loop back-edge.
        Osr => "osr",
        /// A deoptimization: exception unwinding demoted a compiled method
        /// back to the interpreter.
        Deopt => "deopt",
    }
}

/// Receiver of transition-trace events.
///
/// Like [`VmEventSink`] this trait lives in the VM crate so higher layers
/// (the `jvmsim-trace` recorder, agents) can plug in without a dependency
/// cycle. Implementations must be cheap and lock-light: `record` is called
/// from transition probes whose cost the agents deliberately keep off the
/// measured spans, and it must never re-enter the VM.
///
/// `cycles` is the emitting thread's PCL virtual-clock reading at the
/// event; successive events on one thread therefore carry non-decreasing
/// `cycles`. `method` is set only for the compilation-pipeline kinds (the
/// `TierUp*` pair, [`TraceEventKind::Osr`] and [`TraceEventKind::Deopt`]).
pub trait TraceSink: Send + Sync {
    /// Record one event.
    fn record(&self, thread: ThreadId, kind: TraceEventKind, cycles: u64, method: Option<MethodId>);
}

/// Receiver of timer samples (the system-specific profiling interface
/// `tprof`-style samplers use — §VI of the paper).
///
/// Unlike [`VmEventSink`], this is **not** a portable JVMTI facility: a
/// real sampler hooks OS timer signals and compares the PC against a map of
/// loaded code modules. The simulator models it as a periodic callback
/// carrying only what such a sampler can actually see: which thread was
/// running and whether the sampled "PC" was inside a native library.
pub trait SampleSink: Send + Sync {
    /// One timer tick on `thread`; `in_native` is true when the sample hit
    /// native-library code.
    fn sample(&self, thread: ThreadId, in_native: bool);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks() {
        assert_eq!(EventMask::none(), EventMask::default());
        let all = EventMask::all();
        assert!(all.thread_events && all.method_events && all.vm_death);
        assert!(all.class_file_load_hook);
    }

    #[test]
    fn null_sink_defaults() {
        let s = NullSink;
        let main = ThreadInfo::new(ThreadId(0), "main");
        s.thread_start(&main);
        s.vm_death(std::slice::from_ref(&main));
        assert_eq!(s.class_file_load("a/B", &[1, 2, 3]), None);
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(4).to_string(), "thread#4");
        assert_eq!(ThreadId(4).index(), 4);
    }
}
