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

/// Enableable event kinds (JVMTI `jvmtiEvent` analog), one per
/// [`VmEventSink`] callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventType {
    /// New thread, before its initial method (not sent for the primordial
    /// thread — the wart §III works around).
    ThreadStart,
    /// Thread finished its initial method.
    ThreadEnd,
    /// Method entered (bytecode or native).
    MethodEntry,
    /// Method exited, by return or exception.
    MethodExit,
    /// VM terminating; no events follow.
    VmDeath,
    /// Classfile about to be linked; the sink may rewrite it.
    ClassFileLoadHook,
    /// An object was allocated (instance, array, or string).
    Allocation,
}

impl EventType {
    /// All event kinds.
    pub const ALL: [EventType; 7] = [
        EventType::ThreadStart,
        EventType::ThreadEnd,
        EventType::MethodEntry,
        EventType::MethodExit,
        EventType::VmDeath,
        EventType::ClassFileLoadHook,
        EventType::Allocation,
    ];
}

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventType::ThreadStart => "ThreadStart",
            EventType::ThreadEnd => "ThreadEnd",
            EventType::MethodEntry => "MethodEntry",
            EventType::MethodExit => "MethodExit",
            EventType::VmDeath => "VMDeath",
            EventType::ClassFileLoadHook => "ClassFileLoadHook",
            EventType::Allocation => "Allocation",
        };
        f.write_str(s)
    }
}

/// The set of enabled events (JVMTI event enabling).
///
/// The VM delivers a callback only if its event is in the set, but it
/// charges events in pairs: enabling either method event charges a
/// dispatch for every entry *and* exit, and enabling either thread event
/// one for every start *and* end. **Enabling a method event also disables
/// JIT compilation** for the lifetime of the setting — the documented
/// HotSpot behaviour that makes SPA's overhead catastrophic (§III of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventMask(u8);

impl EventMask {
    /// Add `event` to the set.
    pub fn insert(&mut self, event: EventType) {
        self.0 |= 1 << event as u8;
    }

    /// Is `event` in the set?
    #[inline]
    pub fn contains(self, event: EventType) -> bool {
        self.0 & 1 << event as u8 != 0
    }

    /// `MethodEntry` or `MethodExit`: the JIT is off and both are charged.
    #[inline]
    pub(crate) fn method_events(self) -> bool {
        self.contains(EventType::MethodEntry) || self.contains(EventType::MethodExit)
    }

    /// `ThreadStart` or `ThreadEnd`: both are charged.
    pub(crate) fn thread_events(self) -> bool {
        self.contains(EventType::ThreadStart) || self.contains(EventType::ThreadEnd)
    }
}

impl FromIterator<EventType> for EventMask {
    fn from_iter<I: IntoIterator<Item = EventType>>(events: I) -> Self {
        let mut mask = EventMask::default();
        events.into_iter().for_each(|e| mask.insert(e));
        mask
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

/// Receiver of VM events, one callback per [`EventType`]; a JVMTI agent
/// is one (`jvmsim_jvmti::Agent`). The VM calls a callback only when its
/// event is in the [`EventMask`], so every method has an empty default and
/// sinks override only what they enable.
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
    /// `thread` allocated one object.
    fn allocation(&self, _thread: &ThreadInfo, _alloc: AllocationView<'_>) {}
}

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
        let all: EventMask = EventType::ALL.into_iter().collect();
        assert!(EventType::ALL.iter().all(|&e| all.contains(e)));
        assert!(all.method_events() && all.thread_events());
        let mut end = EventMask::default();
        assert!(!end.thread_events());
        end.insert(EventType::ThreadEnd);
        assert!(end.thread_events() && !end.method_events());
        assert!(end.contains(EventType::ThreadEnd) && !end.contains(EventType::ThreadStart));
    }

    #[test]
    fn display() {
        assert_eq!(EventType::VmDeath.to_string(), "VMDeath");
        assert_eq!(EventType::MethodEntry.to_string(), "MethodEntry");
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(4).to_string(), "thread#4");
        assert_eq!(ThreadId(4).index(), 4);
    }
}
