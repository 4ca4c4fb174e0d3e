//! The virtual machine: configuration, class loading, threads, and the run
//! protocol.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{codec, ClassFile, FieldFlags, CLINIT};
use jvmsim_faults::{FaultInjector, FaultSite};
use jvmsim_metrics::{Bucket, CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
use jvmsim_pcl::{Pcl, Timestamp};
use jvmsim_tiers::TiersMode;

use crate::cost::CostModel;
use crate::error::VmError;
use crate::events::{
    AllocationView, EventMask, EventType, SampleSink, ThreadId, TraceEventKind, TraceSink,
    VmEventSink,
};
use crate::heap::{Heap, HeapObject};
use crate::jni::{JniFunctionTable, NativeFn, NativeLibrary};
use crate::klass::{ClassId, ClassRegistry, MethodId};
use crate::prepared::{CodeArena, ThreadStack};
use crate::throw::{ExceptionInfo, JThrow};
use crate::value::{ObjRef, Value};

/// Ground-truth execution counters maintained by the VM itself.
///
/// Agents *measure* these quantities indirectly; the integration tests
/// compare agent reports against this oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Bytecode instructions executed.
    pub insns: u64,
    /// Method invocations (bytecode + native).
    pub invocations: u64,
    /// Native method invocations (J2N transitions).
    pub native_calls: u64,
    /// Calls through the JNI invocation table (N2J transitions).
    pub jni_upcalls: u64,
    /// Classes linked.
    pub classes_loaded: u64,
    /// Objects and arrays allocated.
    pub allocations: u64,
    /// JVMTI-level events dispatched to the sink.
    pub events_dispatched: u64,
    /// Cycles the VM attributes to native code (dispatch + native work +
    /// JNI call overhead) — the oracle for the agents' `timeNative`.
    pub native_cycles: u64,
    /// Timer samples delivered to an installed sampler.
    pub samples_taken: u64,
    /// Cycles charged for bytecode executed at the interpreter tier
    /// (per-instruction charges plus interpreted-callee call overhead;
    /// allocation, native-dispatch and event charges are accounted
    /// elsewhere and excluded here).
    pub interp_cycles: u64,
    /// Cycles charged for bytecode executed at the C1 tier (same scope as
    /// `interp_cycles`).
    pub c1_cycles: u64,
    /// Cycles charged for bytecode executed at the C2 tier (same scope as
    /// `interp_cycles`).
    pub c2_cycles: u64,
    /// Cycles charged for C1 compiles (full charges, plus the half-charge
    /// of any fault-aborted compile).
    pub c1_compile_cycles: u64,
    /// Cycles charged for C2 compiles (same scope as `c1_compile_cycles`).
    pub c2_compile_cycles: u64,
    /// Methods promoted to C1 (invocation threshold or OSR).
    pub c1_compiles: u64,
    /// Methods promoted to C2 (invocation threshold or OSR).
    pub c2_compiles: u64,
    /// On-stack replacements performed.
    pub osrs: u64,
    /// Deoptimizations (compiled frames demoted by exception unwinding).
    pub deopts: u64,
    /// Tier compiles aborted by the fault plane.
    pub tier_compile_aborts: u64,
}

/// One agent thread-local-storage slot: a type-erased value the agent's
/// typed key downcasts (see `jvmsim_jvmti::ThreadLocalStorage`).
pub type TlsSlot = Option<Box<dyn Any + Send>>;

/// One simulated thread's record, and the single owner of its hot state:
/// the cycle counter, the current attribution bucket, a metrics ledger and
/// the agents' thread-local storage.
///
/// A simulated thread runs on exactly one host thread, so the record keeps
/// this state in `Cell`/`RefCell` and every charge, bucket switch, counter
/// bump or TLS access is a plain memory operation — no lock and no atomic
/// read-modify-write. The record is `Send` (so [`Vm`] is) but not `Sync`:
/// event callbacks borrow it for the duration of one event. When the
/// thread ends the VM publishes its count into the [`Pcl`] registry and
/// absorbs its ledger into the attached [`MetricsRegistry`], if any.
///
/// ```
/// use jvmsim_metrics::Bucket;
/// use jvmsim_vm::{ThreadId, ThreadInfo};
///
/// let t = ThreadInfo::new(ThreadId::from_index(0), "main");
/// t.charge(10);
/// {
///     let _probe = t.enter(Bucket::SpaProbe);
///     t.charge(5);
/// }
/// assert_eq!(t.cycles(), 15);
/// assert_eq!(t.ledger().bucket_cycles(Bucket::SpaProbe), 5);
/// ```
pub struct ThreadInfo {
    id: ThreadId,
    name: String,
    cycles: Cell<u64>,
    bucket: Cell<Bucket>,
    ledger: RefCell<MetricsSnapshot>,
    tls: RefCell<Vec<TlsSlot>>,
    /// The thread's frame stack, while no dispatch loop runs on it (a
    /// running loop holds it, and parks it here whenever it calls out).
    pub(crate) stack: ThreadStack,
    /// Cycle count at which the next timer sample is due (when sampling).
    pub(crate) next_sample_due: u64,
    /// Result recorded when the thread's initial method finishes.
    pub(crate) result: Option<Result<Value, ExceptionInfo>>,
}

impl fmt::Debug for ThreadInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadInfo")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("cycles", &self.cycles())
            .field("bucket", &self.bucket())
            .finish()
    }
}

impl ThreadInfo {
    /// A fresh record: clock at 0, attributing to [`Bucket::Workload`]. The
    /// VM creates one per thread; this is public so sinks and their tests
    /// can synthesize events without a running VM.
    pub fn new(id: ThreadId, name: &str) -> Self {
        ThreadInfo {
            id,
            name: name.to_owned(),
            cycles: Cell::new(0),
            bucket: Cell::new(Bucket::Workload),
            ledger: RefCell::new(MetricsSnapshot::default()),
            tls: RefCell::new(Vec::new()),
            stack: ThreadStack::default(),
            next_sample_due: u64::MAX,
            result: None,
        }
    }

    /// The thread's identifier.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Cycles consumed so far.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles.get()
    }

    /// The current counter reading — the paper's `PCL.getTimestamp(Thread)`
    /// without the read cost (`JvmtiEnv::timestamp` charges it).
    #[inline]
    pub fn timestamp(&self) -> Timestamp {
        Timestamp::from_cycles(self.cycles())
    }

    /// Advance the clock by `cycles`, attributing them to the current
    /// bucket in the ledger.
    #[inline]
    pub fn charge(&self, cycles: u64) {
        self.cycles.set(self.cycles.get().wrapping_add(cycles));
        self.ledger.borrow_mut().charge(self.bucket.get(), cycles);
    }

    /// The bucket receiving charges.
    pub fn bucket(&self) -> Bucket {
        self.bucket.get()
    }

    /// Attribute charges to `bucket` until the returned scope drops (scopes
    /// nest: dropping restores the previous attribution).
    #[inline]
    pub fn enter(&self, bucket: Bucket) -> BucketScope<'_> {
        BucketScope {
            thread: self,
            prev: self.bucket.replace(bucket),
        }
    }

    /// Switch attribution to `bucket` without a scope, returning the bucket
    /// to restore — for a scope that spans a mutable borrow of the VM.
    pub(crate) fn swap_bucket(&self, bucket: Bucket) -> Bucket {
        self.bucket.replace(bucket)
    }

    /// Increment counter `id` in the ledger.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.ledger.borrow_mut().incr(id);
    }

    /// Increment counter `id` by `n` in the ledger.
    pub(crate) fn add(&self, id: CounterId, n: u64) {
        self.ledger.borrow_mut().add(id, n);
    }

    /// Record one observation of `v` into histogram `id` in the ledger.
    pub fn observe(&self, id: HistogramId, v: u64) {
        self.ledger.borrow_mut().observe(id, v);
    }

    /// A copy of the ledger: what this thread recorded since it was last
    /// published.
    pub fn ledger(&self) -> MetricsSnapshot {
        self.ledger.borrow().clone()
    }

    /// The agents' thread-local-storage slots, indexed by TLS key. Only
    /// the JVMTI layer's typed keys should touch these.
    pub fn tls_slots(&self) -> &RefCell<Vec<TlsSlot>> {
        &self.tls
    }
}

/// An attribution scope on one thread record (see [`ThreadInfo::enter`]).
#[must_use = "a bucket scope attributes charges only while it is alive"]
#[derive(Debug)]
pub struct BucketScope<'a> {
    thread: &'a ThreadInfo,
    prev: Bucket,
}

impl Drop for BucketScope<'_> {
    fn drop(&mut self) {
        self.thread.bucket.set(self.prev);
    }
}

// The record is the unsynchronised owner of its thread's state: it must
// never be shared across host threads, while the VM owning it must move.
const _: fn() = || {
    trait AmbiguousIfSync<A> {
        fn some_item() {}
    }
    impl<T: ?Sized> AmbiguousIfSync<()> for T {}
    impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}
    let _ = <ThreadInfo as AmbiguousIfSync<_>>::some_item;
    fn assert_send<T: Send>() {}
    assert_send::<Vm>();
};

/// Start delivering one JVMTI event on `info`'s thread: enter the
/// agent's attribution `bucket` for the returned scope (which covers the
/// callback), count the event and charge its `dispatch` cost.
pub(crate) fn event_scope(info: &ThreadInfo, bucket: Bucket, dispatch: u64) -> BucketScope<'_> {
    let scope = info.enter(bucket);
    info.incr(CounterId::JvmtiEvents);
    info.charge(dispatch);
    scope
}

/// Outcome of one thread's initial method.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadOutcome {
    /// Thread name.
    pub name: String,
    /// Cycles the thread consumed.
    pub cycles: u64,
    /// Return value or escaped exception.
    pub result: Result<Value, ExceptionInfo>,
}

/// Outcome of [`Vm::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Result of the main thread's entry method.
    pub main: Result<Value, ExceptionInfo>,
    /// All threads (main first, then spawned threads in start order).
    pub threads: Vec<ThreadOutcome>,
    /// Sum of all thread cycle counters.
    pub total_cycles: u64,
    /// Ground-truth VM counters at termination.
    pub stats: VmStats,
}

impl RunOutcome {
    /// Total virtual seconds at the PCL clock frequency.
    pub fn seconds(&self, pcl: &Pcl) -> f64 {
        pcl.cycles_to_seconds(self.total_cycles)
    }
}

struct PendingThread {
    name: String,
    class: String,
    method: String,
    descriptor: String,
    args: Vec<Value>,
}

/// The simulated JVM.
///
/// ```
/// use jvmsim_vm::Vm;
/// use jvmsim_classfile::builder::ClassBuilder;
/// use jvmsim_classfile::MethodFlags;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cb = ClassBuilder::new("demo/Main");
/// let mut m = cb.method("main", "()I", MethodFlags::STATIC);
/// m.iconst(40).iconst(2).iadd().ireturn();
/// m.finish()?;
///
/// let mut vm = Vm::new();
/// vm.add_classfile(&cb.finish()?);
/// let outcome = vm.run("demo/Main", "main", "()I", vec![])?;
/// assert_eq!(outcome.main.unwrap(), jvmsim_vm::Value::Int(42));
/// # Ok(())
/// # }
/// ```
pub struct Vm {
    pub(crate) cost: CostModel,
    pcl: Pcl,
    pub(crate) registry: ClassRegistry,
    pub(crate) heap: Heap,
    /// Classpath: class name → serialized classfile bytes.
    classpath: HashMap<String, Vec<u8>>,
    /// Registered (but not yet loaded) native libraries.
    available_libraries: HashMap<String, NativeLibrary>,
    /// Libraries made live via `load_native_library` (`System.loadLibrary`).
    loaded_libraries: Vec<NativeLibrary>,
    /// Cache of resolved native bindings.
    native_bindings: HashMap<MethodId, (NativeFn, bool)>,
    /// Native libraries' statics, one value per type (see
    /// [`crate::jni::JniEnv::vm_local`]).
    pub(crate) native_statics: Vec<Box<dyn Any + Send>>,
    /// Registered native-method name prefixes (JVMTI 1.1 prefix retry).
    prefixes: Vec<String>,
    pub(crate) sink: Option<Arc<dyn VmEventSink>>,
    /// Transition-trace recorder (orthogonal to the JVMTI event mask; no
    /// cycles are charged for trace emission, so tracing never perturbs
    /// the quantities being measured).
    trace: Option<Arc<dyn TraceSink>>,
    pub(crate) mask: EventMask,
    /// Timer-based sampler: (interval in cycles, sink).
    sampler: Option<(u64, Arc<dyn SampleSink>)>,
    /// Which tier promotions the pipeline performs (the `--tiers` axis).
    tiers_mode: TiersMode,
    /// Prepared bodies and the inline caches their ops index into (each
    /// class's per-method slots hold body indexes).
    pub(crate) code: CodeArena,
    /// Set when the first method body is prepared. From then on the
    /// sampler and the fault plane are fixed, so every body is prepared
    /// under the same polling decision.
    pub(crate) bodies_prepared: bool,
    /// A native callee's arguments, copied out of the parked slot arena:
    /// taken for the call and put back after, so only a native nested in
    /// another's JNI upcall allocates.
    pub(crate) native_args: Vec<Value>,
    pub(crate) threads: Vec<ThreadInfo>,
    pending: VecDeque<PendingThread>,
    jni_table: JniFunctionTable,
    pub(crate) max_call_depth: usize,
    /// Deterministic fault-injection plane (disabled by default; armed by
    /// the chaos driver). Shared so the JVMTI shim and trace recorder can
    /// consult the same schedule.
    faults: Arc<FaultInjector>,
    /// Metrics registry (observation-only: each thread's ledger is
    /// absorbed into it when the thread ends, so enabling metrics never
    /// changes any measured quantity).
    metrics: Option<MetricsRegistry>,
    pub(crate) stats: VmStats,
    vm_dead: bool,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("classes", &self.registry.len())
            .field("threads", &self.threads.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Create a VM with default costs, a fresh PCL registry, and the
    /// built-in exception hierarchy linked.
    pub fn new() -> Self {
        Self::with_cost_model(CostModel::default())
    }

    /// Create a VM with an explicit cost model.
    pub fn with_cost_model(cost: CostModel) -> Self {
        let mut vm = Vm {
            cost,
            pcl: Pcl::new(),
            registry: ClassRegistry::new(),
            heap: Heap::new(),
            classpath: HashMap::new(),
            available_libraries: HashMap::new(),
            loaded_libraries: Vec::new(),
            native_bindings: HashMap::new(),
            native_statics: Vec::new(),
            prefixes: Vec::new(),
            sink: None,
            trace: None,
            mask: EventMask::default(),
            sampler: None,
            tiers_mode: TiersMode::default(),
            code: CodeArena::default(),
            bodies_prepared: false,
            native_args: Vec::new(),
            threads: Vec::new(),
            pending: VecDeque::new(),
            jni_table: JniFunctionTable::new(),
            max_call_depth: 2_000,
            faults: Arc::new(FaultInjector::disabled()),
            metrics: None,
            stats: VmStats::default(),
            vm_dead: false,
        };
        vm.bootstrap_exception_classes();
        vm
    }

    fn bootstrap_exception_classes(&mut self) {
        let define = |vm: &mut Vm, name: &str, superclass: Option<&str>, with_message: bool| {
            let mut cb = ClassBuilder::new(name);
            if let Some(s) = superclass {
                cb.extends(s);
            }
            if with_message {
                cb.field("message", "Ljava/lang/String;", FieldFlags::PUBLIC)
                    .expect("bootstrap field");
            }
            let class = cb.finish().expect("bootstrap class");
            vm.registry
                .define(class, Vec::new())
                .expect("bootstrap define");
            vm.stats.classes_loaded += 1;
        };
        define(self, "java/lang/Object", None, false);
        define(self, "java/lang/Throwable", Some("java/lang/Object"), true);
        define(self, "java/lang/Error", Some("java/lang/Throwable"), false);
        define(
            self,
            "java/lang/Exception",
            Some("java/lang/Throwable"),
            false,
        );
        define(
            self,
            "java/lang/RuntimeException",
            Some("java/lang/Exception"),
            false,
        );
        for e in [
            "java/lang/ArithmeticException",
            "java/lang/NullPointerException",
            "java/lang/ArrayIndexOutOfBoundsException",
            "java/lang/NegativeArraySizeException",
            "java/lang/ArrayStoreException",
            "java/lang/ClassCastException",
            "java/lang/IllegalArgumentException",
        ] {
            define(self, e, Some("java/lang/RuntimeException"), false);
        }
        for e in [
            "java/lang/InternalError",
            "java/lang/StackOverflowError",
            "java/lang/NoSuchMethodError",
            "java/lang/NoSuchFieldError",
            "java/lang/UnsatisfiedLinkError",
            "java/lang/NoClassDefFoundError",
            // Thrown by the fault-injection plane's asynchronous
            // thread-death site; also what a real Thread.stop delivers.
            "java/lang/ThreadDeath",
        ] {
            define(self, e, Some("java/lang/Error"), false);
        }
    }

    // ------------------------------------------------------------ wiring

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The PCL cycle-counter registry (shared handle).
    pub fn pcl(&self) -> Pcl {
        self.pcl.clone()
    }

    /// Ground-truth counters.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Borrow the heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutably borrow the heap.
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Borrow the JNI function table.
    pub fn jni_table(&self) -> &JniFunctionTable {
        &self.jni_table
    }

    /// Mutably borrow the JNI function table (for interception).
    pub fn jni_table_mut(&mut self) -> &mut JniFunctionTable {
        &mut self.jni_table
    }

    /// Install the event sink (at most one, like a single JVMTI agent).
    pub fn set_event_sink(&mut self, sink: Arc<dyn VmEventSink>) {
        self.sink = Some(sink);
    }

    /// Is an event sink (agent) already installed?
    pub fn has_event_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Install a transition-trace sink. Unlike the JVMTI event sink this
    /// is free: emission charges no cycles (the recorder models an
    /// out-of-band ring write, not agent logic), so attaching a tracer
    /// does not change any measured quantity.
    pub fn set_trace_sink(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = Some(trace);
    }

    /// The installed trace sink, if any (agents emitting their own trace
    /// events — IPA's transition probes — fetch it from here at attach).
    pub fn trace_sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.trace.clone()
    }

    /// Emit a trace event stamped with `thread`'s current virtual clock.
    pub(crate) fn trace_emit(
        &self,
        thread: ThreadId,
        kind: TraceEventKind,
        method: Option<MethodId>,
    ) {
        if let Some(trace) = &self.trace {
            let cycles = self.threads[thread.index()].cycles();
            trace.record(thread, kind, cycles, method);
        }
    }

    /// Set which events the sink receives. Enabling `MethodEntry` or
    /// `MethodExit` suppresses JIT compilation while set — the HotSpot
    /// behaviour that ruins SPA (§III).
    pub fn set_event_mask(&mut self, mask: EventMask) {
        self.mask = mask;
    }

    /// Install a `tprof`-style timer sampler firing every `interval_cycles`
    /// virtual cycles per thread (§VI: the system-specific alternative to
    /// the paper's approach). Call before [`Vm::run`].
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero, or if a method body has
    /// already been prepared (some bytecode has run): a sampler makes the
    /// interpreter poll, and bodies prepared without one are folded.
    pub fn set_sampler(&mut self, interval_cycles: u64, sink: Arc<dyn SampleSink>) {
        assert!(interval_cycles > 0, "sampling interval must be nonzero");
        assert!(
            !self.bodies_prepared,
            "install the sampler before any bytecode runs"
        );
        self.sampler = Some((interval_cycles, sink));
        for t in &mut self.threads {
            if t.next_sample_due == u64::MAX {
                t.next_sample_due = t.cycles() + interval_cycles;
            }
        }
    }

    /// Sampling interval, if a sampler is installed.
    pub(crate) fn sampler_interval(&self) -> Option<u64> {
        self.sampler.as_ref().map(|(i, _)| *i)
    }

    /// Deliver any samples due on `thread` (`in_native` describes where the
    /// virtual PC currently is). Charges the sample-dispatch cost per tick.
    pub(crate) fn poll_samples(&mut self, thread: ThreadId, in_native: bool) {
        let Some((interval, sink)) = self.sampler.clone() else {
            return;
        };
        let info = &mut self.threads[thread.index()];
        let now = info.cycles();
        if now < info.next_sample_due {
            return;
        }
        // Coalesce: a real timer sampler that falls behind drops ticks
        // rather than replaying them (sample delivery itself costs cycles,
        // so replaying every missed tick diverges when
        // `interval <= sample_dispatch`). Deliver a bounded burst for the
        // elapsed span, then resynchronize the next due-point past the
        // post-delivery clock.
        let due = (now - info.next_sample_due) / interval + 1;
        let ticks = due.min(16);
        let dispatch = self.cost.sample_dispatch;
        for _ in 0..ticks {
            self.charge(thread, dispatch);
            if in_native {
                self.stats.native_cycles += dispatch;
            }
            self.stats.samples_taken += 1;
            sink.sample(thread, in_native);
        }
        let after = self.threads[thread.index()].cycles();
        self.threads[thread.index()].next_sample_due = after + interval;
    }

    /// Arm the deterministic fault-injection plane. The injector is shared:
    /// the JVMTI shim picks it up at attach time and the trace recorder can
    /// hold a clone, so one seeded schedule drives every consumer. Call
    /// before [`Vm::run`].
    ///
    /// # Panics
    ///
    /// Panics if a method body has already been prepared (some bytecode
    /// has run): an enabled fault plane makes the interpreter poll, and
    /// bodies prepared without one are folded.
    pub fn set_fault_injector(&mut self, faults: Arc<FaultInjector>) {
        assert!(
            !self.bodies_prepared,
            "install the fault injector before any bytecode runs"
        );
        self.faults = faults;
    }

    /// The fault injector in force (the disabled no-op one by default).
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.faults)
    }

    /// Fast path for hot-loop hooks: can any fault ever fire?
    pub(crate) fn faults_enabled(&self) -> bool {
        self.faults.is_enabled()
    }

    /// Consult the fault plane at `site` (see [`FaultInjector::inject`]).
    #[inline]
    pub(crate) fn fault(&self, site: FaultSite) -> Option<u64> {
        self.faults.inject(site)
    }

    /// Attach a metrics registry. Install it before running: each thread's
    /// ledger is absorbed into the registry (at the thread's index) when
    /// the thread ends.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = Some(metrics);
    }

    /// The attached metrics registry, if any (the JVMTI shim picks it up
    /// at agent attach so probe spans land in the same registry).
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.metrics.clone()
    }

    /// Bump a counter in `thread`'s ledger.
    pub(crate) fn metric_incr(&self, thread: ThreadId, id: CounterId) {
        self.threads[thread.index()].incr(id);
    }

    /// The attribution bucket of the attached agent's machinery (IPA
    /// probe, SPA probe, or harness), as declared on the registry.
    pub(crate) fn agent_bucket(&self) -> Bucket {
        self.metrics
            .as_ref()
            .map_or(Bucket::Workload, MetricsRegistry::agent_bucket)
    }

    /// Is JIT compilation effective right now? Method events suppress it
    /// (as on HotSpot); the `-Xint` analog is [`TiersMode::InterpOnly`].
    pub fn jit_enabled(&self) -> bool {
        !self.mask.method_events()
    }

    /// Select which tier promotions the pipeline performs (the `--tiers`
    /// scenario axis). Call before running.
    pub fn set_tiers_mode(&mut self, mode: TiersMode) {
        self.tiers_mode = mode;
    }

    /// The configured tiers mode.
    pub fn tiers_mode(&self) -> TiersMode {
        self.tiers_mode
    }

    /// The tiers mode actually in force: the configured mode, collapsed
    /// to `InterpOnly` whenever an agent holding method events suppresses
    /// compilation.
    pub fn effective_tiers_mode(&self) -> TiersMode {
        if self.jit_enabled() {
            self.tiers_mode
        } else {
            TiersMode::InterpOnly
        }
    }

    /// Register a native-method name prefix (JVMTI 1.1 `SetNativeMethodPrefix`).
    ///
    /// Resolution of a native method whose name starts with a registered
    /// prefix retries with the prefix stripped — the mechanism that lets
    /// instrumented wrappers rename native methods (§IV).
    pub fn register_native_prefix(&mut self, prefix: impl Into<String>) {
        self.prefixes.push(prefix.into());
    }

    /// Registered prefixes, in registration order.
    pub fn native_prefixes(&self) -> &[String] {
        &self.prefixes
    }

    /// Maximum Java call depth before `StackOverflowError`.
    pub fn set_max_call_depth(&mut self, depth: usize) {
        self.max_call_depth = depth;
    }

    // --------------------------------------------------------- classpath

    /// Add serialized classfile bytes under `name` (classpath entry).
    pub fn add_class_bytes(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.classpath.insert(name.into(), bytes);
    }

    /// Add a class by encoding it onto the classpath.
    pub fn add_classfile(&mut self, class: &ClassFile) {
        self.add_class_bytes(class.name().to_owned(), codec::encode(class));
    }

    /// Add many `(name, bytes)` entries (an archive / jar analog).
    pub fn add_archive<I: IntoIterator<Item = (String, Vec<u8>)>>(&mut self, entries: I) {
        for (name, bytes) in entries {
            self.add_class_bytes(name, bytes);
        }
    }

    /// Register a native library; it becomes resolvable after
    /// [`Vm::load_native_library`] (or immediately if `auto_load`).
    pub fn register_native_library(&mut self, lib: NativeLibrary, auto_load: bool) {
        let name = lib.name().to_owned();
        if auto_load {
            self.loaded_libraries.push(lib);
        } else {
            self.available_libraries.insert(name, lib);
        }
    }

    /// `System.loadLibrary(name)`: make a registered library live.
    ///
    /// # Errors
    ///
    /// [`VmError::UnsatisfiedLink`] if no library of that name was
    /// registered.
    pub fn load_native_library(&mut self, name: &str) -> Result<(), VmError> {
        match self.available_libraries.remove(name) {
            Some(lib) => {
                self.loaded_libraries.push(lib);
                Ok(())
            }
            None => Err(VmError::UnsatisfiedLink {
                class: "<loadLibrary>".into(),
                method: name.into(),
                tried: vec![name.into()],
            }),
        }
    }

    // ------------------------------------------------------------ threads

    #[inline]
    pub(crate) fn charge(&self, thread: ThreadId, cycles: u64) {
        self.threads[thread.index()].charge(cycles);
    }

    /// The record of `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` was not created by this VM.
    pub fn thread_info(&self, thread: ThreadId) -> &ThreadInfo {
        &self.threads[thread.index()]
    }

    /// Cycles consumed so far by `thread`.
    pub fn thread_cycles(&self, thread: ThreadId) -> u64 {
        self.threads[thread.index()].cycles()
    }

    /// Name of `thread`.
    pub fn thread_name(&self, thread: ThreadId) -> &str {
        &self.threads[thread.index()].name
    }

    fn create_thread(&mut self, name: &str) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        if let Some(metrics) = &self.metrics {
            metrics
                .global()
                .gauge_max(GaugeId::Threads, self.threads.len() as u64 + 1);
        }
        let mut info = ThreadInfo::new(id, name);
        info.next_sample_due = self.sampler.as_ref().map_or(u64::MAX, |(i, _)| *i);
        self.threads.push(info);
        id
    }

    /// Publish `thread`'s count into the PCL registry and absorb its
    /// ledger into the metrics registry, if one is attached — the one
    /// place thread-owned state crosses to shared state. Publishing again
    /// later is exact: the count is replaced and the ledger restarts empty.
    fn publish(&self, thread: ThreadId) {
        let info = &self.threads[thread.index()];
        self.pcl.publish(thread.index(), info.cycles());
        let ledger = info.ledger.take();
        if let Some(metrics) = &self.metrics {
            metrics.absorb(thread.index(), &ledger);
        }
    }

    /// The primordial thread (created lazily, **without** a `ThreadStart`
    /// event — the JVMTI wart the paper's `GetThreadLocalStorage` helper
    /// works around).
    pub(crate) fn ensure_main_thread(&mut self) -> ThreadId {
        if self.threads.is_empty() {
            self.create_thread("main");
        }
        ThreadId(0)
    }

    /// Queue a green thread to run `class.method(args)` after the current
    /// thread finishes (run-to-completion scheduling; per-thread cycle
    /// accounting is unaffected by the serialization — see DESIGN.md).
    pub fn spawn_thread(
        &mut self,
        name: &str,
        class: &str,
        method: &str,
        descriptor: &str,
        args: Vec<Value>,
    ) {
        self.pending.push_back(PendingThread {
            name: name.to_owned(),
            class: class.to_owned(),
            method: method.to_owned(),
            descriptor: descriptor.to_owned(),
            args,
        });
    }

    // ------------------------------------------------------------- events

    /// Dispatch one JVMTI event on `thread`, if a sink is installed:
    /// counted in `events_dispatched`, scoped to the agent's attribution
    /// bucket, charged one `event_dispatch`, then delivered with the
    /// thread's record borrowed if `event` is enabled (the charge follows
    /// the caller's check, which for a method or thread event is its
    /// pair's). Callbacks get `&Vm` only through `deliver`'s arguments, so
    /// they cannot re-enter the VM.
    pub(crate) fn dispatch<R>(
        &mut self,
        thread: ThreadId,
        event: EventType,
        deliver: impl FnOnce(&dyn VmEventSink, &ThreadInfo, &Vm) -> R,
    ) -> Option<R> {
        let sink = self.sink.as_deref()?;
        self.stats.events_dispatched += 1;
        let info = &self.threads[thread.index()];
        let _agent = event_scope(info, self.agent_bucket(), self.cost.event_dispatch);
        self.mask.contains(event).then(|| deliver(sink, info, self))
    }

    pub(crate) fn fire_thread_start(&mut self, thread: ThreadId) {
        if self.mask.thread_events() {
            self.dispatch(thread, EventType::ThreadStart, |sink, info, _| {
                sink.thread_start(info);
            });
        }
    }

    pub(crate) fn fire_thread_end(&mut self, thread: ThreadId) {
        if self.mask.thread_events() {
            self.dispatch(thread, EventType::ThreadEnd, |sink, info, _| {
                sink.thread_end(info);
            });
        }
    }

    /// Whether allocation events are enabled — call sites check this one
    /// branch before assembling site labels, so every non-ALLOC run
    /// allocates exactly as before.
    #[inline]
    pub(crate) fn alloc_events_on(&self) -> bool {
        self.mask.contains(EventType::Allocation) && self.sink.is_some()
    }

    /// `(class name, method name)` of `mid`, owned — the allocation-site
    /// key the ALLOC agent interns.
    pub(crate) fn site_of(&self, mid: MethodId) -> (String, String) {
        let rc = self.registry.get(mid.class);
        (
            rc.name.clone(),
            rc.methods[mid.index as usize].name().to_owned(),
        )
    }

    /// Dispatch one allocation event for the freshly allocated `obj`,
    /// attributed to the site `(site_class, site_method, bci)`. Dispatch
    /// follows the same shape as every other JVMTI event: counted in
    /// `events_dispatched`, scoped to the agent's attribution bucket, and
    /// charged one `event_dispatch` on the allocating thread.
    pub(crate) fn fire_allocation(
        &mut self,
        thread: ThreadId,
        obj: ObjRef,
        site_class: &str,
        site_method: &str,
        bci: u32,
    ) {
        if !self.alloc_events_on() {
            return;
        }
        let (class_name, bytes) = {
            let o = self.heap.get(obj);
            let label = match o {
                HeapObject::Instance { class, .. } => self.registry.get(*class).name.clone(),
                HeapObject::IntArray(_) => "long[]".to_owned(),
                HeapObject::FloatArray(_) => "double[]".to_owned(),
                HeapObject::RefArray(_) => "java/lang/Object[]".to_owned(),
                HeapObject::Str(_) => "java/lang/String".to_owned(),
            };
            (label, o.model_bytes())
        };
        let alloc = AllocationView {
            class_name: &class_name,
            bytes,
            site_class,
            site_method,
            bci,
        };
        self.dispatch(thread, EventType::Allocation, |sink, info, _| {
            sink.allocation(info, alloc);
        });
    }

    fn fire_vm_death(&mut self) {
        if self.vm_dead {
            return;
        }
        self.vm_dead = true;
        if self.mask.contains(EventType::VmDeath) {
            if let Some(sink) = self.sink.as_deref() {
                self.stats.events_dispatched += 1;
                // VMDeath is delivered after the last thread has finished,
                // on no particular thread — count it on the global shard.
                if let Some(metrics) = &self.metrics {
                    metrics.global().incr(CounterId::JvmtiEvents);
                }
                sink.vm_death(&self.threads);
            }
        }
    }

    // ------------------------------------------------------ class loading

    /// Link `name`, loading (and, if hooked, rewriting) its classfile bytes
    /// and running `<clinit>`. Idempotent.
    ///
    /// # Errors
    ///
    /// [`VmError::ClassNotFound`] / [`VmError::ClassFormat`] /
    /// [`VmError::BadHierarchy`] on load failures.
    pub fn ensure_loaded(&mut self, name: &str) -> Result<ClassId, VmError> {
        let thread = self.ensure_main_thread();
        let loaded = self.ensure_loaded_on(thread, name);
        self.publish(thread);
        loaded
    }

    /// [`Vm::ensure_loaded`], charging `<clinit>` execution to the thread
    /// that triggered loading (class initialization runs on the loading
    /// thread, as on the JVM).
    pub(crate) fn ensure_loaded_on(
        &mut self,
        thread: ThreadId,
        name: &str,
    ) -> Result<ClassId, VmError> {
        if let Some(id) = self.registry.id_of(name) {
            return Ok(id);
        }
        let bytes = self
            .classpath
            .get(name)
            .cloned()
            .ok_or_else(|| VmError::ClassNotFound(name.to_owned()))?;
        // ClassFileLoadHook: the sink may rewrite the bytes (dynamic
        // instrumentation, §IV).
        // Hook delivery costs like any other JVMTI event.
        let bytes = if self.mask.contains(EventType::ClassFileLoadHook) {
            self.dispatch(thread, EventType::ClassFileLoadHook, |sink, _, _| {
                sink.class_file_load(name, &bytes)
            })
            .flatten()
            .unwrap_or(bytes)
        } else {
            bytes
        };
        // Fault plane: hand the decoder a truncated byte stream. Any strict
        // prefix of a well-formed classfile fails to decode (the codec
        // consumes the stream exactly), so this degrades deterministically
        // to a `ClassFormat` error — surfaced to Java code as a linkage
        // error — never to a panic.
        let bytes = match self.fault(FaultSite::ClassBytes) {
            Some(entropy) if !bytes.is_empty() => {
                let cut = (entropy % bytes.len() as u64) as usize;
                bytes[..cut].to_vec()
            }
            _ => bytes,
        };
        let class = codec::decode(&bytes).map_err(|cause| VmError::ClassFormat {
            class: name.to_owned(),
            cause,
        })?;
        if class.name() != name {
            return Err(VmError::ClassFormat {
                class: name.to_owned(),
                cause: jvmsim_classfile::ClassfileError::Invalid(format!(
                    "classpath entry {name} defines {}",
                    class.name()
                )),
            });
        }
        let facts = jvmsim_classfile::validate::validate_class(&class).map_err(|cause| {
            VmError::ClassFormat {
                class: name.to_owned(),
                cause,
            }
        })?;
        // Link the superclass first.
        if let Some(s) = class.super_name() {
            self.ensure_loaded_on(thread, s)?;
        }
        let id = self.registry.define(class, facts)?;
        self.stats.classes_loaded += 1;
        self.run_clinit(thread, id)?;
        Ok(id)
    }

    fn run_clinit(&mut self, thread: ThreadId, id: ClassId) -> Result<(), VmError> {
        {
            let rc = self.registry.get_mut(id);
            if rc.clinit_started {
                return Ok(());
            }
            rc.clinit_started = true;
        }
        let mid = self
            .registry
            .find_method(id, CLINIT, "()V")
            .map(|index| MethodId { class: id, index });
        if let Some(mid) = mid {
            // An exception escaping <clinit> is fatal for the class; the
            // JVM throws ExceptionInInitializerError. We surface it as a
            // linkage error.
            if let Err(t) = self.invoke(thread, mid, &[]) {
                let info = self.describe_exception(t);
                return Err(VmError::ClassFormat {
                    class: self.registry.get(id).name.clone(),
                    cause: jvmsim_classfile::ClassfileError::Invalid(format!(
                        "<clinit> threw {info}"
                    )),
                });
            }
        }
        Ok(())
    }

    // --------------------------------------------------------- exceptions

    /// Allocate an exception object of `class` with `message` and wrap it
    /// for throwing. Unknown classes are defined on the fly as subclasses
    /// of `java/lang/RuntimeException` (so agent/native code can always
    /// throw).
    pub fn throw_new(&mut self, thread: ThreadId, class: &str, message: &str) -> JThrow {
        let id = match self.registry.id_of(class) {
            Some(id) => id,
            None => match self.ensure_loaded(class) {
                Ok(id) => id,
                Err(_) => {
                    let mut cb = ClassBuilder::new(class);
                    cb.extends("java/lang/RuntimeException");
                    let synthetic = cb.finish().expect("synthetic exception class");
                    self.stats.classes_loaded += 1;
                    self.registry
                        .define(synthetic, Vec::new())
                        .expect("synthetic exception define")
                }
            },
        };
        let msg_ref = self.heap.intern_string(message);
        let defaults = self.registry.get(id).field_defaults();
        let obj = self.heap.alloc_instance(id, defaults);
        self.stats.allocations += 1;
        if let Some(slot) = self.registry.resolve_instance_field(id, "message") {
            if let HeapObject::Instance { fields, .. } = self.heap.get_mut(obj) {
                fields[slot] = Value::Ref(msg_ref);
            }
        }
        // Exception objects are allocations too: attributed to a synthetic
        // `<throw>` site on the thrown class (no bytecode site exists).
        self.fire_allocation(thread, obj, class, "<throw>", 0);
        JThrow::new(obj)
    }

    /// Extract a displayable snapshot of a thrown exception.
    pub fn describe_exception(&self, t: JThrow) -> ExceptionInfo {
        match self.heap.get(t.exception) {
            HeapObject::Instance { class, fields } => {
                let rc = self.registry.get(*class);
                let message = self
                    .registry
                    .resolve_instance_field(*class, "message")
                    .and_then(|slot| fields.get(slot))
                    .and_then(|v| match v {
                        Value::Ref(r) => self.heap.as_str(*r).map(str::to_owned),
                        _ => None,
                    });
                ExceptionInfo {
                    class_name: rc.name.clone(),
                    message,
                }
            }
            other => ExceptionInfo {
                class_name: format!("<non-instance throwable {other:?}>"),
                message: None,
            },
        }
    }

    /// Does `sub`'s superclass chain (inclusive) contain `ancestor_name`?
    pub fn is_subclass_of(&self, sub: ClassId, ancestor_name: &str) -> bool {
        let mut cur = Some(sub);
        while let Some(id) = cur {
            let rc = self.registry.get(id);
            if rc.name == ancestor_name {
                return true;
            }
            cur = rc.super_id;
        }
        false
    }

    // --------------------------------------------------------------- run

    /// Execute `class.method(args)` on the main thread, then any spawned
    /// threads, then fire `VMDeath`. The canonical whole-program entry.
    ///
    /// Every thread's initial method is invoked **through the JNI
    /// invocation interface**, as on a real JVM — so agents that intercept
    /// the `Call*Method*` table observe each thread's first native→bytecode
    /// transition, and linkage problems surface as Java-level errors
    /// (`NoClassDefFoundError` / `NoSuchMethodError`) recorded in that
    /// thread's outcome.
    ///
    /// # Errors
    ///
    /// Reserved for machine-level failures; entry-point and linkage
    /// problems are reported in the outcome, not as `VmError`. (Use
    /// [`Vm::call_static`] for the strict-linkage variant.)
    pub fn run(
        &mut self,
        class: &str,
        method: &str,
        descriptor: &str,
        args: Vec<Value>,
    ) -> Result<RunOutcome, VmError> {
        let main = self.ensure_main_thread();
        // The primordial thread gets no JVMTI ThreadStart, but the trace
        // records it so every thread's timeline has a start marker.
        self.trace_emit(main, TraceEventKind::ThreadStart, None);
        let main_result = self.run_entry_via_jni(main, class, method, descriptor, args);
        self.threads[main.index()].result = Some(main_result.clone());
        self.fire_thread_end(main);
        self.trace_emit(main, TraceEventKind::ThreadEnd, None);
        self.publish(main);

        // Run spawned threads to completion, FIFO (they may spawn more).
        // Each enters through the JNI interface like main; a linkage
        // failure in one thread kills that thread (an uncaught
        // NoClassDefFoundError), not the whole VM.
        while let Some(p) = self.pending.pop_front() {
            let tid = self.create_thread(&p.name);
            self.fire_thread_start(tid);
            self.trace_emit(tid, TraceEventKind::ThreadStart, None);
            let res = self.run_entry_via_jni(tid, &p.class, &p.method, &p.descriptor, p.args);
            self.threads[tid.index()].result = Some(res);
            self.fire_thread_end(tid);
            self.trace_emit(tid, TraceEventKind::ThreadEnd, None);
            self.publish(tid);
        }
        self.fire_vm_death();
        // VMDeath folds may still charge (agent TLS removal): publish every
        // thread once more so the registries hold the final counts.
        for thread in self.threads.iter().map(ThreadInfo::id) {
            self.publish(thread);
        }

        let threads = self
            .threads
            .iter()
            .map(|t| ThreadOutcome {
                name: t.name.clone(),
                cycles: t.cycles(),
                result: t.result.clone().unwrap_or(Ok(Value::Null)),
            })
            .collect();
        Ok(RunOutcome {
            main: main_result,
            threads,
            total_cycles: self.pcl.total_cycles(),
            stats: self.stats,
        })
    }

    fn run_entry(
        &mut self,
        thread: ThreadId,
        class: &str,
        method: &str,
        descriptor: &str,
        args: Vec<Value>,
    ) -> Result<Result<Value, ExceptionInfo>, VmError> {
        let cid = self.ensure_loaded_on(thread, class)?;
        let mid = self
            .registry
            .resolve_method(cid, method, descriptor)
            .ok_or_else(|| VmError::MethodNotFound {
                class: class.to_owned(),
                signature: format!("{method}{descriptor}"),
            })?;
        if !self.registry.method(mid).is_static() {
            return Err(VmError::BadEntryPoint(format!(
                "{class}.{method}{descriptor} must be static"
            )));
        }
        Ok(match self.invoke(thread, mid, &args) {
            Ok(v) => Ok(v),
            Err(t) => Err(self.describe_exception(t)),
        })
    }

    /// Invoke a thread's initial method **through the JNI invocation
    /// interface**, as a real JVM does (the launcher calls `main` via
    /// `CallStaticVoidMethod`; `Thread.start` enters `run()` from native
    /// code). This is what lets IPA's intercepted `Call*Method*` wrappers
    /// observe the native→bytecode transition at thread start — without
    /// it, a thread that never touches native code would be accounted
    /// 100% native (the `inNative = true` initial state would never flip).
    fn run_entry_via_jni(
        &mut self,
        thread: ThreadId,
        class: &str,
        method: &str,
        descriptor: &str,
        args: Vec<Value>,
    ) -> Result<Value, ExceptionInfo> {
        use crate::jni::{CallKind, JniCallKey, JniCallSpec, JniEnv, JniRetType, ParamStyle};
        let ret = match descriptor.rsplit(')').next() {
            Some("V") => JniRetType::Void,
            Some("F") => JniRetType::Float,
            Some(r) if r.starts_with('L') || r.starts_with('[') => JniRetType::Object,
            _ => JniRetType::Int,
        };
        let spec = JniCallSpec {
            key: JniCallKey {
                kind: CallKind::Static,
                style: ParamStyle::Varargs,
                ret,
            },
            class: class.to_owned(),
            name: method.to_owned(),
            descriptor: descriptor.to_owned(),
            receiver: None,
            args,
        };
        let mut env = JniEnv { vm: self, thread };
        // The launcher's own `CallStaticVoidMethod` marshalling is harness
        // overhead, not workload time — attribute its cost accordingly.
        match env.call_in_bucket(&spec, Some(Bucket::Harness)) {
            Ok(v) => Ok(v),
            Err(t) => Err(self.describe_exception(t)),
        }
    }

    /// One-off static call on the main thread — a convenience for tests and
    /// examples that do not need the full run protocol (no `VMDeath`).
    ///
    /// # Errors
    ///
    /// [`VmError`] on linkage problems; the inner `Result` carries a Java
    /// exception if one escaped.
    pub fn call_static(
        &mut self,
        class: &str,
        method: &str,
        descriptor: &str,
        args: Vec<Value>,
    ) -> Result<Result<Value, ExceptionInfo>, VmError> {
        let thread = self.ensure_main_thread();
        let result = self.run_entry(thread, class, method, descriptor, args);
        self.publish(thread);
        result
    }

    /// Exchange `stack` with the one parked in `thread`'s record.
    pub(crate) fn swap_stack(&mut self, thread: ThreadId, stack: &mut ThreadStack) {
        std::mem::swap(&mut self.threads[thread.index()].stack, stack);
    }

    /// Are method entry/exit events dispatched to a sink (at least one of
    /// them delivered)?
    pub(crate) fn method_events_on(&self) -> bool {
        self.mask.method_events() && self.sink.is_some()
    }

    pub(crate) fn loaded_libraries(&self) -> &[NativeLibrary] {
        &self.loaded_libraries
    }

    /// Cached binding: the function plus whether its library is exempt
    /// from fault injection (agent instrumentation infrastructure).
    pub(crate) fn native_binding(&self, mid: MethodId) -> Option<(NativeFn, bool)> {
        self.native_bindings.get(&mid).cloned()
    }

    pub(crate) fn cache_native_binding(&mut self, mid: MethodId, f: NativeFn, fault_exempt: bool) {
        self.native_bindings.insert(mid, (f, fault_exempt));
    }
}
