//! JNI analog: native libraries, symbol mangling, and the native-code view
//! of the VM ([`JniEnv`]).
//!
//! Native methods are Rust closures registered in a [`NativeLibrary`] under
//! their JNI-mangled symbol (`Java_pkg_Class_method`). A library becomes
//! visible to resolution once loaded with [`crate::Vm::load_native_library`]
//! — the analogue of `System.loadLibrary` (§II-A).
//!
//! Native→Java calls go through the [`table::JniFunctionTable`], the
//! interception point the paper's IPA exploits.

pub mod table;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::events::ThreadId;
use crate::throw::JThrow;
use crate::value::{ObjRef, Value};
use crate::vm::{ThreadInfo, Vm};

pub use table::{
    CallKind, JniCallKey, JniCallSpec, JniEntryFn, JniFunctionTable, JniRetType, ParamStyle,
};

/// Result of a native method or JNI call.
pub type JniResult = Result<Value, JThrow>;

/// A native method implementation.
pub type NativeFn = Arc<dyn Fn(&mut JniEnv<'_>, &[Value]) -> JniResult + Send + Sync>;

/// Mangle a class + method name into the JNI symbol native libraries export.
///
/// Follows the JNI short-name rules the paper's resolution strategy relies
/// on: `Java_` prefix, `/` becomes `_`, and `_` in names escapes to `_1`.
///
/// ```
/// assert_eq!(
///     jvmsim_vm::jni::mangle("spec/jvm98/Compress", "readBlock"),
///     "Java_spec_jvm98_Compress_readBlock",
/// );
/// assert_eq!(jvmsim_vm::jni::mangle("a/B", "do_it"), "Java_a_B_do_1it");
/// ```
pub fn mangle(class: &str, method: &str) -> String {
    let mut out = String::from("Java_");
    for part in [class, "/", method] {
        for c in part.chars() {
            match c {
                '/' => out.push('_'),
                '_' => out.push_str("_1"),
                c => out.push(c),
            }
        }
    }
    out
}

/// A loadable native code library — the analogue of a `.so`/`.dll` JNI
/// library.
#[derive(Clone)]
pub struct NativeLibrary {
    name: String,
    symbols: HashMap<String, NativeFn>,
    fault_exempt: bool,
}

impl fmt::Debug for NativeLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeLibrary")
            .field("name", &self.name)
            .field("symbols", &self.symbols.len())
            .field("fault_exempt", &self.fault_exempt)
            .finish()
    }
}

impl NativeLibrary {
    /// Create an empty library.
    pub fn new(name: impl Into<String>) -> Self {
        NativeLibrary {
            name: name.into(),
            symbols: HashMap::new(),
            fault_exempt: false,
        }
    }

    /// Exempt this library's natives from fault injection. Agent bridge
    /// libraries (the J2N/N2J probes) are measurement *infrastructure*:
    /// real JVMTI agent code runs outside the Java exception machinery,
    /// so the fault plane targets application and JDK natives only —
    /// injecting an unwind into a probe would merely simulate a broken
    /// profiler, which no accounting can (or should) survive.
    pub fn exempt_from_faults(&mut self) -> &mut Self {
        self.fault_exempt = true;
        self
    }

    /// Is this library exempt from fault injection?
    pub fn is_fault_exempt(&self) -> bool {
        self.fault_exempt
    }

    /// Library name (as passed to `System.loadLibrary`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of exported symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Is the library empty?
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Export `f` under a raw symbol name.
    pub fn register_symbol(
        &mut self,
        symbol: impl Into<String>,
        f: impl Fn(&mut JniEnv<'_>, &[Value]) -> JniResult + Send + Sync + 'static,
    ) -> &mut Self {
        self.symbols.insert(symbol.into(), Arc::new(f));
        self
    }

    /// Export `f` as the implementation of `class.method` (mangles the
    /// symbol for you).
    pub fn register_method(
        &mut self,
        class: &str,
        method: &str,
        f: impl Fn(&mut JniEnv<'_>, &[Value]) -> JniResult + Send + Sync + 'static,
    ) -> &mut Self {
        self.register_symbol(mangle(class, method), f)
    }

    /// Look up an exported symbol.
    pub fn lookup(&self, symbol: &str) -> Option<NativeFn> {
        self.symbols.get(symbol).map(Arc::clone)
    }

    /// Exported symbol names (diagnostics).
    pub fn symbols(&self) -> impl Iterator<Item = &str> {
        self.symbols.keys().map(String::as_str)
    }
}

/// The environment handed to native code — the `JNIEnv*` analogue.
///
/// Gives native methods cycle-charged access to the VM: doing simulated
/// work, reading and writing arrays and strings, calling back into Java
/// through the JNI function table (which agents may have intercepted), and
/// throwing exceptions.
pub struct JniEnv<'a> {
    pub(crate) vm: &'a mut Vm,
    pub(crate) thread: ThreadId,
}

impl fmt::Debug for JniEnv<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JniEnv")
            .field("thread", &self.thread)
            .finish()
    }
}

impl<'a> JniEnv<'a> {
    /// The thread this native code runs on.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The record of the thread this native code runs on (what agent
    /// probes and interceptors charge and keep their per-thread state in).
    pub fn thread_info(&self) -> &ThreadInfo {
        self.vm.thread_info(self.thread)
    }

    /// Burn `cycles` of native work on this thread's clock — the simulated
    /// equivalent of the native library actually computing something.
    pub fn work(&mut self, cycles: u64) {
        self.vm.charge(self.thread, cycles);
        self.vm.stats.native_cycles += cycles;
        // Timer samples land mid-native-work, attributed to native code.
        self.vm.poll_samples(self.thread, true);
    }

    /// This VM's `T`, created with `T::default()` on first use: where a
    /// native library keeps its statics. Like a real library's statics it
    /// lives as long as the VM, so every VM built from one program starts
    /// from the same state. Host-side state: reaching it charges no cycle.
    /// Give each library its own type, so two never share a value.
    pub fn vm_local<T: Default + Send + 'static>(&mut self) -> &mut T {
        let statics = &mut self.vm.native_statics;
        if !statics.iter().any(|s| s.is::<T>()) {
            statics.push(Box::<T>::default());
        }
        let slot = statics.iter_mut().find_map(|s| s.downcast_mut());
        slot.expect("pushed above")
    }

    /// Escape hatch to the whole VM (used by builtins such as thread
    /// spawning; ordinary workload natives keep their state in
    /// [`JniEnv::vm_local`] instead).
    pub fn vm(&mut self) -> &mut Vm {
        self.vm
    }

    // ------------------------------------------------------------- calls

    /// Call back into Java through the named JNI invocation function.
    ///
    /// This charges the JNI call cost, looks up the (possibly intercepted)
    /// table entry, and runs it — exactly the path the paper's N2J
    /// transitions take.
    ///
    /// # Errors
    ///
    /// Propagates any Java exception thrown by the callee, or an
    /// `java/lang/InternalError` for a return-type/family mismatch or an
    /// unresolvable target.
    pub fn call(&mut self, spec: &JniCallSpec) -> JniResult {
        self.call_in_bucket(spec, None)
    }

    /// [`JniEnv::call`], attributing the JNI invocation cost itself to
    /// `bucket`. Only the `jni_invoke` charge is scoped: the callee runs in
    /// whatever bucket is otherwise current, so the launcher's
    /// harness-bucket entry call does not swallow the workload's cycles.
    pub(crate) fn call_in_bucket(
        &mut self,
        spec: &JniCallSpec,
        bucket: Option<jvmsim_metrics::Bucket>,
    ) -> JniResult {
        self.vm.stats.jni_upcalls += 1;
        let cost = self.vm.cost().jni_invoke;
        let info = self.thread_info();
        info.incr(jvmsim_metrics::CounterId::JniUpcalls);
        {
            let _scope = bucket.map(|b| info.enter(b));
            info.charge(cost);
        }
        // The JNI function's own marshalling is native-code time.
        self.vm.stats.native_cycles += cost;
        let entry = self.vm.jni_table().get(spec.key);
        let result = entry(self, spec);
        // Fault plane: materialise a pending exception at the return of
        // the (possibly intercepted) Call<Type>Method function. By this
        // point any N2J_End bracket installed by an interceptor has
        // already closed, so this models native code discovering a pending
        // exception mid-transition and unwinding with it.
        if result.is_ok()
            && self
                .vm
                .fault(jvmsim_faults::FaultSite::NativePendingThrow)
                .is_some()
        {
            return Err(self.throw_new(
                "jvmsim/faults/InjectedPendingException",
                "fault plane: pending exception at JNI call return",
            ));
        }
        result
    }

    /// Convenience: `CallStatic<ret>Method` with the given style.
    ///
    /// # Errors
    ///
    /// See [`JniEnv::call`].
    pub fn call_static(
        &mut self,
        ret: JniRetType,
        style: ParamStyle,
        class: &str,
        name: &str,
        descriptor: &str,
        args: &[Value],
    ) -> JniResult {
        self.call(&JniCallSpec {
            key: JniCallKey {
                kind: CallKind::Static,
                style,
                ret,
            },
            class: class.to_owned(),
            name: name.to_owned(),
            descriptor: descriptor.to_owned(),
            receiver: None,
            args: args.to_vec(),
        })
    }

    /// The uninstrumented invocation path used by default table entries.
    /// Interceptors call the original entry rather than this.
    ///
    /// # Errors
    ///
    /// Propagates callee exceptions; raises `java/lang/InternalError` on a
    /// return-family mismatch and `java/lang/NoSuchMethodError` on a bad
    /// target.
    pub fn invoke_raw(&mut self, spec: &JniCallSpec) -> JniResult {
        self.vm.invoke_from_jni(self.thread, spec)
    }

    // ------------------------------------------------------------- heap

    /// Allocate and intern a string.
    pub fn new_string(&mut self, s: &str) -> ObjRef {
        let before = self.vm.heap().len();
        let r = self.vm.heap_mut().intern_string(s);
        // Interning allocates only on a miss.
        if self.vm.heap().len() > before {
            self.vm
                .fire_allocation(self.thread, r, "<jni>", "NewString", 0);
        }
        r
    }

    /// Allocate a fresh (non-interned) string, attributing the allocation
    /// to the synthetic native site `(site_class, site_method)` — what the
    /// built-in `java/lang/String` natives use so the ALLOC agent sees
    /// their allocations like any bytecode site's.
    pub fn alloc_string_at(
        &mut self,
        s: impl Into<String>,
        site_class: &str,
        site_method: &str,
    ) -> ObjRef {
        let r = self.vm.heap_mut().alloc_string(s);
        self.vm.stats.allocations += 1;
        self.vm
            .fire_allocation(self.thread, r, site_class, site_method, 0);
        r
    }

    /// Read a string's contents.
    pub fn get_string(&self, r: ObjRef) -> Option<String> {
        self.vm.heap().as_str(r).map(str::to_owned)
    }

    /// Read an int-array element.
    ///
    /// # Errors
    ///
    /// Throws `java/lang/ArrayIndexOutOfBoundsException` or
    /// `java/lang/InternalError` on a non-int-array reference.
    pub fn get_int_element(&mut self, array: ObjRef, index: usize) -> Result<i64, JThrow> {
        match self.vm.heap().get(array) {
            crate::heap::HeapObject::IntArray(v) => v.get(index).copied().ok_or(()),
            _ => Err(()),
        }
        .map_err(|()| {
            self.vm.throw_new(
                self.thread,
                "java/lang/InternalError",
                "bad array access from native code",
            )
        })
    }

    /// Write an int-array element.
    ///
    /// # Errors
    ///
    /// As [`JniEnv::get_int_element`].
    pub fn set_int_element(
        &mut self,
        array: ObjRef,
        index: usize,
        value: i64,
    ) -> Result<(), JThrow> {
        let ok = match self.vm.heap_mut().get_mut(array) {
            crate::heap::HeapObject::IntArray(v) if index < v.len() => {
                v[index] = value;
                true
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(self.vm.throw_new(
                self.thread,
                "java/lang/InternalError",
                "bad array store from native code",
            ))
        }
    }

    /// Length of any array object.
    pub fn array_len(&self, array: ObjRef) -> Option<usize> {
        self.vm.heap().get(array).array_len()
    }

    // ------------------------------------------------------------- misc

    /// Construct (and return, for `?`-style raising) a new exception.
    pub fn throw_new(&mut self, class: &str, message: &str) -> JThrow {
        self.vm.throw_new(self.thread, class, message)
    }

    /// Read this thread's cycle counter (what PCL ultimately reads).
    pub fn thread_cycles(&self) -> u64 {
        self.vm.thread_cycles(self.thread)
    }

    /// Queue a new VM thread running `class.method(args)`; it executes when
    /// the current thread finishes (run-to-completion green threading).
    pub fn spawn_thread(
        &mut self,
        name: &str,
        class: &str,
        method: &str,
        descriptor: &str,
        args: Vec<Value>,
    ) {
        self.vm.spawn_thread(name, class, method, descriptor, args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangling() {
        assert_eq!(mangle("a/B", "f"), "Java_a_B_f");
        assert_eq!(
            mangle("java/lang/System", "arraycopy"),
            "Java_java_lang_System_arraycopy"
        );
        assert_eq!(mangle("a/B", "do_it"), "Java_a_B_do_1it");
        assert_eq!(mangle("p_q/C", "m"), "Java_p_1q_C_m");
    }

    #[test]
    fn library_registration_and_lookup() {
        let mut lib = NativeLibrary::new("demo");
        assert!(lib.is_empty());
        lib.register_method("a/B", "f", |_env, _args| Ok(Value::Int(1)));
        lib.register_symbol("Java_a_B_g", |_env, _args| Ok(Value::Null));
        assert_eq!(lib.len(), 2);
        assert!(lib.lookup("Java_a_B_f").is_some());
        assert!(lib.lookup("Java_a_B_g").is_some());
        assert!(lib.lookup("Java_a_B_h").is_none());
        assert_eq!(lib.name(), "demo");
        let mut syms: Vec<_> = lib.symbols().collect();
        syms.sort_unstable();
        assert_eq!(syms, vec!["Java_a_B_f", "Java_a_B_g"]);
    }
}
