//! The interpreter's cold paths: what the dispatch loop in `prepared.rs`
//! calls out to. Tier compiles and deopts, native invocation and
//! binding, JNI `Call*Method*` upcalls (each starts a nested loop
//! activation through `Vm::invoke`), the resolvers behind an
//! inline-cache miss, and exception-handler lookup.

use jvmsim_faults::FaultSite;
use jvmsim_metrics::{Bucket, CounterId};
use jvmsim_tiers::Tier;

use crate::events::ThreadId;
use crate::heap::HeapObject;
use crate::jni::{mangle, JniCallSpec, JniEnv, NativeFn};
use crate::klass::{ClassId, MethodId};
use crate::throw::JThrow;
use crate::value::Value;
use crate::vm::Vm;

impl Vm {
    // ------------------------------------------------------ tier pipeline

    /// Compile `mid` at `target`, charging the compile cost to the calling
    /// thread under the tier's compile bucket. Returns `false` when the
    /// fault plane aborts the compile: half the cost is charged (the work
    /// thrown away), the invocation counter resets so the method must
    /// re-earn promotion, and the method stays at its current tier.
    pub(crate) fn tier_compile(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        target: Tier,
        osr: bool,
    ) -> bool {
        let insns = self.registry.insn_count(mid);
        let full = self.cost().tiers.compile_cost(target, insns);
        let aborted = self.faults_enabled() && self.fault(FaultSite::TierCompileAbort).is_some();
        let charged = if aborted { full / 2 } else { full };
        let bucket = match target {
            Tier::C1 => Bucket::C1Compile,
            _ => Bucket::C2Compile,
        };
        {
            let _compile = self.thread_info(thread).enter(bucket);
            self.charge(thread, charged);
        }
        match target {
            Tier::C1 => self.stats.c1_compile_cycles += charged,
            _ => self.stats.c2_compile_cycles += charged,
        }
        if aborted {
            self.stats.tier_compile_aborts += 1;
            self.metric_incr(thread, CounterId::TierCompileAborts);
            self.prepared(mid).invocations.set(0);
            return false;
        }
        self.prepared(mid).tier.set(target);
        match target {
            Tier::C1 => {
                self.stats.c1_compiles += 1;
                self.metric_incr(thread, CounterId::C1Compiles);
            }
            _ => {
                self.stats.c2_compiles += 1;
                self.metric_incr(thread, CounterId::C2Compiles);
            }
        }
        let kind = match target {
            Tier::C1 => crate::events::TraceEventKind::TierUpC1,
            _ => crate::events::TraceEventKind::TierUpC2,
        };
        self.trace_emit(thread, kind, Some(mid));
        if osr {
            self.stats.osrs += 1;
            self.metric_incr(thread, CounterId::OsrReplacements);
            self.trace_emit(thread, crate::events::TraceEventKind::Osr, Some(mid));
        }
        true
    }

    /// Deoptimize `mid`: an exception is unwinding out of one of its
    /// compiled activations, so the compiled state is discarded and the
    /// method returns to the interpreter to re-earn promotion.
    pub(crate) fn deopt(&mut self, thread: ThreadId, mid: MethodId) {
        let body = self.prepared(mid);
        body.tier.set(Tier::Interp);
        body.invocations.set(0);
        self.stats.deopts += 1;
        self.metric_incr(thread, CounterId::Deopts);
        self.trace_emit(thread, crate::events::TraceEventKind::Deopt, Some(mid));
    }

    // ----------------------------------------------------------- natives

    pub(crate) fn invoke_native(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        args: &[Value],
    ) -> Result<Value, JThrow> {
        self.stats.native_calls += 1;
        self.metric_incr(thread, jvmsim_metrics::CounterId::NativeCalls);
        // Resolve before charging so we know whether the target is agent
        // infrastructure: dispatching into a fault-exempt (agent bridge)
        // native is probe overhead, not workload time, and its cycles are
        // attributed to the configured agent bucket.
        let (f, fault_exempt) = self.resolve_native(thread, mid)?;
        // The scope spans the native call, which borrows the VM mutably,
        // so the previous bucket is restored by hand after it returns.
        let agent_prev =
            fault_exempt.then(|| self.thread_info(thread).swap_bucket(self.agent_bucket()));
        let dispatch = self.cost().native_dispatch;
        self.charge(thread, dispatch);
        self.stats.native_cycles += dispatch;
        // Fault plane: a clock stall on the native dispatch path — the
        // native call takes anomalously long, visible to the agents as a
        // large J2N interval. Accounting must absorb it, not diverge.
        // Agent bridge natives are exempt: faults target application and
        // JDK natives, never the measurement infrastructure itself.
        if !fault_exempt {
            if let Some(entropy) = self.fault(FaultSite::ClockStall) {
                let stall = entropy % 50_000 + 1;
                self.charge(thread, stall);
                self.stats.native_cycles += stall;
            }
        }
        let mut env = JniEnv { vm: self, thread };
        let result = f(&mut env, args);
        if let Some(prev) = agent_prev {
            self.thread_info(thread).swap_bucket(prev);
        }
        // Fault plane: force an exception to unwind out of this native
        // frame at the instant it would have returned normally — the
        // abnormal path the paper's try/finally wrapper (§IV) must keep
        // balanced (J2N_End still fires on the exceptional exit).
        if !fault_exempt && result.is_ok() && self.fault(FaultSite::NativeUnwind).is_some() {
            return Err(self.throw_new(
                thread,
                "jvmsim/faults/InjectedNativeUnwind",
                "fault plane: forced unwind out of native method",
            ));
        }
        result
    }

    /// Bind a native method to a library symbol, honouring the JVMTI 1.1
    /// prefix-retry rule: if direct resolution fails and the method name
    /// starts with a registered prefix, retry with the prefix stripped.
    fn resolve_native(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
    ) -> Result<(NativeFn, bool), JThrow> {
        if let Some(binding) = self.native_binding(mid) {
            return Ok(binding);
        }
        let (class_name, method_name) = {
            let rc = self.registry.get(mid.class);
            (
                rc.name.clone(),
                rc.methods[mid.index as usize].name().to_owned(),
            )
        };
        let mut tried = Vec::new();
        let mut candidates = vec![mangle(&class_name, &method_name)];
        for prefix in self.native_prefixes() {
            if let Some(stripped) = method_name.strip_prefix(prefix.as_str()) {
                candidates.push(mangle(&class_name, stripped));
            }
        }
        for symbol in candidates {
            for lib in self.loaded_libraries() {
                if let Some(f) = lib.lookup(&symbol) {
                    let fault_exempt = lib.is_fault_exempt();
                    self.cache_native_binding(mid, f.clone(), fault_exempt);
                    return Ok((f, fault_exempt));
                }
            }
            tried.push(symbol);
        }
        Err(self.throw_new(
            thread,
            "java/lang/UnsatisfiedLinkError",
            &format!("{class_name}.{method_name} (tried {})", tried.join(", ")),
        ))
    }

    // ------------------------------------------------------- JNI upcalls

    /// Perform the invocation a JNI `Call*Method*` function names — the
    /// default behaviour of every function-table entry.
    pub(crate) fn invoke_from_jni(
        &mut self,
        thread: ThreadId,
        spec: &JniCallSpec,
    ) -> Result<Value, JThrow> {
        use crate::jni::CallKind;
        let (mid, args) = match spec.key.kind {
            CallKind::Static => {
                let cid = self.ensure_loaded_or_throw(thread, &spec.class)?;
                let mid = self.resolve_or_throw(thread, cid, &spec.name, &spec.descriptor)?;
                if !self.registry.method(mid).is_static() {
                    return Err(self.throw_new(
                        thread,
                        "java/lang/NoSuchMethodError",
                        &format!("{}.{} is not static", spec.class, spec.name),
                    ));
                }
                (mid, spec.args.clone())
            }
            CallKind::Virtual => {
                let recv = spec.receiver.unwrap_or(Value::Null);
                let obj = match recv.as_ref_opt() {
                    Some(r) => r,
                    None => {
                        return Err(self.throw_new(
                            thread,
                            "java/lang/NullPointerException",
                            "null receiver in JNI call",
                        ))
                    }
                };
                let dyn_class = match self.heap().get(obj) {
                    HeapObject::Instance { class, .. } => *class,
                    _ => {
                        return Err(self.throw_new(
                            thread,
                            "java/lang/InternalError",
                            "JNI receiver is not an object instance",
                        ))
                    }
                };
                let mid = self.resolve_or_throw(thread, dyn_class, &spec.name, &spec.descriptor)?;
                let mut args = Vec::with_capacity(spec.args.len() + 1);
                args.push(recv);
                args.extend_from_slice(&spec.args);
                (mid, args)
            }
            CallKind::Nonvirtual => {
                let recv = spec.receiver.unwrap_or(Value::Null);
                if recv.as_ref_opt().is_none() {
                    return Err(self.throw_new(
                        thread,
                        "java/lang/NullPointerException",
                        "null receiver in JNI call",
                    ));
                }
                let cid = self.ensure_loaded_or_throw(thread, &spec.class)?;
                let mid = self.resolve_or_throw(thread, cid, &spec.name, &spec.descriptor)?;
                let mut args = Vec::with_capacity(spec.args.len() + 1);
                args.push(recv);
                args.extend_from_slice(&spec.args);
                (mid, args)
            }
        };
        // Arity check: a JNI caller passing the wrong number of arguments
        // must raise a Java-level error, not crash the VM.
        {
            let m = self.registry.method(mid);
            let expected = m.descriptor().param_slots() + usize::from(!m.is_static());
            if args.len() != expected {
                return Err(self.throw_new(
                    thread,
                    "java/lang/InternalError",
                    &format!(
                        "{}.{}{} called through JNI with {} argument(s), expected {}",
                        spec.class,
                        spec.name,
                        spec.descriptor,
                        args.len(),
                        expected
                    ),
                ));
            }
        }
        // Return-family check (`CallIntMethod` must target an int-returning
        // method, etc.).
        if !spec
            .key
            .ret
            .matches(self.registry.method(mid).descriptor().return_type())
        {
            return Err(self.throw_new(
                thread,
                "java/lang/InternalError",
                &format!(
                    "{} used for {}.{}{}",
                    spec.key.function_name(),
                    spec.class,
                    spec.name,
                    spec.descriptor
                ),
            ));
        }
        self.invoke(thread, mid, &args)
    }

    pub(crate) fn ensure_loaded_or_throw(
        &mut self,
        thread: ThreadId,
        class: &str,
    ) -> Result<ClassId, JThrow> {
        self.ensure_loaded_on(thread, class)
            .map_err(|e| self.throw_new(thread, "java/lang/NoClassDefFoundError", &e.to_string()))
    }

    fn resolve_or_throw(
        &mut self,
        thread: ThreadId,
        cid: ClassId,
        name: &str,
        descriptor: &str,
    ) -> Result<MethodId, JThrow> {
        self.registry
            .resolve_method(cid, name, descriptor)
            .ok_or_else(|| {
                let class = self.registry.get(cid).name.clone();
                self.throw_new(
                    thread,
                    "java/lang/NoSuchMethodError",
                    &format!("{class}.{name}{descriptor}"),
                )
            })
    }

    // -------------------------------------------------------- call sites
    //
    // Cold paths: the execution loop calls these only on an inline-cache
    // miss and caches what they return in the op's slot.

    /// Resolve the call site at pool index `idx` of class `cur`. With no
    /// `receiver` it is an `invokestatic`, resolved against the class the
    /// site names (loaded if needed); otherwise an `invokevirtual`,
    /// resolved against the receiver's dynamic class.
    pub(crate) fn call_target(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
        receiver: Option<ClassId>,
    ) -> Result<MethodId, JThrow> {
        let cs = &self.registry.get(cur).callsites[&idx];
        let (name, descriptor) = (cs.name_sym, cs.desc_sym);
        let searched = match receiver.or_else(|| self.registry.id_of(&cs.class)) {
            Some(cid) => cid,
            None => {
                let class = cs.class.clone();
                self.ensure_loaded_or_throw(thread, &class)?
            }
        };
        let found = self.registry.resolve_method_sym(searched, name, descriptor);
        if let Some(mid) = found {
            if self.registry.method(mid).is_static() == receiver.is_none() {
                return Ok(mid);
            }
        }
        // The JVM raises IncompatibleClassChangeError for a method of the
        // wrong kind; the simulator folds it into NoSuchMethodError.
        let cs = &self.registry.get(cur).callsites[&idx];
        let message = match (found, receiver) {
            (None, _) => format!(
                "{}.{}{}",
                self.registry.get(searched).name,
                cs.name,
                cs.descriptor
            ),
            (Some(_), None) => format!("invokestatic of instance method {}.{}", cs.class, cs.name),
            (Some(_), Some(_)) => {
                format!("invokevirtual of static method {}.{}", cs.class, cs.name)
            }
        };
        Err(self.throw_new(thread, "java/lang/NoSuchMethodError", &message))
    }

    pub(crate) fn static_field_target(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
    ) -> Result<(ClassId, usize), JThrow> {
        let fs = self.registry.get(cur).fieldsites[&idx].clone();
        let cid = self.ensure_loaded_or_throw(thread, &fs.class)?;
        self.registry
            .resolve_static_sym(cid, fs.name_sym)
            .ok_or_else(|| {
                self.throw_new(
                    thread,
                    "java/lang/NoSuchFieldError",
                    &format!("static {}.{}", fs.class, fs.name),
                )
            })
    }

    pub(crate) fn instance_field_slot(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
    ) -> Result<usize, JThrow> {
        let fs = self.registry.get(cur).fieldsites[&idx].clone();
        // Resolve against the class the field reference *names* (JVM field
        // resolution is static): a superclass method referencing its own
        // `x` keeps touching the superclass slot even when a subclass
        // shadows the name. Layouts are prefix-preserving, so the declared
        // class's slot index is valid for every subclass instance.
        let cid = self.ensure_loaded_or_throw(thread, &fs.class)?;
        self.registry
            .resolve_instance_field_sym(cid, fs.name_sym)
            .ok_or_else(|| {
                self.throw_new(
                    thread,
                    "java/lang/NoSuchFieldError",
                    &format!("{}.{}", fs.class, fs.name),
                )
            })
    }

    // ---------------------------------------------------------- unwinding

    /// The handler in `body`'s exception table that catches `t` thrown
    /// at `pc`, if any.
    pub(crate) fn find_handler(&self, body: u32, pc: u32, t: JThrow) -> Option<u32> {
        let thrown_class = match self.heap().get(t.exception) {
            HeapObject::Instance { class, .. } => Some(*class),
            _ => None,
        };
        let table = &self.code.bodies[body as usize].exception_table;
        table.iter().find_map(|h| {
            let matches = match (&h.catch_class, thrown_class) {
                _ if pc < h.start || pc >= h.end => false,
                (None, _) => true,
                (Some(catch), Some(cls)) => self.is_subclass_of(cls, catch),
                (Some(_), None) => false,
            };
            matches.then_some(h.handler)
        })
    }
}
