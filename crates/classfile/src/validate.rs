//! Structural bytecode validation.
//!
//! A dataflow pass over each method body in the spirit of the JVM verifier:
//! it simulates the operand stack (with value kinds), follows every branch,
//! and rejects underflow, kind mismatches, inconsistent stack shapes at merge
//! points, out-of-range branch targets and local slots, dangling constant-pool
//! references, malformed exception tables, and bodies that can fall off the
//! end. As a byproduct it records the stack depth on entry to every
//! instruction and the true maximum depth: [`crate::builder::MethodBuilder`]
//! uses the maximum to fill in `max_stack`, and the VM lays out each frame's
//! operand slots from the per-instruction depths.
//!
//! The pass is *structural*, not fully type-safe: local-variable slots are
//! bounds-checked but not kind-tracked (the VM re-checks kinds at runtime).
//! That matches what the paper's tooling needs — instrumentation output must
//! be well-formed, and behavioural equivalence is established by tests, not
//! by the verifier.

use crate::class::{ClassFile, Code, MethodInfo};
use crate::constpool::{Constant, ConstantPool};
use crate::error::ClassfileError;
use crate::insn::{Insn, InsnIndex};
use crate::ty::{ReturnType, Type};

/// The kind of a value on the simulated operand stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VKind {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Object or array reference (or null).
    Ref,
}

impl VKind {
    fn of(ty: &Type) -> VKind {
        match ty {
            Type::Int => VKind::Int,
            Type::Float => VKind::Float,
            Type::Object(_) | Type::Array(_) => VKind::Ref,
        }
    }
}

/// Validation outcome for one method body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeFacts {
    /// Maximum operand-stack depth over all reachable paths.
    pub max_stack: u16,
    /// Operand-stack depth on entry to each instruction, by pc; `None`
    /// where no path reaches it.
    pub depths: Vec<Option<u16>>,
}

struct Sim<'a> {
    code: &'a Code,
    pool: &'a ConstantPool,
    method: &'a MethodInfo,
    /// Stack shape at each pc, `None` until a path reaches it.
    states: Vec<Option<Vec<VKind>>>,
    worklist: Vec<InsnIndex>,
    max_stack: usize,
}

impl<'a> Sim<'a> {
    fn err(&self, pc: InsnIndex, msg: impl std::fmt::Display) -> ClassfileError {
        ClassfileError::Invalid(format!(
            "{}.{}: at pc {pc} ({}): {msg}",
            self.method.name(),
            self.method.descriptor_string(),
            self.code
                .insns
                .get(pc as usize)
                .map(|i| i.to_string())
                .unwrap_or_else(|| "<out of range>".into()),
        ))
    }

    fn flow_to(
        &mut self,
        from: InsnIndex,
        to: InsnIndex,
        stack: &[VKind],
    ) -> Result<(), ClassfileError> {
        if (to as usize) >= self.code.insns.len() {
            return Err(self.err(from, format!("branch target @{to} out of range")));
        }
        match &self.states[to as usize] {
            Some(existing) => {
                if existing != stack {
                    return Err(self.err(
                        from,
                        format!(
                            "inconsistent stack at merge point @{to}: {existing:?} vs {stack:?}"
                        ),
                    ));
                }
            }
            None => {
                // Entry depth at a merge target counts toward max_stack
                // even if the first instruction there pops immediately.
                self.max_stack = self.max_stack.max(stack.len());
                self.states[to as usize] = Some(stack.to_vec());
                self.worklist.push(to);
            }
        }
        Ok(())
    }

    fn touch_local(&mut self, pc: InsnIndex, slot: u16) -> Result<(), ClassfileError> {
        if slot >= self.code.max_locals {
            return Err(self.err(
                pc,
                format!(
                    "local slot {slot} out of range (max_locals {})",
                    self.code.max_locals
                ),
            ));
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), ClassfileError> {
        // Entry state: empty stack.
        self.states[0] = Some(Vec::new());
        self.worklist.push(0);
        // Exception handlers start with just the thrown reference.
        for (i, h) in self.code.exception_table.iter().enumerate() {
            if h.start >= h.end || (h.end as usize) > self.code.insns.len() {
                return Err(ClassfileError::Invalid(format!(
                    "{}: exception handler {i} has bad range {}..{}",
                    self.method.name(),
                    h.start,
                    h.end
                )));
            }
            if (h.handler as usize) >= self.code.insns.len() {
                return Err(ClassfileError::Invalid(format!(
                    "{}: exception handler {i} entry @{} out of range",
                    self.method.name(),
                    h.handler
                )));
            }
            let entry = vec![VKind::Ref];
            // The handler receives the thrown reference: depth ≥ 1.
            self.max_stack = self.max_stack.max(1);
            let state = &mut self.states[h.handler as usize];
            match state {
                Some(existing) if *existing != entry => {
                    return Err(ClassfileError::Invalid(format!(
                        "{}: handler @{} reached with stack {existing:?}, expected [Ref]",
                        self.method.name(),
                        h.handler
                    )));
                }
                Some(_) => {}
                None => {
                    *state = Some(entry);
                    self.worklist.push(h.handler);
                }
            }
        }
        while let Some(pc) = self.worklist.pop() {
            self.step(pc)?;
        }
        Ok(())
    }

    fn pop(&self, pc: InsnIndex, stack: &mut Vec<VKind>) -> Result<VKind, ClassfileError> {
        stack
            .pop()
            .ok_or_else(|| self.err(pc, "operand stack underflow"))
    }

    fn pop_kind(
        &self,
        pc: InsnIndex,
        stack: &mut Vec<VKind>,
        want: VKind,
    ) -> Result<(), ClassfileError> {
        let got = self.pop(pc, stack)?;
        if got != want {
            return Err(self.err(pc, format!("expected {want:?} on stack, found {got:?}")));
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, pc: InsnIndex) -> Result<(), ClassfileError> {
        let mut stack = self.states[pc as usize]
            .clone()
            .expect("a worklist pc has a state");
        let insn = self.code.insns[pc as usize].clone();
        use Insn::*;
        use VKind::{Float as F, Int as I, Ref as R};
        match &insn {
            Nop => {}
            IConst(_) => stack.push(I),
            FConst(_) => stack.push(F),
            AConstNull => stack.push(R),
            Ldc(idx) => {
                match self.pool.get(*idx) {
                    Ok(Constant::Utf8(_)) => {}
                    Ok(other) => {
                        return Err(self.err(pc, format!("ldc of non-Utf8 constant {other:?}")))
                    }
                    Err(e) => return Err(self.err(pc, e)),
                }
                stack.push(R);
            }
            ILoad(s) => {
                self.touch_local(pc, *s)?;
                stack.push(I);
            }
            FLoad(s) => {
                self.touch_local(pc, *s)?;
                stack.push(F);
            }
            ALoad(s) => {
                self.touch_local(pc, *s)?;
                stack.push(R);
            }
            IStore(s) => {
                self.touch_local(pc, *s)?;
                self.pop_kind(pc, &mut stack, I)?;
            }
            FStore(s) => {
                self.touch_local(pc, *s)?;
                self.pop_kind(pc, &mut stack, F)?;
            }
            AStore(s) => {
                self.touch_local(pc, *s)?;
                self.pop_kind(pc, &mut stack, R)?;
            }
            Pop => {
                self.pop(pc, &mut stack)?;
            }
            Dup => {
                let top = *stack
                    .last()
                    .ok_or_else(|| self.err(pc, "operand stack underflow"))?;
                stack.push(top);
            }
            Swap => {
                let a = self.pop(pc, &mut stack)?;
                let b = self.pop(pc, &mut stack)?;
                stack.push(a);
                stack.push(b);
            }
            IAdd | ISub | IMul | IDiv | IRem | IShl | IShr | IUShr | IAnd | IOr | IXor => {
                self.pop_kind(pc, &mut stack, I)?;
                self.pop_kind(pc, &mut stack, I)?;
                stack.push(I);
            }
            INeg => {
                self.pop_kind(pc, &mut stack, I)?;
                stack.push(I);
            }
            IInc { local, .. } => self.touch_local(pc, *local)?,
            FAdd | FSub | FMul | FDiv => {
                self.pop_kind(pc, &mut stack, F)?;
                self.pop_kind(pc, &mut stack, F)?;
                stack.push(F);
            }
            FNeg => {
                self.pop_kind(pc, &mut stack, F)?;
                stack.push(F);
            }
            I2F => {
                self.pop_kind(pc, &mut stack, I)?;
                stack.push(F);
            }
            F2I => {
                self.pop_kind(pc, &mut stack, F)?;
                stack.push(I);
            }
            FCmp => {
                self.pop_kind(pc, &mut stack, F)?;
                self.pop_kind(pc, &mut stack, F)?;
                stack.push(I);
            }
            Goto(t) => {
                self.max_stack = self.max_stack.max(stack.len());
                return self.flow_to(pc, *t, &stack);
            }
            If(_, t) => {
                self.pop_kind(pc, &mut stack, I)?;
                self.flow_to(pc, *t, &stack)?;
            }
            IfICmp(_, t) => {
                self.pop_kind(pc, &mut stack, I)?;
                self.pop_kind(pc, &mut stack, I)?;
                self.flow_to(pc, *t, &stack)?;
            }
            IfNull(t) | IfNonNull(t) => {
                self.pop_kind(pc, &mut stack, R)?;
                self.flow_to(pc, *t, &stack)?;
            }
            TableSwitch {
                targets, default, ..
            } => {
                self.pop_kind(pc, &mut stack, I)?;
                self.max_stack = self.max_stack.max(stack.len());
                for t in targets {
                    self.flow_to(pc, *t, &stack)?;
                }
                return self.flow_to(pc, *default, &stack);
            }
            InvokeStatic(idx) | InvokeVirtual(idx) => {
                let mref = self.pool.method_ref(*idx).map_err(|e| self.err(pc, e))?;
                let desc: crate::ty::MethodDescriptor =
                    mref.descriptor.parse().map_err(|e| self.err(pc, e))?;
                for p in desc.params().iter().rev() {
                    self.pop_kind(pc, &mut stack, VKind::of(p))?;
                }
                if matches!(insn, InvokeVirtual(_)) {
                    self.pop_kind(pc, &mut stack, R)?;
                }
                if let ReturnType::Value(t) = desc.return_type() {
                    stack.push(VKind::of(t));
                }
            }
            Return => {
                if self.method.descriptor().return_type().is_value() {
                    return Err(self.err(pc, "void return in a value-returning method"));
                }
                self.max_stack = self.max_stack.max(stack.len());
                return Ok(());
            }
            IReturn | FReturn | AReturn => {
                let want = match insn {
                    IReturn => I,
                    FReturn => F,
                    _ => R,
                };
                self.pop_kind(pc, &mut stack, want)?;
                match self.method.descriptor().return_type() {
                    ReturnType::Value(t) if VKind::of(t) == want => {}
                    other => {
                        return Err(self.err(
                            pc,
                            format!("return kind {want:?} does not match declared {other:?}"),
                        ))
                    }
                }
                self.max_stack = self.max_stack.max(stack.len().max(1));
                return Ok(());
            }
            New(idx) => {
                self.pool.class_name(*idx).map_err(|e| self.err(pc, e))?;
                stack.push(R);
            }
            GetField(idx) | GetStatic(idx) => {
                let fref = self.pool.field_ref(*idx).map_err(|e| self.err(pc, e))?;
                let ty: Type = fref.descriptor.parse().map_err(|e| self.err(pc, e))?;
                if matches!(insn, GetField(_)) {
                    self.pop_kind(pc, &mut stack, R)?;
                }
                stack.push(VKind::of(&ty));
            }
            PutField(idx) | PutStatic(idx) => {
                let fref = self.pool.field_ref(*idx).map_err(|e| self.err(pc, e))?;
                let ty: Type = fref.descriptor.parse().map_err(|e| self.err(pc, e))?;
                self.pop_kind(pc, &mut stack, VKind::of(&ty))?;
                if matches!(insn, PutField(_)) {
                    self.pop_kind(pc, &mut stack, R)?;
                }
            }
            NewArray(_) => {
                self.pop_kind(pc, &mut stack, I)?;
                stack.push(R);
            }
            IALoad | FALoad | AALoad => {
                self.pop_kind(pc, &mut stack, I)?;
                self.pop_kind(pc, &mut stack, R)?;
                stack.push(match insn {
                    IALoad => I,
                    FALoad => F,
                    _ => R,
                });
            }
            IAStore | FAStore | AAStore => {
                let want = match insn {
                    IAStore => I,
                    FAStore => F,
                    _ => R,
                };
                self.pop_kind(pc, &mut stack, want)?;
                self.pop_kind(pc, &mut stack, I)?;
                self.pop_kind(pc, &mut stack, R)?;
            }
            ArrayLength => {
                self.pop_kind(pc, &mut stack, R)?;
                stack.push(I);
            }
            AThrow => {
                self.pop_kind(pc, &mut stack, R)?;
                self.max_stack = self.max_stack.max(stack.len() + 1);
                return Ok(());
            }
        }
        self.max_stack = self.max_stack.max(stack.len());
        // Fall through to the next instruction.
        let next = pc + 1;
        if (next as usize) >= self.code.insns.len() {
            return Err(self.err(pc, "control flow falls off the end of the method"));
        }
        self.flow_to(pc, next, &stack)
    }
}

/// Validate one method body and compute its stack facts: the depth on
/// entry to each instruction and the maximum.
///
/// # Errors
///
/// Returns [`ClassfileError::Invalid`] describing the first structural
/// problem found, or [`ClassfileError::BadConstant`]-rooted failures wrapped
/// in `Invalid` when pool references dangle.
pub fn validate_code(
    pool: &ConstantPool,
    method: &MethodInfo,
    code: &Code,
) -> Result<CodeFacts, ClassfileError> {
    if code.insns.is_empty() {
        return Err(ClassfileError::Invalid(format!(
            "{}: empty code body",
            method.name()
        )));
    }
    if code.insns.len() > InsnIndex::MAX as usize {
        return Err(ClassfileError::Invalid(format!(
            "{}: too many instructions",
            method.name()
        )));
    }
    if (method.arg_slots() as u64) > u64::from(code.max_locals) {
        return Err(ClassfileError::Invalid(format!(
            "{}: max_locals {} smaller than argument slots {}",
            method.name(),
            code.max_locals,
            method.arg_slots()
        )));
    }
    let mut sim = Sim {
        code,
        pool,
        method,
        states: vec![None; code.insns.len()],
        worklist: Vec::new(),
        max_stack: 0,
    };
    sim.run()?;
    let max_stack = u16::try_from(sim.max_stack)
        .map_err(|_| ClassfileError::Invalid(format!("{}: stack too deep", method.name())))?;
    // Every entry depth is at most `max_stack`, so it fits in a `u16`.
    let depths = sim
        .states
        .into_iter()
        .map(|s| s.map(|s| s.len() as u16))
        .collect();
    Ok(CodeFacts { max_stack, depths })
}

/// Validate a whole class: every method body, declared `max_stack` adequacy,
/// and the native/body invariant. Returns each method's facts, parallel to
/// [`ClassFile::methods`] (`None` for a native method).
///
/// # Errors
///
/// Returns the first [`ClassfileError`] found.
pub fn validate_class(class: &ClassFile) -> Result<Vec<Option<CodeFacts>>, ClassfileError> {
    let mut all = Vec::with_capacity(class.methods().len());
    for m in class.methods() {
        match (&m.code, m.is_native()) {
            (None, false) => {
                return Err(ClassfileError::Invalid(format!(
                    "{}.{} is not native but has no code",
                    class.name(),
                    m.name()
                )))
            }
            (Some(_), true) => {
                return Err(ClassfileError::Invalid(format!(
                    "{}.{} is native but has code",
                    class.name(),
                    m.name()
                )))
            }
            (Some(code), false) => {
                let facts = validate_code(&class.pool, m, code)?;
                if facts.max_stack > code.max_stack {
                    return Err(ClassfileError::Invalid(format!(
                        "{}.{}: declared max_stack {} < required {}",
                        class.name(),
                        m.name(),
                        code.max_stack,
                        facts.max_stack
                    )));
                }
                all.push(Some(facts));
            }
            (None, true) => all.push(None),
        }
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ExceptionHandler;
    use crate::flags::MethodFlags;
    use crate::insn::Cond;

    fn method(desc: &str) -> MethodInfo {
        MethodInfo::new(
            "t",
            desc,
            MethodFlags::STATIC,
            Code {
                max_stack: 0,
                max_locals: 0,
                insns: vec![Insn::Return],
                exception_table: vec![],
            },
        )
        .unwrap()
    }

    fn check(desc: &str, max_locals: u16, insns: Vec<Insn>) -> Result<CodeFacts, ClassfileError> {
        check_with(desc, max_locals, insns, vec![], &ConstantPool::new())
    }

    fn check_with(
        desc: &str,
        max_locals: u16,
        insns: Vec<Insn>,
        exception_table: Vec<ExceptionHandler>,
        pool: &ConstantPool,
    ) -> Result<CodeFacts, ClassfileError> {
        let m = method(desc);
        let code = Code {
            max_stack: 0,
            max_locals,
            insns,
            exception_table,
        };
        validate_code(pool, &m, &code)
    }

    #[test]
    fn straight_line_depth() {
        let facts = check(
            "()I",
            0,
            vec![Insn::IConst(1), Insn::IConst(2), Insn::IAdd, Insn::IReturn],
        )
        .unwrap();
        assert_eq!(facts.max_stack, 2);
    }

    #[test]
    fn underflow_rejected() {
        let err = check("()V", 0, vec![Insn::IAdd, Insn::Return]).unwrap_err();
        assert!(err.to_string().contains("underflow"), "{err}");
    }

    #[test]
    fn kind_mismatch_rejected() {
        let err = check("()V", 0, vec![Insn::IConst(1), Insn::FNeg, Insn::Return]).unwrap_err();
        assert!(err.to_string().contains("expected Float"), "{err}");
    }

    #[test]
    fn falls_off_end_rejected() {
        let err = check("()V", 0, vec![Insn::Nop]).unwrap_err();
        assert!(err.to_string().contains("falls off"), "{err}");
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let err = check("()V", 0, vec![Insn::Goto(9), Insn::Return]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn local_out_of_range_rejected() {
        let err = check("()V", 1, vec![Insn::ILoad(1), Insn::Pop, Insn::Return]).unwrap_err();
        assert!(err.to_string().contains("local slot 1"), "{err}");
    }

    #[test]
    fn inconsistent_merge_rejected() {
        // Two paths to pc 4 with different depths.
        let err = check(
            "(I)V",
            1,
            vec![
                Insn::ILoad(0),        // 0
                Insn::If(Cond::Eq, 3), // 1: eq -> 3 (empty stack)
                Insn::IConst(7),       // 2: push
                Insn::Nop,             // 3: merge point, depth 0 vs 1
                Insn::Return,          // 4
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("merge point"), "{err}");
    }

    #[test]
    fn consistent_diamond_accepted() {
        let facts = check(
            "(I)I",
            1,
            vec![
                Insn::ILoad(0),        // 0
                Insn::If(Cond::Eq, 4), // 1
                Insn::IConst(1),       // 2
                Insn::Goto(5),         // 3
                Insn::IConst(2),       // 4
                Insn::IReturn,         // 5 (merge, depth 1)
            ],
        )
        .unwrap();
        assert_eq!(facts.max_stack, 1);
        let d = |n| Some(n);
        assert_eq!(facts.depths, [d(0), d(1), d(0), d(1), d(0), d(1)]);
    }

    #[test]
    fn loop_accepted() {
        let facts = check(
            "(I)V",
            1,
            vec![
                Insn::ILoad(0),        // 0
                Insn::If(Cond::Le, 4), // 1
                Insn::IInc {
                    local: 0,
                    delta: -1,
                }, // 2
                Insn::Goto(0),         // 3
                Insn::Return,          // 4
            ],
        )
        .unwrap();
        assert_eq!(facts.max_stack, 1);
        let d = |n| Some(n);
        assert_eq!(facts.depths, [d(0), d(1), d(0), d(0), d(0)]);
    }

    #[test]
    fn wrong_return_kind_rejected() {
        let err = check("()I", 0, vec![Insn::Return]).unwrap_err();
        assert!(err.to_string().contains("void return"), "{err}");
        let err = check("()V", 0, vec![Insn::IConst(0), Insn::IReturn]).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
        let err = check("()F", 0, vec![Insn::IConst(0), Insn::IReturn]).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn invoke_effects() {
        let mut pool = ConstantPool::new();
        let m = pool.intern_method_ref("x/Y", "f", "(IF)I");
        let facts = check_with(
            "()I",
            0,
            vec![
                Insn::IConst(1),
                Insn::FConst(2.0),
                Insn::InvokeStatic(m),
                Insn::IReturn,
            ],
            vec![],
            &pool,
        )
        .unwrap();
        assert_eq!(facts.max_stack, 2);
        // Wrong argument kinds:
        let err = check_with(
            "()I",
            0,
            vec![
                Insn::FConst(1.0),
                Insn::IConst(2),
                Insn::InvokeStatic(m),
                Insn::IReturn,
            ],
            vec![],
            &pool,
        )
        .unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
    }

    #[test]
    fn virtual_invoke_pops_receiver() {
        let mut pool = ConstantPool::new();
        let m = pool.intern_method_ref("x/Y", "f", "()V");
        // Stack has only the receiver; fine for virtual, underflows nothing.
        let facts = check_with(
            "()V",
            0,
            vec![Insn::AConstNull, Insn::InvokeVirtual(m), Insn::Return],
            vec![],
            &pool,
        )
        .unwrap();
        assert_eq!(facts.max_stack, 1);
        // Static invoke of same ref leaves the null on the stack at return.
        let facts = check_with(
            "()V",
            0,
            vec![
                Insn::AConstNull,
                Insn::InvokeStatic(m),
                Insn::Pop,
                Insn::Return,
            ],
            vec![],
            &pool,
        )
        .unwrap();
        assert_eq!(facts.max_stack, 1);
    }

    #[test]
    fn exception_handler_entry_state() {
        let mut pool = ConstantPool::new();
        let m = pool.intern_method_ref("x/Y", "f", "()V");
        // try { f(); } finally-style handler rethrows.
        let facts = check_with(
            "()V",
            0,
            vec![
                Insn::InvokeStatic(m), // 0 (covered)
                Insn::Return,          // 1
                Insn::AThrow,          // 2 handler: [Ref] -> throw
            ],
            vec![ExceptionHandler {
                start: 0,
                end: 1,
                handler: 2,
                catch_class: None,
            }],
            &pool,
        )
        .unwrap();
        assert_eq!(facts.max_stack, 1);
        // The handler is entered with the thrown reference on the stack.
        assert_eq!(facts.depths, [Some(0), Some(0), Some(1)]);
    }

    #[test]
    fn bad_exception_table_rejected() {
        let err = check_with(
            "()V",
            0,
            vec![Insn::Return],
            vec![ExceptionHandler {
                start: 0,
                end: 0,
                handler: 0,
                catch_class: None,
            }],
            &ConstantPool::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("bad range"), "{err}");
        let err = check_with(
            "()V",
            0,
            vec![Insn::Return],
            vec![ExceptionHandler {
                start: 0,
                end: 1,
                handler: 5,
                catch_class: None,
            }],
            &ConstantPool::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn dangling_pool_ref_rejected() {
        let err = check(
            "()V",
            0,
            vec![
                Insn::InvokeStatic(crate::constpool::CpIndex(3)),
                Insn::Return,
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ClassfileError::Invalid(_)), "{err}");
    }

    #[test]
    fn empty_body_rejected() {
        let err = check("()V", 0, vec![]).unwrap_err();
        assert!(err.to_string().contains("empty code"), "{err}");
    }

    #[test]
    fn max_locals_must_cover_args() {
        let m = MethodInfo::new(
            "t",
            "(II)V",
            MethodFlags::STATIC,
            Code {
                max_stack: 0,
                max_locals: 1, // two args need two slots
                insns: vec![Insn::Return],
                exception_table: vec![],
            },
        )
        .unwrap();
        let err = validate_code(&ConstantPool::new(), &m, m.code.as_ref().unwrap()).unwrap_err();
        assert!(err.to_string().contains("argument slots"), "{err}");
    }

    #[test]
    fn validate_class_checks_native_invariant() {
        let mut c = ClassFile::new("a/B");
        c.add_method(MethodInfo::new_native("n", "()V", MethodFlags::EMPTY).unwrap())
            .unwrap();
        c.add_method(
            MethodInfo::new(
                "ok",
                "()V",
                MethodFlags::STATIC,
                Code {
                    max_stack: 0,
                    max_locals: 0,
                    insns: vec![Insn::Return],
                    exception_table: vec![],
                },
            )
            .unwrap(),
        )
        .unwrap();
        validate_class(&c).unwrap();
    }

    #[test]
    fn validate_class_rejects_understated_max_stack() {
        let mut c = ClassFile::new("a/B");
        c.add_method(
            MethodInfo::new(
                "m",
                "()V",
                MethodFlags::STATIC,
                Code {
                    max_stack: 0, // needs 1
                    max_locals: 0,
                    insns: vec![Insn::IConst(1), Insn::Pop, Insn::Return],
                    exception_table: vec![],
                },
            )
            .unwrap(),
        )
        .unwrap();
        let err = validate_class(&c).unwrap_err();
        assert!(err.to_string().contains("max_stack"), "{err}");
    }

    #[test]
    fn tableswitch_flows_to_all_targets() {
        let facts = check(
            "(I)I",
            1,
            vec![
                Insn::ILoad(0), // 0
                Insn::TableSwitch {
                    low: 0,
                    targets: vec![2, 4],
                    default: 6,
                }, // 1
                Insn::IConst(10), // 2
                Insn::IReturn,  // 3
                Insn::IConst(20), // 4
                Insn::IReturn,  // 5
                Insn::IConst(0), // 6
                Insn::IReturn,  // 7
            ],
        )
        .unwrap();
        assert_eq!(facts.max_stack, 1);
        let d = |n| Some(n);
        assert_eq!(
            facts.depths,
            [d(0), d(1), d(0), d(1), d(0), d(1), d(0), d(1)]
        );
    }

    #[test]
    fn unreachable_garbage_is_ignored() {
        // Dead code after an unconditional return is not validated —
        // same as the JVM verifier's reachability rule.
        let facts = check("()V", 0, vec![Insn::Return, Insn::IAdd]).unwrap();
        assert_eq!(facts.max_stack, 0);
        assert_eq!(facts.depths, [Some(0), None]);
    }
}
