//! The interpreter: prepared (direct-threaded) code and the execution
//! loop.
//!
//! Each method body is *prepared* once, on first invocation, into a dense
//! [`Op`] array (a jump table for the compiler to dispatch over): operands
//! are pre-decoded, call-site arity and returns-ness are baked in, and
//! every resolution site gets an [`InlineCache`] slot, so the steady-state
//! path does no hashing at all. A miss falls back to the cold resolvers in
//! `interp.rs` and fills the slot.
//!
//! [`Vm::execute`] runs a prepared body. Cycle charges and metrics counter
//! bumps are *batched* into locals and flushed before every observable
//! action (invokes, throws, allocations, sample polls, trace emission,
//! returns), which removes the per-instruction atomic read-modify-write on
//! the thread clock while keeping every clock reading an agent or trace
//! can observe exact. Preparation itself charges nothing — it models the
//! one-time threaded-code rewrite a template interpreter performs at link
//! time, not measured work.
//!
//! Preparation also fuses the hot straight-line sequences (DESIGN §16)
//! into superinstructions, unless the VM polls (a sampler is installed or
//! the fault plane is enabled; both are fixed before the first body is
//! prepared). A fused op replaces only the *head* of its span: the span's
//! other source ops stay at their own indexes, so the array keeps one
//! `Op` per source index and a jump into the span runs them unfused. A
//! fused op charges its whole span, and moves `pc` to the span's last op
//! before it branches or throws, so the OSR back-edge test, handler lookup
//! and every `bci` see the `pc` the unfused ops would. Only a span's last
//! op may branch or throw, and a span fuses only if no branch target,
//! handler entry or handler range boundary falls strictly between its
//! first and last index. While polling nothing fuses, so a poll still
//! lands every 32 instructions exactly.
//!
//! The committed golden corpus (`tests/golden.rs` in the umbrella crate)
//! pins this loop's cycles, stats and trace streams for every matrix
//! cell.

use std::collections::HashMap;
use std::sync::Arc;

use jvmsim_classfile::{ArrayKind, Code, Cond, ExceptionHandler, Insn};
use jvmsim_faults::FaultSite;
use jvmsim_tiers::Tier;

use crate::events::ThreadId;
use crate::heap::HeapObject;
use crate::klass::{CallSite, ClassId, MethodId};
use crate::throw::JThrow;
use crate::value::{ObjRef, Value};
use crate::vm::Vm;

/// One inline-cache slot in the VM-wide arena. Ops carry `u32` indices
/// into the arena; a slot starts [`InlineCache::Empty`] and is filled on
/// first execution by the cold resolution path (class loading, `<clinit>`
/// charges, linkage errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InlineCache {
    /// Not yet resolved.
    Empty,
    /// `invokestatic` target.
    StaticCall(MethodId),
    /// Monomorphic `invokevirtual` entry: valid while the receiver's
    /// dynamic class matches (a different receiver re-resolves and
    /// re-caches — last-seen wins, which is deterministic).
    VirtualCall {
        /// Receiver class the cached target was resolved against.
        receiver: ClassId,
        /// Resolved callee.
        target: MethodId,
    },
    /// Instance-field slot index.
    InstanceField(usize),
    /// Static field: declaring class and slot.
    StaticField {
        /// Declaring class.
        class: ClassId,
        /// Slot in that class's statics.
        slot: usize,
    },
    /// Interned string for `ldc`.
    LdcStr(ObjRef),
    /// Resolved class for `new`.
    NewClass(ClassId),
}

/// The int binops that cannot throw, as one op with an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntOp {
    Add,
    Sub,
    Mul,
    Shl,
    Shr,
    UShr,
    And,
    Or,
    Xor,
}

impl IntOp {
    #[inline]
    fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            IntOp::Add => a.wrapping_add(b),
            IntOp::Sub => a.wrapping_sub(b),
            IntOp::Mul => a.wrapping_mul(b),
            IntOp::Shl => a.wrapping_shl(b as u32 & 63),
            IntOp::Shr => a.wrapping_shr(b as u32 & 63),
            IntOp::UShr => ((a as u64) >> (b as u32 & 63)) as i64,
            IntOp::And => a & b,
            IntOp::Or => a | b,
            IntOp::Xor => a ^ b,
        }
    }
}

/// A prepared (direct-threaded) instruction. One `Op` per source
/// [`Insn`], at the same index — branch targets, the exception table and
/// trace/alloc-site `bci`s carry over unchanged. A fused op (the variants
/// after [`Op::AThrow`]) sits at the head index of the span it stands
/// for; the span's other ops stay behind it, unfused.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    Nop,
    IConst(i64),
    FConst(f64),
    AConstNull,
    Ldc {
        ic: u32,
        cp: u16,
    },
    /// Unified `iload`/`fload`/`aload` (slots are untyped at runtime).
    Load(u16),
    /// Unified `istore`/`fstore`/`astore`.
    Store(u16),
    Pop,
    Dup,
    Swap,
    IBin(IntOp),
    IDiv,
    IRem,
    INeg,
    IInc {
        local: u16,
        delta: i32,
    },
    FAdd,
    FSub,
    FMul,
    FDiv,
    FNeg,
    I2F,
    F2I,
    FCmp,
    Goto(u32),
    If(Cond, u32),
    IfICmp(Cond, u32),
    IfNull(u32),
    IfNonNull(u32),
    TableSwitch {
        low: i64,
        targets: Box<[u32]>,
        default: u32,
    },
    InvokeStatic {
        ic: u32,
        cp: u16,
        nargs: u8,
        returns: bool,
    },
    InvokeVirtual {
        ic: u32,
        cp: u16,
        nargs: u8,
        returns: bool,
    },
    Return,
    /// Unified `ireturn`/`freturn`/`areturn`.
    ValueReturn,
    New {
        ic: u32,
        cp: u16,
    },
    GetField {
        ic: u32,
        cp: u16,
    },
    PutField {
        ic: u32,
        cp: u16,
    },
    GetStatic {
        ic: u32,
        cp: u16,
    },
    PutStatic {
        ic: u32,
        cp: u16,
    },
    NewArray(ArrayKind),
    ArrLoad(ArrayKind),
    ArrStore(ArrayKind),
    ArrayLength,
    AThrow,
    /// `Load a; Load b`.
    Load2(u16, u16),
    /// `Load a; IConst k`.
    LoadK(u16, i64),
    /// `Store a; Load b`.
    StoreLoad(u16, u16),
    /// `IConst k; IBin`.
    IBinK(IntOp, i64),
    /// `Load a; IConst k; IBin`.
    IBinLK(IntOp, u16, i64),
    /// `IConst k; IfICmp`.
    IfK(Cond, i64, u32),
    /// `Load a; Load b; IfICmp`.
    IfLL(Cond, u16, u16, u32),
    /// `Load a; IConst k; IfICmp`.
    IfLK(Cond, u16, i64, u32),
    /// `Load array; Load index; ArrLoad`.
    ArrLoadLL(ArrayKind, u16, u16),
    /// `IInc; Goto`.
    IIncGoto {
        local: u16,
        delta: i32,
        target: u32,
    },
}

/// A method body rewritten into threaded form, cached per [`MethodId`]
/// in its class's prepared-code slots.
#[derive(Debug)]
pub(crate) struct PreparedCode {
    pub max_stack: u16,
    pub max_locals: u16,
    pub ops: Vec<Op>,
    pub exception_table: Vec<ExceptionHandler>,
}

fn alloc_ic(arena: &mut Vec<InlineCache>) -> u32 {
    let i = u32::try_from(arena.len()).expect("inline-cache arena overflow");
    arena.push(InlineCache::Empty);
    i
}

/// Rewrite `code` into threaded form, allocating inline-cache slots in
/// `arena`, and fuse its hot spans if `fuse`. Call-site arity and
/// returns-ness come from the class's pre-parsed
/// [`crate::klass::CallSite`]s, so the execution loop never touches the
/// callsite map.
pub(crate) fn prepare(
    code: &Code,
    callsites: &HashMap<u16, CallSite>,
    arena: &mut Vec<InlineCache>,
    fuse: bool,
) -> PreparedCode {
    let mut ops = Vec::with_capacity(code.insns.len());
    for insn in &code.insns {
        let op = match insn {
            Insn::Nop => Op::Nop,
            Insn::IConst(v) => Op::IConst(*v),
            Insn::FConst(v) => Op::FConst(*v),
            Insn::AConstNull => Op::AConstNull,
            Insn::Ldc(cp) => Op::Ldc {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::ILoad(s) | Insn::FLoad(s) | Insn::ALoad(s) => Op::Load(*s),
            Insn::IStore(s) | Insn::FStore(s) | Insn::AStore(s) => Op::Store(*s),
            Insn::Pop => Op::Pop,
            Insn::Dup => Op::Dup,
            Insn::Swap => Op::Swap,
            Insn::IAdd => Op::IBin(IntOp::Add),
            Insn::ISub => Op::IBin(IntOp::Sub),
            Insn::IMul => Op::IBin(IntOp::Mul),
            Insn::IShl => Op::IBin(IntOp::Shl),
            Insn::IShr => Op::IBin(IntOp::Shr),
            Insn::IUShr => Op::IBin(IntOp::UShr),
            Insn::IAnd => Op::IBin(IntOp::And),
            Insn::IOr => Op::IBin(IntOp::Or),
            Insn::IXor => Op::IBin(IntOp::Xor),
            Insn::IDiv => Op::IDiv,
            Insn::IRem => Op::IRem,
            Insn::INeg => Op::INeg,
            Insn::IInc { local, delta } => Op::IInc {
                local: *local,
                delta: *delta,
            },
            Insn::FAdd => Op::FAdd,
            Insn::FSub => Op::FSub,
            Insn::FMul => Op::FMul,
            Insn::FDiv => Op::FDiv,
            Insn::FNeg => Op::FNeg,
            Insn::I2F => Op::I2F,
            Insn::F2I => Op::F2I,
            Insn::FCmp => Op::FCmp,
            Insn::Goto(t) => Op::Goto(*t),
            Insn::If(c, t) => Op::If(*c, *t),
            Insn::IfICmp(c, t) => Op::IfICmp(*c, *t),
            Insn::IfNull(t) => Op::IfNull(*t),
            Insn::IfNonNull(t) => Op::IfNonNull(*t),
            Insn::TableSwitch {
                low,
                targets,
                default,
            } => Op::TableSwitch {
                low: *low,
                targets: targets.clone().into_boxed_slice(),
                default: *default,
            },
            Insn::InvokeStatic(cp) => {
                let cs = callsites
                    .get(&cp.0)
                    .expect("validated invokestatic has a callsite");
                Op::InvokeStatic {
                    ic: alloc_ic(arena),
                    cp: cp.0,
                    nargs: cs.nargs as u8,
                    returns: cs.returns_value,
                }
            }
            Insn::InvokeVirtual(cp) => {
                let cs = callsites
                    .get(&cp.0)
                    .expect("validated invokevirtual has a callsite");
                Op::InvokeVirtual {
                    ic: alloc_ic(arena),
                    cp: cp.0,
                    nargs: cs.nargs as u8,
                    returns: cs.returns_value,
                }
            }
            Insn::Return => Op::Return,
            Insn::IReturn | Insn::FReturn | Insn::AReturn => Op::ValueReturn,
            Insn::New(cp) => Op::New {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::GetField(cp) => Op::GetField {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::PutField(cp) => Op::PutField {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::GetStatic(cp) => Op::GetStatic {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::PutStatic(cp) => Op::PutStatic {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::NewArray(kind) => Op::NewArray(*kind),
            Insn::IALoad => Op::ArrLoad(ArrayKind::Int),
            Insn::FALoad => Op::ArrLoad(ArrayKind::Float),
            Insn::AALoad => Op::ArrLoad(ArrayKind::Ref),
            Insn::IAStore => Op::ArrStore(ArrayKind::Int),
            Insn::FAStore => Op::ArrStore(ArrayKind::Float),
            Insn::AAStore => Op::ArrStore(ArrayKind::Ref),
            Insn::ArrayLength => Op::ArrayLength,
            Insn::AThrow => Op::AThrow,
        };
        ops.push(op);
    }
    if fuse {
        fuse_spans(&mut ops, code);
    }
    PreparedCode {
        max_stack: code.max_stack,
        max_locals: code.max_locals,
        ops,
        exception_table: code.exception_table.clone(),
    }
}

/// Rewrite span heads in `ops` into fused ops. Each index gets the
/// choice (its own op, or the two- or three-op span it starts) that
/// leaves the fewest dispatches to the end of the body when falling
/// through. Spans may overlap: the op at a span's interior index still
/// serves jumps there.
fn fuse_spans(ops: &mut [Op], code: &Code) {
    // Indexes control can enter other than by falling through.
    let mut entered = vec![false; ops.len() + 1];
    for t in code.insns.iter().flat_map(Insn::branch_targets) {
        entered[t as usize] = true;
    }
    for h in &code.exception_table {
        for i in [h.start, h.end, h.handler] {
            entered[i as usize] = true;
        }
    }
    let mut dispatches = vec![0_usize; ops.len() + 1];
    let mut heads = vec![None; ops.len()];
    for head in (0..ops.len()).rev() {
        let w = &ops[head..];
        dispatches[head] = 1 + dispatches[head + 1];
        let three = if entered[head + 1] { None } else { fused3(w) };
        // Fusing `len` ops leaves `1 + dispatches[head + len]`; a tie
        // goes to the longer span.
        for (len, op) in [(2, fused2(w)), (3, three)] {
            if let Some(op) = op.filter(|_| dispatches[head + len] < dispatches[head]) {
                dispatches[head] = 1 + dispatches[head + len];
                heads[head] = Some(op);
            }
        }
    }
    for (op, head) in ops.iter_mut().zip(heads) {
        if let Some(head) = head {
            *op = head;
        }
    }
}

/// The fused op for the two-op span `w` starts with, if any. Only the
/// span's last op may branch or throw.
fn fused2(w: &[Op]) -> Option<Op> {
    use Op::{Goto, IBin, IConst, IInc, IfICmp, Load, Store};
    Some(match *w {
        [Load(a), Load(b), ..] => Op::Load2(a, b),
        [Load(a), IConst(k), ..] => Op::LoadK(a, k),
        [Store(a), Load(b), ..] => Op::StoreLoad(a, b),
        [IConst(k), IBin(f), ..] => Op::IBinK(f, k),
        [IConst(k), IfICmp(c, t), ..] => Op::IfK(c, k, t),
        [IInc { local, delta }, Goto(target), ..] => Op::IIncGoto {
            local,
            delta,
            target,
        },
        _ => return None,
    })
}

/// The fused op for the three-op span `w` starts with, if any, as
/// [`fused2`].
fn fused3(w: &[Op]) -> Option<Op> {
    use Op::{ArrLoad, IBin, IConst, IfICmp, Load};
    Some(match *w {
        [Load(a), Load(b), IfICmp(c, t), ..] => Op::IfLL(c, a, b, t),
        [Load(a), IConst(k), IfICmp(c, t), ..] => Op::IfLK(c, a, k, t),
        [Load(a), Load(i), ArrLoad(kind), ..] => Op::ArrLoadLL(kind, a, i),
        [Load(a), IConst(k), IBin(f), ..] => Op::IBinLK(f, a, k),
        _ => return None,
    })
}

impl Vm {
    /// `array[index]` for an `ArrLoad` of `kind`, or the class and message
    /// of the exception it throws.
    fn array_load(
        &self,
        kind: ArrayKind,
        array: Value,
        index: i64,
    ) -> Result<Value, (&'static str, String)> {
        let Some(arr) = array.as_ref_opt() else {
            return Err(("java/lang/NullPointerException", "null array load".into()));
        };
        let out_of_bounds = || {
            (
                "java/lang/ArrayIndexOutOfBoundsException",
                format!("{index}"),
            )
        };
        if index < 0 {
            return Err(out_of_bounds());
        }
        let i = index as usize;
        let loaded = match (kind, self.heap().get(arr)) {
            (ArrayKind::Int, HeapObject::IntArray(v)) => v.get(i).map(|&x| Value::Int(x)),
            (ArrayKind::Float, HeapObject::FloatArray(v)) => v.get(i).map(|&x| Value::Float(x)),
            (ArrayKind::Ref, HeapObject::RefArray(v)) => v.get(i).copied(),
            _ => {
                return Err(("java/lang/InternalError", "array load kind mismatch".into()));
            }
        };
        loaded.ok_or_else(out_of_bounds)
    }

    /// The prepared body of `mid`, building (and caching) it on first use.
    /// The steady state is two vector indexes and an `Arc` bump — this
    /// runs on every bytecode invocation.
    pub(crate) fn prepared_code(&mut self, mid: MethodId) -> Arc<PreparedCode> {
        let rc = self.registry.get(mid.class);
        if let Some(p) = &rc.prepared[mid.index as usize] {
            return Arc::clone(p);
        }
        let code = rc.code[mid.index as usize]
            .as_deref()
            .expect("bytecode method has code");
        self.bodies_prepared = true;
        let fuse = self.sampler_interval().is_none() && !self.faults_enabled();
        let p = Arc::new(prepare(code, &rc.callsites, &mut self.ic_arena, fuse));
        self.registry.get_mut(mid.class).prepared[mid.index as usize] = Some(Arc::clone(&p));
        p
    }

    /// Execute the bytecode method `mid` at `tier` with `args` in its
    /// first local slots. Instructions are counted in `pending_insns` and
    /// flushed (clock, `InterpInsns` counter, `VmStats`) before every
    /// observable action, so every intermediate clock reading equals the
    /// one an instruction-by-instruction charge would give. The tier, and
    /// with it the per-instruction cost, only changes right after a
    /// flush, so the pending cycles are `pending_insns * insn_cost`.
    // `unused_assignments`: the flush before a `return` zeroes the pending
    // count like every other flush; the zero is dead there.
    #[allow(clippy::too_many_lines, unused_assignments)]
    pub(crate) fn execute(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        tier: Tier,
        args: Vec<Value>,
    ) -> Result<Value, JThrow> {
        let cur = mid.class;
        let prepared = self.prepared_code(mid);
        let mut tier = tier;
        let mut insn_cost = self.cost().insn(tier);
        let mode = self.effective_tiers_mode();
        let osr_threshold = self.cost().tiers.osr_backedge_threshold;
        let mut osr_pending = mode.allows_promotion_from(tier);
        let mut backedges: u32 = 0;
        let sampling = self.sampler_interval().is_some();
        let fault_polls = self.faults_enabled();
        let polling = sampling || fault_polls;
        let mut insns_since_poll: u32 = 0;
        let mut pending_insns: u64 = 0;

        // Frames come from the recycle pool: a template interpreter runs
        // on a contiguous thread stack, not one heap allocation per
        // activation. Contents are reset identically to a fresh frame.
        let (mut locals, mut stack) = self.frame_pool.pop().unwrap_or_default();
        locals.clear();
        locals.resize(prepared.max_locals as usize, Value::Int(0));
        locals[..args.len()].copy_from_slice(&args);
        stack.clear();
        stack.reserve(prepared.max_stack as usize);
        {
            let mut args = args;
            args.clear();
            self.arg_pool.push(args);
        }
        let mut pc: u32 = 0;

        macro_rules! flush {
            () => {{
                if pending_insns != 0 {
                    let cycles = pending_insns * insn_cost;
                    let info = self.thread_info(thread);
                    info.charge(cycles);
                    info.add(jvmsim_metrics::CounterId::InterpInsns, pending_insns);
                    self.stats.insns += pending_insns;
                    self.note_tier_cycles(tier, cycles);
                    pending_insns = 0;
                }
            }};
        }

        macro_rules! take_branch {
            ($t:expr) => {{
                let target: u32 = $t;
                if osr_pending && target <= pc {
                    backedges += 1;
                    if backedges >= osr_threshold {
                        backedges = 0;
                        flush!();
                        if let Some(next) = tier.next() {
                            if self.tier_compile(thread, mid, next, true) {
                                tier = next;
                                insn_cost = self.cost().insn(tier);
                            }
                        }
                        osr_pending = mode.allows_promotion_from(tier);
                    }
                }
                pc = target;
                continue;
            }};
        }

        macro_rules! throw_or_handle {
            ($t:expr) => {{
                let t = $t;
                flush!();
                match self.handle_throw(&prepared.exception_table, pc, t, &mut stack) {
                    Some(h) => {
                        pc = h;
                        continue;
                    }
                    None => {
                        if tier.is_compiled() {
                            self.deopt(thread, mid);
                        }
                        self.frame_pool
                            .push((std::mem::take(&mut locals), std::mem::take(&mut stack)));
                        return Err(t);
                    }
                }
            }};
        }

        // A fused head charges the rest of its span and moves `pc` to the
        // span's last op, where the unfused ops would branch or throw.
        macro_rules! fused {
            ($n:literal) => {{
                pc += $n - 1;
                pending_insns += $n - 1;
            }};
        }

        macro_rules! jthrow {
            ($class:expr, $msg:expr) => {{
                flush!();
                let t = self.throw_new(thread, $class, $msg);
                throw_or_handle!(t)
            }};
        }

        loop {
            let op = &prepared.ops[pc as usize];
            pending_insns += 1;
            if polling {
                insns_since_poll += 1;
                if insns_since_poll >= 32 {
                    insns_since_poll = 0;
                    flush!();
                    if sampling {
                        self.poll_samples(thread, false);
                    }
                    if fault_polls && self.fault(FaultSite::ThreadDeath).is_some() {
                        jthrow!(
                            "java/lang/ThreadDeath",
                            "fault plane: asynchronous thread death"
                        );
                    }
                }
            }
            match op {
                Op::Nop => {}
                Op::IConst(v) => stack.push(Value::Int(*v)),
                Op::FConst(v) => stack.push(Value::Float(*v)),
                Op::AConstNull => stack.push(Value::Null),
                Op::Ldc { ic, cp } => {
                    let slot = *ic as usize;
                    let r = match self.ic_arena[slot] {
                        InlineCache::LdcStr(r) => r,
                        _ => {
                            flush!();
                            let s = self.registry.get(cur).strings[cp].clone();
                            let before = self.heap().len();
                            let r = self.heap_mut().intern_string(&s);
                            // Interning only allocates on a miss; an
                            // already-interned literal is not an event.
                            if self.alloc_events_on() && self.heap().len() > before {
                                let (sc, sm) = self.site_of(mid);
                                self.fire_allocation(thread, r, &sc, &sm, pc);
                            }
                            self.ic_arena[slot] = InlineCache::LdcStr(r);
                            r
                        }
                    };
                    stack.push(Value::Ref(r));
                }
                Op::Load(s) => stack.push(locals[*s as usize]),
                Op::Store(s) => locals[*s as usize] = stack.pop().expect("verified stack"),
                Op::Pop => {
                    stack.pop();
                }
                Op::Dup => {
                    let top = *stack.last().expect("verified stack");
                    stack.push(top);
                }
                Op::Swap => {
                    let n = stack.len();
                    stack.swap(n - 1, n - 2);
                }
                Op::IBin(f) => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    stack.push(Value::Int(f.apply(a, b)));
                }
                Op::IDiv | Op::IRem => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    if b == 0 {
                        jthrow!("java/lang/ArithmeticException", "/ by zero");
                    }
                    let r = if matches!(op, Op::IDiv) {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    };
                    stack.push(Value::Int(r));
                }
                Op::INeg => {
                    let a = stack.pop().expect("verified").as_int();
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Op::IInc { local, delta } => {
                    let v = locals[*local as usize].as_int();
                    locals[*local as usize] = Value::Int(v.wrapping_add(i64::from(*delta)));
                }
                Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => {
                    let b = stack.pop().expect("verified").as_float();
                    let a = stack.pop().expect("verified").as_float();
                    let r = match op {
                        Op::FAdd => a + b,
                        Op::FSub => a - b,
                        Op::FMul => a * b,
                        _ => a / b,
                    };
                    stack.push(Value::Float(r));
                }
                Op::FNeg => {
                    let a = stack.pop().expect("verified").as_float();
                    stack.push(Value::Float(-a));
                }
                Op::I2F => {
                    let a = stack.pop().expect("verified").as_int();
                    stack.push(Value::Float(a as f64));
                }
                Op::F2I => {
                    let a = stack.pop().expect("verified").as_float();
                    stack.push(Value::Int(a as i64));
                }
                Op::FCmp => {
                    let b = stack.pop().expect("verified").as_float();
                    let a = stack.pop().expect("verified").as_float();
                    let r = if a.is_nan() || b.is_nan() {
                        1
                    } else if a < b {
                        -1
                    } else {
                        i64::from(a > b)
                    };
                    stack.push(Value::Int(r));
                }
                Op::Goto(t) => take_branch!(*t),
                Op::If(cond, t) => {
                    let v = stack.pop().expect("verified").as_int();
                    if cond.eval(v.cmp(&0)) {
                        take_branch!(*t);
                    }
                }
                Op::IfICmp(cond, t) => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    if cond.eval(a.cmp(&b)) {
                        take_branch!(*t);
                    }
                }
                Op::IfNull(t) => {
                    let v = stack.pop().expect("verified");
                    if v.as_ref_opt().is_none() {
                        take_branch!(*t);
                    }
                }
                Op::IfNonNull(t) => {
                    let v = stack.pop().expect("verified");
                    if v.as_ref_opt().is_some() {
                        take_branch!(*t);
                    }
                }
                Op::TableSwitch {
                    low,
                    targets,
                    default,
                } => {
                    let k = stack.pop().expect("verified").as_int();
                    let off = k.wrapping_sub(*low);
                    let target = if off >= 0 && (off as usize) < targets.len() {
                        targets[off as usize]
                    } else {
                        *default
                    };
                    take_branch!(target);
                }
                Op::InvokeStatic {
                    ic,
                    cp,
                    nargs,
                    returns,
                } => {
                    let slot = *ic as usize;
                    let callee = match self.ic_arena[slot] {
                        InlineCache::StaticCall(m) => m,
                        _ => {
                            flush!();
                            match self.call_target(thread, cur, *cp, None) {
                                Ok(m) => {
                                    self.ic_arena[slot] = InlineCache::StaticCall(m);
                                    m
                                }
                                Err(t) => throw_or_handle!(t),
                            }
                        }
                    };
                    let split = stack.len() - *nargs as usize;
                    let mut call_args = self.arg_pool.pop().unwrap_or_default();
                    call_args.extend(stack.drain(split..));
                    flush!();
                    match self.invoke(thread, callee, call_args) {
                        Ok(v) => {
                            if *returns {
                                stack.push(v);
                            }
                        }
                        Err(t) => throw_or_handle!(t),
                    }
                }
                Op::InvokeVirtual {
                    ic,
                    cp,
                    nargs,
                    returns,
                } => {
                    let split = stack.len() - *nargs as usize - 1;
                    let mut call_args = self.arg_pool.pop().unwrap_or_default();
                    call_args.extend(stack.drain(split..));
                    let recv = call_args[0];
                    let obj = match recv.as_ref_opt() {
                        Some(o) => o,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null receiver");
                        }
                    };
                    let dyn_class = match self.heap().get(obj) {
                        HeapObject::Instance { class, .. } => *class,
                        _ => {
                            jthrow!(
                                "java/lang/InternalError",
                                "invokevirtual receiver is not an object instance"
                            );
                        }
                    };
                    let slot = *ic as usize;
                    let callee = match self.ic_arena[slot] {
                        InlineCache::VirtualCall { receiver, target } if receiver == dyn_class => {
                            target
                        }
                        _ => {
                            flush!();
                            match self.call_target(thread, cur, *cp, Some(dyn_class)) {
                                Ok(m) => {
                                    self.ic_arena[slot] = InlineCache::VirtualCall {
                                        receiver: dyn_class,
                                        target: m,
                                    };
                                    m
                                }
                                Err(t) => throw_or_handle!(t),
                            }
                        }
                    };
                    flush!();
                    match self.invoke(thread, callee, std::mem::take(&mut call_args)) {
                        Ok(v) => {
                            if *returns {
                                stack.push(v);
                            }
                        }
                        Err(t) => throw_or_handle!(t),
                    }
                }
                Op::Return => {
                    flush!();
                    self.frame_pool.push((locals, stack));
                    return Ok(Value::Null);
                }
                Op::ValueReturn => {
                    flush!();
                    let v = stack.pop().expect("verified");
                    self.frame_pool.push((locals, stack));
                    return Ok(v);
                }
                Op::New { ic, cp } => {
                    let slot = *ic as usize;
                    let cid = match self.ic_arena[slot] {
                        InlineCache::NewClass(c) => c,
                        _ => {
                            flush!();
                            let name = self.registry.get(cur).classrefs[cp].clone();
                            let c = match self.ensure_loaded_or_throw(thread, &name) {
                                Ok(c) => c,
                                Err(t) => throw_or_handle!(t),
                            };
                            self.ic_arena[slot] = InlineCache::NewClass(c);
                            c
                        }
                    };
                    flush!();
                    self.charge(thread, self.cost().alloc_object);
                    self.stats.allocations += 1;
                    let defaults = self.registry.get(cid).field_defaults();
                    let obj = self.heap_mut().alloc_instance(cid, defaults);
                    if self.alloc_events_on() {
                        let (sc, sm) = self.site_of(mid);
                        self.fire_allocation(thread, obj, &sc, &sm, pc);
                    }
                    stack.push(Value::Ref(obj));
                }
                Op::GetField { ic, cp } | Op::PutField { ic, cp } => {
                    let is_put = matches!(op, Op::PutField { .. });
                    let value = if is_put {
                        Some(stack.pop().expect("verified"))
                    } else {
                        None
                    };
                    let recv = stack.pop().expect("verified");
                    let obj = match recv.as_ref_opt() {
                        Some(o) => o,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null field access");
                        }
                    };
                    if !matches!(self.heap().get(obj), HeapObject::Instance { .. }) {
                        jthrow!(
                            "java/lang/InternalError",
                            "field access on a non-object reference"
                        );
                    }
                    let slot = match self.ic_arena[*ic as usize] {
                        InlineCache::InstanceField(s) => s,
                        _ => {
                            flush!();
                            match self.instance_field_slot(thread, cur, *cp) {
                                Ok(s) => {
                                    self.ic_arena[*ic as usize] = InlineCache::InstanceField(s);
                                    s
                                }
                                Err(t) => throw_or_handle!(t),
                            }
                        }
                    };
                    match self.heap_mut().get_mut(obj) {
                        HeapObject::Instance { fields, .. } => {
                            if let Some(v) = value {
                                fields[slot] = v;
                            } else {
                                let v = fields[slot];
                                stack.push(v);
                            }
                        }
                        _ => unreachable!("checked instance above"),
                    }
                }
                Op::GetStatic { ic, cp } | Op::PutStatic { ic, cp } => {
                    let is_put = matches!(op, Op::PutStatic { .. });
                    let (cid, slot) = match self.ic_arena[*ic as usize] {
                        InlineCache::StaticField { class, slot } => (class, slot),
                        _ => {
                            flush!();
                            match self.static_field_target(thread, cur, *cp) {
                                Ok((class, slot)) => {
                                    self.ic_arena[*ic as usize] =
                                        InlineCache::StaticField { class, slot };
                                    (class, slot)
                                }
                                Err(t) => throw_or_handle!(t),
                            }
                        }
                    };
                    if is_put {
                        let v = stack.pop().expect("verified");
                        self.registry.get_mut(cid).statics[slot] = v;
                    } else {
                        stack.push(self.registry.get(cid).statics[slot]);
                    }
                }
                Op::NewArray(kind) => {
                    let len = stack.pop().expect("verified").as_int();
                    if len < 0 {
                        jthrow!("java/lang/NegativeArraySizeException", &format!("{len}"));
                    }
                    let len = len as usize;
                    flush!();
                    self.charge(thread, self.cost().alloc_array(len));
                    self.stats.allocations += 1;
                    let r = match kind {
                        ArrayKind::Int => self.heap_mut().alloc_int_array(len),
                        ArrayKind::Float => self.heap_mut().alloc_float_array(len),
                        ArrayKind::Ref => self.heap_mut().alloc_ref_array(len),
                    };
                    if self.alloc_events_on() {
                        let (sc, sm) = self.site_of(mid);
                        self.fire_allocation(thread, r, &sc, &sm, pc);
                    }
                    stack.push(Value::Ref(r));
                }
                Op::ArrLoad(kind) => {
                    let index = stack.pop().expect("verified").as_int();
                    let arr = stack.pop().expect("verified");
                    match self.array_load(*kind, arr, index) {
                        Ok(v) => stack.push(v),
                        Err((class, msg)) => jthrow!(class, &msg),
                    }
                }
                Op::ArrStore(kind) => {
                    let value = stack.pop().expect("verified");
                    let index = stack.pop().expect("verified").as_int();
                    let arr = stack.pop().expect("verified");
                    let arr = match arr.as_ref_opt() {
                        Some(a) => a,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null array store");
                        }
                    };
                    if index < 0 {
                        jthrow!(
                            "java/lang/ArrayIndexOutOfBoundsException",
                            &format!("{index}")
                        );
                    }
                    let i = index as usize;
                    let stored = match (kind, self.heap_mut().get_mut(arr)) {
                        (ArrayKind::Int, HeapObject::IntArray(v)) => {
                            v.get_mut(i).map(|slot| *slot = value.as_int())
                        }
                        (ArrayKind::Float, HeapObject::FloatArray(v)) => {
                            v.get_mut(i).map(|slot| *slot = value.as_float())
                        }
                        (ArrayKind::Ref, HeapObject::RefArray(v)) => {
                            v.get_mut(i).map(|slot| *slot = value)
                        }
                        _ => {
                            jthrow!("java/lang/ArrayStoreException", "array store kind mismatch");
                        }
                    };
                    if stored.is_none() {
                        jthrow!(
                            "java/lang/ArrayIndexOutOfBoundsException",
                            &format!("{index}")
                        );
                    }
                }
                Op::ArrayLength => {
                    let arr = stack.pop().expect("verified");
                    let arr = match arr.as_ref_opt() {
                        Some(a) => a,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null arraylength");
                        }
                    };
                    match self.heap().get(arr).array_len() {
                        Some(n) => stack.push(Value::Int(n as i64)),
                        None => {
                            jthrow!("java/lang/InternalError", "arraylength of a non-array");
                        }
                    }
                }
                Op::AThrow => {
                    let v = stack.pop().expect("verified");
                    match v.as_ref_opt() {
                        Some(r) => throw_or_handle!(JThrow::new(r)),
                        None => {
                            jthrow!("java/lang/NullPointerException", "throwing null");
                        }
                    }
                }
                Op::Load2(a, b) => {
                    fused!(2);
                    stack.push(locals[*a as usize]);
                    stack.push(locals[*b as usize]);
                }
                Op::LoadK(a, k) => {
                    fused!(2);
                    stack.push(locals[*a as usize]);
                    stack.push(Value::Int(*k));
                }
                Op::StoreLoad(a, b) => {
                    fused!(2);
                    let top = stack.last_mut().expect("verified stack");
                    locals[*a as usize] = *top;
                    *top = locals[*b as usize];
                }
                Op::IBinK(f, k) => {
                    fused!(2);
                    let top = stack.last_mut().expect("verified stack");
                    *top = Value::Int(f.apply(top.as_int(), *k));
                }
                Op::IBinLK(f, a, k) => {
                    fused!(3);
                    stack.push(Value::Int(f.apply(locals[*a as usize].as_int(), *k)));
                }
                Op::IfK(cond, k, t) => {
                    fused!(2);
                    let a = stack.pop().expect("verified").as_int();
                    if cond.eval(a.cmp(k)) {
                        take_branch!(*t);
                    }
                }
                Op::IfLL(cond, a, b, t) => {
                    fused!(3);
                    let (a, b) = (locals[*a as usize].as_int(), locals[*b as usize].as_int());
                    if cond.eval(a.cmp(&b)) {
                        take_branch!(*t);
                    }
                }
                Op::IfLK(cond, a, k, t) => {
                    fused!(3);
                    if cond.eval(locals[*a as usize].as_int().cmp(k)) {
                        take_branch!(*t);
                    }
                }
                Op::ArrLoadLL(kind, a, i) => {
                    fused!(3);
                    let index = locals[*i as usize].as_int();
                    match self.array_load(*kind, locals[*a as usize], index) {
                        Ok(v) => stack.push(v),
                        Err((class, msg)) => jthrow!(class, &msg),
                    }
                }
                Op::IIncGoto {
                    local,
                    delta,
                    target,
                } => {
                    fused!(2);
                    let v = locals[*local as usize].as_int();
                    locals[*local as usize] = Value::Int(v.wrapping_add(i64::from(*delta)));
                    take_branch!(*target);
                }
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use jvmsim_classfile::{Code, Cond, ExceptionHandler, Insn};

    use super::{prepare, HashMap, Op};

    /// `iload 0; iload 1; iload 2; if_icmplt 0; iload 0; iload 1;
    /// if_icmplt 0; return` with `exception_table`, prepared fused.
    fn fused(exception_table: Vec<ExceptionHandler>) -> Vec<Op> {
        let insns = vec![
            Insn::ILoad(0),
            Insn::ILoad(1),
            Insn::ILoad(2),
            Insn::IfICmp(Cond::Lt, 0),
            Insn::ILoad(0),
            Insn::ILoad(1),
            Insn::IfICmp(Cond::Lt, 0),
            Insn::Return,
        ];
        let code = Code {
            max_stack: 3,
            max_locals: 3,
            insns,
            exception_table,
        };
        prepare(&code, &HashMap::new(), &mut Vec::new(), true).ops
    }

    fn handler(start: u32, end: u32, handler: u32) -> ExceptionHandler {
        ExceptionHandler {
            start,
            end,
            handler,
            catch_class: None,
        }
    }

    #[test]
    fn heads_are_chosen_for_the_fewest_dispatches() {
        let ops = fused(Vec::new());
        // `Load; IfLL` (two dispatches) beats `Load2; Load; IfICmp`.
        assert_eq!(ops[0], Op::Load(0));
        assert_eq!(ops[1], Op::IfLL(Cond::Lt, 1, 2, 0));
        // Interior ops stay behind their heads for jumps.
        assert_eq!(ops[2], Op::Load(2));
        assert_eq!(ops[3], Op::IfICmp(Cond::Lt, 0));
        assert_eq!(ops[4], Op::IfLL(Cond::Lt, 0, 1, 0));
    }

    #[test]
    fn an_index_entered_inside_a_span_blocks_it() {
        // A handler entry, start or end at a three-op span's middle index
        // leaves it to a two-op span.
        for h in [handler(7, 8, 5), handler(5, 7, 7), handler(0, 5, 7)] {
            let ops = fused(vec![h]);
            assert_eq!(ops[4], Op::Load2(0, 1));
        }
        // Boundaries at a span's first or last index do not.
        for h in [handler(6, 7, 4), handler(0, 6, 7), handler(4, 8, 7)] {
            let ops = fused(vec![h]);
            assert_eq!(ops[4], Op::IfLL(Cond::Lt, 0, 1, 0));
        }
    }

    #[test]
    fn a_polling_vm_prepares_unfused_bodies() {
        let code = Code {
            max_stack: 2,
            max_locals: 2,
            insns: vec![Insn::ILoad(0), Insn::ILoad(1), Insn::Return],
            exception_table: Vec::new(),
        };
        let ops = prepare(&code, &HashMap::new(), &mut Vec::new(), false).ops;
        assert_eq!(ops, [Op::Load(0), Op::Load(1), Op::Return]);
    }
}
