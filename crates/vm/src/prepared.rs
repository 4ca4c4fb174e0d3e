//! The interpreter: prepared (direct-threaded) code and the one
//! dispatch loop.
//!
//! Each method body is *prepared* once, on first invocation, into the
//! VM-wide [`CodeArena`] as a run of [`Op`]s (a jump table for the
//! compiler to dispatch over): operands are pre-decoded, call-site arity
//! and returns-ness are baked in, and every resolution site gets an
//! [`InlineCache`] slot, so the steady-state path does no hashing at all.
//! A miss falls back to the cold resolvers in `interp.rs` and fills the
//! slot. Bodies are addressed by index and never move, so a call takes
//! no reference count.
//!
//! Bytecode runs in one non-recursive loop over a per-thread frame stack
//! ([`ThreadStack`]): a bytecode→bytecode call pushes a [`Frame`] record
//! and carries on in the same loop, a return pops it, and an uncaught
//! throw pops frames (deopting compiled ones and firing `MethodExit`)
//! until a handler takes it. Every frame's locals and operands live in
//! one slot arena, and a callee's locals start where its caller pushed
//! the arguments. Simulated call depth therefore costs no host stack;
//! host recursion remains only where native code calls back into Java
//! (JNI `Call*Method*`, `<clinit>`, thread entry), which starts a nested
//! loop activation through [`Vm::invoke`].
//!
//! The loop has two levels. [`straight`] is a small function with no
//! calls on its hot paths: it runs straight-line ops, arrays, fields,
//! statics, `ldc` and allocations through filled inline caches, and
//! calls and returns between bytecode frames (method events included)
//! that promote nothing and stay inside the activation. It stops at
//! anything else, and [`Vm::execute`] runs that op with the whole VM at
//! hand. Cycle charges, instruction counts, call overheads and the
//! `Invocations` counter are *batched* (per tier) and flushed before
//! every observable action (events, tier compiles, native callees,
//! allocations, throws, polls, trace emission, leaving the activation),
//! which keeps every clock reading an agent or trace can make exact.
//! Preparation itself charges nothing — it models the one-time
//! threaded-code rewrite a template interpreter performs at link time,
//! not measured work.
//!
//! Preparation also fuses the hot straight-line sequences (DESIGN §16)
//! into superinstructions, unless the VM polls (a sampler is installed or
//! the fault plane is enabled; both are fixed before the first body is
//! prepared). A fused op replaces only the *head* of its span: the span's
//! other source ops stay at their own indexes, so a body keeps one `Op`
//! per source index and a jump into the span runs them unfused. A fused
//! op charges its whole span, and moves `pc` to the span's last op
//! before it branches or throws, so the OSR back-edge test, handler lookup
//! and every `bci` see the `pc` the unfused ops would. Only a span's last
//! op may branch or throw, and a span fuses only if no branch target,
//! handler entry or handler range boundary falls strictly between its
//! first and last index. While polling nothing fuses, so a poll still
//! lands every 32 instructions exactly.
//!
//! The committed golden corpus (`tests/golden.rs` in the umbrella crate)
//! pins this loop's cycles, stats and trace streams for every matrix
//! cell, and the engine corpus (`tests/engine_corpus.rs`) for 200
//! generated programs.

use std::collections::HashMap;

use jvmsim_classfile::{ArrayKind, Code, Cond, ExceptionHandler, Insn};
use jvmsim_faults::FaultSite;
use jvmsim_metrics::{Bucket, CounterId};
use jvmsim_tiers::{Tier, TiersMode};

use crate::cost::{CostModel, TierCostModel};

use crate::events::{ThreadId, VmEventSink};
use crate::heap::{Heap, HeapObject};
use crate::klass::{CallSite, ClassId, ClassRegistry, MethodId};
use crate::throw::JThrow;
use crate::value::{ObjRef, Value};
use crate::vm::{event_scope, ThreadInfo, Vm, VmStats};

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
/// for; the span's other ops stay behind it, unfused. Ops are plain
/// `Copy` data (a `tableswitch`'s targets live in the arena's side
/// table), so the loop fetches one by value and keeps no borrow of the
/// arena while it runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// `targets` counts entries of [`CodeArena::switch_targets`] from
    /// `first`.
    TableSwitch {
        low: i64,
        first: u32,
        targets: u32,
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

/// Where a prepared body sits in the [`CodeArena`].
#[derive(Debug)]
pub(crate) struct Body {
    /// Index of the body's first op in [`CodeArena::ops`].
    pub code: u32,
    pub max_stack: u16,
    pub max_locals: u16,
    pub exception_table: Box<[ExceptionHandler]>,
}

/// The VM-wide store of prepared code. Bodies are appended on first
/// invocation and never move or die, so a frame names its body by
/// index and no call touches a reference count.
#[derive(Debug, Default)]
pub(crate) struct CodeArena {
    /// Every prepared body's ops, back to back.
    pub ops: Vec<Op>,
    pub bodies: Vec<Body>,
    /// `tableswitch` jump targets (see [`Op::TableSwitch`]).
    pub switch_targets: Vec<u32>,
    /// Inline-cache slots the ops index into.
    pub ics: Vec<InlineCache>,
}

impl CodeArena {
    fn alloc_ic(&mut self) -> u32 {
        let i = u32::try_from(self.ics.len()).expect("inline-cache arena overflow");
        self.ics.push(InlineCache::Empty);
        i
    }
}

/// Rewrite `code` into threaded form at the end of `arena`, allocating
/// its inline-cache slots there, and fuse its hot spans if `fuse`.
/// Returns the new body's index. Call-site arity and returns-ness come
/// from the class's pre-parsed [`crate::klass::CallSite`]s, so the
/// execution loop never touches the callsite map.
pub(crate) fn prepare(
    code: &Code,
    callsites: &HashMap<u16, CallSite>,
    arena: &mut CodeArena,
    fuse: bool,
) -> u32 {
    let mut ops = Vec::with_capacity(code.insns.len());
    for insn in &code.insns {
        let op = match insn {
            Insn::Nop => Op::Nop,
            Insn::IConst(v) => Op::IConst(*v),
            Insn::FConst(v) => Op::FConst(*v),
            Insn::AConstNull => Op::AConstNull,
            Insn::Ldc(cp) => Op::Ldc {
                ic: arena.alloc_ic(),
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
            } => {
                let first = arena.switch_targets.len() as u32;
                arena.switch_targets.extend_from_slice(targets);
                Op::TableSwitch {
                    low: *low,
                    first,
                    targets: targets.len() as u32,
                    default: *default,
                }
            }
            Insn::InvokeStatic(cp) => {
                let cs = callsites
                    .get(&cp.0)
                    .expect("validated invokestatic has a callsite");
                Op::InvokeStatic {
                    ic: arena.alloc_ic(),
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
                    ic: arena.alloc_ic(),
                    cp: cp.0,
                    nargs: cs.nargs as u8,
                    returns: cs.returns_value,
                }
            }
            Insn::Return => Op::Return,
            Insn::IReturn | Insn::FReturn | Insn::AReturn => Op::ValueReturn,
            Insn::New(cp) => Op::New {
                ic: arena.alloc_ic(),
                cp: cp.0,
            },
            Insn::GetField(cp) => Op::GetField {
                ic: arena.alloc_ic(),
                cp: cp.0,
            },
            Insn::PutField(cp) => Op::PutField {
                ic: arena.alloc_ic(),
                cp: cp.0,
            },
            Insn::GetStatic(cp) => Op::GetStatic {
                ic: arena.alloc_ic(),
                cp: cp.0,
            },
            Insn::PutStatic(cp) => Op::PutStatic {
                ic: arena.alloc_ic(),
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
    let index = u32::try_from(arena.bodies.len()).expect("body arena overflow");
    arena.bodies.push(Body {
        code: u32::try_from(arena.ops.len()).expect("op arena overflow"),
        max_stack: code.max_stack,
        max_locals: code.max_locals,
        exception_table: code.exception_table.clone().into_boxed_slice(),
    });
    arena.ops.extend(ops);
    index
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

/// One activation on a thread's frame stack. The running frame's record
/// is a copy the dispatch loop keeps in its registers; the loop writes
/// it back here when the frame calls, and reloads it when the callee
/// returns. A native callee gets a record too (`body` is
/// [`Frame::NATIVE`]), so the stack's length is the thread's call depth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    mid: MethodId,
    body: u32,
    /// Index of the body's first op in [`CodeArena::ops`].
    code: u32,
    /// First local slot in [`ThreadStack::slots`]; the operand region
    /// starts `max_locals` above it.
    base: u32,
    /// The calling op while a callee runs.
    pc: u32,
    /// Operand-stack top, with a call's arguments already popped.
    sp: u32,
    tier: Tier,
    insn_cost: u64,
    osr_pending: bool,
    backedges: u32,
    /// Instructions since the last sampling or thread-death poll: each
    /// activation counts from 0 and the caller resumes its own count.
    polls: u32,
}

impl Frame {
    const NATIVE: u32 = u32::MAX;

    fn native(mid: MethodId) -> Self {
        Frame {
            mid,
            body: Self::NATIVE,
            code: 0,
            base: 0,
            pc: 0,
            sp: 0,
            tier: Tier::Interp,
            insn_cost: 0,
            osr_pending: false,
            backedges: 0,
            polls: 0,
        }
    }
}

/// A thread's frame stack: the frame records, and one slot arena that
/// holds every frame's locals with its operands directly above them. A
/// callee's locals start at its caller's first argument slot, so
/// arguments are never copied between bytecode frames. The arena only
/// grows while a loop activation runs; a nested activation (a JNI upcall
/// or `<clinit>` run from native or resolution code) starts at its end
/// and truncates it back when it returns.
#[derive(Debug, Default)]
pub(crate) struct ThreadStack {
    frames: Vec<Frame>,
    slots: Vec<Value>,
}

impl ThreadStack {
    /// Push the frame of `mid` (prepared as `body`, running at `tier`),
    /// whose `nargs` arguments sit at `slots[base..]`: the rest of its
    /// locals are zeroed and its region is made to fit. Returns the
    /// pushed record.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn push_frame(
        &mut self,
        arena: &CodeArena,
        tiers: &TierCostModel,
        mode: TiersMode,
        mid: MethodId,
        body: u32,
        base: usize,
        nargs: usize,
        tier: Tier,
    ) -> Frame {
        let b = &arena.bodies[body as usize];
        let max_locals = usize::from(b.max_locals);
        let end = base + max_locals + usize::from(b.max_stack);
        if self.slots.len() < end {
            self.slots.resize(end, Value::Int(0));
        }
        for local in &mut self.slots[base + nargs..base + max_locals] {
            *local = Value::Int(0);
        }
        let frame = Frame {
            mid,
            body,
            code: b.code,
            base: base as u32,
            pc: 0,
            sp: (base + max_locals) as u32,
            tier,
            insn_cost: tiers.insn(tier),
            osr_pending: mode.allows_promotion_from(tier),
            backedges: 0,
            polls: 0,
        };
        self.frames.push(frame);
        frame
    }

    fn top(&self) -> Frame {
        self.frames[self.frames.len() - 1]
    }

    fn set_top(&mut self, frame: Frame) {
        let top = self.frames.len() - 1;
        self.frames[top] = frame;
    }
}

/// Charges batched since the last flush: settled instruction counts,
/// cycles per tier (instructions plus call overheads) and invocations.
#[derive(Debug, Default)]
struct Pending {
    insns: u64,
    cycles: [u64; 3],
    invocations: u64,
}

impl Pending {
    /// Charge the batch to the thread `info` and `stats`: its clock and
    /// ledger, the `InterpInsns` and `Invocations` counters, and the
    /// `VmStats` instruction, invocation and per-tier columns.
    fn flush(&mut self, info: &ThreadInfo, stats: &mut VmStats) {
        if self.insns == 0 && self.invocations == 0 && self.cycles == [0; 3] {
            return;
        }
        info.charge(self.cycles.iter().sum());
        if self.insns != 0 {
            info.add(CounterId::InterpInsns, self.insns);
        }
        if self.invocations != 0 {
            info.add(CounterId::Invocations, self.invocations);
        }
        stats.insns += self.insns;
        stats.invocations += self.invocations;
        let [interp, c1, c2] = self.cycles;
        stats.interp_cycles += interp;
        stats.c1_cycles += c1;
        stats.c2_cycles += c2;
        *self = Pending::default();
    }

    /// Move `run` instructions at `frame`'s tier into the batch.
    #[inline(always)]
    fn settle(&mut self, frame: &Frame, run: &mut u64) {
        if *run != 0 {
            self.insns += *run;
            self.cycles[frame.tier.index()] += *run * frame.insn_cost;
            *run = 0;
        }
    }
}

/// The tier pipeline's promotion test for a call of a method with
/// `count` invocations (this one included) at `tier`: promote one tier at
/// a time at the invocation thresholds (Interp→C1 at the C1 threshold,
/// C1→C2 at the C2 threshold), capped by the tiers mode's ceiling. `>=`
/// rather than `==`: a fault-aborted compile resets the counter, and a
/// successful promotion changes the tier so the lower threshold stops
/// applying — either way this fires at most once per call.
#[inline(always)]
fn promotion(tiers: &TierCostModel, mode: TiersMode, tier: Tier, count: u32) -> Option<Tier> {
    let due = mode.allows_promotion_from(tier)
        && tiers
            .invocation_threshold(tier)
            .is_some_and(|threshold| count >= threshold);
    due.then(|| tier.next()).flatten()
}

/// How [`Vm::enter`] left a call.
enum Entered {
    /// A bytecode callee's frame is on top of the stack, ready to run.
    Frame(Frame),
    /// A native callee returned.
    Returned(Value),
    /// The call threw before a bytecode frame was pushed, or its native
    /// callee threw.
    Threw(JThrow),
}

impl Vm {
    /// Prepare `mid`'s body into the arena (its first execution), or
    /// `None` for a native method.
    #[cold]
    fn prepare_body(&mut self, mid: MethodId) -> Option<u32> {
        let rc = self.registry.get(mid.class);
        let code = rc.code[mid.index as usize].as_deref()?;
        self.bodies_prepared = true;
        let fuse = self.sampler_interval().is_none() && !self.faults_enabled();
        let body = prepare(code, &rc.callsites, &mut self.code, fuse);
        self.registry.exec_mut(mid).body = Some(body);
        Some(body)
    }

    /// Run `f` with `st` parked in `thread`'s record, where a nested
    /// activation (a JNI upcall, a `<clinit>`) finds it and stacks its
    /// own frames on top.
    fn parked<R>(
        &mut self,
        thread: ThreadId,
        st: &mut ThreadStack,
        f: impl FnOnce(&mut Vm) -> R,
    ) -> R {
        self.swap_stack(thread, st);
        let r = f(self);
        self.swap_stack(thread, st);
        r
    }

    /// Charge what `p` batched to `thread` (see [`Pending::flush`]).
    fn flush(&mut self, thread: ThreadId, p: &mut Pending) {
        p.flush(&self.threads[thread.index()], &mut self.stats);
    }

    /// Begin a call of `mid` with its `nargs` arguments (receiver first)
    /// at `st.slots[base..]`: count it, guard the call depth, fire
    /// `MethodEntry`, then run a native callee to completion or promote
    /// a bytecode callee and push its frame. Anything the call can
    /// observe is preceded by a flush of `pend`. [`straight`] takes the
    /// common case (no event, no promotion) without coming here.
    #[inline(never)]
    fn enter(
        &mut self,
        thread: ThreadId,
        st: &mut ThreadStack,
        pend: &mut Pending,
        mid: MethodId,
        base: usize,
        nargs: usize,
    ) -> Entered {
        pend.invocations += 1;
        if st.frames.len() >= self.max_call_depth {
            self.flush(thread, pend);
            return Entered::Threw(self.parked(thread, st, |vm| {
                vm.throw_new(
                    thread,
                    "java/lang/StackOverflowError",
                    "call depth exceeded",
                )
            }));
        }
        let events = self.method_events_on();
        if events {
            self.flush(thread, pend);
            self.dispatch(thread, |sink, info, vm| {
                sink.method_entry(info, vm.registry.method_view(mid));
            });
        }
        let body = match self.registry.exec(mid).body {
            Some(body) => body,
            None => match self.prepare_body(mid) {
                Some(body) => body,
                None => return self.call_native(thread, st, pend, mid, base, nargs, events),
            },
        };
        let (jit, mode) = (self.jit_enabled(), self.effective_tiers_mode());
        let exec = self.registry.exec_mut(mid);
        exec.invocations = exec.invocations.saturating_add(1);
        let count = exec.invocations;
        let mut tier = exec.effective_tier(jit);
        if let Some(next) = promotion(&self.cost.tiers, mode, tier, count) {
            self.flush(thread, pend);
            if self.tier_compile(thread, mid, next, false) {
                tier = next;
            }
        }
        pend.cycles[tier.index()] += self.cost.tiers.call_overhead(tier);
        let tiers = &self.cost.tiers;
        Entered::Frame(st.push_frame(&self.code, tiers, mode, mid, body, base, nargs, tier))
    }

    /// [`Vm::enter`] for a native callee: run it with its arguments
    /// copied out of the (parked) arena, under a frame record of its own,
    /// and fire `MethodExit` if `events`.
    #[allow(clippy::too_many_arguments)]
    fn call_native(
        &mut self,
        thread: ThreadId,
        st: &mut ThreadStack,
        pend: &mut Pending,
        mid: MethodId,
        base: usize,
        nargs: usize,
        events: bool,
    ) -> Entered {
        self.flush(thread, pend);
        let args = st.slots[base..base + nargs].to_vec();
        st.frames.push(Frame::native(mid));
        let result = self.parked(thread, st, |vm| vm.invoke_native(thread, mid, &args));
        st.frames.pop();
        if events {
            let via_exception = result.is_err();
            self.dispatch(thread, |sink, info, vm| {
                sink.method_exit(info, vm.registry.method_view(mid), via_exception);
            });
        }
        match result {
            Ok(v) => Entered::Returned(v),
            Err(t) => Entered::Threw(t),
        }
    }

    /// [`allocate`] on `thread`.
    fn allocate(&mut self, thread: ThreadId, what: Alloc) -> ObjRef {
        let info = &self.threads[thread.index()];
        allocate(
            &mut self.heap,
            &self.registry,
            info,
            &mut self.stats,
            &self.cost,
            what,
        )
    }

    /// What [`straight`] may touch, lent from the VM for one run.
    fn straight_cx<'a>(
        &'a mut self,
        thread: ThreadId,
        st: &'a mut ThreadStack,
        pend: &'a mut Pending,
        floor: usize,
    ) -> Straight<'a> {
        let (mode, jit) = (self.effective_tiers_mode(), self.jit_enabled());
        let alloc_events = self.alloc_events_on();
        let events = self
            .sink
            .as_deref()
            .filter(|_| self.method_events_on())
            .map(|sink| (sink, self.agent_bucket(), self.cost.event_dispatch));
        Straight {
            arena: &self.code,
            heap: &mut self.heap,
            registry: &mut self.registry,
            st,
            pend,
            cost: &self.cost,
            mode,
            jit,
            max_depth: self.max_call_depth,
            floor,
            alloc_events,
            info: &self.threads[thread.index()],
            stats: &mut self.stats,
            events,
        }
    }

    /// Invoke `mid` with `args` (receiver first for instance methods) on
    /// `thread` as one loop activation: the entry point for the harness,
    /// JNI `Call*Method*` and `<clinit>`. The activation stacks its frames
    /// on the thread's frame stack and returns when its entry frame does.
    ///
    /// # Errors
    ///
    /// Returns the Java exception unwinding out of the callee, if any.
    pub(crate) fn invoke(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        args: &[Value],
    ) -> Result<Value, JThrow> {
        let mut st = ThreadStack::default();
        self.swap_stack(thread, &mut st);
        let base = st.slots.len();
        st.slots.extend_from_slice(args);
        // A polling VM (sampler or fault plane) runs its own copy of the
        // loop, so the common one pays nothing for the poll counter.
        let result = if self.sampler_interval().is_some() || self.faults_enabled() {
            self.execute::<true>(thread, &mut st, mid, base, args.len())
        } else {
            self.execute::<false>(thread, &mut st, mid, base, args.len())
        };
        st.slots.truncate(base);
        self.swap_stack(thread, &mut st);
        result
    }

    /// The dispatch loop: call `mid` with its `nargs` arguments at
    /// `st.slots[base..]` and run bytecode until that call returns or
    /// throws. [`straight`] runs everything it can — straight-line ops,
    /// and calls and returns between bytecode frames — and stops at what
    /// needs the rest of the VM, which this loop runs: allocations under
    /// allocation events, `athrow`, inline-cache misses, calls that
    /// promote, overflow or reach a native, returns that leave the
    /// activation, throws, OSR and polls.
    ///
    /// Instructions are counted in `run` and settled into `pend` (at the
    /// running frame's per-instruction cost) whenever the running frame
    /// changes; `pend` is flushed (clock, `InterpInsns` and `Invocations`
    /// counters, `VmStats`) before every observable action, so every
    /// clock reading an agent or trace can make equals the one an
    /// instruction-by-instruction, call-by-call charge would give.
    #[allow(clippy::too_many_lines)]
    fn execute<const POLLING: bool>(
        &mut self,
        thread: ThreadId,
        st: &mut ThreadStack,
        mid: MethodId,
        base: usize,
        nargs: usize,
    ) -> Result<Value, JThrow> {
        // Frames below `floor` belong to outer activations.
        let floor = st.frames.len();
        let sampling = self.sampler_interval().is_some();
        let fault_polls = self.faults_enabled();
        let mut pend = Pending::default();
        // The running frame, the instructions it ran since the last
        // settle, and whether the op at its `pc` is already counted (and
        // polled).
        let (mut f, mut run, mut counted) =
            match self.enter(thread, st, &mut pend, mid, base, nargs) {
                Entered::Frame(f) => (f, 0, false),
                Entered::Returned(v) => return Ok(v),
                Entered::Threw(t) => return Err(t),
            };

        macro_rules! flush {
            () => {{
                pend.settle(&f, &mut run);
                self.flush(thread, &mut pend);
            }};
        }

        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                st.slots[f.sp as usize] = v;
                f.sp += 1;
            }};
        }

        macro_rules! pop {
            () => {{
                f.sp -= 1;
                st.slots[f.sp as usize]
            }};
        }

        loop {
            let thrown: JThrow = 'dispatch: loop {
                // These break out of `'dispatch`, so they live inside it.
                macro_rules! jthrow {
                    ($class:expr, $msg:expr) => {{
                        flush!();
                        break 'dispatch self
                            .parked(thread, st, |vm| vm.throw_new(thread, $class, $msg));
                    }};
                }

                // Call `$callee` with the top `$nargs` operands as its
                // arguments; `$returns` says whether the call site takes a
                // value.
                macro_rules! call {
                    ($callee:expr, $nargs:expr, $returns:expr) => {{
                        let args = f.sp as usize - $nargs;
                        pend.settle(&f, &mut run);
                        st.set_top(Frame {
                            sp: args as u32,
                            ..f
                        });
                        match self.enter(thread, st, &mut pend, $callee, args, $nargs) {
                            Entered::Frame(callee) => {
                                f = callee;
                                continue;
                            }
                            Entered::Returned(v) => {
                                f.sp = args as u32;
                                if $returns {
                                    push!(v);
                                }
                            }
                            Entered::Threw(t) => {
                                f.sp = args as u32;
                                break 'dispatch t;
                            }
                        }
                    }};
                }

                let stop = straight::<POLLING>(
                    &mut self.straight_cx(thread, st, &mut pend, floor),
                    &mut f,
                    &mut run,
                    counted,
                );
                counted = false;
                match stop {
                    Stop::Slow => {}
                    Stop::Poll => {
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
                        counted = true;
                        continue;
                    }
                    Stop::Throw(class, message) => jthrow!(class, &message),
                    Stop::Osr(target) => {
                        flush!();
                        if let Some(next) = f.tier.next() {
                            if self.tier_compile(thread, f.mid, next, true) {
                                f.tier = next;
                                f.insn_cost = self.cost.tiers.insn(next);
                            }
                        }
                        f.osr_pending = self.effective_tiers_mode().allows_promotion_from(f.tier);
                        f.pc = target;
                        continue;
                    }
                }
                // `straight` stopped at a counted op that needs the VM. A
                // miss fills its inline cache and hands the op back.
                let (cur, pc) = (f.mid, f.pc);
                match self.code.ops[f.code as usize + pc as usize] {
                    Op::Ldc { ic, cp } => {
                        flush!();
                        let s = self.registry.get(cur.class).strings[&cp].clone();
                        let before = self.heap.len();
                        let r = self.heap.intern_string(&s);
                        // Interning only allocates on a miss; an
                        // already-interned literal is not an event.
                        if self.alloc_events_on() && self.heap.len() > before {
                            let (sc, sm) = self.site_of(cur);
                            self.fire_allocation(thread, r, &sc, &sm, pc);
                        }
                        self.code.ics[ic as usize] = InlineCache::LdcStr(r);
                        counted = true;
                        continue;
                    }
                    Op::InvokeStatic {
                        ic,
                        cp,
                        nargs,
                        returns,
                    } => {
                        if let InlineCache::StaticCall(callee) = self.code.ics[ic as usize] {
                            call!(callee, usize::from(nargs), returns);
                        } else {
                            flush!();
                            let target = self.parked(thread, st, |vm| {
                                vm.call_target(thread, cur.class, cp, None)
                            });
                            match target {
                                Ok(m) => self.code.ics[ic as usize] = InlineCache::StaticCall(m),
                                Err(t) => break 'dispatch t,
                            }
                            counted = true;
                            continue;
                        }
                    }
                    Op::InvokeVirtual {
                        ic,
                        cp,
                        nargs,
                        returns,
                    } => {
                        // `straight` checked the receiver.
                        let nargs = usize::from(nargs) + 1;
                        let recv = st.slots[f.sp as usize - nargs].as_ref_opt();
                        let HeapObject::Instance { class, .. } = self.heap.get(recv.unwrap())
                        else {
                            unreachable!("straight checks invokevirtual receivers");
                        };
                        let dyn_class = *class;
                        match self.code.ics[ic as usize] {
                            InlineCache::VirtualCall { receiver, target }
                                if receiver == dyn_class =>
                            {
                                call!(target, nargs, returns);
                            }
                            _ => {
                                flush!();
                                let target = self.parked(thread, st, |vm| {
                                    vm.call_target(thread, cur.class, cp, Some(dyn_class))
                                });
                                match target {
                                    Ok(m) => {
                                        self.code.ics[ic as usize] = InlineCache::VirtualCall {
                                            receiver: dyn_class,
                                            target: m,
                                        };
                                    }
                                    Err(t) => break 'dispatch t,
                                }
                                counted = true;
                                continue;
                            }
                        }
                    }
                    // `straight` returns to callers in the activation, so
                    // this is its entry frame returning.
                    op @ (Op::Return | Op::ValueReturn) => {
                        debug_assert_eq!(st.frames.len() - 1, floor);
                        let v = matches!(op, Op::ValueReturn).then(|| pop!());
                        flush!();
                        if self.method_events_on() {
                            self.dispatch(thread, |sink, info, vm| {
                                sink.method_exit(info, vm.registry.method_view(cur), false);
                            });
                        }
                        st.frames.pop();
                        return Ok(v.unwrap_or(Value::Null));
                    }
                    Op::New { ic, cp } => {
                        let cid = match self.code.ics[ic as usize] {
                            InlineCache::NewClass(c) => c,
                            _ => {
                                flush!();
                                let name = self.registry.get(cur.class).classrefs[&cp].clone();
                                let loaded = self.parked(thread, st, |vm| {
                                    vm.ensure_loaded_or_throw(thread, &name)
                                });
                                match loaded {
                                    Ok(c) => self.code.ics[ic as usize] = InlineCache::NewClass(c),
                                    Err(t) => break 'dispatch t,
                                }
                                counted = true;
                                continue;
                            }
                        };
                        // `straight` allocates unless allocation events are on.
                        flush!();
                        let obj = self.allocate(thread, Alloc::Object(cid));
                        let (sc, sm) = self.site_of(cur);
                        self.fire_allocation(thread, obj, &sc, &sm, pc);
                        push!(Value::Ref(obj));
                    }
                    Op::GetField { ic, cp } | Op::PutField { ic, cp } => {
                        flush!();
                        let slot = self.parked(thread, st, |vm| {
                            vm.instance_field_slot(thread, cur.class, cp)
                        });
                        match slot {
                            Ok(s) => self.code.ics[ic as usize] = InlineCache::InstanceField(s),
                            Err(t) => break 'dispatch t,
                        }
                        counted = true;
                        continue;
                    }
                    Op::GetStatic { ic, cp } | Op::PutStatic { ic, cp } => {
                        flush!();
                        let target = self.parked(thread, st, |vm| {
                            vm.static_field_target(thread, cur.class, cp)
                        });
                        match target {
                            Ok((class, slot)) => {
                                self.code.ics[ic as usize] =
                                    InlineCache::StaticField { class, slot };
                            }
                            Err(t) => break 'dispatch t,
                        }
                        counted = true;
                        continue;
                    }
                    Op::NewArray(kind) => {
                        let len = pop!().as_int();
                        if len < 0 {
                            jthrow!("java/lang/NegativeArraySizeException", &format!("{len}"));
                        }
                        flush!();
                        let r = self.allocate(thread, Alloc::Array(kind, len as usize));
                        let (sc, sm) = self.site_of(cur);
                        self.fire_allocation(thread, r, &sc, &sm, pc);
                        push!(Value::Ref(r));
                    }
                    Op::AThrow => match pop!().as_ref_opt() {
                        Some(r) => {
                            flush!();
                            break 'dispatch JThrow::new(r);
                        }
                        None => {
                            jthrow!("java/lang/NullPointerException", "throwing null");
                        }
                    },
                    _ => unreachable!("straight runs this op"),
                }
                f.pc += 1;
            };
            // Unwind: the running frame's handler, if one covers `pc`,
            // takes the throw; otherwise the frame is popped (deopting a
            // compiled one and firing `MethodExit`) and its caller is
            // searched, until the activation's entry frame is gone.
            flush!();
            loop {
                if let Some(h) = self.find_handler(f.body, f.pc, thrown) {
                    f.sp = f.base + u32::from(self.code.bodies[f.body as usize].max_locals);
                    push!(Value::Ref(thrown.exception));
                    f.pc = h;
                    break;
                }
                if f.tier.is_compiled() {
                    self.deopt(thread, f.mid);
                }
                if self.method_events_on() {
                    let cur = f.mid;
                    self.dispatch(thread, |sink, info, vm| {
                        sink.method_exit(info, vm.registry.method_view(cur), true);
                    });
                }
                st.frames.pop();
                if st.frames.len() == floor {
                    return Err(thrown);
                }
                f = st.top();
            }
        }
    }
}

/// What [`straight`] may touch: the code arena, heap and class registry
/// (statics, method execution records), the thread's frame stack and
/// record, the pending charges and ground-truth counters, and the call
/// rules in force while it runs (method-event callbacks see no `Vm`, so
/// none of them can change under it).
struct Straight<'a> {
    arena: &'a CodeArena,
    heap: &'a mut Heap,
    registry: &'a mut ClassRegistry,
    st: &'a mut ThreadStack,
    pend: &'a mut Pending,
    cost: &'a CostModel,
    mode: TiersMode,
    jit: bool,
    max_depth: usize,
    floor: usize,
    /// Allocation events on: allocations stop here.
    alloc_events: bool,
    /// The running thread's record and the ground-truth counters, for
    /// flushes and method events.
    info: &'a ThreadInfo,
    stats: &'a mut VmStats,
    /// With method events on: the sink, the agent's attribution bucket
    /// and the cost of one dispatch.
    events: Option<(&'a dyn VmEventSink, Bucket, u64)>,
}

/// Why [`straight`] stopped. In every case the op at `pc` is counted.
#[derive(Debug)]
enum Stop {
    /// The op at `pc` needs the VM: the outer loop runs it.
    Slow,
    /// A sampling or thread-death poll is due before the op at `pc`.
    Poll,
    /// The op at `pc` throws a new `class` with this message.
    Throw(&'static str, String),
    /// The back-edge from `pc` to the target crossed the OSR threshold.
    Osr(u32),
}

/// What `new` and `newarray` allocate.
#[derive(Debug, Clone, Copy)]
enum Alloc {
    Object(ClassId),
    Array(ArrayKind, usize),
}

/// Allocate `what` on `heap`, charging its cost to the thread `info`
/// and counting it in `stats`.
#[inline(always)]
fn allocate(
    heap: &mut Heap,
    registry: &ClassRegistry,
    info: &ThreadInfo,
    stats: &mut VmStats,
    cost: &CostModel,
    what: Alloc,
) -> ObjRef {
    stats.allocations += 1;
    match what {
        Alloc::Object(class) => {
            info.charge(cost.alloc_object);
            heap.alloc_instance(class, registry.get(class).field_defaults())
        }
        Alloc::Array(kind, len) => {
            info.charge(cost.alloc_array(len));
            match kind {
                ArrayKind::Int => heap.alloc_int_array(len),
                ArrayKind::Float => heap.alloc_float_array(len),
                ArrayKind::Ref => heap.alloc_ref_array(len),
            }
        }
    }
}

/// `array[index]` for an `ArrLoad` of `kind`, or the class and message of
/// the exception it throws.
#[inline(always)]
fn array_load(
    heap: &Heap,
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
    let loaded = match (kind, heap.get(arr)) {
        (ArrayKind::Int, HeapObject::IntArray(v)) => v.get(i).map(|&x| Value::Int(x)),
        (ArrayKind::Float, HeapObject::FloatArray(v)) => v.get(i).map(|&x| Value::Float(x)),
        (ArrayKind::Ref, HeapObject::RefArray(v)) => v.get(i).copied(),
        _ => {
            return Err(("java/lang/InternalError", "array load kind mismatch".into()));
        }
    };
    loaded.ok_or_else(out_of_bounds)
}

/// Run the running `frame` — and the bytecode frames it calls — from
/// its `pc` while the ops need no more than [`Straight`] holds: locals,
/// operands, arithmetic, branches, switches, arrays, fields, statics,
/// `ldc` and allocations through a filled inline cache (allocations only
/// without allocation events), and calls and returns between bytecode
/// frames, with their method events, that promote nothing and stay
/// inside the activation. Stops (see [`Stop`]) at anything else, a due poll, a
/// throw, or an OSR threshold. Each op is counted (and, if `POLLING`,
/// polled) before it runs, except the first if `counted`. It makes no
/// call on its hot paths, so its state stays in registers.
#[allow(clippy::too_many_lines)]
#[inline(never)]
fn straight<const POLLING: bool>(
    cx: &mut Straight<'_>,
    frame: &mut Frame,
    run: &mut u64,
    mut counted: bool,
) -> Stop {
    // The running frame's record: its cold fields are read and written
    // in place, its hot ones (`pc`, `sp`) live in registers.
    let f = frame;
    // The running body's ops, and the slots from the running frame's
    // first local on (re-borrowed whenever the frame changes), so `sp`
    // counts from the frame's base and a local is indexed directly.
    let mut ops: &[Op] = &cx.arena.ops[f.code as usize..];
    let mut slots: &mut [Value] = &mut cx.st.slots[f.base as usize..];
    let (mut pc, mut sp) = (f.pc, (f.sp - f.base) as usize);
    let mut n = *run;

    // Write the hot copies back into the record.
    macro_rules! sync {
        () => {{
            (f.pc, f.sp) = (pc, f.base + sp as u32);
        }};
    }

    // Make `$frame` the running frame.
    macro_rules! load {
        ($frame:expr) => {{
            *f = $frame;
            ops = &cx.arena.ops[f.code as usize..];
            slots = &mut cx.st.slots[f.base as usize..];
            (pc, sp) = (f.pc, (f.sp - f.base) as usize);
        }};
    }

    macro_rules! stop {
        ($stop:expr) => {{
            sync!();
            *run = n;
            return $stop;
        }};
    }

    macro_rules! throw {
        ($class:expr, $msg:expr) => {
            stop!(Stop::Throw($class, $msg.into()))
        };
    }

    macro_rules! push {
        ($v:expr) => {{
            let v = $v;
            slots[sp] = v;
            sp += 1;
        }};
    }

    macro_rules! pop {
        () => {{
            sp -= 1;
            slots[sp]
        }};
    }

    macro_rules! local {
        ($i:expr) => {
            slots[$i as usize]
        };
    }

    macro_rules! branch {
        ($t:expr) => {{
            let target: u32 = $t;
            if f.osr_pending && target <= pc {
                f.backedges += 1;
                if f.backedges >= cx.cost.tiers.osr_backedge_threshold {
                    f.backedges = 0;
                    stop!(Stop::Osr(target));
                }
            }
            pc = target;
            continue;
        }};
    }

    // A fused head charges the rest of its span and moves `pc` to the
    // span's last op, where the unfused ops would branch or throw.
    macro_rules! fused {
        ($n:literal) => {{
            pc += $n - 1;
            n += $n - 1;
        }};
    }

    // Fire a method event (`$fire` gets the sink and the view of `$mid`)
    // if they are on, after a flush: the clock it reads is exact.
    macro_rules! method_event {
        ($mid:expr, $fire:expr) => {{
            if let Some((sink, bucket, dispatch)) = cx.events {
                cx.pend.settle(f, &mut n);
                cx.pend.flush(cx.info, cx.stats);
                cx.stats.events_dispatched += 1;
                let _agent = event_scope(cx.info, bucket, dispatch);
                $fire(sink, cx.registry.method_view($mid));
            }
        }};
    }

    // Call `$callee` with the top `$nargs` operands as its arguments, if
    // it is prepared bytecode, the depth allows it and no promotion is
    // due; stop otherwise, leaving everything as it was.
    macro_rules! call {
        ($callee:expr, $nargs:expr) => {{
            let (callee, nargs): (MethodId, usize) = ($callee, $nargs);
            if cx.st.frames.len() >= cx.max_depth {
                stop!(Stop::Slow);
            }
            let exec = cx.registry.exec(callee);
            let Some(body) = exec.body else {
                stop!(Stop::Slow);
            };
            let count = exec.invocations.saturating_add(1);
            let tier = exec.effective_tier(cx.jit);
            if promotion(&cx.cost.tiers, cx.mode, tier, count).is_some() {
                stop!(Stop::Slow);
            }
            cx.pend.invocations += 1;
            method_event!(callee, |sink: &dyn VmEventSink, view| sink
                .method_entry(cx.info, view));
            cx.registry.exec_mut(callee).invocations = count;
            cx.pend.cycles[tier.index()] += cx.cost.tiers.call_overhead(tier);
            cx.pend.settle(f, &mut n);
            let args = f.base as usize + sp - nargs;
            sync!();
            cx.st.set_top(Frame {
                sp: args as u32,
                ..*f
            });
            let pushed = cx.st.push_frame(
                cx.arena,
                &cx.cost.tiers,
                cx.mode,
                callee,
                body,
                args,
                nargs,
                tier,
            );
            load!(pushed);
            continue;
        }};
    }

    // Return `$v` (if any) to the caller, unless it is in another
    // activation.
    macro_rules! ret {
        ($v:expr) => {{
            if cx.st.frames.len() - 1 == cx.floor {
                stop!(Stop::Slow);
            }
            let v: Option<Value> = $v;
            cx.pend.settle(f, &mut n);
            method_event!(f.mid, |sink: &dyn VmEventSink, view| sink
                .method_exit(cx.info, view, false));
            cx.st.frames.pop();
            load!(cx.st.frames[cx.st.frames.len() - 1]);
            if let Some(v) = v {
                push!(v);
            }
            pc += 1;
            continue;
        }};
    }

    loop {
        let op = &ops[pc as usize];
        if counted {
            counted = false;
        } else {
            n += 1;
            if POLLING {
                f.polls += 1;
                if f.polls >= 32 {
                    f.polls = 0;
                    stop!(Stop::Poll);
                }
            }
        }
        match *op {
            Op::Nop => {}
            Op::IConst(v) => push!(Value::Int(v)),
            Op::FConst(v) => push!(Value::Float(v)),
            Op::AConstNull => push!(Value::Null),
            Op::Ldc { ic, .. } => match cx.arena.ics[ic as usize] {
                InlineCache::LdcStr(r) => push!(Value::Ref(r)),
                _ => stop!(Stop::Slow),
            },
            Op::Load(s) => push!(local!(s)),
            Op::Store(s) => local!(s) = pop!(),
            Op::Pop => sp -= 1,
            Op::Dup => push!(slots[sp - 1]),
            Op::Swap => slots.swap(sp - 1, sp - 2),
            Op::IBin(op) => {
                let b = pop!().as_int();
                let a = slots[sp - 1].as_int();
                slots[sp - 1] = Value::Int(op.apply(a, b));
            }
            Op::IDiv | Op::IRem => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                if b == 0 {
                    throw!("java/lang/ArithmeticException", "/ by zero");
                }
                let r = if matches!(op, Op::IDiv) {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                };
                push!(Value::Int(r));
            }
            Op::INeg => {
                let a = slots[sp - 1].as_int();
                slots[sp - 1] = Value::Int(a.wrapping_neg());
            }
            Op::IInc { local, delta } => {
                let v = local!(local).as_int();
                local!(local) = Value::Int(v.wrapping_add(i64::from(delta)));
            }
            Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => {
                let b = pop!().as_float();
                let a = pop!().as_float();
                let r = match op {
                    Op::FAdd => a + b,
                    Op::FSub => a - b,
                    Op::FMul => a * b,
                    _ => a / b,
                };
                push!(Value::Float(r));
            }
            Op::FNeg => {
                let a = pop!().as_float();
                push!(Value::Float(-a));
            }
            Op::I2F => {
                let a = pop!().as_int();
                push!(Value::Float(a as f64));
            }
            Op::F2I => {
                let a = pop!().as_float();
                push!(Value::Int(a as i64));
            }
            Op::FCmp => {
                let b = pop!().as_float();
                let a = pop!().as_float();
                let r = if a.is_nan() || b.is_nan() {
                    1
                } else if a < b {
                    -1
                } else {
                    i64::from(a > b)
                };
                push!(Value::Int(r));
            }
            Op::Goto(t) => branch!(t),
            Op::If(cond, t) => {
                let v = pop!().as_int();
                if cond.eval(v.cmp(&0)) {
                    branch!(t);
                }
            }
            Op::IfICmp(cond, t) => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                if cond.eval(a.cmp(&b)) {
                    branch!(t);
                }
            }
            Op::IfNull(t) => {
                if pop!().as_ref_opt().is_none() {
                    branch!(t);
                }
            }
            Op::IfNonNull(t) => {
                if pop!().as_ref_opt().is_some() {
                    branch!(t);
                }
            }
            Op::TableSwitch {
                low,
                first,
                targets,
                default,
            } => {
                let k = pop!().as_int();
                let off = k.wrapping_sub(low);
                let target = if off >= 0 && (off as u64) < u64::from(targets) {
                    cx.arena.switch_targets[first as usize + off as usize]
                } else {
                    default
                };
                branch!(target);
            }
            Op::InvokeStatic { ic, nargs, .. } => match cx.arena.ics[ic as usize] {
                InlineCache::StaticCall(callee) => call!(callee, usize::from(nargs)),
                _ => stop!(Stop::Slow),
            },
            Op::InvokeVirtual { ic, nargs, .. } => {
                let nargs = usize::from(nargs) + 1;
                let Some(obj) = slots[sp - nargs].as_ref_opt() else {
                    sp -= nargs;
                    throw!("java/lang/NullPointerException", "null receiver");
                };
                let HeapObject::Instance { class, .. } = cx.heap.get(obj) else {
                    sp -= nargs;
                    throw!(
                        "java/lang/InternalError",
                        "invokevirtual receiver is not an object instance"
                    );
                };
                match cx.arena.ics[ic as usize] {
                    InlineCache::VirtualCall { receiver, target } if receiver == *class => {
                        call!(target, nargs);
                    }
                    _ => stop!(Stop::Slow),
                }
            }
            Op::Return => ret!(None),
            Op::ValueReturn => ret!(Some(slots[sp - 1])),
            Op::GetField { ic, .. } | Op::PutField { ic, .. } => {
                let is_put = matches!(op, Op::PutField { .. });
                let recv = slots[sp - 1 - usize::from(is_put)];
                let Some(obj) = recv.as_ref_opt() else {
                    sp -= 1 + usize::from(is_put);
                    throw!("java/lang/NullPointerException", "null field access");
                };
                let HeapObject::Instance { fields, .. } = cx.heap.get_mut(obj) else {
                    sp -= 1 + usize::from(is_put);
                    throw!(
                        "java/lang/InternalError",
                        "field access on a non-object reference"
                    );
                };
                let InlineCache::InstanceField(slot) = cx.arena.ics[ic as usize] else {
                    stop!(Stop::Slow);
                };
                if is_put {
                    fields[slot] = slots[sp - 1];
                    sp -= 2;
                } else {
                    slots[sp - 1] = fields[slot];
                }
            }
            Op::GetStatic { ic, .. } | Op::PutStatic { ic, .. } => {
                let InlineCache::StaticField { class, slot } = cx.arena.ics[ic as usize] else {
                    stop!(Stop::Slow);
                };
                let statics = &mut cx.registry.get_mut(class).statics;
                if matches!(op, Op::PutStatic { .. }) {
                    statics[slot] = pop!();
                } else {
                    push!(statics[slot]);
                }
            }
            Op::ArrLoad(kind) => {
                let index = pop!().as_int();
                let arr = pop!();
                match array_load(cx.heap, kind, arr, index) {
                    Ok(v) => push!(v),
                    Err((class, msg)) => throw!(class, msg),
                }
            }
            Op::ArrStore(kind) => {
                let value = pop!();
                let index = pop!().as_int();
                let Some(arr) = pop!().as_ref_opt() else {
                    throw!("java/lang/NullPointerException", "null array store");
                };
                if index < 0 {
                    throw!(
                        "java/lang/ArrayIndexOutOfBoundsException",
                        format!("{index}")
                    );
                }
                let i = index as usize;
                let stored = match (kind, cx.heap.get_mut(arr)) {
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
                        throw!("java/lang/ArrayStoreException", "array store kind mismatch");
                    }
                };
                if stored.is_none() {
                    throw!(
                        "java/lang/ArrayIndexOutOfBoundsException",
                        format!("{index}")
                    );
                }
            }
            Op::ArrayLength => {
                let Some(arr) = pop!().as_ref_opt() else {
                    throw!("java/lang/NullPointerException", "null arraylength");
                };
                match cx.heap.get(arr).array_len() {
                    Some(len) => push!(Value::Int(len as i64)),
                    None => {
                        throw!("java/lang/InternalError", "arraylength of a non-array");
                    }
                }
            }
            Op::Load2(a, b) => {
                fused!(2);
                push!(local!(a));
                push!(local!(b));
            }
            Op::LoadK(a, k) => {
                fused!(2);
                push!(local!(a));
                push!(Value::Int(k));
            }
            Op::StoreLoad(a, b) => {
                fused!(2);
                local!(a) = slots[sp - 1];
                slots[sp - 1] = local!(b);
            }
            Op::IBinK(op, k) => {
                fused!(2);
                let a = slots[sp - 1].as_int();
                slots[sp - 1] = Value::Int(op.apply(a, k));
            }
            Op::IBinLK(op, a, k) => {
                fused!(3);
                push!(Value::Int(op.apply(local!(a).as_int(), k)));
            }
            Op::IfK(cond, k, t) => {
                fused!(2);
                let a = pop!().as_int();
                if cond.eval(a.cmp(&k)) {
                    branch!(t);
                }
            }
            Op::IfLL(cond, a, b, t) => {
                fused!(3);
                if cond.eval(local!(a).as_int().cmp(&local!(b).as_int())) {
                    branch!(t);
                }
            }
            Op::IfLK(cond, a, k, t) => {
                fused!(3);
                if cond.eval(local!(a).as_int().cmp(&k)) {
                    branch!(t);
                }
            }
            Op::ArrLoadLL(kind, a, i) => {
                fused!(3);
                match array_load(cx.heap, kind, local!(a), local!(i).as_int()) {
                    Ok(v) => push!(v),
                    Err((class, msg)) => throw!(class, msg),
                }
            }
            Op::IIncGoto {
                local,
                delta,
                target,
            } => {
                fused!(2);
                let v = local!(local).as_int();
                local!(local) = Value::Int(v.wrapping_add(i64::from(delta)));
                branch!(target);
            }
            Op::New { ic, .. } => {
                let InlineCache::NewClass(class) = cx.arena.ics[ic as usize] else {
                    stop!(Stop::Slow);
                };
                if cx.alloc_events {
                    stop!(Stop::Slow);
                }
                let what = Alloc::Object(class);
                let obj = allocate(cx.heap, cx.registry, cx.info, cx.stats, cx.cost, what);
                push!(Value::Ref(obj));
            }
            Op::NewArray(kind) => {
                if cx.alloc_events {
                    stop!(Stop::Slow);
                }
                let len = pop!().as_int();
                if len < 0 {
                    throw!("java/lang/NegativeArraySizeException", format!("{len}"));
                }
                let what = Alloc::Array(kind, len as usize);
                let r = allocate(cx.heap, cx.registry, cx.info, cx.stats, cx.cost, what);
                push!(Value::Ref(r));
            }
            Op::AThrow => stop!(Stop::Slow),
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use jvmsim_classfile::{Code, Cond, ExceptionHandler, Insn};

    use super::{prepare, CodeArena, HashMap, Op};

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
        let mut arena = CodeArena::default();
        prepare(&code, &HashMap::new(), &mut arena, true);
        arena.ops
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
        let mut arena = CodeArena::default();
        prepare(&code, &HashMap::new(), &mut arena, false);
        let ops = arena.ops;
        assert_eq!(ops, [Op::Load(0), Op::Load(1), Op::Return]);
    }
}
