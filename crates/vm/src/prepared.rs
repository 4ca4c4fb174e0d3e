//! The interpreter: prepared (direct-threaded) code and the one
//! dispatch loop.
//!
//! Each method body is *prepared* once, on first invocation, into the
//! VM-wide [`CodeArena`] as a run of register-form [`Op`]s (a jump table
//! for the compiler to dispatch over): operands are frame slots or inline
//! constants, call-site arity and returns-ness are baked in, and every
//! resolution site gets an [`InlineCache`] slot, so the steady-state path
//! does no hashing at all. A miss falls back to the cold resolvers in
//! `interp.rs` and fills the slot. Bodies are addressed by index and
//! never move, so a call takes no reference count.
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
//! A frame's slots are its locals, then its operand stack: stack
//! position `d` is slot `max_locals + d`, where `d` is the depth the
//! validator's flow proved at each instruction when the class was loaded
//! (its `CodeFacts::depths`, kept beside the body in the
//! [`crate::klass::RuntimeClass`]). [`prepare`] translates
//! the stack code into ops that name those slots (DESIGN §16): a load or
//! constant folds into the op that consumes it, a store folds into the op
//! that just produced its value, `iinc; goto` is one op, and a call
//! writes its last two arguments to their slots itself. An op stands for
//! the span of instructions it covers and counts them all. Each body has
//! one prepared form, one op per span in source order, so an op falls
//! through to the next position. Branches name positions, and every
//! branch target, handler entry and OSR target starts a span; a body's
//! [`Body::resume`] table maps an instruction to the op whose span covers
//! it, and [`CodeArena::src`] maps an op back to its first instruction.
//! Straight-line ops never touch `sp`: an op that can stop the loop
//! carries the depth its instruction starts at, and when it throws or
//! stops it names that instruction (a suspended caller's call instruction
//! is derived from where it resumes), so [`Vm::execute`], handler lookup
//! and every `bci` see the `pc` and `sp` the stack code would. An inline
//! cache that misses inside a span is filled and the loop re-enters the
//! span's op: the instructions before its consumer write nothing, so
//! running them again changes nothing, and the count is rewound to match.
//! While the VM polls (a sampler is installed or the fault plane is
//! enabled; both are fixed before the first body is prepared) nothing
//! folds: every op is one instruction, so a poll still lands every 32
//! instructions exactly.
//!
//! The committed golden corpus (`tests/golden.rs` in the umbrella crate)
//! pins this loop's cycles, stats and trace streams for every matrix
//! cell, and the engine corpus (`tests/engine_corpus.rs`) for 240
//! generated programs.

use std::cell::Cell;
use std::collections::HashMap;

use jvmsim_classfile::{ArrayKind, Code, Cond, ExceptionHandler, Insn};
use jvmsim_faults::FaultSite;
use jvmsim_metrics::{Bucket, CounterId};
use jvmsim_tiers::{Tier, TiersMode};

use crate::cost::{CostModel, TierCostModel};

use crate::events::{EventMask, EventType, ThreadId, VmEventSink};
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
    /// `invokestatic` of a bytecode method: its prepared body, which
    /// names the method.
    StaticCall(u32),
    /// `invokestatic` of a native method.
    StaticNative(MethodId),
    /// Monomorphic `invokevirtual` entry, naming the resolved callee's
    /// prepared body: valid while the receiver's dynamic class matches (a
    /// different receiver re-resolves and re-caches — last-seen wins,
    /// which is deterministic).
    VirtualCall {
        /// Receiver class the cached target was resolved against.
        receiver: ClassId,
        body: u32,
    },
    /// [`InlineCache::VirtualCall`] of a native method.
    VirtualNative { receiver: ClassId, target: MethodId },
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

/// Declare [`Op`]. Every variant gets `len`, the number of source
/// instructions it stands for; the `dst` group also gets `dst`, the slot
/// it writes its result to, which a following store may retarget.
macro_rules! ops {
    (
        dst { $($(#[$dm:meta])* $d:ident { $($df:ident: $dt:ty),* $(,)? },)* }
        other { $($(#[$om:meta])* $o:ident { $($of:ident: $ot:ty),* $(,)? },)* }
    ) => {
        /// A prepared instruction in register form. Its operands are frame
        /// slots (numbered from the frame's first local: locals, then the
        /// operand stack, position `d` at `max_locals + d`) or inline
        /// constants. An op stands for the `len` source instructions of
        /// the span it heads: loads and constants folded into their
        /// consumer, the consumer itself (which may branch or throw) and,
        /// for the `dst` ops, a store folded into it (see the module doc
        /// for where ops sit and where branches go). `at` is where the
        /// consumer sits in the span, and `top` is `max_locals` plus the
        /// stack depth the consumer starts at: an op that stops the
        /// straight-line loop leaves `pc` and `sp` as the stack code
        /// would. Ops are plain `Copy` data (a `tableswitch`'s table lives
        /// in the arena), so the loop fetches one by value and keeps no
        /// borrow of the arena while it runs it.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(crate) enum Op {
            $($(#[$dm])* $d { len: u8, dst: u16, $($df: $dt),* },)*
            $($(#[$om])* $o { len: u8, $($of: $ot),* },)*
        }

        impl Op {
            /// The number of source instructions the op stands for.
            fn len_mut(&mut self) -> &mut u8 {
                match self {
                    $(Op::$d { len, .. } => len,)*
                    $(Op::$o { len, .. } => len,)*
                }
            }

            /// The slot the op writes its result to, if it writes one.
            fn dst_mut(&mut self) -> Option<&mut u16> {
                match self {
                    $(Op::$d { dst, .. } => Some(dst),)*
                    _ => None,
                }
            }

            /// The op's branch target, if it has one.
            fn target_mut(&mut self) -> Option<&mut u32> {
                match self {
                    Op::Goto { target, .. }
                    | Op::IIncGoto { target, .. }
                    | Op::IfEq { target, .. }
                    | Op::IfNe { target, .. }
                    | Op::IfLt { target, .. }
                    | Op::IfGe { target, .. }
                    | Op::IfGt { target, .. }
                    | Op::IfLe { target, .. }
                    | Op::IfEqK { target, .. }
                    | Op::IfNeK { target, .. }
                    | Op::IfLtK { target, .. }
                    | Op::IfGeK { target, .. }
                    | Op::IfGtK { target, .. }
                    | Op::IfLeK { target, .. }
                    | Op::IfNull { target, .. }
                    | Op::IfNonNull { target, .. } => Some(target),
                    _ => None,
                }
            }
        }
    };
}

ops! {
    dst {
        /// A load, a store, a `dup`, or a load and the store it feeds.
        Mov { src: u16 },
        Const { k: i64 },
        FConst { k: f64 },
        Null {},
        Ldc { at: u8, ic: u32, cp: u16, top: u16 },
        IAdd { a: u16, b: u16 },
        ISub { a: u16, b: u16 },
        IMul { a: u16, b: u16 },
        IShl { a: u16, b: u16 },
        IShr { a: u16, b: u16 },
        IUShr { a: u16, b: u16 },
        IAnd { a: u16, b: u16 },
        IOr { a: u16, b: u16 },
        IXor { a: u16, b: u16 },
        IDiv { at: u8, a: u16, b: u16 },
        IRem { at: u8, a: u16, b: u16 },
        IAddK { a: u16, k: i64 },
        ISubK { a: u16, k: i64 },
        IMulK { a: u16, k: i64 },
        IShlK { a: u16, k: i64 },
        IShrK { a: u16, k: i64 },
        IUShrK { a: u16, k: i64 },
        IAndK { a: u16, k: i64 },
        IOrK { a: u16, k: i64 },
        IXorK { a: u16, k: i64 },
        IDivK { at: u8, a: u16, k: i64 },
        IRemK { at: u8, a: u16, k: i64 },
        INeg { a: u16 },
        FAdd { a: u16, b: u16 },
        FSub { a: u16, b: u16 },
        FMul { a: u16, b: u16 },
        FDiv { a: u16, b: u16 },
        FNeg { a: u16 },
        I2F { a: u16 },
        F2I { a: u16 },
        FCmp { a: u16, b: u16 },
        GetField { at: u8, ic: u32, cp: u16, obj: u16, top: u16 },
        GetStatic { at: u8, ic: u32, cp: u16, top: u16 },
        IALoad { at: u8, arr: u16, idx: u16 },
        FALoad { at: u8, arr: u16, idx: u16 },
        AALoad { at: u8, arr: u16, idx: u16 },
        IALoadK { at: u8, arr: u16, k: i64 },
        FALoadK { at: u8, arr: u16, k: i64 },
        AALoadK { at: u8, arr: u16, k: i64 },
        ArrayLength { at: u8, arr: u16 },
    }
    other {
        /// Instructions with nothing to do at run time (`nop`, `pop`).
        Nop {},
        Swap { a: u16, b: u16 },
        IInc { local: u16, delta: i32 },
        IIncGoto { local: u16, delta: i32, target: u32 },
        Goto { target: u32 },
        IfEq { a: u16, b: u16, target: u32 },
        IfNe { a: u16, b: u16, target: u32 },
        IfLt { a: u16, b: u16, target: u32 },
        IfGe { a: u16, b: u16, target: u32 },
        IfGt { a: u16, b: u16, target: u32 },
        IfLe { a: u16, b: u16, target: u32 },
        IfEqK { a: u16, k: i64, target: u32 },
        IfNeK { a: u16, k: i64, target: u32 },
        IfLtK { a: u16, k: i64, target: u32 },
        IfGeK { a: u16, k: i64, target: u32 },
        IfGtK { a: u16, k: i64, target: u32 },
        IfLeK { a: u16, k: i64, target: u32 },
        IfNull { a: u16, target: u32 },
        IfNonNull { a: u16, target: u32 },
        /// `switch` indexes [`CodeArena::switches`].
        TableSwitch { key: u16, switch: u32 },
        /// `args` are where the last two arguments (receiver included)
        /// are read from: the call writes them to their stack slots first.
        InvokeStatic { ic: u32, cp: u16, nargs: u8, returns: bool, top: u16, args: [u16; 2] },
        InvokeVirtual { ic: u32, cp: u16, nargs: u8, returns: bool, top: u16, args: [u16; 2] },
        Return { top: u16 },
        /// Unified `ireturn`/`freturn`/`areturn` of the value in `src`.
        ValueReturn { src: u16, top: u16 },
        New { ic: u32, cp: u16, top: u16 },
        PutField { ic: u32, cp: u16, obj: u16, val: u16, top: u16 },
        PutStatic { ic: u32, cp: u16, src: u16, top: u16 },
        NewArray { kind: ArrayKind, top: u16 },
        IAStore { arr: u16, idx: u16, val: u16 },
        FAStore { arr: u16, idx: u16, val: u16 },
        AAStore { arr: u16, idx: u16, val: u16 },
        IAStoreK { arr: u16, k: i64, val: u16 },
        FAStoreK { arr: u16, k: i64, val: u16 },
        AAStoreK { arr: u16, k: i64, val: u16 },
        AThrow { top: u16 },
    }
}

/// A `tableswitch`'s jump table: `count` entries of
/// [`CodeArena::switch_targets`] from `first`.
#[derive(Debug)]
pub(crate) struct Switch {
    low: i64,
    first: u32,
    count: u32,
    default: u32,
}

/// Where a prepared body sits in the [`CodeArena`], and its method's
/// execution state: the one record a call through an inline cache reads.
/// The state is in `Cell`s, so the loop updates it through the shared
/// borrow of the arena it runs from.
#[derive(Debug)]
pub(crate) struct Body {
    /// Index of the body's first op in [`CodeArena::ops`].
    pub code: u32,
    pub max_stack: u16,
    pub max_locals: u16,
    /// The method the body is prepared from.
    pub mid: MethodId,
    /// Invocation counter (tier-promotion profiling).
    pub invocations: Cell<u32>,
    /// Execution tier.
    pub tier: Cell<Tier>,
    /// For each instruction, the op (from `code`) whose span covers it.
    /// A branch, a handler or an OSR transfer lands where a span starts;
    /// a stop inside a span re-enters its op.
    pub resume: Box<[u32]>,
    pub exception_table: Box<[ExceptionHandler]>,
}

/// The VM-wide store of prepared code. Bodies are appended on first
/// invocation and never move or die, so a frame names its body by
/// index and no call touches a reference count.
#[derive(Debug, Default)]
pub(crate) struct CodeArena {
    /// Every prepared body's ops, back to back.
    pub ops: Vec<Op>,
    /// The first instruction each op in `ops` stands for.
    pub src: Vec<u32>,
    pub bodies: Vec<Body>,
    /// `tableswitch` tables (see [`Op::TableSwitch`]) and their targets.
    pub switches: Vec<Switch>,
    pub switch_targets: Vec<u32>,
    /// Inline-cache slots the ops index into.
    pub ics: Vec<InlineCache>,
}

impl CodeArena {
    /// The method a call through inline-cache slot `ic` reaches, if the
    /// slot holds one for a receiver of class `receiver` (`None` for an
    /// `invokestatic`).
    fn cached_callee(&self, ic: u32, receiver: Option<ClassId>) -> Option<MethodId> {
        match (self.ics[ic as usize], receiver) {
            (InlineCache::StaticCall(body), None) => Some(self.bodies[body as usize].mid),
            (InlineCache::StaticNative(target), None) => Some(target),
            (InlineCache::VirtualCall { receiver, body }, Some(class)) if receiver == class => {
                Some(self.bodies[body as usize].mid)
            }
            (InlineCache::VirtualNative { receiver, target }, Some(class)) if receiver == class => {
                Some(target)
            }
            _ => None,
        }
    }

    /// The call instruction the suspended caller `f` waits at: the last
    /// instruction of the op before the one it resumes at.
    fn call_pc(&self, f: &Frame) -> u32 {
        let at = (f.code + f.ret - 1) as usize;
        let mut op = self.ops[at];
        self.src[at] + u32::from(*op.len_mut()) - 1
    }

    fn alloc_ic(&mut self) -> u32 {
        let i = u32::try_from(self.ics.len()).expect("inline-cache arena overflow");
        self.ics.push(InlineCache::Empty);
        i
    }
}

/// Translate `code`, the body of `mid`, into register form at the end of
/// `arena`, allocating its inline-cache slots and switch tables there,
/// and fold its loads, constants and stores into their neighbours if
/// `fold`. `depths` is the
/// operand-stack depth on entry to each instruction (`None` where none
/// reaches it), as the validator proved it. Returns the new body's index.
/// Call-site arity and returns-ness come from the class's pre-parsed
/// [`crate::klass::CallSite`]s, so the execution loop never touches the
/// callsite map.
pub(crate) fn prepare(
    mid: MethodId,
    code: &Code,
    depths: &[Option<u16>],
    callsites: &HashMap<u16, CallSite>,
    arena: &mut CodeArena,
    fold: bool,
) -> u32 {
    // One inline-cache slot or switch table per instruction that needs
    // one, for the op whose span covers it, allocated once however many
    // passes the translation takes.
    let side: Vec<u32> = code
        .insns
        .iter()
        .map(|insn| match insn {
            Insn::Ldc(_)
            | Insn::InvokeStatic(_)
            | Insn::InvokeVirtual(_)
            | Insn::New(_)
            | Insn::GetField(_)
            | Insn::PutField(_)
            | Insn::GetStatic(_)
            | Insn::PutStatic(_) => arena.alloc_ic(),
            Insn::TableSwitch {
                low,
                targets,
                default,
            } => {
                let switch = arena.switches.len() as u32;
                arena.switches.push(Switch {
                    low: *low,
                    first: arena.switch_targets.len() as u32,
                    count: targets.len() as u32,
                    default: *default,
                });
                arena.switch_targets.extend_from_slice(targets);
                switch
            }
            _ => 0,
        })
        .collect();
    let mut x = Translator::new(code, depths, callsites, &side, fold);
    // Forcing a value to its slot only ever adds forced values, so this
    // settles once a pass forces nothing new (at once if not folding).
    let heads = loop {
        let heads = x.run();
        if !std::mem::take(&mut x.forced_more) {
            break heads;
        }
    };
    // One op per span, in source order, so each one's fall-through
    // successor is the next op.
    let mut ops: Vec<(u32, Op)> = (0..)
        .zip(heads)
        .filter_map(|(i, op)| Some((i, op?)))
        .collect();
    let mut resume = vec![0; code.insns.len()];
    for (p, (first, op)) in (0..).zip(&mut ops) {
        let first = *first as usize;
        resume[first..first + usize::from(*op.len_mut())].fill(p);
    }
    // A branch names the op it goes to, with `BACK` set on a back-edge (a
    // target at or before the branch), which the OSR test counts.
    let jump = |from: u32, to: u32| resume[to as usize] | if to <= from { BACK } else { 0 };
    for (first, op) in &mut ops {
        let last = *first + u32::from(*op.len_mut()) - 1;
        if let Some(target) = op.target_mut() {
            *target = jump(last, *target);
        }
    }
    for (i, insn) in (0..).zip(&code.insns) {
        if let Insn::TableSwitch { .. } = insn {
            let sw = &mut arena.switches[side[i as usize] as usize];
            sw.default = jump(i, sw.default);
            let (first, count) = (sw.first as usize, sw.count as usize);
            for target in &mut arena.switch_targets[first..first + count] {
                *target = jump(i, *target);
            }
        }
    }
    let index = u32::try_from(arena.bodies.len()).expect("body arena overflow");
    arena.bodies.push(Body {
        code: u32::try_from(arena.ops.len()).expect("op arena overflow"),
        max_stack: code.max_stack,
        max_locals: code.max_locals,
        mid,
        invocations: Cell::new(0),
        tier: Cell::new(Tier::Interp),
        resume: resume.into_boxed_slice(),
        exception_table: code.exception_table.clone().into_boxed_slice(),
    });
    arena.src.extend(ops.iter().map(|&(first, _)| first));
    arena.ops.extend(ops.into_iter().map(|(_, op)| op));
    index
}

/// Set in a branch target on a back-edge.
const BACK: u32 = 1 << 31;

/// The longest span the translator builds, so `len` and `at` fit a `u8`.
const MAX_SPAN: usize = 250;

/// A value on the translator's model of the operand stack.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    /// In its stack slot.
    Slot,
    /// Still in this local: its load folds into the value's consumer.
    Local(u16),
    /// Constants not yet written anywhere.
    Int(i64),
    Float(f64),
    Null,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    val: Val,
    /// The instruction that pushed it.
    src: usize,
}

/// An int operand: a frame slot or an inline constant.
#[derive(Debug, Clone, Copy)]
enum Arg {
    Slot(u16),
    K(i64),
}

/// The int binops, for translation.
#[derive(Debug, Clone, Copy)]
enum IntOp {
    Add,
    Sub,
    Mul,
    Shl,
    Shr,
    UShr,
    And,
    Or,
    Xor,
    Div,
    Rem,
}

impl IntOp {
    fn of(insn: &Insn) -> Option<IntOp> {
        Some(match insn {
            Insn::IAdd => IntOp::Add,
            Insn::ISub => IntOp::Sub,
            Insn::IMul => IntOp::Mul,
            Insn::IShl => IntOp::Shl,
            Insn::IShr => IntOp::Shr,
            Insn::IUShr => IntOp::UShr,
            Insn::IAnd => IntOp::And,
            Insn::IOr => IntOp::Or,
            Insn::IXor => IntOp::Xor,
            Insn::IDiv => IntOp::Div,
            Insn::IRem => IntOp::Rem,
            _ => return None,
        })
    }

    fn commutes(self) -> bool {
        matches!(
            self,
            IntOp::Add | IntOp::Mul | IntOp::And | IntOp::Or | IntOp::Xor
        )
    }

    fn op(self, dst: u16, at: u8, a: u16, b: Arg) -> Op {
        let len = 0;
        match (self, b) {
            (IntOp::Add, Arg::Slot(b)) => Op::IAdd { len, dst, a, b },
            (IntOp::Sub, Arg::Slot(b)) => Op::ISub { len, dst, a, b },
            (IntOp::Mul, Arg::Slot(b)) => Op::IMul { len, dst, a, b },
            (IntOp::Shl, Arg::Slot(b)) => Op::IShl { len, dst, a, b },
            (IntOp::Shr, Arg::Slot(b)) => Op::IShr { len, dst, a, b },
            (IntOp::UShr, Arg::Slot(b)) => Op::IUShr { len, dst, a, b },
            (IntOp::And, Arg::Slot(b)) => Op::IAnd { len, dst, a, b },
            (IntOp::Or, Arg::Slot(b)) => Op::IOr { len, dst, a, b },
            (IntOp::Xor, Arg::Slot(b)) => Op::IXor { len, dst, a, b },
            (IntOp::Div, Arg::Slot(b)) => Op::IDiv { len, dst, at, a, b },
            (IntOp::Rem, Arg::Slot(b)) => Op::IRem { len, dst, at, a, b },
            (IntOp::Add, Arg::K(k)) => Op::IAddK { len, dst, a, k },
            (IntOp::Sub, Arg::K(k)) => Op::ISubK { len, dst, a, k },
            (IntOp::Mul, Arg::K(k)) => Op::IMulK { len, dst, a, k },
            (IntOp::Shl, Arg::K(k)) => Op::IShlK { len, dst, a, k },
            (IntOp::Shr, Arg::K(k)) => Op::IShrK { len, dst, a, k },
            (IntOp::UShr, Arg::K(k)) => Op::IUShrK { len, dst, a, k },
            (IntOp::And, Arg::K(k)) => Op::IAndK { len, dst, a, k },
            (IntOp::Or, Arg::K(k)) => Op::IOrK { len, dst, a, k },
            (IntOp::Xor, Arg::K(k)) => Op::IXorK { len, dst, a, k },
            (IntOp::Div, Arg::K(k)) => Op::IDivK { len, dst, at, a, k },
            (IntOp::Rem, Arg::K(k)) => Op::IRemK { len, dst, at, a, k },
        }
    }
}

/// The branch taken when `cond` holds between `a` and `b`.
fn if_op(cond: Cond, a: u16, b: Arg, target: u32) -> Op {
    let len = 0;
    match (cond, b) {
        (Cond::Eq, Arg::Slot(b)) => Op::IfEq { len, a, b, target },
        (Cond::Ne, Arg::Slot(b)) => Op::IfNe { len, a, b, target },
        (Cond::Lt, Arg::Slot(b)) => Op::IfLt { len, a, b, target },
        (Cond::Ge, Arg::Slot(b)) => Op::IfGe { len, a, b, target },
        (Cond::Gt, Arg::Slot(b)) => Op::IfGt { len, a, b, target },
        (Cond::Le, Arg::Slot(b)) => Op::IfLe { len, a, b, target },
        (Cond::Eq, Arg::K(k)) => Op::IfEqK { len, a, k, target },
        (Cond::Ne, Arg::K(k)) => Op::IfNeK { len, a, k, target },
        (Cond::Lt, Arg::K(k)) => Op::IfLtK { len, a, k, target },
        (Cond::Ge, Arg::K(k)) => Op::IfGeK { len, a, k, target },
        (Cond::Gt, Arg::K(k)) => Op::IfGtK { len, a, k, target },
        (Cond::Le, Arg::K(k)) => Op::IfLeK { len, a, k, target },
    }
}

/// `cond` with its operands swapped.
fn mirror(cond: Cond) -> Cond {
    match cond {
        Cond::Lt => Cond::Gt,
        Cond::Gt => Cond::Lt,
        Cond::Le => Cond::Ge,
        Cond::Ge => Cond::Le,
        c => c,
    }
}

fn arr_load(kind: ArrayKind, dst: u16, at: u8, arr: u16, idx: Arg) -> Op {
    let len = 0;
    match (kind, idx) {
        (ArrayKind::Int, Arg::Slot(idx)) => Op::IALoad {
            len,
            dst,
            at,
            arr,
            idx,
        },
        (ArrayKind::Float, Arg::Slot(idx)) => Op::FALoad {
            len,
            dst,
            at,
            arr,
            idx,
        },
        (ArrayKind::Ref, Arg::Slot(idx)) => Op::AALoad {
            len,
            dst,
            at,
            arr,
            idx,
        },
        (ArrayKind::Int, Arg::K(k)) => Op::IALoadK {
            len,
            dst,
            at,
            arr,
            k,
        },
        (ArrayKind::Float, Arg::K(k)) => Op::FALoadK {
            len,
            dst,
            at,
            arr,
            k,
        },
        (ArrayKind::Ref, Arg::K(k)) => Op::AALoadK {
            len,
            dst,
            at,
            arr,
            k,
        },
    }
}

fn arr_store(kind: ArrayKind, arr: u16, idx: Arg, val: u16) -> Op {
    let len = 0;
    match (kind, idx) {
        (ArrayKind::Int, Arg::Slot(idx)) => Op::IAStore { len, arr, idx, val },
        (ArrayKind::Float, Arg::Slot(idx)) => Op::FAStore { len, arr, idx, val },
        (ArrayKind::Ref, Arg::Slot(idx)) => Op::AAStore { len, arr, idx, val },
        (ArrayKind::Int, Arg::K(k)) => Op::IAStoreK { len, arr, k, val },
        (ArrayKind::Float, Arg::K(k)) => Op::FAStoreK { len, arr, k, val },
        (ArrayKind::Ref, Arg::K(k)) => Op::AAStoreK { len, arr, k, val },
    }
}

/// Translates one body into register form: one op per instruction, or,
/// if folding, one op per span with loads, constants and stores folded
/// (see [`Op`]). Each instruction's stack position comes from the
/// validator's entry depths; an instruction with none is unreachable and
/// becomes a `Nop`.
///
/// Folding models the operand stack. A load or constant is not
/// written anywhere when it is pushed: its consumer reads the local or
/// the constant directly. It is *forced* (written to its stack slot by
/// an op of its own, at the instruction that pushed it) where that would
/// be wrong or impossible: before a store or `iinc` to its local, where
/// a call takes it as an argument, where it is still on the stack at a
/// block's end (a branch, or an instruction control can enter other than
/// by falling through), or where its consumer takes no such operand. A
/// pass records what it forces; the translation repeats until a pass
/// forces nothing new, so every forced value is written when pushed. A
/// store folds into the op emitted just before it when that op produced
/// the stored value, and `iinc; goto` becomes one op.
struct Translator<'a> {
    code: &'a Code,
    callsites: &'a HashMap<u16, CallSite>,
    side: &'a [u32],
    depth: &'a [Option<u16>],
    /// Branch targets and handler entries.
    entered: Vec<bool>,
    fold: bool,
    /// Instructions whose pushed value is forced, and whether the
    /// running pass forced a new one.
    forced: Vec<bool>,
    forced_more: bool,
    stack: Vec<Entry>,
    /// The first instruction no emitted op covers yet.
    start: usize,
    /// The head of the last op emitted since the block began.
    last: Option<usize>,
    out: Vec<Option<Op>>,
}

impl<'a> Translator<'a> {
    fn new(
        code: &'a Code,
        depth: &'a [Option<u16>],
        callsites: &'a HashMap<u16, CallSite>,
        side: &'a [u32],
        fold: bool,
    ) -> Self {
        let n = code.insns.len();
        let mut entered = vec![false; n];
        for t in code.insns.iter().flat_map(Insn::branch_targets) {
            entered[t as usize] = true;
        }
        for h in &code.exception_table {
            entered[h.handler as usize] = true;
        }
        Translator {
            code,
            callsites,
            side,
            depth,
            entered,
            fold,
            forced: vec![false; n],
            forced_more: false,
            stack: Vec::new(),
            start: 0,
            last: None,
            out: Vec::new(),
        }
    }

    /// One pass: the op heading each span, at its first index.
    fn run(&mut self) -> Vec<Option<Op>> {
        let n = self.code.insns.len();
        self.out = vec![None; n];
        self.stack.clear();
        (self.start, self.last) = (0, None);
        let mut ended = true;
        for i in 0..n {
            let Some(d) = self.depth[i] else {
                // Unreachable: never run.
                self.out[i] = Some(Op::Nop { len: 1 });
                (self.start, ended) = (i + 1, true);
                continue;
            };
            if ended || self.entered[i] || i - self.start >= MAX_SPAN {
                self.force_all();
                if self.start < i {
                    self.emit(i - 1, Op::Nop { len: 0 });
                }
                self.last = None;
                self.stack.clear();
                let slot = Entry {
                    val: Val::Slot,
                    src: i,
                };
                self.stack.resize(usize::from(d), slot);
            }
            self.insn(i, usize::from(d));
            ended = !self.code.insns[i].falls_through();
        }
        std::mem::take(&mut self.out)
    }

    /// The frame slot of stack position `p`.
    fn slot(&self, p: usize) -> u16 {
        self.code.max_locals + p as u16
    }

    /// Where instruction `i` sits in the span it ends.
    fn at(&self, i: usize) -> u8 {
        (i - self.start) as u8
    }

    /// Put `op` at the head of the span from `start` through `i`.
    fn emit(&mut self, i: usize, mut op: Op) {
        *op.len_mut() = (i + 1 - self.start) as u8;
        self.out[self.start] = Some(op);
        self.last = Some(self.start);
        self.start = i + 1;
    }

    /// Emit `op`, which pops `pops` values and pushes `pushes` results
    /// into their slots.
    fn emit_pop_push(&mut self, i: usize, op: Op, pops: usize, pushes: usize) {
        self.emit(i, op);
        let d = self.stack.len() - pops;
        self.stack.truncate(d);
        for _ in 0..pushes {
            self.stack.push(Entry {
                val: Val::Slot,
                src: i,
            });
        }
    }

    fn force(&mut self, p: usize) {
        let e = &mut self.stack[p];
        if e.val != Val::Slot {
            e.val = Val::Slot;
            if !self.forced[e.src] {
                self.forced[e.src] = true;
                self.forced_more = true;
            }
        }
    }

    fn force_all(&mut self) {
        for p in 0..self.stack.len() {
            self.force(p);
        }
    }

    /// Force every value still in `local`, which is about to be written.
    fn clobber(&mut self, local: u16) {
        for p in 0..self.stack.len() {
            if self.stack[p].val == Val::Local(local) {
                self.force(p);
            }
        }
    }

    /// Push `val`, pushed by instruction `i`: written to its slot now if
    /// forced (or not folding), else left for its consumer to read.
    fn push(&mut self, i: usize, val: Val) {
        if self.fold && !self.forced[i] {
            self.stack.push(Entry { val, src: i });
            return;
        }
        let (len, dst) = (0, self.slot(self.stack.len()));
        let op = match val {
            Val::Slot => unreachable!("a pushed value starts outside its slot"),
            Val::Local(src) => Op::Mov { len, dst, src },
            Val::Int(k) => Op::Const { len, dst, k },
            Val::Float(k) => Op::FConst { len, dst, k },
            Val::Null => Op::Null { len, dst },
        };
        self.emit_pop_push(i, op, 0, 1);
    }

    /// The slot the value at position `p` is read from; a constant is
    /// forced to its own.
    fn slot_arg(&mut self, p: usize) -> u16 {
        match self.stack[p].val {
            Val::Local(l) => l,
            Val::Slot => self.slot(p),
            _ => {
                self.force(p);
                self.slot(p)
            }
        }
    }

    /// The value at position `p` as an int operand.
    fn int_arg(&mut self, p: usize) -> Arg {
        match self.stack[p].val {
            Val::Int(k) => Arg::K(k),
            _ => Arg::Slot(self.slot_arg(p)),
        }
    }

    /// The two int operands at positions `p` and `p + 1` as a slot and a
    /// slot or constant: a constant on the left swaps over if `swaps`
    /// (the op commutes or mirrors) and the right is a slot, and is
    /// forced otherwise. Returns whether the operands swapped.
    fn int_args(&mut self, p: usize, swaps: bool) -> (u16, Arg, bool) {
        let b = self.int_arg(p + 1);
        match (self.int_arg(p), b) {
            (Arg::Slot(a), b) => (a, b, false),
            (Arg::K(k), Arg::Slot(b)) if swaps => (b, Arg::K(k), true),
            (Arg::K(_), b) => {
                self.force(p);
                (self.slot(p), b, false)
            }
        }
    }

    fn store(&mut self, i: usize, local: u16) {
        let v = self.stack.pop().expect("validated store");
        self.clobber(local);
        let (len, dst) = (0, local);
        let op = match v.val {
            Val::Local(src) => Op::Mov { len, dst, src },
            Val::Int(k) => Op::Const { len, dst, k },
            Val::Float(k) => Op::FConst { len, dst, k },
            Val::Null => Op::Null { len, dst },
            Val::Slot => {
                let src = self.slot(self.stack.len());
                // Retarget the op that just produced the value.
                let prev = self
                    .last
                    .filter(|_| self.fold && self.start == i)
                    .and_then(|head| self.out[head].as_mut());
                if let Some(prev) = prev {
                    if let Some(dst) = prev.dst_mut().filter(|dst| **dst == src) {
                        *dst = local;
                        *prev.len_mut() += 1;
                        self.start = i + 1;
                        return;
                    }
                }
                Op::Mov { len, dst, src }
            }
        };
        self.emit(i, op);
    }

    /// Emit a branch: its operands are read, the rest of the stack is
    /// forced (it outlives the block), then the branch ends the span.
    fn branch(&mut self, i: usize, op: Op, pops: usize) {
        let d = self.stack.len() - pops;
        self.stack.truncate(d);
        self.force_all();
        self.emit(i, op);
    }

    #[allow(clippy::too_many_lines)]
    fn insn(&mut self, i: usize, d: usize) {
        let code = self.code;
        let insn = &code.insns[i];
        let (len, ic) = (0, self.side[i]);
        if let Some(op) = IntOp::of(insn) {
            let (a, b, _) = self.int_args(d - 2, op.commutes());
            let op = op.op(self.slot(d - 2), self.at(i), a, b);
            return self.emit_pop_push(i, op, 2, 1);
        }
        match *insn {
            Insn::Nop | Insn::Pop => {
                if matches!(insn, Insn::Pop) {
                    self.stack.pop();
                }
                if !self.fold {
                    self.emit(i, Op::Nop { len });
                }
            }
            Insn::IConst(k) => self.push(i, Val::Int(k)),
            Insn::FConst(k) => self.push(i, Val::Float(k)),
            Insn::AConstNull => self.push(i, Val::Null),
            Insn::ILoad(l) | Insn::FLoad(l) | Insn::ALoad(l) => self.push(i, Val::Local(l)),
            Insn::IStore(l) | Insn::FStore(l) | Insn::AStore(l) => self.store(i, l),
            Insn::Dup => match self.stack[d - 1].val {
                Val::Slot => {
                    let (dst, src) = (self.slot(d), self.slot(d - 1));
                    self.emit_pop_push(i, Op::Mov { len, dst, src }, 0, 1);
                }
                v => self.push(i, v),
            },
            Insn::Swap => {
                self.force(d - 1);
                self.force(d - 2);
                let (a, b) = (self.slot(d - 2), self.slot(d - 1));
                self.emit(i, Op::Swap { len, a, b });
            }
            Insn::IInc { local, delta } => {
                self.clobber(local);
                self.emit(i, Op::IInc { len, local, delta });
            }
            Insn::INeg | Insn::FNeg | Insn::I2F | Insn::F2I => {
                let (dst, a) = (self.slot(d - 1), self.slot_arg(d - 1));
                let op = match insn {
                    Insn::INeg => Op::INeg { len, dst, a },
                    Insn::FNeg => Op::FNeg { len, dst, a },
                    Insn::I2F => Op::I2F { len, dst, a },
                    _ => Op::F2I { len, dst, a },
                };
                self.emit_pop_push(i, op, 1, 1);
            }
            Insn::FAdd | Insn::FSub | Insn::FMul | Insn::FDiv | Insn::FCmp => {
                let b = self.slot_arg(d - 1);
                let (dst, a) = (self.slot(d - 2), self.slot_arg(d - 2));
                let op = match insn {
                    Insn::FAdd => Op::FAdd { len, dst, a, b },
                    Insn::FSub => Op::FSub { len, dst, a, b },
                    Insn::FMul => Op::FMul { len, dst, a, b },
                    Insn::FDiv => Op::FDiv { len, dst, a, b },
                    _ => Op::FCmp { len, dst, a, b },
                };
                self.emit_pop_push(i, op, 2, 1);
            }
            Insn::Goto(target) => {
                self.force_all();
                let prev = self.last.filter(|_| self.fold && self.start == i);
                if let Some(head) = prev {
                    if let Some(Op::IInc { len, local, delta }) = self.out[head] {
                        let len = len + 1;
                        self.out[head] = Some(Op::IIncGoto {
                            len,
                            local,
                            delta,
                            target,
                        });
                        self.start = i + 1;
                        return;
                    }
                }
                self.emit(i, Op::Goto { len, target });
            }
            Insn::If(cond, target) => {
                let a = self.slot_arg(d - 1);
                self.branch(i, if_op(cond, a, Arg::K(0), target), 1);
            }
            Insn::IfICmp(cond, target) => {
                let (a, b, swapped) = self.int_args(d - 2, true);
                let cond = if swapped { mirror(cond) } else { cond };
                self.branch(i, if_op(cond, a, b, target), 2);
            }
            Insn::IfNull(target) | Insn::IfNonNull(target) => {
                let a = self.slot_arg(d - 1);
                let op = if matches!(insn, Insn::IfNull(_)) {
                    Op::IfNull { len, a, target }
                } else {
                    Op::IfNonNull { len, a, target }
                };
                self.branch(i, op, 1);
            }
            Insn::TableSwitch { .. } => {
                let key = self.slot_arg(d - 1);
                self.branch(
                    i,
                    Op::TableSwitch {
                        len,
                        key,
                        switch: ic,
                    },
                    1,
                );
            }
            Insn::InvokeStatic(cp) | Insn::InvokeVirtual(cp) => {
                let cs = &self.callsites[&cp.0];
                let is_virtual = matches!(insn, Insn::InvokeVirtual(_));
                let (nargs, returns) = (cs.nargs as u8, cs.returns_value);
                let pops = usize::from(nargs) + usize::from(is_virtual);
                // Arguments sit where the callee's locals will start: the
                // call writes the last two there itself, loads folded, and
                // the rest are forced.
                let mut args = [0; 2];
                for p in d - pops..d {
                    let last_two = (p + 2).checked_sub(d);
                    match (self.stack[p].val, last_two) {
                        (Val::Local(l), Some(j)) => args[j] = l,
                        (_, Some(j)) => {
                            self.force(p);
                            args[j] = self.slot(p);
                        }
                        _ => self.force(p),
                    }
                }
                let (cp, top) = (cp.0, self.slot(d));
                let op = if is_virtual {
                    Op::InvokeVirtual {
                        len,
                        ic,
                        cp,
                        nargs,
                        returns,
                        top,
                        args,
                    }
                } else {
                    Op::InvokeStatic {
                        len,
                        ic,
                        cp,
                        nargs,
                        returns,
                        top,
                        args,
                    }
                };
                self.emit_pop_push(i, op, pops, usize::from(returns));
            }
            Insn::Return => self.emit(
                i,
                Op::Return {
                    len,
                    top: self.slot(d),
                },
            ),
            Insn::IReturn | Insn::FReturn | Insn::AReturn => {
                let (src, top) = (self.slot_arg(d - 1), self.slot(d));
                self.emit(i, Op::ValueReturn { len, src, top });
            }
            Insn::AThrow => {
                self.force(d - 1);
                self.emit(
                    i,
                    Op::AThrow {
                        len,
                        top: self.slot(d),
                    },
                );
            }
            Insn::New(cp) => {
                let top = self.slot(d);
                self.emit_pop_push(
                    i,
                    Op::New {
                        len,
                        ic,
                        cp: cp.0,
                        top,
                    },
                    0,
                    1,
                );
            }
            Insn::NewArray(kind) => {
                self.force(d - 1);
                let top = self.slot(d);
                self.emit_pop_push(i, Op::NewArray { len, kind, top }, 1, 1);
            }
            Insn::Ldc(cp) | Insn::GetStatic(cp) => {
                let (dst, at, cp, top) = (self.slot(d), self.at(i), cp.0, self.slot(d));
                let op = if matches!(insn, Insn::Ldc(_)) {
                    Op::Ldc {
                        len,
                        dst,
                        at,
                        ic,
                        cp,
                        top,
                    }
                } else {
                    Op::GetStatic {
                        len,
                        dst,
                        at,
                        ic,
                        cp,
                        top,
                    }
                };
                self.emit_pop_push(i, op, 0, 1);
            }
            Insn::PutStatic(cp) => {
                let (src, top) = (self.slot_arg(d - 1), self.slot(d));
                let op = Op::PutStatic {
                    len,
                    ic,
                    cp: cp.0,
                    src,
                    top,
                };
                self.emit_pop_push(i, op, 1, 0);
            }
            Insn::GetField(cp) => {
                let (dst, at, obj, top) = (
                    self.slot(d - 1),
                    self.at(i),
                    self.slot_arg(d - 1),
                    self.slot(d),
                );
                let op = Op::GetField {
                    len,
                    dst,
                    at,
                    ic,
                    cp: cp.0,
                    obj,
                    top,
                };
                self.emit_pop_push(i, op, 1, 1);
            }
            Insn::PutField(cp) => {
                let (val, obj, top) = (self.slot_arg(d - 1), self.slot_arg(d - 2), self.slot(d));
                let op = Op::PutField {
                    len,
                    ic,
                    cp: cp.0,
                    obj,
                    val,
                    top,
                };
                self.emit_pop_push(i, op, 2, 0);
            }
            Insn::IALoad | Insn::FALoad | Insn::AALoad => {
                let kind = match insn {
                    Insn::IALoad => ArrayKind::Int,
                    Insn::FALoad => ArrayKind::Float,
                    _ => ArrayKind::Ref,
                };
                let idx = self.int_arg(d - 1);
                let (dst, at, arr) = (self.slot(d - 2), self.at(i), self.slot_arg(d - 2));
                self.emit_pop_push(i, arr_load(kind, dst, at, arr, idx), 2, 1);
            }
            Insn::IAStore | Insn::FAStore | Insn::AAStore => {
                let kind = match insn {
                    Insn::IAStore => ArrayKind::Int,
                    Insn::FAStore => ArrayKind::Float,
                    _ => ArrayKind::Ref,
                };
                let val = self.slot_arg(d - 1);
                let idx = self.int_arg(d - 2);
                let arr = self.slot_arg(d - 3);
                self.emit_pop_push(i, arr_store(kind, arr, idx, val), 3, 0);
            }
            Insn::ArrayLength => {
                let (dst, at, arr) = (self.slot(d - 1), self.at(i), self.slot_arg(d - 1));
                self.emit_pop_push(i, Op::ArrayLength { len, dst, at, arr }, 1, 1);
            }
            _ => unreachable!("int binops are translated above"),
        }
    }
}

/// One activation on a thread's frame stack. The running frame's record
/// is the top of the stack, and the dispatch loop reads and writes it in
/// place: a call writes the caller's `ret` and `sp` into it and pushes
/// the callee's record, and a return pops it. A native callee gets
/// a record too (`body` is [`Frame::NATIVE`]), so the stack's length is
/// the thread's call depth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    mid: MethodId,
    body: u32,
    /// Index of the body's first op in [`CodeArena::ops`].
    code: u32,
    /// First local slot in [`ThreadStack::slots`]; the operand region
    /// starts `max_locals` above it.
    base: u32,
    /// The instruction the frame stopped at. While a callee runs it is
    /// not kept: the call is the last instruction of the op before `ret`
    /// (see [`CodeArena::call_pc`]).
    pc: u32,
    /// While a callee runs, the op (from `code`) the loop resumes at when
    /// it returns: the one after the call's, since a call ends its span.
    ret: u32,
    /// Operand-stack top as the stack code would have it, with a call's
    /// arguments already popped: set when the straight-line loop stops
    /// or calls, and where a callee's result goes.
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
            ret: 0,
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
    /// Push the frame of body `b` (at `body` in the arena, running as
    /// `rule` says), whose `nargs` arguments sit at `slots[base..]`: the
    /// rest of its locals are zeroed and its region is made to fit.
    #[inline(always)]
    fn push_frame(&mut self, b: &Body, body: u32, rule: &TierRule, base: usize, nargs: usize) {
        let max_locals = usize::from(b.max_locals);
        let end = base + max_locals + usize::from(b.max_stack);
        if self.slots.len() < end {
            self.slots.resize(end, Value::Int(0));
        }
        for local in &mut self.slots[base + nargs..base + max_locals] {
            *local = Value::Int(0);
        }
        self.frames.push(Frame {
            mid: b.mid,
            body,
            code: b.code,
            base: base as u32,
            pc: 0,
            ret: 0,
            sp: (base + max_locals) as u32,
            tier: rule.tier,
            insn_cost: rule.insn,
            osr_pending: rule.promotes,
            backedges: 0,
            polls: 0,
        });
    }

    /// The running frame's record.
    fn top(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("a running frame")
    }

    /// Push `v` on the running frame's operand stack.
    fn push(&mut self, v: Value) {
        let f = self.frames.last_mut().expect("a running frame");
        self.slots[f.sp as usize] = v;
        f.sp += 1;
    }

    /// Pop the running frame's operand stack.
    fn pop(&mut self) -> Value {
        let f = self.frames.last_mut().expect("a running frame");
        f.sp -= 1;
        self.slots[f.sp as usize]
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
    fn settle(&mut self, frame: &Frame, run: u64) {
        self.insns += run;
        self.cycles[frame.tier.index()] += run * frame.insn_cost;
    }
}

/// What a call does with a callee whose recorded tier indexes it, under
/// the tiers mode and JIT flag in force (see [`tier_rules`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TierRule {
    /// The tier the callee runs at: its recorded tier, or `Interp` while
    /// the JIT is off (an agent holding method events freezes everything
    /// interpreted, methods compiled earlier included: HotSpot deoptimizes
    /// when an agent enables method events, and this models the steady
    /// state).
    tier: Tier,
    /// Whether the tiers mode promotes from `tier` at all.
    promotes: bool,
    /// Cycles per instruction and per call at `tier`.
    insn: u64,
    overhead: u64,
}

impl TierRule {
    /// Whether a call that makes `count` invocations promotes the callee:
    /// one tier at a time at the invocation thresholds (Interp→C1 at the
    /// C1 threshold, C1→C2 at the C2 threshold), capped by the tiers
    /// mode's ceiling. `>=` rather than `==`: a fault-aborted compile
    /// resets the counter, and a successful promotion changes the tier so
    /// the lower threshold stops applying.
    #[inline(always)]
    fn due(&self, tiers: &TierCostModel, count: u32) -> bool {
        self.promotes
            && tiers
                .invocation_threshold(self.tier)
                .is_some_and(|threshold| count >= threshold)
    }
}

/// The call rules for each recorded tier: nothing promotes, and every
/// method runs interpreted, while the JIT is off.
fn tier_rules(tiers: &TierCostModel, mode: TiersMode, jit: bool) -> [TierRule; 3] {
    Tier::ALL.map(|recorded| {
        let tier = if jit { recorded } else { Tier::Interp };
        TierRule {
            tier,
            promotes: jit && mode.allows_promotion_from(tier),
            insn: tiers.insn(tier),
            overhead: tiers.call_overhead(tier),
        }
    })
}

/// How [`Vm::enter`] left a call.
enum Entered {
    /// A bytecode callee's frame is on top of the stack, ready to run.
    Frame,
    /// A native callee returned.
    Returned(Value),
    /// The call threw before a bytecode frame was pushed, or its native
    /// callee threw.
    Threw(JThrow),
}

impl Vm {
    /// `mid`'s prepared body, prepared into the arena on first use, or
    /// `None` for a native method.
    fn body(&mut self, mid: MethodId) -> Option<u32> {
        match self.registry.body(mid) {
            Some(body) => Some(body),
            None => self.prepare_body(mid),
        }
    }

    /// Prepare `mid`'s body into the arena, or `None` for a native method.
    #[cold]
    fn prepare_body(&mut self, mid: MethodId) -> Option<u32> {
        let rc = self.registry.get(mid.class);
        let i = mid.index as usize;
        let code = rc.methods[i].code.as_ref()?;
        self.bodies_prepared = true;
        let fold = self.sampler_interval().is_none() && !self.faults_enabled();
        let body = prepare(
            mid,
            code,
            &rc.depths[i],
            &rc.callsites,
            &mut self.code,
            fold,
        );
        self.registry.set_body(mid, body);
        Some(body)
    }

    /// The inline-cache entry for a call resolved to `target` (for a
    /// receiver of class `receiver`, `None` for an `invokestatic`): its
    /// prepared body, prepared now, or the method itself if it is native.
    fn call_cache(&mut self, target: MethodId, receiver: Option<ClassId>) -> InlineCache {
        match (self.body(target), receiver) {
            (Some(body), None) => InlineCache::StaticCall(body),
            (None, None) => InlineCache::StaticNative(target),
            (Some(body), Some(receiver)) => InlineCache::VirtualCall { receiver, body },
            (None, Some(receiver)) => InlineCache::VirtualNative { receiver, target },
        }
    }

    /// The prepared body of `mid`, which has run.
    pub(crate) fn prepared(&self, mid: MethodId) -> &Body {
        let body = self
            .registry
            .body(mid)
            .expect("a method that ran is prepared");
        &self.code.bodies[body as usize]
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
            self.dispatch(thread, EventType::MethodEntry, |sink, info, vm| {
                sink.method_entry(info, vm.registry.method_view(mid));
            });
        }
        let Some(body) = self.body(mid) else {
            return self.call_native(thread, st, pend, mid, base, nargs, events);
        };
        let rules = tier_rules(&self.cost.tiers, self.tiers_mode(), self.jit_enabled());
        let b = &self.code.bodies[body as usize];
        let count = b.invocations.get().saturating_add(1);
        b.invocations.set(count);
        let mut rule = rules[b.tier.get().index()];
        if rule.due(&self.cost.tiers, count) {
            let next = rule.tier.next().expect("a tier that promotes has a next");
            self.flush(thread, pend);
            if self.tier_compile(thread, mid, next, false) {
                rule = rules[next.index()];
            }
        }
        pend.cycles[rule.tier.index()] += rule.overhead;
        st.push_frame(&self.code.bodies[body as usize], body, &rule, base, nargs);
        Entered::Frame
    }

    /// [`Vm::enter`] for a native callee: run it with its arguments
    /// copied out of the (parked) arena into [`Vm::native_args`], under a
    /// frame record of its own, and fire `MethodExit` if `events`.
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
        let mut args = std::mem::take(&mut self.native_args);
        args.clear();
        args.extend_from_slice(&st.slots[base..base + nargs]);
        st.frames.push(Frame::native(mid));
        let result = self.parked(thread, st, |vm| vm.invoke_native(thread, mid, &args));
        self.native_args = args;
        st.frames.pop();
        if events {
            let via_exception = result.is_err();
            self.dispatch(thread, EventType::MethodExit, |sink, info, vm| {
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
        pend: &'a mut Pending,
        floor: usize,
        run: u64,
    ) -> Straight<'a> {
        let rules = tier_rules(&self.cost.tiers, self.tiers_mode(), self.jit_enabled());
        let alloc_events = self.alloc_events_on();
        let events = self
            .sink
            .as_deref()
            .filter(|_| self.method_events_on())
            .map(|sink| {
                (
                    sink,
                    self.mask,
                    self.agent_bucket(),
                    self.cost.event_dispatch,
                )
            });
        Straight {
            arena: &self.code,
            heap: &mut self.heap,
            registry: &mut self.registry,
            pend,
            cost: &self.cost,
            rules,
            max_depth: self.max_call_depth,
            floor,
            alloc_events,
            info: &self.threads[thread.index()],
            stats: &mut self.stats,
            events,
            run,
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
        // The instructions the running frame ran since the last settle,
        // and whether the instructions of its op through `pc` are already
        // counted (and polled).
        let (mut run, mut counted) = match self.enter(thread, st, &mut pend, mid, base, nargs) {
            Entered::Frame => (0, false),
            Entered::Returned(v) => return Ok(v),
            Entered::Threw(t) => return Err(t),
        };

        macro_rules! flush {
            () => {{
                pend.settle(st.top(), std::mem::take(&mut run));
                self.flush(thread, &mut pend);
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
                        let f = st.top();
                        let args = f.sp as usize - $nargs;
                        f.sp = args as u32;
                        f.ret = self.code.bodies[f.body as usize].resume[f.pc as usize + 1];
                        pend.settle(f, std::mem::take(&mut run));
                        match self.enter(thread, st, &mut pend, $callee, args, $nargs) {
                            Entered::Frame => continue,
                            Entered::Returned(v) => {
                                if $returns {
                                    st.push(v);
                                }
                            }
                            Entered::Threw(t) => break 'dispatch t,
                        }
                    }};
                }

                let mut cx = self.straight_cx(thread, &mut pend, floor, run);
                let stop = straight::<POLLING>(&mut cx, st, counted);
                run = cx.run;
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
                    Stop::Throw(fault) => jthrow!(fault.class(), &fault.message()),
                    Stop::Osr(target) => {
                        flush!();
                        let f = st.top();
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
                // miss fills its inline cache and re-enters the op.
                let f = st.top();
                let (cur, pc) = (f.mid, f.pc);
                let pos = self.code.bodies[f.body as usize].resume[pc as usize];
                match self.code.ops[(f.code + pos) as usize] {
                    Op::Ldc { ic, cp, .. } => {
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
                    op @ (Op::InvokeStatic {
                        ic,
                        cp,
                        nargs,
                        returns,
                        ..
                    }
                    | Op::InvokeVirtual {
                        ic,
                        cp,
                        nargs,
                        returns,
                        ..
                    }) => {
                        // An `invokevirtual` dispatches on its receiver's
                        // class (`straight` checked the receiver).
                        let receiver = matches!(op, Op::InvokeVirtual { .. }).then(|| {
                            let at = st.top().sp as usize - usize::from(nargs) - 1;
                            let recv = st.slots[at];
                            match self.heap.get(recv.as_ref_opt().unwrap()) {
                                HeapObject::Instance { class, .. } => *class,
                                _ => unreachable!("straight checks invokevirtual receivers"),
                            }
                        });
                        let nargs = usize::from(nargs) + usize::from(receiver.is_some());
                        if let Some(target) = self.code.cached_callee(ic, receiver) {
                            call!(target, nargs, returns);
                        } else {
                            flush!();
                            let target = self.parked(thread, st, |vm| {
                                vm.call_target(thread, cur.class, cp, receiver)
                            });
                            match target {
                                Ok(target) => {
                                    self.code.ics[ic as usize] = self.call_cache(target, receiver);
                                }
                                Err(t) => break 'dispatch t,
                            }
                            counted = true;
                            continue;
                        }
                    }
                    // `straight` returns to callers in the activation, so
                    // this is its entry frame returning.
                    op @ (Op::Return { .. } | Op::ValueReturn { .. }) => {
                        debug_assert_eq!(st.frames.len() - 1, floor);
                        let v = matches!(op, Op::ValueReturn { .. }).then(|| st.pop());
                        flush!();
                        if self.method_events_on() {
                            self.dispatch(thread, EventType::MethodExit, |sink, info, vm| {
                                sink.method_exit(info, vm.registry.method_view(cur), false);
                            });
                        }
                        st.frames.pop();
                        return Ok(v.unwrap_or(Value::Null));
                    }
                    Op::New { ic, cp, .. } => {
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
                        st.push(Value::Ref(obj));
                    }
                    Op::GetField { ic, cp, .. } | Op::PutField { ic, cp, .. } => {
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
                    Op::GetStatic { ic, cp, .. } | Op::PutStatic { ic, cp, .. } => {
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
                    Op::NewArray { kind, .. } => {
                        let len = st.pop().as_int();
                        if len < 0 {
                            jthrow!("java/lang/NegativeArraySizeException", &format!("{len}"));
                        }
                        flush!();
                        let r = self.allocate(thread, Alloc::Array(kind, len as usize));
                        let (sc, sm) = self.site_of(cur);
                        self.fire_allocation(thread, r, &sc, &sm, pc);
                        st.push(Value::Ref(r));
                    }
                    Op::AThrow { .. } => match st.pop().as_ref_opt() {
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
                st.top().pc += 1;
            };
            // Unwind: the running frame's handler, if one covers `pc`,
            // takes the throw; otherwise the frame is popped (deopting a
            // compiled one and firing `MethodExit`) and its caller is
            // searched, until the activation's entry frame is gone.
            flush!();
            loop {
                let f = st.top();
                if let Some(h) = self.find_handler(f.body, f.pc, thrown) {
                    f.sp = f.base + u32::from(self.code.bodies[f.body as usize].max_locals);
                    f.pc = h;
                    st.push(Value::Ref(thrown.exception));
                    break;
                }
                let (cur, tier) = (f.mid, f.tier);
                if tier.is_compiled() {
                    self.deopt(thread, cur);
                }
                if self.method_events_on() {
                    self.dispatch(thread, EventType::MethodExit, |sink, info, vm| {
                        sink.method_exit(info, vm.registry.method_view(cur), true);
                    });
                }
                st.frames.pop();
                if st.frames.len() == floor {
                    return Err(thrown);
                }
                let f = st.top();
                f.pc = self.code.call_pc(f);
            }
        }
    }
}

/// What [`straight`] may touch besides the thread's frame stack: the code
/// arena, heap and class registry (statics, method execution records),
/// the thread's record, the pending charges and ground-truth counters,
/// and the call rules in force while it runs (method-event callbacks see
/// no `Vm`, so none of them can change under it).
struct Straight<'a> {
    arena: &'a CodeArena,
    heap: &'a mut Heap,
    registry: &'a mut ClassRegistry,
    pend: &'a mut Pending,
    cost: &'a CostModel,
    rules: [TierRule; 3],
    max_depth: usize,
    floor: usize,
    /// Allocation events on: allocations stop here.
    alloc_events: bool,
    /// The running thread's record and the ground-truth counters, for
    /// flushes and method events.
    info: &'a ThreadInfo,
    stats: &'a mut VmStats,
    /// With method events on: the sink, the enabled events, the agent's
    /// attribution bucket and the cost of one dispatch.
    events: Option<(&'a dyn VmEventSink, EventMask, Bucket, u64)>,
    /// Instructions the running frame ran since the last settle, in and
    /// out of a run.
    run: u64,
}

impl<'a> Straight<'a> {
    /// Fire a method entry (or exit) event of `mid` if they are on. The
    /// running frame's instructions are settled first, so the clock it
    /// reads is exact.
    #[inline(always)]
    fn method_event(&mut self, mid: MethodId, entry: bool) {
        if self.events.is_some() {
            self.fire_method_event(mid, entry);
        }
    }

    /// [`Straight::method_event`] when events are on, out of line. It
    /// flushes the pending charges: since the loop calls a function that
    /// writes the context, the optimizer loads the context's fields where
    /// the loop's ops use them instead of holding each one in a register
    /// (or a spill reloaded) across every dispatch.
    #[inline(never)]
    fn fire_method_event(&mut self, mid: MethodId, entry: bool) {
        let Some((sink, mask, bucket, dispatch)) = self.events else {
            return;
        };
        self.pend.flush(self.info, self.stats);
        self.stats.events_dispatched += 1;
        let _agent = event_scope(self.info, bucket, dispatch);
        let view = self.registry.method_view(mid);
        if entry {
            if mask.contains(EventType::MethodEntry) {
                sink.method_entry(self.info, view);
            }
        } else if mask.contains(EventType::MethodExit) {
            sink.method_exit(self.info, view, false);
        }
    }

    /// Run a call through inline-cache slot `ic` whose `nargs` arguments
    /// (receiver first if `is_virtual`) start at slot `args`, the running
    /// frame having recorded the call and settled its instructions: if
    /// the slot names the callee's prepared body (for the receiver's
    /// class), the depth allows it and no promotion is due, push its frame
    /// and return `Ok(true)`. `Ok(false)` means stop,
    /// having changed nothing; a null or non-instance receiver throws.
    #[inline(always)]
    fn call(
        &mut self,
        st: &mut ThreadStack,
        ic: u32,
        args: usize,
        nargs: usize,
        is_virtual: bool,
    ) -> Result<bool, Fault> {
        let body = match (self.arena.ics[ic as usize], is_virtual) {
            (InlineCache::StaticCall(body), false) => body,
            (cache, true) => {
                let Some(obj) = st.slots[args].as_ref_opt() else {
                    return Err(Fault::NullReceiver);
                };
                let HeapObject::Instance { class, .. } = self.heap.get(obj) else {
                    return Err(Fault::ReceiverKind);
                };
                match cache {
                    InlineCache::VirtualCall { receiver, body } if receiver == *class => body,
                    _ => return Ok(false),
                }
            }
            _ => return Ok(false),
        };
        if st.frames.len() >= self.max_depth {
            return Ok(false);
        }
        let b = &self.arena.bodies[body as usize];
        let count = b.invocations.get().saturating_add(1);
        let rule = self.rules[b.tier.get().index()];
        if rule.due(&self.cost.tiers, count) {
            return Ok(false);
        }
        b.invocations.set(count);
        self.pend.invocations += 1;
        self.method_event(b.mid, true);
        self.pend.cycles[rule.tier.index()] += rule.overhead;
        st.push_frame(b, body, &rule, args, nargs);
        Ok(true)
    }

    /// Return the value in slot `from` (if any) from the running frame,
    /// its instructions settled, to its caller: pop it and return `true`,
    /// or `false`, having changed nothing, if the caller is in another
    /// activation.
    #[inline(always)]
    fn leave(&mut self, st: &mut ThreadStack, from: Option<usize>) -> bool {
        if st.frames.len() - 1 == self.floor {
            return false;
        }
        let mid = st.top().mid;
        self.method_event(mid, false);
        st.frames.pop();
        if let Some(from) = from {
            let sp = st.top().sp;
            st.slots[sp as usize] = st.slots[from];
        }
        true
    }
}

/// Read the static field cached in inline-cache slot `ic`, or write `put`
/// to it; `None` if the slot is not filled.
#[inline(never)]
fn static_field(
    arena: &CodeArena,
    registry: &mut ClassRegistry,
    ic: u32,
    put: Option<Value>,
) -> Option<Value> {
    let InlineCache::StaticField { class, slot } = arena.ics[ic as usize] else {
        return None;
    };
    let statics = &mut registry.get_mut(class).statics;
    if let Some(v) = put {
        statics[slot] = v;
    }
    Some(statics[slot])
}

/// Why [`straight`] stopped. In every case the running op's instructions
/// through `pc` are counted.
#[derive(Debug)]
enum Stop {
    /// The op at `pc` needs the VM: the outer loop runs it.
    Slow,
    /// A sampling or thread-death poll is due before the op at `pc`.
    Poll,
    /// The op at `pc` throws a new exception.
    Throw(Fault),
    /// The back-edge from `pc` to the target crossed the OSR threshold.
    Osr(u32),
}

/// An exception the straight-line loop throws. It is two words, so a
/// [`Stop`] comes back in registers, and the loop builds no message:
/// [`Vm::execute`] does, when it throws.
#[derive(Debug, Clone, Copy)]
enum Fault {
    NullReceiver,
    NullField,
    NullArrayLoad,
    NullArrayStore,
    NullArrayLength,
    /// An `invokevirtual` receiver that is not an object instance.
    ReceiverKind,
    /// A field access on a reference that is not an object instance.
    FieldKind,
    /// An `arraylength` of a reference that is not an array.
    LengthKind,
    /// An array load of the wrong element kind.
    LoadKind,
    /// An array store of the wrong element kind.
    StoreKind,
    /// An array index out of bounds.
    Bounds(i64),
    /// A negative array length.
    NegativeSize(i64),
    DivideByZero,
}

impl Fault {
    fn class(self) -> &'static str {
        match self {
            Fault::NullReceiver
            | Fault::NullField
            | Fault::NullArrayLoad
            | Fault::NullArrayStore
            | Fault::NullArrayLength => "java/lang/NullPointerException",
            Fault::ReceiverKind | Fault::FieldKind | Fault::LengthKind | Fault::LoadKind => {
                "java/lang/InternalError"
            }
            Fault::StoreKind => "java/lang/ArrayStoreException",
            Fault::Bounds(_) => "java/lang/ArrayIndexOutOfBoundsException",
            Fault::NegativeSize(_) => "java/lang/NegativeArraySizeException",
            Fault::DivideByZero => "java/lang/ArithmeticException",
        }
    }

    fn message(self) -> String {
        let text = match self {
            Fault::Bounds(n) | Fault::NegativeSize(n) => return n.to_string(),
            Fault::NullReceiver => "null receiver",
            Fault::NullField => "null field access",
            Fault::NullArrayLoad => "null array load",
            Fault::NullArrayStore => "null array store",
            Fault::NullArrayLength => "null arraylength",
            Fault::ReceiverKind => "invokevirtual receiver is not an object instance",
            Fault::FieldKind => "field access on a non-object reference",
            Fault::LengthKind => "arraylength of a non-array",
            Fault::LoadKind => "array load kind mismatch",
            Fault::StoreKind => "array store kind mismatch",
            Fault::DivideByZero => "/ by zero",
        };
        text.to_owned()
    }
}

/// What `new` and `newarray` allocate.
#[derive(Debug, Clone, Copy)]
enum Alloc {
    Object(ClassId),
    Array(ArrayKind, usize),
}

/// Allocate `what` on `heap`, charging its cost to the thread `info`
/// and counting it in `stats`.
#[inline(never)]
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

/// `array[index]` for an array load of `kind`, or the exception it
/// throws.
#[inline(always)]
fn array_load(heap: &Heap, kind: ArrayKind, array: Value, index: i64) -> Result<Value, Fault> {
    let Some(arr) = array.as_ref_opt() else {
        return Err(Fault::NullArrayLoad);
    };
    if index < 0 {
        return Err(Fault::Bounds(index));
    }
    let i = index as usize;
    let loaded = match (kind, heap.get(arr)) {
        (ArrayKind::Int, HeapObject::IntArray(v)) => v.get(i).map(|&x| Value::Int(x)),
        (ArrayKind::Float, HeapObject::FloatArray(v)) => v.get(i).map(|&x| Value::Float(x)),
        (ArrayKind::Ref, HeapObject::RefArray(v)) => v.get(i).copied(),
        _ => return Err(Fault::LoadKind),
    };
    loaded.ok_or(Fault::Bounds(index))
}

/// `array[index] = value` for an array store of `kind`, or the exception
/// it throws.
#[inline(always)]
fn array_store(
    heap: &mut Heap,
    kind: ArrayKind,
    array: Value,
    index: i64,
    value: Value,
) -> Result<(), Fault> {
    let Some(arr) = array.as_ref_opt() else {
        return Err(Fault::NullArrayStore);
    };
    if index < 0 {
        return Err(Fault::Bounds(index));
    }
    let i = index as usize;
    let stored = match (kind, heap.get_mut(arr)) {
        (ArrayKind::Int, HeapObject::IntArray(v)) => {
            v.get_mut(i).map(|slot| *slot = value.as_int())
        }
        (ArrayKind::Float, HeapObject::FloatArray(v)) => {
            v.get_mut(i).map(|slot| *slot = value.as_float())
        }
        (ArrayKind::Ref, HeapObject::RefArray(v)) => v.get_mut(i).map(|slot| *slot = value),
        _ => return Err(Fault::StoreKind),
    };
    stored.ok_or(Fault::Bounds(index))
}

/// The int binops, as the straight-line loop applies them.
mod int {
    pub(super) fn add(a: i64, b: i64) -> i64 {
        a.wrapping_add(b)
    }
    pub(super) fn sub(a: i64, b: i64) -> i64 {
        a.wrapping_sub(b)
    }
    pub(super) fn mul(a: i64, b: i64) -> i64 {
        a.wrapping_mul(b)
    }
    pub(super) fn shl(a: i64, b: i64) -> i64 {
        a.wrapping_shl(b as u32 & 63)
    }
    pub(super) fn shr(a: i64, b: i64) -> i64 {
        a.wrapping_shr(b as u32 & 63)
    }
    pub(super) fn ushr(a: i64, b: i64) -> i64 {
        ((a as u64) >> (b as u32 & 63)) as i64
    }
    pub(super) fn and(a: i64, b: i64) -> i64 {
        a & b
    }
    pub(super) fn or(a: i64, b: i64) -> i64 {
        a | b
    }
    pub(super) fn xor(a: i64, b: i64) -> i64 {
        a ^ b
    }
}

/// Run the running frame, the top of the thread stack `st`, and the
/// bytecode frames it calls, from its `pc` while the ops need no more
/// than [`Straight`] and `st` hold: locals,
/// operands, arithmetic, branches, switches, arrays, fields, statics,
/// `ldc` and allocations through a filled inline cache (allocations only
/// without allocation events), and calls and returns between bytecode
/// frames, with their method events, that promote nothing and stay
/// inside the activation. Stops (see [`Stop`]) at anything else, a due
/// poll, a throw, or an OSR threshold. Each op counts the instructions it
/// stands for as it runs (if `POLLING`, after a poll check); if `counted`,
/// the first op's instructions through `pc` are already counted (it is
/// re-entered after a stop inside its span); the count runs on from
/// `cx.run` and is left there. Ops read and write frame slots directly,
/// so only a stop or a call sets the frame's `sp`.
#[allow(clippy::too_many_lines)]
#[inline(never)]
fn straight<const POLLING: bool>(
    cx: &mut Straight<'_>,
    st: &mut ThreadStack,
    mut counted: bool,
) -> Stop {
    // The running frame's record, read and written in place (re-borrowed
    // whenever the frame changes); the position of its running op lives
    // in a register.
    let mut f: &mut Frame = st.frames.last_mut().expect("a running frame");
    // The running body's ops, and the slots from the running frame's
    // first local on (re-borrowed whenever the frame changes), so an
    // op's slot operand indexes them directly. The first instruction of
    // each op is read from the arena where a stop, a call or an OSR needs
    // it.
    let mut ops: &[Op] = &cx.arena.ops[f.code as usize..];
    let mut slots: &mut [Value] = &mut st.slots[f.base as usize..];
    let mut pos = cx.arena.bodies[f.body as usize].resume[f.pc as usize];
    // The first op counts its instructions through `pc` again, so it
    // starts that many short (wrapping, hence the wrapping adds).
    let mut n = if counted {
        cx.run
            .wrapping_sub(u64::from(f.pc - cx.arena.src[(f.code + pos) as usize] + 1))
    } else {
        cx.run
    };

    // Stop with the frame at instruction `$pc`.
    macro_rules! stop {
        ($stop:expr, $pc:expr) => {{
            f.pc = $pc;
            cx.run = n;
            return $stop;
        }};
    }

    // Stop for the outer loop to run instruction `$pc`, with the operand
    // stack `$top` slots above the frame's base.
    macro_rules! slow {
        ($top:expr, $pc:expr) => {{
            f.sp = f.base + u32::from($top);
            stop!(Stop::Slow, $pc)
        }};
    }

    macro_rules! throw {
        ($fault:expr, $pc:expr) => {
            stop!(Stop::Throw($fault), $pc)
        };
    }

    // The first instruction the running op stands for.
    macro_rules! first {
        () => {
            cx.arena.src[(f.code + pos) as usize]
        };
    }

    // Count an op's `$len` instructions and move to the next op.
    macro_rules! next {
        ($len:expr) => {{
            n = n.wrapping_add(u64::from($len));
            pos += 1;
        }};
    }

    // Count the instructions up to the one `$at` into the op's span and
    // give its index: where the op throws, calls or stops.
    macro_rules! here {
        ($at:expr) => {{
            n = n.wrapping_add(u64::from($at) + 1);
            first!() + u32::from($at)
        }};
    }

    macro_rules! get {
        ($s:expr) => {
            slots[usize::from($s)]
        };
    }

    macro_rules! int {
        ($s:expr) => {
            get!($s).as_int()
        };
    }

    macro_rules! float {
        ($s:expr) => {
            get!($s).as_float()
        };
    }

    macro_rules! put {
        ($s:expr, $v:expr) => {{
            let v = $v;
            get!($s) = v;
        }};
    }

    // Count an op's `$len` instructions and branch to the op `$t` names
    // (see [`BACK`]).
    macro_rules! branch {
        ($len:expr, $t:expr) => {{
            let (len, t): (u8, u32) = ($len, $t);
            n = n.wrapping_add(u64::from(len));
            if t & BACK != 0 && f.osr_pending {
                f.backedges += 1;
                if f.backedges >= cx.cost.tiers.osr_backedge_threshold {
                    f.backedges = 0;
                    let at = first!() + u32::from(len) - 1;
                    let target = cx.arena.src[(f.code + (t & !BACK)) as usize];
                    stop!(Stop::Osr(target), at);
                }
            }
            pos = t & !BACK;
            continue;
        }};
    }

    // `$dst = $f($a, $b)` over ints.
    macro_rules! ibin {
        ($len:expr, $dst:expr, $a:expr, $b:expr, $f:expr) => {{
            put!($dst, Value::Int($f($a, $b)));
            next!($len);
        }};
    }

    // `$dst = $a / $b` (or `%`), throwing at the consumer on a zero `$b`.
    macro_rules! idiv {
        ($len:expr, $dst:expr, $at:expr, $a:expr, $b:expr, $f:ident) => {{
            let (a, b): (i64, i64) = ($a, $b);
            if b == 0 {
                let pc = here!($at);
                throw!(Fault::DivideByZero, pc);
            }
            put!($dst, Value::Int(a.$f(b)));
            next!($len);
        }};
    }

    macro_rules! fbin {
        ($len:expr, $dst:expr, $a:expr, $b:expr, $op:tt) => {{
            put!($dst, Value::Float(float!($a) $op float!($b)));
            next!($len);
        }};
    }

    // Branch to `$t` if `$taken`, else fall through.
    macro_rules! cond {
        ($len:expr, $t:expr, $taken:expr) => {{
            if $taken {
                branch!($len, $t);
            }
            next!($len);
        }};
    }

    macro_rules! aload {
        ($len:expr, $dst:expr, $at:expr, $kind:expr, $arr:expr, $idx:expr) => {{
            match array_load(cx.heap, $kind, get!($arr), $idx) {
                Ok(v) => {
                    put!($dst, v);
                    next!($len);
                }
                Err(fault) => {
                    let pc = here!($at);
                    throw!(fault, pc);
                }
            }
        }};
    }

    macro_rules! astore {
        ($len:expr, $kind:expr, $arr:expr, $idx:expr, $val:expr) => {{
            if let Err(fault) = array_store(cx.heap, $kind, get!($arr), $idx, get!($val)) {
                let pc = here!($len - 1);
                throw!(fault, pc);
            }
            next!($len);
        }};
    }

    // Write a call's last two arguments (of `$nargs`) below slot `$top`
    // from the slots `$args` names.
    macro_rules! pass {
        ($nargs:expr, $top:expr, $args:expr) => {{
            if $nargs >= 2 {
                put!($top - 2, get!($args[0]));
            }
            if $nargs >= 1 {
                put!($top - 1, get!($args[1]));
            }
        }};
    }

    // Make the frame on top of the stack the running one, at op `$pos`.
    macro_rules! load {
        ($pos:expr) => {{
            f = st.frames.last_mut().expect("a running frame");
            ops = &cx.arena.ops[f.code as usize..];
            slots = &mut st.slots[f.base as usize..];
            pos = $pos;
        }};
    }

    // Count the `$len` instructions of a call op and run its call
    // through inline-cache slot `$ic`, with its `$nargs` arguments
    // (receiver included) below slot `$top`: enter the callee, or stop
    // or throw at the call instruction (see [`Straight::call`]).
    macro_rules! call {
        ($len:expr, $ic:expr, $nargs:expr, $top:expr, $is_virtual:expr) => {{
            let (len, top): (u8, u16) = ($len, $top);
            let args = f.base as usize + usize::from(top) - $nargs;
            (f.ret, f.sp) = (pos + 1, args as u32);
            cx.pend.settle(f, n.wrapping_add(u64::from(len)));
            n = 0;
            match cx.call(st, $ic, args, $nargs, $is_virtual) {
                Ok(true) => {
                    load!(0);
                    continue;
                }
                Ok(false) => {
                    f = st.frames.last_mut().expect("a running frame");
                    slow!(top, first!() + u32::from(len) - 1)
                }
                Err(fault) => {
                    f = st.frames.last_mut().expect("a running frame");
                    throw!(fault, first!() + u32::from(len) - 1)
                }
            }
        }};
    }

    // Count the `$len` instructions of a return op and return the value
    // in slot `$src` (if any) to the caller, unless it is in another
    // activation: then stop at the return with the operand stack `$top`
    // slots up.
    macro_rules! ret {
        ($len:expr, $src:expr, $top:expr) => {{
            let (len, src): (u8, Option<u16>) = ($len, $src);
            cx.pend.settle(f, n.wrapping_add(u64::from(len)));
            n = 0;
            let from = src.map(|s| f.base as usize + usize::from(s));
            if !cx.leave(st, from) {
                f = st.frames.last_mut().expect("a running frame");
                slots = &mut st.slots[f.base as usize..];
                if let Some(s) = src {
                    put!($top - 1, get!(s));
                }
                slow!($top, first!() + u32::from(len) - 1);
            }
            let ret = st.frames.last().expect("a running frame").ret;
            load!(ret);
            continue;
        }};
    }

    loop {
        if POLLING {
            if counted {
                counted = false;
            } else {
                f.polls += 1;
                if f.polls >= 32 {
                    f.polls = 0;
                    n += 1;
                    stop!(Stop::Poll, first!());
                }
            }
        }
        match ops[pos as usize] {
            Op::Nop { len } => next!(len),
            Op::Mov { len, dst, src } => {
                put!(dst, get!(src));
                next!(len);
            }
            Op::Const { len, dst, k } => {
                put!(dst, Value::Int(k));
                next!(len);
            }
            Op::FConst { len, dst, k } => {
                put!(dst, Value::Float(k));
                next!(len);
            }
            Op::Null { len, dst } => {
                put!(dst, Value::Null);
                next!(len);
            }
            Op::Ldc {
                len,
                dst,
                at,
                ic,
                top,
                ..
            } => match cx.arena.ics[ic as usize] {
                InlineCache::LdcStr(r) => {
                    put!(dst, Value::Ref(r));
                    next!(len);
                }
                _ => {
                    let pc = here!(at);
                    slow!(top, pc);
                }
            },
            Op::Swap { len, a, b } => {
                slots.swap(usize::from(a), usize::from(b));
                next!(len);
            }
            Op::IAdd { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::add),
            Op::ISub { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::sub),
            Op::IMul { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::mul),
            Op::IShl { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::shl),
            Op::IShr { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::shr),
            Op::IUShr { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::ushr),
            Op::IAnd { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::and),
            Op::IOr { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::or),
            Op::IXor { len, dst, a, b } => ibin!(len, dst, int!(a), int!(b), int::xor),
            Op::IAddK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::add),
            Op::ISubK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::sub),
            Op::IMulK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::mul),
            Op::IShlK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::shl),
            Op::IShrK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::shr),
            Op::IUShrK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::ushr),
            Op::IAndK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::and),
            Op::IOrK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::or),
            Op::IXorK { len, dst, a, k } => ibin!(len, dst, int!(a), k, int::xor),
            Op::IDiv { len, dst, at, a, b } => idiv!(len, dst, at, int!(a), int!(b), wrapping_div),
            Op::IRem { len, dst, at, a, b } => idiv!(len, dst, at, int!(a), int!(b), wrapping_rem),
            Op::IDivK { len, dst, at, a, k } => idiv!(len, dst, at, int!(a), k, wrapping_div),
            Op::IRemK { len, dst, at, a, k } => idiv!(len, dst, at, int!(a), k, wrapping_rem),
            Op::INeg { len, dst, a } => {
                put!(dst, Value::Int(int!(a).wrapping_neg()));
                next!(len);
            }
            Op::IInc { len, local, delta } => {
                put!(
                    local,
                    Value::Int(int!(local).wrapping_add(i64::from(delta)))
                );
                next!(len);
            }
            Op::IIncGoto {
                len,
                local,
                delta,
                target,
            } => {
                put!(
                    local,
                    Value::Int(int!(local).wrapping_add(i64::from(delta)))
                );
                branch!(len, target);
            }
            Op::FAdd { len, dst, a, b } => fbin!(len, dst, a, b, +),
            Op::FSub { len, dst, a, b } => fbin!(len, dst, a, b, -),
            Op::FMul { len, dst, a, b } => fbin!(len, dst, a, b, *),
            Op::FDiv { len, dst, a, b } => fbin!(len, dst, a, b, /),
            Op::FNeg { len, dst, a } => {
                put!(dst, Value::Float(-float!(a)));
                next!(len);
            }
            Op::I2F { len, dst, a } => {
                put!(dst, Value::Float(int!(a) as f64));
                next!(len);
            }
            Op::F2I { len, dst, a } => {
                put!(dst, Value::Int(float!(a) as i64));
                next!(len);
            }
            Op::FCmp { len, dst, a, b } => {
                let (a, b) = (float!(a), float!(b));
                let r = if a.is_nan() || b.is_nan() {
                    1
                } else if a < b {
                    -1
                } else {
                    i64::from(a > b)
                };
                put!(dst, Value::Int(r));
                next!(len);
            }
            Op::Goto { len, target } => {
                branch!(len, target);
            }
            Op::IfEq { len, a, b, target } => cond!(len, target, int!(a) == int!(b)),
            Op::IfNe { len, a, b, target } => cond!(len, target, int!(a) != int!(b)),
            Op::IfLt { len, a, b, target } => cond!(len, target, int!(a) < int!(b)),
            Op::IfGe { len, a, b, target } => cond!(len, target, int!(a) >= int!(b)),
            Op::IfGt { len, a, b, target } => cond!(len, target, int!(a) > int!(b)),
            Op::IfLe { len, a, b, target } => cond!(len, target, int!(a) <= int!(b)),
            Op::IfEqK { len, a, k, target } => cond!(len, target, int!(a) == k),
            Op::IfNeK { len, a, k, target } => cond!(len, target, int!(a) != k),
            Op::IfLtK { len, a, k, target } => cond!(len, target, int!(a) < k),
            Op::IfGeK { len, a, k, target } => cond!(len, target, int!(a) >= k),
            Op::IfGtK { len, a, k, target } => cond!(len, target, int!(a) > k),
            Op::IfLeK { len, a, k, target } => cond!(len, target, int!(a) <= k),
            Op::IfNull { len, a, target } => cond!(len, target, get!(a).as_ref_opt().is_none()),
            Op::IfNonNull { len, a, target } => {
                cond!(len, target, get!(a).as_ref_opt().is_some());
            }
            Op::TableSwitch { len, key, switch } => {
                let k = int!(key);
                let sw = &cx.arena.switches[switch as usize];
                let off = k.wrapping_sub(sw.low);
                let target = if off >= 0 && (off as u64) < u64::from(sw.count) {
                    cx.arena.switch_targets[sw.first as usize + off as usize]
                } else {
                    sw.default
                };
                branch!(len, target);
            }
            Op::InvokeStatic {
                len,
                ic,
                nargs,
                top,
                args,
                ..
            } => {
                let nargs = usize::from(nargs);
                pass!(nargs, top, args);
                call!(len, ic, nargs, top, false);
            }
            Op::InvokeVirtual {
                len,
                ic,
                nargs,
                top,
                args,
                ..
            } => {
                let nargs = usize::from(nargs) + 1;
                pass!(nargs, top, args);
                call!(len, ic, nargs, top, true);
            }
            Op::Return { len, top } => ret!(len, None, top),
            Op::ValueReturn { len, src, top } => ret!(len, Some(src), top),
            Op::GetField {
                len,
                dst,
                at,
                ic,
                obj,
                top,
                ..
            } => {
                let recv = get!(obj);
                let Some(r) = recv.as_ref_opt() else {
                    let pc = here!(at);
                    throw!(Fault::NullField, pc);
                };
                let c = &mut *cx;
                let HeapObject::Instance { fields, .. } = c.heap.get(r) else {
                    let pc = here!(at);
                    throw!(Fault::FieldKind, pc);
                };
                let InlineCache::InstanceField(slot) = c.arena.ics[ic as usize] else {
                    let pc = here!(at);
                    slow!(top, pc);
                };
                put!(dst, fields[slot]);
                next!(len);
            }
            Op::PutField {
                len,
                ic,
                obj,
                val,
                top,
                ..
            } => {
                let (recv, v) = (get!(obj), get!(val));
                let Some(r) = recv.as_ref_opt() else {
                    let pc = here!(len - 1);
                    throw!(Fault::NullField, pc);
                };
                let c = &mut *cx;
                let HeapObject::Instance { fields, .. } = c.heap.get_mut(r) else {
                    let pc = here!(len - 1);
                    throw!(Fault::FieldKind, pc);
                };
                let InlineCache::InstanceField(slot) = c.arena.ics[ic as usize] else {
                    let pc = here!(len - 1);
                    slow!(top, pc);
                };
                fields[slot] = v;
                next!(len);
            }
            Op::GetStatic {
                len,
                dst,
                at,
                ic,
                top,
                ..
            } => {
                let Some(v) = static_field(cx.arena, cx.registry, ic, None) else {
                    let pc = here!(at);
                    slow!(top, pc);
                };
                put!(dst, v);
                next!(len);
            }
            Op::PutStatic {
                len, ic, src, top, ..
            } => {
                let v = get!(src);
                if static_field(cx.arena, cx.registry, ic, Some(v)).is_none() {
                    let pc = here!(len - 1);
                    slow!(top, pc);
                }
                next!(len);
            }
            Op::IALoad {
                len,
                dst,
                at,
                arr,
                idx,
            } => aload!(len, dst, at, ArrayKind::Int, arr, int!(idx)),
            Op::FALoad {
                len,
                dst,
                at,
                arr,
                idx,
            } => aload!(len, dst, at, ArrayKind::Float, arr, int!(idx)),
            Op::AALoad {
                len,
                dst,
                at,
                arr,
                idx,
            } => aload!(len, dst, at, ArrayKind::Ref, arr, int!(idx)),
            Op::IALoadK {
                len,
                dst,
                at,
                arr,
                k,
            } => aload!(len, dst, at, ArrayKind::Int, arr, k),
            Op::FALoadK {
                len,
                dst,
                at,
                arr,
                k,
            } => aload!(len, dst, at, ArrayKind::Float, arr, k),
            Op::AALoadK {
                len,
                dst,
                at,
                arr,
                k,
            } => aload!(len, dst, at, ArrayKind::Ref, arr, k),
            Op::IAStore { len, arr, idx, val } => {
                astore!(len, ArrayKind::Int, arr, int!(idx), val);
            }
            Op::FAStore { len, arr, idx, val } => {
                astore!(len, ArrayKind::Float, arr, int!(idx), val);
            }
            Op::AAStore { len, arr, idx, val } => {
                astore!(len, ArrayKind::Ref, arr, int!(idx), val);
            }
            Op::IAStoreK { len, arr, k, val } => astore!(len, ArrayKind::Int, arr, k, val),
            Op::FAStoreK { len, arr, k, val } => astore!(len, ArrayKind::Float, arr, k, val),
            Op::AAStoreK { len, arr, k, val } => astore!(len, ArrayKind::Ref, arr, k, val),
            Op::ArrayLength { len, dst, at, arr } => {
                let Some(r) = get!(arr).as_ref_opt() else {
                    let pc = here!(at);
                    throw!(Fault::NullArrayLength, pc);
                };
                let Some(length) = cx.heap.get(r).array_len() else {
                    let pc = here!(at);
                    throw!(Fault::LengthKind, pc);
                };
                put!(dst, Value::Int(length as i64));
                next!(len);
            }
            Op::New { len, ic, top, .. } => {
                let pc = here!(len - 1);
                let InlineCache::NewClass(class) = cx.arena.ics[ic as usize] else {
                    slow!(top, pc);
                };
                if cx.alloc_events {
                    slow!(top, pc);
                }
                let what = Alloc::Object(class);
                let obj = allocate(cx.heap, cx.registry, cx.info, cx.stats, cx.cost, what);
                put!(top, Value::Ref(obj));
                pos += 1;
            }
            Op::NewArray { len, kind, top } => {
                let pc = here!(len - 1);
                if cx.alloc_events {
                    slow!(top, pc);
                }
                let length = int!(top - 1);
                if length < 0 {
                    throw!(Fault::NegativeSize(length), pc);
                }
                let what = Alloc::Array(kind, length as usize);
                let r = allocate(cx.heap, cx.registry, cx.info, cx.stats, cx.cost, what);
                put!(top - 1, Value::Ref(r));
                pos += 1;
            }
            Op::AThrow { len, top } => {
                let pc = here!(len - 1);
                slow!(top, pc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use jvmsim_classfile::validate::validate_code;
    use jvmsim_classfile::{
        Code, Cond, ConstantPool, ExceptionHandler, Insn, MethodFlags, MethodInfo,
    };

    use jvmsim_tiers::{Tier, TiersMode};

    use super::{prepare, tier_rules, ClassId, CodeArena, HashMap, MethodId, Op, TierRule, BACK};
    use crate::cost::TierCostModel;

    /// `insns` with 3 locals, in a static method returning an int if they
    /// do and nothing otherwise, validated and prepared folded (or not):
    /// its ops, and the op covering each instruction.
    struct Prepared {
        ops: Vec<Op>,
        resume: Vec<u32>,
    }

    impl Prepared {
        fn new(insns: Vec<Insn>, handlers: Vec<ExceptionHandler>, fold: bool) -> Self {
            let desc = if insns.contains(&Insn::IReturn) {
                "()I"
            } else {
                "()V"
            };
            let code = Code {
                max_stack: 4,
                max_locals: 3,
                insns,
                exception_table: handlers,
            };
            let method = MethodInfo::new("t", desc, MethodFlags::STATIC, code.clone()).unwrap();
            let facts = validate_code(&ConstantPool::new(), &method, &code).unwrap();
            let mut arena = CodeArena::default();
            let mid = MethodId {
                class: ClassId::for_test(0),
                index: 0,
            };
            prepare(mid, &code, &facts.depths, &HashMap::new(), &mut arena, fold);
            let body = &arena.bodies[0];
            Prepared {
                resume: body.resume.to_vec(),
                ops: arena.ops,
            }
        }

        /// The op covering instruction `i`.
        fn at(&self, i: usize) -> Op {
            self.ops[self.resume[i] as usize]
        }
    }

    #[test]
    fn tier_rules_promote_one_tier_at_a_time_and_never_with_the_jit_off() {
        let t = TierCostModel::default();
        let rule = |tier: Tier, promotes: bool| TierRule {
            tier,
            promotes,
            insn: t.insn(tier),
            overhead: t.call_overhead(tier),
        };
        let full = tier_rules(&t, TiersMode::Full, true);
        assert_eq!(
            full,
            [
                rule(Tier::Interp, true),
                rule(Tier::C1, true),
                rule(Tier::C2, false)
            ]
        );
        let (c1, c2) = (t.c1_invocation_threshold, t.c2_invocation_threshold);
        assert!(!full[0].due(&t, c1 - 1) && full[0].due(&t, c1));
        assert!(!full[1].due(&t, c2 - 1) && full[1].due(&t, c2));
        assert!(!full[2].due(&t, u32::MAX));
        assert_eq!(
            tier_rules(&t, TiersMode::Tiered, true),
            [
                rule(Tier::Interp, true),
                rule(Tier::C1, false),
                rule(Tier::C2, false)
            ]
        );
        // The JIT off hides compiled state: every method runs
        // interpreted, and nothing promotes.
        for mode in TiersMode::ALL {
            assert_eq!(tier_rules(&t, mode, false), [rule(Tier::Interp, false); 3]);
        }
    }

    #[test]
    fn ops_are_two_words() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn loads_constants_and_a_store_fold_into_their_consumer() {
        // `l2 = l0 + l1; if (l2 < 5) goto 0; return`
        let insns = vec![
            Insn::ILoad(0),
            Insn::ILoad(1),
            Insn::IAdd,
            Insn::IStore(2),
            Insn::ILoad(2),
            Insn::IConst(5),
            Insn::IfICmp(Cond::Lt, 0),
            Insn::Return,
        ];
        let p = Prepared::new(insns.clone(), Vec::new(), true);
        // One op per span, each followed by its successor; the back-edge
        // to instruction 0 names op 0.
        let (len, target) = (3, BACK);
        assert_eq!(
            p.ops,
            [
                Op::IAdd {
                    len: 4,
                    dst: 2,
                    a: 0,
                    b: 1
                },
                Op::IfLtK {
                    len,
                    a: 2,
                    k: 5,
                    target
                },
                Op::Return { len: 1, top: 3 },
            ]
        );
        assert_eq!(p.resume, [0, 0, 0, 0, 1, 1, 1, 2]);
        // Unfolded, each instruction is its own op: stack position `d` is
        // slot `max_locals + d`.
        let p = Prepared::new(insns, Vec::new(), false);
        assert_eq!(
            p.at(1),
            Op::Mov {
                len: 1,
                dst: 4,
                src: 1
            }
        );
        assert_eq!(
            p.at(2),
            Op::IAdd {
                len: 1,
                dst: 3,
                a: 3,
                b: 4
            }
        );
        assert_eq!(
            p.at(3),
            Op::Mov {
                len: 1,
                dst: 2,
                src: 3
            }
        );
    }

    #[test]
    fn a_load_is_forced_before_its_local_is_written() {
        // `l0 - (l0 += 1)`, then `l1 = l1 + (l1 = 7)`.
        let insns = vec![
            Insn::ILoad(0),
            Insn::IInc { local: 0, delta: 1 },
            Insn::ILoad(0),
            Insn::ISub,
            Insn::ILoad(1),
            Insn::IConst(7),
            Insn::IStore(1),
            Insn::ILoad(1),
            Insn::IAdd,
            Insn::IStore(1),
            Insn::Return,
        ];
        let p = Prepared::new(insns, Vec::new(), true);
        assert_eq!(
            p.at(0),
            Op::Mov {
                len: 1,
                dst: 3,
                src: 0
            }
        );
        assert_eq!(
            p.at(1),
            Op::IInc {
                len: 1,
                local: 0,
                delta: 1
            }
        );
        assert_eq!(
            p.at(2),
            Op::ISub {
                len: 2,
                dst: 3,
                a: 3,
                b: 0
            }
        );
        assert_eq!(
            p.at(4),
            Op::Mov {
                len: 1,
                dst: 4,
                src: 1
            }
        );
        assert_eq!(
            p.at(5),
            Op::Const {
                len: 2,
                dst: 1,
                k: 7
            }
        );
        assert_eq!(
            p.at(7),
            Op::IAdd {
                len: 3,
                dst: 1,
                a: 4,
                b: 1
            }
        );
    }

    #[test]
    fn values_live_at_a_block_end_are_in_their_slots() {
        // `l0` under a branch, then `l1 ? 1 : l2` across the merge.
        let insns = vec![
            Insn::ILoad(0),
            Insn::ILoad(1),
            Insn::If(Cond::Eq, 5),
            Insn::IConst(1),
            Insn::Goto(6),
            Insn::ILoad(2),
            Insn::IAdd,
            Insn::IReturn,
        ];
        let p = Prepared::new(insns, Vec::new(), true);
        assert_eq!(
            p.at(0),
            Op::Mov {
                len: 1,
                dst: 3,
                src: 0
            }
        );
        let (len, target) = (2, p.resume[5]);
        assert_eq!(
            p.at(1),
            Op::IfEqK {
                len,
                a: 1,
                k: 0,
                target
            }
        );
        assert_eq!(
            p.at(3),
            Op::Const {
                len: 1,
                dst: 4,
                k: 1
            }
        );
        assert_eq!(
            p.at(5),
            Op::Mov {
                len: 1,
                dst: 4,
                src: 2
            }
        );
        assert_eq!(
            p.at(6),
            Op::IAdd {
                len: 1,
                dst: 3,
                a: 3,
                b: 4
            }
        );
        assert_eq!(
            p.at(7),
            Op::ValueReturn {
                len: 1,
                src: 3,
                top: 4
            }
        );
    }

    #[test]
    fn a_polling_vm_prepares_one_op_per_instruction() {
        let insns = vec![
            Insn::ILoad(0),
            Insn::ILoad(1),
            Insn::Pop,
            Insn::Pop,
            Insn::Return,
        ];
        let p = Prepared::new(insns, Vec::new(), false);
        let (len, top) = (1, 3);
        assert_eq!(
            p.ops,
            [
                Op::Mov {
                    len,
                    dst: 3,
                    src: 0
                },
                Op::Mov {
                    len,
                    dst: 4,
                    src: 1
                },
                Op::Nop { len },
                Op::Nop { len },
                Op::Return { len, top },
            ]
        );
        assert_eq!(p.resume, [0, 1, 2, 3, 4]);
    }
}
