//! The engine-coverage corpus: seeded, generated programs pinned
//! absolutely.
//!
//! The golden corpus pins the eight workloads, but they leave engine paths
//! unexercised: receivers that change at a virtual call site, recursion
//! up to `max_call_depth`, exceptions that unwind through native frames
//! and JNI upcalls inside an OSR'd loop, throws out of compiled frames
//! with values still on the operand stack, and jumps or handler ranges
//! that enter a foldable span in its middle. Seeds from 200 on draw from
//! a second set of shapes aimed at register-form preparation: loads whose
//! local is overwritten before the value is consumed, values live across
//! a merge, stack shuffles, calls on locals and constants, stores of a
//! call's result, and handler ranges that split a load from its consumer.
//! Each program here is built from a seed through [`ClassBuilder`] (so it
//! passes the validator) and mixes those shapes; every (seed, tiers mode)
//! pair is run twice, plain
//! and polled (a sampler that never fires, so bodies run one op per
//! instruction), and
//! both runs must match the committed line in `tests/golden/engine.tsv`:
//! the result, `total_cycles`, and SHA-256 digests of the `VmStats`, the
//! transition trace, the metrics snapshot and (for every fourth seed, run
//! under a method-event sink) the `MethodEntry`/`MethodExit` stream.
//!
//! The file's first line is a digest of every generated class's bytes,
//! so a generator change cannot silently re-baseline the corpus.
//!
//! The ignored `regenerate_engine_corpus` test rewrites the file:
//!
//! ```sh
//! cargo test --release --test engine_corpus -- --ignored
//! ```

use std::sync::{Arc, Mutex};

use jvmsim_cache::Digest;
use jvmsim_classfile::builder::{ClassBuilder, MethodBuilder};
use jvmsim_classfile::{codec, ArrayKind, ClassFile, Cond, FieldFlags, MethodFlags};
use jvmsim_metrics::MetricsRegistry;
use jvmsim_trace::{csv::events_csv, TraceRecorder};
use jvmsim_vm::events::SampleSink;
use jvmsim_vm::jni::{JniRetType, NativeLibrary, ParamStyle};
use jvmsim_vm::{
    EventType, MethodView, ThreadId, ThreadInfo, TiersMode, TraceSink, Value, Vm, VmEventSink,
};

const CORPUS: &str = include_str!("golden/engine.tsv");
const PROGRAMS: u64 = 240;
/// Seeds from here on draw their shapes from [`HAZARDS`].
const FIRST_HAZARD_SEED: u64 = 200;
const ST: MethodFlags = MethodFlags::STATIC;
const MAIN: &str = "e/Main";

/// splitmix64: a tiny, dependency-free seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// The receiver classes: `e/Base` and four overriders of `v(I)I`.
const RECEIVERS: [&str; 5] = ["e/Base", "e/A", "e/B", "e/C", "e/D"];

fn receiver_classes() -> Vec<ClassFile> {
    RECEIVERS
        .iter()
        .enumerate()
        .map(|(n, name)| {
            let mut cb = ClassBuilder::new(*name);
            if n == 0 {
                cb.field("k", "I", FieldFlags::PUBLIC).unwrap();
            } else {
                cb.extends("e/Base");
            }
            let mut m = cb.method("v", "(I)I", MethodFlags::PUBLIC);
            m.iload(1).aload(0).getfield("e/Base", "k", "I");
            match n {
                0 => m.iadd(),
                1 => m.imul(),
                2 => m.ixor(),
                3 => m.isub(),
                _ => m.iadd().iconst(3).ishl(),
            };
            m.ireturn();
            m.finish().unwrap();
            cb.finish().unwrap()
        })
        .collect()
}

fn oops_class() -> ClassFile {
    let mut cb = ClassBuilder::new("e/Oops");
    cb.extends("java/lang/RuntimeException");
    cb.finish().unwrap()
}

/// `e/Nat`: `up(I)I` works, then calls `e/Main.cb(I)I` back through JNI;
/// `rec(I)I` calls `e/Main.nrec(I)I` back, so Java and native frames
/// alternate.
fn nat_class() -> ClassFile {
    let mut cb = ClassBuilder::new("e/Nat");
    cb.native_method("up", "(I)I", ST).unwrap();
    cb.native_method("rec", "(I)I", ST).unwrap();
    cb.finish().unwrap()
}

fn native_library() -> NativeLibrary {
    let mut lib = NativeLibrary::new("engine");
    for (method, callee) in [("up", "cb"), ("rec", "nrec")] {
        lib.register_method("e/Nat", method, move |env, args| {
            let x = args[0].as_int();
            env.work(5 + x.rem_euclid(7) as u64);
            let v = env.call_static(
                JniRetType::Int,
                ParamStyle::Varargs,
                MAIN,
                callee,
                "(I)I",
                &[Value::Int(x)],
            )?;
            Ok(Value::Int(v.as_int() + 1))
        });
    }
    lib
}

/// Emit `for (slot = 0; slot < n; slot++) { body }`, the counter bumped
/// by `iinc; goto` and tested by `iload; iconst; if_icmp` (both foldable).
fn counted(
    m: &mut MethodBuilder<'_>,
    slot: u16,
    n: i64,
    body: impl FnOnce(&mut MethodBuilder<'_>),
) {
    let (top, done) = (m.new_label(), m.new_label());
    m.iconst(0).istore(slot);
    m.bind(top);
    m.iload(slot).iconst(n).if_icmp(Cond::Ge, done);
    body(m);
    m.iinc(slot, 1).goto(top);
    m.bind(done);
}

/// One generated program: the support classes plus `e/Main`, whose
/// `main()I` runs this seed's shapes and sums what they return.
struct Program {
    classes: Vec<ClassFile>,
    /// Method events on (JIT off) with a recording sink attached.
    events: bool,
}

/// Each shape adds one or more static methods to `e/Main` and returns
/// the name of its `()I` entry.
type Shape = fn(&mut ClassBuilder, &mut Rng, usize) -> String;

const SHAPES: [Shape; 9] = [
    virtual_sites,
    recursion,
    table_switch,
    nested_loops,
    native_unwind,
    compiled_throw,
    fields_and_arrays,
    mid_span_entries,
    depth_limit,
];

/// The shapes of seeds from [`FIRST_HAZARD_SEED`] on.
const HAZARDS: [Shape; 5] = [
    clobbered_loads,
    ternaries,
    stack_shuffles,
    call_operands,
    split_ranges,
];

fn program(seed: u64) -> Program {
    let mut rng = Rng(seed);
    let mut cb = ClassBuilder::new(MAIN);
    cb.field("st", "I", FieldFlags::PUBLIC | FieldFlags::STATIC)
        .unwrap();
    // `cb(I)I`, the upcall target: throws `/ by zero` when x % p == 0.
    let p = rng.range(3, 9);
    let mut m = cb.method("cb", "(I)I", ST);
    m.iload(0).iconst(100).iload(0).iconst(p).irem().idiv();
    m.iadd().ireturn();
    m.finish().unwrap();
    // `nrec(I)I`: recursion through `e/Nat.rec`, throwing at the bottom
    // on odd seeds.
    let throw_at_bottom = seed % 2 == 1;
    let mut m = cb.method("nrec", "(I)I", ST);
    let base = m.new_label();
    m.iload(0).if_(Cond::Le, base);
    m.iload(0)
        .iconst(1)
        .isub()
        .invokestatic("e/Nat", "rec", "(I)I");
    m.iload(0).iadd().ireturn();
    m.bind(base);
    if throw_at_bottom {
        m.new_obj("e/Oops").athrow();
    } else {
        m.iconst(1).ireturn();
    }
    m.finish().unwrap();

    // Every shape of the seed's set leads in turn; the rest are drawn.
    let set: &[Shape] = if seed < FIRST_HAZARD_SEED {
        &SHAPES
    } else {
        &HAZARDS
    };
    let mut shapes = vec![set[seed as usize % set.len()]];
    for _ in 0..rng.range(1, 3) {
        shapes.push(rng.pick(set));
    }
    // On these seeds the last call's exception, if any, escapes `main`.
    let uncaught = seed % 23 == 5;
    if uncaught {
        shapes.push(depth_limit);
    }
    let entries: Vec<String> = shapes
        .iter()
        .enumerate()
        .map(|(k, shape)| shape(&mut cb, &mut rng, k))
        .collect();
    // `main` calls each entry under a catch-all handler.
    let mut m = cb.method("main", "()I", ST);
    m.iconst(0).istore(0);
    for (k, entry) in entries.iter().enumerate() {
        let (start, end, handler, next) =
            (m.new_label(), m.new_label(), m.new_label(), m.new_label());
        m.bind(start);
        m.invokestatic(MAIN, entry, "()I").iload(0).iadd().istore(0);
        m.bind(end);
        m.goto(next);
        m.bind(handler);
        m.pop().iinc(0, 1_000 + k as i32);
        m.bind(next);
        if !(uncaught && k + 1 == entries.len()) {
            m.try_region(start, end, handler, None);
        }
    }
    m.iload(0).ireturn();
    m.finish().unwrap();

    let mut classes = receiver_classes();
    classes.extend([oops_class(), nat_class(), cb.finish().unwrap()]);
    Program {
        classes,
        events: seed % 4 == 3,
    }
}

/// Mono-, poly- or megamorphic `invokevirtual` over an array of
/// receivers.
fn virtual_sites(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let name = format!("virt{k}");
    let kinds = rng.pick(&[1_usize, 2, 4, 5]);
    let first = rng.range(0, 4) as usize;
    let count = rng.range(2, 7);
    let n = rng.range(40, 400);
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(count).newarray(ArrayKind::Ref).astore(0);
    for j in 0..count {
        let class = RECEIVERS[(first + rng.range(0, kinds as i64 - 1) as usize) % 5];
        m.aload(0).iconst(j).new_obj(class).dup();
        m.iconst(rng.range(-5, 9))
            .putfield("e/Base", "k", "I")
            .aastore();
    }
    m.iconst(0).istore(2);
    counted(&mut m, 1, n, |m| {
        m.aload(0).iload(1).iconst(count).irem().aaload().iload(1);
        m.invokevirtual("e/Base", "v", "(I)I");
        m.iload(2).iadd().iconst(0xffff).iand().istore(2);
    });
    m.iload(2).ireturn();
    m.finish().unwrap();
    name
}

/// Deep self recursion, mutual recursion, and recursion that alternates
/// Java and native frames, each run a few times.
fn recursion(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let (rec, even, odd) = (format!("rec{k}"), format!("even{k}"), format!("odd{k}"));
    let c = rng.range(1, 9);
    let mut m = cb.method(&rec, "(I)I", ST);
    let base = m.new_label();
    m.iload(0).if_(Cond::Le, base);
    m.iload(0).iconst(1).isub().invokestatic(MAIN, &rec, "(I)I");
    m.iconst(c).iadd().ireturn();
    m.bind(base);
    m.iconst(0).ireturn();
    m.finish().unwrap();
    for (this, other, bottom) in [(&even, &odd, 1), (&odd, &even, 0)] {
        let mut m = cb.method(this, "(I)I", ST);
        let base = m.new_label();
        m.iload(0).if_(Cond::Le, base);
        m.iload(0)
            .iconst(1)
            .isub()
            .invokestatic(MAIN, other, "(I)I");
        m.ireturn();
        m.bind(base);
        m.iconst(bottom).ireturn();
        m.finish().unwrap();
    }
    let name = format!("recursion{k}");
    let (depth, runs) = (rng.range(1, 1_500), rng.range(1, 4));
    let (mutual, native) = (rng.range(1, 300), rng.range(0, 60));
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(0).istore(0);
    counted(&mut m, 1, runs, |m| {
        m.iload(0).iconst(depth).iload(1).isub();
        m.invokestatic(MAIN, &rec, "(I)I").iadd();
        m.iconst(mutual)
            .iload(1)
            .iadd()
            .invokestatic(MAIN, &even, "(I)I");
        m.iadd().istore(0);
    });
    let (start, end, handler, done) = (m.new_label(), m.new_label(), m.new_label(), m.new_label());
    m.bind(start);
    m.iload(0).iconst(native).invokestatic(MAIN, "nrec", "(I)I");
    m.iadd().istore(0);
    m.bind(end);
    m.goto(done);
    m.bind(handler);
    m.pop().iinc(0, 77);
    m.bind(done);
    m.try_region(start, end, handler, Some("e/Oops"));
    m.iload(0).ireturn();
    m.finish().unwrap();
    name
}

/// A `tableswitch` over `i % cases` with a random low bound, so some keys
/// take the default.
fn table_switch(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let name = format!("switch{k}");
    let cases = rng.range(2, 8);
    let low = rng.range(-2, 2);
    let n = rng.range(30, 300);
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(1).istore(2);
    counted(&mut m, 1, n, |m| {
        let targets: Vec<_> = (0..cases).map(|_| m.new_label()).collect();
        let (default, join) = (m.new_label(), m.new_label());
        m.iload(1).iconst(cases + 1).irem();
        m.tableswitch(low, &targets, default);
        for (j, t) in targets.iter().enumerate() {
            m.bind(*t);
            m.iload(2)
                .iconst(j as i64 + 3)
                .imul()
                .iconst(0xfffff)
                .iand()
                .istore(2);
            m.goto(join);
        }
        m.bind(default);
        m.iinc(2, 11);
        m.bind(join);
    });
    m.iload(2).ireturn();
    m.finish().unwrap();
    name
}

/// Nested loops whose back-edges cross the OSR threshold, the inner one
/// calling a small static helper that earns promotion by invocations.
fn nested_loops(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let (name, helper) = (format!("nested{k}"), format!("helper{k}"));
    let mut m = cb.method(&helper, "(II)I", ST);
    m.iload(0)
        .iload(1)
        .imul()
        .iconst(rng.range(1, 5))
        .iadd()
        .ireturn();
    m.finish().unwrap();
    let (outer, inner) = (rng.range(1, 6), rng.range(40, 450));
    let call_every = rng.range(1, 4);
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(0).istore(0);
    counted(&mut m, 1, outer, |m| {
        counted(m, 2, inner, |m| {
            let skip = m.new_label();
            m.iload(0).iload(2).iadd().istore(0);
            m.iload(2).iconst(call_every).irem().if_(Cond::Ne, skip);
            m.iload(1).iload(2).invokestatic(MAIN, &helper, "(II)I");
            m.iload(0).ixor().istore(0);
            m.bind(skip);
        });
    });
    m.iload(0).ireturn();
    m.finish().unwrap();
    name
}

/// A loop (long enough to OSR) calling `e/Nat.up`, whose JNI upcall to
/// `cb` throws every few iterations: the exception unwinds through the
/// upcall and the native frame into the loop's handler.
fn native_unwind(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let name = format!("natloop{k}");
    let n = rng.range(20, 450);
    let catch = rng.pick(&[Some("java/lang/ArithmeticException"), None]);
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(0).istore(0);
    counted(&mut m, 1, n, |m| {
        let (start, end, handler, next) =
            (m.new_label(), m.new_label(), m.new_label(), m.new_label());
        m.bind(start);
        m.iload(1).invokestatic("e/Nat", "up", "(I)I");
        m.iload(0).iadd().istore(0);
        m.bind(end);
        m.goto(next);
        m.bind(handler);
        m.pop().iinc(0, 3);
        m.bind(next);
        m.try_region(start, end, handler, catch);
    });
    m.iload(0).ireturn();
    m.finish().unwrap();
    name
}

/// `hot(i)` keeps two values on its operand stack across a call to
/// `maybe(i)`, which throws every `p`-th time; `hot` has no handler, so a
/// compiled `hot` deopts as the exception unwinds through it.
fn compiled_throw(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let (name, hot, maybe) = (format!("cthrow{k}"), format!("hot{k}"), format!("maybe{k}"));
    let p = rng.range(5, 120);
    let by_athrow = rng.range(0, 1) == 1;
    let mut m = cb.method(&maybe, "(I)I", ST);
    let ok = m.new_label();
    m.iload(0).iconst(p).irem().if_(Cond::Ne, ok);
    if by_athrow {
        m.new_obj("e/Oops").athrow();
    } else {
        m.iconst(1).iconst(0).idiv().ireturn();
    }
    m.bind(ok);
    m.iload(0).iconst(2).imul().ireturn();
    m.finish().unwrap();
    let mut m = cb.method(&hot, "(I)I", ST);
    m.iload(0)
        .iconst(3)
        .iload(0)
        .invokestatic(MAIN, &maybe, "(I)I");
    m.iadd().iadd().ireturn();
    m.finish().unwrap();
    let n = rng.range(150, 400);
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(0).istore(0);
    counted(&mut m, 1, n, |m| {
        let (start, end, handler, next) =
            (m.new_label(), m.new_label(), m.new_label(), m.new_label());
        m.bind(start);
        m.iload(1).invokestatic(MAIN, &hot, "(I)I");
        m.iload(0).iadd().iconst(0xfffff).iand().istore(0);
        m.bind(end);
        m.goto(next);
        m.bind(handler);
        m.pop().iinc(0, 5);
        m.bind(next);
        m.try_region(start, end, handler, None);
    });
    m.iload(0).ireturn();
    m.finish().unwrap();
    name
}

/// Instance and static fields, int/float/ref arrays, float arithmetic,
/// and caught out-of-bounds and null-receiver faults.
fn fields_and_arrays(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let name = format!("heap{k}");
    let len = rng.range(1, 40);
    let n = rng.range(20, 200);
    let oob = rng.range(0, 3) * len;
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(len).newarray(ArrayKind::Int).astore(0);
    m.iconst(len).newarray(ArrayKind::Float).astore(1);
    m.new_obj("e/Base").astore(2);
    m.iconst(0).istore(3);
    counted(&mut m, 4, n, |m| {
        // ints[i % len] += i; floats[i % len] = floats[i % len] * 0.5 + i
        m.iload(4).iconst(len).irem().istore(5);
        m.aload(0).iload(5).aload(0).iload(5).iaload();
        m.iload(4).iadd().iastore();
        m.aload(1).iload(5).aload(1).iload(5).faload();
        m.fconst(0.5).fmul().iload(4).i2f().fadd().fastore();
        m.aload(2).aload(2).getfield("e/Base", "k", "I");
        m.iload(4).ixor().putfield("e/Base", "k", "I");
        m.getstatic(MAIN, "st", "I").iconst(1).iadd();
        m.putstatic(MAIN, "st", "I");
    });
    // Fold the arrays back into one int.
    counted(&mut m, 4, len, |m| {
        m.iload(3).aload(0).iload(4).iaload().iadd();
        m.aload(1).iload(4).faload().f2i().iadd();
        m.istore(3);
    });
    let (start, end, handler, done) = (m.new_label(), m.new_label(), m.new_label(), m.new_label());
    m.bind(start);
    m.aload(0).iconst(oob).iaload().iload(3).iadd().istore(3);
    m.aconst_null()
        .getfield("e/Base", "k", "I")
        .iload(3)
        .iadd()
        .istore(3);
    m.bind(end);
    m.goto(done);
    m.bind(handler);
    m.pop().iinc(3, 17);
    m.bind(done);
    m.try_region(start, end, handler, Some("java/lang/RuntimeException"));
    m.iload(3).aload(0).arraylength().iadd();
    m.getstatic(MAIN, "st", "I").iadd();
    m.aload(2).getfield("e/Base", "k", "I").iadd().ireturn();
    m.finish().unwrap();
    name
}

/// Jumps, handler entries and handler range boundaries that land strictly
/// inside foldable spans (`iload; iload; …`, `iload; iconst; iadd`), so
/// the folded op's head is bypassed and the interior instructions run on
/// their own.
fn mid_span_entries(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let name = format!("midspan{k}");
    let n = rng.range(20, 300);
    let (a, b) = (rng.range(2, 5), rng.range(1, 9));
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(0).istore(2);
    counted(&mut m, 1, n, |m| {
        let (other, mid, start, end, handler, next) = (
            m.new_label(),
            m.new_label(),
            m.new_label(),
            m.new_label(),
            m.new_label(),
            m.new_label(),
        );
        m.iload(1).iconst(a).irem().if_(Cond::Ne, other);
        m.iload(2).iconst(b).iadd().goto(mid);
        // `iload 2; iload 1; iadd` fuses at its head unless `mid` is
        // entered between the two loads.
        m.bind(other);
        m.iload(2);
        m.bind(mid);
        m.iload(1).iadd().istore(2);
        // A handler range over `iload 1 / (i % (a + 1))` that starts
        // inside `iload; iconst; iadd` and ends inside a second one.
        m.iload(1);
        m.bind(start);
        m.iconst(b).iadd().iload(1).iconst(a + 1).irem().idiv();
        m.iload(2).iconst(1);
        m.bind(end);
        m.iadd().iadd().istore(2);
        m.goto(next);
        m.bind(handler);
        m.pop().iinc(2, 9);
        m.bind(next);
        m.try_region(start, end, handler, None);
    });
    m.iload(2).ireturn();
    m.finish().unwrap();
    name
}

/// Self recursion past the default `max_call_depth` (2,000): the
/// `StackOverflowError` is caught here, or on some seeds one frame up.
fn depth_limit(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let (name, deep) = (format!("overflow{k}"), format!("deep{k}"));
    let live = rng.range(0, 2);
    let mut m = cb.method(&deep, "(I)I", ST);
    m.iload(0);
    for _ in 0..live {
        m.iload(0);
    }
    m.iload(0)
        .iconst(1)
        .iadd()
        .invokestatic(MAIN, &deep, "(I)I");
    for _ in 0..live {
        m.iadd();
    }
    m.iadd().ireturn();
    m.finish().unwrap();
    let catch_here = rng.range(0, 2) != 0;
    let mut m = cb.method(&name, "()I", ST);
    let (start, end, handler) = (m.new_label(), m.new_label(), m.new_label());
    m.bind(start);
    m.iconst(rng.range(0, 9)).invokestatic(MAIN, &deep, "(I)I");
    m.bind(end);
    m.ireturn();
    m.bind(handler);
    m.pop().iconst(-7).ireturn();
    if catch_here {
        m.try_region(start, end, handler, Some("java/lang/StackOverflowError"));
    }
    m.finish().unwrap();
    name
}

/// Loads of a local that an `istore` or `iinc` overwrites before the
/// loaded value is consumed, feeding arithmetic, stores and a branch.
fn clobbered_loads(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let name = format!("clobber{k}");
    let n = rng.range(20, 300);
    let (c, d) = (rng.range(1, 9), rng.range(-4, 4) as i32);
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(c).istore(0).iconst(1).istore(2);
    counted(&mut m, 1, n, |m| {
        let skip = m.new_label();
        // t = x - (x += d)
        m.iload(0).iinc(0, d).iload(0).isub().istore(3);
        // y = y + (y = t)
        m.iload(2).iload(3).istore(2).iload(2).iadd().istore(2);
        // x = x + (x = i) * c
        m.iload(0)
            .iload(1)
            .istore(0)
            .iload(0)
            .iconst(c)
            .imul()
            .iadd();
        m.iconst(0xffff).iand().istore(0);
        // y = y ^ (y = x + 1)
        m.iload(2)
            .iload(0)
            .iconst(1)
            .iadd()
            .istore(2)
            .iload(2)
            .ixor();
        m.iconst(0xfffff).iand().istore(2);
        // if (t < (t += d)) y++
        m.iload(3).iinc(3, d).iload(3).if_icmp(Cond::Lt, skip);
        m.iinc(2, 1);
        m.bind(skip);
    });
    m.iload(0).iload(2).iadd().iload(3).iadd().ireturn();
    m.finish().unwrap();
    name
}

/// `c ? a : b` values on the operand stack across a merge, with a value
/// loaded before the branch beneath them, feeding arithmetic, a call
/// argument and a return.
fn ternaries(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let (name, pick, add) = (format!("ternary{k}"), format!("pick{k}"), format!("add{k}"));
    let (a, b) = (rng.range(1, 9), rng.range(-9, 9));
    let n = rng.range(20, 300);
    // pick(x, y) = x < y ? x : y - 1
    let mut m = cb.method(&pick, "(II)I", ST);
    let (lt, join) = (m.new_label(), m.new_label());
    m.iload(0).iload(1).if_icmp(Cond::Lt, lt);
    m.iload(1).iconst(1).isub().goto(join);
    m.bind(lt);
    m.iload(0);
    m.bind(join);
    m.ireturn();
    m.finish().unwrap();
    // add(x, y) = x + 2y
    let mut m = cb.method(&add, "(II)I", ST);
    m.iload(0).iload(1).iconst(2).imul().iadd().ireturn();
    m.finish().unwrap();
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(0).istore(2);
    counted(&mut m, 1, n, |m| {
        let (t1, j1, t2, j2) = (m.new_label(), m.new_label(), m.new_label(), m.new_label());
        // s = s + (i % 3 == 0 ? a : i) * b
        m.iload(2);
        m.iload(1).iconst(3).irem().if_(Cond::Eq, t1);
        m.iload(1).goto(j1);
        m.bind(t1);
        m.iconst(a);
        m.bind(j1);
        m.iconst(b).imul().iadd().istore(2);
        // s = add(s, (i & 1) != 0 ? i : a) & 0xffff
        m.iload(2);
        m.iload(1).iconst(1).iand().if_(Cond::Ne, t2);
        m.iconst(a).goto(j2);
        m.bind(t2);
        m.iload(1);
        m.bind(j2);
        m.invokestatic(MAIN, &add, "(II)I");
        m.iconst(0xffff).iand().istore(2);
        // s = s ^ pick(i, a)
        m.iload(2)
            .iload(1)
            .iconst(a)
            .invokestatic(MAIN, &pick, "(II)I");
        m.ixor().istore(2);
    });
    m.iload(2)
        .iconst(a)
        .invokestatic(MAIN, &pick, "(II)I")
        .ireturn();
    m.finish().unwrap();
    name
}

/// `dup`, `swap` and `pop` over loaded, constant and computed values,
/// some of them under a store to the local they were loaded from.
fn stack_shuffles(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let name = format!("shuffle{k}");
    let n = rng.range(20, 300);
    let a = rng.range(1, 9);
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(a).istore(2).iconst(0).istore(3);
    counted(&mut m, 1, n, |m| {
        // s = s + i * i
        m.iload(1).dup().imul().iload(2).iadd().istore(2);
        // t = s - (a - i)
        m.iload(1)
            .iconst(a)
            .swap()
            .isub()
            .iload(2)
            .swap()
            .isub()
            .istore(3);
        // s = (s + 3) ^ ... with the sum kept by `dup` and stored
        m.iload(2)
            .iconst(3)
            .iadd()
            .dup()
            .istore(2)
            .iload(3)
            .ixor()
            .istore(3);
        // dropped loaded and computed values
        m.iload(3).pop().iload(1).iconst(2).imul().pop();
        // t = s + (s += 5)
        m.iload(2).dup().iinc(2, 5).iadd().istore(3);
        // swap s and t through the stack, with and without `swap`
        m.iload(2).iload(3).istore(2).istore(3);
        m.iload(2).iload(3).swap().istore(2).istore(3);
        m.iload(2).iconst(0xffff).iand().istore(2);
        m.iload(3).iconst(0xffff).iand().istore(3);
    });
    m.iload(2).iload(3).isub().ireturn();
    m.finish().unwrap();
    name
}

/// Static and virtual calls whose arguments are all locals or constants,
/// some with a loaded value beneath them, and stores of a call's result
/// straight into a local (one that value was loaded from).
fn call_operands(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let (name, f3) = (format!("callops{k}"), format!("f3{k}"));
    let (c, d) = (rng.range(-5, 9), rng.range(1, 9));
    let n = rng.range(20, 300);
    // f3(x, y, z) = 3x + y - z
    let mut m = cb.method(&f3, "(III)I", ST);
    m.iload(0)
        .iconst(3)
        .imul()
        .iload(1)
        .iadd()
        .iload(2)
        .isub()
        .ireturn();
    m.finish().unwrap();
    let receiver = RECEIVERS[rng.range(0, 4) as usize];
    let mut m = cb.method(&name, "()I", ST);
    m.new_obj(receiver)
        .dup()
        .iconst(d)
        .putfield("e/Base", "k", "I");
    m.astore(0).iconst(0).istore(2).iconst(0).istore(3);
    counted(&mut m, 1, n, |m| {
        m.iload(1)
            .iconst(c)
            .iload(2)
            .invokestatic(MAIN, &f3, "(III)I");
        m.istore(2);
        m.iconst(c)
            .iconst(d)
            .iload(1)
            .invokestatic(MAIN, &f3, "(III)I");
        m.iload(2).iadd().istore(3);
        // s = s + (s = f3(i, s, 1))
        m.iload(2)
            .iload(1)
            .iload(2)
            .iconst(1)
            .invokestatic(MAIN, &f3, "(III)I");
        m.istore(2).iload(2).iadd().iconst(0xfffff).iand().istore(2);
        m.aload(0)
            .iload(1)
            .invokevirtual("e/Base", "v", "(I)I")
            .istore(3);
        m.iload(3).iload(2).ixor().iconst(0xfffff).iand().istore(2);
    });
    m.iload(2).iload(3).iadd().ireturn();
    m.finish().unwrap();
    name
}

/// Handler ranges that start after a load and before its throwing
/// consumer (`idiv`), and end between an array's loads and the `iaload`
/// that throws past them to an outer range; the handlers read the locals
/// the throwing spans would have stored.
fn split_ranges(cb: &mut ClassBuilder, rng: &mut Rng, k: usize) -> String {
    let name = format!("split{k}");
    let (len, q) = (rng.range(1, 12), rng.range(2, 7));
    let n = rng.range(20, 300);
    let mut m = cb.method(&name, "()I", ST);
    m.iconst(len).newarray(ArrayKind::Int).astore(0);
    m.iconst(1).istore(2).iconst(0).istore(4);
    counted(&mut m, 1, n, |m| {
        let (s1, e1, h1, s2, e2, h2, next) = (
            m.new_label(),
            m.new_label(),
            m.new_label(),
            m.new_label(),
            m.new_label(),
            m.new_label(),
            m.new_label(),
        );
        m.bind(s2);
        m.aload(0).iload(1).iconst(len).irem().iload(2).iastore();
        m.iload(2).iload(1).iload(1).iconst(q).irem();
        m.bind(s1);
        m.idiv().iadd().istore(2);
        m.aload(0).iload(1).iconst(len + 1).irem();
        m.bind(e1);
        m.iaload().istore(4);
        m.iload(2).iload(4).iadd().iconst(0xfffff).iand().istore(2);
        m.bind(e2);
        m.goto(next);
        m.bind(h1);
        m.pop().iload(2).iload(4).iadd().istore(2);
        m.goto(next);
        m.bind(h2);
        m.pop().iinc(4, 13);
        m.bind(next);
        m.try_region(s1, e1, h1, Some("java/lang/ArithmeticException"));
        m.try_region(s2, e2, h2, None);
    });
    m.iload(2).iload(4).iadd().ireturn();
    m.finish().unwrap();
    name
}

/// Folds every method entry and exit, with the thread's clock, into a
/// running 64-bit hash (cheaper than hashing a text log in a debug
/// build).
#[derive(Default)]
struct MethodLog(Mutex<(u64, u64)>);

impl MethodLog {
    fn fold(&self, words: [u64; 4]) {
        let mut log = self.0.lock().unwrap();
        log.0 += 1;
        for w in words {
            log.1 = (log.1 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn method_word(method: &MethodView<'_>) -> u64 {
    (method.id.class.index() as u64) << 32 | u64::from(method.id.index)
}

impl VmEventSink for MethodLog {
    fn method_entry(&self, thread: &ThreadInfo, method: MethodView<'_>) {
        self.fold([0, method_word(&method), thread.cycles(), 0]);
    }

    fn method_exit(&self, thread: &ThreadInfo, method: MethodView<'_>, via_exception: bool) {
        self.fold([
            1,
            method_word(&method),
            thread.cycles(),
            u64::from(via_exception),
        ]);
    }
}

struct NeverFires;

impl SampleSink for NeverFires {
    fn sample(&self, _thread: ThreadId, _in_native: bool) {
        unreachable!("a sampler interval of 2^60 cycles is never reached");
    }
}

fn hex(bytes: &[u8]) -> String {
    Digest::of(bytes).to_hex()
}

/// The corpus line of `seed` under `mode`, run plain or `polled`.
fn line(seed: u64, mode: TiersMode, polled: bool) -> String {
    let program = program(seed);
    let mut vm = Vm::new();
    vm.set_tiers_mode(mode);
    let recorder = TraceRecorder::with_default_capacity();
    vm.set_trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    let registry = MetricsRegistry::new();
    vm.set_metrics(registry.clone());
    if polled {
        vm.set_sampler(1 << 60, Arc::new(NeverFires));
    }
    let log = Arc::new(MethodLog::default());
    if program.events {
        vm.set_event_sink(Arc::clone(&log) as Arc<dyn VmEventSink>);
        vm.set_event_mask(
            [EventType::MethodEntry, EventType::MethodExit]
                .into_iter()
                .collect(),
        );
    }
    for class in &program.classes {
        vm.add_classfile(class);
    }
    vm.register_native_library(native_library(), true);
    let outcome = vm.run(MAIN, "main", "()I", vec![]).expect("run");
    let result = match &outcome.main {
        Ok(v) => format!("{}", v.as_int()),
        Err(e) => e.to_string(),
    };
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.dropped(), 0, "seed {seed}: trace buffer too small");
    let events = if program.events {
        let (count, hash) = *log.0.lock().unwrap();
        format!("{count}:{hash:016x}")
    } else {
        "-".to_owned()
    };
    format!(
        "{seed}\t{}\t{result}\t{}\t{}\t{}\t{}\t{events}",
        mode.label(),
        outcome.total_cycles,
        hex(format!("{:?}", outcome.stats).as_bytes()),
        hex(events_csv(&snapshot).as_bytes()),
        hex(format!("{:?}", registry.snapshot()).as_bytes()),
    )
}

/// A digest of every generated class's bytes, in seed order.
fn classes_digest() -> String {
    let mut bytes = Vec::new();
    for seed in 0..PROGRAMS {
        for class in program(seed).classes {
            bytes.extend(codec::encode(&class));
        }
    }
    format!("classes\t{}", hex(&bytes))
}

/// Every (seed, mode) line run `polled` or plain, in file order, on two
/// threads.
fn corpus_lines(polled: bool) -> Vec<String> {
    let jobs: Vec<(u64, TiersMode)> = (0..PROGRAMS)
        .flat_map(|seed| TiersMode::ALL.map(|mode| (seed, mode)))
        .collect();
    let halves: Vec<Vec<String>> = std::thread::scope(|s| {
        let workers: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(2))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(seed, mode)| line(seed, mode, polled))
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    halves.concat()
}

fn check(polled: bool) {
    let mut expected = CORPUS.lines();
    assert_eq!(
        expected.next(),
        Some(classes_digest().as_str()),
        "the generated classes changed: regenerate the corpus only for an intended generator change"
    );
    let expected: Vec<&str> = expected.collect();
    let actual = corpus_lines(polled);
    assert_eq!(expected.len(), actual.len(), "corpus line count");
    let diffs: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, a)| format!("expected {e}\n  actual {a}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} engine-corpus lines differ (polled: {polled}):\n{}",
        diffs.len(),
        actual.len(),
        diffs.join("\n")
    );
}

#[test]
fn engine_corpus_matches_plain_runs() {
    check(false);
}

#[test]
fn engine_corpus_matches_polled_runs() {
    check(true);
}

/// The corpus reaches the paths it exists for: an uncaught
/// `StackOverflowError`, method-event runs, and (over the first seed of
/// each lead shape, under `--tiers full`) OSR, both compiled tiers,
/// deopts, natives and JNI upcalls.
#[test]
fn engine_corpus_covers_every_engine_path() {
    let lines: Vec<&str> = CORPUS.lines().skip(1).collect();
    let column = |i: usize| lines.iter().map(move |l| l.split('\t').nth(i).unwrap());
    assert!(column(2).any(|c| c.starts_with("java/lang/StackOverflowError")));
    assert!(column(7).any(|c| c != "-"), "a method-event run");
    let mut vm_stats = Vec::new();
    for seed in 0..SHAPES.len() as u64 {
        let program = program(seed);
        let mut vm = Vm::new();
        vm.set_tiers_mode(TiersMode::Full);
        for class in &program.classes {
            vm.add_classfile(class);
        }
        vm.register_native_library(native_library(), true);
        vm_stats.push(vm.run(MAIN, "main", "()I", vec![]).unwrap().stats);
    }
    let total = |f: fn(&jvmsim_vm::VmStats) -> u64| vm_stats.iter().map(f).sum::<u64>();
    assert!(total(|s| s.osrs) > 0, "an OSR");
    assert!(total(|s| s.c1_compiles) > 0 && total(|s| s.c2_compiles) > 0);
    assert!(total(|s| s.deopts) > 0, "a deopt");
    assert!(total(|s| s.native_calls) > 0 && total(|s| s.jni_upcalls) > 9);
}

#[test]
#[ignore = "rewrites tests/golden/engine.tsv"]
fn regenerate_engine_corpus() {
    let mut text = classes_digest();
    text.push('\n');
    for line in corpus_lines(false) {
        text.push_str(&line);
        text.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engine.tsv");
    std::fs::write(path, text).unwrap();
}
