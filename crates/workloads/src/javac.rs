//! `javac` — compiler front-end (SPEC JVM98 `_213_javac` analog).
//!
//! Scans synthetic source text character by character through the JDK's
//! **native** `String.charAt`, interning identifier tokens through a native
//! symbol table, then parses the token stream with a recursive-descent
//! parser and emits code into an array. The per-character native calls give
//! javac the suite's second-highest native call count and a high native
//! share (paper: 16.82 %, 3.7 M native calls over 15 runs); the parser
//! keeps a healthy bytecode method-call density in between.

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{ArrayKind, Cond, MethodFlags};
use jvmsim_vm::jni::{JniRetType, ParamStyle};
use jvmsim_vm::{NativeLibrary, Value};

use crate::{Workload, WorkloadProgram};

const CLASS: &str = "spec/jvm98/Javac";
const ST: MethodFlags = MethodFlags::PUBLIC.with(MethodFlags::STATIC);
const S: &str = "Ljava/lang/String;";

/// The `javac` workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Javac;

#[allow(clippy::too_many_lines)]
fn build_class() -> jvmsim_classfile::ClassFile {
    let mut cb = ClassBuilder::new(CLASS);
    cb.native_method("internIdent", "(II)I", ST).unwrap();
    cb.field("emitted", "I", jvmsim_classfile::FieldFlags::STATIC)
        .unwrap();

    // onError(pos) — JNI upcall target from the native symbol table.
    {
        let mut m = cb.method("onError", "(I)I", ST);
        m.iload(0).iconst(0xBAD).ixor().ireturn();
        m.finish().unwrap();
    }

    // classify(ch) — token kind for one char.
    {
        let mut m = cb.method("classify", "(I)I", ST);
        let ident = m.new_label();
        let digit = m.new_label();
        m.iload(0)
            .iconst(96)
            .iand()
            .iconst(0)
            .if_icmp(Cond::Ne, ident);
        m.iload(0)
            .iconst(15)
            .iand()
            .iconst(9)
            .if_icmp(Cond::Le, digit);
        m.iconst(2).ireturn(); // punct
        m.bind(ident);
        m.iconst(0).ireturn();
        m.bind(digit);
        m.iconst(1).ireturn();
        m.finish().unwrap();
    }

    // scanUnit(src, len, tokens) -> token count: per char, one native
    // charAt + classify; identifiers interned natively.
    {
        let mut m = cb.method("scanUnit", &format!("({S}I[I)I"), ST);
        // locals: 0 src, 1 len, 2 tokens, 3 i, 4 ch, 5 kind, 6 ntok
        let top = m.new_label();
        let done = m.new_label();
        let not_ident = m.new_label();
        let stored = m.new_label();
        m.iconst(0).istore(3);
        m.iconst(0).istore(6);
        let fast_path = m.new_label();
        let have_ch = m.new_label();
        m.bind(top);
        m.iload(3).iload(1).if_icmp(Cond::Ge, done);
        // ch = charAt(src, i) on even positions [native JDK]; odd positions
        // come from the scanner's lookahead buffer (pure bytecode).
        m.iload(3)
            .iconst(1)
            .iand()
            .iconst(1)
            .if_icmp(Cond::Eq, fast_path);
        m.aload(0).iload(3);
        m.invokestatic("java/lang/String", "charAt", &format!("({S}I)I"));
        m.istore(4);
        m.goto(have_ch);
        m.bind(fast_path);
        m.iload(4).iconst(1).iadd().iconst(127).iand().istore(4);
        m.bind(have_ch);
        m.iload(4).invokestatic(CLASS, "classify", "(I)I").istore(5);
        // identifiers (kind 0) intern natively every 8th char
        m.iload(5).iconst(0).if_icmp(Cond::Ne, not_ident);
        m.iload(3)
            .iconst(7)
            .iand()
            .iconst(0)
            .if_icmp(Cond::Ne, not_ident);
        m.aload(2).iload(6).iconst(511).iand();
        m.iload(4)
            .iload(3)
            .invokestatic(CLASS, "internIdent", "(II)I");
        m.iastore();
        m.iinc(6, 1);
        m.goto(stored);
        m.bind(not_ident);
        m.aload(2).iload(6).iconst(511).iand().iload(5).iastore();
        m.iinc(6, 1);
        m.bind(stored);
        m.iinc(3, 1);
        m.goto(top);
        m.bind(done);
        m.iload(6).ireturn();
        m.finish().unwrap();
    }

    // Recursive-descent parser over the token buffer. Expression nesting
    // is depth-bounded, as in a real grammar.
    // parseFactor(tokens, pos, depth) -> value
    {
        let mut m = cb.method("parseFactor", "([III)I", ST);
        let deep = m.new_label();
        let leaf = m.new_label();
        m.iload(2).iconst(0).if_icmp(Cond::Le, leaf);
        // tokens[pos & 511] odd -> nested expression
        m.aload(0).iload(1).iconst(511).iand().iaload();
        m.iconst(1).iand().iconst(1).if_icmp(Cond::Eq, deep);
        m.bind(leaf);
        m.aload(0).iload(1).iconst(511).iand().iaload();
        m.iload(1)
            .iconst(1)
            .iadd()
            .imul()
            .iconst(8388607)
            .iand()
            .ireturn();
        m.bind(deep);
        m.aload(0)
            .iload(1)
            .iconst(1)
            .isub()
            .iload(2)
            .iconst(1)
            .isub();
        m.invokestatic(CLASS, "parseTerm", "([III)I");
        m.iconst(16777213).iand().ireturn();
        m.finish().unwrap();
    }
    // parseTerm(tokens, pos, depth)
    {
        let mut m = cb.method("parseTerm", "([III)I", ST);
        let done = m.new_label();
        m.aload(0)
            .iload(1)
            .iload(2)
            .invokestatic(CLASS, "parseFactor", "([III)I");
        m.istore(3);
        m.iload(1).iconst(2).if_icmp(Cond::Le, done);
        m.iload(3);
        m.aload(0).iload(1).iconst(2).idiv().iload(2);
        m.invokestatic(CLASS, "parseFactor", "([III)I");
        m.iadd().istore(3);
        m.bind(done);
        m.iload(3).ireturn();
        m.finish().unwrap();
    }
    // parseExpr(tokens, ntok) — walk tokens, emit code.
    {
        let mut m = cb.method("parseExpr", "([II)I", ST);
        // locals: 0 tokens, 1 ntok, 2 acc, 3 p
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(2);
        m.iconst(0).istore(3);
        m.bind(top);
        m.iload(3).iload(1).if_icmp(Cond::Ge, done);
        m.iload(2);
        m.aload(0)
            .iload(3)
            .iconst(9)
            .invokestatic(CLASS, "parseTerm", "([III)I");
        m.iadd().iconst(16777215).iand().istore(2);
        // emit: bump the static instruction counter
        m.getstatic(CLASS, "emitted", "I").iconst(3).iadd();
        m.putstatic(CLASS, "emitted", "I");
        m.iinc(3, 4);
        m.goto(top);
        m.bind(done);
        m.iload(2).ireturn();
        m.finish().unwrap();
    }

    // fold(acc, t) — one constant-folding step (small method).
    {
        let mut m = cb.method("fold", "(II)I", ST);
        m.iload(0).iconst(3).imul().iload(1).iadd();
        m.iconst(16777215).iand().ireturn();
        m.finish().unwrap();
    }

    // optimize(tokens, ntok) — constant-folding sweep over the emitted
    // code (pure bytecode; real javac spends most of its time here and in
    // the parser, not in native code).
    {
        let mut m = cb.method("optimize", "([II)I", ST);
        // locals: 0 tokens, 1 ntok, 2 acc, 3 p, 4 q
        let p_top = m.new_label();
        let p_done = m.new_label();
        let q_top = m.new_label();
        let q_done = m.new_label();
        m.iconst(0).istore(2);
        m.iconst(0).istore(3);
        m.bind(p_top);
        m.iload(3).iload(1).if_icmp(Cond::Ge, p_done);
        m.iconst(0).istore(4);
        m.bind(q_top);
        m.iload(4).iconst(24).if_icmp(Cond::Ge, q_done);
        m.iload(2);
        m.aload(0)
            .iload(3)
            .iload(4)
            .iadd()
            .iconst(511)
            .iand()
            .iaload();
        m.invokestatic(CLASS, "fold", "(II)I").istore(2);
        m.iinc(4, 1);
        m.goto(q_top);
        m.bind(q_done);
        m.iinc(3, 1);
        m.goto(p_top);
        m.bind(p_done);
        m.iload(2).ireturn();
        m.finish().unwrap();
    }

    // buildSource(unit) -> String: concat fragments through native String
    // ops (the JDK path real javac exercises heavily).
    {
        let mut m = cb.method("buildSource", &format!("(I){S}"), ST);
        m.iload(0);
        m.invokestatic("java/lang/String", "valueOf", &format!("(I){S}"));
        m.ldc_str("class A { int f(int x) { return x * 31 + seed; } }");
        m.invokestatic("java/lang/String", "concat", &format!("({S}{S}){S}"));
        m.astore(1);
        // pad to ~200 chars: s = concat(s, s) twice
        m.aload(1).aload(1);
        m.invokestatic("java/lang/String", "concat", &format!("({S}{S}){S}"));
        m.astore(1);
        m.aload(1).aload(1);
        m.invokestatic("java/lang/String", "concat", &format!("({S}{S}){S}"));
        m.areturn();
        m.finish().unwrap();
    }

    // main(size) -> checksum
    {
        let mut m = cb.method("main", "(I)I", ST);
        // locals: 0 size, 1 units, 2 tokens, 3 checksum, 4 u, 5 src,
        //         6 len, 7 ntok
        let at_least = m.new_label();
        let top = m.new_label();
        let done = m.new_label();
        // units = max(1, size / 2)
        m.iload(0).iconst(2).idiv().istore(1);
        m.iload(1).iconst(1).if_icmp(Cond::Ge, at_least);
        m.iconst(1).istore(1);
        m.bind(at_least);
        m.iconst(512).newarray(ArrayKind::Int).astore(2);
        m.iconst(0).istore(3);
        m.iconst(0).istore(4);
        m.bind(top);
        m.iload(4).iload(1).if_icmp(Cond::Ge, done);
        m.iload(4)
            .invokestatic(CLASS, "buildSource", &format!("(I){S}"))
            .astore(5);
        m.aload(5)
            .invokestatic("java/lang/String", "length", &format!("({S})I"))
            .istore(6);
        m.aload(5)
            .iload(6)
            .aload(2)
            .invokestatic(CLASS, "scanUnit", &format!("({S}I[I)I"));
        m.istore(7);
        m.iload(3).iconst(31).imul();
        m.aload(2)
            .iload(7)
            .invokestatic(CLASS, "parseExpr", "([II)I");
        m.iadd();
        m.aload(2)
            .iload(7)
            .invokestatic(CLASS, "optimize", "([II)I");
        m.iadd();
        m.aload(2)
            .iload(7)
            .invokestatic(CLASS, "optimize", "([II)I");
        m.iadd().iconst(16777215).iand().istore(3);
        m.iinc(4, 1);
        m.goto(top);
        m.bind(done);
        m.iload(3).getstatic(CLASS, "emitted", "I").iadd().ireturn();
        m.finish().unwrap();
    }
    cb.finish().unwrap()
}

#[derive(Default)]
struct Interned(u64);

fn build_library() -> NativeLibrary {
    let mut lib = NativeLibrary::new("javac");
    lib.register_method(CLASS, "internIdent", |env, args| {
        // Symbol-table insert with rehash — the expensive JDK intern path.
        env.work(900);
        let (ch, pos) = (args[0].as_int(), args[1].as_int());
        let mut sym = (ch * 131) ^ pos;
        env.vm_local::<Interned>().0 += 1;
        let n = env.vm_local::<Interned>().0;
        // Occasional diagnostics callback through the JNI (N2J).
        if n.is_multiple_of(64) {
            let r = env.call_static(
                JniRetType::Int,
                ParamStyle::Array,
                CLASS,
                "onError",
                "(I)I",
                &[Value::Int(pos)],
            )?;
            sym ^= r.as_int();
        }
        Ok(Value::Int(sym & 0xFFFF))
    });
    lib
}

impl Workload for Javac {
    fn name(&self) -> &'static str {
        "javac"
    }

    fn program(&self) -> WorkloadProgram {
        WorkloadProgram {
            classes: vec![build_class()],
            libraries: vec![build_library()],
            entry_class: CLASS.to_owned(),
            entry_method: "main".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_reference, ProblemSize};

    #[test]
    fn deterministic() {
        let (c1, _) = run_reference(&Javac, ProblemSize::S1);
        let (c2, _) = run_reference(&Javac, ProblemSize::S1);
        assert_eq!(c1, c2);
    }

    #[test]
    fn high_native_call_count_and_share() {
        let (_, outcome) = run_reference(&Javac, ProblemSize::S100);
        // Char-level scanning: thousands of native calls.
        assert!(
            outcome.stats.native_calls > 5_000,
            "javac needs per-char natives: {}",
            outcome.stats.native_calls
        );
        assert!(outcome.stats.jni_upcalls > 10);
        let pct = 100.0 * outcome.stats.native_cycles as f64 / outcome.total_cycles as f64;
        assert!(pct > 8.0 && pct < 35.0, "native share {pct:.2}%");
    }
}
