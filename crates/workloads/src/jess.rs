//! `jess` — expert-system rule engine (SPEC JVM98 `_202_jess` analog).
//!
//! A forward-chaining matcher: every cycle scans a working memory of facts
//! against a rule set through *very small* match/test methods (the call
//! density that makes JIT inlining matter), firing rules that rewrite
//! facts. Fired rules intern a symbol through a native method — the
//! `String.intern`-ish JDK path — giving jess its modest native share
//! (paper: 5.38 %).

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{ArrayKind, Cond, MethodFlags};
use jvmsim_vm::jni::{JniRetType, ParamStyle};
use jvmsim_vm::{NativeLibrary, Value};

use crate::{Workload, WorkloadProgram};

const CLASS: &str = "spec/jvm98/Jess";
const ST: MethodFlags = MethodFlags::PUBLIC.with(MethodFlags::STATIC);

/// The `jess` workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jess;

fn build_class() -> jvmsim_classfile::ClassFile {
    let mut cb = ClassBuilder::new(CLASS);
    cb.native_method("internSymbol", "(I)I", ST).unwrap();

    // testSlot(value, pattern): tiny predicate.
    {
        let mut m = cb.method("testSlot", "(II)I", ST);
        let t = m.new_label();
        m.iload(0).iconst(7).iand().iload(1).iconst(7).iand();
        m.if_icmp(Cond::Eq, t);
        m.iconst(0).ireturn();
        m.bind(t);
        m.iconst(1).ireturn();
        m.finish().unwrap();
    }

    // matchFact(fact, rule): two slot tests.
    {
        let mut m = cb.method("matchFact", "(II)I", ST);
        let fail = m.new_label();
        m.iload(0).iload(1).invokestatic(CLASS, "testSlot", "(II)I");
        m.if_(Cond::Eq, fail);
        m.iload(0).iconst(3).ishr().iload(1).iconst(3).ishr();
        m.invokestatic(CLASS, "testSlot", "(II)I");
        m.if_(Cond::Eq, fail);
        m.iload(0).iconst(6).ishr().iload(1).iconst(6).ishr();
        m.invokestatic(CLASS, "testSlot", "(II)I");
        m.if_(Cond::Eq, fail);
        m.iconst(1).ireturn();
        m.bind(fail);
        m.iconst(0).ireturn();
        m.finish().unwrap();
    }

    // fire(fact): rewrite + native intern.
    {
        let mut m = cb.method("fire", "(I)I", ST);
        m.iload(0).iconst(2654435761).imul().iconst(16).ishr();
        m.invokestatic(CLASS, "internSymbol", "(I)I");
        m.ireturn();
        m.finish().unwrap();
    }

    // onAgenda(total): JNI upcall target for the native side.
    {
        let mut m = cb.method("onAgenda", "(I)I", ST);
        m.iload(0).iconst(13).ixor().ireturn();
        m.finish().unwrap();
    }

    // main(size) -> checksum
    {
        let mut m = cb.method("main", "(I)I", ST);
        // locals: 0 size, 1 cycles, 2 facts, 3 checksum, 4 c(ycle),
        //         5 r(ule), 6 f(act idx), 7 fact, 8 rule
        let at_least_one = m.new_label();
        let cycle_top = m.new_label();
        let cycle_done = m.new_label();
        let rule_top = m.new_label();
        let rule_done = m.new_label();
        let fact_top = m.new_label();
        let fact_done = m.new_label();
        let no_match = m.new_label();
        let seed_top = m.new_label();
        let seed_done = m.new_label();
        // cycles = max(1, size * 16)
        m.iload(0).iconst(16).imul().istore(1);
        m.iload(1).iconst(1).if_icmp(Cond::Ge, at_least_one);
        m.iconst(1).istore(1);
        m.bind(at_least_one);
        // facts = new int[96], seeded deterministically
        m.iconst(96).newarray(ArrayKind::Int).astore(2);
        m.iconst(0).istore(6);
        m.bind(seed_top);
        m.iload(6).iconst(96).if_icmp(Cond::Ge, seed_done);
        m.aload(2).iload(6);
        m.iload(6).iconst(2166136261).imul().iconst(9).ishr();
        m.iastore();
        m.iinc(6, 1);
        m.goto(seed_top);
        m.bind(seed_done);
        m.iconst(0).istore(3);
        m.iconst(0).istore(4);
        m.bind(cycle_top);
        m.iload(4).iload(1).if_icmp(Cond::Ge, cycle_done);
        // for rule in 0..8
        m.iconst(0).istore(5);
        m.bind(rule_top);
        m.iload(5).iconst(8).if_icmp(Cond::Ge, rule_done);
        // rule pattern derived from cycle + rule
        m.iload(4).iconst(5).imul().iload(5).iadd().istore(8);
        // for fact in 0..96 step 6 (16 probes per rule)
        m.iconst(0).istore(6);
        m.bind(fact_top);
        m.iload(6).iconst(96).if_icmp(Cond::Ge, fact_done);
        m.aload(2).iload(6).iaload().istore(7);
        m.iload(7)
            .iload(8)
            .invokestatic(CLASS, "matchFact", "(II)I");
        m.if_(Cond::Eq, no_match);
        // fire: facts[f] = fire(fact); checksum update
        m.aload(2).iload(6);
        m.iload(7).invokestatic(CLASS, "fire", "(I)I");
        m.iastore();
        m.iload(3)
            .iconst(31)
            .imul()
            .aload(2)
            .iload(6)
            .iaload()
            .iadd()
            .istore(3);
        m.bind(no_match);
        m.iinc(6, 6);
        m.goto(fact_top);
        m.bind(fact_done);
        m.iinc(5, 1);
        m.goto(rule_top);
        m.bind(rule_done);
        m.iinc(4, 1);
        m.goto(cycle_top);
        m.bind(cycle_done);
        m.iload(3).ireturn();
        m.finish().unwrap();
    }
    cb.finish().unwrap()
}

#[derive(Default)]
struct Interned(u64);

fn build_library() -> NativeLibrary {
    let mut lib = NativeLibrary::new("jess");
    lib.register_method(CLASS, "internSymbol", |env, args| {
        // Symbol-table probe: hash + chain walk, then the occasional agenda
        // notification back into Java via JNI.
        // Full symbol-table insert with table growth — the heavyweight
        // JDK intern path.
        env.work(700);
        let sym = args[0].as_int();
        env.vm_local::<Interned>().0 += 1;
        let count = env.vm_local::<Interned>().0;
        let mut out = sym ^ (sym >> 5) ^ 0x5DEECE66;
        if count.is_multiple_of(256) {
            let r = env.call_static(
                JniRetType::Int,
                ParamStyle::VaList,
                CLASS,
                "onAgenda",
                "(I)I",
                &[Value::Int(count as i64)],
            )?;
            out ^= r.as_int();
        }
        Ok(Value::Int(out & 0x7FFF_FFFF))
    });
    lib
}

impl Workload for Jess {
    fn name(&self) -> &'static str {
        "jess"
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
        let (c1, _) = run_reference(&Jess, ProblemSize::S1);
        let (c2, _) = run_reference(&Jess, ProblemSize::S1);
        assert_eq!(c1, c2);
    }

    #[test]
    fn call_dense_with_modest_native_share() {
        let (_, outcome) = run_reference(&Jess, ProblemSize::S100);
        // Rule matching dominates invocation counts.
        assert!(
            outcome.stats.invocations > 20 * outcome.stats.native_calls,
            "jess must be method-call dense: {} invocations, {} native",
            outcome.stats.invocations,
            outcome.stats.native_calls
        );
        assert!(outcome.stats.native_calls > 100);
        let pct = 100.0 * outcome.stats.native_cycles as f64 / outcome.total_cycles as f64;
        assert!(pct > 1.0 && pct < 15.0, "native share {pct:.2}%");
    }
}
