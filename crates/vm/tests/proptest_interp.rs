//! Property test: the interpreter computes what the bytecode says.
//!
//! Random integer expression trees are compiled to bytecode with the
//! assembler and evaluated both by a reference Rust evaluator and by the
//! VM; results must agree exactly (including wrapping arithmetic and
//! division-by-zero exceptions). Additionally, JIT state must never change
//! results: interpreted-only and JIT-enabled runs agree. Nor must folding:
//! a run on folded bodies and a polled run of one op per instruction
//! agree on result, `VmStats` and cycles.

use std::sync::Arc;

use jvmsim_classfile::builder::{ClassBuilder, MethodBuilder};
use jvmsim_classfile::MethodFlags;
use jvmsim_vm::events::SampleSink;
use jvmsim_vm::{RunOutcome, ThreadId, TiersMode, Value, Vm};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Arg(u8), // 0..3
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    Rem(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Shl(Box<Expr>, Box<Expr>),
    Shr(Box<Expr>, Box<Expr>),
    UShr(Box<Expr>, Box<Expr>),
    // a * a, through a store to local 3 and two loads of it
    Sq(Box<Expr>),
    // if a >= b { c } else { d }
    IfGe(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Reference semantics; `None` models a thrown ArithmeticException.
fn eval(e: &Expr, args: &[i64; 3]) -> Option<i64> {
    Some(match e {
        Expr::Const(c) => *c,
        Expr::Arg(i) => args[*i as usize % 3],
        Expr::Add(a, b) => eval(a, args)?.wrapping_add(eval(b, args)?),
        Expr::Sub(a, b) => eval(a, args)?.wrapping_sub(eval(b, args)?),
        Expr::Mul(a, b) => eval(a, args)?.wrapping_mul(eval(b, args)?),
        Expr::Div(a, b) => {
            let (x, y) = (eval(a, args)?, eval(b, args)?);
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        Expr::Rem(a, b) => {
            let (x, y) = (eval(a, args)?, eval(b, args)?);
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        Expr::Neg(a) => eval(a, args)?.wrapping_neg(),
        Expr::And(a, b) => eval(a, args)? & eval(b, args)?,
        Expr::Or(a, b) => eval(a, args)? | eval(b, args)?,
        Expr::Xor(a, b) => eval(a, args)? ^ eval(b, args)?,
        Expr::Shl(a, b) => eval(a, args)?.wrapping_shl(eval(b, args)? as u32 & 63),
        Expr::Shr(a, b) => eval(a, args)?.wrapping_shr(eval(b, args)? as u32 & 63),
        Expr::UShr(a, b) => ((eval(a, args)? as u64) >> (eval(b, args)? as u32 & 63)) as i64,
        Expr::Sq(a) => {
            let x = eval(a, args)?;
            x.wrapping_mul(x)
        }
        Expr::IfGe(a, b, c, d) => {
            if eval(a, args)? >= eval(b, args)? {
                eval(c, args)?
            } else {
                eval(d, args)?
            }
        }
    })
}

/// Compile the expression onto the operand stack.
fn compile(e: &Expr, m: &mut MethodBuilder<'_>) {
    match e {
        Expr::Const(c) => {
            m.iconst(*c);
        }
        Expr::Arg(i) => {
            m.iload(u16::from(*i % 3));
        }
        Expr::Add(a, b) => {
            compile(a, m);
            compile(b, m);
            m.iadd();
        }
        Expr::Sub(a, b) => {
            compile(a, m);
            compile(b, m);
            m.isub();
        }
        Expr::Mul(a, b) => {
            compile(a, m);
            compile(b, m);
            m.imul();
        }
        Expr::Div(a, b) => {
            compile(a, m);
            compile(b, m);
            m.idiv();
        }
        Expr::Rem(a, b) => {
            compile(a, m);
            compile(b, m);
            m.irem();
        }
        Expr::Neg(a) => {
            compile(a, m);
            m.ineg();
        }
        Expr::And(a, b) => {
            compile(a, m);
            compile(b, m);
            m.iand();
        }
        Expr::Or(a, b) => {
            compile(a, m);
            compile(b, m);
            m.ior();
        }
        Expr::Xor(a, b) => {
            compile(a, m);
            compile(b, m);
            m.ixor();
        }
        Expr::Shl(a, b) => {
            compile(a, m);
            compile(b, m);
            m.ishl();
        }
        Expr::Shr(a, b) => {
            compile(a, m);
            compile(b, m);
            m.ishr();
        }
        Expr::UShr(a, b) => {
            compile(a, m);
            compile(b, m);
            m.iushr();
        }
        Expr::Sq(a) => {
            compile(a, m);
            m.istore(3).iload(3).iload(3).imul();
        }
        Expr::IfGe(a, b, c, d) => {
            let else_l = m.new_label();
            let end_l = m.new_label();
            compile(a, m);
            compile(b, m);
            m.if_icmp(jvmsim_classfile::Cond::Lt, else_l);
            compile(c, m);
            m.goto(end_l);
            m.bind(else_l);
            compile(d, m);
            m.bind(end_l);
        }
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(Expr::Const),
        (0u8..3).prop_map(Expr::Arg),
    ];
    leaf.prop_recursive(5, 64, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Div(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Rem(a.into(), b.into())),
            inner.clone().prop_map(|a| Expr::Neg(a.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Shl(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Shr(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::UShr(a.into(), b.into())),
            inner.clone().prop_map(|a| Expr::Sq(a.into())),
            (inner.clone(), inner.clone(), inner.clone(), inner)
                .prop_map(|(a, b, c, d)| Expr::IfGe(a.into(), b.into(), c.into(), d.into())),
        ]
    })
}

fn expr_class(expr: &Expr) -> Result<jvmsim_classfile::ClassFile, String> {
    let mut cb = ClassBuilder::new("pt/Expr");
    let mut m = cb.method("eval", "(III)I", MethodFlags::STATIC);
    compile(expr, &mut m);
    m.ireturn();
    m.finish().map_err(|e| e.to_string())?;
    cb.finish().map_err(|e| e.to_string())
}

fn run_in_vm(expr: &Expr, args: [i64; 3], jit: bool) -> Result<i64, String> {
    let class = expr_class(expr)?;
    let mut vm = Vm::new();
    if !jit {
        vm.set_tiers_mode(TiersMode::InterpOnly);
    }
    vm.add_classfile(&class);
    let result = vm
        .call_static(
            "pt/Expr",
            "eval",
            "(III)I",
            args.iter().map(|&a| Value::Int(a)).collect(),
        )
        .map_err(|e| e.to_string())?;
    match result {
        Ok(Value::Int(v)) => Ok(v),
        Ok(other) => Err(format!("non-int result {other:?}")),
        Err(info) => Err(info.class_name),
    }
}

/// One `--tiers full` run of the expression, on folded bodies or, with a
/// sampler that never fires (it charges nothing but makes the
/// interpreter poll), one op per instruction (polled).
fn run_outcome(expr: &Expr, args: [i64; 3], polled: bool) -> RunOutcome {
    struct NeverFires;
    impl SampleSink for NeverFires {
        fn sample(&self, _thread: ThreadId, _in_native: bool) {
            unreachable!("a sampler interval of 2^60 cycles is never reached");
        }
    }
    let class = expr_class(expr).expect("expression compiles");
    let mut vm = Vm::new();
    vm.set_tiers_mode(TiersMode::Full);
    if polled {
        vm.set_sampler(1 << 60, Arc::new(NeverFires));
    }
    vm.add_classfile(&class);
    vm.run(
        "pt/Expr",
        "eval",
        "(III)I",
        args.iter().map(|&a| Value::Int(a)).collect(),
    )
    .expect("links")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn interpreter_matches_reference_semantics(
        expr in arb_expr(),
        a in -100i64..100,
        b in -100i64..100,
        c in -100i64..100,
    ) {
        let args = [a, b, c];
        let expected = eval(&expr, &args);
        let got = run_in_vm(&expr, args, true);
        match (expected, got) {
            (Some(v), Ok(w)) => prop_assert_eq!(v, w),
            (None, Err(class)) => {
                prop_assert_eq!(class, "java/lang/ArithmeticException".to_owned());
            }
            (exp, got) => prop_assert!(false, "mismatch: expected {:?}, got {:?}", exp, got),
        }
    }

    #[test]
    fn jit_never_changes_results(
        expr in arb_expr(),
        a in -100i64..100,
    ) {
        let args = [a, a ^ 3, a.wrapping_mul(7)];
        let jit = run_in_vm(&expr, args, true);
        let interp = run_in_vm(&expr, args, false);
        prop_assert_eq!(jit, interp);
    }

    #[test]
    fn folding_never_changes_results(
        expr in arb_expr(),
        a in -100i64..100,
    ) {
        let args = [a, a ^ 5, a.wrapping_mul(3)];
        let folded = run_outcome(&expr, args, false);
        let polled = run_outcome(&expr, args, true);
        prop_assert_eq!(folded, polled);
    }
}
