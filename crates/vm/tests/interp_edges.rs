//! Interpreter edge cases: IEEE semantics, shift masking, switch bounds,
//! aliasing arraycopy, nested handlers, inheritance, builtin corners, and
//! folded ops at branch targets, handler boundaries and OSR back-edges.

use std::sync::Arc;

use jvmsim_classfile::builder::{single_method_class, ClassBuilder};
use jvmsim_classfile::{ArrayKind, Cond, FieldFlags, MethodFlags};
use jvmsim_vm::events::SampleSink;
use jvmsim_vm::{builtins, RunOutcome, ThreadId, TiersMode, Value, Vm};

const ST: MethodFlags = MethodFlags::STATIC;

fn eval_i(
    build: impl FnOnce(&mut jvmsim_classfile::builder::MethodBuilder<'_>),
) -> Result<i64, String> {
    let class = single_method_class("e/E", "f", "()I", build).unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    match vm
        .call_static("e/E", "f", "()I", vec![])
        .map_err(|e| e.to_string())?
    {
        Ok(Value::Int(v)) => Ok(v),
        Ok(other) => Err(format!("{other:?}")),
        Err(e) => Err(e.class_name),
    }
}

#[test]
fn fcmp_orders_nan_as_greater() {
    // 0.0 / 0.0 = NaN; fcmp(NaN, 1.0) must push 1 (fcmpg semantics).
    let v = eval_i(|m| {
        m.fconst(0.0).fconst(0.0).fdiv(); // NaN
        m.fconst(1.0).fcmp().ireturn();
    })
    .unwrap();
    assert_eq!(v, 1);
    // And symmetric: fcmp(1.0, NaN) is also 1.
    let v = eval_i(|m| {
        m.fconst(1.0);
        m.fconst(0.0).fconst(0.0).fdiv();
        m.fcmp().ireturn();
    })
    .unwrap();
    assert_eq!(v, 1);
}

#[test]
fn f2i_saturates_and_nan_is_zero() {
    let v = eval_i(|m| {
        m.fconst(1.0e300).f2i().ireturn();
    })
    .unwrap();
    assert_eq!(v, i64::MAX);
    let v = eval_i(|m| {
        m.fconst(-1.0e300).f2i().ireturn();
    })
    .unwrap();
    assert_eq!(v, i64::MIN);
    let v = eval_i(|m| {
        m.fconst(0.0).fconst(0.0).fdiv().f2i().ireturn();
    })
    .unwrap();
    assert_eq!(v, 0);
}

#[test]
fn shifts_mask_to_63_bits() {
    let v = eval_i(|m| {
        m.iconst(1).iconst(64).ishl().ireturn(); // 64 & 63 == 0
    })
    .unwrap();
    assert_eq!(v, 1);
    let v = eval_i(|m| {
        m.iconst(-8).iconst(1).iushr().ireturn();
    })
    .unwrap();
    assert_eq!(v, ((-8i64) as u64 >> 1) as i64);
    let v = eval_i(|m| {
        m.iconst(-8).iconst(1).ishr().ireturn();
    })
    .unwrap();
    assert_eq!(v, -4);
}

#[test]
fn integer_overflow_wraps() {
    let v = eval_i(|m| {
        m.iconst(i64::MAX).iconst(1).iadd().ireturn();
    })
    .unwrap();
    assert_eq!(v, i64::MIN);
    let v = eval_i(|m| {
        m.iconst(i64::MIN).iconst(-1).idiv().ireturn();
    })
    .unwrap();
    assert_eq!(v, i64::MIN, "MIN / -1 wraps instead of trapping");
}

#[test]
fn tableswitch_bounds() {
    let class = single_method_class("e/Sw", "pick", "(I)I", |m| {
        let c0 = m.new_label();
        let c1 = m.new_label();
        let def = m.new_label();
        m.iload(0).tableswitch(10, &[c0, c1], def);
        m.bind(c0);
        m.iconst(100).ireturn();
        m.bind(c1);
        m.iconst(101).ireturn();
        m.bind(def);
        m.iconst(-1).ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let pick = |vm: &mut Vm, k: i64| {
        vm.call_static("e/Sw", "pick", "(I)I", vec![Value::Int(k)])
            .unwrap()
            .unwrap()
    };
    assert_eq!(pick(&mut vm, 10), Value::Int(100));
    assert_eq!(pick(&mut vm, 11), Value::Int(101));
    assert_eq!(pick(&mut vm, 9), Value::Int(-1));
    assert_eq!(pick(&mut vm, 12), Value::Int(-1));
    assert_eq!(pick(&mut vm, i64::MIN), Value::Int(-1));
    assert_eq!(pick(&mut vm, i64::MAX), Value::Int(-1));
}

#[test]
fn nested_exception_handlers_inner_wins() {
    let class = single_method_class("e/N", "f", "()I", |m| {
        let outer_start = m.new_label();
        let outer_end = m.new_label();
        let outer_h = m.new_label();
        let inner_start = m.new_label();
        let inner_end = m.new_label();
        let inner_h = m.new_label();
        m.bind(outer_start);
        m.bind(inner_start);
        m.iconst(1).iconst(0).idiv().ireturn();
        m.bind(inner_end);
        m.bind(outer_end);
        m.bind(inner_h);
        m.pop().iconst(1).ireturn(); // inner handler
        m.bind(outer_h);
        m.pop().iconst(2).ireturn(); // outer handler
                                     // Inner region listed first: the table is searched in order.
        m.try_region(
            inner_start,
            inner_end,
            inner_h,
            Some("java/lang/ArithmeticException"),
        );
        m.try_region(outer_start, outer_end, outer_h, None);
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let r = vm.call_static("e/N", "f", "()I", vec![]).unwrap().unwrap();
    assert_eq!(r, Value::Int(1), "inner (first-listed) handler must win");
}

#[test]
fn handler_rethrow_reaches_outer_handler_in_caller() {
    // callee: catch-all that rethrows; caller catches.
    let mut cb = ClassBuilder::new("e/R");
    let mut m = cb.method("callee", "()V", ST);
    let s = m.new_label();
    let e = m.new_label();
    let h = m.new_label();
    m.bind(s);
    m.iconst(3).iconst(0).irem().pop().ret_void();
    m.bind(e);
    m.bind(h);
    m.athrow();
    m.try_region(s, e, h, None);
    m.finish().unwrap();
    let mut m = cb.method("caller", "()I", ST);
    let s = m.new_label();
    let e = m.new_label();
    let h = m.new_label();
    m.bind(s);
    m.invokestatic("e/R", "callee", "()V");
    m.iconst(0).ireturn();
    m.bind(e);
    m.bind(h);
    m.pop().iconst(5).ireturn();
    m.try_region(s, e, h, Some("java/lang/ArithmeticException"));
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    let r = vm
        .call_static("e/R", "caller", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(5));
}

#[test]
fn inherited_methods_resolve_through_super() {
    let mut a = ClassBuilder::new("e/Base");
    let mut m = a.method("answer", "()I", MethodFlags::PUBLIC);
    m.iconst(42).ireturn();
    m.finish().unwrap();
    let a = a.finish().unwrap();
    let b = ClassBuilder::new("e/Derived");
    let mut b = b;
    b.extends("e/Base");
    let b = b.finish().unwrap();
    let main = single_method_class("e/M", "f", "()I", |m| {
        m.new_obj("e/Derived")
            .invokevirtual("e/Derived", "answer", "()I");
        m.ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&a);
    vm.add_classfile(&b);
    vm.add_classfile(&main);
    let r = vm.call_static("e/M", "f", "()I", vec![]).unwrap().unwrap();
    assert_eq!(r, Value::Int(42));
}

#[test]
fn field_shadowing_resolves_to_most_derived() {
    let mut a = ClassBuilder::new("e/FA");
    a.field("v", "I", FieldFlags::PUBLIC).unwrap();
    let a = a.finish().unwrap();
    let mut b = ClassBuilder::new("e/FB");
    b.extends("e/FA");
    b.field("v", "I", FieldFlags::PUBLIC).unwrap(); // shadows
    let b = b.finish().unwrap();
    let main = single_method_class("e/FM", "f", "()I", |m| {
        m.new_obj("e/FB").astore(0);
        m.aload(0).iconst(9).putfield("e/FB", "v", "I");
        m.aload(0).getfield("e/FB", "v", "I").ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&a);
    vm.add_classfile(&b);
    vm.add_classfile(&main);
    let r = vm.call_static("e/FM", "f", "()I", vec![]).unwrap().unwrap();
    assert_eq!(r, Value::Int(9));
}

#[test]
fn clinit_exception_is_a_linkage_error() {
    let mut cb = ClassBuilder::new("e/BadInit");
    let mut m = cb.method("<clinit>", "()V", ST);
    m.iconst(1).iconst(0).idiv().pop().ret_void();
    m.finish().unwrap();
    let mut m = cb.method("f", "()I", ST);
    m.iconst(1).ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    let err = vm.call_static("e/BadInit", "f", "()I", vec![]).unwrap_err();
    assert!(err.to_string().contains("<clinit>"), "{err}");
}

#[test]
fn aliasing_arraycopy_behaves_like_memmove() {
    let class = single_method_class("e/AC", "f", "()I", |m| {
        // a = [0,1,2,3,4,5,6,7]; arraycopy(a,0,a,1,6); return a[1]*10+a[7]
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(8).newarray(ArrayKind::Int).astore(0);
        m.iconst(0).istore(1);
        m.bind(top);
        m.iload(1).iconst(8).if_icmp(Cond::Ge, done);
        m.aload(0).iload(1).iload(1).iastore();
        m.iinc(1, 1);
        m.goto(top);
        m.bind(done);
        m.aload(0).iconst(0).aload(0).iconst(1).iconst(6);
        m.invokestatic("java/lang/System", "arraycopy", "([II[III)V");
        m.aload(0).iconst(1).iaload().iconst(10).imul();
        m.aload(0).iconst(7).iaload().iadd();
        m.ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    builtins::install(&mut vm);
    vm.add_classfile(&class);
    let r = vm.call_static("e/AC", "f", "()I", vec![]).unwrap().unwrap();
    // Copy-out-then-in semantics: a[1] = old a[0] = 0; a[7] untouched = 7.
    assert_eq!(r, Value::Int(7));
}

#[test]
fn string_builtin_corner_cases() {
    let class = single_method_class("e/S", "f", "()I", |m| {
        // substring out of range must throw; catch and return charAt of an
        // interned concat instead.
        let s = m.new_label();
        let e = m.new_label();
        let h = m.new_label();
        m.bind(s);
        m.ldc_str("abc").iconst(1).iconst(99);
        m.invokestatic(
            "java/lang/String",
            "substring",
            "(Ljava/lang/String;II)Ljava/lang/String;",
        );
        m.pop().iconst(0).ireturn();
        m.bind(e);
        m.bind(h);
        m.pop();
        m.ldc_str("ab").ldc_str("cd");
        m.invokestatic(
            "java/lang/String",
            "concat",
            "(Ljava/lang/String;Ljava/lang/String;)Ljava/lang/String;",
        );
        m.iconst(2);
        m.invokestatic("java/lang/String", "charAt", "(Ljava/lang/String;I)I");
        m.ireturn();
        m.try_region(s, e, h, None);
    })
    .unwrap();
    let mut vm = Vm::new();
    builtins::install(&mut vm);
    vm.add_classfile(&class);
    let r = vm.call_static("e/S", "f", "()I", vec![]).unwrap().unwrap();
    assert_eq!(r, Value::Int(i64::from(b'c')));
}

#[test]
fn equals_and_hashcode_builtins() {
    let class = single_method_class("e/Eq", "f", "()I", |m| {
        // equals("x","x")*2 + equals("x","y") + (hash("")==0)
        m.ldc_str("x").ldc_str("x");
        m.invokestatic(
            "java/lang/String",
            "equals",
            "(Ljava/lang/String;Ljava/lang/String;)I",
        );
        m.iconst(2).imul();
        m.ldc_str("x").ldc_str("y");
        m.invokestatic(
            "java/lang/String",
            "equals",
            "(Ljava/lang/String;Ljava/lang/String;)I",
        );
        m.iadd();
        m.ldc_str("");
        m.invokestatic("java/lang/String", "hashCode", "(Ljava/lang/String;)I");
        m.iadd();
        m.ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    builtins::install(&mut vm);
    vm.add_classfile(&class);
    let r = vm.call_static("e/Eq", "f", "()I", vec![]).unwrap().unwrap();
    assert_eq!(r, Value::Int(2));
}

#[test]
fn iinc_wraps_like_iadd() {
    let class = single_method_class("e/W", "f", "(I)I", |m| {
        m.iinc(0, i32::MAX);
        m.iinc(0, i32::MAX);
        m.iload(0).ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let r = vm
        .call_static("e/W", "f", "(I)I", vec![Value::Int(i64::MAX - 100)])
        .unwrap()
        .unwrap();
    assert_eq!(
        r,
        Value::Int((i64::MAX - 100).wrapping_add(2 * i64::from(i32::MAX)))
    );
}

/// Run `class.method(args)` twice in fresh VMs: once plain, where the
/// interpreter runs folded bodies, and once with a sampler whose interval
/// is never reached, which charges nothing but makes the interpreter
/// poll and so run one op per instruction (polled). Returns both
/// outcomes.
fn folded_and_polled(
    class: &jvmsim_classfile::ClassFile,
    method: &str,
    descriptor: &str,
    args: &[i64],
    tiers: TiersMode,
) -> (RunOutcome, RunOutcome) {
    struct NeverFires;
    impl SampleSink for NeverFires {
        fn sample(&self, _thread: ThreadId, _in_native: bool) {
            unreachable!("a sampler interval of 2^60 cycles is never reached");
        }
    }
    let run = |polled: bool| {
        let mut vm = Vm::new();
        vm.set_tiers_mode(tiers);
        if polled {
            vm.set_sampler(1 << 60, Arc::new(NeverFires));
        }
        vm.add_classfile(class);
        let args = args.iter().map(|&a| Value::Int(a)).collect();
        vm.run(class.name(), method, descriptor, args).unwrap()
    };
    (run(false), run(true))
}

/// `f(a, b)`: `a < b ? 1 : 0`, where the second `iload` of the
/// `iload iload if_icmp` span is also reached by a jump. The jump blocks
/// the three-op fusion; both dispatch paths agree exactly.
#[test]
fn a_branch_target_inside_a_span_blocks_fusion_and_counts_alike() {
    let class = single_method_class("e/T", "f", "(II)I", |m| {
        let inside = m.new_label();
        let less = m.new_label();
        let first = m.new_label();
        m.iload(0).iconst(0).if_icmp(Cond::Ge, first);
        // A negative `a` enters the span at its middle op.
        m.iconst(-1);
        m.goto(inside);
        m.bind(first);
        m.iload(0);
        m.bind(inside);
        m.iload(1).if_icmp(Cond::Lt, less);
        m.iconst(0).ireturn();
        m.bind(less);
        m.iconst(1).ireturn();
    })
    .unwrap();
    for (a, b, want) in [(1, 2, 1), (3, 2, 0), (-5, 0, 1), (-5, -1, 0)] {
        let (folded, polled) = folded_and_polled(&class, "f", "(II)I", &[a, b], TiersMode::Full);
        assert_eq!(folded.main, Ok(Value::Int(want)), "f({a}, {b})");
        assert_eq!(folded, polled, "f({a}, {b})");
    }
}

/// `f(i, null_array)`: loads `array[i]` of a 2-element array (or of a
/// null local) with a folded `aload iload iaload`, inside a handler range
/// that starts at the `iaload`. Only a folded op that moves `pc` to its
/// last instruction before throwing lands in the handler.
#[test]
fn a_folded_array_load_throws_into_a_handler_starting_at_its_last_instruction() {
    // (caught class, index, null array?, result)
    let cases = [
        ("java/lang/ArrayIndexOutOfBoundsException", 1, 0, 0),
        ("java/lang/ArrayIndexOutOfBoundsException", 2, 0, -1),
        ("java/lang/ArrayIndexOutOfBoundsException", -1, 0, -1),
        ("java/lang/NullPointerException", 0, 1, -1),
    ];
    for (catch, i, null_array, want) in cases {
        let class = single_method_class("e/A", "f", "(II)I", |m| {
            let start = m.new_label();
            let end = m.new_label();
            let handler = m.new_label();
            let fill = m.new_label();
            let load = m.new_label();
            m.iload(1).iconst(0).if_icmp(Cond::Eq, fill);
            m.aconst_null().astore(2).goto(load);
            m.bind(fill);
            m.iconst(2).newarray(ArrayKind::Int).astore(2);
            m.bind(load);
            m.aload(2).iload(0);
            m.bind(start);
            m.iaload().ireturn();
            m.bind(end);
            m.bind(handler);
            m.pop().iconst(-1).ireturn();
            m.try_region(start, end, handler, Some(catch));
        })
        .unwrap();
        let (folded, polled) = folded_and_polled(
            &class,
            "f",
            "(II)I",
            &[i, null_array],
            TiersMode::InterpOnly,
        );
        assert_eq!(
            folded.main,
            Ok(Value::Int(want)),
            "{catch}: f({i}, {null_array})"
        );
        assert_eq!(folded, polled, "{catch}: f({i}, {null_array})");
    }
}

/// Counting loops whose back-edge is a folded op (`iload iload if_icmp`
/// at the bottom, or `iinc goto` behind a folded loop test at the top)
/// OSR at the same back-edge count, with the same per-tier cycles, as the
/// same loops run one op per instruction (polled).
#[test]
fn a_folded_back_edge_osrs_at_the_same_count() {
    let bottom_test = single_method_class("e/L", "f", "(I)I", |m| {
        let top = m.new_label();
        m.iconst(0).istore(1);
        m.bind(top);
        m.iinc(1, 1);
        m.iload(1).iload(0).if_icmp(Cond::Lt, top);
        m.iload(1).ireturn();
    })
    .unwrap();
    let top_test = single_method_class("e/L", "f", "(I)I", |m| {
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(1);
        m.bind(top);
        m.iload(1).iload(0).if_icmp(Cond::Ge, done);
        m.iinc(1, 1).goto(top);
        m.bind(done);
        m.iload(1).ireturn();
    })
    .unwrap();
    for class in [bottom_test, top_test] {
        let (folded, polled) = folded_and_polled(&class, "f", "(I)I", &[500], TiersMode::Full);
        assert_eq!(folded.main, Ok(Value::Int(500)));
        assert_eq!(folded.stats.osrs, 2, "{:?}", folded.stats);
        assert_eq!(folded, polled);
    }
}
