//! Behavioural tests for the simulated JVM: execution semantics, exception
//! handling, native linkage (with prefix retry), JNI upcalls and
//! interception, events, JIT promotion, threads and class loading.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jvmsim_classfile::builder::{single_method_class, ClassBuilder};
use jvmsim_classfile::{Cond, FieldFlags, MethodFlags};
use jvmsim_vm::jni::{JniRetType, NativeLibrary, ParamStyle};
use jvmsim_vm::{builtins, EventMask, MethodView, ThreadInfo, Value, Vm, VmEventSink};

const ST: MethodFlags = MethodFlags::STATIC;

fn run_expr(build: impl FnOnce(&mut jvmsim_classfile::builder::MethodBuilder<'_>)) -> Value {
    let class = single_method_class("t/Expr", "eval", "()I", build).unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    vm.call_static("t/Expr", "eval", "()I", vec![])
        .unwrap()
        .unwrap()
}

#[test]
fn arithmetic_and_control_flow() {
    // sum of 1..=10 via a loop
    let class = single_method_class("t/Sum", "sum", "(I)I", |m| {
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(1);
        m.bind(top);
        m.iload(0).if_(Cond::Le, done);
        m.iload(1).iload(0).iadd().istore(1);
        m.iinc(0, -1).goto(top);
        m.bind(done);
        m.iload(1).ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let r = vm
        .call_static("t/Sum", "sum", "(I)I", vec![Value::Int(10)])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(55));
}

#[test]
fn division_by_zero_throws_and_is_catchable() {
    let class = single_method_class("t/Div", "f", "()I", |m| {
        let start = m.new_label();
        let end = m.new_label();
        let handler = m.new_label();
        m.bind(start);
        m.iconst(1).iconst(0).idiv().ireturn();
        m.bind(end);
        m.bind(handler);
        m.pop(); // discard exception
        m.iconst(-7).ireturn();
        m.try_region(start, end, handler, Some("java/lang/ArithmeticException"));
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let r = vm
        .call_static("t/Div", "f", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(-7));
}

#[test]
fn uncaught_exception_escapes_with_class_and_message() {
    let class = single_method_class("t/Crash", "f", "()I", |m| {
        m.iconst(1).iconst(0).irem().ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let err = vm
        .call_static("t/Crash", "f", "()I", vec![])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/ArithmeticException");
    assert_eq!(err.message.as_deref(), Some("/ by zero"));
}

#[test]
fn catch_matches_superclasses_but_not_siblings() {
    // Throws NullPointerException; handler catches RuntimeException.
    let class = single_method_class("t/Super", "f", "()I", |m| {
        let start = m.new_label();
        let end = m.new_label();
        let handler = m.new_label();
        m.bind(start);
        m.aconst_null().invokevirtual("t/Super", "whatever", "()V");
        m.iconst(0).ireturn();
        m.bind(end);
        m.bind(handler);
        m.pop().iconst(42).ireturn();
        m.try_region(start, end, handler, Some("java/lang/RuntimeException"));
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let r = vm
        .call_static("t/Super", "f", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(42));

    // Same throw with an ArithmeticException handler: escapes.
    let class = single_method_class("t/Sib", "f", "()I", |m| {
        let start = m.new_label();
        let end = m.new_label();
        let handler = m.new_label();
        m.bind(start);
        m.aconst_null().invokevirtual("t/Sib", "whatever", "()V");
        m.iconst(0).ireturn();
        m.bind(end);
        m.bind(handler);
        m.pop().iconst(42).ireturn();
        m.try_region(start, end, handler, Some("java/lang/ArithmeticException"));
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let err = vm
        .call_static("t/Sib", "f", "()I", vec![])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/NullPointerException");
}

#[test]
fn finally_style_catch_all_runs_on_throw() {
    // Counter static field incremented in a catch-all that rethrows.
    let mut cb = ClassBuilder::new("t/Fin");
    cb.field("cleanups", "I", FieldFlags::STATIC).unwrap();
    let mut m = cb.method("f", "()V", ST);
    let start = m.new_label();
    let end = m.new_label();
    let handler = m.new_label();
    m.bind(start);
    m.iconst(1).iconst(0).idiv().pop().ret_void();
    m.bind(end);
    m.bind(handler);
    m.getstatic("t/Fin", "cleanups", "I").iconst(1).iadd();
    m.putstatic("t/Fin", "cleanups", "I");
    m.athrow();
    m.try_region(start, end, handler, None);
    m.finish().unwrap();
    let mut mg = cb.method("cleanups", "()I", ST);
    mg.getstatic("t/Fin", "cleanups", "I").ireturn();
    mg.finish().unwrap();
    let class = cb.finish().unwrap();

    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let err = vm
        .call_static("t/Fin", "f", "()V", vec![])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/ArithmeticException");
    let count = vm
        .call_static("t/Fin", "cleanups", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(count, Value::Int(1));
}

/// `t/A { int v; int get() { return v; } }` (3 insns in `get`) and
/// `t/B extends t/A { int get() { return v + 100; } }` (5 insns).
fn a_and_b_classes() -> [jvmsim_classfile::ClassFile; 2] {
    let mut a = ClassBuilder::new("t/A");
    a.field("v", "I", FieldFlags::PUBLIC).unwrap();
    let mut m = a.method("get", "()I", MethodFlags::PUBLIC);
    m.aload(0).getfield("t/A", "v", "I").ireturn();
    m.finish().unwrap();
    let a = a.finish().unwrap();

    let mut b = ClassBuilder::new("t/B");
    b.extends("t/A");
    let mut m = b.method("get", "()I", MethodFlags::PUBLIC);
    m.aload(0)
        .getfield("t/A", "v", "I")
        .iconst(100)
        .iadd()
        .ireturn();
    m.finish().unwrap();
    let b = b.finish().unwrap();
    [a, b]
}

#[test]
fn objects_fields_and_virtual_dispatch() {
    let [a, b] = a_and_b_classes();
    let main = single_method_class("t/Main", "main", "()I", |m| {
        // new A(v=1).get() + new B(v=2).get()  => 1 + 102 = 103
        m.new_obj("t/A").astore(0);
        m.aload(0).iconst(1).putfield("t/A", "v", "I");
        m.new_obj("t/B").astore(1);
        m.aload(1).iconst(2).putfield("t/A", "v", "I");
        m.aload(0).invokevirtual("t/A", "get", "()I");
        m.aload(1).invokevirtual("t/A", "get", "()I");
        m.iadd().ireturn();
    })
    .unwrap();

    let mut vm = Vm::new();
    vm.add_classfile(&a);
    vm.add_classfile(&b);
    vm.add_classfile(&main);
    let r = vm
        .call_static("t/Main", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(103));
}

/// One `invokevirtual` site sees receivers A, B, A, B: its monomorphic
/// inline cache misses and re-fills on every call, and each re-fill must
/// resolve the receiver's own override.
#[test]
fn polymorphic_call_site_refills_its_inline_cache() {
    let [a, b] = a_and_b_classes();
    let main = single_method_class("t/Poly", "main", "()I", |m| {
        let top = m.new_label();
        let use_b = m.new_label();
        let call = m.new_label();
        let done = m.new_label();
        // 14-insn prologue: a = new A(v=1), b = new B(v=2), sum = i = 0.
        m.new_obj("t/A").astore(0);
        m.aload(0).iconst(1).putfield("t/A", "v", "I");
        m.new_obj("t/B").astore(1);
        m.aload(1).iconst(2).putfield("t/A", "v", "I");
        m.iconst(0).istore(2);
        m.iconst(0).istore(3);
        // for (i = 0; i < 4; i++) sum += (i odd ? b : a).get();
        // 15 insns per A iteration, 14 per B iteration, 5 on exit.
        m.bind(top);
        m.iload(3).iconst(4).if_icmp(Cond::Ge, done);
        m.iload(3).iconst(1).iand().if_(Cond::Ne, use_b);
        m.aload(0).goto(call);
        m.bind(use_b);
        m.aload(1);
        m.bind(call);
        m.invokevirtual("t/A", "get", "()I");
        m.iload(2).iadd().istore(2);
        m.iinc(3, 1).goto(top);
        m.bind(done);
        m.iload(2).ireturn();
    })
    .unwrap();

    let mut vm = Vm::new();
    vm.add_classfile(&a);
    vm.add_classfile(&b);
    vm.add_classfile(&main);
    let r = vm
        .call_static("t/Poly", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    // A.get() = 1, B.get() = 2 + 100.
    assert_eq!(r, Value::Int(1 + 102 + 1 + 102));
    let s = vm.stats();
    // main plus four calls through the one site.
    assert_eq!(s.invocations, 5);
    // main: 14 + 2 x 15 + 2 x 14 + 5 = 77; A.get 2 x 3; B.get 2 x 5.
    assert_eq!(s.insns, 77 + 2 * 3 + 2 * 5);
    // Nothing reaches a tier threshold: 8 cycles per insn plus the
    // 30-cycle interpreted call overhead per invocation.
    assert_eq!(s.interp_cycles, 93 * 8 + 5 * 30);
    assert_eq!(s.c1_cycles + s.c2_cycles, 0);
}

#[test]
fn arrays_bounds_and_kinds() {
    let r = run_expr(|m| {
        m.iconst(5)
            .newarray(jvmsim_classfile::ArrayKind::Int)
            .astore(0);
        m.aload(0).iconst(2).iconst(77).iastore();
        m.aload(0).iconst(2).iaload();
        m.aload(0).arraylength().iadd().ireturn();
    });
    assert_eq!(r, Value::Int(82));

    // Out of bounds
    let class = single_method_class("t/Oob", "f", "()I", |m| {
        m.iconst(2)
            .newarray(jvmsim_classfile::ArrayKind::Int)
            .astore(0);
        m.aload(0).iconst(5).iaload().ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let err = vm
        .call_static("t/Oob", "f", "()I", vec![])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/ArrayIndexOutOfBoundsException");

    // Negative size
    let class = single_method_class("t/Neg", "f", "()I", |m| {
        m.iconst(-3)
            .newarray(jvmsim_classfile::ArrayKind::Int)
            .arraylength()
            .ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    let err = vm
        .call_static("t/Neg", "f", "()I", vec![])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/NegativeArraySizeException");
}

#[test]
fn clinit_runs_once_before_first_use() {
    let mut cb = ClassBuilder::new("t/Init");
    cb.field("inits", "I", FieldFlags::STATIC).unwrap();
    let mut m = cb.method("<clinit>", "()V", ST);
    m.getstatic("t/Init", "inits", "I").iconst(1).iadd();
    m.putstatic("t/Init", "inits", "I").ret_void();
    m.finish().unwrap();
    let mut m = cb.method("get", "()I", ST);
    m.getstatic("t/Init", "inits", "I").ireturn();
    m.finish().unwrap();
    let class = cb.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    assert_eq!(
        vm.call_static("t/Init", "get", "()I", vec![])
            .unwrap()
            .unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        vm.call_static("t/Init", "get", "()I", vec![])
            .unwrap()
            .unwrap(),
        Value::Int(1),
        "clinit must not run twice"
    );
}

#[test]
fn deep_recursion_throws_stack_overflow() {
    let class = single_method_class("t/Rec", "f", "(I)I", |m| {
        m.iload(0).iconst(1).iadd();
        m.invokestatic("t/Rec", "f", "(I)I").ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.set_max_call_depth(200);
    vm.add_classfile(&class);
    let err = vm
        .call_static("t/Rec", "f", "(I)I", vec![Value::Int(0)])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/StackOverflowError");
}

// ---------------------------------------------------------------- natives

fn native_lib() -> NativeLibrary {
    let mut lib = NativeLibrary::new("testnat");
    lib.register_method("t/Nat", "twice", |env, args| {
        env.work(100);
        Ok(Value::Int(args[0].as_int() * 2))
    });
    lib
}

#[test]
fn native_method_resolution_and_execution() {
    let mut cb = ClassBuilder::new("t/Nat");
    cb.native_method("twice", "(I)I", ST).unwrap();
    let mut m = cb.method("main", "()I", ST);
    m.iconst(21)
        .invokestatic("t/Nat", "twice", "(I)I")
        .ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(native_lib(), true);
    let r = vm
        .call_static("t/Nat", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(42));
    assert_eq!(vm.stats().native_calls, 1);
    assert!(vm.stats().native_cycles >= 100);
}

#[test]
fn missing_native_library_throws_unsatisfied_link() {
    let mut cb = ClassBuilder::new("t/Nat");
    cb.native_method("twice", "(I)I", ST).unwrap();
    let mut m = cb.method("main", "()I", ST);
    m.iconst(21)
        .invokestatic("t/Nat", "twice", "(I)I")
        .ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    // No library registered.
    let err = vm
        .call_static("t/Nat", "main", "()I", vec![])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/UnsatisfiedLinkError");
    assert!(err.message.unwrap().contains("Java_t_Nat_twice"));
}

#[test]
fn native_prefix_retry_binds_renamed_method() {
    // The instrumented world: the native method was renamed to
    // $$ipa$$twice but the library still exports Java_t_Nat_twice.
    let mut cb = ClassBuilder::new("t/Nat");
    cb.native_method("$$ipa$$twice", "(I)I", ST).unwrap();
    let mut m = cb.method("main", "()I", ST);
    m.iconst(21)
        .invokestatic("t/Nat", "$$ipa$$twice", "(I)I")
        .ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(native_lib(), true);

    // Without the prefix registered: link error.
    let err = vm
        .call_static("t/Nat", "main", "()I", vec![])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/UnsatisfiedLinkError");

    // With the prefix registered: resolution retries without the prefix.
    let mut vm = Vm::new();
    let mut cb = ClassBuilder::new("t/Nat");
    cb.native_method("$$ipa$$twice", "(I)I", ST).unwrap();
    let mut m = cb.method("main", "()I", ST);
    m.iconst(21)
        .invokestatic("t/Nat", "$$ipa$$twice", "(I)I")
        .ireturn();
    m.finish().unwrap();
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(native_lib(), true);
    vm.register_native_prefix("$$ipa$$");
    let r = vm
        .call_static("t/Nat", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(42));
}

#[test]
fn native_exception_propagates_to_java_handler() {
    let mut lib = NativeLibrary::new("thrower");
    lib.register_method("t/T", "boom", |env, _| {
        Err(env.throw_new("java/lang/IllegalArgumentException", "from native"))
    });
    let mut cb = ClassBuilder::new("t/T");
    cb.native_method("boom", "()V", ST).unwrap();
    let mut m = cb.method("main", "()I", ST);
    let start = m.new_label();
    let end = m.new_label();
    let handler = m.new_label();
    m.bind(start);
    m.invokestatic("t/T", "boom", "()V");
    m.iconst(0).ireturn();
    m.bind(end);
    m.bind(handler);
    m.pop().iconst(9).ireturn();
    m.try_region(
        start,
        end,
        handler,
        Some("java/lang/IllegalArgumentException"),
    );
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(lib, true);
    let r = vm
        .call_static("t/T", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(9));
}

// ------------------------------------------------------------ JNI upcalls

#[test]
fn native_code_calls_java_through_jni_table() {
    // Native method calls back into Java: callback(x) = x + 5.
    let mut lib = NativeLibrary::new("upcall");
    lib.register_method("t/U", "viaJni", |env, args| {
        env.work(50);
        env.call_static(
            JniRetType::Int,
            ParamStyle::Varargs,
            "t/U",
            "callback",
            "(I)I",
            &[args[0]],
        )
    });
    let mut cb = ClassBuilder::new("t/U");
    cb.native_method("viaJni", "(I)I", ST).unwrap();
    let mut m = cb.method("callback", "(I)I", ST);
    m.iload(0).iconst(5).iadd().ireturn();
    m.finish().unwrap();
    let mut m = cb.method("main", "()I", ST);
    m.iconst(10).invokestatic("t/U", "viaJni", "(I)I").ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(lib, true);
    let r = vm
        .call_static("t/U", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(15));
    assert_eq!(vm.stats().jni_upcalls, 1);
}

#[test]
fn jni_return_family_mismatch_is_detected() {
    let mut lib = NativeLibrary::new("bad");
    lib.register_method("t/U", "viaJni", |env, args| {
        // CallFloatMethod against an (I)I method: family mismatch.
        env.call_static(
            JniRetType::Float,
            ParamStyle::Array,
            "t/U",
            "callback",
            "(I)I",
            &[args[0]],
        )
    });
    let mut cb = ClassBuilder::new("t/U");
    cb.native_method("viaJni", "(I)I", ST).unwrap();
    let mut m = cb.method("callback", "(I)I", ST);
    m.iload(0).ireturn();
    m.finish().unwrap();
    let mut m = cb.method("main", "()I", ST);
    m.iconst(1).invokestatic("t/U", "viaJni", "(I)I").ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(lib, true);
    let err = vm
        .call_static("t/U", "main", "()I", vec![])
        .unwrap()
        .unwrap_err();
    assert_eq!(err.class_name, "java/lang/InternalError");
    assert!(err.message.unwrap().contains("CallStaticFloatMethodA"));
}

#[test]
fn jni_table_interception_sees_upcalls() {
    let hits = Arc::new(AtomicU64::new(0));
    let mut lib = NativeLibrary::new("upcall");
    lib.register_method("t/U", "viaJni", |env, args| {
        env.call_static(
            JniRetType::Int,
            ParamStyle::VaList,
            "t/U",
            "callback",
            "(I)I",
            &[args[0]],
        )
    });
    let mut cb = ClassBuilder::new("t/U");
    cb.native_method("viaJni", "(I)I", ST).unwrap();
    let mut m = cb.method("callback", "(I)I", ST);
    m.iload(0).ireturn();
    m.finish().unwrap();
    let mut m = cb.method("main", "()I", ST);
    m.iconst(3).invokestatic("t/U", "viaJni", "(I)I").ireturn();
    m.finish().unwrap();

    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(lib, true);
    {
        let hits = Arc::clone(&hits);
        vm.jni_table_mut().intercept_all(move |_key, original| {
            let hits = Arc::clone(&hits);
            Arc::new(move |env, spec| {
                hits.fetch_add(1, Ordering::Relaxed);
                original(env, spec)
            })
        });
    }
    let r = vm
        .call_static("t/U", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(3));
    assert_eq!(hits.load(Ordering::Relaxed), 1);
}

// ---------------------------------------------------------------- events

#[derive(Default)]
struct CountingSink {
    entries: AtomicU64,
    exits: AtomicU64,
    native_entries: AtomicU64,
    exceptional_exits: AtomicU64,
    thread_starts: AtomicU64,
    thread_ends: AtomicU64,
    deaths: AtomicU64,
}

impl VmEventSink for CountingSink {
    fn method_entry(&self, _t: &ThreadInfo, m: MethodView<'_>) {
        self.entries.fetch_add(1, Ordering::Relaxed);
        if m.is_native {
            self.native_entries.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn method_exit(&self, _t: &ThreadInfo, _m: MethodView<'_>, via_exception: bool) {
        self.exits.fetch_add(1, Ordering::Relaxed);
        if via_exception {
            self.exceptional_exits.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn thread_start(&self, _t: &ThreadInfo) {
        self.thread_starts.fetch_add(1, Ordering::Relaxed);
    }
    fn thread_end(&self, _t: &ThreadInfo) {
        self.thread_ends.fetch_add(1, Ordering::Relaxed);
    }
    fn vm_death(&self, _threads: &[ThreadInfo]) {
        self.deaths.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn method_events_fire_for_bytecode_and_native_and_balance() {
    let mut cb = ClassBuilder::new("t/E");
    cb.native_method("nat", "()V", ST).unwrap();
    let mut m = cb.method("leaf", "()V", ST);
    m.ret_void();
    m.finish().unwrap();
    let mut m = cb.method("main", "()V", ST);
    m.invokestatic("t/E", "leaf", "()V");
    m.invokestatic("t/E", "nat", "()V");
    m.ret_void();
    m.finish().unwrap();
    let mut lib = NativeLibrary::new("n");
    lib.register_method("t/E", "nat", |_env, _| Ok(Value::Null));

    let sink = Arc::new(CountingSink::default());
    let mut vm = Vm::new();
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(lib, true);
    vm.set_event_sink(Arc::clone(&sink) as Arc<dyn VmEventSink>);
    vm.set_event_mask(EventMask::all());
    let outcome = vm.run("t/E", "main", "()V", vec![]).unwrap();
    assert!(outcome.main.is_ok());
    // main + leaf + nat = 3 entries, 3 exits, 1 native entry.
    assert_eq!(sink.entries.load(Ordering::Relaxed), 3);
    assert_eq!(sink.exits.load(Ordering::Relaxed), 3);
    assert_eq!(sink.native_entries.load(Ordering::Relaxed), 1);
    assert_eq!(sink.exceptional_exits.load(Ordering::Relaxed), 0);
    // Primordial thread: no ThreadStart, but a ThreadEnd; one VMDeath.
    assert_eq!(sink.thread_starts.load(Ordering::Relaxed), 0);
    assert_eq!(sink.thread_ends.load(Ordering::Relaxed), 1);
    assert_eq!(sink.deaths.load(Ordering::Relaxed), 1);
}

#[test]
fn method_exit_reports_exceptional_unwind() {
    let class = single_method_class("t/Ex", "main", "()V", |m| {
        m.iconst(1).iconst(0).idiv().pop().ret_void();
    })
    .unwrap();
    let sink = Arc::new(CountingSink::default());
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    vm.set_event_sink(Arc::clone(&sink) as Arc<dyn VmEventSink>);
    vm.set_event_mask(EventMask::all());
    let outcome = vm.run("t/Ex", "main", "()V", vec![]).unwrap();
    assert!(outcome.main.is_err());
    assert_eq!(sink.exceptional_exits.load(Ordering::Relaxed), 1);
}

#[test]
fn enabling_method_events_disables_jit() {
    let mut vm = Vm::new();
    assert!(vm.jit_enabled());
    vm.set_event_mask(EventMask {
        method_events: true,
        ..EventMask::none()
    });
    assert!(!vm.jit_enabled());
    vm.set_event_mask(EventMask::none());
    assert!(vm.jit_enabled());
    vm.set_jit_requested(false);
    assert!(!vm.jit_enabled());
}

fn hot_loop_class() -> jvmsim_classfile::ClassFile {
    // main calls leaf() 10_000 times.
    let mut cb = ClassBuilder::new("t/Hot");
    let mut m = cb.method("leaf", "(I)I", ST);
    m.iload(0).iconst(3).imul().ireturn();
    m.finish().unwrap();
    let mut m = cb.method("main", "()I", ST);
    let top = m.new_label();
    let done = m.new_label();
    m.iconst(10_000).istore(0).iconst(0).istore(1);
    m.bind(top);
    m.iload(0).if_(Cond::Le, done);
    m.iload(1).invokestatic("t/Hot", "leaf", "(I)I").istore(1);
    m.iinc(0, -1).goto(top);
    m.bind(done);
    m.iload(1).ireturn();
    m.finish().unwrap();
    cb.finish().unwrap()
}

#[test]
fn jit_makes_hot_code_much_faster() {
    let run = |jit: bool| -> u64 {
        let mut vm = Vm::new();
        vm.set_jit_requested(jit);
        vm.add_classfile(&hot_loop_class());
        let outcome = vm.run("t/Hot", "main", "()I", vec![]).unwrap();
        outcome.total_cycles
    };
    let jit_cycles = run(true);
    let interp_cycles = run(false);
    assert!(
        interp_cycles > 4 * jit_cycles,
        "interp {interp_cycles} vs jit {jit_cycles}"
    );
}

#[test]
fn method_events_cost_dwarfs_plain_execution() {
    // The SPA pathology: events on (JIT off) vs off.
    let run = |events: bool| -> u64 {
        let mut vm = Vm::new();
        vm.add_classfile(&hot_loop_class());
        if events {
            vm.set_event_sink(Arc::new(CountingSink::default()));
            vm.set_event_mask(EventMask::all());
        }
        let outcome = vm.run("t/Hot", "main", "()I", vec![]).unwrap();
        outcome.total_cycles
    };
    let plain = run(false);
    let evented = run(true);
    assert!(
        evented > 20 * plain,
        "events {evented} vs plain {plain}: SPA-style overhead must be catastrophic"
    );
}

// ------------------------------------------------------------- threading

#[test]
fn spawned_threads_run_with_events_and_own_clocks() {
    let mut cb = ClassBuilder::new("t/Th");
    let mut m = cb.method("worker", "(I)V", ST);
    let top = m.new_label();
    let done = m.new_label();
    m.bind(top);
    m.iload(0).if_(Cond::Le, done);
    m.iinc(0, -1).goto(top);
    m.bind(done);
    m.ret_void();
    m.finish().unwrap();
    let mut m = cb.method("main", "()V", ST);
    m.ldc_str("w1")
        .ldc_str("t/Th")
        .ldc_str("worker")
        .iconst(1000);
    m.invokestatic(
        "java/lang/Threads",
        "start",
        "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;I)V",
    );
    m.ldc_str("w2")
        .ldc_str("t/Th")
        .ldc_str("worker")
        .iconst(2000);
    m.invokestatic(
        "java/lang/Threads",
        "start",
        "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;I)V",
    );
    m.ret_void();
    m.finish().unwrap();

    let sink = Arc::new(CountingSink::default());
    let mut vm = Vm::new();
    builtins::install(&mut vm);
    // Interpreted-only so the two workers' cycle counts are directly
    // comparable (otherwise w1 warms the shared code cache for w2).
    vm.set_jit_requested(false);
    vm.add_classfile(&cb.finish().unwrap());
    vm.set_event_sink(Arc::clone(&sink) as Arc<dyn VmEventSink>);
    vm.set_event_mask(EventMask {
        thread_events: true,
        vm_death: true,
        ..EventMask::none()
    });
    let outcome = vm.run("t/Th", "main", "()V", vec![]).unwrap();
    assert_eq!(outcome.threads.len(), 3);
    assert_eq!(outcome.threads[1].name, "w1");
    assert_eq!(outcome.threads[2].name, "w2");
    assert!(outcome.threads.iter().all(|t| t.result.is_ok()));
    // w2 loops twice as long as w1.
    assert!(outcome.threads[2].cycles > outcome.threads[1].cycles);
    // Spawned threads get ThreadStart; primordial does not.
    assert_eq!(sink.thread_starts.load(Ordering::Relaxed), 2);
    assert_eq!(sink.thread_ends.load(Ordering::Relaxed), 3);
}

// -------------------------------------------------------- class loading

#[test]
fn class_file_load_hook_can_rewrite_classes() {
    // The hook swaps the whole classfile for one whose f() returns 7.
    struct Rewriter;
    impl VmEventSink for Rewriter {
        fn class_file_load(&self, class_name: &str, _bytes: &[u8]) -> Option<Vec<u8>> {
            if class_name != "t/Hooked" {
                return None;
            }
            let replacement = single_method_class("t/Hooked", "f", "()I", |m| {
                m.iconst(7).ireturn();
            })
            .unwrap();
            Some(jvmsim_classfile::codec::encode(&replacement))
        }
    }
    let original = single_method_class("t/Hooked", "f", "()I", |m| {
        m.iconst(1).ireturn();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&original);
    vm.set_event_sink(Arc::new(Rewriter));
    vm.set_event_mask(EventMask {
        class_file_load_hook: true,
        ..EventMask::none()
    });
    let r = vm
        .call_static("t/Hooked", "f", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(7));
}

#[test]
fn missing_class_is_a_vm_error() {
    let mut vm = Vm::new();
    let err = vm.call_static("no/Such", "f", "()V", vec![]).unwrap_err();
    assert!(matches!(err, jvmsim_vm::VmError::ClassNotFound(_)));
}

#[test]
fn corrupt_classfile_is_a_vm_error() {
    let mut vm = Vm::new();
    vm.add_class_bytes("t/Bad", vec![1, 2, 3]);
    let err = vm.call_static("t/Bad", "f", "()V", vec![]).unwrap_err();
    assert!(matches!(err, jvmsim_vm::VmError::ClassFormat { .. }));
}

// ---------------------------------------------------------------- builtins

#[test]
fn builtin_string_and_io_natives_work() {
    let mut cb = ClassBuilder::new("t/B");
    let mut m = cb.method("main", "()I", ST);
    // String.length("hello") + FileIO.read(open("x"), buf, 8)
    m.ldc_str("hello");
    m.invokestatic("java/lang/String", "length", "(Ljava/lang/String;)I");
    m.ldc_str("x");
    m.invokestatic("java/io/FileIO", "open", "(Ljava/lang/String;)I");
    m.istore(0);
    m.iconst(8)
        .newarray(jvmsim_classfile::ArrayKind::Int)
        .astore(1);
    m.iload(0).aload(1).iconst(8);
    m.invokestatic("java/io/FileIO", "read", "(I[II)I");
    m.iadd().ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    builtins::install(&mut vm);
    vm.add_classfile(&cb.finish().unwrap());
    let r = vm
        .call_static("t/B", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(5 + 8));
    assert!(vm.stats().native_calls >= 3);
}

#[test]
fn builtin_loadlibrary_gates_resolution() {
    // A class calling its own native method after System.loadLibrary.
    let mut cb = ClassBuilder::new("t/L");
    cb.native_method("nat", "()I", ST).unwrap();
    let mut m = cb.method("<clinit>", "()V", ST);
    m.ldc_str("mylib");
    m.invokestatic("java/lang/System", "loadLibrary", "(Ljava/lang/String;)V");
    m.ret_void();
    m.finish().unwrap();
    let mut m = cb.method("main", "()I", ST);
    m.invokestatic("t/L", "nat", "()I").ireturn();
    m.finish().unwrap();

    let mut mylib = NativeLibrary::new("mylib");
    mylib.register_method("t/L", "nat", |_env, _| Ok(Value::Int(123)));

    let mut vm = Vm::new();
    builtins::install(&mut vm);
    vm.add_classfile(&cb.finish().unwrap());
    vm.register_native_library(mylib, false); // NOT auto-loaded
    let r = vm
        .call_static("t/L", "main", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(123));
}

#[test]
fn run_outcome_reports_cycles_and_seconds() {
    let mut vm = Vm::new();
    vm.add_classfile(&hot_loop_class());
    let pcl = vm.pcl();
    let outcome = vm.run("t/Hot", "main", "()I", vec![]).unwrap();
    assert!(outcome.total_cycles > 0);
    let secs = outcome.seconds(&pcl);
    assert!(secs > 0.0 && secs < 1.0);
    assert_eq!(outcome.stats.invocations, 10_001);
}
