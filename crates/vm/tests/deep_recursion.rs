//! Simulated call depth never costs host stack: the interpreter keeps its
//! frames on a per-thread frame stack, so a recursion as deep as
//! `max_call_depth` allows runs on any host thread, and the VM's own
//! `StackOverflowError` is the only limit.

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{Cond, FieldFlags, MethodFlags};
use jvmsim_vm::{Value, Vm};

const ST: MethodFlags = MethodFlags::STATIC;

/// `t/Deep`: `down(n)` records `n` in the static `deepest`, then returns
/// `n` at 0 and `down(n - 1) + 1` otherwise; `deepest()` reads it back.
fn deep_vm(max_call_depth: usize) -> Vm {
    let mut cb = ClassBuilder::new("t/Deep");
    cb.field("deepest", "I", FieldFlags::PUBLIC | FieldFlags::STATIC)
        .unwrap();
    let mut m = cb.method("down", "(I)I", ST);
    let base = m.new_label();
    m.iload(0).putstatic("t/Deep", "deepest", "I");
    m.iload(0).if_(Cond::Le, base);
    m.iload(0)
        .iconst(1)
        .isub()
        .invokestatic("t/Deep", "down", "(I)I");
    m.iconst(1).iadd().ireturn();
    m.bind(base);
    m.iconst(0).ireturn();
    m.finish().unwrap();
    let mut m = cb.method("deepest", "()I", ST);
    m.getstatic("t/Deep", "deepest", "I").ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.set_max_call_depth(max_call_depth);
    vm.add_classfile(&cb.finish().unwrap());
    vm
}

fn down(vm: &mut Vm, n: i64) -> Result<Value, String> {
    vm.call_static("t/Deep", "down", "(I)I", vec![Value::Int(n)])
        .unwrap()
        .map_err(|e| e.to_string())
}

/// A recursion deeper than the default `max_call_depth` (2,000) on a
/// thread with a 2 MiB stack ends in the VM's `StackOverflowError`, with
/// the deepest frame at depth 2,000, not in a host stack overflow.
#[test]
fn max_call_depth_recursion_on_a_2_mib_thread_throws_stack_overflow() {
    let run = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let mut vm = deep_vm(2_000);
            let result = down(&mut vm, 5_000);
            let deepest = vm
                .call_static("t/Deep", "deepest", "()I", vec![])
                .unwrap()
                .unwrap();
            (result, deepest)
        })
        .unwrap();
    let (result, deepest) = run.join().unwrap();
    assert_eq!(
        result,
        Err("java/lang/StackOverflowError: call depth exceeded".to_owned())
    );
    // `down(5000)` is frame 1, so frame 2,000 runs `down(3001)`.
    assert_eq!(deepest, Value::Int(3_001));
}

/// With the limit raised, 100,000 simulated frames run on the default
/// test thread (in a debug build too) and return normally.
#[test]
fn a_hundred_thousand_frames_run_on_a_default_thread() {
    let mut vm = deep_vm(100_001);
    assert_eq!(down(&mut vm, 99_999), Ok(Value::Int(99_999)));
    assert_eq!(vm.stats().invocations, 100_000);
    assert_eq!(
        down(&mut vm, 100_001),
        Err("java/lang/StackOverflowError: call depth exceeded".to_owned())
    );
}
