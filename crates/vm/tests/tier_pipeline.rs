//! Tiered-execution oracles: hand-computed promotion points.
//!
//! The cost model pins exact constants (`interp_insn` 8 / `c1_insn` 2 /
//! `c2_insn` 1, call overheads 30/8/4, thresholds C1=20 / C2=200 /
//! OSR=200, compile charges 50 and 200 per instruction), so every cycle
//! a run charges is computable by hand. These tests build tiny methods
//! with known instruction counts and loop trip counts and assert the
//! *exact* per-tier cycle ledger, OSR/compile counts, and the
//! tier-transition event sequence at every point of the `--tiers` axis.

use std::sync::Mutex;

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{Cond, MethodFlags};
use jvmsim_vm::{MethodId, ThreadId, TiersMode, TraceEventKind, TraceSink, Value, Vm, VmStats};

/// Collects the tier-transition trace events, in emission order.
#[derive(Default)]
struct TransitionSink(Mutex<Vec<TraceEventKind>>);

impl TraceSink for TransitionSink {
    fn record(&self, _t: ThreadId, kind: TraceEventKind, _cycles: u64, _m: Option<MethodId>) {
        use TraceEventKind::{Deopt, Osr, TierUpC1, TierUpC2};
        if matches!(kind, TierUpC1 | TierUpC2 | Osr | Deopt) {
            self.0.lock().unwrap().push(kind);
        }
    }
}

/// `f(n)`: count `i` from 0 to `n` with one backward branch per
/// iteration. Exactly 9 instructions; 2 prologue + 5 per continuing
/// iteration + 5 on the exit path (final check + return).
fn loop_class() -> jvmsim_classfile::ClassFile {
    let mut cb = ClassBuilder::new("tier/Loop");
    let mut m = cb.method("f", "(I)I", MethodFlags::STATIC);
    let top = m.new_label();
    let done = m.new_label();
    m.iconst(0).istore(1);
    m.bind(top);
    m.iload(1).iload(0).if_icmp(Cond::Ge, done);
    m.iinc(1, 1);
    m.goto(top);
    m.bind(done);
    m.iload(1).ireturn();
    m.finish().unwrap();
    cb.finish().unwrap()
}

struct LoopRun {
    stats: VmStats,
    result: i64,
    /// Tier-transition events only, in order.
    transitions: Vec<TraceEventKind>,
}

fn run_loop(n: i64, mode: TiersMode) -> LoopRun {
    let mut vm = Vm::new();
    vm.set_tiers_mode(mode);
    let sink = std::sync::Arc::new(TransitionSink::default());
    vm.set_trace_sink(sink.clone());
    vm.add_classfile(&loop_class());
    let result = match vm
        .call_static("tier/Loop", "f", "(I)I", vec![Value::Int(n)])
        .expect("link")
        .expect("no exception")
    {
        Value::Int(v) => v,
        other => panic!("non-int {other:?}"),
    };
    let transitions = sink.0.lock().unwrap().clone();
    LoopRun {
        stats: vm.stats(),
        result,
        transitions,
    }
}

/// 500 iterations under `full`: the 200th backward branch OSRs the
/// running frame to C1, the 400th to C2, and the last 100 iterations run
/// at the top tier. Every cycle is hand-computed.
#[test]
fn osr_oracle_full_pipeline() {
    let run = run_loop(500, TiersMode::Full);
    assert_eq!(run.result, 500);
    let s = run.stats;
    // 2 prologue + 200 iterations x 5 insns before the first OSR.
    assert_eq!(s.interp_cycles, 1002 * 8 + 30);
    // Iterations 201..=400 at C1.
    assert_eq!(s.c1_cycles, 1000 * 2);
    // Iterations 401..=500 plus the 5-insn exit path at C2.
    assert_eq!(s.c2_cycles, 505);
    // f is 9 instructions: compile charges are 9x50 and 9x200.
    assert_eq!(s.c1_compile_cycles, 450);
    assert_eq!(s.c2_compile_cycles, 1800);
    assert_eq!(
        (s.osrs, s.c1_compiles, s.c2_compiles, s.deopts),
        (2, 1, 1, 0)
    );
    assert_eq!(s.insns, 2507);
    // Transition ordinals: each promotion, then its OSR.
    assert_eq!(
        run.transitions,
        vec![
            TraceEventKind::TierUpC1,
            TraceEventKind::Osr,
            TraceEventKind::TierUpC2,
            TraceEventKind::Osr,
        ]
    );
}

/// Same loop under `tiered`: the C1 ceiling stops the second OSR.
#[test]
fn osr_oracle_respects_the_c1_ceiling() {
    let run = run_loop(500, TiersMode::Tiered);
    let s = run.stats;
    assert_eq!(s.interp_cycles, 1002 * 8 + 30);
    // Iterations 201..=500 plus the exit path all stay at C1.
    assert_eq!(s.c1_cycles, 1505 * 2);
    assert_eq!(s.c2_cycles, 0);
    assert_eq!(s.c1_compile_cycles, 450);
    assert_eq!(s.c2_compile_cycles, 0);
    assert_eq!((s.osrs, s.c1_compiles, s.c2_compiles), (1, 1, 0));
}

/// Same loop under `interp-only`: back-edges are never even counted.
#[test]
fn osr_oracle_interp_only_never_promotes() {
    let run = run_loop(500, TiersMode::InterpOnly);
    let s = run.stats;
    assert_eq!(s.interp_cycles, 2507 * 8 + 30);
    assert_eq!(s.c1_cycles + s.c2_cycles, 0);
    assert_eq!(s.c1_compile_cycles + s.c2_compile_cycles, 0);
    assert_eq!((s.osrs, s.c1_compiles, s.c2_compiles), (0, 0, 0));
    assert!(run.transitions.is_empty());
}

/// Load `tier/Hot.g()I` (2 instructions: `iconst 7; ireturn`) and call
/// it `calls` times from the harness.
fn call_hot(vm: &mut Vm, calls: usize) {
    let mut cb = ClassBuilder::new("tier/Hot");
    let mut m = cb.method("g", "()I", MethodFlags::STATIC);
    m.iconst(7).ireturn();
    m.finish().unwrap();
    vm.add_classfile(&cb.finish().unwrap());
    for _ in 0..calls {
        let v = vm.call_static("tier/Hot", "g", "()I", vec![]);
        assert_eq!(v.expect("link").expect("no exception"), Value::Int(7));
    }
}

/// Invocation-counter promotion: a 2-instruction method crosses the C1
/// threshold on its 20th call and the C2 threshold on its 200th.
#[test]
fn invocation_threshold_oracle() {
    let mut vm = Vm::new();
    call_hot(&mut vm, 200);
    let s = vm.stats();
    // Calls 1..=19 interpreted: 2 insns x 8 + 30 overhead each.
    assert_eq!(s.interp_cycles, 19 * (2 * 8 + 30));
    // Call 20 compiles to C1 and runs there; calls 20..=199 at C1.
    assert_eq!(s.c1_cycles, 180 * (2 * 2 + 8));
    // Call 200 compiles to C2 and runs there.
    assert_eq!(s.c2_cycles, 2 + 4);
    assert_eq!(s.c1_compile_cycles, 2 * 50);
    assert_eq!(s.c2_compile_cycles, 2 * 200);
    assert_eq!((s.c1_compiles, s.c2_compiles, s.osrs), (1, 1, 0));
}

/// An exception unwinding out of a compiled activation deoptimizes: the
/// method drops back to the interpreter and must re-earn promotion.
#[test]
fn unhandled_throw_from_compiled_tier_deopts() {
    let mut cb = ClassBuilder::new("tier/Thrower");
    let mut m = cb.method("h", "(I)I", MethodFlags::STATIC);
    // 100 / x: throws ArithmeticException when x == 0.
    m.iconst(100).iload(0).idiv().ireturn();
    m.finish().unwrap();
    let class = cb.finish().unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    // Promote to C1 with benign calls.
    for _ in 0..25 {
        vm.call_static("tier/Thrower", "h", "(I)I", vec![Value::Int(5)])
            .expect("link")
            .expect("benign");
    }
    assert_eq!(vm.stats().c1_compiles, 1);
    // Throw out of the C1 activation.
    let thrown = vm
        .call_static("tier/Thrower", "h", "(I)I", vec![Value::Int(0)])
        .expect("link");
    assert_eq!(
        thrown.unwrap_err().class_name,
        "java/lang/ArithmeticException"
    );
    assert_eq!(vm.stats().deopts, 1);
    // The next benign call runs interpreted again (the counter reset).
    let interp_before = vm.stats().interp_cycles;
    vm.call_static("tier/Thrower", "h", "(I)I", vec![Value::Int(5)])
        .expect("link")
        .expect("benign");
    assert!(
        vm.stats().interp_cycles > interp_before,
        "post-deopt call must charge interpreter cycles"
    );
}

/// The `tier-compile-abort` fault site at full rate: every compile
/// attempt is thrown away half-charged, the method never leaves the
/// interpreter, the invocation counter re-arms — and the bucket ledger
/// still partitions the PCL total exactly.
#[test]
fn tier_compile_abort_half_charges_and_keeps_the_ledger_exact() {
    use jvmsim_faults::{FaultInjector, FaultPlan, FaultSite, PPM};
    use jvmsim_metrics::{Bucket, MetricsRegistry};

    let mut vm = Vm::new();
    let metrics = MetricsRegistry::new();
    vm.set_metrics(metrics.clone());
    vm.set_fault_injector(std::sync::Arc::new(FaultInjector::new(
        FaultPlan::new(11).with_rate(FaultSite::TierCompileAbort, PPM),
    )));
    let pcl = vm.pcl();
    call_hot(&mut vm, 100);
    let s = vm.stats();
    // The counter re-arms after each abort, so the compile is
    // re-attempted (and re-aborted) every 20th call: 5 aborts in 100
    // calls, each charging half the 2-insn C1 compile cost (50).
    assert_eq!(s.tier_compile_aborts, 5);
    assert_eq!((s.c1_compiles, s.c2_compiles, s.osrs), (0, 0, 0));
    assert_eq!(s.c1_compile_cycles, 5 * 50);
    assert_eq!(s.c1_cycles + s.c2_cycles, 0);
    assert_eq!(s.interp_cycles, 100 * (2 * 8 + 30));
    // Chaos-checked invariant: the half-charges landed in the compile
    // bucket and the ledger still sums to the PCL total exactly.
    let snap = metrics.snapshot();
    assert_eq!(snap.bucket_cycles(Bucket::C1Compile), 5 * 50);
    assert_eq!(snap.total_cycles(), pcl.total_cycles());
}
