//! Interpreter bench: the direct-threaded engine across all eight
//! SPEC-style workloads.
//!
//! Runs at `--tiers interp-only` so every simulated cycle is interpreter
//! work and host wall-clock is dominated by bytecode dispatch. Program
//! generation is hoisted out of the timed region (it is workload
//! synthesis, not interpretation); the measured loop is VM construction,
//! class loading, and the full bytecode run.
//!
//! The first pass runs each workload N times and panics unless every
//! run's interp-only `total_cycles` at size 10 equals the constant pinned
//! below — the bench is self-checking, not just a report. It also prints
//! host speed in millions of simulated instructions per second (median of
//! N runs).
//!
//! A second pass runs each workload at size 10 under the SPA agent, once
//! bare and once with a metrics registry attached, and panics unless every
//! run's SPA `total_cycles` equals the constant pinned below. It prints the
//! host cost of one dispatched JVMTI event: an SPA run's time minus the
//! time of the same program's interp-only, no-agent run (metered alike),
//! divided by `events_dispatched`, as the median of N such pairs per
//! workload and the geometric mean of the positive medians (host noise
//! can push a median to zero or below; the line says how many it left
//! out).
//!
//! Two more passes price one Java→Java call: a generated loop calling
//! `static int f(int)` against the same loop with `f`'s body inlined,
//! and a loop calling a one-field getter through `invokevirtual` against
//! the same loop with its `getfield` inlined, all interp-only at a fixed
//! trip count. Each prints the median over N samples of the time
//! difference per call, and the difference per call of the two loops'
//! fastest samples, and panics unless both of its programs'
//! `total_cycles` equal the constants pinned below.
//!
//! Speed is reported, not gated: host-time regressions are gated end to
//! end by the `hostbench` pipeline.
//!
//! Set `JVMSIM_BENCH_SMOKE=1` (as CI does) to shrink sample counts for a
//! fast functional pass; both exactness gates still apply.

use std::hint::black_box;
use std::time::Instant;

use jnativeprof::classfile::builder::{ClassBuilder, MethodBuilder};
use jnativeprof::classfile::{Cond, FieldFlags, MethodFlags};
use jnativeprof::harness::AgentChoice;
use jvmsim_metrics::MetricsRegistry;
use jvmsim_vm::{RunOutcome, TiersMode, Value, Vm};
use workloads::{by_name, ProblemSize, WorkloadProgram};

/// Interp-only `total_cycles` per workload at size 10.
const PINNED_CYCLES: [(&str, u64); 8] = [
    ("compress", 14_135_904),
    ("jess", 6_530_206),
    ("db", 66_436_744),
    ("javac", 11_479_926),
    ("mpegaudio", 10_488_904),
    ("mtrt", 4_833_381),
    ("jack", 24_064_012),
    ("jbb", 47_596_738),
];

/// SPA `total_cycles` per workload at size 10, identical with and
/// without a metrics registry attached.
const PINNED_SPA_CYCLES: [(&str, u64); 8] = [
    ("compress", 136_117_814),
    ("jess", 115_521_476),
    ("db", 113_383_614),
    ("javac", 139_649_116),
    ("mpegaudio", 163_197_214),
    ("mtrt", 143_325_691),
    ("jack", 51_348_242),
    ("jbb", 647_785_678),
];

const SIZE: ProblemSize = ProblemSize::S10;

/// Loop trips of the `call_cost` programs.
const CALLS: i64 = 200_000;

/// Interp-only `total_cycles` of the static `call_cost` loop with the
/// call, and with `f` inlined.
const PINNED_STATIC_CALL_CYCLES: [u64; 2] = [34_800_352, 24_000_352];

/// Interp-only `total_cycles` of the virtual `call_cost` loop with the
/// getter call, and with its `getfield` inlined.
const PINNED_VIRTUAL_CALL_CYCLES: [u64; 2] = [33_200_472, 22_400_472];

fn samples() -> usize {
    if smoke() {
        3
    } else {
        9
    }
}

fn smoke() -> bool {
    std::env::var_os("JVMSIM_BENCH_SMOKE").is_some()
}

/// One interpreter-only run of a pre-generated program.
fn run(program: &WorkloadProgram) -> RunOutcome {
    run_with(program, false, false)
}

/// One run of a pre-generated program: under SPA if `spa` (method events
/// turn the JIT off), interp-only with no agent otherwise, and with a
/// metrics registry attached if `metered` (as `jprof report` and the
/// hostbench matrix run cells).
fn run_with(program: &WorkloadProgram, spa: bool, metered: bool) -> RunOutcome {
    let mut vm = Vm::new();
    program.load(&mut vm);
    vm.set_tiers_mode(TiersMode::InterpOnly);
    let agent = if spa {
        AgentChoice::Spa
    } else {
        AgentChoice::None
    };
    if metered {
        let registry = MetricsRegistry::new();
        registry.set_agent_bucket(agent.bucket());
        vm.set_metrics(registry);
    }
    agent
        .attach(&mut vm)
        .unwrap_or_else(|e| panic!("{}: {e}", program.entry_class));
    program
        .run(&mut vm, SIZE)
        .unwrap_or_else(|e| panic!("{}: {e:?}", program.entry_class))
}

/// The acceptance gate: every sample's interp-only cycle total equals
/// the workload's pinned constant. Prints the median host speed
/// alongside.
fn exactness_gate() {
    let samples = samples();
    let mut wrong = Vec::new();
    for (name, pinned) in PINNED_CYCLES {
        let program = by_name(name).unwrap().program();
        let mut times = Vec::with_capacity(samples);
        let mut insns = 0;
        for _ in 0..samples {
            let t0 = Instant::now();
            let outcome = black_box(run(&program));
            times.push(t0.elapsed());
            insns = outcome.stats.insns;
            if outcome.total_cycles != pinned {
                wrong.push(format!(
                    "{name}: {} != pinned {pinned}",
                    outcome.total_cycles
                ));
            }
        }
        times.sort();
        let median = times[times.len() / 2];
        let minsn_per_s = insns as f64 / median.as_secs_f64().max(f64::EPSILON) / 1e6;
        println!(
            "interp_exactness/{name:<10} pinned total_cycles {pinned:>11}  median {median:>10.3?}  {minsn_per_s:>7.1} Minsn/s"
        );
    }
    assert!(
        wrong.is_empty(),
        "interp-only cycle totals moved: {}",
        wrong.join("; ")
    );
}

/// The SPA gate: every SPA run's cycle total, bare and metered, equals
/// the workload's pinned constant. Each sample times an interp-only run
/// and an SPA run of one program back to back, and takes the difference
/// per dispatched event; the pass prints the median for both, per
/// workload and as a geometric mean.
fn spa_event_cost() {
    let mut wrong = Vec::new();
    let mut medians = [Vec::new(), Vec::new()];
    for (name, pinned) in PINNED_SPA_CYCLES {
        let program = by_name(name).unwrap().program();
        let mut events = 0;
        for (metered, medians) in [false, true].into_iter().zip(&mut medians) {
            let mut ns_per_event = Vec::with_capacity(samples());
            for _ in 0..samples() {
                let t0 = Instant::now();
                black_box(run_with(&program, false, metered));
                let t1 = Instant::now();
                let outcome = black_box(run_with(&program, true, metered));
                let spa_time = t1.elapsed().as_secs_f64();
                let base_time = (t1 - t0).as_secs_f64();
                if outcome.total_cycles != pinned {
                    wrong.push(format!(
                        "{name} (metered: {metered}): {} != pinned {pinned}",
                        outcome.total_cycles
                    ));
                }
                events = outcome.stats.events_dispatched;
                ns_per_event.push((spa_time - base_time) * 1e9 / events.max(1) as f64);
            }
            ns_per_event.sort_by(f64::total_cmp);
            medians.push(ns_per_event[ns_per_event.len() / 2]);
        }
        let (bare, metered) = (medians[0].last().unwrap(), medians[1].last().unwrap());
        println!(
            "spa_event_cost/{name:<10} pinned total_cycles {pinned:>11}  {events:>8} events  {bare:>7.1} ns/event  {metered:>7.1} ns/event metered"
        );
    }
    // A non-positive median (host noise above the events' cost) has no
    // logarithm: the geometric mean covers the positive medians and says
    // how many it left out.
    let geomean = |xs: &[f64]| {
        let logs: Vec<f64> = xs.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
        let mean = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
        format!("{mean:>7.1} ns/event ({} left out)", xs.len() - logs.len())
    };
    println!(
        "spa_event_cost/geomean    {}  {} metered",
        geomean(&medians[0]),
        geomean(&medians[1])
    );
    assert!(
        wrong.is_empty(),
        "SPA cycle totals moved: {}",
        wrong.join("; ")
    );
}

/// `f(x) = x * 3 + 1`, the callee's body (and the inlined loop's).
fn f_body(m: &mut MethodBuilder<'_>) {
    m.iconst(3).imul().iconst(1).iadd();
}

/// A VM holding `t/Calls.main()I`: `acc = f(acc ^ i) & 0xffff` for
/// `CALLS` trips, through `invokestatic` if `call`, with `f` inlined
/// otherwise.
fn static_loop_vm(call: bool) -> Vm {
    let mut cb = ClassBuilder::new("t/Calls");
    let st = MethodFlags::STATIC;
    let mut f = cb.method("f", "(I)I", st);
    f.iload(0);
    f_body(&mut f);
    f.ireturn();
    f.finish().unwrap();
    let mut m = cb.method("main", "()I", st);
    let (top, done) = (m.new_label(), m.new_label());
    m.iconst(0).istore(0).iconst(0).istore(1);
    m.bind(top);
    m.iload(0).iconst(CALLS).if_icmp(Cond::Ge, done);
    m.iload(1).iload(0).ixor();
    if call {
        m.invokestatic("t/Calls", "f", "(I)I");
    } else {
        f_body(&mut m);
    }
    m.iconst(0xffff).iand().istore(1);
    m.iinc(0, 1).goto(top);
    m.bind(done);
    m.iload(1).ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.set_tiers_mode(TiersMode::InterpOnly);
    vm.add_classfile(&cb.finish().unwrap());
    vm
}

/// A VM holding `t/Getter.main()I`, mtrt's call shape: one object `p`
/// with `p.v = 7`, then `acc = (acc ^ i) + p.get() & 0xffff` for `CALLS`
/// trips, through `invokevirtual` of the one-field getter `get()I` if
/// `call`, with its `getfield` inlined otherwise.
fn virtual_loop_vm(call: bool) -> Vm {
    let mut cb = ClassBuilder::new("t/Getter");
    cb.field("v", "I", FieldFlags::PUBLIC).unwrap();
    let mut get = cb.method("get", "()I", MethodFlags::PUBLIC);
    get.aload(0).getfield("t/Getter", "v", "I").ireturn();
    get.finish().unwrap();
    let mut m = cb.method("main", "()I", MethodFlags::STATIC);
    let (top, done) = (m.new_label(), m.new_label());
    m.new_obj("t/Getter").astore(0);
    m.aload(0).iconst(7).putfield("t/Getter", "v", "I");
    m.iconst(0).istore(1).iconst(0).istore(2);
    m.bind(top);
    m.iload(1).iconst(CALLS).if_icmp(Cond::Ge, done);
    m.iload(2).iload(1).ixor().aload(0);
    if call {
        m.invokevirtual("t/Getter", "get", "()I");
    } else {
        m.getfield("t/Getter", "v", "I");
    }
    m.iadd().iconst(0xffff).iand().istore(2);
    m.iinc(1, 1).goto(top);
    m.bind(done);
    m.iload(2).ireturn();
    m.finish().unwrap();
    let mut vm = Vm::new();
    vm.set_tiers_mode(TiersMode::InterpOnly);
    vm.add_classfile(&cb.finish().unwrap());
    vm
}

/// One call-cost pass: each sample times the calling loop and the
/// inlined loop back to back, VM construction and class loading
/// included in both. Prints the median over samples of their difference
/// per call and, since one sample swings widely on a shared host, the
/// difference per call of each loop's fastest sample; panics unless
/// both loops' `total_cycles` equal `pinned` (calling, inlined).
fn call_cost(name: &str, class: &str, vm: fn(bool) -> Vm, pinned: [u64; 2]) {
    let mut ns_per_call = Vec::with_capacity(samples());
    let mut fastest = [f64::INFINITY; 2];
    let mut totals = [0; 2];
    for _ in 0..samples() {
        let mut times = [0.0; 2];
        for (i, call) in [true, false].into_iter().enumerate() {
            let t0 = Instant::now();
            let mut vm = vm(call);
            let outcome = black_box(vm.run(class, "main", "()I", vec![]).unwrap());
            times[i] = t0.elapsed().as_secs_f64();
            fastest[i] = fastest[i].min(times[i]);
            assert!(matches!(outcome.main, Ok(Value::Int(_))));
            totals[i] = outcome.total_cycles;
        }
        ns_per_call.push((times[0] - times[1]) * 1e9 / CALLS as f64);
    }
    ns_per_call.sort_by(f64::total_cmp);
    let median = ns_per_call[ns_per_call.len() / 2];
    let min = (fastest[0] - fastest[1]) * 1e9 / CALLS as f64;
    println!(
        "call_cost/{name:<15} pinned total_cycles {:>11} vs {:>11} inlined  median {median:>7.1} min {min:>7.1} ns/call",
        pinned[0], pinned[1]
    );
    assert_eq!(totals, pinned, "{name}: call-cost cycle totals moved");
}

fn main() {
    exactness_gate();
    spa_event_cost();
    call_cost(
        "static_int_f",
        "t/Calls",
        static_loop_vm,
        PINNED_STATIC_CALL_CYCLES,
    );
    call_cost(
        "virtual_getter",
        "t/Getter",
        virtual_loop_vm,
        PINNED_VIRTUAL_CALL_CYCLES,
    );
}
