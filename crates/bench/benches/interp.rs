//! Interpreter bench: the direct-threaded engine across all eight
//! SPEC-style workloads.
//!
//! Runs at `--tiers interp-only` so every simulated cycle is interpreter
//! work and host wall-clock is dominated by bytecode dispatch. Program
//! generation is hoisted out of the timed region (it is workload
//! synthesis, not interpretation); the measured loop is VM construction,
//! class loading, and the full bytecode run.
//!
//! After the per-workload criterion groups, a summary pass runs each
//! workload N more times and panics unless every run's interp-only
//! `total_cycles` at size 10 equals the constant pinned below — the bench is
//! self-checking, not just a report. It also prints host speed in
//! millions of simulated instructions per second (median of N runs).
//! Speed is reported, not gated: host-time regressions are gated end to
//! end by the `hostbench` pipeline.
//!
//! Set `JVMSIM_BENCH_SMOKE=1` (as CI does) to shrink sample counts for a
//! fast functional pass; the exactness gate still applies.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use jvmsim_vm::{RunOutcome, TiersMode, Value};
use workloads::{by_name, prepare_vm, WorkloadProgram};

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

const SIZE: i64 = 10;

fn smoke() -> bool {
    std::env::var_os("JVMSIM_BENCH_SMOKE").is_some()
}

/// One interpreter-only run of a pre-generated program.
fn run(program: &WorkloadProgram) -> RunOutcome {
    let mut vm = prepare_vm(program);
    vm.set_tiers_mode(TiersMode::InterpOnly);
    vm.run(&program.entry_class, "main", "(I)I", vec![Value::Int(SIZE)])
        .unwrap_or_else(|e| panic!("{}: {e:?}", program.entry_class))
}

fn bench_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp");
    if smoke() {
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(50));
        group.measurement_time(Duration::from_millis(200));
    } else {
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(300));
        group.measurement_time(Duration::from_millis(1500));
    }
    for (name, _) in PINNED_CYCLES {
        let program = by_name(name).unwrap().program();
        group.bench_function(BenchmarkId::new(name, "interp-only"), |b| {
            b.iter(|| run(&program).total_cycles)
        });
    }
    group.finish();
}

/// The acceptance gate: every sample's interp-only cycle total equals
/// the workload's pinned constant. Prints the median host speed
/// alongside. Each sample gets a freshly generated program: a workload's
/// native libraries keep state across runs (compress and javac count
/// calls in shared counters), so re-running one program object is not
/// the same run twice.
fn bench_exactness_gate(c: &mut Criterion) {
    // Zero-sample group so the gate shows up in the report ordering.
    let mut group = c.benchmark_group("interp_exactness");
    group.finish();
    let samples = if smoke() { 3 } else { 9 };
    let mut wrong = Vec::new();
    for (name, pinned) in PINNED_CYCLES {
        let mut times = Vec::with_capacity(samples);
        let mut insns = 0;
        for _ in 0..samples {
            let program = by_name(name).unwrap().program();
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

criterion_group!(interp, bench_interp, bench_exactness_gate);
criterion_main!(interp);
