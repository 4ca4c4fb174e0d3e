//! Criterion benches regenerating the paper's two tables.
//!
//! * `table1/<workload>/<agent>` — wall-clock cost of running each
//!   workload under no agent, SPA and IPA. The *virtual-cycle* overheads
//!   (what Table I actually reports) are printed by
//!   `jprof suite --size N --jobs N`;
//!   these benches additionally demonstrate that the simulation itself is
//!   cheap enough to iterate on, and their relative ordering mirrors the
//!   virtual numbers (SPA runs are dramatically slower in wall time too,
//!   because events and interpretation dominate).
//! * `table2/<workload>` — the IPA profiling pipeline end to end
//!   (instrument → attach → run → report), the measurement the paper's
//!   Table II rows come from.
//!
//! Sizes are reduced (S1/S10) so `cargo bench` completes quickly;
//! `jprof suite --size 100` runs the full S100 evaluation.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jnativeprof::harness::AgentChoice;
use jnativeprof::session::{RunOutcome, Session};
use workloads::{by_name, ProblemSize, Workload};

fn run(w: &dyn Workload, size: ProblemSize, agent: AgentChoice) -> RunOutcome {
    Session::new(w, size)
        .agent(agent)
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    for name in nativeprof_bench::all_names() {
        // SPA at even reduced sizes is slow by design; shrink further.
        let (size, spa_size) = if name == "jbb" {
            (ProblemSize(2), ProblemSize(1))
        } else {
            (ProblemSize::S10, ProblemSize::S1)
        };
        let workload = by_name(name).unwrap();
        group.bench_with_input(BenchmarkId::new(name, "original"), &size, |b, &s| {
            b.iter(|| {
                run(workload.as_ref(), s, AgentChoice::None)
                    .outcome
                    .total_cycles
            })
        });
        group.bench_with_input(BenchmarkId::new(name, "SPA"), &spa_size, |b, &s| {
            b.iter(|| {
                run(workload.as_ref(), s, AgentChoice::Spa)
                    .outcome
                    .total_cycles
            })
        });
        group.bench_with_input(BenchmarkId::new(name, "IPA"), &size, |b, &s| {
            b.iter(|| {
                run(workload.as_ref(), s, AgentChoice::ipa())
                    .outcome
                    .total_cycles
            })
        });
    }
    group.finish();
}

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    for name in nativeprof_bench::all_names() {
        let size = if name == "jbb" {
            ProblemSize(2)
        } else {
            ProblemSize::S10
        };
        let workload = by_name(name).unwrap();
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let result = run(workload.as_ref(), size, AgentChoice::ipa());
                let profile = result.profile.expect("IPA attached");
                (
                    profile.percent_native().to_bits(),
                    profile.jni_calls,
                    profile.native_method_calls,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(tables, bench_table1, bench_table2);
criterion_main!(tables);
