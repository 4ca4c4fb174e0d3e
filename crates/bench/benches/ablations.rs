//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * `ablation_instr` — static (ahead-of-time) vs dynamic (class-load-hook)
//!   instrumentation, the §IV trade-off the paper discusses before choosing
//!   static.
//! * `ablation_compensation` — IPA with and without wrapper-cost
//!   compensation (§IV, last paragraph).
//! * `ablation_spa_timestamps` — how much of SPA's cost is event dispatch
//!   vs PCL access: compares full SPA against a strawman agent that takes a
//!   timestamp on *every* entry/exit (violating SPA's "only at transitions"
//!   design goal, §III).
//! * `ablation_jit` — the raw JIT effect with no agent at all (`-Xint`):
//!   the mechanism behind SPA's overhead.

use std::sync::Arc;

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jnativeprof::harness::AgentChoice;
use jnativeprof::session::{RunOutcome, Session};
use jvmsim_vm::{builtins, MethodView, ThreadInfo, Value, Vm};
use nativeprof::{InstrumentationMode, IpaConfig};
use workloads::{by_name, ProblemSize, Workload};

fn run(w: &dyn Workload, size: ProblemSize, agent: AgentChoice) -> RunOutcome {
    Session::new(w, size)
        .agent(agent)
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

fn bench_instr_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_instr");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    for name in ["compress", "jack"] {
        let workload = by_name(name).unwrap();
        for (label, mode) in [
            ("static", InstrumentationMode::Static),
            ("dynamic", InstrumentationMode::Dynamic),
        ] {
            group.bench_function(BenchmarkId::new(name, label), |b| {
                b.iter(|| {
                    let cfg = IpaConfig {
                        mode,
                        ..IpaConfig::default()
                    };
                    run(workload.as_ref(), ProblemSize::S10, AgentChoice::Ipa(cfg))
                        .outcome
                        .total_cycles
                })
            });
        }
    }
    group.finish();
}

fn bench_compensation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_compensation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    let workload = by_name("jack").unwrap();
    for (label, compensate) in [("on", true), ("off", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = IpaConfig {
                    compensate,
                    ..IpaConfig::default()
                };
                let result = run(workload.as_ref(), ProblemSize::S10, AgentChoice::Ipa(cfg));
                result.profile.unwrap().percent_native().to_bits()
            })
        });
    }
    group.finish();
}

/// Strawman: an agent that reads PCL on every event, measuring what SPA's
/// "timestamps only at transitions" design goal saves.
struct TimestampEverything {
    env: std::sync::OnceLock<jvmsim_jvmti::JvmtiEnv>,
}

impl jvmsim_jvmti::Agent for TimestampEverything {
    fn on_load(
        &self,
        host: &mut jvmsim_jvmti::AgentHost<'_>,
    ) -> Result<(), jvmsim_jvmti::JvmtiError> {
        host.add_capabilities(jvmsim_jvmti::Capabilities::spa());
        host.enable_event(jvmsim_jvmti::EventType::MethodEntry)?;
        host.enable_event(jvmsim_jvmti::EventType::MethodExit)?;
        self.env.set(host.env()).ok();
        Ok(())
    }
    fn method_entry(&self, thread: &ThreadInfo, _m: MethodView<'_>) {
        let _ = self.env.get().unwrap().timestamp(thread);
    }
    fn method_exit(&self, thread: &ThreadInfo, _m: MethodView<'_>, _e: bool) {
        let _ = self.env.get().unwrap().timestamp(thread);
    }
}

fn bench_spa_timestamps(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_spa_timestamps");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    let workload = by_name("mtrt").unwrap();
    group.bench_function("spa_transitions_only", |b| {
        b.iter(|| {
            run(workload.as_ref(), ProblemSize::S1, AgentChoice::Spa)
                .outcome
                .total_cycles
        })
    });
    group.bench_function("timestamp_every_event", |b| {
        b.iter(|| {
            let program = workload.program();
            let mut vm = Vm::new();
            builtins::install(&mut vm);
            for class in &program.classes {
                vm.add_classfile(class);
            }
            for lib in &program.libraries {
                vm.register_native_library(lib.clone(), true);
            }
            let agent = Arc::new(TimestampEverything {
                env: std::sync::OnceLock::new(),
            });
            jvmsim_jvmti::attach(&mut vm, agent).unwrap();
            vm.run(&program.entry_class, "main", "(I)I", vec![Value::Int(1)])
                .unwrap()
                .total_cycles
        })
    });
    group.finish();
}

fn bench_jit(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_jit");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    let workload = by_name("mtrt").unwrap();
    for (label, jit) in [("jit_on", true), ("jit_off", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let program = workload.program();
                let mut vm = Vm::new();
                vm.set_jit_requested(jit);
                builtins::install(&mut vm);
                for class in &program.classes {
                    vm.add_classfile(class);
                }
                for lib in &program.libraries {
                    vm.register_native_library(lib.clone(), true);
                }
                vm.run(&program.entry_class, "main", "(I)I", vec![Value::Int(5)])
                    .unwrap()
                    .total_cycles
            })
        });
    }
    group.finish();
}

criterion_group!(
    ablations,
    bench_instr_mode,
    bench_compensation,
    bench_spa_timestamps,
    bench_jit
);
criterion_main!(ablations);
