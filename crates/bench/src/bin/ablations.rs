//! Ablations of the design choices DESIGN.md calls out, in modeled cycles.
//!
//! Every number is a deterministic `total_cycles` total, so the output is
//! byte-identical from run to run and is pinned under
//! `tests/golden/stdout/ablations.txt`. Overhead is measured against the
//! no-agent run of the same workload and size; native % is the agent's
//! measured share of native execution.
//!
//! * Static (ahead-of-time) vs dynamic (class-load-hook) instrumentation,
//!   the §IV trade-off the paper discusses before choosing static.
//! * IPA with and without wrapper-cost compensation (§IV, last paragraph).
//! * SPA's "timestamps only at transitions" design goal (§III): SPA against
//!   a strawman that takes a timestamp on *every* entry and exit, and
//!   against the SPA-event mixed call-chain profiler (§VII).
//! * The raw JIT effect with no agent at all (`-Xint`): the mechanism
//!   behind SPA's overhead.

use std::sync::{Arc, OnceLock};

use jnativeprof::harness::AgentChoice;
use jnativeprof::session::Session;
use jvmsim_jvmti::{Agent, AgentHost, Capabilities, EventType, JvmtiEnv, JvmtiError};
use jvmsim_vm::{MethodView, ThreadInfo, Vm};
use nativeprof::{ChainProfiler, InstrumentationMode, IpaConfig};
use workloads::{by_name, ProblemSize, WorkloadProgram};

/// `(total_cycles, native %)` of one session run; native % is `None`
/// unless SPA or IPA ran.
fn session(name: &str, size: ProblemSize, agent: AgentChoice) -> (u64, Option<f64>) {
    let workload = by_name(name).unwrap();
    let run = Session::new(workload.as_ref(), size)
        .agent(agent)
        .run()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let native = run.profile.map(|p| p.percent_native());
    (run.outcome.total_cycles, native)
}

/// `total_cycles` of one run of `program` with `agent` attached (if any)
/// and the JIT requested or not.
fn raw(
    program: &WorkloadProgram,
    size: ProblemSize,
    agent: Option<Arc<dyn Agent>>,
    jit: bool,
) -> u64 {
    let mut vm = Vm::new();
    vm.set_jit_requested(jit);
    program.load(&mut vm);
    if let Some(agent) = agent {
        jvmsim_jvmti::attach(&mut vm, agent).expect("attach");
    }
    program.run(&mut vm, size).expect("run").total_cycles
}

/// Strawman: an agent that reads PCL on every method event, measuring what
/// SPA's "timestamps only at transitions" design goal saves.
struct TimestampEverything {
    env: OnceLock<JvmtiEnv>,
}

impl Agent for TimestampEverything {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        host.add_capabilities(Capabilities::spa());
        host.enable_event(EventType::MethodEntry)?;
        host.enable_event(EventType::MethodExit)?;
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

fn header() {
    println!(
        "  {:<30} {:>14} {:>12} {:>9}",
        "configuration", "total_cycles", "overhead", "native"
    );
}

fn row(label: &str, cycles: u64, base: u64, native: Option<f64>) {
    let overhead = 100.0 * (cycles as f64 / base as f64 - 1.0);
    let native = native.map_or_else(|| "-".to_owned(), |n| format!("{n:.2}%"));
    println!("  {label:<30} {cycles:>14} {overhead:>11.2}% {native:>9}");
}

fn main() {
    println!("ABLATIONS in modeled cycles (overhead against the no-agent run)");

    let size = ProblemSize::S10;
    println!("\nstatic vs dynamic instrumentation (IPA, size {})", size.0);
    header();
    for name in ["compress", "jack"] {
        let (base, _) = session(name, size, AgentChoice::None);
        row(&format!("{name} original"), base, base, None);
        for (label, mode) in [
            ("static", InstrumentationMode::Static),
            ("dynamic", InstrumentationMode::Dynamic),
        ] {
            let cfg = IpaConfig {
                mode,
                ..IpaConfig::default()
            };
            let (cycles, native) = session(name, size, AgentChoice::Ipa(cfg));
            row(&format!("{name} IPA {label}"), cycles, base, native);
        }
    }

    println!("\nwrapper-cost compensation (IPA on jack, size {})", size.0);
    header();
    let (base, _) = session("jack", size, AgentChoice::None);
    row("jack original", base, base, None);
    for (label, compensate) in [("on", true), ("off", false)] {
        let cfg = IpaConfig {
            compensate,
            ..IpaConfig::default()
        };
        let (cycles, native) = session("jack", size, AgentChoice::Ipa(cfg));
        row(
            &format!("jack IPA compensation {label}"),
            cycles,
            base,
            native,
        );
    }

    let size = ProblemSize::S1;
    println!("\ntimestamps only at transitions (mtrt, size {})", size.0);
    header();
    let program = by_name("mtrt").unwrap().program();
    let base = raw(&program, size, None, true);
    row("mtrt original", base, base, None);
    let (spa, native) = session("mtrt", size, AgentChoice::Spa);
    row("mtrt SPA", spa, base, native);
    let strawman = Arc::new(TimestampEverything {
        env: OnceLock::new(),
    });
    row(
        "mtrt timestamp every event",
        raw(&program, size, Some(strawman), true),
        base,
        None,
    );
    let chains = ChainProfiler::new([], 0);
    row(
        "mtrt ChainProfiler (SPA events)",
        raw(&program, size, Some(chains), true),
        base,
        None,
    );

    let size = ProblemSize(5);
    println!("\nJIT on vs off, no agent (mtrt, size {})", size.0);
    header();
    let on = raw(&program, size, None, true);
    let off = raw(&program, size, None, false);
    row("mtrt JIT on", on, on, None);
    row("mtrt JIT off (-Xint)", off, on, None);
    println!("  JIT off / on: {:.2}x", off as f64 / on as f64);
}
