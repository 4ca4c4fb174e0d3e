//! Cost-model sensitivity analysis.
//!
//! The simulator's conclusions should not hinge on the exact calibration
//! constants. This binary sweeps the two parameters that drive SPA's
//! catastrophe — the JVMTI event-dispatch cost and the interpreted-
//! instruction cost — and prints the resulting SPA overhead for the
//! extreme workloads (mtrt: tiniest methods; db: coarsest). The paper's
//! qualitative claims (SPA ≥ thousands of percent, mtrt ≫ db) hold across
//! the whole grid; only magnitudes move.

use jnativeprof::harness::AgentChoice;
use jvmsim_vm::cost::CostModel;
use jvmsim_vm::Vm;
use workloads::{by_name, ProblemSize, WorkloadProgram};

fn run_cycles(program: &WorkloadProgram, size: ProblemSize, cost: &CostModel, spa: bool) -> u64 {
    let mut vm = Vm::with_cost_model(cost.clone());
    program.load(&mut vm);
    if spa {
        AgentChoice::Spa.attach(&mut vm).expect("attach");
    }
    program.run(&mut vm, size).expect("run").total_cycles
}

fn main() {
    let size = ProblemSize(10);
    println!(
        "SPA overhead (%) under cost-model perturbation, size {}:",
        size.0
    );
    println!(
        "{:<26} {:>14} {:>14} {:>16}",
        "configuration", "mtrt SPA ovh", "db SPA ovh", "mtrt/db ratio"
    );
    let mtrt = by_name("mtrt").unwrap().program();
    let db = by_name("db").unwrap().program();
    for (label, event_dispatch, interp_insn) in [
        ("baseline (1200, 8)", 1_200u64, 8u64),
        ("cheap events (300, 8)", 300, 8),
        ("pricey events (2400, 8)", 2_400, 8),
        ("fast interp (1200, 4)", 1_200, 4),
        ("slow interp (1200, 16)", 1_200, 16),
        ("both low (300, 4)", 300, 4),
        ("both high (2400, 16)", 2_400, 16),
    ] {
        let mut cost = CostModel {
            event_dispatch,
            ..CostModel::default()
        };
        cost.tiers.interp_insn = interp_insn;
        let ovh = |program: &WorkloadProgram| {
            let base = run_cycles(program, size, &cost, false) as f64;
            let spa = run_cycles(program, size, &cost, true) as f64;
            (spa / base - 1.0) * 100.0
        };
        let m = ovh(&mtrt);
        let d = ovh(&db);
        println!("{label:<26} {m:>13.0}% {d:>13.0}% {:>15.1}x", m / d);
    }
    println!("\ninvariants across the grid: SPA overhead stays in the thousands of");
    println!("percent and mtrt (tiny methods) suffers several times more than db");
    println!("(coarse methods) — the paper's qualitative result is calibration-robust.");
}
