//! Sampling-vs-IPA comparison — the §VI related-work trade-off, measured.
//!
//! For each workload, runs a `tprof`-style timer sampler at several
//! intervals and compares (a) its native-share estimate against IPA's exact
//! measurement and (b) its overhead against IPA's. Demonstrates the paper's
//! characterization: sampling is cheaper but approximate, and produces no
//! JNI / native-method call counts at all.

use jnativeprof::harness::AgentChoice;
use jnativeprof::session::Session;
use jvmsim_vm::Vm;
use nativeprof::SamplingProfiler;
use workloads::{by_name, ProblemSize, WorkloadProgram, AXIS};

fn sample(program: &WorkloadProgram, size: ProblemSize, interval: u64) -> (f64, u64, u64) {
    let mut vm = Vm::new();
    program.load(&mut vm);
    let sampler = SamplingProfiler::new();
    sampler.install(&mut vm, interval);
    let outcome = program.run(&mut vm, size).expect("run");
    let estimate = sampler.estimate();
    (
        estimate.percent_native(),
        estimate.total(),
        outcome.total_cycles,
    )
}

fn main() {
    let size = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<u32>().ok())
        .map(ProblemSize)
        .unwrap_or(ProblemSize::S100);
    println!(
        "SAMPLING PROFILER (tprof-style, §VI) vs IPA at problem size {}",
        size.0
    );
    println!(
        "{:<12} {:>10} | {:>28} | {:>28} | {:>12}",
        "benchmark", "IPA %nat", "sampling@10k: %nat (ovh)", "sampling@100k: %nat (ovh)", "IPA ovh"
    );
    for &name in &AXIS[..7] {
        let workload = by_name(name).unwrap();
        let base = Session::new(workload.as_ref(), size).run().expect(name);
        let ipa = Session::new(workload.as_ref(), size)
            .agent(AgentChoice::ipa())
            .run()
            .expect(name);
        let ipa_pct = ipa.profile.as_ref().unwrap().percent_native();
        let ipa_ovh =
            100.0 * (ipa.outcome.total_cycles as f64 / base.outcome.total_cycles as f64 - 1.0);
        let program = workload.program();
        let mut cols = Vec::new();
        for interval in [10_000u64, 100_000] {
            let (pct, samples, cycles) = sample(&program, size, interval);
            let ovh = 100.0 * (cycles as f64 / base.outcome.total_cycles as f64 - 1.0);
            cols.push(format!("{pct:>6.2}% ({ovh:>5.2}%, n={samples})"));
        }
        println!(
            "{:<12} {:>9.2}% | {:>28} | {:>28} | {:>10.2}%",
            name, ipa_pct, cols[0], cols[1], ipa_ovh
        );
    }
    println!("\nsampling reports NO JNI / native-method call counts (structurally");
    println!("impossible for a PC sampler) — IPA's counts are exact; see Table II.");
}
