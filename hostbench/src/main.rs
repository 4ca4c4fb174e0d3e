//! `hostbench` — host wall-time benchmark of the jnativeprof stack.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload matrix-cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (README.md gives the reasons):
//!
//! * `matrix-cold` — the 40-cell workload × agent matrix at size 10,
//!   each pass against a fresh, empty result cache;
//! * `serve-warm` — closed-loop `POST /v1/run` warm hits on one keep-alive
//!   connection to an in-process daemon whose cache holds the size-1
//!   matrix.
//!
//! The seed fixes the order cells are delivered in. With `--trace 0` the
//! run reports end-to-end host wall times; with `--trace 1` it delivers
//! the same cells through the public calls each layer exposes, one span
//! per call, and reports per-layer means. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod cells;
mod ledger;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jvmsim_cache::CacheStore;

use crate::cells::{Cell, Checker};
use crate::ledger::{elapsed_nanos, Ledger};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MatrixCold,
    ServeWarm,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: hostbench --workload matrix-cold|serve-warm --seed N --seconds N --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "matrix-cold" => Workload::MatrixCold,
                    "serve-warm" => Workload::ServeWarm,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = WorkDir::create().and_then(|work| match args.workload {
        Workload::MatrixCold => run_matrix(&args, &work),
        Workload::ServeWarm => serve::run(&args, &work),
    });
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch space for cache stores under the working directory, removed
/// when dropped.
struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let root = Path::new(".hostbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(WorkDir { root })
    }

    /// A fresh, empty store named `name`.
    fn store(&self, name: &str) -> Result<CacheStore, String> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        CacheStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))
    }

    fn remove(&self, name: &str) {
        let _ = std::fs::remove_dir_all(self.root.join(name));
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Succeeds only when no other run is using the parent.
        let _ = std::fs::remove_dir(Path::new(".hostbench-work"));
    }
}

/// What one run measured.
struct Outcome {
    attempted: u64,
    checker: Checker,
    /// `(name, value, unit)`, in report order.
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checker.failures == 0,
            self.attempted,
            self.checker.failures,
            metrics.join(", ")
        )
    }
}

/// Wall times gathered while measuring, in nanoseconds.
#[derive(Default)]
struct Timings {
    setups: Vec<f64>,
    /// Each pass's op times.
    passes: Vec<Vec<f64>>,
}

impl Timings {
    /// Neighbours on a shared host slow every process for seconds at a
    /// time, by up to half again. A pass-level statistic's lower decile
    /// across the run's passes is what the code itself costs; its median
    /// mostly records how busy the host was. `setup_s` is the median of
    /// the set-ups.
    fn end_to_end(mut self) -> Vec<(String, f64, &'static str)> {
        let mut lower_decile = |stat: fn(&mut [f64]) -> f64| {
            let mut values: Vec<f64> = self.passes.iter_mut().map(|ops| stat(ops)).collect();
            percentile(&mut values, 10)
        };
        vec![
            (
                "pass_ms".to_owned(),
                lower_decile(|ops| ops.iter().sum()) / 1e6,
                "ms",
            ),
            (
                "op_p50_ms".to_owned(),
                lower_decile(|ops| percentile(ops, 50)) / 1e6,
                "ms",
            ),
            (
                "op_p90_ms".to_owned(),
                lower_decile(|ops| percentile(ops, 90)) / 1e6,
                "ms",
            ),
            (
                "setup_s".to_owned(),
                percentile(&mut self.setups, 50) / 1e9,
                "s",
            ),
        ]
    }
}

/// Nearest-rank percentile; sorts `values`.
fn percentile(values: &mut [f64], pct: usize) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let rank = (pct * values.len()).div_ceil(100).max(1);
    values.get(rank - 1).copied().unwrap_or(0.0)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cells in the order pass `pass` of a run seeded with `seed`
/// delivers them.
fn shuffled(cells: &[Cell], seed: u64, pass: u64) -> Vec<Cell> {
    let mut state = seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut order = cells.to_vec();
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Deliver `cell`, timing the whole delivery and, when tracing, each
/// layer inside it. Returns the wall time in nanoseconds.
fn deliver_timed(
    cell: &Cell,
    store: &CacheStore,
    ledger: Option<&mut Ledger>,
    checker: &mut Checker,
) -> f64 {
    let start = Instant::now();
    let (got, wall) = match ledger {
        None => {
            let got = cells::deliver(cell, store);
            (got, elapsed_nanos(start) as f64)
        }
        Some(ledger) => {
            let mark = ledger.mark();
            let got = cells::deliver_traced(cell, store, ledger);
            let wall = elapsed_nanos(start) as f64;
            ledger.close_op(wall, mark);
            (got, wall)
        }
    };
    checker.check(cell, &got);
    wall
}

/// After a traced run: deliver every cell once more on the untraced path,
/// into a fresh store, so the checker compares the two paths' rows.
fn cross_check(cells: &[Cell], work: &WorkDir, checker: &mut Checker) -> Result<u64, String> {
    let store = work.store("cross-check")?;
    for cell in cells {
        deliver_timed(cell, &store, None, checker);
    }
    work.remove("cross-check");
    Ok(cells.len() as u64)
}

/// `matrix-cold`: whole passes over the 40-cell matrix at size 10, each
/// against a fresh, empty result cache, until `--seconds` have elapsed.
/// One op is one delivered cell.
fn run_matrix(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let cells = cells::matrix(10);
    let mut checker = Checker::default();
    let mut timings = Timings::default();
    let mut attempted = 0u64;

    // Set-up: open an empty store and make one warm-up pass over the
    // size-1 matrix.
    let warmup = cells::matrix(1);
    for rep in 0..SETUP_REPS {
        let name = format!("setup-{rep}");
        let start = Instant::now();
        let store = work.store(&name)?;
        for cell in &warmup {
            deliver_timed(cell, &store, None, &mut checker);
        }
        timings.setups.push(elapsed_nanos(start) as f64);
        attempted += warmup.len() as u64;
        work.remove(&name);
    }

    let mut ledger = args.trace.then(Ledger::default);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while timings.passes.is_empty() || Instant::now() < deadline {
        let pass = timings.passes.len() as u64;
        let name = format!("pass-{pass}");
        let store = work.store(&name)?;
        let order = shuffled(&cells, args.seed, pass);
        let ops = order
            .iter()
            .map(|cell| deliver_timed(cell, &store, ledger.as_mut(), &mut checker))
            .collect();
        timings.passes.push(ops);
        attempted += order.len() as u64;
        work.remove(&name);
    }

    let metrics = match &ledger {
        None => timings.end_to_end(),
        Some(ledger) => {
            attempted += cross_check(&cells, work, &mut checker)?;
            ledger.metrics()
        }
    };
    Ok(Outcome {
        attempted,
        checker,
        metrics,
    })
}
