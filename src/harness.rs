//! The experiment harness: run any workload under no agent, SPA, or IPA,
//! and collect the quantities the paper's Tables I and II report.
//!
//! The run entry points live in [`crate::session`]: build a
//! [`Session`](crate::session::Session), name the planes you want (agent,
//! trace, faults, metrics, cache), and call `run()`. The historical
//! positional free functions (`run` → `run_traced` → `try_run_traced` →
//! `try_run_metered`) lived here as deprecated shims for one release and
//! are gone; this module keeps the shared vocabulary — [`AgentChoice`],
//! [`HarnessError`] with its stable exit codes, and the paper's overhead
//! formulas.

use std::sync::Arc;

use jvmsim_jvmti::{Agent, JvmtiError};
use jvmsim_metrics::Bucket;
use jvmsim_vm::Vm;
use nativeprof::{IpaAgent, IpaConfig, NativeProfile, SpaAgent};
use nativeprof_agents::{AllocAgent, AllocReport, LockAgent, LockReport};

/// Typed failure taxonomy for a harness run — used by the suite driver to
/// quarantine failing cells instead of dying, by the serve daemon to map
/// run failures onto HTTP statuses, and by `jprof` as its single
/// exit-code path (see [`HarnessError::exit_code`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum HarnessError {
    /// Static instrumentation of the archive failed.
    Instrument(String),
    /// The agent could not be attached.
    Attach(String),
    /// The VM reported a machine-level error from `run`.
    Vm(String),
    /// An exception escaped the workload's entry method.
    Escaped(String),
    /// The entry method completed but did not return an `int` checksum.
    BadChecksum(String),
    /// The command line could not be understood (unknown subcommand, bad
    /// flag, bad value). The message includes usage text.
    Usage(String),
    /// An artifact could not be written or rendered.
    Artifact(String),
    /// A daemon could not bind its listen socket (address in use, bad
    /// address, no permission). Distinct from [`HarnessError::Artifact`]
    /// so supervisors can tell "port taken, back off and retry" from
    /// "disk problem" without parsing stderr.
    Bind(String),
    /// The run completed but degraded: cells were quarantined, invariants
    /// broke, or two views of the same data disagreed.
    Degraded(String),
    /// The run panicked (a workload bug, or the `crashy` drill workload).
    /// [`crate::cell::run`] catches the panic and carries its message
    /// here, so no producer of a cell row dies with the run.
    Panicked(String),
}

impl HarnessError {
    /// Stable process exit code for this failure class — the one `jprof`
    /// exits with, so scripts can distinguish "you typed it wrong" (2)
    /// from "the run degraded" (9) or "the run panicked" (11) without
    /// parsing stderr. `0` is success and `1` is reserved for
    /// untyped/unexpected exits, so every variant maps to a distinct
    /// code ≥ 2. (An uncaught Rust panic exits 101; a cell run never
    /// does, since [`crate::cell::run`] turns its panic into
    /// [`HarnessError::Panicked`].)
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            HarnessError::Usage(_) => 2,
            HarnessError::Instrument(_) => 3,
            HarnessError::Attach(_) => 4,
            HarnessError::Vm(_) => 5,
            HarnessError::Escaped(_) => 6,
            HarnessError::BadChecksum(_) => 7,
            HarnessError::Artifact(_) => 8,
            HarnessError::Degraded(_) => 9,
            HarnessError::Bind(_) => 10,
            HarnessError::Panicked(_) => 11,
        }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Instrument(e) => write!(f, "instrumentation failed: {e}"),
            HarnessError::Attach(e) => write!(f, "agent attach failed: {e}"),
            HarnessError::Vm(e) => write!(f, "vm error: {e}"),
            HarnessError::Escaped(e) => write!(f, "exception escaped entry method: {e}"),
            HarnessError::BadChecksum(e) => write!(f, "entry method returned {e}, expected int"),
            HarnessError::Usage(e) => write!(f, "{e}"),
            HarnessError::Artifact(e) => write!(f, "artifact error: {e}"),
            HarnessError::Bind(e) => write!(f, "bind failed: {e}"),
            HarnessError::Degraded(e) => write!(f, "{e}"),
            HarnessError::Panicked(e) => write!(f, "run panicked: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Which profiling agent (if any) to attach.
#[derive(Debug, Clone, Default)]
pub enum AgentChoice {
    /// No profiling — the "time original" baseline of Table I.
    #[default]
    None,
    /// The Simple Profiling Agent (§III).
    Spa,
    /// The Improved Profiling Agent (§IV) with the given configuration.
    Ipa(IpaConfig),
    /// The object-centric allocation-site profiler.
    Alloc,
    /// The raw-monitor contention profiler.
    Lock,
}

/// The label did not name a known agent. Displays the offending label and
/// the full valid set, so every front end (CLI flags, suite specs, HTTP
/// bodies) reports the same actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAgentError {
    got: String,
}

impl std::fmt::Display for ParseAgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown agent '{}' (valid: {})",
            self.got,
            AGENT_AXIS.join(", ")
        )
    }
}

impl std::error::Error for ParseAgentError {}

/// The agent axis of the workload × agent matrix, in column order, by
/// the lowercase name [`AgentChoice`]'s `FromStr` parses (and metric
/// exports label cells with). The suite driver's columns, the load
/// generator's request mix and the cluster drill's cells all walk it, so
/// its order is part of every matrix artifact's bytes.
pub const AGENT_AXIS: [&str; 5] = ["original", "spa", "ipa", "alloc", "lock"];

impl std::str::FromStr for AgentChoice {
    type Err = ParseAgentError;

    /// ASCII-case-insensitive, so run specs can say `ipa` or `IPA`; the
    /// one parser every front end shares.
    fn from_str(label: &str) -> Result<AgentChoice, ParseAgentError> {
        match label.to_ascii_lowercase().as_str() {
            "original" | "none" => Ok(AgentChoice::None),
            "spa" => Ok(AgentChoice::Spa),
            "ipa" => Ok(AgentChoice::ipa()),
            "alloc" => Ok(AgentChoice::Alloc),
            "lock" => Ok(AgentChoice::Lock),
            _ => Err(ParseAgentError {
                got: label.to_owned(),
            }),
        }
    }
}

impl AgentChoice {
    /// Default IPA (static instrumentation, compensation on).
    pub fn ipa() -> Self {
        AgentChoice::Ipa(IpaConfig::default())
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AgentChoice::None => "original",
            AgentChoice::Spa => "SPA",
            AgentChoice::Ipa(_) => "IPA",
            AgentChoice::Alloc => "ALLOC",
            AgentChoice::Lock => "LOCK",
        }
    }

    /// Parse a label back into a choice. `None` for anything unknown —
    /// callers that want the typed message use [`str::parse`] directly.
    #[must_use]
    pub fn parse(label: &str) -> Option<AgentChoice> {
        label.parse().ok()
    }

    /// The attribution bucket this agent's machinery charges into.
    pub fn bucket(&self) -> Bucket {
        match self {
            AgentChoice::None => Bucket::Workload,
            AgentChoice::Spa => Bucket::SpaProbe,
            AgentChoice::Ipa(_) => Bucket::IpaProbe,
            AgentChoice::Alloc => Bucket::AllocProbe,
            AgentChoice::Lock => Bucket::LockProbe,
        }
    }

    /// Create this choice's agent and attach it to `vm`;
    /// [`AgentChoice::None`] attaches nothing. Static IPA expects `vm` to
    /// hold the instrumented archive already (see
    /// [`crate::session::program_archive`]).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Attach`], prefixed with the agent's label.
    pub fn attach(&self, vm: &mut Vm) -> Result<Attached, HarnessError> {
        fn on<A: Agent + 'static>(
            vm: &mut Vm,
            agent: Arc<A>,
            report: fn(&A) -> AgentReports,
        ) -> Result<Attached, JvmtiError> {
            jvmsim_jvmti::attach(vm, Arc::clone(&agent) as Arc<dyn Agent>)?;
            Ok(Attached(Box::new(move || report(&agent))))
        }
        match self {
            AgentChoice::None => Ok(Attached(Box::new(|| (None, None, None)))),
            AgentChoice::Spa => on(vm, SpaAgent::new(), |a| (Some(a.report()), None, None)),
            AgentChoice::Ipa(config) => on(vm, IpaAgent::with_config(config.clone()), |a| {
                (Some(a.report()), None, None)
            }),
            AgentChoice::Alloc => on(vm, AllocAgent::new(), |a| (None, Some(a.report()), None)),
            AgentChoice::Lock => on(vm, LockAgent::new(), |a| (None, None, Some(a.report()))),
        }
        .map_err(|e| HarnessError::Attach(format!("{}: {e}", self.label())))
    }
}

/// The agent [`AgentChoice::attach`] put on a VM; read its reports once
/// the run is over.
pub struct Attached(Box<dyn Fn() -> AgentReports>);

impl Attached {
    /// What the agent has measured so far.
    #[must_use]
    pub fn reports(&self) -> AgentReports {
        (self.0)()
    }
}

/// An attached agent's reports, `(profile, alloc, lock)`: SPA and IPA
/// fill the native/bytecode time profile, ALLOC the allocation-site
/// profile, LOCK the monitor-contention profile.
pub type AgentReports = (
    Option<NativeProfile>,
    Option<AllocReport>,
    Option<LockReport>,
);

/// Overhead of `with` relative to `baseline`, as the paper computes it:
/// `(time_with / time_without − 1) × 100`.
pub fn overhead_percent(
    baseline: &crate::session::RunOutcome,
    with: &crate::session::RunOutcome,
) -> f64 {
    if baseline.seconds == 0.0 {
        return 0.0;
    }
    (with.seconds / baseline.seconds - 1.0) * 100.0
}

/// Throughput overhead for JBB: `(ops_without / ops_with − 1) × 100`.
/// A zero profiled throughput is a total collapse: reported as infinite
/// overhead, not zero.
pub fn throughput_overhead_percent(baseline: f64, with: f64) -> f64 {
    if with == 0.0 {
        return f64::INFINITY;
    }
    (baseline / with - 1.0) * 100.0
}

/// Geometric mean of a slice (used for the JVM98 summary row).
///
/// Inputs must be positive (they are times or overhead factors); a
/// non-positive value is a caller bug and yields `NaN` rather than a
/// silently collapsed mean.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    if values.iter().any(|&v| v <= 0.0) {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunOutcome;
    use workloads::by_name;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Non-positive input is a caller bug: surfaced as NaN.
        assert!(geometric_mean(&[0.0, 1.0]).is_nan());
    }

    #[test]
    fn overhead_math_matches_the_paper_formulas() {
        // (time_with / time_without − 1) × 100
        let mk = |seconds: f64| RunOutcome {
            workload: "x".into(),
            agent: "original",
            outcome: {
                let mut vm = jvmsim_vm::Vm::new();
                vm.add_classfile(
                    &jvmsim_classfile::builder::single_method_class("h/T", "f", "()I", |m| {
                        m.iconst(0).ireturn();
                    })
                    .unwrap(),
                );
                vm.run("h/T", "f", "()I", vec![]).unwrap()
            },
            profile: None,
            alloc: None,
            lock: None,
            seconds,
            checksum: 0,
            pcl: jvmsim_pcl::Pcl::new(),
            instr_cache_hit: None,
        };
        let base = mk(2.0);
        let with = mk(3.0);
        assert!((overhead_percent(&base, &with) - 50.0).abs() < 1e-9);
        // Throughput overhead: (ops_without / ops_with − 1) × 100.
        assert!((throughput_overhead_percent(7251.0, 66.4) - 10_820.18).abs() < 1.0);
        assert_eq!(throughput_overhead_percent(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn agent_choice_labels() {
        assert_eq!(AgentChoice::None.label(), "original");
        assert_eq!(AgentChoice::Spa.label(), "SPA");
        assert_eq!(AgentChoice::ipa().label(), "IPA");
        assert_eq!(AgentChoice::Alloc.label(), "ALLOC");
        assert_eq!(AgentChoice::Lock.label(), "LOCK");
        assert_eq!(AgentChoice::None.bucket(), Bucket::Workload);
        assert_eq!(AgentChoice::Spa.bucket(), Bucket::SpaProbe);
        assert_eq!(AgentChoice::ipa().bucket(), Bucket::IpaProbe);
        assert_eq!(AgentChoice::Alloc.bucket(), Bucket::AllocProbe);
        assert_eq!(AgentChoice::Lock.bucket(), Bucket::LockProbe);
    }

    #[test]
    fn error_exit_codes_are_distinct_and_reserved() {
        let variants = [
            HarnessError::Instrument(String::new()),
            HarnessError::Attach(String::new()),
            HarnessError::Vm(String::new()),
            HarnessError::Escaped(String::new()),
            HarnessError::BadChecksum(String::new()),
            HarnessError::Usage(String::new()),
            HarnessError::Artifact(String::new()),
            HarnessError::Degraded(String::new()),
            HarnessError::Bind(String::new()),
            HarnessError::Panicked(String::new()),
        ];
        let mut codes: Vec<u8> = variants.iter().map(HarnessError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), variants.len(), "exit codes must be distinct");
        // 0 = success, 1 = untyped exit: both reserved.
        assert!(codes.iter().all(|&c| c >= 2));
        assert_eq!(HarnessError::Usage(String::new()).exit_code(), 2);
        assert_eq!(HarnessError::Panicked(String::new()).exit_code(), 11);
    }

    #[test]
    fn agent_choice_parse_round_trips() {
        assert!(matches!(
            AgentChoice::parse("original"),
            Some(AgentChoice::None)
        ));
        assert!(matches!(
            AgentChoice::parse("none"),
            Some(AgentChoice::None)
        ));
        assert!(matches!(AgentChoice::parse("spa"), Some(AgentChoice::Spa)));
        assert!(matches!(AgentChoice::parse("SPA"), Some(AgentChoice::Spa)));
        assert!(matches!(
            AgentChoice::parse("IPA"),
            Some(AgentChoice::Ipa(_))
        ));
        assert!(matches!(
            AgentChoice::parse("alloc"),
            Some(AgentChoice::Alloc)
        ));
        assert!(matches!(
            AgentChoice::parse("LOCK"),
            Some(AgentChoice::Lock)
        ));
        assert!(AgentChoice::parse("jit").is_none());
        // The typed error names the bad label and the full valid set.
        let err = "jit".parse::<AgentChoice>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown agent 'jit' (valid: original, spa, ipa, alloc, lock)"
        );
        for choice in [
            AgentChoice::None,
            AgentChoice::Spa,
            AgentChoice::ipa(),
            AgentChoice::Alloc,
            AgentChoice::Lock,
        ] {
            let back = AgentChoice::parse(choice.label()).unwrap();
            assert_eq!(back.label(), choice.label());
        }
        // The axis names are the lowercased labels, in column order.
        let labels = AGENT_AXIS.map(|name| name.parse::<AgentChoice>().unwrap().label());
        assert_eq!(labels, ["original", "SPA", "IPA", "ALLOC", "LOCK"]);
        for (name, label) in AGENT_AXIS.iter().zip(labels) {
            assert_eq!(label.to_ascii_lowercase(), *name);
        }
    }

    #[test]
    fn run_outcome_throughput() {
        let w = by_name("jbb").unwrap();
        let r = crate::session::Session::new(w.as_ref(), workloads::ProblemSize(1))
            .run()
            .unwrap();
        let tx = r.checksum.max(0) as u64;
        assert!(tx > 0);
        let thr = r.throughput(tx);
        assert!(thr > 0.0);
        assert!((thr - tx as f64 / r.seconds).abs() < 1e-6);
    }
}
