//! The unified run API: one [`Session`] builder instead of four stacked
//! free functions.
//!
//! The harness historically grew `run` → `run_traced` → `try_run_traced`
//! → `try_run_metered`, each adding one optional plane as a positional
//! argument. A [`Session`] names every plane instead:
//!
//! ```
//! use jnativeprof::harness::AgentChoice;
//! use jnativeprof::session::Session;
//! use jnativeprof::workloads::{by_name, ProblemSize};
//!
//! let workload = by_name("mtrt").unwrap();
//! let run = Session::new(workload.as_ref(), ProblemSize::S1)
//!     .agent(AgentChoice::ipa())
//!     .run()
//!     .unwrap();
//! assert!(run.profile.unwrap().percent_native() < 30.0);
//! ```
//!
//! A session can also carry a content-addressed [`CacheStore`]: static IPA
//! instrumentation is then memoized on the cache's instrumentation plane
//! (keyed by input archive bytes + wrapper configuration, so every cell
//! and every chaos seed shares one entry), and [`Session::result_key`]
//! derives the cell-result-plane identity the suite driver memoizes
//! completed rows under. Every cache hit re-verifies the stored digest;
//! a poisoned entry is quarantined and the work recomputed, so a cached
//! session can never differ from an uncached one by a single byte.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use jvmsim_cache::{CacheKey, CacheStore, Digest, KeyHasher, Plane};
use jvmsim_faults::{FaultInjector, FaultSite};
use jvmsim_instr::{instrumentation_cache_key, Archive};
use jvmsim_metrics::MetricsRegistry;
use jvmsim_pcl::Pcl;
use jvmsim_vm::cost::CostModel;
use jvmsim_vm::{builtins, TiersMode, TraceSink, Value, Vm};
use nativeprof::{InstrumentationMode, IpaAgent, NativeProfile};
use nativeprof_agents::{AllocReport, LockReport};
use workloads::{by_name, ProblemSize, Workload, WorkloadProgram};

use crate::harness::{AgentChoice, HarnessError};

/// An owned, `Send` description of one run: workload name, agent, size.
///
/// A [`Session`] borrows its `&dyn Workload`, so it cannot cross a thread
/// boundary — but a serve-plane request or a queued batch job must. A
/// `SessionSpec` is the owned form that travels: validate it once with
/// [`SessionSpec::parse`], hand it to a worker, and let the worker
/// materialize a borrowing `Session` via [`SessionSpec::with_session`].
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Workload name (resolvable via `workloads::by_name`).
    pub workload: String,
    /// Agent to attach.
    pub agent: AgentChoice,
    /// Problem size.
    pub size: ProblemSize,
    /// Tier pipeline ceiling (the `--tiers` axis).
    pub tiers: TiersMode,
}

impl SessionSpec {
    /// A spec from already-validated parts, at the default (full) tier
    /// pipeline.
    #[must_use]
    pub fn new(workload: impl Into<String>, agent: AgentChoice, size: ProblemSize) -> SessionSpec {
        SessionSpec {
            workload: workload.into(),
            agent,
            size,
            tiers: TiersMode::default(),
        }
    }

    /// The same spec with `tiers` selected.
    #[must_use]
    pub fn with_tiers(mut self, tiers: TiersMode) -> SessionSpec {
        self.tiers = tiers;
        self
    }

    /// Parse and validate textual fields — the single place run requests
    /// (CLI flags, HTTP bodies) become a runnable identity.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Usage`] naming the offending field: unknown
    /// workload, unknown agent label, a zero size, or an unknown tiers
    /// mode.
    pub fn parse(
        workload: &str,
        agent: &str,
        size: u32,
        tiers: &str,
    ) -> Result<SessionSpec, HarnessError> {
        if by_name(workload).is_none() {
            return Err(HarnessError::Usage(format!(
                "unknown workload '{workload}'"
            )));
        }
        let agent: AgentChoice = agent
            .parse()
            .map_err(|e: crate::harness::ParseAgentError| HarnessError::Usage(e.to_string()))?;
        if size == 0 {
            return Err(HarnessError::Usage("size must be >= 1".to_owned()));
        }
        let tiers: TiersMode = tiers
            .parse()
            .map_err(|e: jvmsim_vm::ParseTiersModeError| HarnessError::Usage(e.to_string()))?;
        Ok(SessionSpec::new(workload, agent, ProblemSize(size)).with_tiers(tiers))
    }

    /// Resolve the workload and hand a configured [`Session`] (agent and
    /// size applied, optional planes untouched) to `f`. The workload box
    /// lives for the duration of the call, which is what lets an owned
    /// spec drive the borrowing builder.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Vm`] if the workload name no longer resolves (a
    /// spec constructed via [`SessionSpec::parse`] cannot hit this).
    pub fn with_session<R>(&self, f: impl FnOnce(Session<'_>) -> R) -> Result<R, HarnessError> {
        let workload = by_name(&self.workload)
            .ok_or_else(|| HarnessError::Vm(format!("unknown workload {}", self.workload)))?;
        let session = Session::new(workload.as_ref(), self.size)
            .agent(self.agent.clone())
            .tiers(self.tiers);
        Ok(f(session))
    }

    /// Execute the spec with no optional planes.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run(&self) -> Result<RunOutcome, HarnessError> {
        self.with_session(|session| session.run())?
    }
}

/// Result of one [`Session`] run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Workload name.
    pub workload: String,
    /// Agent label (`original` / `SPA` / `IPA`).
    pub agent: &'static str,
    /// Raw VM outcome (per-thread cycles, ground-truth stats).
    pub outcome: jvmsim_vm::RunOutcome,
    /// The agent's native/bytecode time profile, if SPA or IPA ran.
    pub profile: Option<NativeProfile>,
    /// The allocation-site profile, if the ALLOC agent ran.
    pub alloc: Option<AllocReport>,
    /// The monitor-contention profile, if the LOCK agent ran.
    pub lock: Option<LockReport>,
    /// Virtual wall-clock seconds (total cycles at the PCL clock rate).
    pub seconds: f64,
    /// The workload checksum (for behavioural-equivalence checks).
    pub checksum: i64,
    /// The PCL registry of the run (for cycle→second conversions).
    pub pcl: Pcl,
    /// Whether static instrumentation was served from the session's cache:
    /// `None` when no cache was consulted (no cache configured, or the
    /// agent performs no static instrumentation), `Some(true)` on a
    /// verified hit, `Some(false)` on a miss (instrumented fresh, entry
    /// stored for the next run).
    pub instr_cache_hit: Option<bool>,
}

impl RunOutcome {
    /// JBB-style throughput: `units` completed per virtual second.
    pub fn throughput(&self, units: u64) -> f64 {
        if self.seconds > 0.0 {
            units as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Builder for one harness run. See the [module docs][self] for the
/// shape; every plane (agent, trace, faults, metrics, cache) is optional
/// and named.
#[derive(Clone)]
pub struct Session<'w> {
    workload: &'w dyn Workload,
    size: ProblemSize,
    agent: AgentChoice,
    tiers: TiersMode,
    trace: Option<Arc<dyn TraceSink>>,
    faults: Option<Arc<FaultInjector>>,
    metrics: Option<MetricsRegistry>,
    cache: Option<CacheStore>,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("workload", &self.workload.name())
            .field("size", &self.size)
            .field("agent", &self.agent.label())
            .field("tiers", &self.tiers.label())
            .field("trace", &self.trace.is_some())
            .field("faults", &self.faults.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl<'w> Session<'w> {
    /// A session for `workload` at `size`, with no agent and no optional
    /// planes — the "time original" baseline of Table I.
    #[must_use]
    pub fn new(workload: &'w dyn Workload, size: ProblemSize) -> Session<'w> {
        Session {
            workload,
            size,
            agent: AgentChoice::None,
            tiers: TiersMode::default(),
            trace: None,
            faults: None,
            metrics: None,
            cache: None,
        }
    }

    /// Attach a profiling agent.
    #[must_use]
    pub fn agent(mut self, agent: AgentChoice) -> Self {
        self.agent = agent;
        self
    }

    /// Cap the tier pipeline (the `--tiers` axis): interpreter only,
    /// interp→C1, or the full interp→C1→C2 pipeline.
    #[must_use]
    pub fn tiers(mut self, tiers: TiersMode) -> Self {
        self.tiers = tiers;
        self
    }

    /// Install a transition-trace sink before the agent attaches (so
    /// IPA's probes adopt it and J2N/N2J events land in the same recorder
    /// as the VM's thread/compile events). Tracing charges no cycles: a
    /// traced run's Table I/II quantities are identical to an untraced
    /// one's.
    #[must_use]
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Install a deterministic fault injector on the VM **before** the
    /// JVMTI shim attaches, so the VM, the shim's virtual clock, and the
    /// agents all share one fault schedule.
    #[must_use]
    pub fn faults(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Install a [`MetricsRegistry`] on the VM: each thread's ledger is
    /// absorbed into it when the thread ends. Recording never charges
    /// cycles; the caller snapshots the registry after the run.
    #[must_use]
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Consult `store` for memoized static instrumentation. Pass a handle
    /// scoped with [`CacheStore::with_metrics`]/[`CacheStore::with_faults`]
    /// to route hit/miss accounting and chaos corruption per cell.
    #[must_use]
    pub fn cache(mut self, store: CacheStore) -> Self {
        self.cache = Some(store);
        self
    }

    /// The cell-result-plane cache key identifying this session's
    /// deterministic outcome: a digest over the workload (name, size, and
    /// the exact program + boot archive bytes), the agent and its full
    /// configuration, the VM cost model, and the fault plan. Trace sinks
    /// and metrics registries are deliberately excluded — they never
    /// change a run's Table I/II quantities. Two sessions with equal keys
    /// produce bit-identical [`RunOutcome`] quantities; the suite driver
    /// memoizes completed rows under this key.
    ///
    /// Nothing is rebuilt per call: the program and its archive digest
    /// are built once per process for each workload name (see
    /// [`Workload::name`]), and the key itself is memoized per process
    /// under the fields it is derived from, so a warm cache hit costs a
    /// map lookup.
    ///
    /// # Panics
    ///
    /// Propagates a panic from [`Workload::program`] (the `crashy` drill
    /// workload panics on every call); [`crate::cell::result_key`] is the
    /// guarded form the row producers call.
    #[must_use]
    pub fn result_key(&self) -> CacheKey {
        /// At most this many keys are held; past it, keys are derived afresh.
        const CAP: usize = 4096;
        static MEMO: Mutex<BTreeMap<KeyFields, CacheKey>> = Mutex::new(BTreeMap::new());
        let fields = self.key_fields();
        let memo = || MEMO.lock().expect("nothing panics while holding the memo");
        if let Some(&key) = memo().get(&fields) {
            return key;
        }
        // Derived outside the lock: a panicking `program()` stores nothing.
        let key = self.derive_result_key();
        let mut memo = memo();
        if memo.len() < CAP {
            memo.insert(fields, key);
        }
        key
    }

    /// Everything [`Session::result_key`] is a function of besides the
    /// process-constant cost model and the per-process archive digest.
    fn key_fields(&self) -> KeyFields {
        KeyFields {
            workload: self.workload.name(),
            size: self.size.0 as u64,
            agent: self.agent.label(),
            tiers: self.tiers.label(),
            ipa: match &self.agent {
                AgentChoice::Ipa(config) => Some((
                    config.mode == InstrumentationMode::Dynamic,
                    config.compensate,
                    config.wrapper.digest().0,
                )),
                _ => None,
            },
            faults: self.faults.as_ref().map(|injector| {
                let plan = injector.plan();
                (plan.seed, plan.rates_ppm)
            }),
        }
    }

    /// [`Session::result_key`], derived afresh.
    fn derive_result_key(&self) -> CacheKey {
        let mut k = KeyHasher::new("cell-result");
        k.field_str("workload", self.workload.name());
        k.field_u64("size", self.size.0 as u64);
        k.field_str("agent", self.agent.label());
        k.field_str("tiers", self.tiers.label());
        if let AgentChoice::Ipa(config) = &self.agent {
            k.field_u64(
                "ipa_mode",
                match config.mode {
                    InstrumentationMode::Static => 0,
                    InstrumentationMode::Dynamic => 1,
                },
            );
            k.field_u64("ipa_compensate", u64::from(config.compensate));
            k.field_digest("wrapper", config.wrapper.digest());
        }
        absorb_cost_model(&mut k, &CostModel::default());
        match &self.faults {
            Some(injector) => {
                let plan = injector.plan();
                k.field_u64("fault_seed", plan.seed);
                for (i, &rate) in plan.rates_ppm.iter().enumerate() {
                    k.field_u64(&format!("fault_rate_{i}"), u64::from(rate));
                }
            }
            None => k.field_str("faults", "none"),
        }
        k.field_digest("archive", shared_program(self.workload).digest);
        k.finish()
    }

    /// Execute the session.
    ///
    /// The program comes from the same per-process memo as the key's
    /// digest. For [`AgentChoice::Ipa`] in static mode this performs the
    /// paper's full pipeline: the application archive **and** the
    /// bootstrap library (the `rt.jar` analog) are rewritten by the
    /// native-wrapper transform before the VM starts, and the wrapper
    /// prefix is announced via JVMTI. With a cache attached, the rewritten
    /// archive is served from (or stored to) the instrumentation plane.
    ///
    /// # Errors
    ///
    /// Every failure mode — instrumentation, attach, VM-level errors,
    /// escaped exceptions, bad checksums — comes back as a typed
    /// [`HarnessError`].
    ///
    /// # Panics
    ///
    /// As [`Session::result_key`]; [`crate::cell::run`] is the guarded
    /// form the row producers call.
    pub fn run(self) -> Result<RunOutcome, HarnessError> {
        let program = &shared_program(self.workload).program;
        let (archive, instr_cache_hit) =
            program_archive(program, &self.agent, self.cache.as_ref())?;
        let mut vm = Vm::new();
        vm.set_tiers_mode(self.tiers);
        if let Some(metrics) = &self.metrics {
            metrics.set_agent_bucket(self.agent.bucket());
            vm.set_metrics(metrics.clone());
        }
        if let Some(trace) = self.trace {
            vm.set_trace_sink(trace);
        }
        if let Some(faults) = &self.faults {
            vm.set_fault_injector(Arc::clone(faults));
        }
        program.load_archive(&mut vm, archive);
        let attached = self.agent.attach(&mut vm)?;

        let pcl = vm.pcl();
        let outcome = program
            .run(&mut vm, self.size)
            .map_err(|e| HarnessError::Vm(e.to_string()))?;
        let checksum = match &outcome.main {
            Ok(Value::Int(v)) => *v,
            Err(escaped) => return Err(HarnessError::Escaped(escaped.to_string())),
            other => return Err(HarnessError::BadChecksum(format!("{other:?}"))),
        };
        let (profile, alloc, lock) = attached.reports();
        Ok(RunOutcome {
            workload: self.workload.name().to_owned(),
            agent: self.agent.label(),
            seconds: pcl.cycles_to_seconds(outcome.total_cycles),
            outcome,
            profile,
            alloc,
            lock,
            checksum,
            pcl,
            instr_cache_hit,
        })
    }
}

/// The archive a run of `program` loads: the boot library plus the
/// program's classes, rewritten by the native-wrapper transform when
/// `agent` is static IPA. With a `cache`, the rewritten archive is served
/// from (or stored to) its instrumentation plane; the flag says whether
/// it was served (`None` when no cache was consulted).
///
/// # Errors
///
/// [`HarnessError::Instrument`] on a duplicate class name or a failed
/// transform.
pub fn program_archive(
    program: &WorkloadProgram,
    agent: &AgentChoice,
    cache: Option<&CacheStore>,
) -> Result<(Archive, Option<bool>), HarnessError> {
    let instrument_err = |e: jvmsim_instr::InstrError| HarnessError::Instrument(e.to_string());
    let mut archive = Archive::new();
    for (name, bytes) in builtins::boot_archive() {
        archive.insert_bytes(name, bytes).map_err(instrument_err)?;
    }
    for class in &program.classes {
        archive.insert_class(class).map_err(instrument_err)?;
    }
    let config = match agent {
        AgentChoice::Ipa(config) if config.mode == InstrumentationMode::Static => config,
        _ => return Ok((archive, None)),
    };
    let cache = cache.map(|store| (store, instrumentation_cache_key(&archive, &config.wrapper)));
    if let Some((store, key)) = &cache {
        if let Some(bytes) = store.lookup(Plane::Instrumentation, key) {
            // The entry's digest verified, so these are exactly the bytes a
            // fresh instrumentation run stored; a decode failure can only
            // mean a foreign/stale payload under this key — quarantine it
            // and recompute.
            match Archive::from_bytes(&bytes) {
                Ok(cached) => return Ok((cached, Some(true))),
                Err(_) => store.quarantine(Plane::Instrumentation, key),
            }
        }
    }
    IpaAgent::with_config(config.clone())
        .instrument_archive(&mut archive)
        .map_err(instrument_err)?;
    let Some((store, key)) = cache else {
        return Ok((archive, None));
    };
    // A failed store only means the next run pays instrumentation again.
    let _ = store.store(Plane::Instrumentation, &key, &archive.to_bytes());
    Ok((archive, Some(false)))
}

/// The fields a result key is derived from (see [`Session::key_fields`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct KeyFields {
    workload: &'static str,
    size: u64,
    agent: &'static str,
    tiers: &'static str,
    /// Dynamic mode, compensation and the wrapper digest, for IPA.
    ipa: Option<(bool, bool, [u8; 32])>,
    /// The fault plan's seed and rates.
    faults: Option<(u64, [u32; FaultSite::COUNT])>,
}

/// A workload's program with the digest of its uninstrumented
/// [`program_archive`].
struct SharedProgram {
    program: WorkloadProgram,
    digest: Digest,
}

/// `workload`'s program and archive digest, built once per process for
/// each workload name. [`Workload::program`] takes no size and is
/// deterministic, and a program keeps no state between VMs, so every run
/// and every key of one name shares one build.
fn shared_program(workload: &dyn Workload) -> Arc<SharedProgram> {
    static MEMO: Mutex<BTreeMap<&'static str, Arc<SharedProgram>>> = Mutex::new(BTreeMap::new());
    let memo = || MEMO.lock().expect("nothing panics while holding the memo");
    let name = workload.name();
    if let Some(shared) = memo().get(name) {
        return Arc::clone(shared);
    }
    // Built outside the lock, so a panicking `program()` neither poisons
    // the memo nor stores an entry. Racing threads build equal programs;
    // the first one stored is the one every caller gets.
    let program = workload.program();
    let (archive, _) = program_archive(&program, &AgentChoice::None, None)
        .expect("workload class names are unique");
    let digest = archive.digest();
    Arc::clone(
        memo()
            .entry(name)
            .or_insert(Arc::new(SharedProgram { program, digest })),
    )
}

/// Absorb every cost-model field, in declaration order, into a key. The
/// cost model is part of a run's identity: a recalibrated model must never
/// serve results cached under the old one.
fn absorb_cost_model(k: &mut KeyHasher, c: &CostModel) {
    for (name, v) in [
        ("interp_insn", c.tiers.interp_insn),
        ("c1_insn", c.tiers.c1_insn),
        ("c2_insn", c.tiers.c2_insn),
        ("call_overhead_interp", c.tiers.call_overhead_interp),
        ("call_overhead_c1", c.tiers.call_overhead_c1),
        ("call_overhead_c2", c.tiers.call_overhead_c2),
        (
            "c1_invocation_threshold",
            u64::from(c.tiers.c1_invocation_threshold),
        ),
        (
            "c2_invocation_threshold",
            u64::from(c.tiers.c2_invocation_threshold),
        ),
        (
            "osr_backedge_threshold",
            u64::from(c.tiers.osr_backedge_threshold),
        ),
        ("c1_compile_per_insn", c.tiers.c1_compile_per_insn),
        ("c2_compile_per_insn", c.tiers.c2_compile_per_insn),
        ("alloc_object", c.alloc_object),
        ("alloc_array_base", c.alloc_array_base),
        ("alloc_array_per_8", c.alloc_array_per_8),
        ("native_dispatch", c.native_dispatch),
        ("jni_invoke", c.jni_invoke),
        ("event_dispatch", c.event_dispatch),
        ("tls_access", c.tls_access),
        ("timestamp_read", c.timestamp_read),
        ("raw_monitor", c.raw_monitor),
        ("agent_logic", c.agent_logic),
        ("sample_dispatch", c.sample_dispatch),
    ] {
        k.field_u64(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_faults::FaultPlan;
    use std::sync::atomic::{AtomicU64, Ordering};
    use workloads::{by_name, AXIS};

    /// A fresh directory under the system temp dir, removed when dropped.
    struct Scratch(std::path::PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scratch(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "jnativeprof-session-test-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    #[test]
    fn session_runs_are_deterministic() {
        let w = by_name("compress").unwrap();
        let run = || {
            Session::new(w.as_ref(), ProblemSize::S1)
                .agent(AgentChoice::ipa())
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        assert_eq!(a.outcome.total_cycles, b.outcome.total_cycles);
        assert_eq!(a.agent, "IPA");
        assert_eq!(a.instr_cache_hit, None, "no cache configured");
    }

    #[test]
    fn instrumentation_cache_round_trip_is_invisible() {
        let dir = scratch("instr");
        let store = CacheStore::open(&dir.0).unwrap();
        let w = by_name("compress").unwrap();
        let run = |expect_hit: Option<bool>| {
            let r = Session::new(w.as_ref(), ProblemSize::S1)
                .agent(AgentChoice::ipa())
                .cache(store.clone())
                .run()
                .unwrap();
            assert_eq!(r.instr_cache_hit, expect_hit);
            (r.checksum, r.seconds.to_bits(), r.outcome.total_cycles)
        };
        let cold = run(Some(false));
        let warm = run(Some(true));
        assert_eq!(cold, warm, "cached instrumentation changed the run");
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().quarantined, 0);
    }

    #[test]
    fn corrupted_instrumentation_entry_recomputes() {
        let scratch = scratch("poison");
        let store = CacheStore::open(&scratch.0).unwrap();
        let w = by_name("compress").unwrap();
        let session = || {
            Session::new(w.as_ref(), ProblemSize::S1)
                .agent(AgentChoice::ipa())
                .cache(store.clone())
        };
        let cold = session().run().unwrap();
        // Poison the single instrumentation entry on disk.
        let dir = store.root().join("instr");
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let path = entries[0].as_ref().unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let warm = session().run().unwrap();
        assert_eq!(warm.instr_cache_hit, Some(false), "poison must not serve");
        assert_eq!(warm.checksum, cold.checksum);
        assert_eq!(warm.seconds.to_bits(), cold.seconds.to_bits());
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.quarantined_files(), 1);
        // The recomputed entry serves the third run.
        assert_eq!(session().run().unwrap().instr_cache_hit, Some(true));
    }

    #[test]
    fn session_spec_validates_and_matches_direct_runs() {
        assert!(matches!(
            SessionSpec::parse("nope", "ipa", 1, "full"),
            Err(HarnessError::Usage(_))
        ));
        assert!(matches!(
            SessionSpec::parse("compress", "jit", 1, "full"),
            Err(HarnessError::Usage(_))
        ));
        assert!(matches!(
            SessionSpec::parse("compress", "ipa", 0, "full"),
            Err(HarnessError::Usage(_))
        ));
        assert!(matches!(
            SessionSpec::parse("compress", "ipa", 1, "c9"),
            Err(HarnessError::Usage(_))
        ));
        let spec = SessionSpec::parse("compress", "IPA", 1, "full").unwrap();
        assert_eq!(spec.agent.label(), "IPA");
        let via_spec = spec.run().unwrap();
        let w = by_name("compress").unwrap();
        let direct = Session::new(w.as_ref(), ProblemSize::S1)
            .agent(AgentChoice::ipa())
            .run()
            .unwrap();
        assert_eq!(via_spec.checksum, direct.checksum);
        assert_eq!(via_spec.seconds.to_bits(), direct.seconds.to_bits());
        // The spec's key equals the borrowing session's key: a served
        // request and a batch cell share one cache identity.
        let spec_key = spec.with_session(|s| s.result_key()).unwrap();
        let direct_key = Session::new(w.as_ref(), ProblemSize::S1)
            .agent(AgentChoice::ipa())
            .result_key();
        assert_eq!(spec_key, direct_key);
    }

    fn ipa_key(name: &str) -> CacheKey {
        let w = by_name(name).unwrap();
        Session::new(w.as_ref(), ProblemSize::S1)
            .agent(AgentChoice::ipa())
            .result_key()
    }

    /// Every workload's key, derived in order starting at `first`.
    fn keys_from(first: usize) -> BTreeMap<&'static str, CacheKey> {
        let order = AXIS.iter().cycle().skip(first).take(AXIS.len());
        order.map(|&name| (name, ipa_key(name))).collect()
    }

    #[test]
    fn concurrent_key_derivation_matches_serial() {
        let barrier = std::sync::Barrier::new(4);
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let barrier = &barrier;
                    // Each thread starts at a different workload, so first
                    // derivations race each other.
                    scope.spawn(move || {
                        barrier.wait();
                        keys_from(2 * t)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let serial = keys_from(0);
        for keys in &concurrent {
            assert_eq!(keys, &serial);
        }
        // The memoized digest is the digest of a freshly built archive.
        for name in AXIS {
            let w = by_name(name).unwrap();
            let (fresh, _) = program_archive(&w.program(), &AgentChoice::None, None).unwrap();
            assert_eq!(shared_program(w.as_ref()).digest, fresh.digest(), "{name}");
        }
    }

    #[test]
    fn crashy_key_derivation_panics_every_time_and_poisons_nothing() {
        for _ in 0..3 {
            let payload = std::panic::catch_unwind(|| {
                Session::new(&workloads::Crashy, ProblemSize::S1).result_key()
            })
            .expect_err("crashy's program() panics");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .expect("a static panic message");
            assert!(
                message.contains("crashy: deliberate workload failure"),
                "{message}"
            );
        }
        // The memo's lock is not poisoned: every other key still derives.
        assert_eq!(keys_from(0).len(), AXIS.len());
    }

    #[test]
    fn result_key_separates_every_identity_component() {
        let w = by_name("compress").unwrap();
        let base = Session::new(w.as_ref(), ProblemSize::S1).agent(AgentChoice::ipa());
        let k = |s: &Session<'_>| s.result_key();
        assert_eq!(k(&base), k(&base.clone()), "key is deterministic");
        assert_ne!(
            k(&base),
            k(&Session::new(w.as_ref(), ProblemSize::S10).agent(AgentChoice::ipa())),
            "size"
        );
        assert_ne!(k(&base), k(&base.clone().agent(AgentChoice::Spa)), "agent");
        let other = by_name("db").unwrap();
        assert_ne!(
            k(&base),
            k(&Session::new(other.as_ref(), ProblemSize::S1).agent(AgentChoice::ipa())),
            "workload"
        );
        let inj = Arc::new(FaultInjector::new(FaultPlan::chaos(7)));
        assert_ne!(k(&base), k(&base.clone().faults(inj)), "fault plan");
        // Trace sinks and metrics never change quantities: same key.
        let recorder = jvmsim_trace::TraceRecorder::new(64);
        assert_eq!(
            k(&base),
            k(&base.clone().trace(recorder as Arc<dyn TraceSink>)),
            "trace sink is identity-neutral"
        );
    }

    #[test]
    fn memoized_result_keys_equal_fresh_derivations() {
        let plan = FaultPlan::chaos(11);
        for name in AXIS {
            let w = by_name(name).unwrap();
            let size = workloads::row_size(name, ProblemSize::S10);
            for agent in crate::harness::AGENT_AXIS {
                for tiers in TiersMode::ALL {
                    for faults in [None, Some(plan)] {
                        let mut s = Session::new(w.as_ref(), size)
                            .agent(agent.parse().unwrap())
                            .tiers(tiers);
                        if let Some(plan) = faults {
                            s = s.faults(Arc::new(FaultInjector::new(plan)));
                        }
                        let fresh = s.derive_result_key();
                        let cell = format!("{name}/{agent}/{}/{faults:?}", tiers.label());
                        assert_eq!(s.result_key(), fresh, "{cell}");
                        assert_eq!(s.result_key(), fresh, "{cell}, served by the memo");
                    }
                }
            }
        }
    }
}
