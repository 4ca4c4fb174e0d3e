//! The workload × agent matrix, the two ways of delivering one cell row
//! (the batch path as-is, and the same path decomposed into timed public
//! calls), and the output checks.

use std::collections::HashMap;
use std::sync::Arc;

use jnativeprof::cell::{cell_row_json, decode_cell_entry, encode_cell_entry, CellQuantities};
use jnativeprof::harness::AgentChoice;
use jnativeprof::session::{RunOutcome, SessionSpec};
use jvmsim_cache::{CacheStore, Plane};
use jvmsim_classfile::{codec, validate};
use jvmsim_instr::{instrumentation_cache_key, Archive};
use jvmsim_jvmti::Agent;
use jvmsim_metrics::MetricsRegistry;
use jvmsim_vm::{builtins, Value, Vm};
use nativeprof::{InstrumentationMode, IpaAgent, SpaAgent};
use nativeprof_agents::{AllocAgent, LockAgent};
use workloads::{by_name, jvm98_suite, WorkloadProgram};

use crate::ledger::{Layer, Ledger};

const AGENTS: [&str; 5] = ["original", "spa", "ipa", "alloc", "lock"];

/// One (workload, agent, size) cell of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    pub workload: &'static str,
    pub agent: &'static str,
    pub size: u32,
}

/// The 40-cell matrix `jprof suite --size <size>` runs: seven JVM98
/// workloads and JBB (at a tenth of the size, at least 1) under each of
/// the five agents.
pub fn matrix(size: u32) -> Vec<Cell> {
    let jbb_size = size.max(10) / 10;
    jvm98_suite()
        .iter()
        .map(|w| (w.name(), size))
        .chain([("jbb", jbb_size)])
        .flat_map(|(workload, size)| {
            AGENTS.iter().map(move |&agent| Cell {
                workload,
                agent,
                size,
            })
        })
        .collect()
}

/// The workload's checksum — the simulated program's own result — pinned
/// from a reference run. It is the same under every agent and tier mode.
fn expected_checksum(workload: &str, size: u32) -> Option<i64> {
    Some(match (workload, size) {
        ("compress", 1) => 10_711_715,
        ("compress", 10) => 316_888_030_133_480,
        ("jess", 1) => 1_528_069_810_872,
        ("jess", 10) => 6_691_671_966_370_744_594,
        ("db", 1) => 11_882_445,
        ("db", 10) => 16_296_927,
        ("javac", 1) => 581_401,
        ("javac", 10) => 6_198_777,
        ("mpegaudio", 1) => 12_483_421,
        ("mpegaudio", 10) => 9_507_145,
        ("mtrt", 1) => 7_473_951,
        ("mtrt", 10) => 10_144_558,
        ("jack", 1) => 1_579_485,
        ("jack", 10) => 14_899_020,
        ("jbb", 1) => 200,
        _ => return None,
    })
}

/// A delivered cell: the canonical row bytes and the quantities behind them.
pub struct Delivered {
    pub row: String,
    pub cell: CellQuantities,
}

/// Deliver one cell the way the batch driver does with a cache attached
/// (`jprof suite --cache-dir`, `jprof run --cache-dir`): validate the
/// spec, look the result key up, and on a miss run the session with a
/// per-cell metrics registry, snapshot it, encode the row and store it.
pub fn deliver(cell: &Cell, store: &CacheStore) -> Result<Delivered, String> {
    let spec = parse_spec(cell)?;
    let key = spec
        .with_session(|s| s.result_key())
        .map_err(|e| e.to_string())?;
    if let Some(bytes) = store.lookup(Plane::CellResult, &key) {
        if let Some((quantities, _)) = decode_cell_entry(&bytes) {
            return Ok(render(&spec, quantities));
        }
    }
    let metrics = MetricsRegistry::new();
    let run = spec
        .with_session(|s| s.metrics(metrics.clone()).cache(store.clone()).run())
        .and_then(|run| run)
        .map_err(|e| e.to_string())?;
    let _snapshot = metrics.snapshot();
    let quantities = CellQuantities::from_run(&run);
    let entry = encode_cell_entry(&quantities, &[]);
    let delivered = render(&spec, quantities);
    store
        .store(Plane::CellResult, &key, &entry)
        .map_err(|e| format!("storing {cell:?}: {e}"))?;
    Ok(delivered)
}

fn parse_spec(cell: &Cell) -> Result<SessionSpec, String> {
    SessionSpec::parse(cell.workload, cell.agent, cell.size, "full").map_err(|e| e.to_string())
}

fn render(spec: &SessionSpec, cell: CellQuantities) -> Delivered {
    Delivered {
        row: cell_row_json(&spec.workload, spec.agent.label(), spec.size.0, &cell),
        cell,
    }
}

/// The agent a traced cell attached, kept for its report.
enum Attached {
    None,
    Spa(Arc<SpaAgent>),
    Ipa(Arc<IpaAgent>),
    Alloc(Arc<AllocAgent>),
    Lock(Arc<LockAgent>),
}

/// [`deliver`] decomposed into the public calls it and `Session::run`
/// make, each in its own span. Produces the same row bytes.
pub fn deliver_traced(
    cell: &Cell,
    store: &CacheStore,
    ledger: &mut Ledger,
) -> Result<Delivered, String> {
    let spec = ledger.time(Layer::RequestParse, || parse_spec(cell))?;
    let key = ledger
        .time(Layer::ResultKey, || spec.with_session(|s| s.result_key()))
        .map_err(|e| e.to_string())?;
    let cached = ledger.time(Layer::CacheRead, || store.lookup(Plane::CellResult, &key));
    if let Some(delivered) = cached.and_then(|bytes| {
        ledger.time(Layer::RowEncode, || {
            decode_cell_entry(&bytes).map(|(quantities, _)| render(&spec, quantities))
        })
    }) {
        return Ok(delivered);
    }
    let delivered = run_traced(&spec, store, ledger)?;
    let entry = ledger.time(Layer::RowEncode, || encode_cell_entry(&delivered.cell, &[]));
    ledger
        .time(Layer::CacheWrite, || {
            store.store(Plane::CellResult, &key, &entry)
        })
        .map_err(|e| format!("storing {cell:?}: {e}"))?;
    Ok(delivered)
}

/// The body of `Session::run` (with metrics and cache planes attached),
/// one span per public call.
fn run_traced(
    spec: &SessionSpec,
    store: &CacheStore,
    ledger: &mut Ledger,
) -> Result<Delivered, String> {
    let workload = by_name(&spec.workload).ok_or("unknown workload")?;
    let program = ledger.time(Layer::Program, || workload.program());
    let mut archive = ledger.time(Layer::Archive, || encode_archive(&program));
    let mut instr_cache_hit = None;
    if let AgentChoice::Ipa(config) = &spec.agent {
        if config.mode == InstrumentationMode::Static {
            let (key, cached) = ledger.time(Layer::CacheRead, || {
                let key = instrumentation_cache_key(&archive, &config.wrapper);
                let cached = store
                    .lookup(Plane::Instrumentation, &key)
                    .and_then(|bytes| Archive::from_bytes(&bytes).ok());
                (key, cached)
            });
            instr_cache_hit = Some(cached.is_some());
            match cached {
                Some(cached) => archive = cached,
                None => {
                    let agent = IpaAgent::with_config(config.clone());
                    ledger
                        .time(Layer::Instrument, || agent.instrument_archive(&mut archive))
                        .map_err(|e| e.to_string())?;
                    ledger
                        .time(Layer::CacheWrite, || {
                            store.store(Plane::Instrumentation, &key, &archive.to_bytes())
                        })
                        .map_err(|e| e.to_string())?;
                }
            }
        }
    }

    ledger.time(Layer::ClassfileDecode, || decode_archive(&archive))?;

    let metrics = MetricsRegistry::new();
    let (mut vm, attached) = ledger.time(Layer::VmSetup, || {
        let mut vm = Vm::new();
        vm.set_tiers_mode(spec.tiers);
        metrics.set_agent_bucket(spec.agent.bucket());
        vm.set_metrics(metrics.clone());
        vm.add_archive(archive);
        let attached = match &spec.agent {
            AgentChoice::None => Attached::None,
            AgentChoice::Spa => Attached::Spa(attach(&mut vm, SpaAgent::new())?),
            AgentChoice::Ipa(config) => {
                Attached::Ipa(attach(&mut vm, IpaAgent::with_config(config.clone()))?)
            }
            AgentChoice::Alloc => Attached::Alloc(attach(&mut vm, AllocAgent::new())?),
            AgentChoice::Lock => Attached::Lock(attach(&mut vm, LockAgent::new())?),
        };
        vm.register_native_library(builtins::libjava(), true);
        for lib in &program.libraries {
            vm.register_native_library(lib.clone(), true);
        }
        Ok::<_, String>((vm, attached))
    })?;

    let pcl = vm.pcl();
    let outcome = ledger
        .time(Layer::Interpret, || {
            vm.run(
                &program.entry_class,
                &program.entry_method,
                "(I)I",
                vec![Value::Int(i64::from(spec.size.0))],
            )
        })
        .map_err(|e| e.to_string())?;
    ledger.insns += outcome.stats.insns;
    let checksum = match &outcome.main {
        Ok(Value::Int(v)) => *v,
        other => return Err(format!("entry method returned {other:?}")),
    };

    let (mut profile, mut alloc, mut lock) = (None, None, None);
    ledger.time(Layer::AgentReport, || match &attached {
        Attached::None => {}
        Attached::Spa(a) => profile = Some(a.report()),
        Attached::Ipa(a) => profile = Some(a.report()),
        Attached::Alloc(a) => alloc = Some(a.report()),
        Attached::Lock(a) => lock = Some(a.report()),
    });
    ledger.time(Layer::Metrics, || metrics.snapshot());

    let run = RunOutcome {
        workload: spec.workload.clone(),
        agent: spec.agent.label(),
        seconds: pcl.cycles_to_seconds(outcome.total_cycles),
        outcome,
        profile,
        alloc,
        lock,
        checksum,
        pcl,
        instr_cache_hit,
    };
    Ok(ledger.time(Layer::RowEncode, || {
        render(spec, CellQuantities::from_run(&run))
    }))
}

fn attach<A: Agent + 'static>(vm: &mut Vm, agent: Arc<A>) -> Result<Arc<A>, String> {
    jvmsim_jvmti::attach(vm, Arc::clone(&agent) as Arc<dyn Agent>).map_err(|e| e.to_string())?;
    Ok(agent)
}

/// The boot library plus the program's classes, as `Session::run` loads them.
fn encode_archive(program: &WorkloadProgram) -> Archive {
    let mut archive = Archive::new();
    for (name, bytes) in builtins::boot_archive() {
        archive
            .insert_bytes(name, bytes)
            .expect("boot class names are unique");
    }
    for class in &program.classes {
        archive
            .insert_class(class)
            .expect("program class names are unique");
    }
    archive
}

fn decode_archive(archive: &Archive) -> Result<(), String> {
    for (name, bytes) in archive.iter() {
        let class = codec::decode(bytes).map_err(|e| format!("decoding {name}: {e}"))?;
        validate::validate_class(&class).map_err(|e| format!("validating {name}: {e}"))?;
    }
    Ok(())
}

/// Checks every delivered row: the workload's pinned checksum, the tier
/// columns inside the cycle total, the agent's own columns present, and
/// the same bytes every time the cell is delivered.
#[derive(Default)]
pub struct Checker {
    rows: HashMap<Cell, String>,
    pub failures: u64,
}

impl Checker {
    /// Check one delivery attempt.
    pub fn check(&mut self, cell: &Cell, got: &Result<Delivered, String>) {
        let verdict = match got {
            Err(e) => Err(e.clone()),
            Ok(d) => self.verify(cell, d),
        };
        self.record(cell, verdict)
    }

    /// Count a failed verdict, with a stderr line for the first few.
    pub fn record(&mut self, cell: &Cell, verdict: Result<(), String>) {
        let Err(why) = verdict else { return };
        self.failures += 1;
        if self.failures <= 5 {
            eprintln!(
                "hostbench: {}/{} size {}: {why}",
                cell.workload, cell.agent, cell.size
            );
        }
    }

    fn verify(&mut self, cell: &Cell, d: &Delivered) -> Result<(), String> {
        let q = &d.cell;
        let expected = expected_checksum(cell.workload, cell.size)
            .ok_or_else(|| "no pinned checksum for this size".to_owned())?;
        if q.checksum != expected {
            return Err(format!("checksum {} != pinned {expected}", q.checksum));
        }
        let t = &q.tiers;
        if t.interp + t.c1 + t.c2 + t.c1_compile + t.c2_compile > q.total_cycles {
            return Err("tier columns exceed total_cycles".to_owned());
        }
        let own_columns = match cell.agent {
            "ipa" => q.profile.is_some(),
            "alloc" => q.alloc.is_some(),
            "lock" => q.lock.is_some(),
            _ => true,
        };
        if !own_columns {
            return Err("agent columns missing".to_owned());
        }
        match self.rows.get(cell) {
            Some(first) if *first != d.row => {
                Err("row bytes changed between deliveries".to_owned())
            }
            Some(_) => Ok(()),
            None => {
                self.rows.insert(*cell, d.row.clone());
                Ok(())
            }
        }
    }

    /// The first row delivered for `cell`.
    pub fn row(&self, cell: &Cell) -> Option<&str> {
        self.rows.get(cell).map(String::as_str)
    }
}
