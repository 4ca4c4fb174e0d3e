//! ALLOC — the object-centric allocation-site profiler.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use jvmsim_faults::FaultSite;
use jvmsim_jvmti::{Agent, AgentHost, Capabilities, EventType, JvmtiEnv, JvmtiError, ProbeKind};
use jvmsim_vm::{AllocationView, ThreadInfo, TraceEventKind, TraceSink};

/// Capacity of the allocation-site table. A new site arriving at a full
/// table (or a firing of the `alloc-site-overflow` fault) routes the
/// record to the overflow bin instead of dropping it, so
/// `total == Σ sites + overflow` always balances.
pub const MAX_ALLOC_SITES: usize = 1024;

/// An interned allocation site: `(class, method, bytecode index)`.
type SiteKey = (String, String, u32);

#[derive(Debug, Default, Clone, Copy)]
struct SiteStats {
    objects: u64,
    bytes: u64,
    /// Sum of the per-object allocation ticks (the allocating thread's
    /// uncharged clock reading); lifetimes are priced at report time as
    /// `objects × death_tick − alloc_ticks`.
    alloc_ticks: u64,
}

#[derive(Debug, Default)]
struct SiteTable {
    sites: BTreeMap<SiteKey, SiteStats>,
    overflow_objects: u64,
    overflow_bytes: u64,
    total_objects: u64,
    total_bytes: u64,
}

/// The ALLOC agent. Attach with [`jvmsim_jvmti::attach`]; read the
/// [`AllocReport`] after the run.
#[derive(Default)]
pub struct AllocAgent {
    env: OnceLock<JvmtiEnv>,
    trace: OnceLock<Arc<dyn TraceSink>>,
    table: Mutex<SiteTable>,
    /// `PCL.total_cycles()` at `VMDeath` — the tick object lifetimes end
    /// at (nothing is ever collected; see DESIGN.md on the no-GC model).
    death_tick: AtomicU64,
}

impl fmt::Debug for AllocAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AllocAgent")
            .field("attached", &self.env.get().is_some())
            .finish()
    }
}

impl AllocAgent {
    /// A fresh, unattached agent.
    pub fn new() -> Arc<AllocAgent> {
        Arc::new(AllocAgent {
            env: OnceLock::new(),
            trace: OnceLock::new(),
            table: Mutex::new(SiteTable::default()),
            death_tick: AtomicU64::new(0),
        })
    }

    /// The accumulated allocation-site profile. Defaults (all zero) if the
    /// agent was never attached.
    pub fn report(&self) -> AllocReport {
        let t = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        let death_tick = match self.death_tick.load(Ordering::Relaxed) {
            // No VMDeath seen (mid-run extraction): price against "now".
            0 => self.env.get().map_or(0, JvmtiEnv::total_cycles),
            tick => tick,
        };
        AllocReport {
            sites: t
                .sites
                .iter()
                .map(|((class, method, bci), s)| AllocSiteRow {
                    class: class.clone(),
                    method: method.clone(),
                    bci: *bci,
                    objects: s.objects,
                    bytes: s.bytes,
                    lifetime_cycles: (s.objects * death_tick).saturating_sub(s.alloc_ticks),
                })
                .collect(),
            overflow_objects: t.overflow_objects,
            overflow_bytes: t.overflow_bytes,
            total_objects: t.total_objects,
            total_bytes: t.total_bytes,
            death_tick,
        }
    }
}

impl Agent for AllocAgent {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        host.add_capabilities(Capabilities::alloc());
        host.enable_event(EventType::Allocation)?;
        host.enable_event(EventType::VmDeath)?;
        if let Some(trace) = host.vm().trace_sink() {
            let _ = self.trace.set(trace);
        }
        let _ = self.env.set(host.env());
        Ok(())
    }

    fn allocation(&self, thread: &ThreadInfo, alloc: AllocationView<'_>) {
        let Some(env) = self.env.get() else { return };
        // Self-timing span: every cycle below lands in the alloc_probe
        // bucket, and the span's measured cost feeds the probe histogram.
        let _span = env.probe_span(thread, ProbeKind::Alloc);
        env.charge(thread, env.costs().agent_logic);
        let tick = env.timestamp_unaccounted(thread).cycles();
        let mut t = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        t.total_objects += 1;
        t.total_bytes += alloc.bytes;
        let key = (
            alloc.site_class.to_owned(),
            alloc.site_method.to_owned(),
            alloc.bci,
        );
        let table_full = t.sites.len() >= MAX_ALLOC_SITES && !t.sites.contains_key(&key);
        if table_full || env.fault(FaultSite::AllocSiteOverflow).is_some() {
            t.overflow_objects += 1;
            t.overflow_bytes += alloc.bytes;
            return;
        }
        let s = t.sites.entry(key).or_default();
        s.objects += 1;
        s.bytes += alloc.bytes;
        s.alloc_ticks += tick;
        drop(t);
        if let Some(trace) = self.trace.get() {
            trace.record(thread.id(), TraceEventKind::AllocSite, tick, None);
        }
    }

    fn vm_death(&self, _threads: &[ThreadInfo]) {
        if let Some(env) = self.env.get() {
            self.death_tick.store(env.total_cycles(), Ordering::Relaxed);
        }
    }
}

/// One allocation site's accumulated statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSiteRow {
    /// Internal name of the class whose code allocated.
    pub class: String,
    /// Allocating method's name.
    pub method: String,
    /// Bytecode index of the allocating instruction (0 for native sites).
    pub bci: u32,
    /// Objects allocated at this site.
    pub objects: u64,
    /// Modeled bytes allocated at this site.
    pub bytes: u64,
    /// Summed object lifetimes in cycles (allocation tick to end-of-run;
    /// nothing is collected, so every object lives to `death_tick`).
    pub lifetime_cycles: u64,
}

/// The ALLOC agent's end-of-run profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocReport {
    /// Every recorded site, ordered by `(class, method, bci)`.
    pub sites: Vec<AllocSiteRow>,
    /// Objects routed to the overflow bin (table full or fault-diverted).
    pub overflow_objects: u64,
    /// Bytes routed to the overflow bin.
    pub overflow_bytes: u64,
    /// Every allocation observed, recorded or overflowed.
    pub total_objects: u64,
    /// Every allocated byte observed, recorded or overflowed.
    pub total_bytes: u64,
    /// The PCL tick lifetimes were priced against.
    pub death_tick: u64,
}

impl AllocReport {
    /// Bytes still live at the end of the run. The VM never collects, so
    /// this equals `total_bytes`; it exists so the chaos invariant
    /// `live_bytes ≤ allocated_bytes` is stated against the reported
    /// quantity, not against an assumption about the heap model.
    pub fn live_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Verify the ledger invariants; each violation becomes one line.
    ///
    /// * every observed object/byte is either at a site or in overflow;
    /// * `live_bytes ≤ allocated_bytes`;
    /// * per-site lifetime never exceeds `objects × death_tick`.
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let site_objects: u64 = self.sites.iter().map(|s| s.objects).sum();
        let site_bytes: u64 = self.sites.iter().map(|s| s.bytes).sum();
        if site_objects + self.overflow_objects != self.total_objects {
            violations.push(format!(
                "alloc object ledger unbalanced: {site_objects} at sites + {} overflow != {} total",
                self.overflow_objects, self.total_objects
            ));
        }
        if site_bytes + self.overflow_bytes != self.total_bytes {
            violations.push(format!(
                "alloc byte ledger unbalanced: {site_bytes} at sites + {} overflow != {} total",
                self.overflow_bytes, self.total_bytes
            ));
        }
        if self.live_bytes() > self.total_bytes {
            violations.push(format!(
                "live bytes {} exceed allocated bytes {}",
                self.live_bytes(),
                self.total_bytes
            ));
        }
        for s in &self.sites {
            if s.lifetime_cycles > s.objects * self.death_tick {
                violations.push(format!(
                    "site {}.{}:{} lifetime {} exceeds objects x death tick {}",
                    s.class,
                    s.method,
                    s.bci,
                    s.lifetime_cycles,
                    s.objects * self.death_tick
                ));
            }
        }
        violations
    }
}

impl fmt::Display for AllocReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ALLOC: {} objects / {} bytes at {} sites ({} objects / {} bytes overflowed)",
            self.total_objects,
            self.total_bytes,
            self.sites.len(),
            self.overflow_objects,
            self.overflow_bytes
        )?;
        writeln!(
            f,
            "{:<44} {:>4} {:>10} {:>12} {:>16}",
            "site (class.method)", "bci", "objects", "bytes", "lifetime_cycles"
        )?;
        for s in &self.sites {
            writeln!(
                f,
                "{:<44} {:>4} {:>10} {:>12} {:>16}",
                format!("{}.{}", s.class, s.method),
                s.bci,
                s.objects,
                s.bytes,
                s.lifetime_cycles
            )?;
        }
        Ok(())
    }
}
