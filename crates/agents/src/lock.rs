//! LOCK — the raw-monitor contention profiler.
//!
//! The simulated VM has no Java-level `monitorenter`; the synchronization
//! that exists — and that the paper's own agents lean on — is the JVMTI
//! raw-monitor plane. LOCK profiles exactly that plane: it enables the
//! monitor ledger (gated on `can_observe_raw_monitors`) and then, like
//! SPA/IPA, funnels its own per-thread bookkeeping through a raw monitor
//! of its own, so the agent's real synchronization traffic is what gets
//! measured. Contention is modeled deterministically: an entry by a
//! thread other than the monitor's previous owner is contended, and the
//! waiting thread is charged the previous owner's last hold duration —
//! cycles that land in the `lock_probe` attribution bucket and on the
//! waiter's PCL clock.

use std::fmt;
use std::sync::{Arc, OnceLock};

use jvmsim_jvmti::{
    Agent, AgentHost, Capabilities, EventType, JvmtiEnv, JvmtiError, LedgerSnapshot, MonitorRow,
    ProbeKind, RawMonitor, VmEventSink,
};
use jvmsim_vm::ThreadInfo;

#[derive(Debug, Default)]
struct LockTotals {
    thread_starts: u64,
    thread_ends: u64,
}

/// The LOCK agent. Attach with [`jvmsim_jvmti::attach`]; read the
/// [`LockReport`] after the run.
#[derive(Default)]
pub struct LockAgent {
    env: OnceLock<JvmtiEnv>,
    totals: OnceLock<RawMonitor<LockTotals>>,
}

impl fmt::Debug for LockAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockAgent")
            .field("attached", &self.env.get().is_some())
            .finish()
    }
}

impl LockAgent {
    /// A fresh, unattached agent.
    pub fn new() -> Arc<LockAgent> {
        Arc::new(LockAgent::default())
    }

    /// The accumulated contention profile. Defaults (no monitors) if the
    /// agent was never attached.
    pub fn report(&self) -> LockReport {
        let snapshot = self
            .env
            .get()
            .map(|env| env.monitor_ledger().snapshot())
            .unwrap_or_default();
        LockReport { snapshot }
    }

    /// Update the global statistics under the agent's own raw monitor —
    /// the paper's "overall profiling statistics … updated upon thread
    /// termination" pattern, which is precisely the traffic the ledger
    /// observes.
    fn update_totals(&self, thread: &ThreadInfo, start: bool) {
        let (Some(env), Some(totals)) = (self.env.get(), self.totals.get()) else {
            return;
        };
        let _span = env.probe_span(thread, ProbeKind::Lock);
        let mut g = totals.enter(thread);
        // The update itself costs cycles *while the monitor is held* —
        // this hold duration is what prices the next contended entry.
        env.charge(thread, env.costs().agent_logic);
        if start {
            g.thread_starts += 1;
        } else {
            g.thread_ends += 1;
        }
    }
}

impl Agent for LockAgent {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        host.add_capabilities(Capabilities::lock());
        host.observe_raw_monitors()?;
        host.enable_event(EventType::ThreadStart)?;
        host.enable_event(EventType::ThreadEnd)?;
        host.enable_event(EventType::VmDeath)?;
        let env = host.env();
        if let Some(trace) = host.vm().trace_sink() {
            env.monitor_ledger().set_trace(trace);
        }
        let _ = self
            .totals
            .set(env.create_raw_monitor("LOCK totals", LockTotals::default()));
        let _ = self.env.set(env);
        Ok(())
    }
}

impl VmEventSink for LockAgent {
    fn thread_start(&self, thread: &ThreadInfo) {
        self.update_totals(thread, true);
    }

    fn thread_end(&self, thread: &ThreadInfo) {
        self.update_totals(thread, false);
    }
}

/// The LOCK agent's end-of-run profile: a snapshot of the monitor ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockReport {
    /// The ledger: every registered monitor plus the per-thread blocked
    /// cycle counts.
    pub snapshot: LedgerSnapshot,
}

impl LockReport {
    /// Per-monitor rows, in monitor-creation order.
    pub fn monitors(&self) -> &[MonitorRow] {
        &self.snapshot.monitors
    }

    /// Total acquisitions across all monitors.
    pub fn total_entries(&self) -> u64 {
        self.snapshot.total_entries()
    }

    /// Total contended (recorded) acquisitions.
    pub fn total_contended(&self) -> u64 {
        self.snapshot.total_contended()
    }

    /// Total blocked cycles (per-monitor side of the double ledger).
    pub fn total_blocked_cycles(&self) -> u64 {
        self.snapshot.total_blocked()
    }

    /// Total contention records diverted by the fault plane.
    pub fn total_discarded(&self) -> u64 {
        self.snapshot.total_discarded()
    }

    /// Verify the ledger invariants; each violation becomes one line.
    ///
    /// * `contended ≤ entries` per monitor (and discards never exceed the
    ///   contention they were diverted from);
    /// * the blocked-cycle ledger balances: cycles charged to waiting
    ///   threads equal cycles accounted against monitors.
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for m in &self.snapshot.monitors {
            if m.contended + m.discarded > m.entries {
                violations.push(format!(
                    "monitor {:?}: contended {} + discarded {} exceed entries {}",
                    m.name, m.contended, m.discarded, m.entries
                ));
            }
        }
        let per_thread: u64 = self.snapshot.per_thread_blocked.iter().sum();
        if per_thread != self.total_blocked_cycles() {
            violations.push(format!(
                "blocked-cycle ledger unbalanced: {} charged to threads vs {} against monitors",
                per_thread,
                self.total_blocked_cycles()
            ));
        }
        violations
    }
}

impl fmt::Display for LockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "LOCK: {} entries / {} contended / {} cycles blocked ({} records discarded)",
            self.total_entries(),
            self.total_contended(),
            self.total_blocked_cycles(),
            self.total_discarded()
        )?;
        writeln!(
            f,
            "{:<28} {:>8} {:>10} {:>16} {:>10}",
            "monitor", "entries", "contended", "blocked_cycles", "discarded"
        )?;
        for m in &self.snapshot.monitors {
            writeln!(
                f,
                "{:<28} {:>8} {:>10} {:>16} {:>10}",
                m.name, m.entries, m.contended, m.blocked_cycles, m.discarded
            )?;
        }
        Ok(())
    }
}
