//! jvmsim-faults — a seeded, fully deterministic fault-injection plane.
//!
//! The paper's IPA design (§IV) is only correct because its
//! `J2N_Begin()`/`J2N_End()` brackets survive *abnormal* control flow:
//! exceptions unwinding out of prefixed native methods through the
//! `try/finally` wrapper, and pending JNI exceptions crossing the
//! intercepted `Call<Type>Method` table. This crate supplies the adversary:
//! a [`FaultInjector`] the VM, JVMTI shim, trace recorder, and suite driver
//! consult at well-defined hook points, plus a [`TransitionLedger`] that
//! pins the accounting invariants (every `J2N_Begin` matched by a
//! `J2N_End`, N2J nesting depth returning to zero per thread) the agents
//! must uphold while the faults fire.
//!
//! Everything is deterministic: the decision at the *n*-th consultation of
//! a site is a pure function of `(seed, site, n)`, so two runs with the
//! same plan inject exactly the same schedule regardless of wall-clock
//! time, and a failing chaos seed reproduces byte-for-byte.
//!
//! This crate sits at the bottom of the workspace dependency stack and
//! depends only on the dependency-free `jvmsim-metrics` (for its
//! `id_table!` macro); threads are identified by raw `usize`
//! indices so it needs no knowledge of the VM's `ThreadId`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// SplitMix64 — the mixing function behind every injection decision.
///
/// Chosen because it is a bijection on `u64` with good avalanche behaviour
/// and needs no state beyond its input, which keeps per-site decisions a
/// pure function of `(seed, site, consultation index)`.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

jvmsim_metrics::id_table! {
    /// The hook points where a fault can fire. Each consumer consults exactly
    /// the sites it owns; the injector tracks consultations and injections per
    /// site so a chaos run can report coverage.
    ///
    /// New sites are appended, never inserted: per-site decision streams are
    /// salted by index, so appending leaves every existing schedule (and
    /// every cached cell entry recording site tallies) untouched.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FaultSite {
        /// Force an exception to unwind out of a (possibly prefixed) native
        /// method just as it would otherwise have returned normally — the
        /// paper's `try/finally` wrapper semantics must keep J2N accounting
        /// balanced (checked by the interpreter's `invoke_native`).
        NativeUnwind => "native-unwind",
        /// Materialise a pending exception at the return of an intercepted JNI
        /// `Call<Type>Method` function, after the N2J bracket has closed
        /// (checked by `JniEnv::call`).
        NativePendingThrow => "pending-throw",
        /// Abrupt asynchronous thread death: `java/lang/ThreadDeath` thrown at
        /// an interpreter safepoint poll.
        ThreadDeath => "thread-death",
        /// Truncate the classfile byte stream handed to the decoder at load
        /// time; the VM must degrade to a Java-level linkage error.
        ClassBytes => "class-bytes",
        /// Force the trace ring to drop an event as if saturated; the
        /// `recorded + dropped == appended` ledger must still balance.
        TraceSaturation => "trace-saturation",
        /// Fail an artifact/exporter write; the driver must record the failure
        /// instead of panicking.
        ExporterWrite => "exporter-write",
        /// Per-thread clock stall: a timestamp read observes an anomalously
        /// late clock (extra cycles charged before the read).
        ClockStall => "clock-stall",
        /// Per-thread clock step-back: a timestamp read observes an earlier
        /// instant than the previous read; meters must saturate, not underflow.
        ClockStepBack => "clock-step-back",
        /// Flip a byte of a content-addressed cache entry as it is read back;
        /// digest verification must catch the poison, quarantine the entry and
        /// recompute — a corrupted cache may cost time, never correctness.
        CacheCorrupt => "cache-corrupt",
        /// A serve-plane client stalls mid-request: the daemon's read loop
        /// observes a request that never completes within its deadline and must
        /// answer `408` and close the connection, counting the request exactly
        /// once in the admission ledger.
        ServeSlowRead => "serve-slow-read",
        /// The connection drops just before the daemon writes its response; the
        /// request must still be accounted (accepted + dropped) and never
        /// double-executed or double-counted.
        ServeConnDrop => "serve-conn-drop",
        /// The ALLOC agent's allocation-site table refuses a new site as if
        /// full; the record must be routed to the overflow bin so
        /// `total_objects == Σ site objects + overflow` still balances.
        AllocSiteOverflow => "alloc-site-overflow",
        /// A LOCK-agent contention record is dropped as if the monitor ledger
        /// were corrupted; the agent must count the discard so
        /// `observed == recorded + discarded` and `contended ≤ entries` hold.
        MonitorLedgerCorrupt => "monitor-ledger-corrupt",
        /// A cluster peer-fetch connection drops before the entry arrives; the
        /// fetching node must fall through its retry budget to the next tier
        /// (another peer, then local recompute) without ever serving a partial
        /// entry.
        PeerConnDrop => "peer-conn-drop",
        /// A cluster peer-fetch read stalls past its per-attempt timeout; the
        /// seeded backoff policy must retry or degrade, never hang the
        /// requesting worker.
        PeerSlowRead => "peer-slow-read",
        /// A fleet member crashes outright mid-run; the cluster drill kills the
        /// daemon at this consultation, and routing must fail over to the
        /// consistent-hash successor while every surviving ledger stays
        /// balanced.
        MemberCrash => "member-crash",
        /// The span plane's collection ring refuses a request's span batch as
        /// if saturated; the plane must count every dropped record so
        /// `appended + dropped` still covers all finished spans and drill
        /// invariants are checked only over survivors.
        SpanBufferSaturation => "span-buffer-saturation",
        /// A tier compile (C1 or C2) aborts partway — the compiler thread is
        /// modeled as bailing out. Half the compile cost has already been
        /// charged to the compile bucket; the method must stay at its current
        /// tier with its invocation counter reset, and the bucket ledger must
        /// still partition `total_cycles` exactly.
        TierCompileAbort => "tier-compile-abort",
    }
}

impl FaultSite {
    /// Per-site salt mixed into every decision so sites with equal rates
    /// do not fire in lockstep.
    #[inline]
    const fn salt(self) -> u64 {
        (self.index() as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Denominator of all injection rates: rates are expressed in parts per
/// million of consultations.
pub const PPM: u32 = 1_000_000;

/// A fault schedule: seed plus per-site rates. `Copy` so suite configs
/// embedding a plan stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed from which every injection decision is derived.
    pub seed: u64,
    /// Per-site injection rates in parts per million, indexed by
    /// [`FaultSite::index`].
    pub rates_ppm: [u32; FaultSite::COUNT],
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    #[must_use]
    pub const fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates_ppm: [0; FaultSite::COUNT],
        }
    }

    /// Set one site's rate (parts per million, clamped to [`PPM`]).
    #[must_use]
    pub const fn with_rate(mut self, site: FaultSite, ppm: u32) -> FaultPlan {
        self.rates_ppm[site.index()] = if ppm > PPM { PPM } else { ppm };
        self
    }

    /// The default chaos mix used by `jprof chaos`: every site armed, at
    /// rates tuned so a single S1 suite cell sees a handful of injections
    /// per site class without drowning in them.
    #[must_use]
    pub const fn chaos(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_rate(FaultSite::NativeUnwind, 8_000)
            .with_rate(FaultSite::NativePendingThrow, 8_000)
            .with_rate(FaultSite::ThreadDeath, 300)
            .with_rate(FaultSite::ClassBytes, 15_000)
            .with_rate(FaultSite::TraceSaturation, 20_000)
            .with_rate(FaultSite::ExporterWrite, 250_000)
            .with_rate(FaultSite::ClockStall, 10_000)
            .with_rate(FaultSite::ClockStepBack, 10_000)
            .with_rate(FaultSite::CacheCorrupt, 150_000)
            .with_rate(FaultSite::ServeSlowRead, 60_000)
            .with_rate(FaultSite::ServeConnDrop, 60_000)
            .with_rate(FaultSite::AllocSiteOverflow, 20_000)
            .with_rate(FaultSite::MonitorLedgerCorrupt, 20_000)
            .with_rate(FaultSite::PeerConnDrop, 60_000)
            .with_rate(FaultSite::PeerSlowRead, 60_000)
            .with_rate(FaultSite::MemberCrash, 40_000)
            .with_rate(FaultSite::SpanBufferSaturation, 20_000)
            .with_rate(FaultSite::TierCompileAbort, 30_000)
    }

    /// True if every rate is zero (the plan can never inject).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.rates_ppm.iter().all(|&r| r == 0)
    }
}

/// The injector consulted at each hook point.
///
/// Consumers call [`FaultInjector::inject`] with their site; `None` means
/// "no fault here", `Some(entropy)` means "fault fires" and hands back 64
/// deterministic bits the site can use to size the fault (cycles to stall,
/// bytes to truncate, …). The disabled injector answers `None` without
/// touching any atomics, so an un-armed VM pays one branch per hook.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    enabled: bool,
    consulted: [AtomicU64; FaultSite::COUNT],
    injected: [AtomicU64; FaultSite::COUNT],
}

impl FaultInjector {
    /// An injector executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            enabled: !plan.is_inert(),
            plan,
            consulted: Default::default(),
            injected: Default::default(),
        }
    }

    /// The always-off injector; [`FaultInjector::inject`] is a single
    /// branch. This is what a VM holds when no chaos is requested.
    #[must_use]
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultPlan::new(0))
    }

    /// Whether this injector can ever fire.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The plan in force.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Consult the plane at `site`. Returns `Some(entropy)` iff the fault
    /// fires at this consultation; the decision depends only on
    /// `(plan.seed, site, consultation index)`.
    #[inline]
    pub fn inject(&self, site: FaultSite) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let rate = self.plan.rates_ppm[site.index()];
        if rate == 0 {
            return None;
        }
        let n = self.consulted[site.index()].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.plan.seed ^ site.salt() ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if h % u64::from(PPM) < u64::from(rate) {
            self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
            Some(splitmix64(h))
        } else {
            None
        }
    }

    /// How many times `site` has been consulted.
    #[must_use]
    pub fn consulted(&self, site: FaultSite) -> u64 {
        self.consulted[site.index()].load(Ordering::Relaxed)
    }

    /// How many times `site` actually fired.
    #[must_use]
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total injections across all sites.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.injected(s)).sum()
    }

    /// `(site, consulted, injected)` for every site, in [`FaultSite::ALL`]
    /// order — what a chaos run prints as its coverage table.
    #[must_use]
    pub fn summary(&self) -> Vec<(FaultSite, u64, u64)> {
        FaultSite::ALL
            .iter()
            .map(|&s| (s, self.consulted(s), self.injected(s)))
            .collect()
    }
}

/// A bytecode↔native transition event fed to the [`TransitionLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// Entering native code from bytecode (`J2N_Begin`).
    J2nBegin,
    /// Returning from native code to bytecode (`J2N_End`), normal or
    /// exceptional.
    J2nEnd,
    /// A JNI `Call<Type>Method` re-entering bytecode (`N2J_Begin`).
    N2jBegin,
    /// That call returning to native code (`N2J_End`), normal or
    /// exceptional.
    N2jEnd,
}

/// Per-thread transition tallies.
#[derive(Debug, Default, Clone, Copy)]
struct ThreadTally {
    j2n_begins: u64,
    j2n_ends: u64,
    n2j_begins: u64,
    n2j_ends: u64,
    j2n_depth: i64,
    n2j_depth: i64,
    depth_went_negative: bool,
}

/// One invariant violation found by [`TransitionLedger::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerViolation {
    /// Raw thread index the violation was observed on.
    pub thread: usize,
    /// What went wrong, in words.
    pub what: String,
}

impl std::fmt::Display for LedgerViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread {}: {}", self.thread, self.what)
    }
}

/// Aggregate transition counts over all threads (the chaos report line).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LedgerTotals {
    /// Total `J2N_Begin` events.
    pub j2n_begins: u64,
    /// Total `J2N_End` events.
    pub j2n_ends: u64,
    /// Total `N2J_Begin` events.
    pub n2j_begins: u64,
    /// Total `N2J_End` events.
    pub n2j_ends: u64,
}

/// The accounting-invariant tracker: counts every transition bracket per
/// thread and verifies, after a run, that the paper's `try/finally`
/// semantics held — begins match ends and nesting depth returned to zero
/// on every thread, no matter what the injector threw at the run.
#[derive(Debug, Default)]
pub struct TransitionLedger {
    threads: Mutex<Vec<ThreadTally>>,
    saw_negative: AtomicBool,
}

impl TransitionLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> TransitionLedger {
        TransitionLedger::default()
    }

    /// Record one transition event on `thread`.
    pub fn record(&self, thread: usize, kind: TransitionKind) {
        let mut g = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        if thread >= g.len() {
            g.resize(thread + 1, ThreadTally::default());
        }
        let t = &mut g[thread];
        match kind {
            TransitionKind::J2nBegin => {
                t.j2n_begins += 1;
                t.j2n_depth += 1;
            }
            TransitionKind::J2nEnd => {
                t.j2n_ends += 1;
                t.j2n_depth -= 1;
            }
            TransitionKind::N2jBegin => {
                t.n2j_begins += 1;
                t.n2j_depth += 1;
            }
            TransitionKind::N2jEnd => {
                t.n2j_ends += 1;
                t.n2j_depth -= 1;
            }
        }
        if t.j2n_depth < 0 || t.n2j_depth < 0 {
            t.depth_went_negative = true;
            self.saw_negative.store(true, Ordering::Relaxed);
        }
    }

    /// Aggregate counts over all threads.
    #[must_use]
    pub fn totals(&self) -> LedgerTotals {
        let g = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = LedgerTotals::default();
        for t in g.iter() {
            out.j2n_begins += t.j2n_begins;
            out.j2n_ends += t.j2n_ends;
            out.n2j_begins += t.n2j_begins;
            out.n2j_ends += t.n2j_ends;
        }
        out
    }

    /// Verify the invariants: per thread, `J2N` begins == ends, `N2J`
    /// begins == ends, both depths back at zero, and no depth ever dipped
    /// below zero (an end without a begin). Returns every violation found.
    ///
    /// # Errors
    ///
    /// A non-empty list of [`LedgerViolation`]s if any thread is
    /// unbalanced.
    pub fn check(&self) -> Result<LedgerTotals, Vec<LedgerViolation>> {
        let g = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        let mut violations = Vec::new();
        for (idx, t) in g.iter().enumerate() {
            if t.j2n_begins != t.j2n_ends {
                violations.push(LedgerViolation {
                    thread: idx,
                    what: format!(
                        "J2N unbalanced: {} begins vs {} ends",
                        t.j2n_begins, t.j2n_ends
                    ),
                });
            }
            if t.n2j_begins != t.n2j_ends {
                violations.push(LedgerViolation {
                    thread: idx,
                    what: format!(
                        "N2J unbalanced: {} begins vs {} ends",
                        t.n2j_begins, t.n2j_ends
                    ),
                });
            }
            if t.j2n_depth != 0 || t.n2j_depth != 0 {
                violations.push(LedgerViolation {
                    thread: idx,
                    what: format!(
                        "nesting depth nonzero at end: j2n={} n2j={}",
                        t.j2n_depth, t.n2j_depth
                    ),
                });
            }
            if t.depth_went_negative {
                violations.push(LedgerViolation {
                    thread: idx,
                    what: "an End bracket fired without a matching Begin".into(),
                });
            }
        }
        if violations.is_empty() {
            drop(g);
            Ok(self.totals())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_bijection_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn disabled_injector_never_fires_and_counts_nothing() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        for _ in 0..1000 {
            assert_eq!(inj.inject(FaultSite::NativeUnwind), None);
        }
        assert_eq!(inj.consulted(FaultSite::NativeUnwind), 0);
        assert_eq!(inj.total_injected(), 0);
    }

    #[test]
    fn zero_rate_site_never_fires_even_when_others_do() {
        let plan = FaultPlan::new(7).with_rate(FaultSite::ClockStall, PPM);
        let inj = FaultInjector::new(plan);
        assert!(inj.is_enabled());
        for _ in 0..500 {
            assert_eq!(inj.inject(FaultSite::NativeUnwind), None);
            assert!(inj.inject(FaultSite::ClockStall).is_some());
        }
        assert_eq!(inj.injected(FaultSite::NativeUnwind), 0);
        assert_eq!(inj.injected(FaultSite::ClockStall), 500);
    }

    #[test]
    fn same_plan_gives_identical_schedules() {
        let plan = FaultPlan::new(42)
            .with_rate(FaultSite::NativeUnwind, 100_000)
            .with_rate(FaultSite::ThreadDeath, 50_000);
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        for _ in 0..2000 {
            assert_eq!(
                a.inject(FaultSite::NativeUnwind),
                b.inject(FaultSite::NativeUnwind)
            );
            assert_eq!(
                a.inject(FaultSite::ThreadDeath),
                b.inject(FaultSite::ThreadDeath)
            );
        }
        assert_eq!(a.total_injected(), b.total_injected());
        assert!(a.total_injected() > 0, "rates high enough to fire");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mk = |seed| {
            FaultInjector::new(FaultPlan::new(seed).with_rate(FaultSite::ClassBytes, 500_000))
        };
        let a = mk(1);
        let b = mk(2);
        let fire = |inj: &FaultInjector| {
            (0..256)
                .map(|_| inj.inject(FaultSite::ClassBytes).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(fire(&a), fire(&b));
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let inj =
            FaultInjector::new(FaultPlan::new(9).with_rate(FaultSite::TraceSaturation, 250_000));
        for _ in 0..20_000 {
            inj.inject(FaultSite::TraceSaturation);
        }
        let hit = inj.injected(FaultSite::TraceSaturation) as f64 / 20_000.0;
        assert!((0.22..0.28).contains(&hit), "observed {hit}");
    }

    #[test]
    fn ledger_balances_nested_transitions() {
        let ledger = TransitionLedger::new();
        // thread 0: J2N -> N2J -> (nested J2N) all unwound in order.
        ledger.record(0, TransitionKind::J2nBegin);
        ledger.record(0, TransitionKind::N2jBegin);
        ledger.record(0, TransitionKind::J2nBegin);
        ledger.record(0, TransitionKind::J2nEnd);
        ledger.record(0, TransitionKind::N2jEnd);
        ledger.record(0, TransitionKind::J2nEnd);
        ledger.record(2, TransitionKind::J2nBegin);
        ledger.record(2, TransitionKind::J2nEnd);
        let totals = ledger.check().expect("balanced");
        assert_eq!(totals.j2n_begins, 3);
        assert_eq!(totals.j2n_ends, 3);
        assert_eq!(totals.n2j_begins, 1);
    }

    #[test]
    fn ledger_reports_missing_end() {
        let ledger = TransitionLedger::new();
        ledger.record(1, TransitionKind::J2nBegin);
        let violations = ledger.check().expect_err("unbalanced");
        assert!(violations.iter().any(|v| v.thread == 1));
        assert!(violations.iter().any(|v| v.what.contains("J2N unbalanced")));
    }

    #[test]
    fn ledger_reports_end_without_begin() {
        let ledger = TransitionLedger::new();
        ledger.record(0, TransitionKind::N2jEnd);
        ledger.record(0, TransitionKind::N2jBegin);
        let violations = ledger.check().expect_err("went negative");
        assert!(violations
            .iter()
            .any(|v| v.what.contains("without a matching Begin")));
    }

    #[test]
    fn chaos_plan_arms_every_site() {
        let plan = FaultPlan::chaos(3);
        assert!(!plan.is_inert());
        for site in FaultSite::ALL {
            assert!(plan.rates_ppm[site.index()] > 0, "{site} unarmed");
        }
    }
}
