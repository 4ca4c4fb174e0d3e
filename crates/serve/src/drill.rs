//! The serve chaos drill: an in-process daemon with the transport fault
//! sites armed, driven by a sequential single-connection client, then
//! audited against the admission ledger.
//!
//! The drill proves two properties `jprof chaos` asserts:
//!
//! 1. **The ledger balances**: every request the daemon accepted landed
//!    in exactly one outcome class —
//!    `accepted == served + shed + timeout + dropped + errors`.
//! 2. **Nothing is double-counted**: the client's own tally of 2xx
//!    responses, injected 408s, and transport-level drops matches the
//!    server's `served` / `timeout` / `dropped` counters one-for-one.
//!
//! The client is sequential (one request in flight, reconnecting after
//! every fault) so the per-site injection decision streams are consumed
//! in a deterministic order and the drill reproduces bit-for-bit for a
//! given seed.

use std::time::Duration;

use jvmsim_faults::{FaultPlan, FaultSite};

use crate::admission::AdmissionLedger;
use crate::client::{connect_with_retry, http_request};
use crate::server::{ServeConfig, Server};
use crate::spec::RunSpec;

/// Injection rate for both serve sites during the drill, in parts per
/// million. High enough that a modest request count exercises both
/// sites.
const DRILL_RATE_PPM: u32 = 200_000;

/// Requests the drill issues.
const DRILL_REQUESTS: u64 = 24;

/// What the drill observed.
#[derive(Debug)]
pub struct DrillReport {
    /// Requests the client issued.
    pub requests: u64,
    /// Client-observed 2xx responses.
    pub ok: u64,
    /// Client-observed 408s (injected slow reads).
    pub timeouts: u64,
    /// Client-observed transport failures (injected connection drops).
    pub drops: u64,
    /// `(site, consulted, injected)` for the serve-plane injector.
    pub sites: Vec<(FaultSite, u64, u64)>,
    /// Ledger imbalances and count mismatches; empty on a clean drill.
    pub violations: Vec<String>,
}

impl DrillReport {
    /// Did the drill hold both invariants?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run the drill: start a faulted daemon, drive it, drain it, audit it.
///
/// # Errors
///
/// Setup failures only (bind, connect); injected faults are the point
/// and are never errors.
pub fn chaos_drill(seed: u64) -> Result<DrillReport, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        queue: 8,
        deadline: Duration::from_secs(30),
        idle: None,
        cache: None,
        faults: FaultPlan::new(seed)
            .with_rate(FaultSite::ServeSlowRead, DRILL_RATE_PPM)
            .with_rate(FaultSite::ServeConnDrop, DRILL_RATE_PPM),
        peers: None,
        spans: None,
    };
    let server = Server::start(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let body = RunSpec {
        workload: "compress".to_owned(),
        agent: "original".to_owned(),
        size: 1,
        tiers: "full".to_owned(),
    }
    .to_json();

    let (mut ok, mut timeouts, mut drops) = (0u64, 0u64, 0u64);
    for _ in 0..DRILL_REQUESTS {
        // One connection per request: a drop then cleanly maps to exactly
        // one failed request, never a poisoned keep-alive stream.
        let mut stream = connect_with_retry(&addr, Duration::from_secs(10))
            .map_err(|e| format!("drill connect: {e}"))?;
        match http_request(&mut stream, "POST", "/v1/run", Some(&body)) {
            Ok((200, _)) => ok += 1,
            Ok((408, _)) => timeouts += 1,
            Ok((status, body)) => {
                return Err(format!("unexpected drill response {status}: {body}"))
            }
            Err(_) => drops += 1,
        }
    }

    let sites = server.fault_summary();
    let entries = server.shutdown();
    let ledger = AdmissionLedger::from_entries(&entries);
    let AdmissionLedger {
        accepted,
        served,
        shed,
        timeout,
        dropped,
        errors,
        ..
    } = ledger;

    let mut violations = Vec::new();
    if !ledger.balanced() {
        violations.push(format!(
            "ledger imbalance: accepted={accepted} != served={served} + shed={shed} \
             + timeout={timeout} + dropped={dropped} + errors={errors}"
        ));
    }
    if accepted != DRILL_REQUESTS {
        violations.push(format!(
            "double/missed counting: accepted={accepted}, requests={DRILL_REQUESTS}"
        ));
    }
    if served != ok {
        violations.push(format!("served={served} but client saw {ok} 2xx"));
    }
    if timeout != timeouts {
        violations.push(format!("timeout={timeout} but client saw {timeouts} 408s"));
    }
    if dropped != drops {
        violations.push(format!("dropped={dropped} but client saw {drops} drops"));
    }
    if shed != 0 || errors != 0 {
        violations.push(format!(
            "sequential drill must not shed or error: shed={shed} errors={errors}"
        ));
    }

    Ok(DrillReport {
        requests: DRILL_REQUESTS,
        ok,
        timeouts,
        drops,
        sites,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_balances_its_ledger_and_fires_both_sites() {
        let report = chaos_drill(7).expect("drill must set up");
        assert!(
            report.is_clean(),
            "ledger violations: {:?}",
            report.violations
        );
        assert_eq!(report.ok + report.timeouts + report.drops, report.requests);
        let injected: u64 = report
            .sites
            .iter()
            .filter(|(site, _, _)| {
                matches!(site, FaultSite::ServeSlowRead | FaultSite::ServeConnDrop)
            })
            .map(|(_, _, injected)| injected)
            .sum();
        assert!(
            injected > 0,
            "drill rate must fire at least once in 24 requests"
        );
    }

    #[test]
    fn drill_is_deterministic_for_a_seed() {
        let a = chaos_drill(11).expect("drill must set up");
        let b = chaos_drill(11).expect("drill must set up");
        assert_eq!(
            (a.ok, a.timeouts, a.drops),
            (b.ok, b.timeouts, b.drops),
            "same seed must reproduce the same outcome mix"
        );
    }
}
