//! Peer directory, seeded retry policy, and the peer-fetch transport
//! behind the fleet's two-tier cache.
//!
//! A fleet member that misses its local result plane does not recompute
//! immediately: it first asks its peers for the cell entry over
//! `GET /v1/cell/<hex-key>`, walking the directory in a deterministic
//! order under a seeded retry/timeout/backoff-with-jitter policy. Only
//! when every peer attempt is exhausted does the request degrade to a
//! local recompute — so a rebalanced or failed-over identity is served
//! from whichever member already paid for it, and "no row is computed
//! twice per fleet" stays true across kills and rejoins.
//!
//! Everything here is deliberately deterministic: backoff jitter comes
//! from [`splitmix64`] over `(seed, peer, attempt)`, never from
//! wall-clock or thread identity, so two drills with the same seed make
//! the same retry decisions in the same order.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use jvmsim_cache::hex_decode;
use jvmsim_faults::{splitmix64, FaultInjector, FaultSite};
use jvmsim_metrics::{CounterId, MetricsShard};

use crate::http::ResponseParser;

/// Per-operand salts for backoff jitter, so `(peer, attempt)` pairs
/// decorrelate (same shape as the fault plane's per-site salts).
const PEER_SALT: u64 = 0xD6E8_FEB8_6659_FD93;
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seeded, deterministic retry/timeout/backoff policy for peer fetches.
///
/// Backoff for attempt `a` (the second try is `a == 1`) is the truncated
/// exponential `min(cap_ms, base_ms << (a - 1))` jittered into the upper
/// half of its range — `[exp/2, exp]` — by [`splitmix64`] over
/// `(seed, peer, attempt)`. Jitter decorrelates members that miss the
/// same key at the same time without sacrificing replayability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Jitter seed; a fleet typically reuses its drill seed.
    pub seed: u64,
    /// First backoff in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub cap_ms: u64,
    /// Attempts per peer before moving to the next (floored at 1).
    pub attempts: u32,
    /// Per-attempt connect/read timeout.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            seed: 0,
            base_ms: 10,
            cap_ms: 80,
            attempts: 3,
            timeout: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff to sleep before retry `attempt` (1-based)
    /// against peer slot `peer`. Pure: same inputs, same duration.
    #[must_use]
    pub fn backoff(&self, peer: usize, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let exp = self
            .base_ms
            .saturating_mul(1u64 << shift)
            .min(self.cap_ms)
            .max(1);
        let h = splitmix64(
            self.seed
                ^ (peer as u64).wrapping_mul(PEER_SALT)
                ^ u64::from(attempt).wrapping_mul(ATTEMPT_SALT),
        );
        let low = exp / 2;
        Duration::from_millis(low + h % (exp - low + 1))
    }
}

/// The fleet membership table: one slot per member, `None` while that
/// member is down or quarantined. The cluster orchestrator owns writes;
/// every server holds a read view through [`PeerView`].
#[derive(Debug)]
pub struct PeerDirectory {
    slots: Mutex<Vec<Option<SocketAddr>>>,
}

impl PeerDirectory {
    /// A directory with `n` empty slots.
    #[must_use]
    pub fn new(n: usize) -> PeerDirectory {
        PeerDirectory {
            slots: Mutex::new(vec![None; n]),
        }
    }

    /// Number of slots (fixed for the directory's lifetime).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when the directory has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publish member `i` at `addr` (on start or rejoin).
    pub fn set(&self, i: usize, addr: SocketAddr) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if i < slots.len() {
            slots[i] = Some(addr);
        }
    }

    /// Withdraw member `i` (on kill or quarantine).
    pub fn clear(&self, i: usize) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if i < slots.len() {
            slots[i] = None;
        }
    }

    /// Member `i`'s address, if published.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<SocketAddr> {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.get(i).copied().flatten()
    }

    /// Snapshot of every slot, in slot order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Option<SocketAddr>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// One member's read view of the fleet: the shared directory, its own
/// slot (never fetched from), and the retry policy its fetches obey.
#[derive(Debug, Clone)]
pub struct PeerView {
    /// The shared membership table.
    pub directory: Arc<PeerDirectory>,
    /// This member's own slot index, skipped during fetch.
    pub self_index: usize,
    /// Retry/timeout/backoff policy for every fetch attempt.
    pub policy: RetryPolicy,
}

/// How one fetch attempt against one peer ended.
enum Attempt {
    /// 200 with a hex body that decoded: the entry bytes.
    Found(Vec<u8>),
    /// Clean 404: the peer does not have the key — stop retrying it.
    Absent,
    /// Transport failure or malformed answer — worth a retry.
    Failed,
}

/// One wire attempt's record, handed back so the span plane can open one
/// `peer_fetch` child per attempt with its backoff and payload priced in.
/// Public because it rides in [`JobOutput`](crate::admission::JobOutput)
/// from the worker tier back to the event loop.
#[derive(Debug, Clone, Copy)]
pub struct FetchAttempt {
    /// Directory slot attempted.
    pub peer: usize,
    /// 1-based attempt number against that peer.
    pub attempt: u32,
    /// Backoff slept before this attempt (0 for first tries).
    pub backoff_ms: u64,
    /// Bytes the attempt brought home (0 unless it found the entry).
    pub payload_bytes: usize,
    /// Did this attempt find the entry?
    pub found: bool,
}

impl PeerView {
    /// Fetch the cell entry for `key_hex` from the fleet, walking peers
    /// from `self_index + 1` onward (deterministic order) with up to
    /// `policy.attempts` tries per peer. Consults the `peer-conn-drop`
    /// and `peer-slow-read` fault sites before each wire attempt and
    /// counts every retry in `cluster_retries`. Each wire attempt is
    /// appended to `attempts` (span attribution) and, when `traceparent`
    /// is given, carries it so the answering peer's span joins this
    /// request's trace. Returns the raw entry payload, or `None` when
    /// every peer is exhausted (the caller then degrades to a local
    /// recompute).
    pub(crate) fn fetch_entry(
        &self,
        key_hex: &str,
        injector: &FaultInjector,
        shard: &MetricsShard,
        traceparent: Option<&str>,
        attempts: &mut Vec<FetchAttempt>,
    ) -> Option<Vec<u8>> {
        let n = self.directory.len();
        for off in 1..=n.saturating_sub(1) {
            let idx = (self.self_index + off) % n;
            let Some(addr) = self.directory.get(idx) else {
                continue;
            };
            for attempt in 1..=self.policy.attempts.max(1) {
                let backoff_ms = if attempt > 1 {
                    shard.incr(CounterId::ClusterRetries);
                    let backoff = self.policy.backoff(idx, attempt);
                    std::thread::sleep(backoff);
                    u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX)
                } else {
                    0
                };
                let mut record = FetchAttempt {
                    peer: idx,
                    attempt,
                    backoff_ms,
                    payload_bytes: 0,
                    found: false,
                };
                // Injected transport faults stand in for the real thing:
                // a dropped connection or a stalled read both burn this
                // attempt and fall into the same retry path.
                if injector.inject(FaultSite::PeerConnDrop).is_some()
                    || injector.inject(FaultSite::PeerSlowRead).is_some()
                {
                    attempts.push(record);
                    continue;
                }
                let outcome = fetch_once(addr, key_hex, self.policy.timeout, traceparent);
                if let Attempt::Found(bytes) = &outcome {
                    record.payload_bytes = bytes.len();
                    record.found = true;
                }
                attempts.push(record);
                match outcome {
                    Attempt::Found(bytes) => return Some(bytes),
                    Attempt::Absent => break,
                    Attempt::Failed => {}
                }
            }
        }
        None
    }
}

/// One wire attempt: `GET /v1/cell/<hex>` with `Connection: close`,
/// bounded by `timeout` on connect and read. A `traceparent` value rides
/// along so the peer's span stitches into the requester's trace.
fn fetch_once(
    addr: SocketAddr,
    key_hex: &str,
    timeout: Duration,
    traceparent: Option<&str>,
) -> Attempt {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return Attempt::Failed;
    };
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return Attempt::Failed;
    }
    let trace_header = traceparent
        .map(|t| format!("traceparent: {t}\r\n"))
        .unwrap_or_default();
    let request =
        format!("GET /v1/cell/{key_hex} HTTP/1.1\r\n{trace_header}Connection: close\r\n\r\n");
    if stream.write_all(request.as_bytes()).is_err() {
        return Attempt::Failed;
    }
    // Decode through the shared [`ResponseParser`] so the peer tier obeys
    // the same framing rules as every other client in this crate: a
    // `Content-Length` frames the body, an unframed body is complete only
    // at EOF, and a torn framed body is never silently truncated.
    let mut parser = ResponseParser::new();
    let mut buf = [0u8; 4096];
    let parsed = loop {
        match stream.read(&mut buf) {
            Ok(0) => match parser.try_next(true) {
                Ok(Some(complete)) => break complete,
                Ok(None) | Err(_) => return Attempt::Failed,
            },
            Ok(n) => {
                parser.push(&buf[..n]);
                match parser.try_next(false) {
                    Ok(Some(complete)) => break complete,
                    Ok(None) => {}
                    Err(_) => return Attempt::Failed,
                }
            }
            Err(_) => return Attempt::Failed,
        }
    };
    match parsed.status {
        200 => match hex_decode(std::str::from_utf8(&parsed.body).unwrap_or("").trim()) {
            Some(bytes) => Attempt::Found(bytes),
            None => Attempt::Failed,
        },
        404 => Attempt::Absent,
        _ => Attempt::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_seed_sensitive() {
        let policy = RetryPolicy::default();
        for peer in 0..4 {
            for attempt in 1..=6 {
                let a = policy.backoff(peer, attempt);
                let b = policy.backoff(peer, attempt);
                assert_eq!(a, b, "same inputs must give the same backoff");
                let exp = policy
                    .base_ms
                    .saturating_mul(1 << (attempt - 1).min(16))
                    .min(policy.cap_ms);
                let ms = u64::try_from(a.as_millis()).unwrap();
                assert!(
                    ms >= exp / 2 && ms <= exp,
                    "jitter window [{}, {exp}] vs {ms}",
                    exp / 2
                );
            }
        }
        let reseeded = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        let differs = (1..=6).any(|a| reseeded.backoff(0, a) != policy.backoff(0, a));
        assert!(differs, "the seed must matter");
    }

    #[test]
    fn directory_set_clear_get_snapshot() {
        let dir = PeerDirectory::new(3);
        assert_eq!(dir.len(), 3);
        assert!(!dir.is_empty());
        let addr: SocketAddr = "127.0.0.1:9000".parse().unwrap();
        dir.set(1, addr);
        assert_eq!(dir.get(1), Some(addr));
        assert_eq!(dir.get(0), None);
        assert_eq!(dir.snapshot(), vec![None, Some(addr), None]);
        dir.clear(1);
        assert_eq!(dir.get(1), None);
        // Out-of-range writes are ignored, not panics.
        dir.set(9, addr);
        dir.clear(9);
        assert_eq!(dir.get(9), None);
    }

    #[test]
    fn fetch_skips_self_and_empty_slots() {
        // A directory where the only published slot is the fetcher's own:
        // fetch must return None without touching the network.
        let dir = Arc::new(PeerDirectory::new(2));
        dir.set(0, "127.0.0.1:1".parse().unwrap());
        let view = PeerView {
            directory: Arc::clone(&dir),
            self_index: 0,
            policy: RetryPolicy {
                attempts: 1,
                timeout: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
        };
        let injector = FaultInjector::new(jvmsim_faults::FaultPlan::new(0));
        let registry = jvmsim_metrics::MetricsRegistry::new();
        let mut attempts = Vec::new();
        assert_eq!(
            view.fetch_entry("00", &injector, &registry.global(), None, &mut attempts),
            None
        );
        assert!(attempts.is_empty(), "no publishable peer, no wire attempt");
    }

    #[test]
    fn shared_parser_preserves_peer_framing_semantics() {
        // The peer tier rides the shared ResponseParser; these are the
        // framing behaviors fetch_once depends on.
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nabcdEXTRA");
        let parsed = parser.try_next(false).unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, b"abcd");
        // Shorter than advertised: never final, even at EOF.
        let mut torn = ResponseParser::new();
        torn.push(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabcd");
        assert_eq!(torn.try_next(false).unwrap(), None);
        assert_eq!(torn.try_next(true).unwrap(), None);
        // Unframed bodies are only complete once the peer hangs up.
        let mut unframed = ResponseParser::new();
        unframed.push(b"HTTP/1.1 200 OK\r\n\r\nabcd");
        assert_eq!(unframed.try_next(false).unwrap(), None);
        assert_eq!(unframed.try_next(true).unwrap().unwrap().body, b"abcd");
        let mut garbage = ResponseParser::new();
        garbage.push(b"garbage");
        assert_eq!(garbage.try_next(true).unwrap(), None);
    }
}
