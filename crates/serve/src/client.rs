//! The load generator (`jprof client`).
//!
//! A run opens `connections` keep-alive connections, drives every
//! `run_every`-th of them through its requests on its own thread, and
//! holds the whole set open until `hold` has passed. Each active
//! connection issues its requests back-to-back — closed-loop, so
//! offered load is bounded by service latency and the generator can
//! never outrun the daemon by more than the active connections'
//! in-flight requests. With the defaults every connection is active and
//! nothing is held; a large fleet with a sparse active subset is the
//! C10k proof (idle sockets sit in the daemon's event loop while a few
//! connections keep the worker pool busy).
//!
//! The request mix is a pure function of `(seed, connection,
//! request-index)`, so two clients with the same flags offer the same
//! specs in the same per-connection order, and the status-count summary
//! is deterministic whenever the server is not shedding.
//!
//! Wall-clock latency is recorded in per-endpoint log2 histograms and
//! raw samples for operator eyes only — it never feeds artifact bytes
//! (see DESIGN §12's determinism boundary).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use jnativeprof::harness::AGENT_AXIS;
use jvmsim_faults::splitmix64;
use jvmsim_metrics::bucket_index;
use jvmsim_spans::{ms_to_cycles, parse_annotation, SpanStage, StageLatencyTable};
use workloads::AXIS;

use crate::http::{ParsedResponse, ResponseParser, READ_POLL};
use crate::spec::{ApiError, RunSpec};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// Keep-alive connections opened and held at once (floored at 1).
    pub connections: usize,
    /// Requests each active connection issues.
    pub requests: usize,
    /// Seed for the deterministic request mix.
    pub seed: u64,
    /// Problem size every generated run spec uses.
    pub size: u32,
    /// Every `run_every`-th connection is active and issues requests; the
    /// rest idle. `1` makes every connection active, `0` none.
    pub run_every: usize,
    /// How long, counted from the moment the last connection opened,
    /// every connection stays open; the active ones finish their requests
    /// first either way.
    pub hold: Duration,
    /// When set, each distinct `POST /v1/run` 200 body is saved here as
    /// `run-<workload>-<agent>-<size>.json` for comparison against batch
    /// driver rows.
    pub rows_dir: Option<PathBuf>,
    /// Fetch `GET /v1/cache/stats` after the run and include it in the
    /// report.
    pub fetch_cache_stats: bool,
    /// When set, scrape `GET /v1/spans` after the run and save the body
    /// here verbatim (the CI jobs-equality comparison reads these).
    pub spans_out: Option<PathBuf>,
    /// Send `POST /v1/shutdown` after the run (and the stats fetch).
    pub send_shutdown: bool,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            addr: "127.0.0.1:8126".to_owned(),
            connections: 2,
            requests: 8,
            seed: 0,
            size: 1,
            run_every: 1,
            hold: Duration::ZERO,
            rows_dir: None,
            fetch_cache_stats: false,
            spans_out: None,
            send_shutdown: false,
        }
    }
}

/// Per-endpoint log2 wall-latency histogram: bucket 0 holds 0µs, bucket
/// `i >= 1` holds `[2^(i-1), 2^i)` µs — the same shape as the metrics
/// plane's histograms.
pub type LatencyHistogram = [u64; 65];

/// What one load run observed.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Connections the run was asked to open.
    pub target: usize,
    /// Connections established and held at once.
    pub held: usize,
    /// Connections that never established within the connect budget.
    pub connect_failures: u64,
    /// `(endpoint, status) -> count`, summed over all connections.
    pub status_counts: BTreeMap<(String, u16), u64>,
    /// Requests deferred on a `429 Retry-After`: the client slept a
    /// seeded backoff and retried instead of hammering the daemon.
    pub deferred: u64,
    /// Requests that died below HTTP (connect/read/write failures).
    pub transport_errors: u64,
    /// Per-endpoint wall-latency histograms (non-deterministic; printed
    /// to stderr only).
    pub latency: BTreeMap<String, LatencyHistogram>,
    /// Raw per-request wall latencies in microseconds, the input of
    /// [`ClientReport::percentiles`].
    pub samples_micros: Vec<u64>,
    /// Per-stage cycle histograms built from the daemon's `X-Jvmsim-Span`
    /// response annotations, plus the client's own `deferred_wait` stage.
    /// Empty when the daemon serves without tracing. Deterministic under
    /// sequential load (the cycles are modeled, not measured).
    pub stages: StageLatencyTable,
    /// `GET /v1/cache/stats` body, when requested.
    pub cache_stats: Option<String>,
}

impl ClientReport {
    fn record(&mut self, endpoint: &str, status: u16, elapsed: Duration) {
        *self
            .status_counts
            .entry((endpoint.to_owned(), status))
            .or_insert(0) += 1;
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.samples_micros.push(micros);
        let hist = self
            .latency
            .entry(endpoint.to_owned())
            .or_insert([0u64; 65]);
        hist[bucket_index(micros)] += 1;
    }

    fn merge(&mut self, other: ClientReport) {
        for (key, count) in other.status_counts {
            *self.status_counts.entry(key).or_insert(0) += count;
        }
        self.deferred += other.deferred;
        self.transport_errors += other.transport_errors;
        self.stages.merge(&other.stages);
        self.samples_micros.extend(other.samples_micros);
        for (endpoint, hist) in other.latency {
            let mine = self.latency.entry(endpoint).or_insert([0u64; 65]);
            for (m, h) in mine.iter_mut().zip(hist.iter()) {
                *m += h;
            }
        }
    }

    /// `(p50, p99)` over the recorded samples, in microseconds.
    #[must_use]
    pub fn percentiles(&self) -> (u64, u64) {
        let mut sorted = self.samples_micros.clone();
        sorted.sort_unstable();
        (
            percentile_micros(&sorted, 50),
            percentile_micros(&sorted, 99),
        )
    }

    /// The deterministic summary (stdout): the target, held and
    /// connect-failure counts, one sorted line per `(endpoint, status)`
    /// pair, then the deferred and transport-error counts.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "client target {}\nclient held {}\nclient connect_failures {}\n",
            self.target, self.held, self.connect_failures
        );
        for ((endpoint, status), count) in &self.status_counts {
            out.push_str(&format!("client {endpoint} {status} {count}\n"));
        }
        out.push_str(&format!("client deferred {}\n", self.deferred));
        out.push_str(&format!(
            "client transport_errors {}\n",
            self.transport_errors
        ));
        out
    }

    /// The per-stage latency table: one line per observed stage with
    /// count, mean, p50 and p99 in modeled cycles. Empty (no lines) when
    /// the daemon served without tracing.
    #[must_use]
    pub fn render_stages(&self) -> String {
        self.stages.render("client")
    }

    /// The wall-latency view (stderr): p50/p99 over every request, then
    /// the nonzero log2 buckets per endpoint.
    #[must_use]
    pub fn render_latency(&self) -> String {
        let (p50, p99) = self.percentiles();
        let mut out = format!(
            "latency_us p50={p50} p99={p99} samples={}\n",
            self.samples_micros.len()
        );
        for (endpoint, hist) in &self.latency {
            out.push_str(&format!("latency {endpoint}:"));
            push_buckets(&mut out, hist);
        }
        out
    }
}

/// Append the nonzero buckets of `hist` as ` [lo,hi)=count` terms, then
/// end the line.
fn push_buckets(out: &mut String, hist: &LatencyHistogram) {
    for (i, count) in hist.iter().enumerate() {
        if *count == 0 {
            continue;
        }
        if i == 0 {
            out.push_str(&format!(" [0us]={count}"));
        } else {
            out.push_str(&format!(" [2^{}us,2^{i}us)={count}", i - 1));
        }
    }
    out.push('\n');
}

/// The `pct`-th percentile of an ascending-sorted sample set (nearest
/// rank on `(len - 1) * pct / 100`); `0` when empty.
#[must_use]
pub fn percentile_micros(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() - 1) * usize::try_from(pct.min(100)).unwrap_or(100) / 100;
    sorted[rank]
}

/// The spec connection `conn` issues as its `idx`-th request, a pure
/// function of the seed.
#[must_use]
pub fn pick_spec(seed: u64, conn: usize, idx: usize, size: u32) -> RunSpec {
    let h = splitmix64(seed ^ ((conn as u64) << 32) ^ idx as u64);
    RunSpec {
        workload: AXIS[(h % AXIS.len() as u64) as usize].to_owned(),
        agent: AGENT_AXIS[((h >> 8) % AGENT_AXIS.len() as u64) as usize].to_owned(),
        size,
        tiers: "full".to_owned(),
    }
}

/// Connect, retrying until `budget` elapses — lets a client start before
/// the daemon finishes binding (the CI serve job races them).
///
/// # Errors
///
/// The last connect error once the budget is spent.
pub fn connect_with_retry(addr: &str, budget: Duration) -> Result<TcpStream, String> {
    let started = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if started.elapsed() < budget => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
}

/// Issue one request on an open keep-alive connection and read the full
/// response.
///
/// # Errors
///
/// A description of the transport or parse failure (connection drops
/// surface here).
pub fn http_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    http_request_full(stream, method, path, body).map(|(status, body, _, _)| (status, body))
}

/// [`http_request`] plus the parsed `Retry-After` header (seconds) and
/// the raw `X-Jvmsim-Span` annotation, so callers can honor the daemon's
/// shed hint and attribute per-stage latency.
///
/// # Errors
///
/// Same transport/parse failures as [`http_request`].
pub fn http_request_full(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String, Option<u64>, Option<String>), String> {
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: jvmsim\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    read_response(stream)
}

/// The one response-decode path every caller in this crate shares:
/// `/v1/run`, `/v1/spans` and the drill all land here, and the framing
/// rules are the shared [`ResponseParser`]'s.
fn read_response(
    stream: &mut TcpStream,
) -> Result<(u16, String, Option<u64>, Option<String>), String> {
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| format!("set timeout: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut parser = ResponseParser::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(parsed) = parser.try_next(false)? {
            return convert(parsed);
        }
        if Instant::now() >= deadline {
            return Err("response deadline elapsed".to_owned());
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF completes an unframed body; a torn framed body is
                // a transport failure, never a silent truncation.
                return match parser.try_next(true)? {
                    Some(parsed) => convert(parsed),
                    None => Err("connection closed mid-response".to_owned()),
                };
            }
            Ok(n) => parser.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    // A dropped parser discards any pipelined surplus — the client never
    // requested it, so it must not leak into the next decode.
}

/// Flatten a [`ParsedResponse`] into the tuple shape the call sites use.
fn convert(parsed: ParsedResponse) -> Result<(u16, String, Option<u64>, Option<String>), String> {
    let body = String::from_utf8(parsed.body).map_err(|_| "non-utf8 body".to_owned())?;
    Ok((parsed.status, body, parsed.retry_after, parsed.span))
}

/// Run the load and aggregate every connection's report.
///
/// Three phases: open every connection (a connection that never
/// establishes is counted and skipped), run each active
/// connection's requests on its own scoped thread, then hold the whole
/// set open for the rest of `hold` before the stats fetch, the spans
/// scrape and the shutdown.
///
/// # Errors
///
/// Only setup failures (an unwritable `rows_dir`, a failed spans scrape);
/// per-request transport failures are *counted*, not fatal, so a
/// chaos-mode daemon dropping connections cannot kill the generator.
pub fn run_client(config: &ClientConfig) -> Result<ClientReport, String> {
    if let Some(dir) = &config.rows_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut report = ClientReport {
        target: config.connections.max(1),
        ..ClientReport::default()
    };
    let mut slots: Vec<Option<TcpStream>> = Vec::with_capacity(report.target);
    for _ in 0..report.target {
        let stream = connect_with_retry(&config.addr, Duration::from_secs(10)).ok();
        report.connect_failures += u64::from(stream.is_none());
        slots.push(stream);
    }
    report.held = slots.iter().flatten().count();
    let hold_until = Instant::now() + config.hold;
    std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .iter_mut()
            .enumerate()
            .filter(|(conn, slot)| {
                slot.is_some() && config.run_every > 0 && conn % config.run_every == 0
            })
            .map(|(conn, slot)| scope.spawn(move || connection_loop(config, conn, slot)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(partial) => report.merge(partial),
                Err(_) => report.transport_errors += 1,
            }
        }
    });
    // Every connection — active and idle — stays open until the hold
    // expires, so the daemon's event loop carries the full set at once.
    std::thread::sleep(hold_until.saturating_duration_since(Instant::now()));
    drop(slots);
    if config.fetch_cache_stats {
        if let Ok(mut stream) = connect_with_retry(&config.addr, Duration::from_secs(5)) {
            if let Ok((200, body)) = http_request(&mut stream, "GET", "/v1/cache/stats", None) {
                report.cache_stats = Some(body);
            }
        }
    }
    if let Some(path) = &config.spans_out {
        let mut stream = connect_with_retry(&config.addr, Duration::from_secs(5))
            .map_err(|e| format!("spans scrape: {e}"))?;
        let (status, body) = http_request(&mut stream, "GET", "/v1/spans", None)
            .map_err(|e| format!("spans scrape: {e}"))?;
        if status != 200 {
            return Err(format!("spans scrape: status {status}"));
        }
        std::fs::write(path, body.as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if config.send_shutdown {
        if let Ok(mut stream) = connect_with_retry(&config.addr, Duration::from_secs(5)) {
            let _ = http_request(&mut stream, "POST", "/v1/shutdown", None);
        }
    }
    Ok(report)
}

/// The seeded sleep before retrying a `429 Retry-After` deferral: the
/// daemon's hint (capped at 2s) jittered into `[hint/2, hint]` by the
/// same `(seed, conn, idx)` stream that picks specs — deterministic, so
/// two clients with the same flags defer for the same durations.
#[must_use]
pub fn deferred_backoff(seed: u64, conn: usize, idx: usize, retry_after_secs: u64) -> Duration {
    let base = retry_after_secs.saturating_mul(1000).clamp(1, 2000);
    let h = splitmix64(seed ^ ((conn as u64) << 32) ^ (idx as u64) ^ 0xDEFE_44ED_BACC_0FF5);
    let low = base / 2;
    Duration::from_millis(low + h % (base - low + 1))
}

/// Issue connection `conn`'s requests over `stream`, reconnecting lazily
/// after any drop.
fn connection_loop(
    config: &ClientConfig,
    conn: usize,
    stream: &mut Option<TcpStream>,
) -> ClientReport {
    let mut report = ClientReport::default();
    for idx in 0..config.requests {
        // Every 8th slot probes /healthz; the rest are run requests.
        let h = splitmix64(config.seed ^ ((conn as u64) << 32) ^ idx as u64);
        let (endpoint, method, body, spec) = if h % 8 == 7 {
            ("/healthz", "GET", None, None)
        } else {
            let spec = pick_spec(config.seed, conn, idx, config.size);
            ("/v1/run", "POST", Some(spec.to_json()), Some(spec))
        };
        // One deferred retry per slot: a 429 with Retry-After sleeps the
        // seeded backoff and reissues instead of retrying hot.
        let mut deferred_once = false;
        loop {
            let started = Instant::now();
            let s = match stream {
                Some(s) => s,
                None => match connect_with_retry(&config.addr, Duration::from_secs(10)) {
                    Ok(s) => stream.insert(s),
                    Err(_) => {
                        report.transport_errors += 1;
                        break;
                    }
                },
            };
            match http_request_full(s, method, endpoint, body.as_deref()) {
                Ok((status, response_body, retry_after, span)) => {
                    report.record(endpoint, status, started.elapsed());
                    if let Some((_, stages)) = span.as_deref().and_then(parse_annotation) {
                        for (stage, cycles) in stages {
                            report.stages.observe(stage, cycles);
                        }
                    }
                    if status == 200 {
                        if let (Some(dir), Some(spec)) = (&config.rows_dir, &spec) {
                            let name =
                                format!("run-{}-{}-{}.json", spec.workload, spec.agent, spec.size);
                            let _ = std::fs::write(dir.join(name), response_body.as_bytes());
                        }
                    } else {
                        // Error responses close or may close; start fresh.
                        *stream = None;
                    }
                    if status == 429 && !deferred_once {
                        // The shed hint rides both the Retry-After header
                        // and the typed error envelope; honor either, so
                        // a proxy that strips headers still defers.
                        let hint = retry_after.or_else(|| {
                            ApiError::decode(status, response_body.as_bytes())
                                .and_then(|e| e.retry_after)
                                .map(u64::from)
                        });
                        if let Some(secs) = hint {
                            deferred_once = true;
                            report.deferred += 1;
                            let wait = deferred_backoff(config.seed, conn, idx, secs);
                            // The deferral is a client-side stage: attribute
                            // the seeded sleep in the same cycle domain as
                            // the daemon's stages.
                            report.stages.observe(
                                SpanStage::DeferredWait,
                                ms_to_cycles(u64::try_from(wait.as_millis()).unwrap_or(u64::MAX)),
                            );
                            std::thread::sleep(wait);
                            continue;
                        }
                    }
                }
                Err(_) => {
                    report.transport_errors += 1;
                    *stream = None;
                }
            }
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_mix_is_deterministic() {
        let a = pick_spec(42, 1, 3, 10);
        let b = pick_spec(42, 1, 3, 10);
        assert_eq!(a, b);
        assert!(AXIS.contains(&a.workload.as_str()));
        assert!(AGENT_AXIS.contains(&a.agent.as_str()));
        assert_eq!(a.size, 10);
        // The absolute mix at seed 0: a reordered workload or agent axis
        // changes what every seeded client offers.
        let mix: Vec<String> = (0..2)
            .flat_map(|conn| (0..8).map(move |idx| pick_spec(0, conn, idx, 1)))
            .map(|s| format!("{}/{}", s.workload, s.agent))
            .collect();
        assert_eq!(
            mix,
            [
                "jbb/original",
                "jess/ipa",
                "jack/lock",
                "mtrt/spa",
                "db/spa",
                "db/alloc",
                "compress/ipa",
                "jbb/ipa",
                "compress/original",
                "jbb/spa",
                "db/original",
                "javac/alloc",
                "jess/alloc",
                "db/lock",
                "jbb/original",
                "jbb/ipa",
            ]
        );
    }

    #[test]
    fn summary_renders_sorted_deterministic_lines() {
        let mut report = ClientReport {
            target: 4,
            held: 4,
            ..ClientReport::default()
        };
        report.record("/v1/run", 200, Duration::from_micros(5));
        report.record("/v1/run", 200, Duration::from_micros(9));
        report.record("/v1/run", 429, Duration::from_micros(1));
        report.record("/healthz", 200, Duration::from_micros(2));
        report.deferred = 1;
        assert_eq!(
            report.render_summary(),
            "client target 4\nclient held 4\nclient connect_failures 0\n\
             client /healthz 200 1\nclient /v1/run 200 2\nclient /v1/run 429 1\n\
             client deferred 1\nclient transport_errors 0\n"
        );
        assert_eq!(report.percentiles(), (2, 5));
        let latency = report.render_latency();
        assert!(
            latency.starts_with("latency_us p50=2 p99=5 samples=4\n"),
            "{latency}"
        );
        assert!(latency.contains("latency /v1/run:"), "{latency}");
    }

    #[test]
    fn deferred_backoff_is_deterministic_and_honors_the_hint() {
        for (conn, idx, secs) in [(0usize, 0usize, 1u64), (1, 7, 1), (3, 2, 5)] {
            let a = deferred_backoff(42, conn, idx, secs);
            assert_eq!(a, deferred_backoff(42, conn, idx, secs));
            let base = (secs * 1000).clamp(1, 2000);
            let ms = u64::try_from(a.as_millis()).unwrap();
            assert!(
                ms >= base / 2 && ms <= base,
                "backoff {ms}ms outside [{}, {base}]",
                base / 2
            );
        }
        // Different seeds defer differently somewhere in the stream.
        assert!((0..8).any(|i| deferred_backoff(1, 0, i, 2) != deferred_backoff(2, 0, i, 2)));
    }

    #[test]
    fn percentile_uses_nearest_rank_on_sorted_samples() {
        assert_eq!(percentile_micros(&[], 99), 0);
        assert_eq!(percentile_micros(&[7], 50), 7);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_micros(&sorted, 0), 1);
        assert_eq!(percentile_micros(&sorted, 50), 50);
        assert_eq!(percentile_micros(&sorted, 99), 99);
        assert_eq!(percentile_micros(&sorted, 100), 100);
        // Out-of-range percentiles clamp instead of indexing out.
        assert_eq!(percentile_micros(&sorted, 250), 100);
    }

    #[test]
    fn a_held_fleet_runs_its_active_subset_against_a_live_daemon() {
        use crate::server::{ServeConfig, Server, SpanConfig};
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 2,
            spans: Some(SpanConfig::default()),
            ..ServeConfig::default()
        })
        .expect("bind");
        let report = run_client(&ClientConfig {
            addr: server.local_addr().to_string(),
            connections: 48,
            requests: 2,
            seed: 3,
            run_every: 8,
            hold: Duration::from_millis(50),
            ..ClientConfig::default()
        })
        .expect("held fleet");
        assert_eq!(report.target, 48);
        assert_eq!(report.held, 48, "all connections must establish");
        assert_eq!(report.connect_failures, 0);
        assert_eq!(report.transport_errors, 0, "{:?}", report.status_counts);
        let answered: u64 = report.status_counts.values().sum();
        assert_eq!(answered, 12, "6 active conns x 2 requests");
        assert_eq!(report.samples_micros.len(), 12);
        // The traced daemon's span annotations reach the stage table.
        assert!(
            report.render_stages().contains("client stage root count"),
            "{}",
            report.render_stages()
        );
        let entries = server.shutdown();
        let highwater = entries[0]
            .snapshot
            .gauge(jvmsim_metrics::GaugeId::ServeOpenConnsHighwater);
        assert!(highwater >= 48, "highwater {highwater} must see the fleet");
    }

    /// The CI spans job's client run against an in-process daemon, pinned
    /// absolutely: one traced connection, no cache, so every status and
    /// every modeled stage cycle is a function of the seeds alone.
    #[test]
    fn traced_single_connection_run_is_pinned() {
        use crate::server::{ServeConfig, Server, SpanConfig};
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 1,
            spans: Some(SpanConfig {
                seed: 5,
                ..SpanConfig::default()
            }),
            ..ServeConfig::default()
        })
        .expect("bind");
        let report = run_client(&ClientConfig {
            addr: server.local_addr().to_string(),
            connections: 1,
            requests: 6,
            seed: 3,
            size: 1,
            ..ClientConfig::default()
        })
        .expect("client run");
        server.shutdown();
        let counts: Vec<(&str, u16, u64)> = report
            .status_counts
            .iter()
            .map(|((endpoint, status), n)| (endpoint.as_str(), *status, *n))
            .collect();
        assert_eq!(counts, [("/healthz", 200, 2), ("/v1/run", 200, 4)]);
        assert_eq!(report.deferred, 0);
        assert_eq!(report.transport_errors, 0);
        assert_eq!(
            report.render_stages(),
            "client stage root count 4 mean_cycles 3845341 p50_cycles 524287 p99_cycles 16777215\n\
             client stage accept count 4 mean_cycles 2122 p50_cycles 4095 p99_cycles 4095\n\
             client stage admission count 4 mean_cycles 400 p50_cycles 511 p99_cycles 511\n\
             client stage recompute count 4 mean_cycles 3838129 p50_cycles 524287 p99_cycles 16777215\n\
             client stage row_encode count 4 mean_cycles 2860 p50_cycles 4095 p99_cycles 4095\n\
             client stage response_write count 4 mean_cycles 1830 p50_cycles 2047 p99_cycles 2047\n"
        );
    }

    #[test]
    fn merge_sums_deferred_counts() {
        let mut a = ClientReport {
            deferred: 2,
            ..ClientReport::default()
        };
        let b = ClientReport {
            deferred: 3,
            ..ClientReport::default()
        };
        a.merge(b);
        assert_eq!(a.deferred, 5);
    }
}
