//! The closed-loop load generator (`jprof client`).
//!
//! Each connection thread issues its requests back-to-back over one
//! keep-alive connection — closed-loop, so offered load is bounded by
//! service latency and the generator can never outrun the daemon by
//! more than `connections` in-flight requests. The request mix is a
//! pure function of `(seed, connection, request-index)`, so two clients
//! with the same flags offer the same specs in the same per-connection
//! order, and the status-count summary is deterministic whenever the
//! server is not shedding.
//!
//! Wall-clock latency is recorded in per-endpoint log2 histograms for
//! operator eyes only — it never feeds artifact bytes (see DESIGN §12's
//! determinism boundary).

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
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests: usize,
    /// Seed for the deterministic request mix.
    pub seed: u64,
    /// Problem size every generated run spec uses.
    pub size: u32,
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
        let hist = self
            .latency
            .entry(endpoint.to_owned())
            .or_insert([0u64; 65]);
        hist[bucket_index(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX))] += 1;
    }

    fn merge(&mut self, other: ClientReport) {
        for (key, count) in other.status_counts {
            *self.status_counts.entry(key).or_insert(0) += count;
        }
        self.deferred += other.deferred;
        self.transport_errors += other.transport_errors;
        self.stages.merge(&other.stages);
        for (endpoint, hist) in other.latency {
            let mine = self.latency.entry(endpoint).or_insert([0u64; 65]);
            for (m, h) in mine.iter_mut().zip(hist.iter()) {
                *m += h;
            }
        }
    }

    /// Total requests answered with `status` across all endpoints.
    #[must_use]
    pub fn total_with_status(&self, status: u16) -> u64 {
        self.status_counts
            .iter()
            .filter(|((_, s), _)| *s == status)
            .map(|(_, n)| n)
            .sum()
    }

    /// The deterministic summary (stdout): one sorted line per
    /// `(endpoint, status)` pair plus the deferred and transport-error
    /// counts.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
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

    /// The wall-latency histograms (stderr): nonzero log2 buckets per
    /// endpoint.
    #[must_use]
    pub fn render_latency(&self) -> String {
        let mut out = String::new();
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
/// `/v1/run`, `/v1/spans`, the drill, and the open-loop mode all land
/// here, and the framing rules are the shared [`ResponseParser`]'s.
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

/// Run the closed-loop load and aggregate every connection's report.
///
/// # Errors
///
/// Only setup failures (an unwritable `rows_dir`); per-request transport
/// failures are *counted*, not fatal, so a chaos-mode daemon dropping
/// connections cannot kill the generator.
pub fn run_client(config: &ClientConfig) -> Result<ClientReport, String> {
    if let Some(dir) = &config.rows_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let handles: Vec<_> = (0..config.connections.max(1))
        .map(|conn| {
            let config = config.clone();
            std::thread::spawn(move || connection_loop(&config, conn))
        })
        .collect();
    let mut report = ClientReport::default();
    for handle in handles {
        match handle.join() {
            Ok(partial) => report.merge(partial),
            Err(_) => report.transport_errors += 1,
        }
    }
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

fn connection_loop(config: &ClientConfig, conn: usize) -> ClientReport {
    let mut report = ClientReport::default();
    let mut stream = None;
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
            // Reconnect lazily: the first request, and after any drop.
            let s = match &mut stream {
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
                        stream = None;
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
                    stream = None;
                }
            }
            break;
        }
    }
    report
}

/// Open-loop (C10k) configuration: hold `connections` keep-alive
/// connections against the daemon at once while a deterministic subset
/// issues requests. Unlike the closed loop, offered concurrency is fixed
/// by flag, not by service latency — the point is to prove the readiness
/// event loop holds ten thousand idle sockets while a small worker pool
/// keeps serving, and to measure tail latency while it does.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// Connections to open and hold concurrently.
    pub connections: usize,
    /// How long to keep the full set open after the request phase (idle
    /// connections just sit in the daemon's event loop).
    pub hold: Duration,
    /// Every `run_every`-th connection is *active* and issues requests;
    /// `0` means every connection idles.
    pub run_every: usize,
    /// Requests each active connection issues.
    pub requests: usize,
    /// Connections opened per burst before a 1ms breather, pacing the
    /// SYN backlog so the accept loop keeps up.
    pub connect_burst: usize,
    /// Seed for the deterministic request mix.
    pub seed: u64,
    /// Problem size every generated run spec uses.
    pub size: u32,
    /// When set, each distinct `POST /v1/run` 200 body is saved here (same
    /// naming as the closed loop) for byte-comparison against batch rows.
    pub rows_dir: Option<PathBuf>,
    /// Send `POST /v1/shutdown` after the hold expires.
    pub send_shutdown: bool,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            addr: "127.0.0.1:8126".to_owned(),
            connections: 10_000,
            hold: Duration::from_secs(2),
            run_every: 100,
            requests: 4,
            connect_burst: 256,
            seed: 0,
            size: 1,
            rows_dir: None,
            send_shutdown: false,
        }
    }
}

/// What one open-loop run observed.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Connections the run was asked to hold.
    pub target: usize,
    /// Connections actually held concurrently at the peak.
    pub held: usize,
    /// Connections that never established within the connect budget.
    pub connect_failures: u64,
    /// `(endpoint, status) -> count` over the active subset.
    pub status_counts: BTreeMap<(String, u16), u64>,
    /// Requests that died below HTTP.
    pub transport_errors: u64,
    /// Raw per-request wall latencies in microseconds (insertion order).
    pub samples_micros: Vec<u64>,
    /// The same samples bucketed into the log2 histogram shape the
    /// closed loop uses.
    pub latency: LatencyHistogram,
}

impl Default for OpenLoopReport {
    fn default() -> OpenLoopReport {
        OpenLoopReport {
            target: 0,
            held: 0,
            connect_failures: 0,
            status_counts: BTreeMap::new(),
            transport_errors: 0,
            samples_micros: Vec::new(),
            latency: [0u64; 65],
        }
    }
}

impl OpenLoopReport {
    fn record(&mut self, endpoint: &str, status: u16, elapsed: Duration) {
        *self
            .status_counts
            .entry((endpoint.to_owned(), status))
            .or_insert(0) += 1;
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.samples_micros.push(micros);
        self.latency[bucket_index(micros)] += 1;
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

    /// The deterministic summary (stdout): target/held/connect-failure
    /// lines, then the same sorted `(endpoint, status)` lines as the
    /// closed loop, then transport errors.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "client open_loop target {}\nclient open_loop held {}\nclient open_loop connect_failures {}\n",
            self.target, self.held, self.connect_failures
        );
        for ((endpoint, status), count) in &self.status_counts {
            out.push_str(&format!("client {endpoint} {status} {count}\n"));
        }
        out.push_str(&format!(
            "client transport_errors {}\n",
            self.transport_errors
        ));
        out
    }

    /// The wall-latency view (stderr): p50/p99 plus the nonzero log2
    /// buckets. Non-deterministic; never feeds artifact bytes.
    #[must_use]
    pub fn render_latency(&self) -> String {
        let (p50, p99) = self.percentiles();
        let mut out = format!(
            "open_loop latency_us p50={p50} p99={p99} samples={}\nlatency open_loop:",
            self.samples_micros.len()
        );
        push_buckets(&mut out, &self.latency);
        out
    }
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

/// Run the open loop: connect the full set in paced bursts, drive the
/// active subset through the shared request path, then hold everything
/// open until `hold` expires.
///
/// # Errors
///
/// Only setup failures (an unwritable `rows_dir`); connect and request
/// failures are *counted*, not fatal.
pub fn run_open_loop(config: &OpenLoopConfig) -> Result<OpenLoopReport, String> {
    if let Some(dir) = &config.rows_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut report = OpenLoopReport {
        target: config.connections,
        ..OpenLoopReport::default()
    };
    let mut held: Vec<TcpStream> = Vec::with_capacity(config.connections);
    let burst = config.connect_burst.max(1);
    while held.len() + usize::try_from(report.connect_failures).unwrap_or(usize::MAX)
        < config.connections
    {
        let missing =
            config.connections - held.len() - usize::try_from(report.connect_failures).unwrap_or(0);
        for _ in 0..burst.min(missing) {
            match connect_with_retry(&config.addr, Duration::from_secs(10)) {
                Ok(stream) => held.push(stream),
                Err(_) => report.connect_failures += 1,
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    report.held = held.len();
    let hold_until = Instant::now() + config.hold;
    if config.run_every > 0 && config.requests > 0 {
        for slot in (0..held.len()).step_by(config.run_every) {
            for idx in 0..config.requests {
                // Mostly runs with a sprinkle of health probes, same
                // seeded mix discipline as the closed loop.
                let h = splitmix64(config.seed ^ ((slot as u64) << 32) ^ idx as u64);
                let (endpoint, method, body, spec) = if h % 8 == 7 {
                    ("/healthz", "GET", None, None)
                } else {
                    let spec = pick_spec(config.seed, slot, idx, config.size);
                    ("/v1/run", "POST", Some(spec.to_json()), Some(spec))
                };
                let started = Instant::now();
                match http_request_full(&mut held[slot], method, endpoint, body.as_deref()) {
                    Ok((status, response_body, _, _)) => {
                        report.record(endpoint, status, started.elapsed());
                        if status == 200 {
                            if let (Some(dir), Some(spec)) = (&config.rows_dir, &spec) {
                                let name = format!(
                                    "run-{}-{}-{}.json",
                                    spec.workload, spec.agent, spec.size
                                );
                                let _ = std::fs::write(dir.join(name), response_body.as_bytes());
                            }
                        } else if let Ok(fresh) =
                            connect_with_retry(&config.addr, Duration::from_secs(10))
                        {
                            // Error envelopes close (or may close) the
                            // stream; replace it so the held count stays
                            // at target for the rest of the run.
                            held[slot] = fresh;
                        }
                    }
                    Err(_) => {
                        report.transport_errors += 1;
                        if let Ok(fresh) = connect_with_retry(&config.addr, Duration::from_secs(10))
                        {
                            held[slot] = fresh;
                        }
                    }
                }
            }
        }
    }
    // The hold phase: every connection — active and idle — stays open so
    // the daemon's event loop carries the full set at once.
    let remaining = hold_until.saturating_duration_since(Instant::now());
    if !remaining.is_zero() {
        std::thread::sleep(remaining);
    }
    drop(held);
    if config.send_shutdown {
        if let Ok(mut stream) = connect_with_retry(&config.addr, Duration::from_secs(5)) {
            let _ = http_request(&mut stream, "POST", "/v1/shutdown", None);
        }
    }
    Ok(report)
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
        let mut report = ClientReport::default();
        report.record("/v1/run", 200, Duration::from_micros(5));
        report.record("/v1/run", 200, Duration::from_micros(9));
        report.record("/v1/run", 429, Duration::from_micros(1));
        report.record("/healthz", 200, Duration::from_micros(2));
        report.deferred = 1;
        assert_eq!(
            report.render_summary(),
            "client /healthz 200 1\nclient /v1/run 200 2\nclient /v1/run 429 1\nclient deferred 1\nclient transport_errors 0\n"
        );
        let latency = report.render_latency();
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
    fn open_loop_summary_is_sorted_and_carries_held_counts() {
        let mut report = OpenLoopReport {
            target: 4,
            held: 4,
            ..OpenLoopReport::default()
        };
        report.record("/v1/run", 200, Duration::from_micros(8));
        report.record("/healthz", 200, Duration::from_micros(2));
        assert_eq!(
            report.render_summary(),
            "client open_loop target 4\nclient open_loop held 4\n\
             client open_loop connect_failures 0\nclient /healthz 200 1\n\
             client /v1/run 200 1\nclient transport_errors 0\n"
        );
        let (p50, p99) = report.percentiles();
        assert!(p50 <= p99);
        assert!(report.render_latency().contains("samples=2"));
    }

    #[test]
    fn open_loop_holds_a_small_fleet_against_a_live_daemon() {
        use crate::server::{ServeConfig, Server};
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 2,
            ..ServeConfig::default()
        })
        .expect("bind");
        let report = run_open_loop(&OpenLoopConfig {
            addr: server.local_addr().to_string(),
            connections: 48,
            hold: Duration::from_millis(50),
            run_every: 8,
            requests: 2,
            connect_burst: 16,
            seed: 3,
            ..OpenLoopConfig::default()
        })
        .expect("open loop");
        assert_eq!(report.held, 48, "all connections must establish");
        assert_eq!(report.connect_failures, 0);
        assert_eq!(report.transport_errors, 0, "{:?}", report.status_counts);
        let answered: u64 = report.status_counts.values().sum();
        assert_eq!(answered, 12, "6 active conns x 2 requests");
        assert_eq!(report.samples_micros.len(), 12);
        let entries = server.shutdown();
        let highwater = entries[0]
            .snapshot
            .gauge(jvmsim_metrics::GaugeId::ServeOpenConnsHighwater);
        assert!(highwater >= 48, "highwater {highwater} must see the fleet");
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
