//! The daemon: one readiness event loop, a fixed worker pool, and the
//! typed endpoint routing over them.
//!
//! # Architecture
//!
//! A single loop thread owns every socket. It blocks in
//! [`polling::Poller::wait`] (epoll on Linux, `poll(2)` elsewhere) and
//! on each wakeup drains three sources: worker completions off the
//! [`CompletionBoard`], socket readiness events, and expired
//! `TimerWheel` deadline candidates. Nothing CPU-bound runs on the
//! loop — a validated `POST /v1/run` miss is handed to the worker pool
//! as a [`Job`] carrying a routing token, and the worker posts a
//! [`Completion`] back to the board (waking the loop via its notifier)
//! when the run finishes. One loop thread therefore holds tens of
//! thousands of keep-alive connections with a worker pool sized to the
//! CPUs.
//!
//! # Request lifecycle
//!
//! ```text
//! accept → Idle ──bytes──▶ Reading ──parsed──▶ ApiRequest::parse
//!   [serve-slow-read fault?] → 408 envelope
//!   probes/scrapes/cell     → answered on the loop
//!   POST /v1/run            → cache-first lookup on the loop
//!       hit  → row from the result plane
//!       miss → bounded queue → Dispatched (socket deregistered)
//!              worker: peer-fetch tier, else execute
//!              (full → 429, drain → 503, deadline → 504)
//!   → [serve-conn-drop fault?] → close unwritten
//!   → Writing (partial writes resume on writability)
//!   → account exactly once at write resolution → Idle (keep-alive)
//! ```
//!
//! # Determinism boundary
//!
//! A run's row bytes are a pure function of its identity (workload,
//! agent, size — the same [`SessionSpec`] the batch driver uses), so a
//! served `POST /v1/run` body is byte-identical to the batch row, cold or
//! warm, at any `--jobs` count. Error bodies are typed
//! [`ApiError`] envelopes whose bytes carry no addresses or timings, so
//! they are equally `--jobs`-invariant. Wall-clock only exists on the
//! *other* side of the boundary: the `serve_latency_micros` histogram
//! and the client's own timings, which never feed artifact bytes.
//!
//! # Tracing
//!
//! With [`ServeConfig::spans`] set, every `POST /v1/run` and
//! `GET /v1/cell/…` request opens a root span whose children price each
//! lifecycle stage in deterministic PCL cycles (the `recompute` stage is
//! the run's own `total_cycles`; everything else is a pure cost model
//! over request identity), so sibling stages partition the root exactly
//! and the whole ring is byte-reproducible at any `--jobs` count. Probe
//! and scrape endpoints stay untraced so span output is independent of
//! scrape cadence.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jnativeprof::cell::{cell_row_json, decode_cell_entry, encode_cell_entry, CellQuantities};
use jnativeprof::harness::HarnessError;
use jnativeprof::session::SessionSpec;
use jvmsim_cache::{CacheKey, CacheStore, Digest, Plane};
use jvmsim_faults::{FaultInjector, FaultPlan, FaultSite};
use jvmsim_metrics::{
    render_prometheus, CounterId, GaugeId, HistogramId, MetricsEntry, MetricsRegistry,
    MetricsSnapshot,
};
use jvmsim_spans::{
    accept_cost, admission_cost, cache_lookup_cost, encode_spans, peer_attempt_cost,
    queue_wait_cost, render_annotation, render_exemplars, render_spans_json, response_write_cost,
    row_encode_cost, SpanBuilder, SpanPlane, SpanRecord, SpanStage,
};
use polling::{Event, Notifier, Poller};

use crate::admission::{
    AdmissionError, AdmissionQueue, Completion, CompletionBoard, Job, JobOutput,
};
use crate::conn::{Conn, Phase, ReadOutcome, WriteOutcome};
use crate::http::{Request, Response, ServeError, READ_POLL};
use crate::peer::{hex_encode, PeerView};
use crate::spec::{ApiError, ApiRequest, ApiResponse, OutcomeClass};
use crate::timer::TimerWheel;

/// Poller key of the listening socket (connection slots count up from
/// zero and can never reach it; `usize::MAX` is the notifier's).
const LISTENER_KEY: usize = usize::MAX - 1;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker pool size (floored at 1).
    pub jobs: usize,
    /// Admission queue capacity (floored at 1).
    pub queue: usize,
    /// Per-request deadline: read + queue wait + execution. Elapsing it
    /// answers `408` (mid-read) or `504` (queued/running).
    pub deadline: Duration,
    /// Keep-alive idle cutoff: a connection with no request bytes for
    /// this long is closed silently (never accounted — no request ever
    /// arrived). `None` inherits [`ServeConfig::deadline`], the
    /// pre-async behavior where one clock bounded both.
    pub idle: Option<Duration>,
    /// Content-addressed store consulted before any run is scheduled and
    /// filled after every clean run.
    pub cache: Option<CacheStore>,
    /// Serve-plane fault plan (transport faults only — injected faults
    /// never reach the [`SessionSpec`] runs, so they cannot change row
    /// bytes). Inert by default.
    pub faults: FaultPlan,
    /// Fleet membership view for the peer-fetch cache tier. `None` (the
    /// default) keeps the daemon single-node: a local miss goes straight
    /// to the worker pool.
    pub peers: Option<PeerView>,
    /// Span-plane configuration; `None` (the default) disables tracing
    /// entirely (no ring, no per-request records, no annotations).
    pub spans: Option<SpanConfig>,
}

/// Configuration of the deterministic span plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanConfig {
    /// Trace-id seed; a fleet derives one per member from its drill seed
    /// so members never collide on trace ids.
    pub seed: u64,
    /// Ring capacity in spans (oldest evicted first, drops counted).
    pub capacity: usize,
    /// Fleet slot stamped on every record (0 for single-node daemons).
    pub member: u32,
}

impl Default for SpanConfig {
    fn default() -> SpanConfig {
        SpanConfig {
            seed: 0,
            capacity: 4096,
            member: 0,
        }
    }
}

/// A snapshot of one daemon's span plane, preserved across shutdowns and
/// kills by the cluster orchestrator.
#[derive(Debug, Clone)]
pub struct SpansSnapshot {
    /// Fleet slot the plane was stamped with.
    pub member: u32,
    /// Spans appended over the plane's lifetime.
    pub appended: u64,
    /// Spans dropped (ring eviction + injected saturation).
    pub dropped: u64,
    /// Ordinal-sorted surviving records.
    pub records: Vec<SpanRecord>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 2,
            queue: 16,
            deadline: Duration::from_secs(30),
            idle: None,
            cache: None,
            faults: FaultPlan::new(0),
            peers: None,
            spans: None,
        }
    }
}

/// State shared by the event loop and the workers.
struct Shared {
    registry: MetricsRegistry,
    /// Per-run registries absorbed here after each executed run.
    run_metrics: Mutex<MetricsSnapshot>,
    queue: AdmissionQueue,
    /// Where workers post finished jobs for the loop to route.
    board: CompletionBoard,
    cache: Option<CacheStore>,
    peers: Option<PeerView>,
    spans: Option<SpanPlane>,
    /// Connection ordinal source: accept order, never reused.
    conn_seq: AtomicU64,
    /// Job token source: monotonic, never reused.
    token_seq: AtomicU64,
    injector: Arc<FaultInjector>,
    draining: AtomicBool,
    deadline: Duration,
    idle: Duration,
    /// Wakes the loop from any thread (drain trigger, completions).
    notifier: Notifier,
}

impl Shared {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.queue.close();
        self.notifier.notify();
    }

    /// The single accounting point: every request increments `accepted`
    /// and exactly one outcome class, plus the wall-latency histogram.
    fn account(&self, outcome: OutcomeClass, started: Instant) {
        let shard = self.registry.global();
        shard.incr(CounterId::ServeAccepted);
        match outcome {
            OutcomeClass::Served { hit } => {
                shard.incr(CounterId::ServeServed);
                if hit {
                    shard.incr(CounterId::ServeHits);
                }
            }
            OutcomeClass::Shed => shard.incr(CounterId::ServeShed),
            OutcomeClass::Timeout => shard.incr(CounterId::ServeTimeout),
            OutcomeClass::Dropped => shard.incr(CounterId::ServeDropped),
            OutcomeClass::Error => shard.incr(CounterId::ServeErrors),
        }
        shard.observe(
            HistogramId::ServeLatencyMicros,
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
    }

    /// The two metric entries `/v1/metrics` exposes: the serve plane's own
    /// counters and the absorbed per-run registries.
    fn metric_entries(&self) -> Vec<MetricsEntry> {
        let runs = self
            .run_metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        vec![
            MetricsEntry {
                benchmark: "serve".to_owned(),
                agent: "server".to_owned(),
                snapshot: self.registry.snapshot(),
            },
            MetricsEntry {
                benchmark: "runs".to_owned(),
                agent: "all".to_owned(),
                snapshot: runs,
            },
        ]
    }
}

/// A running daemon. Dropping it without [`Server::shutdown`] leaks the
/// listener until process exit; the binaries always drain.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start: the event-loop thread + `jobs` workers.
    ///
    /// # Errors
    ///
    /// Bind failures (address in use, bad address) or fd exhaustion
    /// creating the poller.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), Event::readable(LISTENER_KEY))?;
        let notifier = poller.notifier();
        let registry = MetricsRegistry::new();
        // Cache hit/miss accounting lands in the server's own registry.
        let cache = config
            .cache
            .map(|store| store.with_metrics(registry.global()));
        let shared = Arc::new(Shared {
            registry,
            run_metrics: Mutex::new(MetricsSnapshot::default()),
            queue: AdmissionQueue::new(config.queue),
            board: CompletionBoard::new(notifier.clone()),
            cache,
            peers: config.peers,
            spans: config
                .spans
                .map(|s| SpanPlane::new(s.seed, s.member, s.capacity)),
            conn_seq: AtomicU64::new(0),
            token_seq: AtomicU64::new(0),
            injector: Arc::new(FaultInjector::new(config.faults)),
            draining: AtomicBool::new(false),
            deadline: config.deadline,
            idle: config.idle.unwrap_or(config.deadline),
            notifier,
        });
        let workers = (0..config.jobs.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let event_loop = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-loop".to_owned())
                .spawn(move || EventLoop::new(shared, poller, listener).run())?
        };
        Ok(Server {
            shared,
            local_addr,
            event_loop: Some(event_loop),
            workers,
        })
    }

    /// The bound address (the actual port when `:0` was requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Has a drain been triggered (locally or via `POST /v1/shutdown`)?
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Begin the graceful drain without waiting: stop accepting, refuse
    /// new work, let queued and running requests finish.
    pub fn trigger_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// The server-side metric entries (serve ledger + absorbed runs).
    #[must_use]
    pub fn metric_entries(&self) -> Vec<MetricsEntry> {
        self.shared.metric_entries()
    }

    /// The serve-plane injector's `(site, consulted, injected)` tallies.
    #[must_use]
    pub fn fault_summary(&self) -> Vec<(FaultSite, u64, u64)> {
        self.shared.injector.summary()
    }

    /// A snapshot of the span plane (`None` when tracing is off).
    /// Callable at any point in the daemon's life — the cluster snapshots
    /// a member's spans just before killing it, so a trace survives the
    /// daemon that recorded it.
    #[must_use]
    pub fn spans_snapshot(&self) -> Option<SpansSnapshot> {
        self.shared.spans.as_ref().map(|plane| SpansSnapshot {
            member: plane.member(),
            appended: plane.appended(),
            dropped: plane.dropped(),
            records: plane.snapshot(),
        })
    }

    /// Drain gracefully and join every thread: stop accepting, finish all
    /// queued and in-flight requests, close idle connections. Returns the
    /// final metric entries (the "flush" of the drain path).
    pub fn shutdown(mut self) -> Vec<MetricsEntry> {
        self.shared.begin_drain();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.metric_entries()
    }

    /// Block until a drain is triggered (e.g. by `POST /v1/shutdown`),
    /// then finish it as [`Server::shutdown`] does.
    pub fn wait(self) -> Vec<MetricsEntry> {
        while !self.shared.is_draining() {
            std::thread::sleep(READ_POLL);
        }
        self.shutdown()
    }
}

/// The loop thread's whole world: the poller, the listener, the
/// connection slab, the token routing table, and the deadline wheel.
struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    /// Slot-addressed connections; a slot index is its poller key.
    conns: Vec<Option<Conn>>,
    /// Recycled slot indices.
    free: Vec<usize>,
    /// Dispatched-job token → owning slot.
    tokens: HashMap<u64, usize>,
    wheel: TimerWheel,
    accepting: bool,
    live: usize,
}

impl EventLoop {
    fn new(shared: Arc<Shared>, poller: Poller, listener: TcpListener) -> EventLoop {
        EventLoop {
            shared,
            poller,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            tokens: HashMap::new(),
            wheel: TimerWheel::new(READ_POLL, 256),
            accepting: true,
            live: 0,
        }
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.is_draining() {
                self.wind_down();
                if self.live == 0 {
                    break;
                }
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            let _ = self.poller.wait(&mut events, timeout);
            // Completions first: they free slots and queue capacity
            // before new work is admitted this wakeup.
            for completion in self.shared.board.drain() {
                self.route_completion(completion);
            }
            for event in events.drain(..) {
                if event.key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    self.dispatch_event(event);
                }
            }
            let now = Instant::now();
            for slot in self.wheel.expired(now) {
                self.check_deadline(slot, now);
            }
        }
        if self.accepting {
            let _ = self.poller.delete(self.listener.as_raw_fd());
        }
    }

    /// Drain housekeeping: stop accepting, close idle keep-alive
    /// connections silently (no request in them to account).
    fn wind_down(&mut self) {
        if self.accepting {
            let _ = self.poller.delete(self.listener.as_raw_fd());
            self.accepting = false;
        }
        for slot in 0..self.conns.len() {
            let idle_empty = matches!(
                self.conns[slot].as_ref(),
                Some(c) if c.phase == Phase::Idle && !c.parser.mid_request()
            );
            if idle_empty {
                self.close_silent(slot);
            }
        }
    }

    fn accept_ready(&mut self) {
        while self.accepting {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                // WouldBlock drains the backlog; any other accept error is
                // transient — the listener stays registered, so the next
                // readiness event retries.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // The connection ordinal is assigned at accept, in accept order —
        // one half of every trace id minted on this connection.
        let ordinal = self.shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        let shard = self.shared.registry.global();
        shard.incr(CounterId::ServeConnsAccepted);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let now = Instant::now();
        let mut conn = Conn::new(stream, ordinal, now);
        if self
            .poller
            .add(conn.stream.as_raw_fd(), Event::readable(slot))
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        conn.registered = true;
        self.conns[slot] = Some(conn);
        self.live += 1;
        shard.gauge_max(GaugeId::ServeOpenConnsHighwater, self.live as u64);
        self.wheel.schedule(slot, now + self.shared.idle);
    }

    fn dispatch_event(&mut self, event: Event) {
        let Some(phase) = self
            .conns
            .get(event.key)
            .and_then(Option::as_ref)
            .map(|c| c.phase)
        else {
            return;
        };
        match phase {
            Phase::Idle | Phase::Reading if event.readable => self.drive_readable(event.key),
            Phase::Writing if event.writable => {
                self.try_flush(event.key);
                self.pump(event.key);
            }
            _ => {}
        }
    }

    /// Readable readiness: drain the socket into the parser, then run as
    /// many complete requests as arrived.
    fn drive_readable(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        match conn.fill() {
            // Transport failure with no response queued: nothing was
            // promised, nothing is accounted (exactly the old conn-thread
            // behavior for a torn read).
            ReadOutcome::Failed => self.close_silent(slot),
            ReadOutcome::Progress => self.pump(slot),
            ReadOutcome::Eof => {
                conn.peer_gone = true;
                self.pump(slot);
            }
        }
    }

    /// Advance the connection: parse-and-serve until blocked, then apply
    /// EOF consequences.
    fn pump(&mut self, slot: usize) {
        self.advance(slot);
        self.reap_eof(slot);
    }

    /// Parse-and-serve loop: each complete buffered request is processed
    /// in order (strictly serial per connection — pipelined bytes wait in
    /// the parser until the current response resolves).
    fn advance(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if !matches!(conn.phase, Phase::Idle | Phase::Reading) {
                return;
            }
            match conn.parser.try_next() {
                Err(error) => {
                    // Framing failure: the byte stream can no longer be
                    // trusted to start a next request; answer and close.
                    match ApiError::from_serve_error(&error) {
                        Some(envelope) => {
                            self.respond(slot, None, ApiResponse::Error(envelope));
                        }
                        None => self.close_silent(slot),
                    }
                    return;
                }
                Ok(Some(request)) => self.process(slot, &request),
                Ok(None) => {
                    let was_idle = conn.phase == Phase::Idle;
                    let mid = conn.parser.mid_request();
                    conn.phase = if mid { Phase::Reading } else { Phase::Idle };
                    if was_idle && mid {
                        // The request clock now races the full deadline,
                        // not the idle cutoff: arm a candidate at the new
                        // due time (matters when idle > deadline).
                        let due = conn.started + self.shared.deadline;
                        self.wheel.schedule(slot, due);
                    }
                    return;
                }
            }
        }
    }

    /// Apply EOF consequences once the parser has been given every byte:
    /// a clean between-requests EOF closes silently; bytes of an
    /// incomplete request answer the same `400` the blocking reader gave.
    fn reap_eof(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_ref() else {
            return;
        };
        if !conn.peer_gone {
            return;
        }
        match conn.phase {
            Phase::Idle if !conn.parser.mid_request() => self.close_silent(slot),
            Phase::Idle | Phase::Reading => {
                let message = if conn.parser.awaiting_body() {
                    "eof mid-body"
                } else {
                    "eof mid-headers"
                };
                let error = ServeError::Malformed(message.to_owned());
                match ApiError::from_serve_error(&error) {
                    Some(envelope) => self.respond(slot, None, ApiResponse::Error(envelope)),
                    None => self.close_silent(slot),
                }
            }
            // A response (or dispatched job) is in flight: the write half
            // may outlive the read half, so the write path decides.
            Phase::Dispatched { .. } | Phase::Writing => {}
        }
    }

    /// One parsed request: open its span, consult the slow-read fault,
    /// route through the typed API surface.
    fn process(&mut self, slot: usize, request: &Request) {
        let shared = Arc::clone(&self.shared);
        let mut span = {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            // The request ordinal on this connection — the other half of
            // the trace id; only parsed requests consume one.
            let req = conn.req_seq;
            conn.req_seq += 1;
            // Honor the client's `Connection: close` so one-shot callers
            // (the peer-fetch tier) see EOF, not a keep-alive connection
            // idling to their read timeout.
            conn.close_requested = request
                .header("connection")
                .is_some_and(|v| v.trim().eq_ignore_ascii_case("close"));
            open_span(&shared, conn.ordinal, req, request)
        };
        // Injected slow read: the request "never finished arriving"
        // within the deadline — same outcome class as a real stall. No
        // lifecycle stage ever ran, so it stays untraced (just as a real
        // torn read would).
        if shared.injector.inject(FaultSite::ServeSlowRead).is_some() {
            self.respond(
                slot,
                None,
                ApiResponse::Error(ApiError::injected_slow_read()),
            );
            return;
        }
        let parsed = ApiRequest::parse(request);
        if request.method == "POST" && request.path == "/v1/run" {
            if let Some(s) = span.as_mut() {
                s.stage(
                    SpanStage::Admission,
                    admission_cost(),
                    u64::from(parsed.is_err()),
                );
            }
        }
        match parsed {
            Err(error) => self.respond(slot, span, ApiResponse::Error(error)),
            Ok(ApiRequest::Health) => self.respond(slot, span, ApiResponse::Health),
            Ok(ApiRequest::Metrics) => {
                let mut body = render_prometheus(&shared.metric_entries());
                if let Some(plane) = &shared.spans {
                    body.push_str(&render_exemplars(&plane.snapshot()));
                }
                self.respond(slot, span, ApiResponse::Metrics(body));
            }
            Ok(ApiRequest::Spans) => {
                let body = match &shared.spans {
                    None => "{\"enabled\":false}\n".to_owned(),
                    Some(plane) => render_spans_json(
                        plane.member(),
                        plane.appended(),
                        plane.dropped(),
                        &plane.snapshot(),
                    ),
                };
                self.respond(slot, span, ApiResponse::Spans(body));
            }
            Ok(ApiRequest::SpansBin) => {
                let api = match &shared.spans {
                    None => ApiResponse::Error(ApiError::spans_disabled()),
                    Some(plane) => {
                        ApiResponse::SpansBin(hex_encode(&encode_spans(&plane.snapshot())))
                    }
                };
                self.respond(slot, span, api);
            }
            Ok(ApiRequest::CacheStats) => {
                let body = match &shared.cache {
                    None => "{\"enabled\":false}\n".to_owned(),
                    Some(store) => {
                        let s = store.stats();
                        format!(
                            "{{\"enabled\":true,\"hits\":{},\"misses\":{},\"stores\":{},\
                             \"quarantined\":{},\"bytes_read\":{},\"bytes_written\":{}}}\n",
                            s.hits,
                            s.misses,
                            s.stores,
                            s.quarantined,
                            s.bytes_read,
                            s.bytes_written
                        )
                    }
                };
                self.respond(slot, span, ApiResponse::CacheStats(body));
            }
            Ok(ApiRequest::Shutdown) => {
                shared.begin_drain();
                self.respond(slot, span, ApiResponse::Draining);
            }
            Ok(ApiRequest::Cell(digest)) => self.handle_cell(slot, span, digest),
            Ok(ApiRequest::Run(spec)) => self.handle_run(slot, span, spec),
        }
    }

    /// `GET /v1/cell/<hex-key>`: the peer-fetch supply side. Answers the
    /// hex-encoded cell-result entry for the given key digest, `404` when
    /// the local store does not hold it. The store digest-verifies the
    /// payload on lookup, so a peer can never export a torn entry.
    fn handle_cell(&mut self, slot: usize, mut span: Option<SpanBuilder>, digest: Digest) {
        let key = CacheKey::from_digest(digest);
        let looked_up = self
            .shared
            .cache
            .as_ref()
            .and_then(|store| store.lookup(Plane::CellResult, &key));
        if let Some(s) = span.as_mut() {
            s.stage(
                SpanStage::CacheLookup,
                cache_lookup_cost(looked_up.as_deref().map(<[u8]>::len)),
                looked_up.as_deref().map_or(0, |b| b.len() as u64),
            );
        }
        let api = match looked_up {
            Some(bytes) => ApiResponse::Cell(hex_encode(&bytes)),
            None => ApiResponse::Error(ApiError::absent()),
        };
        self.respond(slot, span, api);
    }

    /// `POST /v1/run`: cache-first on the loop, then hand the miss to the
    /// worker pool and move the connection to `Dispatched`.
    fn handle_run(&mut self, slot: usize, mut span: Option<SpanBuilder>, spec: SessionSpec) {
        let shared = Arc::clone(&self.shared);
        // Cache-first: a warm identity never touches the queue. Every hit
        // is digest-verified by the store; a verified frame whose payload
        // does not decode is quarantined and falls through to a fresh run.
        if let Some(store) = &shared.cache {
            if let Ok(key) = spec.with_session(|s| s.result_key()) {
                let looked_up = store.lookup(Plane::CellResult, &key);
                if let Some(s) = span.as_mut() {
                    s.stage(
                        SpanStage::CacheLookup,
                        cache_lookup_cost(looked_up.as_deref().map(<[u8]>::len)),
                        looked_up.as_deref().map_or(0, |b| b.len() as u64),
                    );
                }
                if let Some(bytes) = looked_up {
                    match decode_cell_entry(&bytes) {
                        Some((cell, _sites)) => {
                            let row = cell_row_json(
                                &spec.workload,
                                spec.agent.label(),
                                spec.size.0,
                                &cell,
                            );
                            if let Some(s) = span.as_mut() {
                                s.stage(
                                    SpanStage::RowEncode,
                                    row_encode_cost(row.len()),
                                    row.len() as u64,
                                );
                            }
                            self.respond(slot, span, ApiResponse::Row { row, hit: true });
                            return;
                        }
                        None => store.quarantine(Plane::CellResult, &key),
                    }
                }
            }
        }
        // Miss: dispatch. The peer-fetch tier now runs inside the job
        // (fetch-or-recompute), so the loop never blocks on a peer's
        // socket. The outgoing traceparent carries this request's root
        // span — the fleet stitch.
        let token = shared.token_seq.fetch_add(1, Ordering::Relaxed);
        let abandoned = Arc::new(AtomicBool::new(false));
        let traceparent = span.as_ref().map(SpanBuilder::traceparent);
        let job = Job {
            spec,
            token,
            traceparent,
            abandoned: Arc::clone(&abandoned),
        };
        match shared.queue.try_enqueue(job) {
            Err(AdmissionError::Full) => {
                self.respond(slot, span, ApiResponse::Error(ApiError::queue_full()));
            }
            Err(AdmissionError::Closed) => {
                self.respond(slot, span, ApiResponse::Error(ApiError::draining()));
            }
            Ok(ahead) => {
                // Queue wait is priced per job ahead at enqueue: 0 under
                // sequential load, which is exactly what keeps drill spans
                // `--jobs` invariant. The depth gauge counts this job too.
                let wait = queue_wait_cost(ahead);
                let shard = shared.registry.global();
                shard.gauge_max(GaugeId::ServeQueueDepthHighwater, ahead as u64 + 1);
                shard.observe(HistogramId::ServeQueueWaitCycles, wait);
                if let Some(s) = span.as_mut() {
                    s.stage(SpanStage::QueueWait, wait, ahead as u64);
                }
                let Some(conn) = self.conns[slot].as_mut() else {
                    abandoned.store(true, Ordering::Release);
                    return;
                };
                conn.phase = Phase::Dispatched { token };
                conn.span = span;
                conn.abandoned = Some(abandoned);
                let due = conn.started + shared.deadline;
                self.tokens.insert(token, slot);
                self.wheel.schedule(slot, due);
                // Deregister while in flight: level-triggered readiness on
                // a half-closed socket would busy-wake the loop otherwise.
                self.update_interest(slot);
            }
        }
    }

    /// Route one worker completion back to its connection (if it is still
    /// waiting) and price the job's span stages.
    fn route_completion(&mut self, completion: Completion) {
        let Some(slot) = self.tokens.remove(&completion.token) else {
            return;
        };
        let waiting = matches!(
            self.conns[slot].as_ref().map(|c| c.phase),
            Some(Phase::Dispatched { token }) if token == completion.token
        );
        if !waiting {
            return;
        }
        let mut span = self.conns[slot].as_mut().and_then(|conn| conn.span.take());
        let api = match completion.result {
            Ok(output) => {
                if let Some(s) = span.as_mut() {
                    for a in &output.attempts {
                        let detail = ((a.peer as u64) << 32)
                            | u64::from(a.attempt)
                            | (u64::from(a.found) << 63);
                        s.stage(
                            SpanStage::PeerFetch,
                            peer_attempt_cost(a.backoff_ms, a.payload_bytes),
                            detail,
                        );
                    }
                    if !output.hit {
                        // The one genuinely measured stage: the run's own
                        // PCL total, itself a pure function of the spec.
                        s.stage(SpanStage::Recompute, output.cycles, 0);
                    }
                    s.stage(
                        SpanStage::RowEncode,
                        row_encode_cost(output.row.len()),
                        output.row.len() as u64,
                    );
                }
                ApiResponse::Row {
                    row: output.row,
                    hit: output.hit,
                }
            }
            Err(error) => ApiResponse::Error(ApiError::from_harness(500, &error)),
        };
        self.respond(slot, span, api);
        self.pump(slot);
    }

    /// A fired timer candidate. Dueness is lazily re-checked against the
    /// connection's actual clock — stale candidates re-arm, due ones act.
    fn check_deadline(&mut self, slot: usize, now: Instant) {
        let (due, phase) = {
            let Some(conn) = self.conns[slot].as_ref() else {
                return;
            };
            let due = match conn.phase {
                Phase::Idle => conn.started + self.shared.idle,
                _ => conn.started + self.shared.deadline,
            };
            (due, conn.phase)
        };
        if now < due {
            self.wheel.schedule(slot, due);
            return;
        }
        match phase {
            // Idle cutoff: no request in it, nothing to account.
            Phase::Idle => self.close_silent(slot),
            Phase::Reading => {
                // The request never finished arriving: the same `408` the
                // blocking reader's deadline produced. Untraced, like
                // every torn read.
                match ApiError::from_serve_error(&ServeError::ReadTimeout) {
                    Some(envelope) => self.respond(slot, None, ApiResponse::Error(envelope)),
                    None => self.close_silent(slot),
                }
            }
            Phase::Dispatched { token } => {
                // Deadline while queued or running: mark the job so an
                // unstarted execution is skipped; a started one finishes
                // harmlessly into a dropped token (and still warms the
                // cache).
                self.tokens.remove(&token);
                let span = self.conns[slot].as_mut().and_then(|conn| {
                    if let Some(flag) = conn.abandoned.take() {
                        flag.store(true, Ordering::Release);
                    }
                    conn.span.take()
                });
                self.respond(slot, span, ApiResponse::Error(ApiError::deadline()));
            }
            Phase::Writing => {
                // The peer stopped draining its response past the
                // deadline: the queued response is lost.
                if let Some(conn) = self.conns[slot].as_ref() {
                    self.shared.account(OutcomeClass::Dropped, conn.started);
                }
                self.close_silent(slot);
            }
        }
    }

    /// Turn a typed response into wire bytes on the connection: honor
    /// `Connection: close` and the drain, seal the span, consult the
    /// conn-drop fault, book the outcome for the write to resolve.
    fn respond(&mut self, slot: usize, span: Option<SpanBuilder>, api: ApiResponse) {
        let shared = Arc::clone(&self.shared);
        let (mut response, outcome) = api.into_parts();
        {
            let Some(conn) = self.conns[slot].as_ref() else {
                return;
            };
            if conn.close_requested {
                response = response.closing();
            }
        }
        // Close after the response once draining (finish in-flight, then
        // wind the connection down).
        if shared.is_draining() {
            response = response.closing();
        }
        // Seal the span: price the response write (known before the write
        // happens — the cost model only needs the body length), annotate
        // the response, and land the records in the ring.
        let response = finish_span(&shared, span, response);
        // Injected connection drop: the response is computed but the peer
        // never sees it. A real failed write lands in the same outcome
        // class; either way the request is accounted exactly once.
        if shared.injector.inject(FaultSite::ServeConnDrop).is_some() {
            if let Some(conn) = self.conns[slot].as_ref() {
                shared.account(OutcomeClass::Dropped, conn.started);
            }
            self.close_silent(slot);
            return;
        }
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.outcome = Some(outcome);
            conn.close_after_write = response.close;
            conn.phase = Phase::Writing;
            conn.queue_write(response.render());
        }
        self.try_flush(slot);
    }

    /// Push queued response bytes; on full write, account the request
    /// exactly once and return to keep-alive `Idle` (or close).
    fn try_flush(&mut self, slot: usize) {
        let flushed = {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.phase != Phase::Writing {
                return;
            }
            conn.flush()
        };
        match flushed {
            WriteOutcome::Blocked => self.update_interest(slot),
            WriteOutcome::Failed => {
                // Torn write: the peer never saw the response.
                if let Some(conn) = self.conns[slot].as_ref() {
                    self.shared.account(OutcomeClass::Dropped, conn.started);
                }
                self.close_silent(slot);
            }
            WriteOutcome::Done => {
                let close = {
                    let Some(conn) = self.conns[slot].as_mut() else {
                        return;
                    };
                    let outcome = conn.outcome.take().unwrap_or(OutcomeClass::Error);
                    self.shared.account(outcome, conn.started);
                    conn.close_after_write
                };
                if close {
                    self.close_silent(slot);
                    return;
                }
                let now = Instant::now();
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.finish_request(now);
                }
                self.wheel.schedule(slot, now + self.shared.idle);
                self.update_interest(slot);
            }
        }
    }

    /// Reconcile the poller registration with the connection's phase
    /// interest (readable / writable / deregistered while dispatched).
    fn update_interest(&mut self, slot: usize) {
        let (fd, want, registered) = {
            let Some(conn) = self.conns[slot].as_ref() else {
                return;
            };
            (
                conn.stream.as_raw_fd(),
                conn.interest(slot),
                conn.registered,
            )
        };
        let engaged = want.readable || want.writable;
        let ok = match (registered, engaged) {
            (true, true) => self.poller.modify(fd, want).is_ok(),
            (false, true) => self.poller.add(fd, want).is_ok(),
            (true, false) => {
                let _ = self.poller.delete(fd);
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.registered = false;
                }
                return;
            }
            (false, false) => return,
        };
        if ok {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.registered = true;
            }
        } else {
            self.close_silent(slot);
        }
    }

    /// Tear a connection down without touching the ledger (the caller
    /// accounts first when there is anything to account).
    fn close_silent(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        if conn.registered {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        if let Phase::Dispatched { token } = conn.phase {
            self.tokens.remove(&token);
            if let Some(flag) = &conn.abandoned {
                flag.store(true, Ordering::Release);
            }
        }
        self.free.push(slot);
        self.live -= 1;
    }
}

/// Open the root span for a traced request. Only the request-serving
/// endpoints (`POST /v1/run` and the peer supply side `GET /v1/cell/…`)
/// are traced: probes and scrapes record nothing, so span output never
/// depends on scrape cadence. The `traceparent` header, when present and
/// well-formed, stitches this span into the sender's trace.
fn open_span(shared: &Arc<Shared>, conn: u64, req: u64, request: &Request) -> Option<SpanBuilder> {
    let plane = shared.spans.as_ref()?;
    let traced = (request.method == "POST" && request.path == "/v1/run")
        || (request.method == "GET" && request.path.starts_with("/v1/cell/"));
    if !traced {
        return None;
    }
    let mut span = SpanBuilder::begin(
        plane.seed(),
        plane.member(),
        conn,
        req,
        request.header("traceparent"),
    );
    let wire_bytes = request.path.len() + request.body.len();
    span.stage(
        SpanStage::Accept,
        accept_cost(wire_bytes),
        wire_bytes as u64,
    );
    Some(span)
}

/// Close a request's span: price the response write, stamp the
/// annotation header, push the records.
fn finish_span(
    shared: &Arc<Shared>,
    span: Option<SpanBuilder>,
    mut response: Response,
) -> Response {
    let Some(mut span) = span else {
        return response;
    };
    span.stage(
        SpanStage::ResponseWrite,
        response_write_cost(response.body.len()),
        response.body.len() as u64,
    );
    let records = span.finish(response.status);
    response.span = Some(render_annotation(&records));
    if let Some(plane) = &shared.spans {
        plane.push(records, &shared.injector);
    }
    response
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.dequeue() {
        if job.is_abandoned() {
            continue;
        }
        let result = execute_job(shared, &job);
        // A dead token means the requester timed out mid-run; the row
        // (if any) is already in the cache for the retry.
        shared.board.post(Completion {
            token: job.token,
            result,
        });
    }
}

/// Execute one job: try the peer-fetch tier, else run the spec through
/// the Session API and render its canonical row. This is the only place
/// the serve plane runs workloads; the fault injector is deliberately
/// *not* attached to the session, so transport chaos can never perturb
/// row bytes.
fn execute_job(shared: &Arc<Shared>, job: &Job) -> Result<JobOutput, HarnessError> {
    let spec = &job.spec;
    let mut attempts = Vec::new();
    // Tier two: before paying for a recompute, ask the fleet. A peer
    // that already owns this identity hands the entry over; it is
    // decode-validated here, stored locally, and served as a hit.
    // Exhausting every peer degrades to the recompute below.
    if let (Some(store), Some(view)) = (&shared.cache, &shared.peers) {
        if let Ok(key) = spec.with_session(|s| s.result_key()) {
            let shard = shared.registry.global();
            let fetched = view.fetch_entry(
                &key.digest().to_hex(),
                &shared.injector,
                &shard,
                job.traceparent.as_deref(),
                &mut attempts,
            );
            match fetched.as_deref().and_then(decode_cell_entry) {
                Some((cell, _sites)) => {
                    shard.incr(CounterId::ClusterPeerHits);
                    if let Some(bytes) = &fetched {
                        let _ = store.store(Plane::CellResult, &key, bytes);
                    }
                    let row = cell_row_json(&spec.workload, spec.agent.label(), spec.size.0, &cell);
                    return Ok(JobOutput {
                        row,
                        cycles: cell.total_cycles,
                        hit: true,
                        attempts,
                    });
                }
                None => shard.incr(CounterId::ClusterPeerMisses),
            }
        }
    }
    let registry = MetricsRegistry::new();
    let run = spec.with_session(|mut session| {
        session = session.metrics(registry.clone());
        if let Some(store) = &shared.cache {
            session = session.cache(store.clone());
        }
        session.run()
    })??;
    // The fleet's zero-double-compute audit: this is the only line that
    // turns a spec into a row, so summing `serve_runs_executed` across
    // members counts real computes exactly.
    shared.registry.global().incr(CounterId::ServeRunsExecuted);
    let cell = CellQuantities::from_run(&run);
    if let Some(store) = &shared.cache {
        if let Ok(key) = spec.with_session(|s| s.result_key()) {
            // Site tallies are empty off the chaos path — exactly what the
            // batch driver stores for a fault-free cell, so serve-written
            // and suite-written entries are interchangeable.
            let _ = store.store(Plane::CellResult, &key, &encode_cell_entry(&cell, &[]));
        }
    }
    shared
        .run_metrics
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .absorb(&registry.snapshot());
    Ok(JobOutput {
        row: cell_row_json(&spec.workload, spec.agent.label(), spec.size.0, &cell),
        cycles: cell.total_cycles,
        hit: false,
        attempts,
    })
}
