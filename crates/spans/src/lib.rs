//! `jvmsim-spans`: the deterministic distributed-tracing plane.
//!
//! Every request entering the serve daemon opens a **root span** and one
//! **child span per lifecycle stage** (accept, admission verdict, cache
//! lookup + verify, each peer-fetch attempt, queue wait, recompute, row
//! encode, response write). Two properties make the plane unlike a
//! wall-clock tracer:
//!
//! 1. **Byte-reproducible identity.** The 128-bit trace id is
//!    [`splitmix64`] over `(daemon seed, connection ordinal, request
//!    ordinal)` — no wall clock, no thread identity — so the same drill
//!    produces the same trace ids at any `--jobs` count.
//! 2. **Exact attribution.** Stage durations are *modeled* cycle costs on
//!    the paper's clock ([`jvmsim_pcl::PAPER_CLOCK_HZ`]): pure functions
//!    of request identity and outcome path (payload bytes, queue depth at
//!    enqueue, the seeded backoff schedule, the run's own PCL
//!    `total_cycles` for the recompute stage). The root span's duration
//!    is *defined* as the sum of its children, so sibling stages
//!    partition the parent exactly — the same ledger discipline
//!    `jvmsim-metrics` enforces on its attribution buckets — and the
//!    partition invariant is checkable, not approximate.
//!
//! Trace context crosses fleet hops in a W3C-`traceparent`-shaped HTTP
//! header (`00-<32 hex trace id>-<16 hex parent span id>-01`): a peer
//! fetch forwards its root span's identity, so one trace stitches the
//! full fleet path (home member → failover successor → peer tier →
//! recompute). Malformed context is ignored, never fatal — the receiver
//! just opens a fresh root.
//!
//! Spans land in a bounded per-daemon [`SpanPlane`] ring (oldest evicted
//! first, every drop counted; the `span-buffer-saturation` fault site can
//! force drops in chaos runs), render to deterministic ordinal-sorted
//! JSON for `GET /v1/spans`, and travel between processes in a strict
//! versioned binary codec that fails closed on any truncation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use jvmsim_faults::{splitmix64, FaultInjector, FaultSite};
use jvmsim_pcl::PAPER_CLOCK_HZ;

/// Per-operand salts so connection and request ordinals decorrelate in
/// the trace-id stream (same shape as the fault plane's per-site salts).
const CONN_SALT: u64 = 0xA24B_AED4_963E_E407;
const REQ_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const CHILD_SALT: u64 = 0xD6E8_FEB8_6659_FD93;
const ROOT_SALT: u64 = 0x2545_F491_4F6C_DD1D;

/// A 128-bit trace identity, derived — never random.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    /// High 64 bits (seed × connection ordinal).
    pub hi: u64,
    /// Low 64 bits (high half × request ordinal).
    pub lo: u64,
}

impl TraceId {
    /// Derive the trace id for request `req` on connection `conn` of the
    /// daemon seeded `seed`. Pure; the all-zero id (which `traceparent`
    /// forbids) is nudged to `lo = 1`.
    #[must_use]
    pub fn derive(seed: u64, conn: u64, req: u64) -> TraceId {
        let hi = splitmix64(seed ^ conn.wrapping_mul(CONN_SALT));
        let mut lo = splitmix64(hi ^ req.wrapping_mul(REQ_SALT));
        if hi == 0 && lo == 0 {
            lo = 1;
        }
        TraceId { hi, lo }
    }

    /// Lower-case 32-digit hex rendering.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Inverse of [`TraceId::to_hex`]; `None` unless exactly 32 hex digits.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(TraceId {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

jvmsim_metrics::id_table! {
    /// The request lifecycle stages. `Root` is the request span itself; the
    /// rest are its children, in the order the lifecycle visits them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SpanStage {
        /// The whole request (duration ≡ Σ children).
        Root => "root",
        /// Accepting and reading the request off the wire.
        Accept => "accept",
        /// Parsing/validating the spec — the admission verdict.
        Admission => "admission",
        /// Waiting in the bounded admission queue behind earlier jobs.
        QueueWait => "queue_wait",
        /// Content-addressed store lookup plus digest verification.
        CacheLookup => "cache_lookup",
        /// One peer-fetch wire attempt (backoff included; one span each).
        PeerFetch => "peer_fetch",
        /// Executing the run through the Session API (the run's own PCL
        /// cycles — the only stage timed by a real clock reading).
        Recompute => "recompute",
        /// Rendering the canonical cell row.
        RowEncode => "row_encode",
        /// Serializing and writing the response.
        ResponseWrite => "response_write",
        /// Client-side: the seeded sleep honoring a `429 Retry-After` hint.
        DeferredWait => "deferred_wait",
    }
}

impl SpanStage {
    /// Inverse of [`SpanStage::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<SpanStage> {
        SpanStage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Stage from its dense index.
    #[must_use]
    pub fn from_index(i: usize) -> Option<SpanStage> {
        SpanStage::ALL.get(i).copied()
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace identity, high half.
    pub trace_hi: u64,
    /// Trace identity, low half.
    pub trace_lo: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id: the root for children; for a root, the propagated
    /// remote parent (0 when the trace originated here).
    pub parent_span: u64,
    /// Fleet slot of the daemon that recorded the span.
    pub member: u32,
    /// Connection ordinal on that daemon (accept order).
    pub conn: u64,
    /// Request ordinal on that connection.
    pub req: u64,
    /// What the span measures.
    pub stage: SpanStage,
    /// Start offset within the trace, in cycles (root starts at 0;
    /// children tile the root without gaps).
    pub start_cycles: u64,
    /// Duration in cycles (root ≡ Σ children).
    pub duration_cycles: u64,
    /// Stage-specific detail: the response status on a root span; on a
    /// `peer_fetch` span `(peer << 32) | attempt`, with bit 63 set when
    /// the attempt found the entry; the depth at enqueue on `queue_wait`;
    /// payload bytes elsewhere.
    pub detail: u64,
}

// --- The deterministic stage cost model ------------------------------------

/// Cycles per modeled millisecond, at the paper's 2.66 GHz clock.
pub const CYCLES_PER_MS: u64 = PAPER_CLOCK_HZ / 1000;

/// Convert modeled milliseconds (backoff schedules, retry hints) to the
/// cycle clock every span is timed on.
#[must_use]
pub const fn ms_to_cycles(ms: u64) -> u64 {
    ms.saturating_mul(CYCLES_PER_MS)
}

/// Fixed cost of accepting a request plus a per-byte read cost.
#[must_use]
pub const fn accept_cost(request_bytes: usize) -> u64 {
    1_600 + 8 * request_bytes as u64
}

/// Fixed cost of the admission verdict (spec parse + validation).
#[must_use]
pub const fn admission_cost() -> u64 {
    400
}

/// Store lookup + digest verification: base probe cost plus a per-byte
/// verify cost over the entry actually read (`None` on a miss).
#[must_use]
pub const fn cache_lookup_cost(entry_bytes: Option<usize>) -> u64 {
    match entry_bytes {
        Some(n) => 2_400 + 8 * n as u64,
        None => 2_400,
    }
}

/// One peer-fetch wire attempt: connection setup plus the seeded backoff
/// slept before it (milliseconds → cycles) plus a per-byte transfer cost
/// over the payload it brought home (0 for 404/failed attempts).
#[must_use]
pub const fn peer_attempt_cost(backoff_ms: u64, payload_bytes: usize) -> u64 {
    8_000 + ms_to_cycles(backoff_ms) + 8 * payload_bytes as u64
}

/// Queue wait, charged per job already queued at enqueue time — 0 under
/// sequential load, which is exactly what makes drill spans `--jobs`
/// invariant.
#[must_use]
pub const fn queue_wait_cost(depth_at_enqueue: usize) -> u64 {
    12_000 * depth_at_enqueue as u64
}

/// Rendering the canonical cell row.
#[must_use]
pub const fn row_encode_cost(row_bytes: usize) -> u64 {
    1_200 + 4 * row_bytes as u64
}

/// Serializing and writing the response body.
#[must_use]
pub const fn response_write_cost(body_bytes: usize) -> u64 {
    1_000 + 2 * body_bytes as u64
}

// --- traceparent -----------------------------------------------------------

/// Render the propagation header: `00-<trace>-<parent span>-01`.
#[must_use]
pub fn render_traceparent(trace: TraceId, parent_span: u64) -> String {
    format!("00-{}-{parent_span:016x}-01", trace.to_hex())
}

/// Parse a propagation header. Deliberately lenient about everything but
/// shape: any malformed value yields `None` (the receiver opens a fresh
/// root), never an error — a hostile or ancient client cannot make the
/// daemon fail a request over its tracing header.
#[must_use]
pub fn parse_traceparent(value: &str) -> Option<(TraceId, u64)> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    if version.len() != 2 || !version.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let trace = TraceId::from_hex(parts.next()?)?;
    let parent = parts.next()?;
    if parent.len() != 16 || !parent.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let parent_span = u64::from_str_radix(parent, 16).ok()?;
    // Flags field must exist; trailing fields are tolerated (future
    // versions append, per the W3C grammar).
    let flags = parts.next()?;
    if flags.len() != 2 || !flags.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    if trace.hi == 0 && trace.lo == 0 {
        return None;
    }
    Some((trace, parent_span))
}

// --- SpanBuilder -----------------------------------------------------------

/// Accumulates one request's stages and freezes them into records whose
/// root duration is the exact sum of its children.
#[derive(Debug)]
pub struct SpanBuilder {
    trace: TraceId,
    parent: u64,
    member: u32,
    conn: u64,
    req: u64,
    root_id: u64,
    stages: Vec<(SpanStage, u64, u64)>,
}

impl SpanBuilder {
    /// Open a request span: adopt the (leniently parsed) `traceparent`
    /// when one arrived, otherwise derive a fresh root identity from the
    /// daemon seed and the request's ordinals.
    #[must_use]
    pub fn begin(
        seed: u64,
        member: u32,
        conn: u64,
        req: u64,
        traceparent: Option<&str>,
    ) -> SpanBuilder {
        let (trace, parent) = traceparent
            .and_then(parse_traceparent)
            .unwrap_or((TraceId::derive(seed, conn, req), 0));
        let root_id = splitmix64(trace.lo ^ trace.hi.wrapping_mul(ROOT_SALT) ^ u64::from(member));
        SpanBuilder {
            trace,
            parent,
            member,
            conn,
            req,
            root_id,
            stages: Vec::with_capacity(8),
        }
    }

    /// This request's trace identity.
    #[must_use]
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The root span's id — what an outgoing peer fetch forwards as the
    /// remote hop's parent.
    #[must_use]
    pub fn root_span_id(&self) -> u64 {
        self.root_id
    }

    /// The propagation header an outgoing fleet hop should carry.
    #[must_use]
    pub fn traceparent(&self) -> String {
        render_traceparent(self.trace, self.root_id)
    }

    /// Append one stage with its modeled cycle cost.
    pub fn stage(&mut self, stage: SpanStage, cycles: u64, detail: u64) {
        self.stages.push((stage, cycles, detail));
    }

    /// Freeze into records: root first (duration ≡ Σ children, `detail` =
    /// response status), then the children tiling `[0, total)` in stage
    /// order — the partition invariant holds by construction.
    #[must_use]
    pub fn finish(self, status: u16) -> Vec<SpanRecord> {
        let total: u64 = self.stages.iter().map(|(_, c, _)| *c).sum();
        let mut out = Vec::with_capacity(self.stages.len() + 1);
        out.push(SpanRecord {
            trace_hi: self.trace.hi,
            trace_lo: self.trace.lo,
            span_id: self.root_id,
            parent_span: self.parent,
            member: self.member,
            conn: self.conn,
            req: self.req,
            stage: SpanStage::Root,
            start_cycles: 0,
            duration_cycles: total,
            detail: u64::from(status),
        });
        let mut cursor = 0u64;
        for (i, (stage, cycles, detail)) in self.stages.into_iter().enumerate() {
            out.push(SpanRecord {
                trace_hi: self.trace.hi,
                trace_lo: self.trace.lo,
                span_id: splitmix64(self.root_id ^ (i as u64 + 1).wrapping_mul(CHILD_SALT)),
                parent_span: self.root_id,
                member: self.member,
                conn: self.conn,
                req: self.req,
                stage,
                start_cycles: cursor,
                duration_cycles: cycles,
                detail,
            });
            cursor += cycles;
        }
        out
    }
}

// --- SpanPlane: the bounded per-daemon ring --------------------------------

/// The per-daemon collection point: seed, member identity, and a bounded
/// ring of finished spans. Oldest records are evicted first when the ring
/// is full; every drop (eviction or injected saturation) is counted so a
/// drill can reason about surviving spans honestly.
#[derive(Debug)]
pub struct SpanPlane {
    seed: u64,
    member: u32,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
    appended: AtomicU64,
    dropped: AtomicU64,
}

impl SpanPlane {
    /// A plane for the daemon seeded `seed` at fleet slot `member`,
    /// holding at most `capacity` spans (floored at 1).
    #[must_use]
    pub fn new(seed: u64, member: u32, capacity: usize) -> SpanPlane {
        SpanPlane {
            seed,
            member,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            appended: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The daemon's trace-id seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The daemon's fleet slot.
    #[must_use]
    pub fn member(&self) -> u32 {
        self.member
    }

    /// Ring capacity in spans.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one request's records. The `span-buffer-saturation` fault
    /// site is consulted once per request: an injection drops the whole
    /// batch (counted), modeling a saturated collector.
    pub fn push(&self, records: Vec<SpanRecord>, injector: &FaultInjector) {
        if injector.inject(FaultSite::SpanBufferSaturation).is_some() {
            self.dropped
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        for record in records {
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(record);
            self.appended.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans appended (including any later evicted).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Spans dropped (ring eviction + injected saturation).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Ordinal-sorted snapshot: `(conn, req, root-first, start, span id)`
    /// — a pure function of the recorded set, so two daemons that served
    /// the same requests render byte-identical snapshots regardless of
    /// worker count or completion order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        sort_ordinal(&mut spans);
        spans
    }
}

/// The canonical ordinal sort every export uses.
pub fn sort_ordinal(spans: &mut [SpanRecord]) {
    spans.sort_by_key(|r| {
        (
            r.member,
            r.conn,
            r.req,
            usize::from(r.stage != SpanStage::Root),
            r.start_cycles,
            r.span_id,
        )
    });
}

// --- JSON rendering --------------------------------------------------------

/// Render one span as a fixed-key-order JSON object.
fn span_json(r: &SpanRecord) -> String {
    format!(
        "{{\"trace\":\"{:016x}{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\
         \"member\":{},\"conn\":{},\"req\":{},\"stage\":\"{}\",\"start\":{},\
         \"cycles\":{},\"detail\":{}}}",
        r.trace_hi,
        r.trace_lo,
        r.span_id,
        r.parent_span,
        r.member,
        r.conn,
        r.req,
        r.stage.name(),
        r.start_cycles,
        r.duration_cycles,
        r.detail
    )
}

/// The `GET /v1/spans` body: header counters plus one span per line,
/// already ordinal-sorted — byte-identical for any worker count.
#[must_use]
pub fn render_spans_json(member: u32, appended: u64, dropped: u64, spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    let _ = write!(
        out,
        "{{\"enabled\":true,\"member\":{member},\"appended\":{appended},\
         \"dropped\":{dropped},\"spans\":["
    );
    for (i, span) in spans.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&span_json(span));
    }
    out.push_str("\n]}\n");
    out
}

/// Outcome class of a root span, from the status it recorded — the same
/// classes as the serve admission ledger.
fn status_class(status: u64) -> &'static str {
    match status {
        200..=299 => "served",
        429 => "shed",
        408 | 504 => "timeout",
        _ => "error",
    }
}

/// A deterministic Prometheus exemplar block appended to `/v1/metrics`
/// when tracing is on: for each outcome class present in the ring, the
/// first root span in ordinal order, valued at its root cycles — linking
/// the `serve_*` ledger classes to concrete trace ids without sampling
/// randomness (`spans` must already be ordinal-sorted).
#[must_use]
pub fn render_exemplars(spans: &[SpanRecord]) -> String {
    let mut picks: [Option<&SpanRecord>; 4] = [None; 4];
    const CLASSES: [&str; 4] = ["served", "shed", "timeout", "error"];
    for root in spans.iter().filter(|r| r.stage == SpanStage::Root) {
        let class = status_class(root.detail);
        let slot = CLASSES.iter().position(|c| *c == class).unwrap_or(3);
        if picks[slot].is_none() {
            picks[slot] = Some(root);
        }
    }
    if picks.iter().all(Option::is_none) {
        return String::new();
    }
    let mut out = String::from(
        "# HELP jvmsim_serve_span_exemplar first trace per outcome class (value = root cycles)\n\
         # TYPE jvmsim_serve_span_exemplar gauge\n",
    );
    for (class, pick) in CLASSES.iter().zip(picks) {
        if let Some(root) = pick {
            let _ = writeln!(
                out,
                "jvmsim_serve_span_exemplar{{class=\"{class}\",trace_id=\"{:016x}{:016x}\"}} {}",
                root.trace_hi, root.trace_lo, root.duration_cycles
            );
        }
    }
    out
}

// --- Binary codec ----------------------------------------------------------

/// Wire-format version; bumped on any layout change so a decoder never
/// misreads an old snapshot as a new one.
pub const SPAN_WIRE_VERSION: u16 = 1;

const SPAN_MAGIC: &[u8; 4] = b"JSPN";
const RECORD_BYTES: usize = 8 * 7 + 4 + 8 + 1; // seven u64s, member u32, detail u64, stage u8

/// Encode spans for transport (`GET /v1/spans/bin`, drill scrapes).
#[must_use]
pub fn encode_spans(spans: &[SpanRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + spans.len() * RECORD_BYTES);
    out.extend_from_slice(SPAN_MAGIC);
    out.extend_from_slice(&SPAN_WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&u32::try_from(spans.len()).unwrap_or(u32::MAX).to_le_bytes());
    for r in spans {
        out.extend_from_slice(&r.trace_hi.to_le_bytes());
        out.extend_from_slice(&r.trace_lo.to_le_bytes());
        out.extend_from_slice(&r.span_id.to_le_bytes());
        out.extend_from_slice(&r.parent_span.to_le_bytes());
        out.extend_from_slice(&r.member.to_le_bytes());
        out.extend_from_slice(&r.conn.to_le_bytes());
        out.extend_from_slice(&r.req.to_le_bytes());
        out.push(u8::try_from(r.stage.index()).unwrap_or(u8::MAX));
        out.extend_from_slice(&r.start_cycles.to_le_bytes());
        out.extend_from_slice(&r.duration_cycles.to_le_bytes());
        out.extend_from_slice(&r.detail.to_le_bytes());
    }
    out
}

/// Strict cursor over the wire bytes; every read fails closed.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
}

/// Decode a [`encode_spans`] payload. `None` on a bad magic, an unknown
/// version, a count the remaining bytes cannot hold, an out-of-range
/// stage, any truncation, or trailing bytes — a torn or tampered
/// snapshot is rejected whole, never partially decoded.
#[must_use]
pub fn decode_spans(bytes: &[u8]) -> Option<Vec<SpanRecord>> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(4)? != SPAN_MAGIC {
        return None;
    }
    if c.u16()? != SPAN_WIRE_VERSION {
        return None;
    }
    let count = c.u32()? as usize;
    // Reject counts the payload cannot possibly hold before allocating.
    if count > bytes.len().saturating_sub(c.pos) / RECORD_BYTES {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let trace_hi = c.u64()?;
        let trace_lo = c.u64()?;
        let span_id = c.u64()?;
        let parent_span = c.u64()?;
        let member = c.u32()?;
        let conn = c.u64()?;
        let req = c.u64()?;
        let stage = SpanStage::from_index(c.u8()? as usize)?;
        let start_cycles = c.u64()?;
        let duration_cycles = c.u64()?;
        let detail = c.u64()?;
        out.push(SpanRecord {
            trace_hi,
            trace_lo,
            span_id,
            parent_span,
            member,
            conn,
            req,
            stage,
            start_cycles,
            duration_cycles,
            detail,
        });
    }
    if c.pos != bytes.len() {
        return None;
    }
    Some(out)
}

// --- Invariant checking ----------------------------------------------------

/// Check the partition invariant over a span set (any mix of members):
/// for every root span, its children's durations must sum *exactly* to
/// the root's, and their starts must tile `[0, duration)` without gaps
/// or overlaps. Returns one description per violated root.
#[must_use]
pub fn partition_violations(spans: &[SpanRecord]) -> Vec<String> {
    let mut violations = Vec::new();
    for root in spans.iter().filter(|r| r.stage == SpanStage::Root) {
        let mut children: Vec<&SpanRecord> = spans
            .iter()
            .filter(|r| {
                r.stage != SpanStage::Root
                    && r.parent_span == root.span_id
                    && r.member == root.member
                    && r.conn == root.conn
                    && r.req == root.req
            })
            .collect();
        // Duration breaks start ties: a zero-cycle stage on a boundary
        // (an empty queue's `queue_wait`) tiles before the stage that
        // occupies the boundary.
        children.sort_by_key(|r| (r.start_cycles, r.duration_cycles));
        let sum: u64 = children.iter().map(|r| r.duration_cycles).sum();
        if sum != root.duration_cycles {
            violations.push(format!(
                "trace {:016x}{:016x} member {} conn {} req {}: children sum {} ≠ root {}",
                root.trace_hi,
                root.trace_lo,
                root.member,
                root.conn,
                root.req,
                sum,
                root.duration_cycles
            ));
            continue;
        }
        let mut cursor = 0u64;
        for child in &children {
            if child.start_cycles != cursor {
                violations.push(format!(
                    "trace {:016x}{:016x} member {} conn {} req {}: {} starts at {} expected {}",
                    root.trace_hi,
                    root.trace_lo,
                    root.member,
                    root.conn,
                    root.req,
                    child.stage.name(),
                    child.start_cycles,
                    cursor
                ));
                break;
            }
            cursor += child.duration_cycles;
        }
    }
    violations
}

/// Count the traces whose spans were recorded by at least two distinct
/// fleet members — the propagated-context stitch the drill asserts.
#[must_use]
pub fn stitched_traces(spans: &[SpanRecord]) -> usize {
    let mut seen: Vec<(u64, u64, u32)> = spans
        .iter()
        .map(|r| (r.trace_hi, r.trace_lo, r.member))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    let mut stitched = 0;
    let mut i = 0;
    while i < seen.len() {
        let mut j = i + 1;
        while j < seen.len() && seen[j].0 == seen[i].0 && seen[j].1 == seen[i].1 {
            j += 1;
        }
        if j - i >= 2 {
            stitched += 1;
        }
        i = j;
    }
    stitched
}

// --- Per-stage latency aggregation -----------------------------------------

/// The log2 bucket index of `v` (bucket 0 holds 0; bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`) — the same shape as the metrics plane's histograms.
#[must_use]
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of a log2 bucket.
#[must_use]
pub fn log2_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// Per-stage log2 cycle histograms with exact counts and sums — the
/// aggregation behind the `jprof client` / `jprof cluster` stage tables.
#[derive(Debug, Clone)]
pub struct StageLatencyTable {
    buckets: [[u64; 65]; SpanStage::COUNT],
    counts: [u64; SpanStage::COUNT],
    sums: [u64; SpanStage::COUNT],
}

impl Default for StageLatencyTable {
    fn default() -> StageLatencyTable {
        StageLatencyTable {
            buckets: [[0; 65]; SpanStage::COUNT],
            counts: [0; SpanStage::COUNT],
            sums: [0; SpanStage::COUNT],
        }
    }
}

impl StageLatencyTable {
    /// Record one span duration.
    pub fn observe(&mut self, stage: SpanStage, cycles: u64) {
        let i = stage.index();
        self.buckets[i][log2_bucket(cycles)] += 1;
        self.counts[i] += 1;
        self.sums[i] = self.sums[i].saturating_add(cycles);
    }

    /// Fold every span in `spans` into the table.
    pub fn observe_all(&mut self, spans: &[SpanRecord]) {
        for span in spans {
            self.observe(span.stage, span.duration_cycles);
        }
    }

    /// Merge another table into this one.
    pub fn merge(&mut self, other: &StageLatencyTable) {
        for i in 0..SpanStage::COUNT {
            for b in 0..65 {
                self.buckets[i][b] += other.buckets[i][b];
            }
            self.counts[i] += other.counts[i];
            self.sums[i] = self.sums[i].saturating_add(other.sums[i]);
        }
    }

    /// Observations for `stage`.
    #[must_use]
    pub fn count(&self, stage: SpanStage) -> u64 {
        self.counts[stage.index()]
    }

    /// The upper bound of the bucket where the cumulative count crosses
    /// quantile `q` in `[0, 1]` — the log2-resolution quantile estimate.
    #[must_use]
    pub fn quantile(&self, stage: SpanStage, q: f64) -> u64 {
        let i = stage.index();
        let total = self.counts[i];
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        #[allow(clippy::cast_possible_truncation)]
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        for (b, &n) in self.buckets[i].iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return log2_upper_bound(b);
            }
        }
        u64::MAX
    }

    /// The deterministic per-stage table: one line per stage that was
    /// observed — count, mean, p50 and p99 (log2-bucket upper bounds),
    /// in cycles.
    #[must_use]
    pub fn render(&self, prefix: &str) -> String {
        let mut out = String::new();
        for stage in SpanStage::ALL {
            let i = stage.index();
            if self.counts[i] == 0 {
                continue;
            }
            let mean = self.sums[i] / self.counts[i];
            let _ = writeln!(
                out,
                "{prefix} stage {} count {} mean_cycles {} p50_cycles {} p99_cycles {}",
                stage.name(),
                self.counts[i],
                mean,
                self.quantile(stage, 0.50),
                self.quantile(stage, 0.99)
            );
        }
        out
    }
}

// --- The response annotation (client-visible stage breakdown) --------------

/// Render the `X-Jvmsim-Span` response header: the trace id followed by
/// `stage=cycles` pairs in lifecycle order (repeated stages are summed),
/// so a client can build its per-stage table without scraping the ring.
#[must_use]
pub fn render_annotation(records: &[SpanRecord]) -> String {
    let Some(root) = records.iter().find(|r| r.stage == SpanStage::Root) else {
        return String::new();
    };
    let mut totals = [0u64; SpanStage::COUNT];
    for r in records {
        if r.stage != SpanStage::Root {
            totals[r.stage.index()] += r.duration_cycles;
        }
    }
    let mut out = format!("trace={:016x}{:016x}", root.trace_hi, root.trace_lo);
    let _ = write!(out, ";root={}", root.duration_cycles);
    for stage in SpanStage::ALL {
        let i = stage.index();
        if stage != SpanStage::Root && totals[i] > 0 {
            let _ = write!(out, ";{}={}", stage.name(), totals[i]);
        }
    }
    out
}

/// Parse an `X-Jvmsim-Span` header into `(trace id, [(stage, cycles)])`.
/// Lenient like [`parse_traceparent`]: unknown keys are skipped, any
/// malformed field just drops that field.
#[must_use]
pub fn parse_annotation(value: &str) -> Option<(TraceId, Vec<(SpanStage, u64)>)> {
    let mut trace = None;
    let mut stages = Vec::new();
    for field in value.trim().split(';') {
        let Some((key, val)) = field.split_once('=') else {
            continue;
        };
        if key == "trace" {
            trace = TraceId::from_hex(val);
        } else if let (Some(stage), Ok(cycles)) = (SpanStage::from_name(key), val.parse::<u64>()) {
            stages.push((stage, cycles));
        }
    }
    Some((trace?, stages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_faults::FaultPlan;

    fn sample_builder() -> SpanBuilder {
        let mut b = SpanBuilder::begin(42, 1, 3, 7, None);
        b.stage(SpanStage::Accept, accept_cost(100), 100);
        b.stage(SpanStage::Admission, admission_cost(), 0);
        b.stage(SpanStage::CacheLookup, cache_lookup_cost(None), 0);
        b.stage(SpanStage::PeerFetch, peer_attempt_cost(5, 0), 1 << 32);
        b.stage(SpanStage::QueueWait, queue_wait_cost(2), 2);
        b.stage(SpanStage::Recompute, 1_234_567, 0);
        b.stage(SpanStage::RowEncode, row_encode_cost(500), 500);
        b.stage(SpanStage::ResponseWrite, response_write_cost(500), 500);
        b
    }

    #[test]
    fn stage_indices_dense_and_names_unique() {
        for (i, stage) in SpanStage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(SpanStage::from_index(i), Some(*stage));
            assert_eq!(SpanStage::from_name(stage.name()), Some(*stage));
        }
        let mut names: Vec<_> = SpanStage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanStage::COUNT);
    }

    #[test]
    fn trace_ids_are_deterministic_and_ordinal_sensitive() {
        assert_eq!(TraceId::derive(1, 2, 3), TraceId::derive(1, 2, 3));
        assert_ne!(TraceId::derive(1, 2, 3), TraceId::derive(1, 2, 4));
        assert_ne!(TraceId::derive(1, 2, 3), TraceId::derive(1, 3, 3));
        assert_ne!(TraceId::derive(1, 2, 3), TraceId::derive(2, 2, 3));
        let t = TraceId::derive(9, 0, 0);
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex(""), None);
    }

    #[test]
    fn traceparent_round_trips_and_rejects_garbage() {
        let t = TraceId::derive(7, 1, 2);
        let header = render_traceparent(t, 0xABCD);
        assert_eq!(parse_traceparent(&header), Some((t, 0xABCD)));
        for bad in [
            "",
            "00",
            "00-short-0000000000000000-01",
            "zz-00000000000000000000000000000001-0000000000000000-01",
            "00-00000000000000000000000000000000-0000000000000000-01", // all-zero trace
            "00-0000000000000000000000000000000g-0000000000000000-01",
            "00-00000000000000000000000000000001-00000000000000zz-01",
            "00-00000000000000000000000000000001-0000000000000000",
        ] {
            assert_eq!(parse_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn finish_partitions_the_root_exactly() {
        let records = sample_builder().finish(200);
        assert_eq!(records[0].stage, SpanStage::Root);
        assert_eq!(records[0].detail, 200);
        assert!(partition_violations(&records).is_empty());
        let total: u64 = records[1..].iter().map(|r| r.duration_cycles).sum();
        assert_eq!(records[0].duration_cycles, total);
        // Children tile [0, total) in order.
        let mut cursor = 0;
        for child in &records[1..] {
            assert_eq!(child.start_cycles, cursor);
            assert_eq!(child.parent_span, records[0].span_id);
            cursor += child.duration_cycles;
        }
    }

    #[test]
    fn zero_cycle_stage_on_a_boundary_still_partitions() {
        // An empty queue records a 0-cycle queue_wait that shares its
        // start with the stage after it; the checker must not let the
        // tie-break order manufacture a violation, in any input order.
        let mut b = SpanBuilder::begin(1, 0, 0, 0, None);
        b.stage(SpanStage::Accept, 100, 0);
        b.stage(SpanStage::QueueWait, 0, 0);
        b.stage(SpanStage::Recompute, 500, 0);
        let mut records = b.finish(200);
        assert!(partition_violations(&records).is_empty());
        records.reverse();
        assert!(partition_violations(&records).is_empty());
    }

    #[test]
    fn partition_checker_catches_bad_sums_and_gaps() {
        let mut records = sample_builder().finish(200);
        records[0].duration_cycles += 1;
        assert_eq!(partition_violations(&records).len(), 1);
        let mut records = sample_builder().finish(200);
        records[3].start_cycles += 1;
        assert_eq!(partition_violations(&records).len(), 1);
    }

    #[test]
    fn propagated_context_stitches_members() {
        let mut home = SpanBuilder::begin(42, 0, 0, 0, None);
        home.stage(SpanStage::Accept, accept_cost(10), 10);
        let header = home.traceparent();
        let mut remote = SpanBuilder::begin(99, 1, 5, 0, Some(&header));
        remote.stage(SpanStage::Accept, accept_cost(10), 10);
        let mut all = home.finish(200);
        let remote_records = remote.finish(200);
        assert_eq!(remote_records[0].trace_hi, all[0].trace_hi);
        assert_eq!(remote_records[0].parent_span, all[0].span_id);
        all.extend(remote_records);
        assert_eq!(stitched_traces(&all), 1);
        assert!(partition_violations(&all).is_empty());
        // A malformed header opens a fresh root instead of failing.
        let fresh = SpanBuilder::begin(99, 1, 5, 1, Some("garbage"));
        assert_ne!(fresh.trace(), TraceId::derive(42, 0, 0));
    }

    #[test]
    fn codec_round_trips_and_fails_closed() {
        let records = sample_builder().finish(200);
        let wire = encode_spans(&records);
        assert_eq!(decode_spans(&wire).as_deref(), Some(&records[..]));
        assert_eq!(decode_spans(&encode_spans(&[])).as_deref(), Some(&[][..]));
        // Truncations at every length fail closed, never panic.
        for n in 0..wire.len() {
            assert_eq!(decode_spans(&wire[..n]), None, "truncated at {n}");
        }
        // Trailing bytes are rejected.
        let mut extended = wire.clone();
        extended.push(0);
        assert_eq!(decode_spans(&extended), None);
        // A lying count is rejected before allocation.
        let mut lying = wire.clone();
        lying[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_spans(&lying), None);
        // A wrong version is rejected.
        let mut wrong = wire;
        wrong[4] = wrong[4].wrapping_add(1);
        assert_eq!(decode_spans(&wrong), None);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let plane = SpanPlane::new(1, 0, 4);
        let quiet = FaultInjector::new(FaultPlan::new(0));
        for req in 0..3 {
            let mut b = SpanBuilder::begin(1, 0, 0, req, None);
            b.stage(SpanStage::Accept, accept_cost(1), 1);
            b.stage(SpanStage::ResponseWrite, response_write_cost(1), 1);
            plane.push(b.finish(200), &quiet);
        }
        // 9 spans through a 4-slot ring: 5 evicted.
        assert_eq!(plane.appended(), 9);
        assert_eq!(plane.dropped(), 5);
        assert_eq!(plane.snapshot().len(), 4);
        // Injected saturation drops a whole batch.
        let saturated = FaultInjector::new(
            FaultPlan::new(3).with_rate(FaultSite::SpanBufferSaturation, 1_000_000),
        );
        let mut b = SpanBuilder::begin(1, 0, 0, 9, None);
        b.stage(SpanStage::Accept, accept_cost(1), 1);
        plane.push(b.finish(200), &saturated);
        assert_eq!(plane.dropped(), 7);
    }

    #[test]
    fn snapshot_is_ordinal_sorted_and_json_deterministic() {
        let plane = SpanPlane::new(5, 2, 64);
        let quiet = FaultInjector::new(FaultPlan::new(0));
        // Push out of ordinal order.
        for (conn, req) in [(1u64, 0u64), (0, 1), (0, 0)] {
            let mut b = SpanBuilder::begin(5, 2, conn, req, None);
            b.stage(SpanStage::Accept, accept_cost(2), 2);
            plane.push(b.finish(200), &quiet);
        }
        let snap = plane.snapshot();
        let ordinals: Vec<(u64, u64)> = snap.iter().map(|r| (r.conn, r.req)).collect();
        let mut sorted = ordinals.clone();
        sorted.sort_unstable();
        assert_eq!(ordinals, sorted);
        let a = render_spans_json(2, plane.appended(), plane.dropped(), &snap);
        let b = render_spans_json(2, plane.appended(), plane.dropped(), &snap);
        assert_eq!(a, b);
        assert!(a.contains("\"stage\":\"root\""));
        assert!(a.contains("\"enabled\":true"));
    }

    #[test]
    fn annotation_round_trips() {
        let records = sample_builder().finish(200);
        let header = render_annotation(&records);
        let (trace, stages) = parse_annotation(&header).unwrap();
        assert_eq!(trace.hi, records[0].trace_hi);
        assert_eq!(trace.lo, records[0].trace_lo);
        // The root entry carries the end-to-end total; the other stages
        // repeat the partition invariant.
        assert!(stages.contains(&(SpanStage::Root, records[0].duration_cycles)));
        let children: u64 = stages
            .iter()
            .filter(|(s, _)| *s != SpanStage::Root)
            .map(|(_, c)| c)
            .sum();
        assert_eq!(children, records[0].duration_cycles);
        assert!(stages.iter().any(|(s, _)| *s == SpanStage::Recompute));
        assert_eq!(parse_annotation("no-trace-here"), None);
        // Unknown fields are skipped, not fatal.
        let (t2, s2) = parse_annotation(&format!("{header};mystery=9;bad")).unwrap();
        assert_eq!(t2, trace);
        assert_eq!(s2.len(), stages.len());
    }

    #[test]
    fn stage_table_quantiles_and_rendering() {
        let mut table = StageLatencyTable::default();
        for cycles in [1u64, 2, 4, 8, 1024] {
            table.observe(SpanStage::Recompute, cycles);
        }
        assert_eq!(table.count(SpanStage::Recompute), 5);
        // p50 of {1,2,4,8,1024}: rank 3 → bucket of 4 → upper bound 7.
        assert_eq!(table.quantile(SpanStage::Recompute, 0.50), 7);
        assert_eq!(table.quantile(SpanStage::Recompute, 0.99), 2047);
        assert_eq!(table.quantile(SpanStage::Accept, 0.99), 0);
        let rendered = table.render("drill");
        assert!(rendered.contains("drill stage recompute count 5"));
        assert!(!rendered.contains("stage accept"), "{rendered}");
        let mut other = StageLatencyTable::default();
        other.observe(SpanStage::Recompute, 1);
        other.merge(&table);
        assert_eq!(other.count(SpanStage::Recompute), 6);
    }

    #[test]
    fn exemplars_pick_first_root_per_class() {
        let mut spans = sample_builder().finish(200);
        let mut b = SpanBuilder::begin(42, 1, 3, 8, None);
        b.stage(SpanStage::Accept, accept_cost(1), 1);
        spans.extend(b.finish(429));
        let mut b = SpanBuilder::begin(42, 1, 3, 9, None);
        b.stage(SpanStage::Accept, accept_cost(1), 1);
        spans.extend(b.finish(200));
        sort_ordinal(&mut spans);
        let block = render_exemplars(&spans);
        assert!(block.contains("# TYPE jvmsim_serve_span_exemplar gauge"));
        assert!(block.contains("class=\"served\""));
        assert!(block.contains("class=\"shed\""));
        assert!(!block.contains("class=\"timeout\""));
        // Exactly one exemplar per present class.
        assert_eq!(block.matches("class=\"served\"").count(), 1);
        assert_eq!(render_exemplars(&[]), String::new());
    }

    #[test]
    fn cost_model_is_pure_and_monotone_in_bytes() {
        assert_eq!(accept_cost(10), accept_cost(10));
        assert!(accept_cost(11) > accept_cost(10));
        assert!(cache_lookup_cost(Some(100)) > cache_lookup_cost(None));
        assert_eq!(queue_wait_cost(0), 0);
        assert_eq!(ms_to_cycles(1), CYCLES_PER_MS);
        assert!(peer_attempt_cost(5, 0) > peer_attempt_cost(0, 0));
    }
}
