//! The typed API surface: every `/v1` endpoint as data.
//!
//! Three layers, all wire-format-free so the same types serve the
//! event-loop server, the load-gen client, and the peer-fetch tier:
//!
//! * [`RunSpec`] — the `POST /v1/run` body: a flat JSON object naming a
//!   run. The workspace has no serde (hand-rolled JSON everywhere), so
//!   this is a small strict parser for exactly the shape the endpoint
//!   accepts: `{"workload": "compress", "agent": "ipa", "size": 1}` —
//!   string or unsigned-integer values only, unknown keys rejected so a
//!   typo'd field can never be silently ignored.
//! * [`ApiRequest`] / [`ApiResponse`] — the router: a wire [`Request`]
//!   parses into one typed endpoint (or an [`ApiError`]); a handler
//!   produces one typed response, which renders into the wire
//!   [`Response`] plus the [`OutcomeClass`] the admission ledger books.
//!   Routing through an enum means an endpoint cannot exist without a
//!   ledger outcome — the `accepted == served + shed + timeout +
//!   dropped + errors` invariant is closed under the type.
//! * [`ApiError`] — the single JSON error envelope every non-2xx `/v1`
//!   response carries: `{"error":{"code":…,"message":…,"retry_after":…}}`.
//!   Machine-readable `code`, human `message`, optional backoff hint —
//!   and [`ApiError::decode`] is the one place clients parse it back.

use jnativeprof::harness::HarnessError;
use jnativeprof::session::SessionSpec;
use jvmsim_cache::Digest;
use jvmsim_metrics::json_escape;

use crate::http::{Request, Response, ServeError};

/// A parsed (but not yet validated) run request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Workload name.
    pub workload: String,
    /// Agent label (`original` / `spa` / `ipa` / `alloc` / `lock`;
    /// default `original`). Validation happens in [`Self::to_session_spec`]
    /// through the shared [`AgentChoice`](jnativeprof::harness::AgentChoice)
    /// parser, so an unknown label gets the same typed message here as on
    /// every CLI front end.
    pub agent: String,
    /// Problem size (default 1).
    pub size: u32,
    /// Tiers mode label (`interp-only` / `tiered` / `full`; default
    /// `full`). Validated through the shared
    /// [`TiersMode`](jnativeprof::vm::TiersMode) parser in
    /// [`Self::to_session_spec`].
    pub tiers: String,
}

impl RunSpec {
    /// Parse a request body.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Usage`] describing the first problem found —
    /// non-UTF-8, not a flat object, unknown key, bad value type, or a
    /// missing `workload`.
    pub fn from_json(body: &[u8]) -> Result<RunSpec, HarnessError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| HarnessError::Usage("run spec must be utf-8 JSON".to_owned()))?;
        let fields = parse_flat_object(text).map_err(HarnessError::Usage)?;
        let mut workload = None;
        let mut agent = None;
        let mut size = None;
        let mut tiers = None;
        for (key, value) in fields {
            match key.as_str() {
                "workload" => workload = Some(value.string("workload")?),
                "agent" => agent = Some(value.string("agent")?),
                "size" => size = Some(value.size("size")?),
                "tiers" => tiers = Some(value.string("tiers")?),
                other => {
                    return Err(HarnessError::Usage(format!(
                        "unknown run spec key '{other}'"
                    )))
                }
            }
        }
        Ok(RunSpec {
            workload: workload
                .ok_or_else(|| HarnessError::Usage("run spec missing 'workload'".to_owned()))?,
            agent: agent.unwrap_or_else(|| "original".to_owned()),
            size: size.unwrap_or(1),
            tiers: tiers.unwrap_or_else(|| "full".to_owned()),
        })
    }

    /// Validate into a runnable [`SessionSpec`].
    ///
    /// # Errors
    ///
    /// As [`SessionSpec::parse`].
    pub fn to_session_spec(&self) -> Result<SessionSpec, HarnessError> {
        SessionSpec::parse(&self.workload, &self.agent, self.size, &self.tiers)
    }

    /// Render as the canonical request body (what `jprof client` sends).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"agent\":\"{}\",\"size\":{},\"tiers\":\"{}\"}}",
            json_escape(&self.workload),
            json_escape(&self.agent),
            self.size,
            json_escape(&self.tiers)
        )
    }
}

/// How one request ended — the exclusive outcome classes of the
/// admission ledger: `accepted == served + shed + timeout + dropped +
/// errors`, each request booked in exactly one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Answered 2xx. `hit` marks a cache-served run row.
    Served {
        /// Did a cache (local or peer) supply the row?
        hit: bool,
    },
    /// Load-shed with `429` (queue full).
    Shed,
    /// Deadline elapsed: `408` mid-read, `504` queued/running.
    Timeout,
    /// Connection dropped before the response was written.
    Dropped,
    /// Any other 4xx/5xx.
    Error,
}

/// The typed error envelope: every non-2xx `/v1` response body is
/// `{"error":{"code":…,"message":…}}` (plus `retry_after` seconds on
/// load-shed), so clients branch on a stable machine code instead of
/// string-matching prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status the envelope travels under.
    pub status: u16,
    /// Stable machine-readable code (snake_case).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Back-off hint in seconds (`Retry-After` header + envelope field).
    pub retry_after: Option<u32>,
    /// Should the server close the connection after answering? (Not part
    /// of the envelope — it rides the `Connection` header.)
    pub close: bool,
}

impl ApiError {
    fn new(status: u16, code: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code: code.to_owned(),
            message: message.into(),
            retry_after: None,
            close: false,
        }
    }

    /// `404` — no such endpoint.
    #[must_use]
    pub fn not_found() -> ApiError {
        ApiError::new(404, "not_found", "not found")
    }

    /// `405` — known path, wrong method.
    #[must_use]
    pub fn method_not_allowed() -> ApiError {
        ApiError::new(405, "method_not_allowed", "method not allowed")
    }

    /// `400` — `/v1/cell/` key is not a 64-hex-digit digest.
    #[must_use]
    pub fn bad_cell_key() -> ApiError {
        ApiError::new(400, "bad_cell_key", "bad cell key")
    }

    /// `404` — the local store does not hold the requested cell entry.
    #[must_use]
    pub fn absent() -> ApiError {
        ApiError::new(404, "absent", "absent")
    }

    /// `404` — the span plane is disabled on this daemon.
    #[must_use]
    pub fn spans_disabled() -> ApiError {
        ApiError::new(404, "spans_disabled", "spans disabled")
    }

    /// `429` — admission queue full; retry after the hinted backoff.
    #[must_use]
    pub fn queue_full() -> ApiError {
        ApiError {
            retry_after: Some(1),
            ..ApiError::new(429, "queue_full", "queue full")
        }
    }

    /// `503` — the daemon is draining and refuses new work.
    #[must_use]
    pub fn draining() -> ApiError {
        ApiError {
            close: true,
            ..ApiError::new(503, "draining", "draining")
        }
    }

    /// `504` — the request's deadline elapsed while queued or running.
    #[must_use]
    pub fn deadline() -> ApiError {
        ApiError {
            close: true,
            ..ApiError::new(504, "deadline", "deadline elapsed")
        }
    }

    /// `408` — the injected slow-read fault: the request "never finished
    /// arriving" within the deadline, same outcome class as a real stall.
    #[must_use]
    pub fn injected_slow_read() -> ApiError {
        ApiError {
            close: true,
            ..ApiError::new(408, "read_timeout", "injected slow read")
        }
    }

    /// The envelope for a transport-layer parse/deadline failure. Every
    /// variant closes: after a framing error the byte stream can no
    /// longer be trusted to start a next request.
    #[must_use]
    pub fn from_serve_error(error: &ServeError) -> ApiError {
        let code = match error {
            ServeError::Malformed(_) => "malformed",
            ServeError::HeadersTooLarge => "headers_too_large",
            ServeError::BodyTooLarge => "body_too_large",
            ServeError::ReadTimeout => "read_timeout",
        };
        ApiError {
            close: true,
            ..ApiError::new(error.status(), code, error.to_string())
        }
    }

    /// The envelope for a harness failure (`400` for admission rejects,
    /// `500` for run failures), coded by the error's variant.
    #[must_use]
    pub fn from_harness(status: u16, error: &HarnessError) -> ApiError {
        let code = match error {
            HarnessError::Instrument(_) => "instrument",
            HarnessError::Attach(_) => "attach",
            HarnessError::Vm(_) => "vm",
            HarnessError::Escaped(_) => "escaped",
            HarnessError::BadChecksum(_) => "bad_checksum",
            HarnessError::Usage(_) => "usage",
            HarnessError::Artifact(_) => "artifact",
            HarnessError::Bind(_) => "bind",
            HarnessError::Degraded(_) => "degraded",
            HarnessError::Panicked(_) => "panicked",
            _ => "harness",
        };
        ApiError::new(status, code, error.to_string())
    }

    /// Render the canonical envelope body (newline-terminated, no
    /// whitespace, fields in fixed order — deterministic bytes, so two
    /// daemons at different `--jobs` produce identical error bodies).
    #[must_use]
    pub fn render(&self) -> String {
        let retry = self
            .retry_after
            .map(|s| format!(",\"retry_after\":{s}"))
            .unwrap_or_default();
        format!(
            "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"{retry}}}}}\n",
            json_escape(&self.code),
            json_escape(&self.message)
        )
    }

    /// Decode an envelope body received off the wire (the inverse of
    /// [`ApiError::render`]). `None` when the body is not an envelope —
    /// pre-redesign daemons and non-HTTP garbage both land there.
    #[must_use]
    pub fn decode(status: u16, body: &[u8]) -> Option<ApiError> {
        let text = std::str::from_utf8(body).ok()?;
        let inner = text
            .trim_end()
            .strip_prefix("{\"error\":")?
            .strip_suffix('}')?;
        let fields = parse_flat_object(inner).ok()?;
        let mut error = ApiError::new(status, "", "");
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("code", JsonValue::Str(s)) => error.code = s,
                ("message", JsonValue::Str(s)) => error.message = s,
                ("retry_after", JsonValue::Num(n)) => error.retry_after = u32::try_from(n).ok(),
                _ => return None,
            }
        }
        if error.code.is_empty() {
            return None;
        }
        Some(error)
    }

    /// The ledger class this error books under.
    #[must_use]
    pub fn outcome(&self) -> OutcomeClass {
        match self.status {
            429 => OutcomeClass::Shed,
            408 | 504 => OutcomeClass::Timeout,
            _ => OutcomeClass::Error,
        }
    }

    /// Render into the wire response (envelope body, `Retry-After`
    /// header, `Connection: close` when the error is terminal).
    #[must_use]
    pub fn into_response(self) -> Response {
        let mut response = Response::json(self.status, self.render());
        response.retry_after = self.retry_after;
        if self.close {
            response.closing()
        } else {
            response
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// One routed, validated `/v1` request — what a wire [`Request`] becomes
/// before any handler runs. Payload-carrying endpoints hold their payload
/// already parsed: a handler can no longer see malformed input.
#[derive(Debug, Clone)]
pub enum ApiRequest {
    /// `GET /healthz` — liveness probe.
    Health,
    /// `GET /v1/metrics` — Prometheus scrape.
    Metrics,
    /// `GET /v1/spans` — span ring, JSON codec.
    Spans,
    /// `GET /v1/spans/bin` — span ring, binary codec (hex-armored).
    SpansBin,
    /// `GET /v1/cache/stats` — content-addressed store counters.
    CacheStats,
    /// `POST /v1/shutdown` — begin the graceful drain.
    Shutdown,
    /// `POST /v1/run` — execute (or cache-serve) one validated run.
    Run(SessionSpec),
    /// `GET /v1/cell/<hex>` — peer supply side: export one cell entry.
    Cell(Digest),
}

impl ApiRequest {
    /// Route and validate one wire request.
    ///
    /// # Errors
    ///
    /// [`ApiError`] for unknown paths (`404`), known paths with the wrong
    /// method (`405`), a malformed cell key (`400`), or a `/v1/run` body
    /// that fails spec parsing or session validation (`400`).
    pub fn parse(request: &Request) -> Result<ApiRequest, ApiError> {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Ok(ApiRequest::Health),
            ("GET", "/v1/metrics") => Ok(ApiRequest::Metrics),
            ("GET", "/v1/spans") => Ok(ApiRequest::Spans),
            ("GET", "/v1/spans/bin") => Ok(ApiRequest::SpansBin),
            ("GET", "/v1/cache/stats") => Ok(ApiRequest::CacheStats),
            ("POST", "/v1/shutdown") => Ok(ApiRequest::Shutdown),
            ("POST", "/v1/run") => RunSpec::from_json(&request.body)
                .and_then(|spec| spec.to_session_spec())
                .map(ApiRequest::Run)
                .map_err(|e| ApiError::from_harness(400, &e)),
            ("GET", path) if path.starts_with("/v1/cell/") => {
                let hex = path.strip_prefix("/v1/cell/").unwrap_or("");
                Digest::from_hex(hex)
                    .map(ApiRequest::Cell)
                    .ok_or_else(ApiError::bad_cell_key)
            }
            (
                "GET" | "POST",
                "/healthz" | "/v1/metrics" | "/v1/cache/stats" | "/v1/shutdown" | "/v1/run"
                | "/v1/spans" | "/v1/spans/bin",
            ) => Err(ApiError::method_not_allowed()),
            (_, path) if path.starts_with("/v1/cell/") => Err(ApiError::method_not_allowed()),
            _ => Err(ApiError::not_found()),
        }
    }

    /// Is this endpoint traced? Only the request-serving endpoints
    /// (`/v1/run` and the peer supply side `/v1/cell/…`) open spans:
    /// probes and scrapes record nothing, so span output never depends
    /// on scrape cadence.
    #[must_use]
    pub fn traced(&self) -> bool {
        matches!(self, ApiRequest::Run(_) | ApiRequest::Cell(_))
    }
}

/// One typed `/v1` response — what a handler produces. Rendering it
/// ([`ApiResponse::into_parts`]) yields the wire [`Response`] together
/// with the [`OutcomeClass`] the ledger must book, so a handler cannot
/// produce a response the ledger does not see.
#[derive(Debug, Clone)]
pub enum ApiResponse {
    /// `200 ok` liveness answer.
    Health,
    /// Rendered Prometheus text (plus span exemplars when traced).
    Metrics(String),
    /// Rendered span-ring JSON (or the `enabled:false` stub).
    Spans(String),
    /// Hex-armored binary span codec payload.
    SpansBin(String),
    /// Rendered cache-stats JSON (format pinned by the integration
    /// suite; `enabled:false` stub when the daemon runs cacheless).
    CacheStats(String),
    /// Drain acknowledged (closes the connection).
    Draining,
    /// One run row. `hit` marks a cache- or peer-served row.
    Row {
        /// Canonical row JSON — byte-identical to the batch artifact.
        row: String,
        /// Served from the result plane without executing?
        hit: bool,
    },
    /// Hex-armored cell entry (peer supply side).
    Cell(String),
    /// Any failure, as the typed envelope.
    Error(ApiError),
}

impl ApiResponse {
    /// Render into the wire response and the ledger class to book.
    #[must_use]
    pub fn into_parts(self) -> (Response, OutcomeClass) {
        let served = OutcomeClass::Served { hit: false };
        match self {
            ApiResponse::Health => (Response::text(200, "ok\n"), served),
            ApiResponse::Metrics(body) => (Response::text(200, body), served),
            ApiResponse::Spans(body) => (Response::json(200, body), served),
            ApiResponse::SpansBin(hex) => (Response::text(200, format!("{hex}\n")), served),
            ApiResponse::CacheStats(body) => (Response::json(200, body), served),
            ApiResponse::Draining => (
                Response::json(200, "{\"draining\":true}\n").closing(),
                served,
            ),
            ApiResponse::Row { row, hit } => {
                (Response::json(200, row), OutcomeClass::Served { hit })
            }
            ApiResponse::Cell(hex) => (Response::text(200, format!("{hex}\n")), served),
            ApiResponse::Error(error) => {
                let outcome = error.outcome();
                (error.into_response(), outcome)
            }
        }
    }
}

/// One parsed JSON value: the two types a run spec can hold.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JsonValue {
    Str(String),
    Num(u64),
}

impl JsonValue {
    fn string(self, key: &str) -> Result<String, HarnessError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            JsonValue::Num(_) => Err(HarnessError::Usage(format!("'{key}' must be a string"))),
        }
    }

    fn size(self, key: &str) -> Result<u32, HarnessError> {
        match self {
            JsonValue::Num(n) => {
                u32::try_from(n).map_err(|_| HarnessError::Usage(format!("'{key}' out of range")))
            }
            JsonValue::Str(_) => Err(HarnessError::Usage(format!("'{key}' must be a number"))),
        }
    }
}

/// Parse a flat JSON object of string/unsigned-number values, strictly:
/// no nesting, no trailing content, no duplicate-silently-wins.
fn parse_flat_object(text: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        chars: text.char_indices().peekable(),
        text,
    };
    p.skip_ws();
    p.expect('{')?;
    let mut fields: Vec<(String, JsonValue)> = Vec::new();
    p.skip_ws();
    if p.eat('}') {
        p.skip_ws();
        return p.finish(fields);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key '{key}'"));
        }
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let value = p.value()?;
        fields.push((key, value));
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect('}')?;
        p.skip_ws();
        return p.finish(fields);
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((_, c)) => Err(format!("expected '{want}', found '{c}'")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".to_owned()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, c) = self
                                .chars
                                .next()
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            code = code * 16
                                + c.to_digit(16).ok_or_else(|| "bad \\u escape".to_owned())?;
                        }
                        out.push(
                            char::from_u32(code).ok_or_else(|| "bad \\u codepoint".to_owned())?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.chars.peek() {
            Some((_, '"')) => self.string().map(JsonValue::Str),
            Some((start, c)) if c.is_ascii_digit() => {
                let start = *start;
                let mut end = start;
                while let Some((i, c)) = self.chars.peek() {
                    if c.is_ascii_digit() {
                        end = *i + 1;
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                self.text[start..end]
                    .parse::<u64>()
                    .map(JsonValue::Num)
                    .map_err(|_| "number out of range".to_owned())
            }
            Some((_, c)) => Err(format!("unsupported value starting with '{c}'")),
            None => Err("expected a value, found end of input".to_owned()),
        }
    }

    fn finish(
        mut self,
        fields: Vec<(String, JsonValue)>,
    ) -> Result<Vec<(String, JsonValue)>, String> {
        match self.chars.next() {
            None => Ok(fields),
            Some((_, c)) => Err(format!("trailing content starting with '{c}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_and_defaulted_specs() {
        let full = RunSpec::from_json(
            br#"{"workload": "compress", "agent": "ipa", "size": 10, "tiers": "interp-only"}"#,
        )
        .unwrap();
        assert_eq!(full.workload, "compress");
        assert_eq!(full.agent, "ipa");
        assert_eq!(full.size, 10);
        assert_eq!(full.tiers, "interp-only");
        let spec = full.to_session_spec().unwrap();
        assert_eq!(spec.agent.label(), "IPA");
        assert_eq!(spec.tiers.label(), "interp-only");

        let minimal = RunSpec::from_json(br#"{"workload":"db"}"#).unwrap();
        assert_eq!(minimal.agent, "original");
        assert_eq!(minimal.size, 1);
        assert_eq!(minimal.tiers, "full");
    }

    #[test]
    fn round_trips_through_to_json() {
        let spec = RunSpec {
            workload: "mtrt".to_owned(),
            agent: "spa".to_owned(),
            size: 100,
            tiers: "tiered".to_owned(),
        };
        assert_eq!(RunSpec::from_json(spec.to_json().as_bytes()).unwrap(), spec);
    }

    #[test]
    fn rejects_bad_shapes() {
        for (body, what) in [
            (&b"not json"[..], "garbage"),
            (b"{\"workload\":\"x\"", "unterminated object"),
            (b"{\"workload\":\"x\"} extra", "trailing content"),
            (b"{\"wrkload\":\"x\"}", "unknown key"),
            (b"{\"workload\":1}", "wrong type"),
            (b"{\"size\":\"big\"}", "wrong type"),
            (b"{\"workload\":\"x\",\"workload\":\"y\"}", "duplicate"),
            (b"{}", "missing workload"),
            (b"{\"workload\":{\"nested\":1}}", "nesting"),
        ] {
            let got = RunSpec::from_json(body);
            assert!(
                matches!(got, Err(HarnessError::Usage(_))),
                "{what}: {got:?}"
            );
        }
    }

    #[test]
    fn unknown_workload_is_a_usage_error() {
        let spec = RunSpec::from_json(br#"{"workload":"nope"}"#).unwrap();
        assert!(matches!(
            spec.to_session_spec(),
            Err(HarnessError::Usage(_))
        ));
    }

    #[test]
    fn unknown_tiers_mode_is_a_usage_error() {
        let spec = RunSpec::from_json(br#"{"workload":"compress","tiers":"c9"}"#).unwrap();
        assert!(matches!(
            spec.to_session_spec(),
            Err(HarnessError::Usage(_))
        ));
    }

    fn wire(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    #[test]
    fn router_dispatches_every_endpoint() {
        let cell_path = format!("/v1/cell/{}", "ab".repeat(32));
        let cases: Vec<(&str, &str, &[u8])> = vec![
            ("GET", "/healthz", b""),
            ("GET", "/v1/metrics", b""),
            ("GET", "/v1/spans", b""),
            ("GET", "/v1/spans/bin", b""),
            ("GET", "/v1/cache/stats", b""),
            ("POST", "/v1/shutdown", b""),
            ("POST", "/v1/run", br#"{"workload":"compress"}"#),
            ("GET", cell_path.as_str(), b""),
        ];
        for (method, path, body) in cases {
            let parsed = ApiRequest::parse(&wire(method, path, body));
            assert!(parsed.is_ok(), "{method} {path}: {parsed:?}");
        }
        assert!(
            ApiRequest::parse(&wire("POST", "/v1/run", b"{\"workload\":\"compress\"}"))
                .unwrap()
                .traced()
        );
        assert!(!ApiRequest::parse(&wire("GET", "/healthz", b""))
            .unwrap()
            .traced());
    }

    #[test]
    fn router_rejects_with_typed_envelopes() {
        let not_found = ApiRequest::parse(&wire("GET", "/nope", b"")).unwrap_err();
        assert_eq!(
            (not_found.status, not_found.code.as_str()),
            (404, "not_found")
        );
        let wrong_method = ApiRequest::parse(&wire("POST", "/healthz", b"")).unwrap_err();
        assert_eq!(wrong_method.status, 405);
        let bad_key = ApiRequest::parse(&wire("GET", "/v1/cell/zz", b"")).unwrap_err();
        assert_eq!(
            (bad_key.status, bad_key.code.as_str()),
            (400, "bad_cell_key")
        );
        let bad_spec = ApiRequest::parse(&wire("POST", "/v1/run", b"nonsense")).unwrap_err();
        assert_eq!((bad_spec.status, bad_spec.code.as_str()), (400, "usage"));
    }

    #[test]
    fn envelope_round_trips_through_decode() {
        for error in [
            ApiError::queue_full(),
            ApiError::draining(),
            ApiError::deadline(),
            ApiError::not_found(),
            ApiError::from_harness(500, &HarnessError::Vm("stack \"overflow\"".to_owned())),
        ] {
            let body = error.render();
            let decoded = ApiError::decode(error.status, body.as_bytes()).unwrap();
            assert_eq!(decoded.code, error.code, "{body}");
            assert_eq!(decoded.message, error.message);
            assert_eq!(decoded.retry_after, error.retry_after);
        }
        assert!(ApiError::decode(400, b"bare string\n").is_none());
        assert!(ApiError::decode(400, b"{\"error\":\"old shape\"}\n").is_none());
    }

    #[test]
    fn envelope_of_a_control_character_workload_is_valid_json() {
        let spec = RunSpec::from_json(br#"{"workload":"a\nb"}"#).unwrap();
        assert_eq!(spec.workload, "a\nb");
        let error = ApiError::from_harness(400, &spec.to_session_spec().unwrap_err());
        let body = error.render();
        let framed = body.strip_suffix('\n').expect("newline-terminated");
        assert!(!framed.chars().any(char::is_control), "{body:?}");
        let decoded = ApiError::decode(400, body.as_bytes()).expect("envelope decodes");
        assert_eq!(decoded.code, "usage");
        assert_eq!(decoded.message, error.message);
    }

    #[test]
    fn outcomes_follow_status_classes() {
        assert_eq!(ApiError::queue_full().outcome(), OutcomeClass::Shed);
        assert_eq!(ApiError::deadline().outcome(), OutcomeClass::Timeout);
        assert_eq!(
            ApiError::injected_slow_read().outcome(),
            OutcomeClass::Timeout
        );
        assert_eq!(ApiError::not_found().outcome(), OutcomeClass::Error);
        let (response, outcome) = ApiResponse::Row {
            row: "{}".to_owned(),
            hit: true,
        }
        .into_parts();
        assert_eq!(response.status, 200);
        assert_eq!(outcome, OutcomeClass::Served { hit: true });
        let (response, outcome) = ApiResponse::Error(ApiError::queue_full()).into_parts();
        assert_eq!(response.status, 429);
        assert_eq!(response.retry_after, Some(1));
        assert!(!response.close);
        assert_eq!(outcome, OutcomeClass::Shed);
        assert!(ApiResponse::Draining.into_parts().0.close);
    }
}
