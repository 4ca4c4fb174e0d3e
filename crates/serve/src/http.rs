//! A minimal hand-rolled HTTP/1.1 layer: incremental request parsing,
//! fixed-length (chunked-free) responses, keep-alive, and read deadlines.
//!
//! This is deliberately the smallest slice of HTTP the daemon needs —
//! `Content-Length` bodies only, no transfer encodings, no continuations
//! — with every limit explicit so a hostile peer costs bounded memory:
//! the header block is capped at [`MAX_HEADER_BYTES`] and the body at
//! [`MAX_BODY_BYTES`], both answered with a typed [`ServeError`] rather
//! than unbounded buffering.
//!
//! The core types are *sans-io* push parsers, so the same state machines
//! serve every transport style in the crate:
//!
//! * [`RequestParser`] — feed it bytes as they arrive ([`push`]), take
//!   complete requests out ([`try_next`]). The event-loop server drives
//!   it from nonblocking reads; pipelined bytes beyond one request stay
//!   buffered as the start of the next.
//! * [`ResponseParser`] — the one response-decode path shared by the
//!   load-gen client and the peer-fetch tier (`Content-Length` framing
//!   with an at-EOF fallback for unframed bodies).
//! * [`read_request`] — the blocking convenience wrapper over
//!   [`RequestParser`] (generic over [`Read`]; the fuzz suite drives it
//!   with adversarial chunkings), preserving the strict one-request
//!   framing the sequential call sites expect.
//!
//! [`push`]: RequestParser::push
//! [`try_next`]: RequestParser::try_next

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum size of the request line + headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Maximum size of a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Poll interval for deadline/drain checks while blocked on a read.
pub(crate) const READ_POLL: Duration = Duration::from_millis(50);

/// Typed failure taxonomy of the HTTP layer. Every variant maps onto one
/// response status (or a silent close), so the connection loop has a
/// single error path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The peer closed the connection before a complete request arrived
    /// (clean close between requests is `Closed` with zero bytes read).
    Closed,
    /// The request could not be parsed as HTTP/1.1.
    Malformed(String),
    /// The header block exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// The declared body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The read deadline elapsed before a complete request arrived.
    ReadTimeout,
    /// The server is draining and stops reading new requests.
    Draining,
    /// A transport error on the socket.
    Io(String),
}

impl ServeError {
    /// The response status for this error, or `None` when the connection
    /// just closes silently (peer already gone).
    #[must_use]
    pub fn status(&self) -> Option<u16> {
        match self {
            ServeError::Closed | ServeError::Io(_) => None,
            ServeError::Malformed(_) => Some(400),
            ServeError::HeadersTooLarge => Some(431),
            ServeError::BodyTooLarge => Some(413),
            ServeError::ReadTimeout => Some(408),
            ServeError::Draining => Some(503),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "connection closed"),
            ServeError::Malformed(m) => write!(f, "malformed request: {m}"),
            ServeError::HeadersTooLarge => write!(f, "header block too large"),
            ServeError::BodyTooLarge => write!(f, "request body too large"),
            ServeError::ReadTimeout => write!(f, "read deadline elapsed"),
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (no query parsing; the API needs none).
    pub path: String,
    /// Lowercased header names with their raw values.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One response. Bodies are always fixed-length (`Content-Length`), never
/// chunked, so a client can `cmp` a saved body against a batch artifact.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` seconds (load-shedding responses).
    pub retry_after: Option<u32>,
    /// `X-Jvmsim-Span` value: the request's trace id and per-stage cycle
    /// breakdown, so a client builds its stage table without scraping
    /// the span ring. `None` when the request was not traced.
    pub span: Option<String>,
    /// Send `Connection: close` and drop the connection after writing.
    pub close: bool,
}

impl Response {
    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
            span: None,
            close: false,
        }
    }

    /// An `application/json` response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            content_type: "application/json",
            ..Response::text(status, body)
        }
    }

    /// Same response with `Connection: close`.
    #[must_use]
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    /// The standard reason phrase for the statuses this daemon emits.
    #[must_use]
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serialize to the exact wire bytes (status line, headers, body) —
    /// what the event loop queues on a connection's out-buffer.
    #[must_use]
    pub fn render(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(160 + self.body.len());
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            Response::reason(self.status)
        );
        let _ = write!(head, "Content-Type: {}\r\n", self.content_type);
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        if let Some(secs) = self.retry_after {
            let _ = write!(head, "Retry-After: {secs}\r\n");
        }
        if let Some(span) = &self.span {
            let _ = write!(head, "X-Jvmsim-Span: {span}\r\n");
        }
        let _ = write!(
            head,
            "Connection: {}\r\n\r\n",
            if self.close { "close" } else { "keep-alive" }
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Serialize and write the response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket write fails (peer gone).
    pub fn write(&self, stream: &mut TcpStream) -> Result<(), ServeError> {
        stream
            .write_all(&self.render())
            .and_then(|()| stream.flush())
            .map_err(|e| ServeError::Io(e.to_string()))
    }
}

/// Incremental, pipelining-capable HTTP/1.1 request parser.
///
/// Push bytes in as they arrive; take complete [`Request`]s out. Bytes
/// beyond one complete request stay buffered as the start of the next —
/// the event-loop server's keep-alive framing. All the limits of
/// [`read_request`] apply incrementally: an over-long header block or
/// declared body fails as soon as it is detectable, never after
/// unbounded buffering. Errors are terminal — the caller answers the
/// mapped status and closes.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// `\r\n\r\n` scan resume point (avoids re-scanning on every push).
    scanned: usize,
    /// Parsed head waiting on `content_length` body bytes.
    pending: Option<(Request, usize)>,
    /// Total complete requests produced (framing diagnostics).
    parsed: u64,
}

impl RequestParser {
    /// An empty parser.
    #[must_use]
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Feed bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered toward the next (incomplete) request.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() + self.pending.as_ref().map_or(0, |(r, _)| r.body.len())
    }

    /// Has this parser consumed any bytes of an in-progress request?
    /// Distinguishes an idle keep-alive connection (clean close / drain
    /// allowed) from one mid-request (deadline applies).
    #[must_use]
    pub fn mid_request(&self) -> bool {
        !self.buf.is_empty() || self.pending.is_some()
    }

    /// Complete requests produced so far.
    #[must_use]
    pub fn parsed(&self) -> u64 {
        self.parsed
    }

    /// Is a complete head buffered, awaiting its body? (Separates an
    /// `eof mid-headers` diagnosis from `eof mid-body`.)
    #[must_use]
    pub fn awaiting_body(&self) -> bool {
        self.pending.is_some()
    }

    /// Try to complete one request from the buffered bytes.
    ///
    /// Returns `Ok(None)` while more bytes are needed.
    ///
    /// # Errors
    ///
    /// The same taxonomy as [`read_request`]: malformed head, size-limit
    /// violations. Terminal for the connection.
    pub fn try_next(&mut self) -> Result<Option<Request>, ServeError> {
        if self.pending.is_none() {
            let Some(header_end) = self.find_header_end() else {
                if self.buf.len() > MAX_HEADER_BYTES {
                    return Err(ServeError::HeadersTooLarge);
                }
                return Ok(None);
            };
            let (request, content_length) = parse_head(&self.buf[..header_end])?;
            self.buf.drain(..header_end + 4);
            self.scanned = 0;
            self.pending = Some((request, content_length));
        }
        let Some((_, content_length)) = self.pending.as_ref() else {
            return Ok(None);
        };
        if self.buf.len() < *content_length {
            return Ok(None);
        }
        let (mut request, content_length) = self.pending.take().unwrap_or_default();
        request.body = self.buf.drain(..content_length).collect();
        self.parsed += 1;
        Ok(Some(request))
    }

    fn find_header_end(&mut self) -> Option<usize> {
        let from = self.scanned.saturating_sub(3);
        let found = self.buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + from);
        if found.is_none() {
            self.scanned = self.buf.len();
        }
        found
    }
}

/// Parse a request head (everything before the `\r\n\r\n`): request
/// line, headers, and the validated `Content-Length`.
fn parse_head(head: &[u8]) -> Result<(Request, usize), ServeError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| ServeError::Malformed("non-utf8 header block".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(ServeError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ServeError::Malformed(format!("bad version {version:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ServeError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ServeError::BodyTooLarge);
    }
    Ok((
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers,
            body: Vec::new(),
        },
        content_length,
    ))
}

/// One decoded response off the wire — the shared client/peer view.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (exactly `Content-Length` when framed, everything to
    /// EOF otherwise).
    pub body: Vec<u8>,
    /// Parsed `Retry-After` seconds, when present.
    pub retry_after: Option<u64>,
    /// Raw `X-Jvmsim-Span` annotation, when present.
    pub span: Option<String>,
    /// Did the sender announce `Connection: close`?
    pub close: bool,
}

/// Incremental HTTP/1.1 *response* parser — the one decode path every
/// client in this crate uses (`jprof client`, the open-loop C10k mode,
/// and the peer-fetch tier). `Content-Length` frames the body when
/// present; an unframed body is complete only at EOF. Bytes beyond a
/// framed response stay buffered for the next one (keep-alive safe).
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
    scanned: usize,
    /// Parsed head waiting on its body: `(response, framed_length)`.
    pending: Option<(ParsedResponse, Option<usize>)>,
}

impl ResponseParser {
    /// An empty parser.
    #[must_use]
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Feed bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered toward the next (incomplete) response.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Is a response partially buffered (head seen or bytes pending)?
    #[must_use]
    pub fn mid_response(&self) -> bool {
        !self.buf.is_empty() || self.pending.is_some()
    }

    /// Try to complete one response. `at_eof` marks the transport
    /// closed: an unframed body is then complete as-is, while a framed
    /// body that is still short stays incomplete (torn responses are
    /// never silently truncated to look whole).
    ///
    /// # Errors
    ///
    /// A description of the malformation (bad status line, bad
    /// `Content-Length`, non-utf8 head).
    pub fn try_next(&mut self, at_eof: bool) -> Result<Option<ParsedResponse>, String> {
        if self.pending.is_none() {
            let Some(header_end) = self.find_header_end() else {
                return Ok(None);
            };
            let head = std::str::from_utf8(&self.buf[..header_end])
                .map_err(|_| "non-utf8 head".to_owned())?;
            let mut lines = head.split("\r\n");
            let status_line = lines.next().unwrap_or_default();
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad status line '{status_line}'"))?;
            let mut parsed = ParsedResponse {
                status,
                ..ParsedResponse::default()
            };
            let mut framed = None;
            for line in lines {
                let Some((name, value)) = line.split_once(':') else {
                    continue;
                };
                if name.eq_ignore_ascii_case("content-length") {
                    framed = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| "bad content-length".to_owned())?,
                    );
                } else if name.eq_ignore_ascii_case("retry-after") {
                    parsed.retry_after = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("x-jvmsim-span") {
                    parsed.span = Some(value.trim().to_owned());
                } else if name.eq_ignore_ascii_case("connection") {
                    parsed.close = value.trim().eq_ignore_ascii_case("close");
                }
            }
            self.buf.drain(..header_end + 4);
            self.scanned = 0;
            self.pending = Some((parsed, framed));
        }
        let Some((_, framed)) = self.pending.as_ref().map(|(p, f)| (p, *f)) else {
            return Ok(None);
        };
        match framed {
            Some(len) if self.buf.len() >= len => {
                let (mut parsed, _) = self.pending.take().unwrap_or_default();
                parsed.body = self.buf.drain(..len).collect();
                Ok(Some(parsed))
            }
            Some(_) => Ok(None),
            None if at_eof => {
                let (mut parsed, _) = self.pending.take().unwrap_or_default();
                parsed.body = std::mem::take(&mut self.buf);
                self.scanned = 0;
                Ok(Some(parsed))
            }
            None => Ok(None),
        }
    }

    fn find_header_end(&mut self) -> Option<usize> {
        let from = self.scanned.saturating_sub(3);
        let found = self.buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + from);
        if found.is_none() {
            self.scanned = self.buf.len();
        }
        found
    }
}

/// Read one request off a keep-alive connection, polling `is_draining`
/// and the `deadline` while blocked.
///
/// Generic over [`Read`] so the parser can be driven by arbitrary byte
/// sources (the fuzz tests feed it adversarial chunkings); the daemon
/// passes a [`TcpStream`] with a read timeout of `READ_POLL` installed
/// (the connection loop sets it once). Each poll tick (`WouldBlock`)
/// re-checks the drain flag and the per-request read deadline, so a
/// stalled peer costs at most one tick after the deadline and a drain
/// never waits on an idle connection.
///
/// # Errors
///
/// * [`ServeError::Closed`] — clean close before any byte of a request.
/// * [`ServeError::Draining`] — drain began before any byte of a request.
/// * [`ServeError::ReadTimeout`] — deadline elapsed mid-request.
/// * [`ServeError::Malformed`] / size variants — parse failures.
/// * [`ServeError::Io`] — transport failure.
pub fn read_request<R: Read>(
    stream: &mut R,
    deadline: Duration,
    is_draining: &dyn Fn() -> bool,
) -> Result<Request, ServeError> {
    let start = Instant::now();
    let mut parser = RequestParser::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(request) = parser.try_next()? {
            if parser.buffered() > 0 {
                // Pipelined extra bytes would desynchronise the strict
                // one-request-per-read framing this wrapper promises.
                return Err(ServeError::Malformed("bytes beyond content-length".into()));
            }
            return Ok(request);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if parser.awaiting_body() {
                    ServeError::Malformed("eof mid-body".into())
                } else if parser.mid_request() {
                    ServeError::Malformed("eof mid-headers".into())
                } else {
                    ServeError::Closed
                });
            }
            Ok(n) => parser.push(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if !parser.mid_request() && is_draining() {
                    return Err(ServeError::Draining);
                }
                if start.elapsed() >= deadline {
                    return Err(if parser.mid_request() {
                        ServeError::ReadTimeout
                    } else {
                        ServeError::Closed
                    });
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::Io(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> Result<Request, ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Keep the stream open briefly so the reader sees a stall, not
            // an EOF, if it wants more bytes.
            std::thread::sleep(Duration::from_millis(300));
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(READ_POLL)).unwrap();
        let got = read_request(&mut stream, Duration::from_millis(200), &|| false);
        writer.join().unwrap();
        got
    }

    #[test]
    fn parses_a_request_with_body() {
        let req = round_trip(b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_malformed_shapes() {
        assert!(matches!(
            round_trip(b"NONSENSE\r\n\r\n"),
            Err(ServeError::Malformed(_))
        ));
        assert!(matches!(
            round_trip(b"GET / HTTP/2.0\r\n\r\n"),
            Err(ServeError::Malformed(_))
        ));
        assert!(matches!(
            round_trip(b"GET / HTTP/1.1\r\nContent-Length: huge\r\n\r\n"),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_declared_body_fails_closed() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(round_trip(raw.as_bytes()), Err(ServeError::BodyTooLarge));
    }

    #[test]
    fn stalled_body_times_out() {
        // Declares 10 bytes, sends 2: the deadline must fire.
        assert_eq!(
            round_trip(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"),
            Err(ServeError::ReadTimeout)
        );
    }

    #[test]
    fn error_statuses() {
        assert_eq!(ServeError::Closed.status(), None);
        assert_eq!(ServeError::Malformed(String::new()).status(), Some(400));
        assert_eq!(ServeError::HeadersTooLarge.status(), Some(431));
        assert_eq!(ServeError::BodyTooLarge.status(), Some(413));
        assert_eq!(ServeError::ReadTimeout.status(), Some(408));
        assert_eq!(ServeError::Draining.status(), Some(503));
    }

    #[test]
    fn request_parser_handles_byte_at_a_time_delivery() {
        let raw = b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let mut parser = RequestParser::new();
        for (i, b) in raw.iter().enumerate() {
            parser.push(std::slice::from_ref(b));
            let got = parser.try_next().unwrap();
            if i + 1 < raw.len() {
                assert!(got.is_none(), "complete at byte {i}");
                assert!(parser.mid_request());
            } else {
                let req = got.expect("complete at final byte");
                assert_eq!(req.path, "/v1/run");
                assert_eq!(req.body, b"abcd");
            }
        }
        assert!(!parser.mid_request());
        assert_eq!(parser.parsed(), 1);
    }

    #[test]
    fn request_parser_keeps_pipelined_bytes_for_the_next_request() {
        let mut parser = RequestParser::new();
        parser.push(b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/metrics HTTP/1.1\r\n\r\n");
        let first = parser.try_next().unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let second = parser.try_next().unwrap().unwrap();
        assert_eq!(second.path, "/v1/metrics");
        assert!(parser.try_next().unwrap().is_none());
        assert_eq!(parser.parsed(), 2);
    }

    #[test]
    fn request_parser_enforces_limits_incrementally() {
        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/1.1\r\nx: ");
        parser.push(&vec![b'a'; MAX_HEADER_BYTES + 8]);
        assert_eq!(parser.try_next(), Err(ServeError::HeadersTooLarge));

        let mut parser = RequestParser::new();
        parser.push(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        assert_eq!(parser.try_next(), Err(ServeError::BodyTooLarge));
    }

    #[test]
    fn response_parser_round_trips_rendered_responses() {
        let mut resp = Response::json(200, "{\"ok\":true}");
        resp.span = Some("trace=t1".into());
        let mut wire = resp.render();
        wire.extend_from_slice(&Response::text(404, "not found\n").closing().render());

        let mut parser = ResponseParser::new();
        // Adversarial chunking: three-byte slices.
        for chunk in wire.chunks(3) {
            parser.push(chunk);
        }
        let first = parser.try_next(false).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"{\"ok\":true}");
        assert_eq!(first.span.as_deref(), Some("trace=t1"));
        assert!(!first.close);
        let second = parser.try_next(false).unwrap().unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.body, b"not found\n");
        assert!(second.close);
        assert!(!parser.mid_response());
    }

    #[test]
    fn response_parser_unframed_body_completes_only_at_eof() {
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\n\r\npartial");
        assert!(parser.try_next(false).unwrap().is_none());
        parser.push(b" body");
        let got = parser.try_next(true).unwrap().unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, b"partial body");
    }

    #[test]
    fn response_parser_never_truncates_a_torn_framed_body() {
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc");
        assert!(parser.try_next(true).unwrap().is_none());
        assert!(parser.mid_response());
    }

    #[test]
    fn response_parser_rejects_garbage() {
        let mut parser = ResponseParser::new();
        parser.push(b"NOT HTTP\r\n\r\n");
        assert!(parser
            .try_next(false)
            .unwrap_err()
            .contains("bad status line"));
        let mut parser = ResponseParser::new();
        parser.push(b"HTTP/1.1 200 OK\r\nContent-Length: huge\r\n\r\n");
        assert_eq!(parser.try_next(false).unwrap_err(), "bad content-length");
    }

    #[test]
    fn response_bytes_are_fixed_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap();
            out
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut resp = Response::json(429, "{}");
        resp.retry_after = Some(1);
        resp.closing().write(&mut stream).unwrap();
        drop(stream);
        let raw = String::from_utf8(reader.join().unwrap()).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Content-Length: 2\r\n"));
        assert!(raw.contains("Retry-After: 1\r\n"));
        assert!(raw.contains("Connection: close\r\n"));
        assert!(raw.ends_with("\r\n\r\n{}"));
    }
}
