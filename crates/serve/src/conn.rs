//! Per-connection state for the readiness event loop.
//!
//! One [`Conn`] per accepted socket, owned by the loop thread. The
//! lifecycle is a strict machine:
//!
//! ```text
//! Idle ──bytes──▶ Reading ──request──▶ (handler)
//!   ▲                                   │ queued run   │ immediate
//!   │                                   ▼              ▼
//!   └────────── Writing ◀─completion── Dispatched      │
//!        flush done / keep-alive ◀─────────────────────┘
//! ```
//!
//! The I/O methods are generic over [`Read`]/[`Write`], so the machine's
//! buffer bookkeeping (partial reads, partial writes, pipelined bytes)
//! is unit-tested against in-memory transports with adversarial
//! chunkings — the loop only adds *when* to call them, never *how*.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use jvmsim_spans::SpanBuilder;
use polling::Event;

use crate::http::RequestParser;
use crate::spec::OutcomeClass;

/// Where a connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Keep-alive, between requests: no request bytes buffered.
    Idle,
    /// Request bytes buffered, head or body still incomplete.
    Reading,
    /// A run job is queued or executing; `token` routes its completion.
    Dispatched {
        /// The job token the completion will carry.
        token: u64,
    },
    /// A response is queued on the out-buffer, not yet fully written.
    Writing,
}

/// What one readable-readiness drain produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Bytes were consumed into the parser (possibly zero, on a spurious
    /// wakeup); the socket is drained to `WouldBlock`.
    Progress,
    /// The peer closed its write half (EOF).
    Eof,
    /// Transport failure; the connection is unusable.
    Failed,
}

/// What one writable-readiness flush produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteOutcome {
    /// The out-buffer is fully written.
    Done,
    /// Bytes remain; wait for writability again.
    Blocked,
    /// Transport failure; the queued response is lost.
    Failed,
}

/// One live connection: socket, parser, out-buffer, phase, and the
/// request bookkeeping the loop needs (ordinals, span, deadline anchor).
pub(crate) struct Conn {
    /// The nonblocking socket.
    pub(crate) stream: TcpStream,
    /// Accept-order ordinal — one half of every trace id minted here.
    pub(crate) ordinal: u64,
    /// Requests parsed on this connection — the other trace-id half.
    pub(crate) req_seq: u64,
    /// Incremental request parser (holds pipelined surplus between
    /// requests).
    pub(crate) parser: RequestParser,
    /// Lifecycle phase.
    pub(crate) phase: Phase,
    /// Deadline anchor: set when the connection enters `Idle` (the idle
    /// cutoff's clock), and again when the next request's first bytes
    /// arrive (the request deadline's clock).
    pub(crate) started: Instant,
    /// Open root span of the in-flight request, if traced.
    pub(crate) span: Option<SpanBuilder>,
    /// Abandon flag of the dispatched job (set on deadline so an
    /// unstarted execution is skipped).
    pub(crate) abandoned: Option<Arc<AtomicBool>>,
    /// The in-flight request asked for `Connection: close`.
    pub(crate) close_requested: bool,
    /// Is the socket currently registered with the poller? (Dispatched
    /// connections deregister: level-triggered HUP would busy-wake the
    /// loop for the whole execution otherwise.)
    pub(crate) registered: bool,
    /// Ledger class of the queued response, booked when the write
    /// resolves (written → this; torn → `Dropped`).
    pub(crate) outcome: Option<OutcomeClass>,
    /// Close after the current response is fully written.
    pub(crate) close_after_write: bool,
    /// EOF seen while a request was in flight: the response will be
    /// attempted anyway (the write half may outlive the read half), but
    /// no further requests are read.
    pub(crate) peer_gone: bool,
    out: Vec<u8>,
    out_pos: usize,
}

impl Conn {
    /// Wrap a freshly accepted socket.
    pub(crate) fn new(stream: TcpStream, ordinal: u64, now: Instant) -> Conn {
        Conn {
            stream,
            ordinal,
            req_seq: 0,
            parser: RequestParser::new(),
            phase: Phase::Idle,
            started: now,
            span: None,
            abandoned: None,
            close_requested: false,
            registered: false,
            outcome: None,
            close_after_write: false,
            peer_gone: false,
            out: Vec::new(),
            out_pos: 0,
        }
    }

    /// The poller interest for the current phase: read while a request
    /// may arrive, write while a response is queued, nothing while a job
    /// is in flight (level-triggered readiness would busy-wake us).
    pub(crate) fn interest(&self, key: usize) -> Event {
        match self.phase {
            Phase::Idle | Phase::Reading => Event::readable(key),
            Phase::Dispatched { .. } => Event::none(key),
            Phase::Writing => Event::writable(key),
        }
    }

    /// Drain the readable socket into the parser (until `WouldBlock`).
    pub(crate) fn fill(&mut self) -> ReadOutcome {
        let mut stream = &self.stream;
        Self::fill_from(&mut stream, &mut self.parser)
    }

    /// Transport-generic body of [`fill`](Self::fill).
    pub(crate) fn fill_from<R: Read>(source: &mut R, parser: &mut RequestParser) -> ReadOutcome {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match source.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => parser.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadOutcome::Progress,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Failed,
            }
        }
    }

    /// Queue rendered response bytes for writing.
    pub(crate) fn queue_write(&mut self, bytes: Vec<u8>) {
        debug_assert!(!self.has_pending_write(), "one response at a time");
        self.out = bytes;
        self.out_pos = 0;
    }

    /// Bytes still queued for the peer?
    pub(crate) fn has_pending_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Push queued bytes to the socket until done or `WouldBlock`.
    pub(crate) fn flush(&mut self) -> WriteOutcome {
        // Split borrows: the buffer advances even though `stream` is a
        // field of the same struct.
        let (out, out_pos) = (&self.out, &mut self.out_pos);
        let mut stream = &self.stream;
        Self::flush_to(&mut stream, out, out_pos)
    }

    /// Transport-generic body of [`flush`](Self::flush).
    pub(crate) fn flush_to<W: Write>(sink: &mut W, out: &[u8], pos: &mut usize) -> WriteOutcome {
        while *pos < out.len() {
            match sink.write(&out[*pos..]) {
                Ok(0) => return WriteOutcome::Failed,
                Ok(n) => *pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteOutcome::Blocked,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Failed,
            }
        }
        WriteOutcome::Done
    }

    /// Reset per-request state after a response lands: back to `Idle`
    /// with a fresh deadline anchor. The parser keeps any pipelined
    /// surplus — the loop immediately re-drives it.
    pub(crate) fn finish_request(&mut self, now: Instant) {
        self.phase = Phase::Idle;
        self.started = now;
        self.span = None;
        self.abandoned = None;
        self.close_requested = false;
        self.outcome = None;
        self.out.clear();
        self.out_pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport that yields its scripted chunks one `read` at a time,
    /// then `WouldBlock`, then EOF once `eof` is set.
    struct Script {
        chunks: Vec<Vec<u8>>,
        eof: bool,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if let Some(chunk) = self.chunks.first() {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                if n == chunk.len() {
                    self.chunks.remove(0);
                } else {
                    self.chunks[0] = self.chunks[0][n..].to_vec();
                }
                return Ok(n);
            }
            if self.eof {
                Ok(0)
            } else {
                Err(std::io::Error::from(ErrorKind::WouldBlock))
            }
        }
    }

    /// A sink that accepts at most `cap` bytes per write, then blocks
    /// every other call — the partial-write torture case.
    struct Throttle {
        written: Vec<u8>,
        cap: usize,
        block_next: bool,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.block_next = true;
            let n = buf.len().min(self.cap);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn fill_consumes_all_chunks_then_reports_progress() {
        let mut parser = RequestParser::new();
        let mut source = Script {
            chunks: vec![b"GET /healthz HT".to_vec(), b"TP/1.1\r\n\r\n".to_vec()],
            eof: false,
        };
        assert_eq!(
            Conn::fill_from(&mut source, &mut parser),
            ReadOutcome::Progress
        );
        let req = parser.try_next().unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn fill_reports_eof_after_final_bytes() {
        let mut parser = RequestParser::new();
        let mut source = Script {
            chunks: vec![b"GET /x HTTP/1.1\r\n".to_vec()],
            eof: true,
        };
        assert_eq!(Conn::fill_from(&mut source, &mut parser), ReadOutcome::Eof);
        assert!(parser.mid_request(), "partial head stays buffered");
    }

    #[test]
    fn flush_survives_partial_writes_and_wouldblock() {
        let out: Vec<u8> = (0..100).collect();
        let mut pos = 0;
        let mut sink = Throttle {
            written: Vec::new(),
            cap: 7,
            block_next: false,
        };
        let mut rounds = 0;
        loop {
            match Conn::flush_to(&mut sink, &out, &mut pos) {
                WriteOutcome::Done => break,
                WriteOutcome::Blocked => rounds += 1,
                WriteOutcome::Failed => panic!("throttle never fails"),
            }
            assert!(rounds < 100, "must terminate");
        }
        assert_eq!(sink.written, out, "every byte exactly once, in order");
    }
}
