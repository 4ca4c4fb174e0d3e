//! Property tests for the transition recorder and the Chrome exporter.
//!
//! Pinned invariants:
//!   * accounting: `recorded + dropped == appended`, exactly, even when a
//!     tiny buffer saturates — saturation loses event *payloads*, never
//!     event *counts*;
//!   * per-kind counters equal the number of appended events of that kind
//!     regardless of drops;
//!   * per-thread cycle monotonicity survives the snapshot (events come
//!     from per-thread virtual clocks, which never run backwards);
//!   * the Chrome `trace_event` export is well-formed JSON for arbitrary
//!     event streams.

use proptest::prelude::*;

use jvmsim_trace::{chrome, TraceRecorder};
use jvmsim_vm::{ThreadId, TraceEventKind, TraceSink};

/// Replay a generated `(thread, kind, cycle-delta)` stream into a
/// recorder, keeping per-thread clocks monotone like the PCL does.
fn replay(recorder: &TraceRecorder, stream: &[(usize, u8, u64)]) -> Vec<u64> {
    let mut clocks = vec![0u64; 4];
    for &(thread, kind, delta) in stream {
        let thread = thread % clocks.len();
        clocks[thread] += delta;
        recorder.record(
            ThreadId::from_index(thread),
            TraceEventKind::ALL[kind as usize % TraceEventKind::COUNT],
            clocks[thread],
            None,
        );
    }
    clocks
}

// ---------------------------------------------------------------------
// A minimal JSON syntax checker (no parsing into values — just "is this
// well-formed?"). Good enough to catch escaping and comma bugs in the
// exporter without pulling in a JSON crate.

struct JsonCheck<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonCheck<'a> {
    fn ok(input: &'a str) -> bool {
        let mut c = JsonCheck {
            bytes: input.as_bytes(),
            pos: 0,
        };
        c.skip_ws();
        c.value() && {
            c.skip_ws();
            c.pos == c.bytes.len()
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> bool {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    fn literal(&mut self, lit: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn object(&mut self) -> bool {
        if !self.eat(b'{') {
            return false;
        }
        self.skip_ws();
        if self.eat(b'}') {
            return true;
        }
        loop {
            self.skip_ws();
            if !self.string() {
                return false;
            }
            self.skip_ws();
            if !self.eat(b':') || !self.value() {
                return false;
            }
            self.skip_ws();
            if self.eat(b'}') {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn array(&mut self) -> bool {
        if !self.eat(b'[') {
            return false;
        }
        self.skip_ws();
        if self.eat(b']') {
            return true;
        }
        loop {
            if !self.value() {
                return false;
            }
            self.skip_ws();
            if self.eat(b']') {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat(b'"') {
            return false;
        }
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return true,
                b'\\' => {
                    let Some(esc) = self.peek() else { return false };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            for _ in 0..4 {
                                if !matches!(
                                    self.peek(),
                                    Some(b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F')
                                ) {
                                    return false;
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return false,
                    }
                }
                0x00..=0x1f => return false, // control chars must be escaped
                _ => {}
            }
        }
        false
    }

    fn number(&mut self) -> bool {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.pos > start
    }
}

#[test]
fn json_checker_sanity() {
    assert!(JsonCheck::ok(r#"{"a":[1,2.5,-3e4,"x\n",true,null]}"#));
    assert!(!JsonCheck::ok(r#"{"a":}"#));
    assert!(!JsonCheck::ok(r#"[1,2,]"#));
    assert!(!JsonCheck::ok("\"raw\ncontrol\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn saturation_never_loses_accounting(
        stream in prop::collection::vec((0usize..4, 0u8..7, 0u64..100), 1..300),
        capacity in 1usize..32,
    ) {
        let recorder = TraceRecorder::new(capacity);
        replay(&recorder, &stream);
        let snapshot = recorder.snapshot();
        prop_assert_eq!(
            snapshot.recorded() + snapshot.dropped(),
            snapshot.appended()
        );
        prop_assert_eq!(snapshot.appended(), stream.len() as u64);
        // Per-kind counters are exact even when payload slots overflowed.
        for kind in TraceEventKind::ALL {
            let expected = stream
                .iter()
                .filter(|&&(_, k, _)| k as usize % TraceEventKind::COUNT == kind.index())
                .count() as u64;
            prop_assert_eq!(snapshot.count(kind), expected);
        }
    }

    #[test]
    fn snapshots_preserve_per_thread_monotonicity(
        stream in prop::collection::vec((0usize..4, 0u8..7, 0u64..1000), 1..200),
    ) {
        let recorder = TraceRecorder::new(512);
        replay(&recorder, &stream);
        for t in recorder.snapshot().threads {
            let mut last = 0u64;
            for e in &t.events {
                prop_assert!(e.cycles >= last, "thread {} ran backwards", t.thread);
                last = e.cycles;
            }
        }
    }

    #[test]
    fn chrome_export_is_well_formed_json(
        stream in prop::collection::vec((0usize..4, 0u8..7, 0u64..500), 0..150),
        capacity in 1usize..64,
    ) {
        let recorder = TraceRecorder::new(capacity);
        replay(&recorder, &stream);
        let json =
            chrome::chrome_trace_json(&recorder.snapshot(), 2_660_000_000).expect("clock rate");
        prop_assert!(JsonCheck::ok(&json), "malformed JSON: {json}");
    }
}
