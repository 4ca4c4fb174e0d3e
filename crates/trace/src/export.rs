//! The unified exporter interface over the [chrome], [flame], and [csv]
//! backends.
//!
//! Each backend historically exposed one free function with its own shape
//! (`chrome_trace_json` returned `Result<String, _>`, `collapsed_stacks`
//! and `events_csv` plain `String`s), so every consumer grew a match over
//! format names. A [`TraceExporter`] names the format, its conventional
//! file extension, and a single fallible `export` into any `Write` sink;
//! [`registry`] yields every built-in exporter so callers iterate instead
//! of enumerating:
//!
//! ```
//! use jvmsim_trace::export::registry;
//! use jvmsim_trace::TraceRecorder;
//!
//! let snapshot = TraceRecorder::with_default_capacity().snapshot();
//! for exporter in registry(2_660_000_000) {
//!     let mut out = Vec::new();
//!     exporter.export(&snapshot, &mut out).expect("in-memory write");
//!     println!("trace.{} ({} bytes)", exporter.extension(), out.len());
//! }
//! ```

use std::collections::BTreeMap;
use std::io::Write;

use jvmsim_spans::{sort_ordinal, SpanRecord, SpanStage, TraceId};

use crate::{chrome, csv, flame, ExportError, TraceSnapshot};

/// One trace export format: a name (the CLI `--format` value), a
/// conventional file extension, and the rendering itself.
pub trait TraceExporter {
    /// Format name, e.g. `"chrome"` — stable, used as a CLI value.
    fn name(&self) -> &'static str;

    /// Conventional artifact extension (no dot), e.g. `"json"`.
    fn extension(&self) -> &'static str;

    /// Render `snapshot` into `out`.
    ///
    /// # Errors
    ///
    /// [`ExportError::Write`] when the sink fails; backend-specific
    /// validation errors (e.g. [`ExportError::ZeroClockRate`]) otherwise.
    fn export(&self, snapshot: &TraceSnapshot, out: &mut dyn Write) -> Result<(), ExportError>;
}

fn write_all(out: &mut dyn Write, text: &str) -> Result<(), ExportError> {
    out.write_all(text.as_bytes())
        .map_err(|e| ExportError::Write(e.to_string()))
}

/// Chrome `trace_event` JSON (Perfetto / `chrome://tracing`). Cycles are
/// converted to microseconds at the configured clock rate.
#[derive(Debug, Clone, Copy)]
pub struct ChromeExporter {
    /// Virtual clock frequency used for the cycle→µs conversion.
    pub clock_hz: u64,
}

impl TraceExporter for ChromeExporter {
    fn name(&self) -> &'static str {
        "chrome"
    }

    fn extension(&self) -> &'static str {
        "json"
    }

    fn export(&self, snapshot: &TraceSnapshot, out: &mut dyn Write) -> Result<(), ExportError> {
        write_all(out, &chrome::chrome_trace_json(snapshot, self.clock_hz)?)
    }
}

/// Collapsed stacks (`flamegraph.pl` / `inferno` input), weighting native
/// vs bytecode spans by virtual cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlameExporter;

impl TraceExporter for FlameExporter {
    fn name(&self) -> &'static str {
        "flame"
    }

    fn extension(&self) -> &'static str {
        "folded"
    }

    fn export(&self, snapshot: &TraceSnapshot, out: &mut dyn Write) -> Result<(), ExportError> {
        write_all(out, &flame::collapsed_stacks(snapshot))
    }
}

/// Flat per-event CSV dump.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvExporter;

impl TraceExporter for CsvExporter {
    fn name(&self) -> &'static str {
        "events-csv"
    }

    fn extension(&self) -> &'static str {
        "csv"
    }

    fn export(&self, snapshot: &TraceSnapshot, out: &mut dyn Write) -> Result<(), ExportError> {
        write_all(out, &csv::events_csv(snapshot))
    }
}

/// Every built-in exporter, in stable order (chrome, flame, events-csv).
/// `clock_hz` parameterizes the formats that convert cycles to time.
#[must_use]
pub fn registry(clock_hz: u64) -> Vec<Box<dyn TraceExporter>> {
    vec![
        Box::new(ChromeExporter { clock_hz }),
        Box::new(FlameExporter),
        Box::new(CsvExporter),
    ]
}

// --- Request-span exporters ------------------------------------------------

/// One export format over *request spans* (the `jvmsim-spans` plane), the
/// sibling of [`TraceExporter`], which renders VM transition events. The
/// two planes carry different records — a [`TraceSnapshot`] is per-thread
/// VM events, a span set is per-request lifecycle stages — so they get
/// separate traits rather than a lossy common shape.
pub trait SpanExporter {
    /// Format name, e.g. `"chrome"` — stable, used as a CLI value.
    fn name(&self) -> &'static str;

    /// Conventional artifact extension (no dot), e.g. `"json"`.
    fn extension(&self) -> &'static str;

    /// Render `spans` into `out`. Input order does not matter: exporters
    /// sort a copy into ordinal order first, so output bytes are a pure
    /// function of the span *set*.
    ///
    /// # Errors
    ///
    /// [`ExportError::Write`] when the sink fails; backend-specific
    /// validation errors otherwise.
    fn export(&self, spans: &[SpanRecord], out: &mut dyn Write) -> Result<(), ExportError>;
}

/// Chrome `trace_event` JSON over request spans: one process lane per
/// fleet member, one thread lane per connection, one complete (`"X"`)
/// event per span. Span starts are request-relative, so each connection's
/// requests are laid out serially at their cumulative offsets — the view
/// reads as a per-connection timeline in modeled time.
#[derive(Debug, Clone, Copy)]
pub struct ChromeSpanExporter {
    /// Virtual clock frequency used for the cycle→µs conversion.
    pub clock_hz: u64,
}

/// Microseconds with a fixed three-decimal fraction — deterministic
/// formatting for sub-microsecond stage costs.
fn micros_fixed(cycles: u64, clock_hz: u64) -> String {
    let ns = u128::from(cycles) * 1_000_000_000 / u128::from(clock_hz);
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl SpanExporter for ChromeSpanExporter {
    fn name(&self) -> &'static str {
        "chrome"
    }

    fn extension(&self) -> &'static str {
        "json"
    }

    fn export(&self, spans: &[SpanRecord], out: &mut dyn Write) -> Result<(), ExportError> {
        if self.clock_hz == 0 {
            return Err(ExportError::ZeroClockRate);
        }
        let mut sorted = spans.to_vec();
        sort_ordinal(&mut sorted);

        let mut body = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |body: &mut String, event: String| {
            if !first {
                body.push_str(",\n");
            }
            first = false;
            body.push_str(&event);
        };

        // Name the process lanes after the fleet slots.
        let mut members: Vec<u32> = sorted.iter().map(|s| s.member).collect();
        members.sort_unstable();
        members.dedup();
        for member in members {
            push(
                &mut body,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{member},\"tid\":0,\
                     \"args\":{{\"name\":\"member-{member}\"}}}}"
                ),
            );
        }

        // Each connection's requests laid out serially: a root span at the
        // connection's cumulative offset, children at root + start.
        let mut lane_cursor: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut request_offset: BTreeMap<(u32, u64, u64), u64> = BTreeMap::new();
        for span in &sorted {
            let lane = (span.member, span.conn);
            let request = (span.member, span.conn, span.req);
            let offset = if span.stage == SpanStage::Root {
                let offset = *lane_cursor.get(&lane).unwrap_or(&0);
                request_offset.insert(request, offset);
                lane_cursor.insert(lane, offset + span.duration_cycles);
                offset
            } else {
                *request_offset.get(&request).unwrap_or(&0)
            };
            let trace = TraceId {
                hi: span.trace_hi,
                lo: span.trace_lo,
            };
            push(
                &mut body,
                format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"span\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{}\",\"span\":\"{:016x}\",\
                     \"parent\":\"{:016x}\",\"req\":{},\"detail\":{}}}}}",
                    span.stage.name(),
                    micros_fixed(offset + span.start_cycles, self.clock_hz),
                    micros_fixed(span.duration_cycles, self.clock_hz),
                    span.member,
                    span.conn,
                    trace.to_hex(),
                    span.span_id,
                    span.parent_span,
                    span.req,
                    span.detail,
                ),
            );
        }
        body.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        write_all(out, &body)
    }
}

/// Every built-in span exporter, in stable order. Currently the Chrome
/// view only; the registry shape matches [`registry`] so CLI plumbing can
/// iterate formats the same way for both planes.
#[must_use]
pub fn span_registry(clock_hz: u64) -> Vec<Box<dyn SpanExporter>> {
    vec![Box::new(ChromeSpanExporter { clock_hz })]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;
    use jvmsim_vm::{ThreadId, TraceEventKind, TraceSink};

    fn sample() -> TraceSnapshot {
        let recorder = TraceRecorder::with_default_capacity();
        let t = ThreadId::from_index(0);
        recorder.record(t, TraceEventKind::ThreadStart, 0, None);
        recorder.record(t, TraceEventKind::J2nBegin, 10, None);
        recorder.record(t, TraceEventKind::J2nEnd, 30, None);
        recorder.record(t, TraceEventKind::ThreadEnd, 40, None);
        recorder.snapshot()
    }

    #[test]
    fn registry_covers_every_backend_with_distinct_names() {
        let exporters = registry(2_660_000_000);
        let names: Vec<_> = exporters.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["chrome", "flame", "events-csv"]);
        let extensions: Vec<_> = exporters.iter().map(|e| e.extension()).collect();
        assert_eq!(extensions, ["json", "folded", "csv"]);
    }

    #[test]
    fn exporters_match_the_free_functions_byte_for_byte() {
        let snapshot = sample();
        for exporter in registry(2_660_000_000) {
            let mut out = Vec::new();
            exporter.export(&snapshot, &mut out).unwrap();
            let expected = match exporter.name() {
                "chrome" => chrome::chrome_trace_json(&snapshot, 2_660_000_000).unwrap(),
                "flame" => flame::collapsed_stacks(&snapshot),
                "events-csv" => csv::events_csv(&snapshot),
                other => panic!("unknown exporter {other}"),
            };
            assert_eq!(out, expected.into_bytes(), "{}", exporter.name());
        }
    }

    #[test]
    fn backend_errors_pass_through() {
        let snapshot = sample();
        let mut out = Vec::new();
        let err = ChromeExporter { clock_hz: 0 }
            .export(&snapshot, &mut out)
            .unwrap_err();
        assert!(matches!(err, ExportError::ZeroClockRate));
        assert!(out.is_empty(), "nothing written on error");
    }

    fn span(
        member: u32,
        conn: u64,
        req: u64,
        stage: SpanStage,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_hi: 0x1111,
            trace_lo: 0x2222,
            span_id: 0x3333 + u64::from(member) + req,
            parent_span: 0,
            member,
            conn,
            req,
            stage,
            start_cycles: start,
            duration_cycles: dur,
            detail: 200,
        }
    }

    #[test]
    fn span_registry_has_the_chrome_view() {
        let exporters = span_registry(2_660_000_000);
        let names: Vec<_> = exporters.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["chrome"]);
        assert_eq!(exporters[0].extension(), "json");
    }

    #[test]
    fn chrome_span_export_is_input_order_invariant_and_lays_out_serially() {
        // Two requests on one connection, each a root plus one child.
        let spans = vec![
            span(0, 0, 0, SpanStage::Root, 0, 100),
            span(0, 0, 0, SpanStage::Accept, 0, 100),
            span(0, 0, 1, SpanStage::Root, 0, 50),
            span(0, 0, 1, SpanStage::Accept, 0, 50),
        ];
        let exporter = ChromeSpanExporter {
            clock_hz: 1_000_000_000,
        };
        let mut a = Vec::new();
        exporter.export(&spans, &mut a).unwrap();
        let mut shuffled = spans.clone();
        shuffled.reverse();
        let mut b = Vec::new();
        exporter.export(&shuffled, &mut b).unwrap();
        assert_eq!(a, b, "export must not depend on input order");
        let text = String::from_utf8(a).unwrap();
        assert!(text.contains("\"name\":\"member-0\""), "{text}");
        // 100 cycles at 1 GHz = 0.100µs: request 1 starts where 0 ended.
        assert!(
            text.contains("\"name\":\"root\",\"cat\":\"span\",\"ts\":0.100"),
            "{text}"
        );
    }

    #[test]
    fn chrome_span_export_rejects_a_zero_clock() {
        let err = ChromeSpanExporter { clock_hz: 0 }
            .export(&[], &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, ExportError::ZeroClockRate));
    }

    #[test]
    fn sink_failures_become_write_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = FlameExporter.export(&sample(), &mut Broken).unwrap_err();
        assert!(matches!(err, ExportError::Write(m) if m.contains("disk on fire")));
    }
}
