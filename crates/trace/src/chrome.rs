//! Chrome `trace_event` JSON export (Perfetto / `chrome://tracing`) for
//! both record planes: [`chrome_trace_json`] renders VM transition events,
//! [`chrome_span_json`] renders request spans.
//!
//! The transition-event stream maps onto the trace-event phases directly:
//!
//! * `J2nBegin` opens a `native` duration slice (`ph: "B"`) on the thread's
//!   track; `J2nEnd` closes it (`ph: "E"`). `N2jBegin`/`N2jEnd` do the same
//!   for nested `bytecode` slices. Because the wrapper/interceptor pairs
//!   are properly nested per thread, the B/E stream forms a well-formed
//!   stack; events dropped at buffer saturation can truncate the tail,
//!   which the viewers tolerate (slices are auto-closed at trace end).
//! * The compilation-pipeline kinds (`TierUpC1`, `TierUpC2`, `Osr`,
//!   `Deopt`), `ThreadStart`/`ThreadEnd` and the agents' `AllocSite`/
//!   `MonitorContend` become thread-scoped instants (`ph: "i"`).
//! * Each thread also gets a `thread_name` metadata record.
//!
//! Request spans become one complete (`"X"`) event each, with one process
//! lane per fleet member and one thread lane per connection.
//!
//! Timestamps are microseconds of *virtual* time: PCL cycles divided by
//! the clock rate (the paper's 2.66 GHz by default), emitted with
//! nanosecond precision (three decimals).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use jvmsim_spans::{sort_ordinal, SpanRecord, SpanStage, TraceId};
use jvmsim_vm::TraceEventKind;

use crate::{ExportError, TraceEvent, TraceSnapshot};

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn cycles_to_us(cycles: u64, clock_hz: u64) -> f64 {
    cycles as f64 * 1.0e6 / clock_hz as f64
}

fn method_label(event: &TraceEvent) -> String {
    let verb = event.kind.name();
    match event.method {
        Some(m) => format!("{verb} class{}.m{}", m.class.index(), m.index),
        None => verb.to_owned(),
    }
}

fn push_event(out: &mut String, event: &TraceEvent, clock_hz: u64) {
    let ts = cycles_to_us(event.cycles, clock_hz);
    let tid = event.thread;
    let record = match event.kind {
        TraceEventKind::J2nBegin => format!(
            r#"{{"name":"native","cat":"transition","ph":"B","ts":{ts:.3},"pid":1,"tid":{tid}}}"#
        ),
        TraceEventKind::N2jBegin => format!(
            r#"{{"name":"bytecode","cat":"transition","ph":"B","ts":{ts:.3},"pid":1,"tid":{tid}}}"#
        ),
        TraceEventKind::J2nEnd | TraceEventKind::N2jEnd => {
            format!(r#"{{"ph":"E","ts":{ts:.3},"pid":1,"tid":{tid}}}"#)
        }
        TraceEventKind::TierUpC1
        | TraceEventKind::TierUpC2
        | TraceEventKind::Osr
        | TraceEventKind::Deopt => format!(
            r#"{{"name":"{}","cat":"jit","ph":"i","s":"t","ts":{ts:.3},"pid":1,"tid":{tid}}}"#,
            json_escape(&method_label(event))
        ),
        TraceEventKind::ThreadStart | TraceEventKind::ThreadEnd => format!(
            r#"{{"name":"{}","cat":"thread","ph":"i","s":"t","ts":{ts:.3},"pid":1,"tid":{tid}}}"#,
            event.kind.name()
        ),
        TraceEventKind::AllocSite | TraceEventKind::MonitorContend => format!(
            r#"{{"name":"{}","cat":"agent","ph":"i","s":"t","ts":{ts:.3},"pid":1,"tid":{tid}}}"#,
            event.kind.name()
        ),
    };
    out.push_str(&record);
}

/// Render `snapshot` as a Chrome `trace_event` JSON object.
///
/// `clock_hz` is the PCL clock rate used to convert cycle stamps to
/// microseconds (pass `pcl.clock_hz()`). Event counts and drop totals are
/// included under `"otherData"` so a saturated trace is self-describing.
///
/// # Errors
///
/// [`ExportError::ZeroClockRate`] if `clock_hz` is zero (previously a
/// panic; exporters must degrade to recordable errors).
pub fn chrome_trace_json(snapshot: &TraceSnapshot, clock_hz: u64) -> Result<String, ExportError> {
    if clock_hz == 0 {
        return Err(ExportError::ZeroClockRate);
    }
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };
    for thread in &snapshot.threads {
        sep(&mut out);
        let _ = write!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{},"args":{{"name":"thread#{}"}}}}"#,
            thread.thread, thread.thread
        );
    }
    for thread in &snapshot.threads {
        for event in &thread.events {
            sep(&mut out);
            push_event(&mut out, event, clock_hz);
        }
    }
    out.push_str("\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{");
    let _ = write!(out, "\"clock_hz\":{clock_hz}");
    for kind in TraceEventKind::ALL {
        let _ = write!(out, ",\"{}\":{}", kind.name(), snapshot.count(kind));
    }
    let _ = write!(
        out,
        ",\"recorded\":{},\"dropped\":{}}}}}",
        snapshot.recorded(),
        snapshot.dropped()
    );
    out.push('\n');
    Ok(out)
}

/// Microseconds with a fixed three-decimal fraction — deterministic
/// formatting for sub-microsecond stage costs.
fn micros_fixed(cycles: u64, clock_hz: u64) -> String {
    let ns = u128::from(cycles) * 1_000_000_000 / u128::from(clock_hz);
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render request spans as a Chrome `trace_event` JSON object: one process
/// lane per fleet member, one thread lane per connection, one complete
/// (`"X"`) event per span. Span starts are request-relative, so each
/// connection's requests are laid out serially at their cumulative offsets
/// — the view reads as a per-connection timeline in modeled time.
///
/// Input order does not matter: a copy is sorted into ordinal order first,
/// so the output is a pure function of the span *set*.
///
/// # Errors
///
/// [`ExportError::ZeroClockRate`] if `clock_hz` is zero.
pub fn chrome_span_json(spans: &[SpanRecord], clock_hz: u64) -> Result<String, ExportError> {
    if clock_hz == 0 {
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
                micros_fixed(offset + span.start_cycles, clock_hz),
                micros_fixed(span.duration_cycles, clock_hz),
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
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;
    use jvmsim_vm::{ThreadId, TraceSink};

    fn sample_snapshot() -> TraceSnapshot {
        let r = TraceRecorder::new(16);
        let t0 = ThreadId::from_index(0);
        r.record(t0, TraceEventKind::ThreadStart, 0, None);
        r.record(t0, TraceEventKind::N2jBegin, 100, None);
        r.record(t0, TraceEventKind::J2nBegin, 250, None);
        r.record(t0, TraceEventKind::J2nEnd, 400, None);
        r.record(t0, TraceEventKind::N2jEnd, 500, None);
        r.record(t0, TraceEventKind::ThreadEnd, 600, None);
        r.snapshot()
    }

    #[test]
    fn zero_clock_rate_is_a_typed_error_not_a_panic() {
        assert_eq!(
            chrome_trace_json(&sample_snapshot(), 0),
            Err(ExportError::ZeroClockRate)
        );
    }

    #[test]
    fn balanced_begin_end_pairs() {
        let json = chrome_trace_json(&sample_snapshot(), 2_660_000_000).expect("clock rate");
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        assert!(json.contains("\"name\":\"native\""));
        assert!(json.contains("\"name\":\"bytecode\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"n2j_begin\":1"));
        assert!(json.contains("\"dropped\":0"));
    }

    #[test]
    fn timestamps_convert_at_clock_rate() {
        // 1 GHz: 1000 cycles = 1 µs.
        let json = chrome_trace_json(&sample_snapshot(), 1_000_000_000).expect("clock rate");
        assert!(json.contains("\"ts\":0.100"), "{json}");
        assert!(json.contains("\"ts\":0.600"), "{json}");
    }

    /// One event of every kind on thread 1, all at cycle 1500.
    fn every_kind_snapshot() -> TraceSnapshot {
        let r = TraceRecorder::new(16);
        let t1 = ThreadId::from_index(1);
        for kind in TraceEventKind::ALL {
            r.record(t1, kind, 1500, None);
        }
        r.snapshot()
    }

    #[test]
    fn every_kind_renders_byte_for_byte() {
        let json = chrome_trace_json(&every_kind_snapshot(), 1_000_000_000).expect("clock rate");
        let expected = [
            r#"{"traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"thread#0"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"thread#1"}},"#,
            r#"{"name":"native","cat":"transition","ph":"B","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"ph":"E","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"bytecode","cat":"transition","ph":"B","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"ph":"E","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"thread_start","cat":"thread","ph":"i","s":"t","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"thread_end","cat":"thread","ph":"i","s":"t","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"alloc_site","cat":"agent","ph":"i","s":"t","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"monitor_contend","cat":"agent","ph":"i","s":"t","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"tier_up_c1","cat":"jit","ph":"i","s":"t","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"tier_up_c2","cat":"jit","ph":"i","s":"t","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"osr","cat":"jit","ph":"i","s":"t","ts":1.500,"pid":1,"tid":1},"#,
            r#"{"name":"deopt","cat":"jit","ph":"i","s":"t","ts":1.500,"pid":1,"tid":1}"#,
            r#"],"#,
            r#""displayTimeUnit":"ms","#,
            r#""otherData":{"clock_hz":1000000000,"j2n_begin":1,"j2n_end":1,"n2j_begin":1,"n2j_end":1,"thread_start":1,"thread_end":1,"alloc_site":1,"monitor_contend":1,"tier_up_c1":1,"tier_up_c2":1,"osr":1,"deopt":1,"recorded":12,"dropped":0}}"#,
            "",
        ]
        .join("\n");
        assert_eq!(json, expected);
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
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
    fn chrome_span_export_is_input_order_invariant_and_lays_out_serially() {
        // Two requests on one connection, each a root plus one child.
        let spans = vec![
            span(0, 0, 0, SpanStage::Root, 0, 100),
            span(0, 0, 0, SpanStage::Accept, 0, 100),
            span(0, 0, 1, SpanStage::Root, 0, 50),
            span(0, 0, 1, SpanStage::Accept, 0, 50),
        ];
        let a = chrome_span_json(&spans, 1_000_000_000).unwrap();
        let mut shuffled = spans.clone();
        shuffled.reverse();
        let b = chrome_span_json(&shuffled, 1_000_000_000).unwrap();
        assert_eq!(a, b, "export must not depend on input order");
        // 100 cycles at 1 GHz = 0.100µs: request 1 starts where 0 ended.
        let expected = [
            r#"{"traceEvents":["#,
            r#"{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"member-0"}},"#,
            r#"{"ph":"X","name":"root","cat":"span","ts":0.000,"dur":0.100,"pid":0,"tid":0,"args":{"trace":"00000000000011110000000000002222","span":"0000000000003333","parent":"0000000000000000","req":0,"detail":200}},"#,
            r#"{"ph":"X","name":"accept","cat":"span","ts":0.000,"dur":0.100,"pid":0,"tid":0,"args":{"trace":"00000000000011110000000000002222","span":"0000000000003333","parent":"0000000000000000","req":0,"detail":200}},"#,
            r#"{"ph":"X","name":"root","cat":"span","ts":0.100,"dur":0.050,"pid":0,"tid":0,"args":{"trace":"00000000000011110000000000002222","span":"0000000000003334","parent":"0000000000000000","req":1,"detail":200}},"#,
            r#"{"ph":"X","name":"accept","cat":"span","ts":0.100,"dur":0.050,"pid":0,"tid":0,"args":{"trace":"00000000000011110000000000002222","span":"0000000000003334","parent":"0000000000000000","req":1,"detail":200}}"#,
            r#"],"displayTimeUnit":"ms"}"#,
            "",
        ]
        .join("\n");
        assert_eq!(a, expected);
    }

    #[test]
    fn chrome_span_export_rejects_a_zero_clock() {
        assert_eq!(chrome_span_json(&[], 0), Err(ExportError::ZeroClockRate));
    }
}
