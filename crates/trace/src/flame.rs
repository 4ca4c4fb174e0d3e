//! Collapsed-stack export for flamegraph tools.
//!
//! Each output line is `frame;frame;... cycles` — the format consumed by
//! `flamegraph.pl` and `inferno-flamegraph`. Frames alternate between
//! `native` and `bytecode` according to the transition events, rooted at a
//! per-thread frame, and weights are *virtual cycles*, so the graph shows
//! exactly the split the paper's Table II percentages summarize — with the
//! nesting structure (native code calling back into bytecode calling
//! native again) that the aggregates flatten away.
//!
//! As in the paper's thread model, a thread is assumed to start in native
//! code ("each thread initially executes native code when it is started"),
//! so every stack is rooted `thread#N;native`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use jvmsim_vm::TraceEventKind;

use crate::TraceSnapshot;

/// Render `snapshot` as collapsed stacks, one `stack cycles` line each,
/// sorted lexicographically (deterministic output).
pub fn collapsed_stacks(snapshot: &TraceSnapshot) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for thread in &snapshot.threads {
        let root = format!("thread#{}", thread.thread);
        // The alternation stack: `true` = native frame, `false` = bytecode.
        let mut stack: Vec<bool> = vec![true];
        let mut last_cycles: Option<u64> = None;
        let mut bank = |stack: &[bool], from: Option<u64>, to: u64| {
            let Some(from) = from else { return };
            let span = to.saturating_sub(from);
            if span == 0 {
                return;
            }
            let mut key = root.clone();
            for &native in stack {
                key.push(';');
                key.push_str(if native { "native" } else { "bytecode" });
            }
            *weights.entry(key).or_insert(0) += span;
        };
        for event in &thread.events {
            bank(&stack, last_cycles, event.cycles);
            last_cycles = Some(event.cycles);
            match event.kind {
                TraceEventKind::J2nBegin => stack.push(true),
                TraceEventKind::N2jBegin => stack.push(false),
                TraceEventKind::J2nEnd | TraceEventKind::N2jEnd => {
                    // Never pop the root frame: a truncated (saturated)
                    // trace can present unbalanced ends.
                    if stack.len() > 1 {
                        stack.pop();
                    }
                }
                // Instants (no duration, no frame change): the compilation
                // pipeline, thread lifecycle, and the agents' point events.
                TraceEventKind::ThreadStart
                | TraceEventKind::ThreadEnd
                | TraceEventKind::AllocSite
                | TraceEventKind::MonitorContend
                | TraceEventKind::TierUpC1
                | TraceEventKind::TierUpC2
                | TraceEventKind::Osr
                | TraceEventKind::Deopt => {}
            }
        }
    }
    let mut out = String::new();
    for (stack, cycles) in weights {
        let _ = writeln!(out, "{stack} {cycles}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;
    use jvmsim_vm::{ThreadId, TraceSink};

    #[test]
    fn alternating_spans_weighted_by_cycles() {
        let r = TraceRecorder::new(16);
        let t = ThreadId::from_index(0);
        // native 0..100, bytecode 100..400, nested native 400..450,
        // bytecode 450..500, back to native 500..560.
        r.record(t, TraceEventKind::ThreadStart, 0, None);
        r.record(t, TraceEventKind::N2jBegin, 100, None);
        r.record(t, TraceEventKind::J2nBegin, 400, None);
        r.record(t, TraceEventKind::J2nEnd, 450, None);
        r.record(t, TraceEventKind::N2jEnd, 500, None);
        r.record(t, TraceEventKind::ThreadEnd, 560, None);
        let out = collapsed_stacks(&r.snapshot());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec![
                // 0..100 plus 500..560 in the root native frame.
                "thread#0;native 160",
                // 100..400 and 450..500 in bytecode.
                "thread#0;native;bytecode 350",
                "thread#0;native;bytecode;native 50",
            ]
        );
    }

    #[test]
    fn unbalanced_ends_never_pop_the_root() {
        let r = TraceRecorder::new(16);
        let t = ThreadId::from_index(0);
        r.record(t, TraceEventKind::ThreadStart, 0, None);
        r.record(t, TraceEventKind::J2nEnd, 10, None);
        r.record(t, TraceEventKind::N2jEnd, 20, None);
        r.record(t, TraceEventKind::ThreadEnd, 50, None);
        let out = collapsed_stacks(&r.snapshot());
        assert_eq!(out, "thread#0;native 50\n");
    }

    #[test]
    fn clock_step_back_anomalies_never_underflow_weights() {
        // A fault-injected clock step-back can present a non-monotonic
        // cycle stream; spans moving backwards must weigh zero, not wrap.
        let r = TraceRecorder::new(16);
        let t = ThreadId::from_index(0);
        r.record(t, TraceEventKind::ThreadStart, 0, None);
        r.record(t, TraceEventKind::N2jBegin, 500, None);
        r.record(t, TraceEventKind::N2jEnd, 300, None); // stepped back
        r.record(t, TraceEventKind::ThreadEnd, 400, None);
        let out = collapsed_stacks(&r.snapshot());
        assert_eq!(out, "thread#0;native 600\n");
    }

    #[test]
    fn threads_keep_separate_roots() {
        let r = TraceRecorder::new(16);
        for i in 0..2usize {
            let t = ThreadId::from_index(i);
            r.record(t, TraceEventKind::ThreadStart, 0, None);
            r.record(t, TraceEventKind::ThreadEnd, 10 + i as u64, None);
        }
        let out = collapsed_stacks(&r.snapshot());
        assert!(out.contains("thread#0;native 10"));
        assert!(out.contains("thread#1;native 11"));
    }
}
