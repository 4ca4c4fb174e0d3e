//! End-to-end trace pipeline test: harness → VM + IPA probes → recorder →
//! exporters. Pins the acceptance property that the event stream and the
//! `NativeProfile` aggregates agree exactly, and that tracing perturbs
//! nothing.

use std::sync::Arc;

use jnativeprof::harness::AgentChoice;
use jnativeprof::session::{RunOutcome, Session};
use jvmsim_trace::{chrome, csv, flame, TraceRecorder};
use jvmsim_vm::{TraceEventKind, TraceSink};
use workloads::{by_name, ProblemSize};

fn traced_run(name: &str, size: ProblemSize) -> (RunOutcome, jvmsim_trace::TraceSnapshot) {
    let workload = by_name(name).expect("workload exists");
    let recorder = TraceRecorder::new(1 << 20);
    let run = Session::new(workload.as_ref(), size)
        .agent(AgentChoice::ipa())
        .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .run()
        .expect("traced run");
    let snapshot = recorder.snapshot();
    (run, snapshot)
}

#[test]
fn trace_counts_match_the_native_profile_exactly() {
    let (run, snapshot) = traced_run("compress", ProblemSize::S10);
    let profile = run.profile.as_ref().expect("IPA attached");
    // The trace stream and the Table II counters are two views of the
    // same IPA probes — they must agree to the event.
    assert_eq!(
        snapshot.count(TraceEventKind::J2nBegin),
        profile.native_method_calls,
        "J2N events vs native method calls"
    );
    assert_eq!(
        snapshot.count(TraceEventKind::N2jBegin),
        profile.jni_calls,
        "N2J events vs JNI calls"
    );
    // Balanced transitions: every begin has its end.
    assert_eq!(
        snapshot.count(TraceEventKind::J2nBegin),
        snapshot.count(TraceEventKind::J2nEnd)
    );
    assert_eq!(
        snapshot.count(TraceEventKind::N2jBegin),
        snapshot.count(TraceEventKind::N2jEnd)
    );
    // The VM contributes lifecycle events, and at the default thresholds
    // a real workload leaves the interpreter: every first departure from
    // it is a C1 promotion.
    assert!(snapshot.count(TraceEventKind::ThreadStart) >= 1);
    assert_eq!(
        snapshot.count(TraceEventKind::ThreadStart),
        snapshot.count(TraceEventKind::ThreadEnd)
    );
    assert!(snapshot.count(TraceEventKind::TierUpC1) > 0);
    assert_eq!(snapshot.dropped(), 0, "buffer deep enough for this size");
}

#[test]
fn tracing_does_not_perturb_the_measurement() {
    let workload = by_name("db").expect("workload exists");
    let untraced = Session::new(workload.as_ref(), ProblemSize::S10)
        .agent(AgentChoice::ipa())
        .run()
        .expect("untraced run");
    let (traced, _) = traced_run("db", ProblemSize::S10);
    // Virtual time and every profile aggregate are bit-identical: trace
    // emission charges zero cycles by design.
    assert_eq!(untraced.seconds, traced.seconds);
    assert_eq!(untraced.checksum, traced.checksum);
    let (u, t) = (
        untraced.profile.expect("IPA"),
        traced.profile.as_ref().expect("IPA"),
    );
    assert_eq!(u.jni_calls, t.jni_calls);
    assert_eq!(u.native_method_calls, t.native_method_calls);
    assert_eq!(u.percent_native(), t.percent_native());
}

#[test]
fn exporters_reflect_the_run() {
    let (run, snapshot) = traced_run("jess", ProblemSize::S1);
    let profile = run.profile.as_ref().expect("IPA attached");

    let json = chrome::chrome_trace_json(&snapshot, run.pcl.clock_hz()).expect("clock rate");
    assert!(json.contains("\"traceEvents\""));
    // The per-kind counts ride along in otherData and match the profile.
    assert!(json.contains(&format!("\"j2n_begin\":{}", profile.native_method_calls)));
    assert!(json.contains(&format!("\"n2j_begin\":{}", profile.jni_calls)));

    let folded = flame::collapsed_stacks(&snapshot);
    assert!(folded.lines().count() > 0);
    assert!(folded.lines().all(|l| l.rsplit_once(' ').is_some()));

    let events = csv::events_csv(&snapshot);
    let lines = events.lines().count();
    assert_eq!(
        lines as u64,
        snapshot.recorded() + 1,
        "header + one line per event"
    );
}
