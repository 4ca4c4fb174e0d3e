//! Record a transition trace for one workload and export all three
//! artifact formats.
//!
//! ```text
//! cargo run --example trace_export [WORKLOAD] [SIZE]
//! ```
//!
//! Writes `trace.json` (open in Perfetto / `chrome://tracing`),
//! `trace.folded` (pipe to `flamegraph.pl`), and `events.csv` into the
//! current directory, then prints the per-kind event counts next to the
//! IPA profile aggregates they must match.

use std::sync::Arc;

use jnativeprof::harness::AgentChoice;
use jnativeprof::session::Session;
use jvmsim_trace::{export, TraceRecorder};
use jvmsim_vm::{TraceEventKind, TraceSink};
use workloads::{by_name, ProblemSize};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "compress".into());
    let size = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .map(ProblemSize)
        .unwrap_or(ProblemSize::S10);
    let workload = by_name(&name).unwrap_or_else(|| panic!("unknown workload {name}"));

    let recorder = TraceRecorder::new(1 << 20);
    let run = Session::new(workload.as_ref(), size)
        .agent(AgentChoice::ipa())
        .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .run()
        .expect("traced run");
    let profile = run.profile.as_ref().expect("IPA attached");
    let snapshot = recorder.snapshot();

    // One pass over the exporter registry writes every artifact format.
    for exporter in export::registry(run.pcl.clock_hz()) {
        let path = match exporter.name() {
            "chrome" => "trace.json".to_owned(),
            "events-csv" => "events.csv".to_owned(),
            _ => format!("trace.{}", exporter.extension()),
        };
        let mut out = Vec::new();
        exporter.export(&snapshot, &mut out).expect("render");
        std::fs::write(&path, &out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }

    println!(
        "{name} at size {}: {:.4} virtual seconds",
        size.0, run.seconds
    );
    println!(
        "  events: {} recorded, {} dropped",
        snapshot.recorded(),
        snapshot.dropped()
    );
    println!(
        "  J2N transitions: {} (profile native method calls: {})",
        snapshot.count(TraceEventKind::J2nBegin),
        profile.native_method_calls
    );
    println!(
        "  N2J transitions: {} (profile JNI calls: {})",
        snapshot.count(TraceEventKind::N2jBegin),
        profile.jni_calls
    );
    println!(
        "  C1 promotions: {}, threads: {}",
        snapshot.count(TraceEventKind::TierUpC1),
        snapshot.count(TraceEventKind::ThreadStart)
    );
    println!("wrote trace.json, trace.folded, events.csv");
}
