//! Per-layer host-time ledger for traced runs.
//!
//! Every span is taken here, in the benchmark, around one public call
//! into a layer of the stack; nothing inside the program is instrumented.
//! The op layers are disjoint and run back to back, so within one
//! operation their sum plus the unattributed remainder is the
//! operation's wall time. `ClassfileDecode` is the exception: it is a
//! probe run beside the operation (the VM decodes lazily, inside
//! `Interpret`), and its time is kept out of the operation's wall.

use std::time::Instant;

/// One layer of the stack, named after the public call the span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SessionSpec::parse` (batch) or HTTP framing + `ApiRequest::parse`
    /// (served).
    RequestParse,
    /// `Session::result_key`: program build, archive encode, SHA-256.
    ResultKey,
    /// `CacheStore::lookup` on either plane, digest verification included.
    CacheRead,
    /// `Workload::program`: assembling the workload's classes.
    Program,
    /// Encoding the boot library and the program into one archive.
    Archive,
    /// `IpaAgent::instrument_archive`: the native-wrapper transform.
    Instrument,
    /// `Vm::new` through agent attach and native-library registration.
    VmSetup,
    /// `Vm::run`: class loading, method preparation, interpretation.
    Interpret,
    /// The attached agent's `report()`.
    AgentReport,
    /// `MetricsRegistry::snapshot` of the cell's registry.
    Metrics,
    /// Cell entry decode/encode and `cell_row_json`.
    RowEncode,
    /// `CacheStore::store` on either plane.
    CacheWrite,
    /// Probe: `codec::decode` + `validate_class` over the cell's archive.
    ClassfileDecode,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::RequestParse,
        Layer::ResultKey,
        Layer::CacheRead,
        Layer::Program,
        Layer::Archive,
        Layer::Instrument,
        Layer::VmSetup,
        Layer::Interpret,
        Layer::AgentReport,
        Layer::Metrics,
        Layer::RowEncode,
        Layer::CacheWrite,
        Layer::ClassfileDecode,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::RequestParse => "request_parse",
            Layer::ResultKey => "result_key",
            Layer::CacheRead => "cache_read",
            Layer::Program => "program",
            Layer::Archive => "archive",
            Layer::Instrument => "instrument",
            Layer::VmSetup => "vm_setup",
            Layer::Interpret => "interpret",
            Layer::AgentReport => "agent_report",
            Layer::Metrics => "metrics",
            Layer::RowEncode => "row_encode",
            Layer::CacheWrite => "cache_write",
            Layer::ClassfileDecode => "classfile_decode",
        }
    }
}

/// A point in a [`Ledger`]'s history.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    layered: f64,
    probe: f64,
}

/// Accumulated span time and call count per layer, plus the operations'
/// unattributed remainder and the simulated instructions interpreted.
#[derive(Debug, Default)]
pub struct Ledger {
    nanos: [f64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    unattributed_nanos: f64,
    ops: u64,
    /// Simulated bytecode instructions executed inside `Interpret` spans.
    pub insns: u64,
}

impl Ledger {
    /// Run `f` inside a span charged to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos[layer as usize] += elapsed_nanos(start) as f64;
        self.calls[layer as usize] += 1;
        out
    }

    /// Where the ledger stands now; pass it to [`Ledger::close_op`].
    pub fn mark(&self) -> Mark {
        Mark {
            layered: self.op_layer_nanos(),
            probe: self.nanos[Layer::ClassfileDecode as usize],
        }
    }

    /// Close one operation of `wall` nanoseconds whose spans
    /// were all taken after `since`. Probe time is not part of the
    /// operation; the rest of the wall time that no layer span covers is
    /// unattributed.
    pub fn close_op(&mut self, wall: f64, since: Mark) {
        let probe = self.nanos[Layer::ClassfileDecode as usize] - since.probe;
        let layered = self.op_layer_nanos() - since.layered;
        self.ops += 1;
        self.unattributed_nanos += wall - probe - layered;
    }

    fn op_layer_nanos(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|&&l| l != Layer::ClassfileDecode)
            .map(|&l| self.nanos[l as usize])
            .sum()
    }

    /// `(metric name, value, unit)` for every per-layer metric: mean
    /// microseconds per call of each layer, the mean unattributed
    /// microseconds per operation, and the interpreter's simulated
    /// instruction rate in host time.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut out: Vec<(String, f64, &'static str)> = Layer::ALL
            .iter()
            .map(|&l| {
                let i = l as usize;
                let mean = self.nanos[i] / self.calls[i].max(1) as f64 / 1e3;
                (format!("{}_us", l.name()), mean, "us")
            })
            .collect();
        out.push((
            "unattributed_us".to_owned(),
            self.unattributed_nanos / self.ops.max(1) as f64 / 1e3,
            "us",
        ));
        let interpret_s = self.nanos[Layer::Interpret as usize] / 1e9;
        out.push((
            "interpret_minsn_per_s".to_owned(),
            if interpret_s > 0.0 {
                self.insns as f64 / interpret_s / 1e6
            } else {
                0.0
            },
            "Minsn/s",
        ));
        out
    }
}

pub fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
