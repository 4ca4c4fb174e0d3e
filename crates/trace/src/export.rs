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

use std::io::Write;

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
