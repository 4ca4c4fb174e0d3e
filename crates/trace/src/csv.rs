//! CSV / JSON table rendering.
//!
//! Two layers: a raw [`events_csv`] dump of a snapshot, and a small
//! generic [`Table`] the suite driver uses to emit the Table I / Table II
//! artifacts. `Table` renders the *same* row data as CSV (RFC 4180
//! quoting) or a JSON array of objects, so the two artifact formats can
//! never disagree.

use std::fmt::Write as _;

use jvmsim_metrics::json_escape;

use crate::{ExportError, TraceSnapshot};

/// Quote a field per RFC 4180 when it contains a delimiter, quote or
/// newline; otherwise pass it through.
pub fn csv_escape(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// A rectangular table with named columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column names.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width. Callers
    /// assembling rows from untrusted or partial data should use
    /// [`Table::try_push_row`] instead.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        self.try_push_row(row)
            .unwrap_or_else(|e| panic!("row width must match header width: {e}"));
    }

    /// Append one row, rejecting width mismatches as a typed error instead
    /// of panicking (the degradation path the suite driver uses when
    /// assembling artifacts from partially failed runs).
    ///
    /// # Errors
    ///
    /// [`ExportError::RaggedRow`] if the row width differs from the header
    /// width; the table is left unchanged.
    pub fn try_push_row<S: Into<String>>(
        &mut self,
        row: impl IntoIterator<Item = S>,
    ) -> Result<(), ExportError> {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        if row.len() != self.headers.len() {
            return Err(ExportError::RaggedRow {
                expected: self.headers.len(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty (no data rows)?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV: header line then one line per row, `\n` terminated.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let line = |fields: &[String]| {
            fields
                .iter()
                .map(|f| csv_escape(f))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(out, "{}", line(&self.headers));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row));
        }
        out
    }

    /// Render as a JSON array of objects keyed by column name. All values
    /// are emitted as JSON strings — consumers parse numbers themselves,
    /// which keeps the rendering bit-identical to the CSV fields.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n  {" } else { ",\n  {" });
            for (j, (h, v)) in self.headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(h), json_escape(v));
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

/// Dump every recorded event as CSV:
/// `thread,kind,cycles,method_class,method_index` (method columns empty
/// for non-compile events), ordered by thread then emission order.
pub fn events_csv(snapshot: &TraceSnapshot) -> String {
    let mut table = Table::new(["thread", "kind", "cycles", "method_class", "method_index"]);
    for thread in &snapshot.threads {
        for event in &thread.events {
            let (mc, mi) = match event.method {
                Some(m) => (m.class.index().to_string(), m.index.to_string()),
                None => (String::new(), String::new()),
            };
            table.push_row([
                event.thread.to_string(),
                event.kind.name().to_owned(),
                event.cycles.to_string(),
                mc,
                mi,
            ]);
        }
    }
    // The exporter must agree with the snapshot's own ledger — the row
    // count is exactly [`TraceSnapshot::recorded`], and the accessors keep
    // the saturation identity. A divergence would mean a silently wrong
    // artifact, so it fails loudly rather than shipping.
    assert_eq!(
        table.len() as u64,
        snapshot.recorded(),
        "event rows must match the snapshot's recorded() total"
    );
    assert_eq!(
        snapshot.recorded() + snapshot.dropped(),
        snapshot.appended(),
        "snapshot ledger out of balance"
    );
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;
    use jvmsim_vm::{ThreadId, TraceEventKind, TraceSink};

    #[test]
    fn escaping_rules() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn table_round_trip() {
        let mut t = Table::new(["name", "value"]);
        t.push_row(["compress", "4.54"]);
        t.push_row(["a,b", "1"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_csv(), "name,value\ncompress,4.54\n\"a,b\",1\n");
        assert_eq!(
            t.to_json(),
            "[\n  {\"name\":\"compress\",\"value\":\"4.54\"},\n  {\"name\":\"a,b\",\"value\":\"1\"}\n]\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn try_push_row_reports_ragged_rows_without_panicking() {
        let mut t = Table::new(["a", "b"]);
        assert_eq!(
            t.try_push_row(["only-one"]),
            Err(ExportError::RaggedRow {
                expected: 2,
                got: 1
            })
        );
        assert!(t.is_empty(), "failed push must leave the table unchanged");
        assert_eq!(t.try_push_row(["x", "y"]), Ok(()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn events_csv_includes_method_columns() {
        let r = TraceRecorder::new(8);
        let t = ThreadId::from_index(0);
        r.record(t, TraceEventKind::ThreadStart, 0, None);
        r.record(t, TraceEventKind::J2nBegin, 7, None);
        let csv = events_csv(&r.snapshot());
        assert!(csv.starts_with("thread,kind,cycles,method_class,method_index\n"));
        assert!(csv.contains("0,thread_start,0,,\n"));
        assert!(csv.contains("0,j2n_begin,7,,\n"));
    }
}
