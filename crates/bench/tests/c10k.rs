//! The C10k acceptance drill, driven through the real binaries: a
//! `jprof serve` daemon and a `jprof client` generator (a held fleet
//! with a sparse active subset) run as two subprocesses (each holds its
//! own ~10k socket fds; the test process stays tiny), and the test then
//! audits the daemon from the outside —
//!
//! * the client **held** the full connection target with zero
//!   connect failures and zero transport errors;
//! * the daemon's open-connection high-water mark saw the whole fleet;
//! * the admission ledger balances: `accepted == served + shed +
//!   timeout + dropped + errors`;
//! * every row the active connections saved is byte-identical to the
//!   batch driver's `jprof run` row for the same identity;
//! * the span ring has zero partition violations under C10k load.
//!
//! `JVMSIM_C10K_CONNS` overrides the 10 000-connection default (CI can
//! scale it to the runner's fd budget).

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use jvmsim_cache::hex_decode;
use jvmsim_serve::client::{connect_with_retry, http_request};
use jvmsim_spans::{decode_spans, partition_violations};

const JPROF: &str = env!("CARGO_BIN_EXE_jprof");

fn conns() -> usize {
    std::env::var("JVMSIM_C10K_CONNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000)
}

/// Kill the daemon even when an assertion unwinds mid-test.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `jprof` through `sh` so the soft fd limit is raised to the hard
/// cap first — 10k sockets do not fit under the conservative 1024
/// default some harness shells start with.
fn spawn_jprof(args: &[&str]) -> Child {
    Command::new("sh")
        .arg("-c")
        .arg("ulimit -n \"$(ulimit -Hn)\" 2>/dev/null; exec \"$@\"")
        .arg("jprof-c10k")
        .arg(JPROF)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn jprof")
}

/// One counter/gauge value for the daemon-level (`benchmark="serve"`)
/// entry out of a Prometheus scrape.
fn metric(prom: &str, prefix: &str) -> u64 {
    prom.lines()
        .find(|l| l.starts_with(prefix) && l.contains("benchmark=\"serve\""))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {prefix} missing from scrape"))
}

fn scrape(addr: &str, path: &str) -> String {
    let mut stream = connect_with_retry(addr, Duration::from_secs(10)).expect("connect for scrape");
    let (status, body) = http_request(&mut stream, "GET", path, None).expect("scrape");
    assert_eq!(status, 200, "GET {path}: {body}");
    body
}

#[test]
fn ten_thousand_held_connections_with_balanced_ledger_and_batch_identical_rows() {
    let conns = conns();
    let rows_dir = std::env::temp_dir().join(format!("jvmsim-c10k-rows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&rows_dir);

    let mut server = KillOnDrop(spawn_jprof(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--jobs",
        "4",
        "--queue",
        "64",
        "--idle-ms",
        "120000",
        "--spans",
        "1",
        "--span-capacity",
        "8192",
    ]));

    // The daemon announces its bound address on stderr; keep draining the
    // pipe afterwards so the drain-time counter dump can never block it.
    let stderr = server.0.stderr.take().expect("stderr piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if let Some(rest) = line.strip_prefix("serving on ") {
                let _ = tx.send(
                    rest.split_whitespace()
                        .next()
                        .unwrap_or_default()
                        .to_owned(),
                );
            }
            line.clear();
        }
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("daemon must announce its address");

    let conns_flag = conns.to_string();
    let client = spawn_jprof(&[
        "client",
        "--addr",
        &addr,
        "--connections",
        &conns_flag,
        "--hold-ms",
        "1500",
        "--run-every",
        "500",
        "--requests",
        "2",
        "--seed",
        "7",
        "--rows",
        rows_dir.to_str().expect("utf8 tmp path"),
    ]);
    let output = client.wait_with_output().expect("client run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "client failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.lines().any(|l| l == format!("client held {conns}")),
        "client did not hold {conns} connections: {stdout}"
    );
    assert!(
        stdout.lines().any(|l| l == "client connect_failures 0"),
        "{stdout}"
    );
    assert!(stdout.contains("client transport_errors 0"), "{stdout}");

    // Audit the daemon. The scrape renders its snapshot before this
    // request is booked, and every client request resolved before the
    // client exited, so the ledger must balance exactly.
    let prom = scrape(&addr, "/v1/metrics");
    let ledger = |name: &str| metric(&prom, &format!("jvmsim_serve_{name}_total{{"));
    let accepted = ledger("accepted");
    let resolved = ledger("served")
        + ledger("shed")
        + ledger("timeout")
        + ledger("dropped")
        + ledger("errors");
    assert_eq!(
        accepted, resolved,
        "admission ledger imbalance under C10k load"
    );
    assert!(ledger("served") > 0, "the active subset must be served");
    let highwater = metric(&prom, "jvmsim_serve_open_conns_highwater{");
    assert!(
        highwater >= conns as u64,
        "open-conns high-water {highwater} never saw the {conns}-connection fleet"
    );

    // Zero span partition violations while the fleet was held.
    let spans_hex = scrape(&addr, "/v1/spans/bin");
    let records = hex_decode(spans_hex.trim())
        .and_then(|bytes| decode_spans(&bytes))
        .expect("span ring must decode");
    let violations = partition_violations(&records);
    assert!(
        violations.is_empty(),
        "partition violations: {violations:#?}"
    );

    // Every saved row equals the batch driver's row for that identity.
    let mut rows = 0usize;
    for entry in std::fs::read_dir(&rows_dir).expect("rows dir") {
        let path = entry.expect("dir entry").path();
        let base = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("row file name");
        let parts: Vec<&str> = base.split('-').collect();
        assert_eq!(parts.len(), 4, "unexpected row file {base}");
        let batch_path = std::env::temp_dir().join(format!("jvmsim-c10k-batch-{base}.json"));
        let status = Command::new(JPROF)
            .args([
                "run",
                "--workload",
                parts[1],
                "--agent",
                parts[2],
                "--size",
                parts[3],
                "--out",
                batch_path.to_str().expect("utf8 tmp path"),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("jprof run");
        assert!(status.success(), "jprof run failed for {base}");
        let served = std::fs::read(&path).expect("served row");
        let batch = std::fs::read(&batch_path).expect("batch row");
        assert_eq!(served, batch, "row {base} differs from the batch driver");
        let _ = std::fs::remove_file(batch_path);
        rows += 1;
    }
    assert!(rows > 0, "the active subset must have saved rows");

    // Drain gracefully and confirm the daemon exits clean.
    let mut stream = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
    let (status, _) = http_request(&mut stream, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    let exit = server.0.wait().expect("daemon exit");
    assert!(exit.success(), "daemon exited dirty: {exit:?}");

    let _ = std::fs::remove_dir_all(&rows_dir);
}
