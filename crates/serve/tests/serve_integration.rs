//! End-to-end tests for the profiling-as-a-service daemon: an ephemeral
//! in-process server driven over real sockets.
//!
//! The properties pinned here:
//!
//! 1. a served `POST /v1/run` body is byte-identical to the batch
//!    driver's cell row (cold *and* warm),
//! 2. a repeated identity is served from the cache, observable in the
//!    `serve_hits` counter and the cache stats endpoint,
//! 3. queue overflow answers `429 Retry-After` and the daemon keeps
//!    serving afterwards (bounded queue, no panic, no pile-up),
//! 4. a graceful drain completes in-flight requests before the last
//!    thread exits,
//! 5. a run that panics answers a typed `500 panicked` envelope and the
//!    daemon keeps serving.

use std::io::{Read, Write};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use jnativeprof::cell::{cell_row_json, CellQuantities};
use jnativeprof::harness::AGENT_AXIS;
use jnativeprof::session::SessionSpec;
use jvmsim_cache::CacheStore;
use jvmsim_metrics::{CounterId, MetricsRegistry};
use jvmsim_serve::client::{connect_with_retry, http_request};
use jvmsim_serve::{AdmissionLedger, RunSpec, ServeConfig, Server};

/// A scratch directory that cleans up after itself.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("jvmsim-serve-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(config: ServeConfig) -> (Server, String) {
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn post_run(addr: &str, spec: &RunSpec) -> (u16, String) {
    let mut stream = connect_with_retry(addr, Duration::from_secs(5)).expect("connect to daemon");
    http_request(&mut stream, "POST", "/v1/run", Some(&spec.to_json())).expect("run request")
}

/// The row the batch driver renders for this identity: the same
/// `SessionSpec` → `CellQuantities` → `cell_row_json` funnel `jprof run`
/// and the suite driver use.
fn batch_row(spec: &RunSpec) -> String {
    let session_spec = spec.to_session_spec().expect("valid spec");
    let run = session_spec.run().expect("clean run");
    cell_row_json(
        &session_spec.workload,
        session_spec.agent.label(),
        session_spec.size.0,
        &CellQuantities::from_run(&run),
    )
}

#[test]
fn served_rows_match_batch_rows_cold_and_warm() {
    let tmp = TempDir::new("rows");
    let (server, addr) = start(ServeConfig {
        cache: Some(CacheStore::open(&tmp.0).expect("open cache")),
        ..ServeConfig::default()
    });
    for spec in [
        RunSpec {
            workload: "compress".to_owned(),
            agent: "ipa".to_owned(),
            size: 1,
            tiers: "full".to_owned(),
        },
        RunSpec {
            workload: "db".to_owned(),
            agent: "original".to_owned(),
            size: 1,
            // Byte-identity must hold on every point of the tier axis,
            // not just the default.
            tiers: "tiered".to_owned(),
        },
        RunSpec {
            workload: "db".to_owned(),
            agent: "original".to_owned(),
            size: 1,
            tiers: "interp-only".to_owned(),
        },
    ] {
        let expected = batch_row(&spec);
        let (cold_status, cold_body) = post_run(&addr, &spec);
        assert_eq!(cold_status, 200, "cold run failed: {cold_body}");
        assert_eq!(
            cold_body, expected,
            "cold served row must be byte-identical to the batch row"
        );
        let (warm_status, warm_body) = post_run(&addr, &spec);
        assert_eq!(warm_status, 200, "warm run failed: {warm_body}");
        assert_eq!(
            warm_body, expected,
            "cache-served row must be byte-identical to the batch row"
        );
    }
    server.shutdown();
}

#[test]
fn warm_requests_hit_the_cache_with_pinned_counters() {
    let tmp = TempDir::new("hits");
    let (server, addr) = start(ServeConfig {
        cache: Some(CacheStore::open(&tmp.0).expect("open cache")),
        ..ServeConfig::default()
    });
    let spec = RunSpec {
        workload: "jess".to_owned(),
        agent: "spa".to_owned(),
        size: 1,
        tiers: "full".to_owned(),
    };
    // Cold miss, then two warm hits: the counters are exact, not >=.
    for _ in 0..3 {
        let (status, body) = post_run(&addr, &spec);
        assert_eq!(status, 200, "{body}");
    }
    let mut stream = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
    let (status, metrics) = http_request(&mut stream, "GET", "/v1/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    for line in [
        "jvmsim_serve_accepted_total{benchmark=\"serve\",agent=\"server\"} 3",
        "jvmsim_serve_served_total{benchmark=\"serve\",agent=\"server\"} 3",
        "jvmsim_serve_hits_total{benchmark=\"serve\",agent=\"server\"} 2",
        "jvmsim_cache_hits_total{benchmark=\"serve\",agent=\"server\"} 2",
    ] {
        assert!(metrics.contains(line), "missing {line:?} in:\n{metrics}");
    }
    let (status, stats) =
        http_request(&mut stream, "GET", "/v1/cache/stats", None).expect("cache stats");
    assert_eq!(status, 200);
    assert!(
        stats.contains("\"enabled\":true") && stats.contains("\"hits\":2"),
        "unexpected cache stats: {stats}"
    );
    // The absorbed per-run metrics saw exactly ONE executed run: the
    // daemon's invocation count equals a single local metered run of the
    // same spec (warm hits never re-execute).
    let registry = MetricsRegistry::new();
    spec.to_session_spec()
        .expect("valid")
        .with_session(|s| s.metrics(registry.clone()).run())
        .expect("resolve")
        .expect("clean run");
    let one_run = registry.snapshot().counter(CounterId::Invocations);
    assert!(one_run > 0, "a run must invoke methods");
    let line = format!("jvmsim_invocations_total{{benchmark=\"runs\",agent=\"all\"}} {one_run}");
    assert!(
        metrics.contains(&line),
        "warm hits must not execute runs (wanted {line:?}):\n{metrics}"
    );
    server.shutdown();
}

/// Send a `crashy` run (its program panics on every build) to a fresh
/// daemon: it must answer a typed `500 panicked` envelope and keep
/// serving — `/healthz` answers `ok` and the next run returns the batch
/// row byte for byte — with the admission ledger balanced and the one
/// error booked.
fn a_panicking_run_leaves_the_daemon_serving(config: ServeConfig) {
    let (server, addr) = start(ServeConfig {
        deadline: Duration::from_secs(20),
        ..config
    });
    let crashy = RunSpec {
        workload: "crashy".to_owned(),
        agent: "original".to_owned(),
        size: 1,
        tiers: "full".to_owned(),
    };
    let (status, body) = post_run(&addr, &crashy);
    assert_eq!(status, 500, "{body}");
    assert!(
        body.starts_with("{\"error\":{\"code\":\"panicked\",\"message\":\"run panicked: "),
        "{body}"
    );
    let mut stream = connect_with_retry(&addr, Duration::from_secs(5)).expect("reconnect");
    let (status, body) = http_request(&mut stream, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let compress = RunSpec {
        workload: "compress".to_owned(),
        agent: "ipa".to_owned(),
        size: 1,
        tiers: "full".to_owned(),
    };
    let (status, body) = post_run(&addr, &compress);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, batch_row(&compress));
    let entries = server.shutdown();
    let serve = &entries[0].snapshot;
    assert_eq!(serve.counter(CounterId::ServeErrors), 1);
    assert!(
        AdmissionLedger::from_entries(&entries).balanced(),
        "admission ledger must balance"
    );
}

#[test]
fn a_panicking_run_answers_500_and_a_cached_daemon_keeps_serving() {
    // The key derivation on the loop thread builds the program first.
    let tmp = TempDir::new("crashy");
    a_panicking_run_leaves_the_daemon_serving(ServeConfig {
        cache: Some(CacheStore::open(&tmp.0).expect("open cache")),
        ..ServeConfig::default()
    });
}

#[test]
fn a_panicking_run_answers_500_and_a_one_worker_daemon_keeps_serving() {
    // Uncached, the panic lands in the only worker.
    a_panicking_run_leaves_the_daemon_serving(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
}

#[test]
fn queue_overflow_sheds_with_429_and_daemon_survives() {
    // One worker, one queue slot: a burst of simultaneous requests can
    // hold at most two in the system; the rest must shed.
    let (server, addr) = start(ServeConfig {
        jobs: 1,
        queue: 1,
        ..ServeConfig::default()
    });
    let burst = 8;
    let barrier = Arc::new(Barrier::new(burst));
    let handles: Vec<_> = (0..burst)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let spec = RunSpec {
                    workload: "javac".to_owned(),
                    agent: "ipa".to_owned(),
                    size: 20,
                    tiers: "full".to_owned(),
                };
                let mut stream =
                    connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
                barrier.wait();
                http_request(&mut stream, "POST", "/v1/run", Some(&spec.to_json()))
                    .expect("burst request")
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut shed = 0u64;
    for handle in handles {
        let (status, body) = handle.join().expect("no panic in burst clients");
        match status {
            200 => ok += 1,
            429 => shed += 1,
            other => panic!("unexpected burst status {other}: {body}"),
        }
    }
    assert!(ok >= 1, "at least the queue-winning requests must run");
    assert!(shed >= 1, "an 8-wide burst into jobs=1/queue=1 must shed");
    // The daemon is still healthy after shedding.
    let mut stream = connect_with_retry(&addr, Duration::from_secs(5)).expect("reconnect");
    let (status, body) = http_request(&mut stream, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let entries = server.shutdown();
    let serve = &entries[0].snapshot;
    assert_eq!(serve.counter(CounterId::ServeShed), shed);
    assert!(
        AdmissionLedger::from_entries(&entries).balanced(),
        "admission ledger must balance"
    );
}

/// A keep-alive connection idle for longer than the request deadline
/// (but within the idle cutoff) still gives its next request the full
/// deadline, counted from that request's first byte: a request torn
/// across two writes 200 ms apart answers 200, not 408.
#[test]
fn a_request_after_a_long_idle_wait_gets_its_full_deadline() {
    let (server, addr) = start(ServeConfig {
        deadline: Duration::from_millis(400),
        idle: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    });
    let mut stream = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
    std::thread::sleep(Duration::from_millis(600));
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("first half");
    std::thread::sleep(Duration::from_millis(200));
    stream
        .write_all(b"Host: jvmsim\r\nContent-Length: 0\r\n\r\n")
        .expect("second half");
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut chunk = [0u8; 512];
    while !response.contains("\r\n\r\n") {
        let n = stream.read(&mut chunk).expect("response");
        assert!(n > 0, "closed before answering: {response:?}");
        response.push_str(&String::from_utf8_lossy(&chunk[..n]));
    }
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    server.shutdown();
}

#[test]
fn graceful_drain_completes_in_flight_requests() {
    let (server, addr) = start(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let in_flight: Vec<_> = ["mtrt", "jack"]
        .into_iter()
        .map(|workload| {
            let addr = addr.clone();
            let spec = RunSpec {
                workload: workload.to_owned(),
                agent: "ipa".to_owned(),
                size: 20,
                tiers: "full".to_owned(),
            };
            std::thread::spawn(move || post_run(&addr, &spec))
        })
        .collect();
    // Let the requests reach the workers, then drain over HTTP like an
    // operator would.
    std::thread::sleep(Duration::from_millis(100));
    let mut stream = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
    let (status, _) = http_request(&mut stream, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    // wait() joins the event loop and the worker pool — it can only
    // return after the in-flight requests finished.
    let entries = server.wait();
    for handle in in_flight {
        let (status, body) = handle.join().expect("in-flight client must not panic");
        assert_eq!(status, 200, "drain must complete in-flight work: {body}");
        assert!(
            body.starts_with("[\n  {\"benchmark\":"),
            "drained request must still carry a full row: {body}"
        );
    }
    let serve = &entries[0].snapshot;
    assert_eq!(
        serve.counter(CounterId::ServeDropped),
        0,
        "drain must not drop in-flight requests"
    );
    // Fresh identities (no cache configured): both runs executed.
    assert!(serve.counter(CounterId::ServeServed) >= 2);
}

#[test]
fn run_spec_equivalence_holds_for_every_agent() {
    // The determinism boundary in one assertion: for each agent, the
    // SessionSpec the daemon executes and the one the batch driver
    // executes share a cell-result identity.
    for agent in AGENT_AXIS {
        let spec = RunSpec {
            workload: "compress".to_owned(),
            agent: agent.to_owned(),
            size: 1,
            tiers: "full".to_owned(),
        };
        let a = spec.to_session_spec().expect("valid");
        let b = SessionSpec::parse("compress", agent, 1, "full").expect("valid");
        let ka = a.with_session(|s| s.result_key()).expect("key");
        let kb = b.with_session(|s| s.result_key()).expect("key");
        assert_eq!(ka, kb);
    }
}
