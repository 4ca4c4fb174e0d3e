//! `serve-warm`: closed-loop warm hits against an in-process daemon.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use jnativeprof::cell::{cell_row_json, decode_cell_entry};
use jvmsim_cache::{CacheStore, Plane};
use jvmsim_serve::client::{connect_with_retry, http_request};
use jvmsim_serve::http::RequestParser;
use jvmsim_serve::{ApiRequest, RunSpec, ServeConfig, Server};

use crate::cells::{self, Cell, Checker};
use crate::ledger::{elapsed_nanos, Layer, Ledger};
use crate::{cross_check, deliver_timed, shuffled, Args, Outcome, Timings, WorkDir, SETUP_REPS};

/// The size every request names; the daemon's cache holds this matrix.
const SIZE: u32 = 1;

/// A daemon, a client connection to it, and the store it serves from.
struct Live {
    server: Server,
    stream: TcpStream,
    store: CacheStore,
    name: String,
}

impl Live {
    fn stop(self, work: &WorkDir) {
        drop(self.stream);
        self.server.shutdown();
        work.remove(&self.name);
    }
}

/// Set-up: fill an empty store with the size-1 matrix through the batch
/// path, start a daemon on it, and connect.
fn set_up(
    rep: usize,
    cells: &[Cell],
    work: &WorkDir,
    mut ledger: Option<&mut Ledger>,
    checker: &mut Checker,
) -> Result<Live, String> {
    let name = format!("serve-{rep}");
    let store = work.store(&name)?;
    for cell in cells {
        deliver_timed(cell, &store, ledger.as_deref_mut(), checker);
    }
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        cache: Some(store.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    let stream = connect_with_retry(&server.local_addr().to_string(), Duration::from_secs(10))?;
    Ok(Live {
        server,
        stream,
        store,
        name,
    })
}

/// The request bytes `http_request` writes for a `POST /v1/run` of `body`.
fn wire(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/run HTTP/1.1\r\nHost: jvmsim\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The daemon's warm-hit path for `request`, replayed in-process with one
/// span per public call: framing and API parse, result key, store lookup,
/// row rendering.
fn replay(request: &[u8], store: &CacheStore, ledger: &mut Ledger) -> Result<String, String> {
    let spec = ledger.time(Layer::RequestParse, || {
        let mut parser = RequestParser::new();
        parser.push(request);
        let request = parser
            .try_next()
            .map_err(|e| format!("framing: {e:?}"))?
            .ok_or("incomplete request")?;
        match ApiRequest::parse(&request) {
            Ok(ApiRequest::Run(spec)) => Ok(spec),
            _ => Err("not a run request".to_owned()),
        }
    })?;
    let key = ledger
        .time(Layer::ResultKey, || spec.with_session(|s| s.result_key()))
        .map_err(|e| e.to_string())?;
    let bytes = ledger
        .time(Layer::CacheRead, || store.lookup(Plane::CellResult, &key))
        .ok_or("replayed lookup missed")?;
    ledger
        .time(Layer::RowEncode, || {
            decode_cell_entry(&bytes).map(|(cell, _)| {
                cell_row_json(&spec.workload, spec.agent.label(), spec.size.0, &cell)
            })
        })
        .ok_or_else(|| "stored entry does not decode".to_owned())
}

/// Whole passes of 40 requests, each pass naming every cell once in seeded
/// order, until `--seconds` have elapsed. One op is one request; a request
/// passes only if its body is byte-identical to the batch row.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let cells = cells::matrix(SIZE);
    let mut checker = Checker::default();
    let mut timings = Timings::default();
    let mut ledger = args.trace.then(Ledger::default);
    let mut attempted = 0u64;

    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            Live::stop(previous, work);
        }
        let start = Instant::now();
        live = Some(set_up(rep, &cells, work, ledger.as_mut(), &mut checker)?);
        timings.setups.push(elapsed_nanos(start) as f64);
        attempted += cells.len() as u64;
    }
    let mut live = live.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while timings.passes.is_empty() || Instant::now() < deadline {
        let order = shuffled(&cells, args.seed, timings.passes.len() as u64);
        let mut ops = Vec::with_capacity(order.len());
        for cell in &order {
            let body = RunSpec {
                workload: cell.workload.to_owned(),
                agent: cell.agent.to_owned(),
                size: cell.size,
                tiers: "full".to_owned(),
            }
            .to_json();
            let mark = ledger.as_ref().map(Ledger::mark);
            let sent = Instant::now();
            let response = http_request(&mut live.stream, "POST", "/v1/run", Some(&body));
            let wall = elapsed_nanos(sent) as f64;
            ops.push(wall);
            let mut verdict = match response {
                Ok((200, row)) if Some(row.as_str()) == checker.row(cell) => Ok(()),
                Ok((status, _)) => Err(format!("status {status} or row differs from batch")),
                Err(e) => Err(e),
            };
            if let (Some(ledger), Some(mark)) = (ledger.as_mut(), mark) {
                let replayed = replay(&wire(&body), &live.store, ledger);
                ledger.close_op(wall, mark);
                if verdict.is_ok() && replayed.as_deref().ok() != checker.row(cell) {
                    verdict = Err("replayed row differs from batch".to_owned());
                }
            }
            checker.record(cell, verdict);
        }
        timings.passes.push(ops);
        attempted += order.len() as u64;
    }
    live.stop(work);

    let metrics = match &ledger {
        None => timings.end_to_end(),
        Some(ledger) => {
            attempted += cross_check(&cells, work, &mut checker)?;
            ledger.metrics()
        }
    };
    Ok(Outcome {
        attempted,
        checker,
        metrics,
    })
}
