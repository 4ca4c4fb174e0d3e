//! `jprof` — the profiling suite driver and trace exporter.
//!
//! ```text
//! jprof trace --workload compress --agent ipa --out trace.json
//!             [--size N] [--capacity N] [--flame out.folded]
//!             [--events-csv events.csv] [--cache-dir DIR] [--no-cache 1]
//! jprof suite [--jobs N] [--size N] [--agents a,b,...] [--tiers MODE]
//!             [--out-dir DIR] [--json] [--metrics PATH] [--cache-dir DIR]
//!             [--no-cache 1]
//! jprof chaos [--seeds N] [--jobs N] [--size N] [--tiers MODE]
//!             [--metrics PATH] [--cache-dir DIR] [--no-cache 1]
//! jprof report [--jobs N] [--size N] [--format table|prom|json]
//!              [--out FILE]
//! jprof serve [--addr HOST:PORT] [--jobs N] [--queue N] [--deadline-ms N]
//!             [--idle-ms N] [--metrics PATH] [--cache-dir DIR]
//!             [--no-cache 1] [--spans 1] [--span-seed S] [--span-capacity N]
//! jprof client [--addr HOST:PORT] [--connections N] [--requests M]
//!              [--seed S] [--size N] [--rows DIR] [--cache-stats 1]
//!              [--shutdown 1] [--spans-out FILE] [--hold-ms N]
//!              [--run-every N]
//! jprof run --workload NAME [--agent LABEL] [--size N] [--tiers MODE]
//!           [--out FILE] [--cache-dir DIR] [--no-cache 1]
//! jprof cluster [--peers N] [--kill K] [--seed S] [--size N]
//!               [--workloads a,b,...] [--eviction-limit BYTES]
//!               [--fault-ppm N] [--cache-dir DIR] [--rows DIR]
//!               [--spans 1] [--trace FILE]
//! jprof list
//! ```
//!
//! `trace` runs one workload under IPA with a transition recorder
//! attached and exports Chrome `trace_event` JSON (open in Perfetto or
//! `chrome://tracing`), optionally also collapsed flamegraph stacks and a
//! raw event CSV. `suite` runs the full workload × agent matrix on
//! `--jobs` worker threads and writes the Table I / Table II artifacts
//! plus the agent-axis table (ALLOC allocation-site totals, LOCK monitor
//! contention); any job count produces byte-identical artifacts.
//! `--agents a,b,...` restricts the matrix to a subset of the agent axis
//! (`original`, `spa`, `ipa`, `alloc`, `lock`); an unknown name is a
//! usage error (exit 2). `--tiers MODE` on `suite`, `chaos`, and `run`
//! selects the execution-engine scenario axis (`interp-only`, `tiered`,
//! `full`; default `full`) — the tiered pipeline's per-tier cycle
//! attribution lands in the five `*_cycles` columns of the cell row, and
//! an unknown mode is the same typed usage error. `chaos` re-runs the
//! matrix under `--seeds` deterministic fault schedules and fails only if
//! an accounting invariant breaks — injected failures are expected and
//! reported. `report` runs the matrix with per-cell metric registries and
//! renders the internal overhead-attribution dashboard — per-benchmark
//! charged cycles decomposed into workload / IPA-probe / SPA-probe /
//! trace / harness buckets — as a human table, Prometheus text, or JSON
//! (also byte-identical for any `--jobs`). `--metrics PATH` on `suite`
//! and `chaos` writes the same snapshots as `PATH.prom` + `PATH.json`
//! next to the regular artifacts.
//!
//! `serve` runs the profiling-as-a-service daemon: an admission-
//! controlled HTTP front end whose `POST /v1/run` answers the same
//! cell-row bytes the batch driver writes (cache-first when `--cache-dir`
//! is shared with batch runs). `client` is the matching closed-loop
//! deterministic load generator: it opens `--connections` keep-alive
//! connections, every `--run-every`-th of them (default every one)
//! issues `--requests` requests, and all of them stay open until
//! `--hold-ms` has passed since the last one connected — a large fleet
//! with a sparse active subset is the C10k validation mode against the
//! readiness event loop. Its target, held, connect-failure and
//! status-count summary goes to stdout, its p50/p99 wall latency and
//! wall-latency histograms to stderr. `run` executes a single
//! cell and prints that same canonical row — the batch-side anchor the
//! CI serve job `cmp`s served responses against. `serve --spans 1` opens
//! a deterministic root span per request with child spans per lifecycle
//! stage (timed in modeled PCL cycles so the children partition the root
//! exactly) and publishes the ring at `GET /v1/spans` (JSON) and
//! `/v1/spans/bin` (binary); `client --spans-out FILE` scrapes that ring
//! after the load run, and the client's per-stage latency table (built
//! from the `X-Jvmsim-Span` response annotations, deferred-429 waits
//! included) joins the stdout summary. `cluster --spans 1` traces the
//! whole drill — `--trace FILE` additionally exports the stitched fleet
//! trace as Chrome `trace_event` JSON.
//!
//! `cluster` runs the kill/rejoin drill: `--peers` in-process daemons
//! behind a consistent-hash ring serve the workload × agent matrix three
//! times — healthy, with `--kill` seeded member crashes mid-pass, and
//! after the dead members rejoin with wiped stores — asserting every
//! served row is byte-identical to the batch driver's, no row is
//! computed twice while the fleet is healthy, every member's admission
//! ledger balances on every life, and stores stay under
//! `--eviction-limit`. A violated invariant exits `9` (degraded).
//!
//! `--cache-dir DIR` opens a content-addressed cache there: `trace`
//! memoizes static instrumentation, `suite` and `chaos` additionally
//! memoize completed cell rows (and `serve`/`run` both planes), so a warm
//! run is near-instant yet emits byte-identical artifacts (every hit
//! re-verifies the stored digest; poisoned entries are quarantined and
//! recomputed). `--no-cache 1` overrides `--cache-dir`.
//!
//! Artifacts go to stdout (or the requested files); progress and
//! quarantine diagnostics go to stderr, so redirecting stdout always
//! yields a clean artifact. Exit codes are stable per failure class
//! ([`HarnessError::exit_code`]): `0` success, `2` usage, `8` artifact
//! I/O, `9` degraded run (quarantined cells / broken invariants), `11` a
//! `run` whose workload panicked.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use jnativeprof::cell::{self, cell_row_json, CellQuantities};
use jnativeprof::harness::{AgentChoice, HarnessError};
use jnativeprof::session::{Session, SessionSpec};
use jvmsim_cache::CacheStore;
use jvmsim_cluster::{cluster_drill, ClusterDrillConfig};
use jvmsim_metrics::{render_json, render_prometheus, MetricsEntry};
use jvmsim_serve::{chaos_drill, run_client, ClientConfig, ServeConfig, Server, SpanConfig};
use jvmsim_trace::{chrome, csv, flame, TraceRecorder};
use jvmsim_vm::{TiersMode, TraceEventKind, TraceSink};
use nativeprof_bench::{
    agents_artifact, render_agents, render_overhead_attribution, render_table1, render_table2,
    run_chaos, run_suite, table1_artifact, table2_artifact, SuiteConfig,
};
use workloads::{by_name, ProblemSize, AXIS};

const USAGE: &str = "\
usage:
  jprof trace --workload NAME --agent ipa [--size N] [--capacity N]
              [--out trace.json] [--flame out.folded] [--events-csv FILE]
              [--cache-dir DIR] [--no-cache 1]
  jprof suite [--jobs N] [--size N] [--agents a,b,...] [--tiers MODE]
              [--out-dir DIR] [--json] [--metrics PATH] [--cache-dir DIR]
              [--no-cache 1]
  jprof chaos [--seeds N] [--jobs N] [--size N] [--tiers MODE]
              [--metrics PATH] [--cache-dir DIR] [--no-cache 1]
  jprof report [--jobs N] [--size N] [--format table|prom|json] [--out FILE]
  jprof serve [--addr HOST:PORT] [--jobs N] [--queue N] [--deadline-ms N]
              [--idle-ms N] [--metrics PATH] [--cache-dir DIR] [--no-cache 1]
              [--spans 1] [--span-seed S] [--span-capacity N]
  jprof client [--addr HOST:PORT] [--connections N] [--requests M] [--seed S]
               [--size N] [--rows DIR] [--cache-stats 1] [--shutdown 1]
               [--spans-out FILE] [--hold-ms N] [--run-every N]
  jprof run --workload NAME [--agent LABEL] [--size N] [--tiers MODE]
            [--out FILE] [--cache-dir DIR] [--no-cache 1]
  jprof cluster [--peers N] [--kill K] [--seed S] [--size N]
                [--workloads a,b,...] [--eviction-limit BYTES]
                [--fault-ppm N] [--cache-dir DIR] [--rows DIR]
                [--spans 1] [--trace FILE]
  jprof list
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace") => cmd_trace(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(HarnessError::Usage(format!(
            "unknown subcommand {other:?}\n{USAGE}"
        ))),
        None => Err(HarnessError::Usage(format!("no subcommand\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("jprof: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Minimal flag parser: `--key value` pairs only.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Parse a subcommand's flags. `--help` or `-h` in a flag's place
    /// prints the usage to stdout and exits 0 before the subcommand does
    /// anything.
    fn parse(args: &'a [String], allowed: &[&str]) -> Result<Self, HarnessError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            if matches!(key.as_str(), "--help" | "-h") {
                print!("{USAGE}");
                std::process::exit(0);
            }
            if !allowed.contains(&key.as_str()) {
                return Err(HarnessError::Usage(format!(
                    "unknown argument {key:?}\n{USAGE}"
                )));
            }
            let value = it
                .next()
                .ok_or_else(|| HarnessError::Usage(format!("{key} needs a value\n{USAGE}")))?;
            pairs.push((key.as_str(), value.as_str()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, HarnessError> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| HarnessError::Usage(format!("bad value for {key}: {v:?}")))
            })
            .transpose()
    }

    fn truthy(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1"))
    }

    /// Resolve `--tiers` into the execution-engine scenario axis; an
    /// unknown mode exits through the typed usage error (exit code 2)
    /// with the valid set in the message.
    fn tiers(&self) -> Result<TiersMode, HarnessError> {
        self.get("--tiers").map_or(Ok(TiersMode::Full), |v| {
            v.parse()
                .map_err(|e: jvmsim_vm::ParseTiersModeError| HarnessError::Usage(e.to_string()))
        })
    }

    /// Resolve `--cache-dir`/`--no-cache` into an opened store.
    fn cache(&self) -> Result<Option<CacheStore>, HarnessError> {
        if self.truthy("--no-cache") {
            return Ok(None);
        }
        self.get("--cache-dir")
            .map(|dir| {
                CacheStore::open(dir)
                    .map_err(|e| HarnessError::Artifact(format!("opening cache {dir}: {e}")))
            })
            .transpose()
    }
}

/// Stderr one-liner so warm/cold behaviour is visible without `--metrics`.
fn report_cache(store: &CacheStore) {
    let stats = store.stats();
    eprintln!(
        "cache: {} hit(s), {} miss(es), {} store(s), {} quarantined",
        stats.hits, stats.misses, stats.stores, stats.quarantined
    );
}

fn write_file(path: &str, contents: &str) -> Result<(), HarnessError> {
    std::fs::write(path, contents)
        .map_err(|e| HarnessError::Artifact(format!("writing {path}: {e}")))
}

/// Write the metric snapshots as `PATH.prom` + `PATH.json`.
fn write_metrics(path: &str, entries: &[MetricsEntry]) -> Result<(), HarnessError> {
    write_file(&format!("{path}.prom"), &render_prometheus(entries))?;
    write_file(&format!("{path}.json"), &render_json(entries))?;
    eprintln!("wrote metric snapshots to {path}.prom and {path}.json");
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), HarnessError> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--agent",
            "--size",
            "--capacity",
            "--out",
            "--flame",
            "--events-csv",
            "--cache-dir",
            "--no-cache",
        ],
    )?;
    let name = flags
        .get("--workload")
        .ok_or_else(|| HarnessError::Usage(format!("trace needs --workload\n{USAGE}")))?;
    let workload =
        by_name(name).ok_or_else(|| HarnessError::Usage(format!("unknown workload {name:?}")))?;
    match flags.get("--agent").unwrap_or("ipa") {
        "ipa" => {}
        other => {
            return Err(HarnessError::Usage(format!(
                "only --agent ipa records transitions (got {other:?}); \
                 SPA disables the JIT and emits no J2N/N2J probes"
            )))
        }
    }
    let size = ProblemSize(flags.get_parsed("--size")?.unwrap_or(100));
    // One full-size run can exceed the library default; give jprof traces
    // a deep buffer unless told otherwise.
    let capacity: usize = flags.get_parsed("--capacity")?.unwrap_or(1 << 20);
    let cache = flags.cache()?;

    let recorder = TraceRecorder::new(capacity);
    eprintln!("tracing {name} at size {} under IPA …", size.0);
    let mut session = Session::new(workload.as_ref(), size)
        .agent(AgentChoice::ipa())
        .trace(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    if let Some(store) = &cache {
        // Tracing needs the live event stream, so only instrumentation is
        // memoized here — the run itself always executes.
        session = session.cache(store.clone());
    }
    let run = session.run()?;
    let profile = run.profile.as_ref().expect("IPA attached");
    let snapshot = recorder.snapshot();
    if let Some(store) = &cache {
        report_cache(store);
    }

    // The stream and the aggregates are two views of the same probes;
    // refuse to emit an artifact that contradicts the Table II counters.
    let j2n = snapshot.count(TraceEventKind::J2nBegin);
    let n2j = snapshot.count(TraceEventKind::N2jBegin);
    if j2n != profile.native_method_calls || n2j != profile.jni_calls {
        return Err(HarnessError::Degraded(format!(
            "trace/profile mismatch: {j2n} J2N vs {} native method calls, \
             {n2j} N2J vs {} JNI calls",
            profile.native_method_calls, profile.jni_calls
        )));
    }
    eprintln!(
        "  {} events recorded, {} dropped ({} J2N, {} N2J, {:.2}% native)",
        snapshot.recorded(),
        snapshot.dropped(),
        j2n,
        n2j,
        profile.percent_native(),
    );

    // Chrome always — it is the command's main artifact; the flame and
    // event-CSV views only when asked for.
    let chrome_out = flags.get("--out").unwrap_or("trace.json");
    let chrome_json = chrome::chrome_trace_json(&snapshot, run.pcl.clock_hz())
        .map_err(|e| HarnessError::Artifact(format!("exporting {chrome_out}: {e}")))?;
    write_file(chrome_out, &chrome_json)?;
    eprintln!("  wrote {chrome_out}");
    if let Some(path) = flags.get("--flame") {
        write_file(path, &flame::collapsed_stacks(&snapshot))?;
        eprintln!("  wrote {path}");
    }
    if let Some(path) = flags.get("--events-csv") {
        write_file(path, &csv::events_csv(&snapshot))?;
        eprintln!("  wrote {path}");
    }
    Ok(())
}

fn cmd_suite(args: &[String]) -> Result<(), HarnessError> {
    let flags = Flags::parse(
        args,
        &[
            "--jobs",
            "--size",
            "--agents",
            "--tiers",
            "--out-dir",
            "--json",
            "--metrics",
            "--cache-dir",
            "--no-cache",
        ],
    )?;
    let jobs: usize = flags.get_parsed("--jobs")?.unwrap_or(1);
    let size = ProblemSize(flags.get_parsed("--size")?.unwrap_or(100));
    let json = flags.truthy("--json");
    let tiers = flags.tiers()?;
    let cache = flags.cache()?;
    // `--agents` narrows the matrix to a subset of the agent axis; an
    // unknown name exits through the typed usage error (exit code 2) with
    // the full valid set in the message.
    let agents = flags
        .get("--agents")
        .map(|list| {
            list.split(',')
                .map(|name| {
                    name.trim()
                        .parse::<AgentChoice>()
                        .map_err(|e| HarnessError::Usage(e.to_string()))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()?;
    let mut config = SuiteConfig::with_size(size).jobs(jobs).tiers(tiers);
    if let Some(agents) = agents {
        config = config.agents(agents);
    }
    if let Some(store) = &cache {
        config = config.cache(store.clone());
    }
    eprintln!(
        "running the workload × agent matrix at size {} ({}) on {} worker(s) …",
        size.0,
        tiers.label(),
        config.jobs
    );
    let suite = run_suite(config);
    if let Some(store) = &cache {
        report_cache(store);
    }
    print!("{}", render_table1(&suite.table1, suite.jbb));
    println!();
    print!("{}", render_table2(&suite.table2));
    if !suite.agent_rows.is_empty() {
        println!();
        print!("{}", render_agents(&suite.agent_rows));
    }
    for failure in &suite.failures {
        eprintln!("quarantined cell: {failure}");
    }
    if let Some(dir) = flags.get("--out-dir") {
        std::fs::create_dir_all(dir)
            .map_err(|e| HarnessError::Artifact(format!("creating {dir}: {e}")))?;
        let t1 = table1_artifact(&suite.table1, suite.jbb);
        let t2 = table2_artifact(&suite.table2);
        let ag = agents_artifact(&suite.agent_rows);
        write_file(&format!("{dir}/table1.csv"), &t1.to_csv())?;
        write_file(&format!("{dir}/table2.csv"), &t2.to_csv())?;
        write_file(&format!("{dir}/agents.csv"), &ag.to_csv())?;
        if json {
            write_file(&format!("{dir}/table1.json"), &t1.to_json())?;
            write_file(&format!("{dir}/table2.json"), &t2.to_json())?;
            write_file(&format!("{dir}/agents.json"), &ag.to_json())?;
        }
        eprintln!("wrote Table I/II and agent-axis artifacts under {dir}/");
    }
    if let Some(path) = flags.get("--metrics") {
        write_metrics(path, &suite.metrics)?;
    }
    if !suite.failures.is_empty() {
        return Err(HarnessError::Degraded(format!(
            "{} cell(s) quarantined (tables assembled from the rest)",
            suite.failures.len()
        )));
    }
    Ok(())
}

fn cmd_chaos(args: &[String]) -> Result<(), HarnessError> {
    let flags = Flags::parse(
        args,
        &[
            "--seeds",
            "--jobs",
            "--size",
            "--tiers",
            "--metrics",
            "--cache-dir",
            "--no-cache",
        ],
    )?;
    let seeds: u64 = flags.get_parsed("--seeds")?.unwrap_or(8);
    let jobs: usize = flags.get_parsed("--jobs")?.unwrap_or(1);
    let size = ProblemSize(flags.get_parsed("--size")?.unwrap_or(1));
    let tiers = flags.tiers()?;
    let cache = flags.cache()?;
    let mut config = SuiteConfig::with_size(size).jobs(jobs).tiers(tiers);
    if let Some(store) = &cache {
        config = config.cache(store.clone());
    }
    eprintln!(
        "chaos: running the matrix under {seeds} fault schedule(s) at size {} ({}) on {} worker(s) …",
        size.0,
        tiers.label(),
        config.jobs
    );
    let report = run_chaos(config, seeds);
    if let Some(store) = &cache {
        report_cache(store);
    }
    // The summary is a diagnostic, not an artifact: keep stdout clean so
    // `jprof chaos > file` (or piping into a parser) never mixes the
    // quarantine narrative into machine-read output.
    eprint!("{}", report.render());
    if let Some(path) = flags.get("--metrics") {
        write_metrics(path, &report.metrics)?;
    }
    // The serve drill rides along: the transport fault sites
    // (serve-slow-read, serve-conn-drop) fire against a live daemon and
    // the admission ledger must still balance with no request counted
    // twice.
    let drill = chaos_drill(seeds)
        .map_err(|e| HarnessError::Degraded(format!("serve drill setup failed: {e}")))?;
    eprintln!(
        "serve drill: {} request(s) — {} served, {} timed out, {} dropped",
        drill.requests, drill.ok, drill.timeouts, drill.drops
    );
    for (site, consulted, injected) in &drill.sites {
        if *consulted > 0 {
            eprintln!("  {}: {injected}/{consulted} injected", site.name());
        }
    }
    for violation in &drill.violations {
        eprintln!("serve drill violation: {violation}");
    }
    let violations = report.violations.len() + drill.violations.len();
    if report.passed() && drill.is_clean() {
        Ok(())
    } else {
        Err(HarnessError::Degraded(format!(
            "{violations} accounting invariant violation(s) under fault injection"
        )))
    }
}

fn cmd_report(args: &[String]) -> Result<(), HarnessError> {
    let flags = Flags::parse(args, &["--jobs", "--size", "--format", "--out"])?;
    let jobs: usize = flags.get_parsed("--jobs")?.unwrap_or(1);
    let size = ProblemSize(flags.get_parsed("--size")?.unwrap_or(100));
    let format = flags.get("--format").unwrap_or("table");
    let config = SuiteConfig::with_size(size).jobs(jobs);
    eprintln!(
        "report: running the matrix at size {} on {} worker(s) with metric registries …",
        size.0, config.jobs
    );
    let suite = run_suite(config);
    for failure in &suite.failures {
        eprintln!("quarantined cell: {failure}");
    }
    let artifact = match format {
        "table" => render_overhead_attribution(&suite.metrics),
        "prom" => render_prometheus(&suite.metrics),
        "json" => render_json(&suite.metrics),
        other => {
            return Err(HarnessError::Usage(format!(
                "unknown --format {other:?} (table|prom|json)\n{USAGE}"
            )))
        }
    };
    match flags.get("--out") {
        Some(path) => {
            write_file(path, &artifact)?;
            eprintln!("wrote {path}");
        }
        None => print!("{artifact}"),
    }
    if !suite.failures.is_empty() {
        return Err(HarnessError::Degraded(format!(
            "{} cell(s) quarantined (report assembled from the rest)",
            suite.failures.len()
        )));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), HarnessError> {
    let flags = Flags::parse(
        args,
        &[
            "--addr",
            "--jobs",
            "--queue",
            "--deadline-ms",
            "--idle-ms",
            "--metrics",
            "--cache-dir",
            "--no-cache",
            "--spans",
            "--span-seed",
            "--span-capacity",
        ],
    )?;
    let spans = flags.truthy("--spans").then(|| {
        Ok::<SpanConfig, HarnessError>(SpanConfig {
            seed: flags.get_parsed("--span-seed")?.unwrap_or(0),
            capacity: flags.get_parsed("--span-capacity")?.unwrap_or(4096),
            member: 0,
        })
    });
    let config = ServeConfig {
        addr: flags.get("--addr").unwrap_or("127.0.0.1:8126").to_owned(),
        jobs: flags.get_parsed("--jobs")?.unwrap_or(2),
        queue: flags.get_parsed("--queue")?.unwrap_or(16),
        deadline: Duration::from_millis(flags.get_parsed("--deadline-ms")?.unwrap_or(30_000)),
        idle: flags.get_parsed("--idle-ms")?.map(Duration::from_millis),
        cache: flags.cache()?,
        faults: jvmsim_faults::FaultPlan::new(0),
        peers: None,
        spans: spans.transpose()?,
    };
    let metrics_path = flags.get("--metrics");
    let addr = config.addr.clone();
    let server = Server::start(config)
        .map_err(|e| HarnessError::Bind(format!("cannot bind {addr}: {e}")))?;
    eprintln!(
        "serving on {} (POST /v1/run, GET /v1/metrics, GET /v1/cache/stats, \
         GET /v1/spans, GET /healthz; POST /v1/shutdown to drain)",
        server.local_addr()
    );
    // Block until a drain is requested over HTTP, then finish in-flight
    // work and flush the final counters.
    let entries = server.wait();
    eprintln!("drained; final serve counters:");
    eprint!("{}", render_prometheus(&entries[..1]));
    if let Some(path) = metrics_path {
        write_metrics(path, &entries)?;
    }
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), HarnessError> {
    let flags = Flags::parse(
        args,
        &[
            "--addr",
            "--connections",
            "--requests",
            "--seed",
            "--size",
            "--rows",
            "--cache-stats",
            "--shutdown",
            "--spans-out",
            "--hold-ms",
            "--run-every",
        ],
    )?;
    let config = ClientConfig {
        addr: flags.get("--addr").unwrap_or("127.0.0.1:8126").to_owned(),
        connections: flags.get_parsed("--connections")?.unwrap_or(2),
        requests: flags.get_parsed("--requests")?.unwrap_or(8),
        seed: flags.get_parsed("--seed")?.unwrap_or(0),
        size: flags.get_parsed("--size")?.unwrap_or(1),
        run_every: flags.get_parsed("--run-every")?.unwrap_or(1),
        hold: Duration::from_millis(flags.get_parsed("--hold-ms")?.unwrap_or(0)),
        rows_dir: flags.get("--rows").map(std::path::PathBuf::from),
        fetch_cache_stats: flags.truthy("--cache-stats"),
        spans_out: flags.get("--spans-out").map(std::path::PathBuf::from),
        send_shutdown: flags.truthy("--shutdown"),
    };
    let report =
        run_client(&config).map_err(|e| HarnessError::Artifact(format!("load run: {e}")))?;
    // Deterministic summary on stdout; wall-clock histograms on stderr so
    // redirected output stays reproducible. The stage table renders only
    // when the daemon traced (its cycles are modeled, not wall-clock).
    print!("{}", report.render_summary());
    print!("{}", report.render_stages());
    eprint!("{}", report.render_latency());
    if let Some(stats) = &report.cache_stats {
        println!("cache-stats {stats}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), HarnessError> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--agent",
            "--size",
            "--tiers",
            "--out",
            "--cache-dir",
            "--no-cache",
        ],
    )?;
    let name = flags
        .get("--workload")
        .ok_or_else(|| HarnessError::Usage(format!("run needs --workload\n{USAGE}")))?;
    let spec = SessionSpec::parse(
        name,
        flags.get("--agent").unwrap_or("original"),
        flags.get_parsed("--size")?.unwrap_or(1),
        flags.get("--tiers").unwrap_or("full"),
    )?;
    let cache = flags.cache()?;
    // Cache-first through the same protocol the daemon and the suite
    // driver use, so all three producers agree byte-for-byte on the row.
    let key = match &cache {
        Some(_) => spec.with_session(|s| cell::result_key(&s))?,
        None => None,
    };
    let cell = 'cell: {
        if let (Some(store), Some(key)) = (&cache, &key) {
            if let Some((cell, _sites)) = cell::lookup(store, key).entry {
                break 'cell cell;
            }
        }
        let run = spec.with_session(|mut session| {
            if let Some(store) = &cache {
                session = session.cache(store.clone());
            }
            cell::run(session)
        })??;
        let cell = CellQuantities::from_run(&run);
        if let (Some(store), Some(key)) = (&cache, &key) {
            cell::store(store, key, &cell, &[]);
        }
        cell
    };
    let row = cell_row_json(&spec.workload, spec.agent.label(), spec.size.0, &cell);
    if let Some(store) = &cache {
        report_cache(store);
    }
    match flags.get("--out") {
        Some(path) => write_file(path, &row)?,
        None => print!("{row}"),
    }
    Ok(())
}

fn cmd_cluster(args: &[String]) -> Result<(), HarnessError> {
    let flags = Flags::parse(
        args,
        &[
            "--peers",
            "--kill",
            "--seed",
            "--size",
            "--workloads",
            "--eviction-limit",
            "--fault-ppm",
            "--cache-dir",
            "--rows",
            "--spans",
            "--trace",
        ],
    )?;
    let defaults = ClusterDrillConfig::default();
    let config = ClusterDrillConfig {
        peers: flags.get_parsed("--peers")?.unwrap_or(3),
        kill: flags.get_parsed("--kill")?.unwrap_or(1),
        seed: flags.get_parsed("--seed")?.unwrap_or(0),
        size: flags.get_parsed("--size")?.unwrap_or(1),
        // Validate every requested workload up front: a typo must exit
        // as a usage error before any daemon binds, not surface later as
        // a per-cell "unknown workload" harness failure deep in a pass.
        workloads: flags
            .get("--workloads")
            .map(|list| {
                list.split(',')
                    .map(|name| {
                        let name = name.trim();
                        if name != "jbb" && by_name(name).is_none() {
                            return Err(HarnessError::Usage(format!(
                                "unknown workload {name:?} in --workloads \
                                 (see `jprof list` for the valid set)"
                            )));
                        }
                        Ok(name.to_owned())
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?,
        eviction_limit: flags
            .get_parsed("--eviction-limit")?
            .unwrap_or(defaults.eviction_limit),
        cache_root: flags.get("--cache-dir").map(Into::into),
        rows_dir: flags.get("--rows").map(Into::into),
        peer_fault_ppm: flags
            .get_parsed("--fault-ppm")?
            .unwrap_or(defaults.peer_fault_ppm),
        spans: flags.truthy("--spans") || flags.get("--trace").is_some(),
        trace_out: flags.get("--trace").map(Into::into),
    };
    eprintln!(
        "cluster: {} peer(s), killing {} mid-pass, seed {}, size {} …",
        config.peers, config.kill, config.seed, config.size
    );
    let report = cluster_drill(&config)
        .map_err(|e| HarnessError::Degraded(format!("cluster drill setup failed: {e}")))?;
    // The summary is a diagnostic like the chaos narrative: peer-fetch
    // retry counts and failover timing depend on when the health sweep
    // catches a corpse, so the counts are not byte-stable — keep them off
    // stdout.
    eprint!("{}", report.render_summary());
    if report.is_clean() {
        Ok(())
    } else {
        Err(HarnessError::Degraded(format!(
            "{} cluster invariant violation(s)",
            report.violations.len()
        )))
    }
}

fn cmd_list(args: &[String]) -> Result<(), HarnessError> {
    Flags::parse(args, &[])?;
    for name in AXIS {
        println!("{name}");
    }
    Ok(())
}
