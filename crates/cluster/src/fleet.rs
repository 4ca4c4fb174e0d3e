//! The fleet: N in-process `jvmsim-serve` daemons behind one consistent
//! hash ring, with health-check quarantine, kill/rejoin, and per-member
//! admission-ledger accounting that survives member death.
//!
//! Failure detection is deliberately *observational*: killing a member
//! does not touch the routing state — the next health sweep (or a failed
//! request prompting one) discovers the corpse, withdraws it from the
//! peer directory, and quarantines it, exactly as a supervisor that
//! cannot see inside the process would. Routing then fails over along
//! the ring (counted in `cluster_failovers`), and the dead member's keys
//! land on successors whose peer-fetch tier keeps recomputes to the
//! minimum the failure actually forces.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use jvmsim_cache::CacheStore;
use jvmsim_faults::{splitmix64, FaultPlan, FaultSite};
use jvmsim_metrics::{CounterId, MetricsRegistry};
use jvmsim_serve::client::http_request;
use jvmsim_serve::{
    AdmissionLedger, PeerDirectory, PeerView, RetryPolicy, ServeConfig, Server, SpanConfig,
};
use jvmsim_spans::{sort_ordinal, SpanRecord};

use crate::ring::{HashRing, DEFAULT_VNODES};

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Member count (floored at 1).
    pub peers: usize,
    /// Seed for every deterministic decision: member fault plans, retry
    /// jitter, and the drill's kill schedule.
    pub seed: u64,
    /// Root directory; member `i`'s store lives in `<root>/peer-<i>`.
    pub cache_root: PathBuf,
    /// Per-plane store bound handed to every member's cache (bytes).
    pub eviction_limit: u64,
    /// Worker threads per member.
    pub jobs: usize,
    /// Admission queue capacity per member.
    pub queue: usize,
    /// Per-request deadline on every member.
    pub deadline: Duration,
    /// Injection rate (ppm) for the `peer-conn-drop` and
    /// `peer-slow-read` sites on every member — 0 for a quiet fleet.
    pub peer_fault_ppm: u32,
    /// Open a request span plane on every member. Each life gets its own
    /// span seed (mixed from the fleet seed, the slot, and the
    /// generation) so a rejoined member never reissues a dead life's
    /// trace ids.
    pub spans: bool,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            peers: 3,
            seed: 0,
            cache_root: std::env::temp_dir().join("jvmsim-cluster"),
            eviction_limit: 256 * 1024,
            jobs: 2,
            queue: 8,
            deadline: Duration::from_secs(120),
            peer_fault_ppm: 0,
            spans: false,
        }
    }
}

/// Seed-stream salt for per-member span planes.
const SPAN_SEED_SALT: u64 = 0x5BA2_5EED_7ACE_1D5E;

/// One fleet slot across its lives.
struct Member {
    dir: PathBuf,
    server: Option<Server>,
    store: Option<CacheStore>,
    /// Health-sweep verdict; quarantined members are skipped by routing.
    quarantined: bool,
    /// Times this slot has (re)started.
    generation: u32,
    /// Accumulated totals from finished lives.
    retired: AdmissionLedger,
    /// Ledger balance verdict captured at each death.
    death_ledgers_balanced: Vec<bool>,
    /// Spans captured from finished lives (the ring is drained at each
    /// kill, so a death loses accounting for nothing).
    retired_spans: Vec<SpanRecord>,
    /// Span append/drop totals from finished lives.
    retired_spans_appended: u64,
    /// See [`Member::retired_spans_appended`].
    retired_spans_dropped: u64,
}

/// A running fleet.
pub struct Cluster {
    config: ClusterConfig,
    directory: Arc<PeerDirectory>,
    ring: HashRing,
    members: Vec<Member>,
    /// Fleet-level counters (`cluster_failovers`).
    registry: MetricsRegistry,
}

impl Cluster {
    /// Start `config.peers` members, each on an ephemeral port with its
    /// own store under `cache_root`, and publish them all in the shared
    /// peer directory.
    ///
    /// # Errors
    ///
    /// Store-open or bind failures, with the member index named.
    pub fn start(config: ClusterConfig) -> Result<Cluster, String> {
        let peers = config.peers.max(1);
        let directory = Arc::new(PeerDirectory::new(peers));
        let ring = HashRing::new(peers, DEFAULT_VNODES);
        let mut cluster = Cluster {
            members: (0..peers)
                .map(|i| Member {
                    dir: config.cache_root.join(format!("peer-{i}")),
                    server: None,
                    store: None,
                    quarantined: false,
                    generation: 0,
                    retired: AdmissionLedger::default(),
                    death_ledgers_balanced: Vec::new(),
                    retired_spans: Vec::new(),
                    retired_spans_appended: 0,
                    retired_spans_dropped: 0,
                })
                .collect(),
            config,
            directory,
            ring,
            registry: MetricsRegistry::new(),
        };
        for i in 0..peers {
            cluster.start_member(i, false)?;
        }
        Ok(cluster)
    }

    /// Member count (fixed).
    #[must_use]
    pub fn peers(&self) -> usize {
        self.members.len()
    }

    /// The shared membership directory (what every member's peer-fetch
    /// tier consults).
    #[must_use]
    pub fn directory(&self) -> &Arc<PeerDirectory> {
        &self.directory
    }

    /// Published address of member `i`, if any.
    #[must_use]
    pub fn addr_of(&self, i: usize) -> Option<SocketAddr> {
        self.directory.get(i)
    }

    /// How many times member `i` has (re)started.
    #[must_use]
    pub fn generation(&self, i: usize) -> u32 {
        self.members.get(i).map_or(0, |m| m.generation)
    }

    /// Fleet-level failover count.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.registry
            .snapshot()
            .counter(CounterId::ClusterFailovers)
    }

    fn start_member(&mut self, i: usize, wipe: bool) -> Result<(), String> {
        let spans = self.config.spans.then(|| SpanConfig {
            // Each life draws from its own id stream: mixing the
            // generation in means a rejoined member cannot collide with
            // trace ids its previous life already exported.
            seed: splitmix64(
                self.config.seed
                    ^ SPAN_SEED_SALT
                    ^ ((i as u64) << 8)
                    ^ u64::from(self.members[i].generation),
            ),
            member: i as u32,
            ..SpanConfig::default()
        });
        let member = &mut self.members[i];
        if wipe && member.dir.exists() {
            std::fs::remove_dir_all(&member.dir)
                .map_err(|e| format!("member {i}: wiping {}: {e}", member.dir.display()))?;
        }
        let store = CacheStore::open(&member.dir)
            .map_err(|e| format!("member {i}: opening store: {e}"))?
            .with_eviction_limit(self.config.eviction_limit);
        let seed = self.config.seed;
        let faults = FaultPlan::new(splitmix64(seed ^ (i as u64 + 1)))
            .with_rate(FaultSite::PeerConnDrop, self.config.peer_fault_ppm)
            .with_rate(FaultSite::PeerSlowRead, self.config.peer_fault_ppm);
        let serve_config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: self.config.jobs,
            queue: self.config.queue,
            deadline: self.config.deadline,
            idle: None,
            cache: Some(store.clone()),
            faults,
            peers: Some(PeerView {
                directory: Arc::clone(&self.directory),
                self_index: i,
                policy: RetryPolicy {
                    seed: splitmix64(seed ^ 0xFEE7 ^ (i as u64)),
                    base_ms: 5,
                    cap_ms: 40,
                    attempts: 2,
                    timeout: Duration::from_secs(1),
                },
            }),
            spans,
        };
        let server = Server::start(serve_config).map_err(|e| format!("member {i}: bind: {e}"))?;
        self.directory.set(i, server.local_addr());
        let member = &mut self.members[i];
        member.server = Some(server);
        member.store = Some(store);
        member.quarantined = false;
        member.generation += 1;
        Ok(())
    }

    /// Kill member `i`: drain its daemon and capture its final ledger.
    /// The directory slot is *not* withdrawn — discovering the death is
    /// the health sweep's job. Returns the life's final totals.
    ///
    /// # Errors
    ///
    /// `i` out of range or already dead.
    pub fn kill(&mut self, i: usize) -> Result<AdmissionLedger, String> {
        let member = self
            .members
            .get_mut(i)
            .ok_or_else(|| format!("no member {i}"))?;
        let server = member
            .server
            .take()
            .ok_or_else(|| format!("member {i} is already dead"))?;
        if let Some(snap) = server.spans_snapshot() {
            member.retired_spans.extend(snap.records);
            member.retired_spans_appended += snap.appended;
            member.retired_spans_dropped += snap.dropped;
        }
        let totals = AdmissionLedger::from_entries(&server.shutdown());
        member.death_ledgers_balanced.push(totals.balanced());
        member.retired.absorb(&totals);
        Ok(totals)
    }

    /// Restart a dead member on a fresh port (same slot, next
    /// generation). `wipe` empties its store first — a replacement node
    /// that lost its disk, the case that exercises the peer-fetch tier
    /// hardest. Publishes the new address and lifts the quarantine.
    ///
    /// # Errors
    ///
    /// Member still alive, or start failures.
    pub fn rejoin(&mut self, i: usize, wipe: bool) -> Result<(), String> {
        if self.members.get(i).is_none_or(|m| m.server.is_some()) {
            return Err(format!("member {i} is not dead"));
        }
        self.start_member(i, wipe)
    }

    /// Probe every directory slot with `GET /healthz` and quarantine the
    /// members that fail (withdrawing them from the directory so peer
    /// fetches stop trying them). Returns the per-member live verdicts.
    pub fn health_sweep(&mut self) -> Vec<bool> {
        let verdicts: Vec<bool> = (0..self.members.len())
            .map(|i| self.directory.get(i).is_some_and(probe_health))
            .collect();
        for (i, &live) in verdicts.iter().enumerate() {
            if live {
                self.members[i].quarantined = false;
            } else {
                self.directory.clear(i);
                self.members[i].quarantined = true;
            }
        }
        verdicts
    }

    /// Route `key` to the first live (non-quarantined) member in ring
    /// order, counting skipped members in `cluster_failovers`. `None`
    /// when the whole fleet is quarantined.
    #[must_use]
    pub fn route(&self, key: u64) -> Option<usize> {
        let (member, failovers) = self
            .ring
            .route_live(key, |m| !self.members[m].quarantined)?;
        self.registry
            .global()
            .add(CounterId::ClusterFailovers, failovers);
        Some(member)
    }

    /// Member `i`'s totals across every life, including the current one.
    #[must_use]
    pub fn member_totals(&self, i: usize) -> AdmissionLedger {
        let Some(member) = self.members.get(i) else {
            return AdmissionLedger::default();
        };
        let mut totals = member.retired;
        if let Some(server) = &member.server {
            totals.absorb(&AdmissionLedger::from_entries(&server.metric_entries()));
        }
        totals
    }

    /// Sum of [`Cluster::member_totals`] over the fleet.
    #[must_use]
    pub fn fleet_totals(&self) -> AdmissionLedger {
        let mut totals = AdmissionLedger::default();
        for i in 0..self.members.len() {
            totals.absorb(&self.member_totals(i));
        }
        totals
    }

    /// Member `i`'s current-life span snapshot, when it is alive and
    /// tracing.
    #[must_use]
    pub fn member_spans(&self, i: usize) -> Option<jvmsim_serve::SpansSnapshot> {
        self.members
            .get(i)
            .and_then(|m| m.server.as_ref())
            .and_then(Server::spans_snapshot)
    }

    /// Every span the fleet has recorded — retired lives plus live
    /// rings — in ordinal order, with the fleet-wide append/drop totals.
    /// Returns `(appended, dropped, spans)`.
    #[must_use]
    pub fn fleet_spans(&self) -> (u64, u64, Vec<SpanRecord>) {
        let (mut appended, mut dropped) = (0u64, 0u64);
        let mut spans = Vec::new();
        for (i, member) in self.members.iter().enumerate() {
            appended += member.retired_spans_appended;
            dropped += member.retired_spans_dropped;
            spans.extend_from_slice(&member.retired_spans);
            if let Some(snap) = self.member_spans(i) {
                appended += snap.appended;
                dropped += snap.dropped;
                spans.extend(snap.records);
            }
        }
        sort_ordinal(&mut spans);
        (appended, dropped, spans)
    }

    /// Were all of member `i`'s captured death ledgers balanced?
    #[must_use]
    pub fn death_ledgers_balanced(&self, i: usize) -> bool {
        self.members
            .get(i)
            .is_none_or(|m| m.death_ledgers_balanced.iter().all(|&b| b))
    }

    /// Result-plane store size (bytes) per member, by slot.
    #[must_use]
    pub fn store_sizes(&self) -> Vec<u64> {
        self.members
            .iter()
            .map(|m| {
                m.store
                    .as_ref()
                    .map_or(0, |s| s.plane_size(jvmsim_cache::Plane::CellResult))
            })
            .collect()
    }

    /// Drain every live member, capturing final ledgers like
    /// [`Cluster::kill`]. Returns each member's all-lives totals.
    pub fn shutdown_all(&mut self) -> Vec<AdmissionLedger> {
        for i in 0..self.members.len() {
            if self.members[i].server.is_some() {
                let _ = self.kill(i);
            }
        }
        (0..self.members.len())
            .map(|i| self.member_totals(i))
            .collect()
    }
}

/// One `GET /healthz` probe with a short budget.
fn probe_health(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
        return false;
    };
    matches!(
        http_request(&mut stream, "GET", "/healthz", None),
        Ok((200, _))
    )
}
