//! The shared cell-row model and the one owner of the cache's
//! cell-result plane: one (workload, agent, size) cell's deterministic
//! quantities, its cache-entry codec, its canonical JSON row rendering,
//! and the protocol every producer follows to serve or compute a row.
//!
//! Three producers must agree on these bytes exactly:
//!
//! * the suite driver, which memoizes completed rows on the cache's
//!   cell-result plane and assembles the Table I/II artifacts;
//! * `jprof run`, which renders one cell row to stdout or a file;
//! * `jvmsim-serve`, whose `POST /v1/run` response must be byte-identical
//!   to the batch driver's row for the same run identity, cold or warm.
//!
//! Each of them follows the same protocol through this module: derive
//! the key ([`result_key`]), consult the plane ([`lookup`]: verify,
//! decode or quarantine), and on a miss run the cell ([`run`], which
//! turns a panicking run into [`HarnessError::Panicked`]) and memoize it
//! ([`store`]). Keeping the codec, the renderer and the protocol here —
//! in the umbrella crate, below all three — makes that agreement
//! structural rather than a test assertion: there is exactly one
//! implementation to diverge from.

use std::panic::{catch_unwind, AssertUnwindSafe};

use jvmsim_cache::{CacheKey, CacheStore, Plane};
use jvmsim_faults::FaultSite;
use jvmsim_metrics::json_escape;

use crate::harness::HarnessError;
use crate::session::{RunOutcome, Session};

/// Per-tier cycle attribution for one cell: where the execution engine
/// spent its time (per execution tier) and what tier-up compilation cost.
/// The five fields are disjoint slices of the run's execution+compile
/// cycles, so interp-only runs show zeros in the last four columns and
/// every mode's columns stay mutually comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCycles {
    /// Cycles charged while executing at the interpreter tier.
    pub interp: u64,
    /// Cycles charged while executing at the C1 (client) tier.
    pub c1: u64,
    /// Cycles charged while executing at the C2 (server) tier.
    pub c2: u64,
    /// Cycles charged compiling methods to C1.
    pub c1_compile: u64,
    /// Cycles charged compiling methods to C2.
    pub c2_compile: u64,
}

/// Everything the tables (and a served run response) need from one
/// (workload, agent) cell: virtual seconds, the behavioural checksum,
/// total cycles, the per-tier cycle breakdown, and the agent-specific
/// triple — Table II's profile for IPA, the site summary for ALLOC, the
/// contention summary for LOCK.
#[derive(Debug, Clone, PartialEq)]
pub struct CellQuantities {
    /// Virtual wall-clock seconds (total cycles at the PCL clock rate).
    pub seconds: f64,
    /// The workload checksum (behavioural-equivalence witness).
    pub checksum: i64,
    /// Total cycles charged across all threads.
    pub total_cycles: u64,
    /// Per-tier execution and compile cycles.
    pub tiers: TierCycles,
    /// `(percent_native, jni_calls, native_method_calls)` when IPA ran.
    pub profile: Option<(f64, u64, u64)>,
    /// `(sites, total_objects, total_bytes)` when ALLOC ran.
    pub alloc: Option<(u64, u64, u64)>,
    /// `(entries, contended, blocked_cycles)` when LOCK ran.
    pub lock: Option<(u64, u64, u64)>,
}

impl CellQuantities {
    /// Extract the cell quantities from a completed run. The native-time
    /// profile is kept only for IPA runs — SPA reports one too, but
    /// Table II (and the row schema) attribute native time to IPA alone.
    /// The ALLOC and LOCK triples ride on whichever of those agents ran.
    #[must_use]
    pub fn from_run(run: &RunOutcome) -> CellQuantities {
        let stats = &run.outcome.stats;
        CellQuantities {
            seconds: run.seconds,
            checksum: run.checksum,
            total_cycles: run.outcome.total_cycles,
            tiers: TierCycles {
                interp: stats.interp_cycles,
                c1: stats.c1_cycles,
                c2: stats.c2_cycles,
                c1_compile: stats.c1_compile_cycles,
                c2_compile: stats.c2_compile_cycles,
            },
            profile: run
                .profile
                .as_ref()
                .filter(|_| run.agent == "IPA")
                .map(|p| (p.percent_native(), p.jni_calls, p.native_method_calls)),
            alloc: run
                .alloc
                .as_ref()
                .map(|a| (a.sites.len() as u64, a.total_objects, a.total_bytes)),
            lock: run.lock.as_ref().map(|l| {
                (
                    l.total_entries(),
                    l.total_contended(),
                    l.total_blocked_cycles(),
                )
            }),
        }
    }
}

/// Per-site `(site, consulted, injected)` fault-schedule tally, stored
/// alongside a memoized cell so warm chaos reports still balance.
pub type SiteTally = (FaultSite, u64, u64);

/// Payload layout version for memoized cell rows. Bumping it orphans old
/// entries (their payloads stop decoding, so they are quarantined and
/// recomputed) without touching the cache's own framing. Version 2 added
/// the ALLOC and LOCK triples; version 3 the per-tier cycle quintuple.
pub const CELL_ENTRY_VERSION: u32 = 3;

/// Serialize a completed cell for the result plane: everything the table
/// assembler reads, exactly — floats as IEEE bits so a decoded row
/// formats byte-identically to the live one — plus the chaos injector's
/// per-site schedule so warm chaos reports still balance.
#[must_use]
pub fn encode_cell_entry(outcome: &CellQuantities, sites: &[SiteTally]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + sites.len() * 17);
    out.extend_from_slice(&CELL_ENTRY_VERSION.to_le_bytes());
    out.extend_from_slice(&outcome.seconds.to_bits().to_le_bytes());
    out.extend_from_slice(&outcome.checksum.to_le_bytes());
    out.extend_from_slice(&outcome.total_cycles.to_le_bytes());
    for cycles in [
        outcome.tiers.interp,
        outcome.tiers.c1,
        outcome.tiers.c2,
        outcome.tiers.c1_compile,
        outcome.tiers.c2_compile,
    ] {
        out.extend_from_slice(&cycles.to_le_bytes());
    }
    match outcome.profile {
        None => out.push(0),
        Some((pct_native, jni_calls, native_method_calls)) => {
            out.push(1);
            out.extend_from_slice(&pct_native.to_bits().to_le_bytes());
            out.extend_from_slice(&jni_calls.to_le_bytes());
            out.extend_from_slice(&native_method_calls.to_le_bytes());
        }
    }
    for triple in [outcome.alloc, outcome.lock] {
        match triple {
            None => out.push(0),
            Some((a, b, c)) => {
                out.push(1);
                out.extend_from_slice(&a.to_le_bytes());
                out.extend_from_slice(&b.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&(sites.len() as u32).to_le_bytes());
    for &(site, consulted, injected) in sites {
        out.push(site.index() as u8);
        out.extend_from_slice(&consulted.to_le_bytes());
        out.extend_from_slice(&injected.to_le_bytes());
    }
    out
}

/// Strict inverse of [`encode_cell_entry`]. `None` on any malformed shape
/// (wrong version, truncation, trailing bytes, unknown fault site) — the
/// caller quarantines the entry and recomputes.
#[must_use]
pub fn decode_cell_entry(bytes: &[u8]) -> Option<(CellQuantities, Vec<SiteTally>)> {
    struct Cursor<'a>(&'a [u8]);
    impl Cursor<'_> {
        fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
            let (head, tail) = self.0.split_at_checked(N)?;
            self.0 = tail;
            head.try_into().ok()
        }
        fn u8(&mut self) -> Option<u8> {
            self.take::<1>().map(|b| b[0])
        }
        fn u32(&mut self) -> Option<u32> {
            self.take::<4>().map(u32::from_le_bytes)
        }
        fn u64(&mut self) -> Option<u64> {
            self.take::<8>().map(u64::from_le_bytes)
        }
    }
    let mut c = Cursor(bytes);
    if c.u32()? != CELL_ENTRY_VERSION {
        return None;
    }
    let seconds = f64::from_bits(c.u64()?);
    let checksum = i64::from_le_bytes(c.take::<8>()?);
    let total_cycles = c.u64()?;
    let tiers = TierCycles {
        interp: c.u64()?,
        c1: c.u64()?,
        c2: c.u64()?,
        c1_compile: c.u64()?,
        c2_compile: c.u64()?,
    };
    let profile = match c.u8()? {
        0 => None,
        1 => Some((f64::from_bits(c.u64()?), c.u64()?, c.u64()?)),
        _ => return None,
    };
    let u64_triple = |c: &mut Cursor<'_>| match c.u8()? {
        0 => Some(None),
        1 => Some(Some((c.u64()?, c.u64()?, c.u64()?))),
        _ => None,
    };
    let alloc = u64_triple(&mut c)?;
    let lock = u64_triple(&mut c)?;
    let site_count = c.u32()? as usize;
    let mut sites = Vec::with_capacity(site_count.min(FaultSite::COUNT));
    for _ in 0..site_count {
        let site = *FaultSite::ALL.get(c.u8()? as usize)?;
        sites.push((site, c.u64()?, c.u64()?));
    }
    if !c.0.is_empty() {
        return None;
    }
    Some((
        CellQuantities {
            seconds,
            checksum,
            total_cycles,
            tiers,
            profile,
            alloc,
            lock,
        },
        sites,
    ))
}

/// The cell-result-plane key of `session` ([`Session::result_key`]), or
/// `None` when deriving it panics: the key needs the workload's program
/// bytes, so a workload whose program panics has no key and falls
/// through to [`run`], failing there exactly as an uncached run does.
#[must_use]
pub fn result_key(session: &Session<'_>) -> Option<CacheKey> {
    catch_unwind(AssertUnwindSafe(|| session.result_key())).ok()
}

/// What [`lookup`] found under a key.
#[derive(Debug)]
pub struct Lookup {
    /// Byte length of the verified stored payload; `None` on a miss.
    pub bytes: Option<usize>,
    /// The decoded row and its stored fault-site tally; `None` on a miss
    /// or when the payload did not decode.
    pub entry: Option<(CellQuantities, Vec<SiteTally>)>,
}

/// Read `key`'s entry off the cell-result plane. The store re-verifies
/// the frame's digest; a verified frame whose payload does not decode
/// holds foreign or stale bytes, so it is quarantined and the caller
/// recomputes.
#[must_use]
pub fn lookup(store: &CacheStore, key: &CacheKey) -> Lookup {
    let Some(payload) = store.lookup(Plane::CellResult, key) else {
        return Lookup {
            bytes: None,
            entry: None,
        };
    };
    let entry = decode_cell_entry(&payload);
    if entry.is_none() {
        store.quarantine(Plane::CellResult, key);
    }
    Lookup {
        bytes: Some(payload.len()),
        entry,
    }
}

/// Adopt an entry another store supplied (the fleet's peer-fetch tier):
/// when `payload` decodes it is stored verbatim under `key` and its row
/// returned; otherwise nothing is stored.
#[must_use]
pub fn adopt(store: &CacheStore, key: &CacheKey, payload: &[u8]) -> Option<CellQuantities> {
    let (cell, _sites) = decode_cell_entry(payload)?;
    let _ = store.store(Plane::CellResult, key, payload);
    Some(cell)
}

/// Memoize a completed cell under `key`. Off the chaos path `sites` is
/// empty, so entries written by any producer are interchangeable. A
/// failed store only means the next run pays again.
pub fn store(store: &CacheStore, key: &CacheKey, cell: &CellQuantities, sites: &[SiteTally]) {
    let _ = store.store(Plane::CellResult, key, &encode_cell_entry(cell, sites));
}

/// Run `session` ([`Session::run`]) with its panic caught: a panicking
/// run comes back as [`HarnessError::Panicked`] carrying the panic
/// message, so the thread that asked for the row survives it.
///
/// # Errors
///
/// As [`Session::run`], plus [`HarnessError::Panicked`].
pub fn run(session: Session<'_>) -> Result<RunOutcome, HarnessError> {
    catch_unwind(AssertUnwindSafe(|| session.run()))
        .unwrap_or_else(|payload| Err(HarnessError::Panicked(panic_message(payload.as_ref()))))
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Column names of the canonical cell row, in rendering order.
pub const CELL_ROW_COLUMNS: [&str; 20] = [
    "benchmark",
    "agent",
    "size",
    "seconds",
    "checksum",
    "total_cycles",
    "interp_cycles",
    "c1_cycles",
    "c2_cycles",
    "c1_compile_cycles",
    "c2_compile_cycles",
    "pct_native",
    "jni_calls",
    "native_method_calls",
    "alloc_sites",
    "alloc_objects",
    "alloc_bytes",
    "lock_entries",
    "lock_contended",
    "lock_blocked_cycles",
];

/// Render one cell as the canonical JSON row: a single-object array in
/// the same shape `Table::to_json` gives a one-row table (all values as
/// JSON strings, floats in fixed six-decimal formatting, agent-specific
/// columns empty for cells whose agent did not produce them,
/// `\n`-terminated). Every transport — batch file, stdout, HTTP response
/// body — emits exactly these bytes for the same run identity.
#[must_use]
pub fn cell_row_json(benchmark: &str, agent: &str, size: u32, cell: &CellQuantities) -> String {
    let (pct_native, jni_calls, native_method_calls) = match cell.profile {
        Some((pct, jni, native)) => (format!("{pct:.6}"), jni.to_string(), native.to_string()),
        None => (String::new(), String::new(), String::new()),
    };
    let triple = |t: Option<(u64, u64, u64)>| match t {
        Some((a, b, c)) => (a.to_string(), b.to_string(), c.to_string()),
        None => (String::new(), String::new(), String::new()),
    };
    let (alloc_sites, alloc_objects, alloc_bytes) = triple(cell.alloc);
    let (lock_entries, lock_contended, lock_blocked) = triple(cell.lock);
    let values = [
        benchmark.to_owned(),
        agent.to_owned(),
        size.to_string(),
        format!("{:.6}", cell.seconds),
        cell.checksum.to_string(),
        cell.total_cycles.to_string(),
        cell.tiers.interp.to_string(),
        cell.tiers.c1.to_string(),
        cell.tiers.c2.to_string(),
        cell.tiers.c1_compile.to_string(),
        cell.tiers.c2_compile.to_string(),
        pct_native,
        jni_calls,
        native_method_calls,
        alloc_sites,
        alloc_objects,
        alloc_bytes,
        lock_entries,
        lock_contended,
        lock_blocked,
    ];
    let mut out = String::from("[\n  {");
    for (i, (column, value)) in CELL_ROW_COLUMNS.iter().zip(&values).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(column);
        out.push_str("\":\"");
        out.push_str(&json_escape(value));
        out.push('"');
    }
    out.push_str("}\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{by_name, Crashy, ProblemSize};

    #[test]
    fn a_panicking_cell_has_no_key_and_runs_to_a_typed_error() {
        let session = Session::new(&Crashy, ProblemSize::S1);
        assert!(result_key(&session).is_none());
        match run(session) {
            Err(e @ HarnessError::Panicked(_)) => {
                assert!(e.to_string().starts_with("run panicked: "), "{e}");
                assert_eq!(e.exit_code(), 11);
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Nothing was poisoned: a healthy cell still keys and runs.
        let compress = by_name("compress").unwrap();
        let session = Session::new(compress.as_ref(), ProblemSize::S1);
        assert!(result_key(&session).is_some());
        assert!(run(session).is_ok());
    }

    #[test]
    fn lookup_serves_stored_rows_and_quarantines_foreign_payloads() {
        let root =
            std::env::temp_dir().join(format!("jnativeprof-cell-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = CacheStore::open(&root).unwrap();
        let compress = by_name("compress").unwrap();
        let key = result_key(&Session::new(compress.as_ref(), ProblemSize::S1)).unwrap();
        let miss = lookup(&cache, &key);
        assert!(miss.bytes.is_none() && miss.entry.is_none());

        let cell = CellQuantities {
            seconds: 0.5,
            checksum: 9,
            total_cycles: 10,
            tiers: TierCycles::default(),
            profile: None,
            alloc: None,
            lock: None,
        };
        store(&cache, &key, &cell, &[]);
        let hit = lookup(&cache, &key);
        assert_eq!(hit.bytes, Some(encode_cell_entry(&cell, &[]).len()));
        assert_eq!(hit.entry, Some((cell.clone(), Vec::new())));

        // A peer's payload is adopted only when it decodes.
        assert_eq!(adopt(&cache, &key, b"torn"), None);
        assert_eq!(
            adopt(&cache, &key, &encode_cell_entry(&cell, &[])),
            Some(cell)
        );

        // A verified frame whose payload does not decode is priced,
        // quarantined, and gone on the next read.
        cache.store(Plane::CellResult, &key, b"torn").unwrap();
        let foreign = lookup(&cache, &key);
        assert_eq!(foreign.bytes, Some(4));
        assert!(foreign.entry.is_none());
        assert_eq!(cache.quarantined_files(), 1);
        assert!(lookup(&cache, &key).bytes.is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cell_entry_codec_round_trips() {
        let with_profile = CellQuantities {
            seconds: 1.234_567_891_2,
            checksum: -42,
            total_cycles: 987_654_321,
            tiers: TierCycles {
                interp: 900_000_000,
                c1: 50_000_000,
                c2: 30_000_000,
                c1_compile: 4_000_000,
                c2_compile: 3_654_321,
            },
            profile: Some((4.539_999_9, 3, 7)),
            alloc: Some((12, 345, 6789)),
            lock: Some((21, 10, 55_000)),
        };
        let sites: Vec<_> = FaultSite::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u64 * 11, i as u64 * 3))
            .collect();
        let bytes = encode_cell_entry(&with_profile, &sites);
        let (decoded, decoded_sites) = decode_cell_entry(&bytes).unwrap();
        assert_eq!(decoded.seconds.to_bits(), with_profile.seconds.to_bits());
        assert_eq!(decoded.checksum, with_profile.checksum);
        assert_eq!(decoded.total_cycles, with_profile.total_cycles);
        assert_eq!(decoded.tiers, with_profile.tiers);
        assert_eq!(
            decoded.profile.unwrap().0.to_bits(),
            with_profile.profile.unwrap().0.to_bits()
        );
        assert_eq!(decoded.alloc, with_profile.alloc);
        assert_eq!(decoded.lock, with_profile.lock);
        assert_eq!(decoded_sites, sites);

        let bare = CellQuantities {
            seconds: 0.5,
            checksum: 9,
            total_cycles: 10,
            tiers: TierCycles::default(),
            profile: None,
            alloc: None,
            lock: None,
        };
        let bytes = encode_cell_entry(&bare, &[]);
        let (decoded, decoded_sites) = decode_cell_entry(&bytes).unwrap();
        assert!(decoded.profile.is_none());
        assert!(decoded.alloc.is_none());
        assert!(decoded.lock.is_none());
        assert!(decoded_sites.is_empty());
        assert_eq!(decoded.checksum, 9);
    }

    #[test]
    fn malformed_cell_entries_rejected() {
        let bytes = encode_cell_entry(
            &CellQuantities {
                seconds: 1.0,
                checksum: 1,
                total_cycles: 2,
                tiers: TierCycles::default(),
                profile: Some((1.0, 2, 3)),
                alloc: None,
                lock: None,
            },
            &[(FaultSite::ALL[0], 5, 1)],
        );
        // Every truncation fails closed.
        for len in 0..bytes.len() {
            assert!(decode_cell_entry(&bytes[..len]).is_none(), "len {len}");
        }
        // Trailing garbage fails closed.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_cell_entry(&long).is_none());
        // Wrong version fails closed.
        let mut versioned = bytes.clone();
        versioned[0] ^= 0xFF;
        assert!(decode_cell_entry(&versioned).is_none());
        // Unknown fault site index fails closed.
        let mut bad_site = bytes;
        // version + seconds + checksum + cycles + tier quintuple +
        // profile(tag+triple) + alloc tag + lock tag + site count.
        let site_pos = 4 + 8 + 8 + 8 + 40 + (1 + 24) + 1 + 1 + 4;
        bad_site[site_pos] = FaultSite::COUNT as u8;
        assert!(decode_cell_entry(&bad_site).is_none());
    }

    #[test]
    fn row_json_shape_and_escaping() {
        let ipa = CellQuantities {
            seconds: 1.5,
            checksum: 7,
            total_cycles: 1000,
            tiers: TierCycles {
                interp: 600,
                c1: 200,
                c2: 100,
                c1_compile: 60,
                c2_compile: 40,
            },
            profile: Some((4.54, 3, 9)),
            alloc: None,
            lock: None,
        };
        let row = cell_row_json("compress", "IPA", 1, &ipa);
        assert_eq!(
            row,
            "[\n  {\"benchmark\":\"compress\",\"agent\":\"IPA\",\"size\":\"1\",\
             \"seconds\":\"1.500000\",\"checksum\":\"7\",\"total_cycles\":\"1000\",\
             \"interp_cycles\":\"600\",\"c1_cycles\":\"200\",\"c2_cycles\":\"100\",\
             \"c1_compile_cycles\":\"60\",\"c2_compile_cycles\":\"40\",\
             \"pct_native\":\"4.540000\",\"jni_calls\":\"3\",\
             \"native_method_calls\":\"9\",\"alloc_sites\":\"\",\
             \"alloc_objects\":\"\",\"alloc_bytes\":\"\",\"lock_entries\":\"\",\
             \"lock_contended\":\"\",\"lock_blocked_cycles\":\"\"}\n]\n"
        );
        let alloc = CellQuantities {
            profile: None,
            alloc: Some((3, 5, 170)),
            ..ipa.clone()
        };
        let row = cell_row_json("compress", "ALLOC", 1, &alloc);
        assert!(row.contains("\"alloc_sites\":\"3\""));
        assert!(row.contains("\"alloc_objects\":\"5\""));
        assert!(row.contains("\"alloc_bytes\":\"170\""));
        assert!(row.contains("\"lock_entries\":\"\""));
        let lock = CellQuantities {
            profile: None,
            lock: Some((21, 10, 55_000)),
            ..ipa.clone()
        };
        let row = cell_row_json("jbb", "LOCK", 1, &lock);
        assert!(row.contains("\"lock_entries\":\"21\""));
        assert!(row.contains("\"lock_contended\":\"10\""));
        assert!(row.contains("\"lock_blocked_cycles\":\"55000\""));
        assert!(row.contains("\"alloc_sites\":\"\""));
        let original = CellQuantities {
            profile: None,
            ..ipa
        };
        let row = cell_row_json("a\"b", "original", 10, &original);
        assert!(row.contains("\"benchmark\":\"a\\\"b\""));
        assert!(row.contains("\"pct_native\":\"\""));
        assert!(row.ends_with("}\n]\n"));
    }
}
