//! jvmsim-cache — a content-addressed, verified-on-read cache for the
//! jvmsim stack.
//!
//! The paper's IPA agent earns its 0–20% overhead (Table I) by paying
//! instrumentation cost *once*, statically. The suite driver used to throw
//! that lesson away: every cell of every run re-instrumented its archive
//! from scratch, and every chaos seed repeated the whole deterministic
//! simulation. This crate memoizes both, on two planes:
//!
//! * [`Plane::Instrumentation`] — serialized instrumented archives, keyed
//!   by the digest of the input classfile bytes plus the wrapper
//!   configuration, shared by every cell and every chaos seed;
//! * [`Plane::CellResult`] — completed suite-cell rows, keyed by the full
//!   run identity (workload, size, agent, cost model, fault plan, bytes),
//!   sound because runs are bit-deterministic.
//!
//! Correctness is non-negotiable: every entry stores a SHA-256 of its
//! payload and **every hit re-verifies it**. An entry that fails
//! verification — disk rot, a concurrent writer torn mid-entry, or the
//! [`FaultSite::CacheCorrupt`] chaos site flipping a byte on read — is
//! quarantined and recomputed. A warm run can therefore never differ from
//! a cold run by a single byte; a poisoned cache costs time, never truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;

pub use digest::{hex_decode, hex_encode, Digest, Sha256};

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jvmsim_faults::{FaultInjector, FaultSite};
use jvmsim_metrics::{CounterId, MetricsShard};

/// Bumped whenever the entry layout or any key-derivation rule changes;
/// mixed into every [`KeyHasher`], so a new scheme simply never sees old
/// entries (invalidation by construction, no migration code). Version 2:
/// the agent axis widened the memoized cell row with ALLOC/LOCK columns.
/// Version 3: the tiered execution engine widened the row with per-tier
/// cycle columns and added the tiers mode to every result identity.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// Entry file magic: `JVCE` (JVmsim Cache Entry).
const ENTRY_MAGIC: [u8; 4] = *b"JVCE";

/// magic(4) + version(4) + plane(1) + key(32) + payload digest(32) + len(8).
const HEADER_LEN: usize = 81;

/// Which cache plane an entry lives on. Planes are separate namespaces
/// (separate subdirectories) so a key collision across planes is
/// structurally impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Memoized `Archive::instrument` output (serialized archives).
    Instrumentation,
    /// Memoized completed suite-cell results.
    CellResult,
}

impl Plane {
    /// Both planes, in tag order.
    pub const ALL: [Plane; 2] = [Plane::Instrumentation, Plane::CellResult];

    /// Subdirectory this plane's entries live in.
    #[must_use]
    pub const fn dir_name(self) -> &'static str {
        match self {
            Plane::Instrumentation => "instr",
            Plane::CellResult => "cell",
        }
    }

    /// Single-byte tag stored in the entry header.
    #[must_use]
    const fn tag(self) -> u8 {
        match self {
            Plane::Instrumentation => 1,
            Plane::CellResult => 2,
        }
    }
}

impl std::fmt::Display for Plane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.dir_name())
    }
}

/// A content-addressed cache key: the digest of every input that can
/// change the cached payload. Derive one with [`KeyHasher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(Digest);

impl CacheKey {
    /// Re-wrap an already-derived digest as a key. The normal path is
    /// [`KeyHasher`]; this exists for transports (peer fetch) that carry
    /// a key's digest over the wire and need to address the same entry
    /// on the receiving store. Lookups still digest-verify the payload,
    /// so a fabricated key can at worst miss.
    #[must_use]
    pub fn from_digest(digest: Digest) -> CacheKey {
        CacheKey(digest)
    }

    /// The underlying digest.
    #[must_use]
    pub fn digest(&self) -> Digest {
        self.0
    }

    /// Entry file name for this key.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{}.jvc", self.0.to_hex())
    }
}

/// Builds a [`CacheKey`] from named, length-prefixed fields so no two
/// distinct field sequences can collide by concatenation. The schema
/// version and a domain string are absorbed first: bumping
/// [`CACHE_SCHEMA_VERSION`] or renaming the domain invalidates every old
/// entry without touching the store.
#[derive(Clone)]
pub struct KeyHasher {
    h: Sha256,
}

impl KeyHasher {
    /// A hasher for the given key domain (e.g. `"instr-archive"`).
    #[must_use]
    pub fn new(domain: &str) -> KeyHasher {
        KeyHasher::with_version(domain, CACHE_SCHEMA_VERSION)
    }

    /// A hasher pinned to an explicit schema version — how tests fabricate
    /// pre-bump keys to prove old entries go quietly dark.
    fn with_version(domain: &str, version: u32) -> KeyHasher {
        let mut k = KeyHasher { h: Sha256::new() };
        k.h.update(&version.to_le_bytes());
        k.absorb(domain.as_bytes());
        k
    }

    fn absorb(&mut self, bytes: &[u8]) {
        self.h.update(&(bytes.len() as u64).to_le_bytes());
        self.h.update(bytes);
    }

    /// Absorb a named byte-string field.
    pub fn field_bytes(&mut self, name: &str, bytes: &[u8]) {
        self.absorb(name.as_bytes());
        self.absorb(bytes);
    }

    /// Absorb a named string field.
    pub fn field_str(&mut self, name: &str, s: &str) {
        self.field_bytes(name, s.as_bytes());
    }

    /// Absorb a named integer field.
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.field_bytes(name, &v.to_le_bytes());
    }

    /// Absorb a named digest field (e.g. a sub-object's content digest).
    pub fn field_digest(&mut self, name: &str, d: Digest) {
        self.field_bytes(name, &d.0);
    }

    /// Finalise into a key.
    #[must_use]
    pub fn finish(self) -> CacheKey {
        CacheKey(self.h.finish())
    }
}

impl std::fmt::Debug for KeyHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyHasher(..)")
    }
}

// Stats array slots.
const S_HITS: usize = 0;
const S_MISSES: usize = 1;
const S_STORES: usize = 2;
const S_QUARANTINED: usize = 3;
const S_BYTES_READ: usize = 4;
const S_BYTES_WRITTEN: usize = 5;
const S_EVICTED: usize = 6;
const S_COUNT: usize = 7;

/// A point-in-time snapshot of one store's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that verified and were served.
    pub hits: u64,
    /// Lookups that found no entry (or an unreadable one).
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries that failed verification and were quarantined.
    pub quarantined: u64,
    /// Payload bytes served from the cache.
    pub bytes_read: u64,
    /// Payload bytes written into the cache.
    pub bytes_written: u64,
    /// Entries removed by bounded-store compaction.
    pub evicted: u64,
}

#[derive(Debug)]
struct StoreInner {
    root: PathBuf,
    stats: [AtomicU64; S_COUNT],
    tmp_seq: AtomicU64,
}

/// The content-addressed store: a directory with one subdirectory per
/// [`Plane`] plus a `quarantine/` pen for poisoned entries.
///
/// `CacheStore` is a cheap clonable handle; [`CacheStore::with_faults`]
/// and [`CacheStore::with_metrics`] derive scoped handles that share the
/// same directory and global [`CacheStats`] but consult a per-cell fault
/// injector or mirror into a per-cell metrics shard — how the suite driver
/// gives every cell its own accounting over one shared store.
#[derive(Debug, Clone)]
pub struct CacheStore {
    inner: Arc<StoreInner>,
    faults: Option<Arc<FaultInjector>>,
    metrics: Option<Arc<MetricsShard>>,
    eviction_limit: Option<u64>,
}

impl CacheStore {
    /// Open (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory tree cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<CacheStore> {
        let root = root.into();
        for plane in Plane::ALL {
            std::fs::create_dir_all(root.join(plane.dir_name()))?;
        }
        std::fs::create_dir_all(root.join("quarantine"))?;
        Ok(CacheStore {
            inner: Arc::new(StoreInner {
                root,
                stats: Default::default(),
                tmp_seq: AtomicU64::new(0),
            }),
            faults: None,
            metrics: None,
            eviction_limit: None,
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// A handle that consults `faults` at [`FaultSite::CacheCorrupt`] on
    /// every read (chaos mode). Shares directory and stats with `self`.
    #[must_use]
    pub fn with_faults(&self, faults: Arc<FaultInjector>) -> CacheStore {
        CacheStore {
            inner: Arc::clone(&self.inner),
            faults: Some(faults),
            metrics: self.metrics.clone(),
            eviction_limit: self.eviction_limit,
        }
    }

    /// A handle that mirrors hit/miss/byte/quarantine counts into
    /// `shard` (per-cell accounting). Shares directory and stats with
    /// `self`.
    #[must_use]
    pub fn with_metrics(&self, shard: Arc<MetricsShard>) -> CacheStore {
        CacheStore {
            inner: Arc::clone(&self.inner),
            faults: self.faults.clone(),
            metrics: Some(shard),
            eviction_limit: self.eviction_limit,
        }
    }

    /// A handle that bounds each plane to `bytes` of entry files: after
    /// every store, the written plane is compacted (see
    /// [`CacheStore::compact_plane`]) until it fits. Shares directory and
    /// stats with `self`; a long-lived fleet member opens its store
    /// through this so it can never grow without limit.
    #[must_use]
    pub fn with_eviction_limit(&self, bytes: u64) -> CacheStore {
        CacheStore {
            inner: Arc::clone(&self.inner),
            faults: self.faults.clone(),
            metrics: self.metrics.clone(),
            eviction_limit: Some(bytes),
        }
    }

    /// The eviction bound in force on this handle, if any.
    #[must_use]
    pub fn eviction_limit(&self) -> Option<u64> {
        self.eviction_limit
    }

    /// Where `key`'s entry lives (or would live) on `plane`. Exposed so
    /// tests can corrupt an entry on disk and prove it is never served.
    #[must_use]
    pub fn entry_path(&self, plane: Plane, key: &CacheKey) -> PathBuf {
        self.inner.root.join(plane.dir_name()).join(key.file_name())
    }

    /// Look up `key` on `plane`, verifying the stored digest before
    /// serving a single byte. Returns the payload on a verified hit.
    ///
    /// A missing entry is a miss. An entry that fails verification —
    /// wrong magic, schema, plane, key or payload digest, or a byte
    /// flipped by the [`FaultSite::CacheCorrupt`] chaos site — is moved to
    /// `quarantine/` and reported as a miss, so the caller recomputes and
    /// re-stores; corruption is never served and never fatal.
    #[must_use]
    pub fn lookup(&self, plane: Plane, key: &CacheKey) -> Option<Vec<u8>> {
        let path = self.entry_path(plane, key);
        let mut bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.count(S_MISSES, 1, CounterId::CacheMisses, 1);
                return None;
            }
        };
        // Chaos: flip one deterministic byte of the entry as it is read
        // back. Verification below must catch it, whichever byte it is.
        if let Some(faults) = &self.faults {
            if !bytes.is_empty() {
                if let Some(entropy) = faults.inject(FaultSite::CacheCorrupt) {
                    let idx = (entropy as usize) % bytes.len();
                    bytes[idx] ^= 0xA5;
                }
            }
        }
        match verify_entry(&bytes, plane, key) {
            Some(payload_range) => {
                let payload = bytes[payload_range].to_vec();
                self.count(S_HITS, 1, CounterId::CacheHits, 1);
                self.count(S_BYTES_READ, payload.len() as u64, CounterId::CacheBytes, {
                    payload.len() as u64
                });
                Some(payload)
            }
            None => {
                self.quarantine_path(&path, plane, key);
                self.count(S_MISSES, 1, CounterId::CacheMisses, 1);
                None
            }
        }
    }

    /// Write `payload` under `key` on `plane`. The entry is assembled in a
    /// temporary file and atomically renamed into place, so a concurrent
    /// reader sees either the whole entry or none of it — and concurrent
    /// writers of the same key (which, being content-addressed, write
    /// identical bytes) race harmlessly.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat a failed store as "cache
    /// unavailable", never as a run failure.
    pub fn store(&self, plane: Plane, key: &CacheKey, payload: &[u8]) -> io::Result<()> {
        let mut entry = Vec::with_capacity(HEADER_LEN + payload.len());
        entry.extend_from_slice(&ENTRY_MAGIC);
        entry.extend_from_slice(&CACHE_SCHEMA_VERSION.to_le_bytes());
        entry.push(plane.tag());
        entry.extend_from_slice(&key.digest().0);
        entry.extend_from_slice(&Digest::of(payload).0);
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(payload);

        let final_path = self.entry_path(plane, key);
        let tmp = final_path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.inner.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &entry)?;
        std::fs::rename(&tmp, &final_path)?;
        self.count(
            S_BYTES_WRITTEN,
            payload.len() as u64,
            CounterId::CacheBytes,
            payload.len() as u64,
        );
        self.count(S_STORES, 1, CounterId::CacheBytes, 0);
        if let Some(limit) = self.eviction_limit {
            // Bound the plane we just grew, but never evict the entry this
            // store produced — a limit smaller than one entry must not
            // turn every store into an immediate self-eviction loop.
            self.compact_plane_excluding(plane, limit, Some(key));
        }
        Ok(())
    }

    /// Total bytes of entry files currently on `plane`.
    #[must_use]
    pub fn plane_size(&self, plane: Plane) -> u64 {
        plane_entries(&self.inner.root.join(plane.dir_name()))
            .iter()
            .map(|(_, size)| size)
            .sum()
    }

    /// Compact `plane` down to at most `limit` bytes of entry files,
    /// deleting entries in digest (file-name) order — deterministic for a
    /// given store contents, and uniform over keys since names are
    /// content digests. Returns the number of entries evicted. Eviction
    /// is pure capacity management: an evicted identity is a future cache
    /// miss and recompute, never a correctness event.
    pub fn compact_plane(&self, plane: Plane, limit: u64) -> u64 {
        self.compact_plane_excluding(plane, limit, None)
    }

    fn compact_plane_excluding(&self, plane: Plane, limit: u64, keep: Option<&CacheKey>) -> u64 {
        let dir = self.inner.root.join(plane.dir_name());
        let mut entries = plane_entries(&dir);
        let mut total: u64 = entries.iter().map(|(_, size)| size).sum();
        if total <= limit {
            return 0;
        }
        entries.sort();
        let kept = keep.map(CacheKey::file_name);
        let mut evicted = 0u64;
        for (name, size) in entries {
            if total <= limit {
                break;
            }
            if Some(&name) == kept.as_ref() {
                continue;
            }
            if std::fs::remove_file(dir.join(&name)).is_ok() {
                total = total.saturating_sub(size);
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.count(S_EVICTED, evicted, CounterId::ClusterEvictions, evicted);
        }
        evicted
    }

    /// Quarantine `key`'s entry on `plane` without serving it — for
    /// callers whose *decode* of a digest-verified payload fails (a
    /// should-not-happen belt-and-braces path: degrade to recompute).
    pub fn quarantine(&self, plane: Plane, key: &CacheKey) {
        let path = self.entry_path(plane, key);
        self.quarantine_path(&path, plane, key);
    }

    fn quarantine_path(&self, path: &Path, plane: Plane, key: &CacheKey) {
        let pen = self.inner.root.join("quarantine").join(format!(
            "{}-{}.{}.poisoned",
            plane.dir_name(),
            key.digest().to_hex(),
            self.inner.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        // Best-effort: if the rename loses a race the entry is already
        // gone, which is exactly the state we want.
        let _ = std::fs::rename(path, &pen);
        self.count(S_QUARANTINED, 1, CounterId::CacheQuarantined, 1);
    }

    /// Number of poisoned entries currently in the quarantine pen.
    #[must_use]
    pub fn quarantined_files(&self) -> usize {
        std::fs::read_dir(self.inner.root.join("quarantine"))
            .map(|rd| rd.filter_map(Result::ok).count())
            .unwrap_or(0)
    }

    /// Snapshot the store-wide counters (shared across every derived
    /// handle).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let load = |i: usize| self.inner.stats[i].load(Ordering::Relaxed);
        CacheStats {
            hits: load(S_HITS),
            misses: load(S_MISSES),
            stores: load(S_STORES),
            quarantined: load(S_QUARANTINED),
            bytes_read: load(S_BYTES_READ),
            bytes_written: load(S_BYTES_WRITTEN),
            evicted: load(S_EVICTED),
        }
    }

    fn count(&self, slot: usize, n: u64, counter: CounterId, metric_n: u64) {
        self.inner.stats[slot].fetch_add(n, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            if slot == S_STORES {
                // Stores have no dedicated CounterId; bytes were already
                // mirrored by the bytes-written count.
            } else {
                m.add(counter, metric_n);
            }
        }
    }
}

/// `(file name, size)` of every `.jvc` entry in a plane directory.
/// Temp files and quarantine debris are invisible to sizing and eviction.
fn plane_entries(dir: &Path) -> Vec<(String, u64)> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    rd.filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            if !name.ends_with(".jvc") {
                return None;
            }
            let size = e.metadata().ok()?.len();
            Some((name, size))
        })
        .collect()
}

/// Verify an entry against the requested `(plane, key)`; returns the
/// payload's byte range on success.
fn verify_entry(bytes: &[u8], plane: Plane, key: &CacheKey) -> Option<std::ops::Range<usize>> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    if bytes[0..4] != ENTRY_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != CACHE_SCHEMA_VERSION {
        return None;
    }
    if bytes[8] != plane.tag() {
        return None;
    }
    if bytes[9..41] != key.digest().0 {
        return None;
    }
    let stored_payload_digest: [u8; 32] = bytes[41..73].try_into().ok()?;
    let len = u64::from_le_bytes(bytes[73..81].try_into().ok()?);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != len {
        return None;
    }
    if Digest::of(payload).0 != stored_payload_digest {
        return None;
    }
    Some(HEADER_LEN..bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_faults::FaultPlan;

    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "jvmsim-cache-test-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(s: &str) -> CacheKey {
        let mut k = KeyHasher::new("test");
        k.field_str("name", s);
        k.finish()
    }

    #[test]
    fn roundtrip_and_stats() {
        let store = CacheStore::open(scratch("roundtrip")).unwrap();
        let k = key("a");
        assert_eq!(store.lookup(Plane::Instrumentation, &k), None);
        store
            .store(Plane::Instrumentation, &k, b"instrumented bytes")
            .unwrap();
        assert_eq!(
            store.lookup(Plane::Instrumentation, &k).as_deref(),
            Some(b"instrumented bytes".as_slice())
        );
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.quarantined), (1, 1, 1, 0));
        assert_eq!(s.bytes_read, 18);
        assert_eq!(s.bytes_written, 18);
    }

    #[test]
    fn planes_are_separate_namespaces() {
        let store = CacheStore::open(scratch("planes")).unwrap();
        let k = key("same");
        store.store(Plane::Instrumentation, &k, b"instr").unwrap();
        assert_eq!(store.lookup(Plane::CellResult, &k), None);
        assert!(store.lookup(Plane::Instrumentation, &k).is_some());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let store = CacheStore::open(scratch("empty")).unwrap();
        let k = key("empty");
        store.store(Plane::CellResult, &k, b"").unwrap();
        assert_eq!(
            store.lookup(Plane::CellResult, &k).as_deref(),
            Some(&[][..])
        );
    }

    #[test]
    fn every_single_byte_corruption_is_caught_and_quarantined() {
        let store = CacheStore::open(scratch("corrupt")).unwrap();
        let k = key("victim");
        let payload = b"deterministic cell result row";
        store.store(Plane::CellResult, &k, payload).unwrap();
        let path = store.entry_path(Plane::CellResult, &k);
        let pristine = std::fs::read(&path).unwrap();
        for idx in 0..pristine.len() {
            let mut evil = pristine.clone();
            evil[idx] ^= 0x5A;
            std::fs::write(&path, &evil).unwrap();
            assert_eq!(
                store.lookup(Plane::CellResult, &k),
                None,
                "corrupt byte {idx} was served"
            );
            // The poisoned entry was moved out of the way…
            assert!(!path.exists(), "corrupt byte {idx} left in place");
            // …and recompute + re-store works.
            store.store(Plane::CellResult, &k, payload).unwrap();
            assert_eq!(
                store.lookup(Plane::CellResult, &k).as_deref(),
                Some(&payload[..])
            );
        }
        let s = store.stats();
        assert_eq!(s.quarantined, pristine.len() as u64);
        assert_eq!(store.quarantined_files(), pristine.len());
    }

    #[test]
    fn truncated_and_garbage_entries_never_verify() {
        let store = CacheStore::open(scratch("garbage")).unwrap();
        let k = key("g");
        store.store(Plane::Instrumentation, &k, b"payload").unwrap();
        let path = store.entry_path(Plane::Instrumentation, &k);
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(store.lookup(Plane::Instrumentation, &k), None, "cut {cut}");
            store.store(Plane::Instrumentation, &k, b"payload").unwrap();
        }
        std::fs::write(&path, b"not a cache entry at all").unwrap();
        assert_eq!(store.lookup(Plane::Instrumentation, &k), None);
    }

    #[test]
    fn fault_injected_corruption_degrades_to_recompute() {
        let store = CacheStore::open(scratch("chaos")).unwrap();
        // Rate PPM: the site fires on every consultation.
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(7).with_rate(FaultSite::CacheCorrupt, jvmsim_faults::PPM),
        ));
        let chaotic = store.with_faults(Arc::clone(&inj));
        let k = key("chaos");
        chaotic.store(Plane::Instrumentation, &k, b"bytes").unwrap();
        assert_eq!(chaotic.lookup(Plane::Instrumentation, &k), None);
        assert_eq!(inj.injected(FaultSite::CacheCorrupt), 1);
        assert_eq!(store.stats().quarantined, 1);
        // The plain handle (no injector) still works after recompute.
        store.store(Plane::Instrumentation, &k, b"bytes").unwrap();
        assert_eq!(
            store.lookup(Plane::Instrumentation, &k).as_deref(),
            Some(b"bytes".as_slice())
        );
    }

    #[test]
    fn metrics_shard_mirrors_cache_traffic() {
        let registry = jvmsim_metrics::MetricsRegistry::new();
        let store = CacheStore::open(scratch("metrics"))
            .unwrap()
            .with_metrics(registry.global());
        let k = key("m");
        assert!(store.lookup(Plane::CellResult, &k).is_none());
        store.store(Plane::CellResult, &k, b"row").unwrap();
        assert!(store.lookup(Plane::CellResult, &k).is_some());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterId::CacheHits), 1);
        assert_eq!(snap.counter(CounterId::CacheMisses), 1);
        assert_eq!(snap.counter(CounterId::CacheBytes), 6, "3 written + 3 read");
        assert_eq!(snap.counter(CounterId::CacheQuarantined), 0);
    }

    #[test]
    fn key_hasher_is_deterministic_and_field_sensitive() {
        let mk = |domain: &str, name: &str, v: u64| {
            let mut k = KeyHasher::new(domain);
            k.field_str("name", name);
            k.field_u64("v", v);
            k.finish()
        };
        assert_eq!(mk("d", "x", 1), mk("d", "x", 1));
        assert_ne!(mk("d", "x", 1), mk("d", "x", 2));
        assert_ne!(mk("d", "x", 1), mk("e", "x", 1));
        // Length prefixes: ("ab","c") must not collide with ("a","bc").
        let mut a = KeyHasher::new("d");
        a.field_str("ab", "c");
        let mut b = KeyHasher::new("d");
        b.field_str("a", "bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn schema_version_bump_orphans_old_entries_without_quarantine() {
        let store = CacheStore::open(scratch("schema")).unwrap();
        // Fabricate a pre-bump entry exactly as the previous schema wrote
        // it: key derived with the old version, header carrying it too.
        let old_version = CACHE_SCHEMA_VERSION - 1;
        let mut k1 = KeyHasher::with_version("cell-result", old_version);
        k1.field_str("workload", "compress");
        let old_key = k1.finish();
        let payload = b"pre-bump row bytes";
        let mut entry = Vec::new();
        entry.extend_from_slice(&ENTRY_MAGIC);
        entry.extend_from_slice(&old_version.to_le_bytes());
        entry.push(Plane::CellResult.tag());
        entry.extend_from_slice(&old_key.digest().0);
        entry.extend_from_slice(&Digest::of(payload).0);
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(payload);
        std::fs::write(store.entry_path(Plane::CellResult, &old_key), &entry).unwrap();

        // The same logical identity under the current schema derives a
        // different key, so the lookup is a clean miss: the stale entry
        // is never opened, so nothing is served and nothing is
        // quarantined — version bumps must not masquerade as corruption.
        let mut k2 = KeyHasher::new("cell-result");
        k2.field_str("workload", "compress");
        let new_key = k2.finish();
        assert_ne!(old_key, new_key);
        assert_eq!(store.lookup(Plane::CellResult, &new_key), None);
        let s = store.stats();
        assert_eq!((s.hits, s.quarantined), (0, 0));
        assert_eq!(s.misses, 1);
        assert!(store.entry_path(Plane::CellResult, &old_key).exists());
    }

    #[test]
    fn eviction_bounds_plane_size_and_keeps_latest_store() {
        let store = CacheStore::open(scratch("evict")).unwrap();
        // Entry file = 81-byte header + payload; 400 bytes holds two
        // 100-byte-payload entries but not three.
        let bounded = store.with_eviction_limit(400);
        assert_eq!(bounded.eviction_limit(), Some(400));
        let payload = [7u8; 100];
        for name in ["a", "b", "c", "d"] {
            bounded
                .store(Plane::CellResult, &key(name), &payload)
                .unwrap();
            assert!(
                bounded.plane_size(Plane::CellResult) <= 400,
                "plane grew past the bound after storing {name}"
            );
            // The entry just written always survives its own compaction.
            assert!(
                bounded.lookup(Plane::CellResult, &key(name)).is_some(),
                "store of {name} self-evicted"
            );
        }
        let s = store.stats();
        assert!(s.evicted >= 2, "expected evictions, saw {}", s.evicted);
        assert_eq!(s.quarantined, 0, "eviction must not look like corruption");
        // An evicted identity is a plain miss: recompute-and-store works.
        let survivors = ["a", "b", "c", "d"]
            .iter()
            .filter(|n| bounded.lookup(Plane::CellResult, &key(n)).is_some())
            .count();
        assert!(survivors <= 2, "bound admits at most two entries");
        // The unbounded handle shares the directory but never compacts.
        store.store(Plane::CellResult, &key("e"), &payload).unwrap();
        store.store(Plane::CellResult, &key("f"), &payload).unwrap();
        assert!(store.plane_size(Plane::CellResult) > 400);
        // Explicit compaction brings it back under.
        store.compact_plane(Plane::CellResult, 400);
        assert!(store.plane_size(Plane::CellResult) <= 400);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let store = CacheStore::open(scratch("evict-det")).unwrap();
            let payload = [1u8; 64];
            for name in ["w", "x", "y", "z"] {
                store
                    .store(Plane::Instrumentation, &key(name), &payload)
                    .unwrap();
            }
            store.compact_plane(Plane::Instrumentation, 300);
            let mut alive: Vec<&str> = ["w", "x", "y", "z"]
                .into_iter()
                .filter(|n| store.lookup(Plane::Instrumentation, &key(n)).is_some())
                .collect();
            alive.sort_unstable();
            alive
        };
        assert_eq!(run(), run(), "same contents must evict the same keys");
    }

    #[test]
    fn eviction_mirrors_into_metrics() {
        let registry = jvmsim_metrics::MetricsRegistry::new();
        let store = CacheStore::open(scratch("evict-metrics"))
            .unwrap()
            .with_metrics(registry.global())
            .with_eviction_limit(200);
        let payload = [2u8; 80];
        for name in ["p", "q", "r"] {
            store
                .store(Plane::CellResult, &key(name), &payload)
                .unwrap();
        }
        let evicted = registry.snapshot().counter(CounterId::ClusterEvictions);
        assert_eq!(evicted, store.stats().evicted);
        assert!(evicted >= 1, "limit 200 cannot hold two 161-byte entries");
    }

    #[test]
    fn derived_handles_share_stats() {
        let store = CacheStore::open(scratch("shared")).unwrap();
        let registry = jvmsim_metrics::MetricsRegistry::new();
        let scoped = store.with_metrics(registry.global());
        let k = key("s");
        scoped.store(Plane::Instrumentation, &k, b"x").unwrap();
        assert!(store.lookup(Plane::Instrumentation, &k).is_some());
        assert_eq!(store.stats().stores, 1);
        assert_eq!(scoped.stats().hits, 1);
    }
}
