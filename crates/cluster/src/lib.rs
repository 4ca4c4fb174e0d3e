//! `jvmsim-cluster`: fault-tolerant sharded serving over `jvmsim-serve`.
//!
//! One daemon memoizes; a fleet must also *agree* — on who owns each
//! row, on what a served byte means after a member dies, and on how much
//! work a failure is allowed to cost. This crate makes that agreement
//! concrete, one module each:
//!
//! * [`ring`] — consistent-hash routing of run identity: the existing
//!   result-cache digest is the shard key, members own virtual nodes on
//!   a 64-bit ring, and a death moves only the dead member's share.
//! * [`fleet`] — N in-process [`jvmsim_serve`] daemons behind one
//!   shared peer directory, with health-check-driven quarantine,
//!   kill/rejoin across member generations, and admission-ledger
//!   accounting that survives death (each life's final ledger is
//!   captured and must balance on its own).
//! * [`drill`] — the `jprof cluster` kill/rejoin drill: three passes
//!   over the workload × agent matrix asserting byte-identity against
//!   the batch driver, exactly-once compute under health, balanced
//!   ledgers on every life, and stores under the eviction bound.
//!
//! Everything is seeded: the kill schedule, the peer-transport fault
//! plans, and the retry jitter all derive from one `u64`, so a failing
//! drill replays exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drill;
pub mod fleet;
pub mod ring;

pub use drill::{cluster_drill, ClusterDrillConfig, ClusterDrillReport};
pub use fleet::{Cluster, ClusterConfig};
pub use ring::{key_of, HashRing, DEFAULT_VNODES};
