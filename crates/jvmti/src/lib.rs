//! # jvmsim-jvmti — the JVM Tool Interface analog
//!
//! The JVMTI surface the paper's agents are written against (§II-B):
//! [capabilities][caps] gating [events][EventType],
//! [thread-local storage][tls], [raw monitors][monitor], JNI function
//! interception and native-method prefixing (both via
//! [`AgentHost`]), and the attach protocol ([`attach`]).
//!
//! The event set and its callbacks are the VM's own [`EventType`] and
//! [`VmEventSink`], re-exported here: an [`Agent`] *is* a `VmEventSink`
//! plus `on_load`, and [`attach`] installs it as the VM's sink. The VM
//! delivers a callback only if the agent enabled its event, so each event
//! costs one virtual call.
//!
//! Faithfully reproduced warts:
//!
//! * requesting method entry/exit events **disables JIT compilation** for
//!   the run (the behaviour that makes SPA unusable, §III/§V-A);
//! * no `ThreadStart` is delivered for the primordial thread, so agents
//!   must lazily allocate thread contexts
//!   ([`tls::ThreadLocalStorage::with_or_insert`]);
//! * every TLS access, timestamp read and raw-monitor entry charges cycles
//!   to the acting thread — agent overhead is measured, not free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caps;
pub mod env;
mod error;
pub mod monitor;
pub mod tls;

pub use caps::Capabilities;
pub use env::{attach, Agent, AgentHost, JvmtiEnv, ProbeKind, ProbeSpan};
pub use error::JvmtiError;
pub use jvmsim_vm::{EventType, VmEventSink};
pub use monitor::{LedgerSnapshot, MonitorGuard, MonitorLedger, MonitorRow, RawMonitor};
pub use tls::ThreadLocalStorage;
