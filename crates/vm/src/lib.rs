//! # jvmsim-vm — the simulated JVM
//!
//! A deterministic, cycle-accounted JVM: bytecode interpreter with
//! an invocation-counter [JIT model][cost], an object [heap], run-to-
//! completion green threads, a JNI analog ([native libraries, symbol
//! mangling, `JNIEnv`][jni] and the interceptable 90-entry
//! [`Call*Method*` function table][jni::table]), low-level
//! [event hooks][events] for the JVMTI layer, and a bootstrap
//! [class library][builtins] whose core methods are native — just like the
//! JDK's.
//!
//! Time is virtual: every instruction, call, allocation, transition and
//! event charges cycles to the running thread's clock on its
//! [`ThreadInfo`] record (published to [`jvmsim_pcl`] when the thread
//! ends), so the measurements the paper's agents take are exact and
//! reproducible.
//!
//! ```
//! use jvmsim_classfile::builder::ClassBuilder;
//! use jvmsim_classfile::MethodFlags;
//! use jvmsim_vm::{builtins, Value, Vm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A class whose main method calls a native JDK method (Math.sqrt).
//! let mut cb = ClassBuilder::new("demo/Main");
//! let mut m = cb.method("main", "()F", MethodFlags::STATIC);
//! m.fconst(2.0)
//!     .invokestatic("java/lang/Math", "sqrt", "(F)F")
//!     .freturn();
//! m.finish()?;
//!
//! let mut vm = Vm::new();
//! builtins::install(&mut vm);
//! vm.add_classfile(&cb.finish()?);
//! let outcome = vm.run("demo/Main", "main", "()F", vec![])?;
//! match outcome.main.unwrap() {
//!     Value::Float(x) => assert!((x - 2f64.sqrt()).abs() < 1e-12),
//!     other => panic!("unexpected {other:?}"),
//! }
//! // The native sqrt left a J2N transition in the ground-truth counters.
//! assert_eq!(outcome.stats.native_calls, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtins;
pub mod cost;
mod error;
pub mod events;
pub mod heap;
mod interp;
pub mod jni;
pub mod klass;
pub(crate) mod prepared;
mod throw;
mod value;
mod vm;

pub use cost::CostModel;
pub use error::VmError;
pub use events::{
    AllocationView, EventMask, MethodView, NullSink, ThreadId, TraceEventKind, TraceSink,
    VmEventSink,
};
pub use jni::{JniEnv, NativeLibrary};
pub use jvmsim_tiers::{ParseTiersModeError, Tier, TiersMode};
pub use klass::{ClassId, MethodId, Sym};
pub use throw::{ExceptionInfo, JThrow};
pub use value::{ObjRef, Value};
pub use vm::{BucketScope, RunOutcome, ThreadInfo, ThreadOutcome, TlsSlot, Vm, VmStats};
