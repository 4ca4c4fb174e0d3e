//! # jvmsim-instr — bytecode instrumentation (the ASM analog)
//!
//! The paper's static-instrumentation tool is "based on ASM; it processes
//! individual class files or archives of class files", and was applied to
//! the whole JDK (§IV). This crate is that tool for the jvmsim world:
//!
//! * a composable [transform framework][crate::transform] over decoded
//!   classes or raw bytes,
//! * the paper's Fig. 2 [native-wrapper transform][crate::native_wrapper]
//!   (rename natives with a prefix, add try/finally wrappers calling the
//!   agent bridge),
//! * the [bridge class generator][crate::bridge] (§IV's "special class
//!   excluded from instrumentation"),
//! * an [`Archive`] container with whole-archive instrumentation — the
//!   `rt.jar` pipeline.
//!
//! ```
//! use jvmsim_instr::{Archive, NativeWrapperTransform};
//! use jvmsim_classfile::builder::ClassBuilder;
//! use jvmsim_classfile::MethodFlags;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cb = ClassBuilder::new("app/Codec");
//! cb.native_method("crc", "([II)I", MethodFlags::STATIC)?;
//! let mut archive = Archive::new();
//! archive.insert_class(&cb.finish()?)?;
//!
//! let report = archive.instrument(&NativeWrapperTransform::new())?;
//! assert_eq!(report.classes_instrumented, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod bridge;
mod error;
pub mod native_wrapper;
pub mod transform;

pub use archive::{instrumentation_cache_key, Archive, ArchiveReport};
pub use bridge::bridge_class;
pub use error::InstrError;
pub use native_wrapper::{NativeWrapperTransform, WrapperConfig, DEFAULT_BRIDGE, DEFAULT_PREFIX};
pub use transform::{apply_to_bytes, ClassTransform, TransformStats};
