//! The transform framework: composable class rewrites over decoded trees or
//! raw bytes, in the style of ASM's visitor pipelines.

use jvmsim_classfile::{codec, validate, ClassFile};

use crate::error::InstrError;

/// Outcome of applying a transform to one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformStats {
    /// Did the transform change the class at all?
    pub changed: bool,
    /// Number of methods the transform touched (wrapped, renamed, hooked…).
    pub methods_touched: usize,
}

/// A class-to-class rewrite.
///
/// Implementations must produce classes that still pass
/// [`jvmsim_classfile::validate::validate_class`]; the byte-level driver
/// re-validates and fails loudly otherwise.
pub trait ClassTransform {
    /// Short human-readable name for reports.
    fn name(&self) -> &str;

    /// Rewrite `class` in place, returning what happened.
    ///
    /// # Errors
    ///
    /// Returns [`InstrError`] when the class cannot be rewritten.
    fn apply(&self, class: &mut ClassFile) -> Result<TransformStats, InstrError>;
}

/// Apply a transform to serialized classfile bytes: decode → rewrite →
/// validate → encode. Returns the rewritten bytes with what the transform
/// did, or `None` when it left the class unchanged (so callers can keep
/// the original bytes — the fast path the paper's tool takes for classes
/// without native methods). Both instrumentation paths run through here:
/// [`crate::Archive::instrument`] statically, per entry, and a
/// `ClassFileLoadHook` dynamically, per loaded class.
///
/// # Errors
///
/// Returns [`InstrError`] on decode failure, transform failure, or if the
/// transform produced an invalid class.
pub fn apply_to_bytes(
    transform: &dyn ClassTransform,
    bytes: &[u8],
) -> Result<Option<(Vec<u8>, TransformStats)>, InstrError> {
    let mut class = codec::decode(bytes)?;
    let stats = transform.apply(&mut class)?;
    if !stats.changed {
        return Ok(None);
    }
    validate::validate_class(&class).map_err(|e| InstrError::Transform {
        class: class.name().to_owned(),
        reason: format!(
            "transform {} produced an invalid class: {e}",
            transform.name()
        ),
    })?;
    Ok(Some((codec::encode(&class), stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_classfile::builder::single_method_class;

    struct Rename(String);
    impl ClassTransform for Rename {
        fn name(&self) -> &str {
            "rename-method"
        }
        fn apply(&self, class: &mut ClassFile) -> Result<TransformStats, InstrError> {
            let mut touched = 0;
            for m in class.methods_mut() {
                if m.name() == "old" {
                    m.set_name(self.0.clone());
                    touched += 1;
                }
            }
            Ok(TransformStats {
                changed: touched > 0,
                methods_touched: touched,
            })
        }
    }

    fn sample_bytes() -> Vec<u8> {
        let class = single_method_class("t/S", "old", "()I", |m| {
            m.iconst(3).ireturn();
        })
        .unwrap();
        codec::encode(&class)
    }

    #[test]
    fn bytes_round_trip_when_changed() {
        let (out, stats) = apply_to_bytes(&Rename("new".into()), &sample_bytes())
            .unwrap()
            .expect("changed");
        assert_eq!(stats.methods_touched, 1);
        let class = codec::decode(&out).unwrap();
        assert!(class.find_method("new", "()I").is_some());
        assert!(class.find_method("old", "()I").is_none());
    }

    #[test]
    fn unchanged_class_returns_none() {
        let out = apply_to_bytes(&Rename("whatever".into()), &{
            let class = single_method_class("t/S", "other", "()I", |m| {
                m.iconst(3).ireturn();
            })
            .unwrap();
            codec::encode(&class)
        })
        .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn corrupt_bytes_error() {
        assert!(matches!(
            apply_to_bytes(&Rename("x".into()), &[1, 2, 3]),
            Err(InstrError::Classfile(_))
        ));
    }

    #[test]
    fn invalid_output_is_rejected() {
        struct Corrupt;
        impl ClassTransform for Corrupt {
            fn name(&self) -> &str {
                "corrupt"
            }
            fn apply(&self, class: &mut ClassFile) -> Result<TransformStats, InstrError> {
                // Break the method body: declare native while keeping code.
                for m in class.methods_mut() {
                    m.flags |= jvmsim_classfile::MethodFlags::NATIVE;
                }
                Ok(TransformStats {
                    changed: true,
                    methods_touched: 1,
                })
            }
        }
        let err = apply_to_bytes(&Corrupt, &sample_bytes()).unwrap_err();
        assert!(matches!(err, InstrError::Transform { .. }), "{err}");
    }
}
