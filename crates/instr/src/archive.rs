//! Class archives — the `rt.jar` analog.
//!
//! The paper's tool "processes individual class files or archives of class
//! files" and was applied to the whole JDK (`rt.jar`), with the rewritten
//! archive prepended via `-Xbootclasspath/p:` (§IV). [`Archive`] is the
//! corresponding container: an ordered set of `(class name, bytes)` entries
//! with a binary serialization, plus [`Archive::instrument`] as the
//! whole-archive driver.

use std::collections::HashMap;

use jvmsim_classfile::{codec, ClassFile};

use crate::error::InstrError;
use crate::transform::{apply_to_bytes, ClassTransform};

/// Archive file magic: `"JVMA"`.
pub const ARCHIVE_MAGIC: u32 = 0x4A56_4D41;

/// Report from instrumenting an archive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveReport {
    /// Classes examined.
    pub classes_seen: usize,
    /// Classes actually rewritten.
    pub classes_instrumented: usize,
    /// Methods touched across all rewritten classes.
    pub methods_touched: usize,
}

/// An ordered collection of serialized classfiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Archive {
    entries: Vec<(String, Vec<u8>)>,
    index: HashMap<String, usize>,
}

impl Archive {
    /// Empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(name, bytes)` pairs.
    ///
    /// # Errors
    ///
    /// [`InstrError::Archive`] on duplicate class names.
    pub fn from_entries<I: IntoIterator<Item = (String, Vec<u8>)>>(
        entries: I,
    ) -> Result<Self, InstrError> {
        let mut a = Archive::new();
        for (name, bytes) in entries {
            a.insert_bytes(name, bytes)?;
        }
        Ok(a)
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the archive empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add serialized classfile bytes.
    ///
    /// # Errors
    ///
    /// [`InstrError::Archive`] on a duplicate name.
    pub fn insert_bytes(&mut self, name: String, bytes: Vec<u8>) -> Result<(), InstrError> {
        if self.index.contains_key(&name) {
            return Err(InstrError::Archive(format!("duplicate class {name}")));
        }
        self.index.insert(name.clone(), self.entries.len());
        self.entries.push((name, bytes));
        Ok(())
    }

    /// Add a class by encoding it.
    ///
    /// # Errors
    ///
    /// [`InstrError::Archive`] on a duplicate name.
    pub fn insert_class(&mut self, class: &ClassFile) -> Result<(), InstrError> {
        self.insert_bytes(class.name().to_owned(), codec::encode(class))
    }

    /// Bytes for a class, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.index.get(name).map(|&i| self.entries[i].1.as_slice())
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.entries.iter().map(|(n, b)| (n.as_str(), b.as_slice()))
    }

    /// Apply `transform` to every class in place — the paper's static
    /// instrumentation step. Classes the transform leaves unchanged keep
    /// their original bytes.
    ///
    /// # Errors
    ///
    /// Propagates the first [`InstrError`]; the archive is left in its
    /// pre-call state in that case.
    pub fn instrument(
        &mut self,
        transform: &dyn ClassTransform,
    ) -> Result<ArchiveReport, InstrError> {
        let mut report = ArchiveReport::default();
        // Stage replacements per index so a mid-archive failure leaves the
        // archive untouched, without cloning every unchanged entry.
        let mut replacements = Vec::new();
        for (i, (_, bytes)) in self.entries.iter().enumerate() {
            report.classes_seen += 1;
            if let Some(rewritten) = apply_to_bytes(transform, bytes)? {
                replacements.push((i, rewritten));
            }
        }
        for (i, (bytes, stats)) in replacements {
            self.entries[i].1 = bytes;
            report.classes_instrumented += 1;
            report.methods_touched += stats.methods_touched;
        }
        Ok(report)
    }

    /// Content digest of the archive: the SHA-256 of its serialized form.
    /// Entry order is part of the identity (it is part of [`to_bytes`]),
    /// so two archives are digest-equal iff they are byte-equal on disk —
    /// the property the content-addressed cache keys on.
    ///
    /// [`to_bytes`]: Archive::to_bytes
    pub fn digest(&self) -> jvmsim_cache::Digest {
        jvmsim_cache::Digest::of(&self.to_bytes())
    }

    /// Serialize the whole archive to one binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&ARCHIVE_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (name, bytes) in &self.entries {
            let nb = name.as_bytes();
            out.extend_from_slice(&(nb.len() as u16).to_le_bytes());
            out.extend_from_slice(nb);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Deserialize an archive blob.
    ///
    /// # Errors
    ///
    /// [`InstrError::Archive`] on truncation or magic mismatch.
    pub fn from_bytes(data: &[u8]) -> Result<Self, InstrError> {
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], InstrError> {
            if *pos + n > data.len() {
                return Err(InstrError::Archive(format!(
                    "truncated archive at offset {pos}"
                )));
            }
            let s = &data[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let mut pos = 0;
        let magic = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if magic != ARCHIVE_MAGIC {
            return Err(InstrError::Archive(format!("bad magic 0x{magic:08X}")));
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut archive = Archive::new();
        for _ in 0..count {
            let nlen = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(&mut pos, nlen)?.to_vec())
                .map_err(|e| InstrError::Archive(format!("bad class name: {e}")))?;
            let blen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let bytes = take(&mut pos, blen)?.to_vec();
            archive.insert_bytes(name, bytes)?;
        }
        if pos != data.len() {
            return Err(InstrError::Archive("trailing bytes".into()));
        }
        Ok(archive)
    }
}

impl IntoIterator for Archive {
    type Item = (String, Vec<u8>);
    type IntoIter = std::vec::IntoIter<(String, Vec<u8>)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// The instrumentation-plane cache key for running the native-wrapper
/// transform over `input` with `config`: the digest of the input archive
/// bytes plus the wrapper configuration (and nothing else — deliberately
/// not the workload, size, agent, or fault seed, so every suite cell and
/// every chaos seed that instruments the same bytes shares one entry).
pub fn instrumentation_cache_key(
    input: &Archive,
    config: &crate::native_wrapper::WrapperConfig,
) -> jvmsim_cache::CacheKey {
    let mut k = jvmsim_cache::KeyHasher::new("instr-archive");
    k.field_str("transform", "native-wrapper");
    k.field_digest("archive", input.digest());
    k.field_digest("config", config.digest());
    k.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native_wrapper::NativeWrapperTransform;
    use jvmsim_classfile::builder::ClassBuilder;
    use jvmsim_classfile::MethodFlags;

    fn sample_archive() -> Archive {
        let mut a = Archive::new();
        let mut cb = ClassBuilder::new("t/WithNat");
        cb.native_method("n", "()V", MethodFlags::STATIC).unwrap();
        a.insert_class(&cb.finish().unwrap()).unwrap();
        let mut cb = ClassBuilder::new("t/Plain");
        let mut m = cb.method("f", "()V", MethodFlags::STATIC);
        m.ret_void();
        m.finish().unwrap();
        a.insert_class(&cb.finish().unwrap()).unwrap();
        a
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut a = sample_archive();
        let mut cb = ClassBuilder::new("t/Plain");
        let mut m = cb.method("g", "()V", MethodFlags::STATIC);
        m.ret_void();
        m.finish().unwrap();
        assert!(matches!(
            a.insert_class(&cb.finish().unwrap()),
            Err(InstrError::Archive(_))
        ));
    }

    #[test]
    fn instrument_touches_only_native_declaring_classes() {
        let mut a = sample_archive();
        let plain_before = a.get("t/Plain").unwrap().to_vec();
        let report = a.instrument(&NativeWrapperTransform::new()).unwrap();
        assert_eq!(report.classes_seen, 2);
        assert_eq!(report.classes_instrumented, 1);
        assert_eq!(report.methods_touched, 1);
        assert_eq!(a.get("t/Plain").unwrap(), plain_before.as_slice());
        let rewritten = codec::decode(a.get("t/WithNat").unwrap()).unwrap();
        assert!(rewritten.find_method("$$nativeprof$$n", "()V").is_some());
    }

    #[test]
    fn binary_round_trip() {
        let a = sample_archive();
        let blob = a.to_bytes();
        let b = Archive::from_bytes(&blob).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_blob_rejected() {
        let a = sample_archive();
        let mut blob = a.to_bytes();
        blob[0] ^= 0xFF;
        assert!(Archive::from_bytes(&blob).is_err());
        let blob = a.to_bytes();
        assert!(Archive::from_bytes(&blob[..blob.len() - 2]).is_err());
        let mut blob = a.to_bytes();
        blob.push(7);
        assert!(Archive::from_bytes(&blob).is_err());
    }

    #[test]
    fn get_and_iterate() {
        let a = sample_archive();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(a.get("t/WithNat").is_some());
        assert!(a.get("t/Missing").is_none());
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["t/WithNat", "t/Plain"]);
    }

    #[test]
    fn digest_is_content_identity() {
        let a = sample_archive();
        let b = sample_archive();
        assert_eq!(a.digest(), b.digest());
        let mut c = sample_archive();
        c.instrument(&NativeWrapperTransform::new()).unwrap();
        assert_ne!(a.digest(), c.digest(), "instrumentation changes identity");
        // Digest pins the serialized form exactly.
        assert_eq!(a.digest(), jvmsim_cache::Digest::of(&a.to_bytes()));
    }

    #[test]
    fn instrumentation_cache_key_separates_inputs_and_configs() {
        use crate::native_wrapper::WrapperConfig;
        let a = sample_archive();
        let cfg = WrapperConfig::default();
        assert_eq!(
            instrumentation_cache_key(&a, &cfg),
            instrumentation_cache_key(&a, &cfg)
        );
        let other_cfg = WrapperConfig {
            prefix: "$$other$$".into(),
            ..Default::default()
        };
        assert_ne!(
            instrumentation_cache_key(&a, &cfg),
            instrumentation_cache_key(&a, &other_cfg)
        );
        let mut instrumented = sample_archive();
        instrumented
            .instrument(&NativeWrapperTransform::new())
            .unwrap();
        assert_ne!(
            instrumentation_cache_key(&a, &cfg),
            instrumentation_cache_key(&instrumented, &cfg)
        );
    }
}
