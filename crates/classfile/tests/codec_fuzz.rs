//! Codec and validator robustness under arbitrary corruption: `decode`
//! must return `Err` — never panic, never hang — for any mutation of a
//! valid encoded class, and a mutant that does decode must go through
//! `validate_class` without panicking either. This is the contract the
//! VM's fault plane relies on when it truncates classfile bytes mid-load:
//! a corrupt class becomes a Java linkage error, not a simulator crash.
//! When a mutant is valid, its facts give every body one entry depth per
//! instruction, none above the declared `max_stack`: the VM lays out
//! frame slots from those depths.

use proptest::prelude::*;

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{codec, validate, Cond, MethodFlags};

const ST: MethodFlags = MethodFlags::PUBLIC.with(MethodFlags::STATIC);

/// A representative class: constant pool strings, a native method, a
/// branching method with an exception table — every section of the
/// binary format is populated.
fn sample_class_bytes() -> Vec<u8> {
    let mut cb = ClassBuilder::new("fuzz/Sample");
    cb.native_method("nat", "(I)I", ST).unwrap();
    let mut m = cb.method("run", "(I)I", ST);
    let start = m.new_label();
    let end = m.new_label();
    let handler = m.new_label();
    let done = m.new_label();
    m.bind(start);
    m.iload(0).if_(Cond::Le, done);
    m.iload(0)
        .invokestatic("fuzz/Sample", "nat", "(I)I")
        .istore(0);
    m.ldc_str("marker").pop();
    m.goto(start);
    m.bind(end);
    m.bind(handler);
    m.pop();
    m.bind(done);
    m.iload(0).ireturn();
    m.try_region(start, end, handler, None);
    m.finish().unwrap();
    codec::encode(&cb.finish().unwrap())
}

/// Decode `bytes`; if that succeeds, re-encode and validate the class,
/// and check a valid class's facts against its bodies. Returns whether
/// the bytes decoded to a valid class.
fn decode_and_validate(bytes: &[u8]) -> bool {
    let Ok(class) = codec::decode(bytes) else {
        return false;
    };
    let _ = codec::encode(&class);
    let Ok(facts) = validate::validate_class(&class) else {
        return false;
    };
    assert_eq!(facts.len(), class.methods().len(), "one fact per method");
    for (m, f) in class.methods().iter().zip(&facts) {
        match (&m.code, f) {
            (Some(code), Some(f)) => {
                assert_eq!(f.depths.len(), code.insns.len(), "{}", m.name());
                assert!(
                    f.depths.iter().flatten().all(|&d| d <= code.max_stack),
                    "{}: depths {:?} over max_stack {}",
                    m.name(),
                    f.depths,
                    code.max_stack
                );
            }
            (None, None) => {}
            _ => panic!("{}: facts disagree with the body", m.name()),
        }
    }
    true
}

#[test]
fn sample_round_trips() {
    let bytes = sample_class_bytes();
    let class = codec::decode(&bytes).expect("valid class decodes");
    assert_eq!(class.name(), "fuzz/Sample");
    assert_eq!(codec::encode(&class), bytes, "round trip is byte-stable");
    assert!(decode_and_validate(&bytes), "the sample is valid");
}

#[test]
fn every_single_byte_mutant_validates_without_panic() {
    let bytes = sample_class_bytes();
    let mut valid = 0;
    for pos in 0..bytes.len() {
        for value in 0..=u8::MAX {
            let mut mutant = bytes.clone();
            mutant[pos] = value;
            valid += usize::from(decode_and_validate(&mutant));
        }
    }
    // Each position's identity edit at least.
    assert!(valid >= bytes.len(), "{valid} valid mutants");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_never_panics(cut in 0usize..2048) {
        let bytes = sample_class_bytes();
        let cut = cut % bytes.len(); // every strict prefix
        prop_assert!(
            codec::decode(&bytes[..cut]).is_err(),
            "a strict prefix must not decode"
        );
    }

    #[test]
    fn single_byte_mutation_never_panics(pos in 0usize..2048, value in any::<u8>()) {
        let mut bytes = sample_class_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = value;
        // A mutated class may still decode (e.g. a flipped bit inside a
        // string constant) — the contract is only "no panic, and if Ok,
        // neither re-encoding nor validation panics".
        decode_and_validate(&bytes);
    }

    #[test]
    fn multi_edit_mutation_never_panics(
        edits in prop::collection::vec((0usize..2048, any::<u8>()), 1..32),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = sample_class_bytes();
        for (pos, value) in edits {
            let pos = pos % bytes.len();
            bytes[pos] = value;
        }
        bytes.extend_from_slice(&tail);
        decode_and_validate(&bytes);
    }

    #[test]
    fn arbitrary_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        decode_and_validate(&bytes);
    }
}
