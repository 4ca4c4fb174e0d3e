//! `compress` — LZW-style block codec (SPEC JVM98 `_201_compress` analog).
//!
//! Reads pseudo-file blocks through the native I/O layer, runs two
//! dictionary-hashing compression passes over each block in bytecode, then
//! checksums the block with a **native CRC** and writes it back. Native
//! code is confined to block-granularity I/O and CRC, so the native share
//! of execution is small (the paper measures 4.54 %) while the bulk of the
//! time sits in tight bytecode loops with a helper call per element.

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{Cond, MethodFlags};
use jvmsim_vm::jni::{JniRetType, ParamStyle};
use jvmsim_vm::{NativeLibrary, Value};

use crate::{Workload, WorkloadProgram};

const CLASS: &str = "spec/jvm98/Compress";
const ST: MethodFlags = MethodFlags::PUBLIC.with(MethodFlags::STATIC);

/// The `compress` workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compress;

fn build_class() -> jvmsim_classfile::ClassFile {
    let mut cb = ClassBuilder::new(CLASS);
    // Own native library entry point: block CRC.
    cb.native_method("crc32", "([II)I", ST).unwrap();

    // hash(prev, cur) — the tiny helper called once per element.
    {
        let mut m = cb.method("hash", "(II)I", ST);
        m.iload(0).iconst(31).imul().iload(1).ixor();
        m.iconst(4095).iand().ireturn();
        m.finish().unwrap();
    }

    // reportProgress(block) — the target of the CRC native's JNI upcall.
    {
        let mut m = cb.method("reportProgress", "(I)I", ST);
        m.iload(0).iconst(1).iadd().ireturn();
        m.finish().unwrap();
    }

    // compress(buf, n, table) -> emitted codes
    {
        let mut m = cb.method("compress", "([II[I)I", ST);
        // locals: 0 buf, 1 n, 2 table, 3 i, 4 prev, 5 emits, 6 cur, 7 code
        let top = m.new_label();
        let done = m.new_label();
        let hit = m.new_label();
        let next = m.new_label();
        m.iconst(0).istore(3);
        m.iconst(0).istore(4);
        m.iconst(0).istore(5);
        m.bind(top);
        m.iload(3).iload(1).if_icmp(Cond::Ge, done);
        // cur = buf[i]
        m.aload(0).iload(3).iaload().istore(6);
        // code = hash(prev, cur)
        m.iload(4)
            .iload(6)
            .invokestatic(CLASS, "hash", "(II)I")
            .istore(7);
        // if table[code] == cur -> hit else store + emit
        m.aload(2).iload(7).iaload().iload(6).if_icmp(Cond::Eq, hit);
        m.aload(2).iload(7).iload(6).iastore();
        m.iinc(5, 1);
        m.goto(next);
        m.bind(hit);
        m.nop();
        m.bind(next);
        m.iload(6).istore(4);
        m.iinc(3, 1);
        m.goto(top);
        m.bind(done);
        m.iload(5).ireturn();
        m.finish().unwrap();
    }

    // main(size) -> checksum
    {
        let mut m = cb.method("main", "(I)I", ST);
        // locals: 0 size, 1 blocks, 2 fd, 3 buf, 4 table, 5 checksum,
        //         6 b, 7 n, 8 tmp
        let top = m.new_label();
        let done = m.new_label();
        let at_least_one = m.new_label();
        // blocks = max(1, size * 64 / 100)
        m.iload(0).iconst(64).imul().iconst(100).idiv().istore(1);
        m.iload(1).iconst(1).if_icmp(Cond::Ge, at_least_one);
        m.iconst(1).istore(1);
        m.bind(at_least_one);
        m.ldc_str("compress.in");
        m.invokestatic("java/io/FileIO", "open", "(Ljava/lang/String;)I");
        m.istore(2);
        m.iconst(4096)
            .newarray(jvmsim_classfile::ArrayKind::Int)
            .astore(3);
        m.iconst(4096)
            .newarray(jvmsim_classfile::ArrayKind::Int)
            .astore(4);
        m.iconst(0).istore(5);
        m.iconst(0).istore(6);
        m.bind(top);
        m.iload(6).iload(1).if_icmp(Cond::Ge, done);
        // n = FileIO.read(fd, buf, 4096)
        m.iload(2).aload(3).iconst(4096);
        m.invokestatic("java/io/FileIO", "read", "(I[II)I");
        m.istore(7);
        // checksum = checksum * 31 + compress(buf, n, table)   (pass 1)
        m.iload(5).iconst(31).imul();
        m.aload(3)
            .iload(7)
            .aload(4)
            .invokestatic(CLASS, "compress", "([II[I)I");
        m.iadd();
        // + compress(buf, n, table)                             (pass 2)
        m.aload(3)
            .iload(7)
            .aload(4)
            .invokestatic(CLASS, "compress", "([II[I)I");
        m.iadd();
        // + crc32(buf, n)                                       (native)
        m.aload(3).iload(7).invokestatic(CLASS, "crc32", "([II)I");
        m.iadd();
        // + FileIO.write(fd, buf, n / 4)                        (native)
        m.iload(2).aload(3).iload(7).iconst(4).idiv();
        m.invokestatic("java/io/FileIO", "write", "(I[II)I");
        m.iadd();
        m.istore(5);
        m.iinc(6, 1);
        m.goto(top);
        m.bind(done);
        m.iload(2).invokestatic("java/io/FileIO", "close", "(I)V");
        m.iload(5).ireturn();
        m.finish().unwrap();
    }
    cb.finish().unwrap()
}

#[derive(Default)]
struct BlocksSeen(u64);

fn build_library() -> NativeLibrary {
    let mut lib = NativeLibrary::new("compress");
    lib.register_method(CLASS, "crc32", |env, args| {
        let buf = match args[0].as_ref_opt() {
            Some(b) => b,
            None => return Err(env.throw_new("java/lang/NullPointerException", "null buffer")),
        };
        let n = args[1].as_int().max(0) as usize;
        let len = env.array_len(buf).unwrap_or(0).min(n);
        env.work(800 + (len as u64) / 2);
        let mut crc: i64 = !0;
        for i in 0..len {
            let b = env.get_int_element(buf, i)?;
            crc = (crc << 1) ^ b ^ (crc >> 13);
        }
        // Every 8th block, report progress back into Java through the JNI
        // invocation interface (an N2J transition IPA must intercept).
        env.vm_local::<BlocksSeen>().0 += 1;
        let seen = env.vm_local::<BlocksSeen>().0;
        if seen.is_multiple_of(8) {
            let r = env.call_static(
                JniRetType::Int,
                ParamStyle::Varargs,
                CLASS,
                "reportProgress",
                "(I)I",
                &[Value::Int(seen as i64)],
            )?;
            crc ^= r.as_int();
        }
        Ok(Value::Int(crc & 0x7FFF_FFFF))
    });
    lib
}

impl Workload for Compress {
    fn name(&self) -> &'static str {
        "compress"
    }

    fn program(&self) -> WorkloadProgram {
        WorkloadProgram {
            classes: vec![build_class()],
            libraries: vec![build_library()],
            entry_class: CLASS.to_owned(),
            entry_method: "main".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_reference, ProblemSize};

    #[test]
    fn runs_and_is_deterministic() {
        let (c1, _) = run_reference(&Compress, ProblemSize::S1);
        let (c2, _) = run_reference(&Compress, ProblemSize::S1);
        assert_eq!(c1, c2);
        assert_ne!(c1, 0);
    }

    #[test]
    fn native_profile_shape_at_s100() {
        let (_, outcome) = run_reference(&Compress, ProblemSize::S100);
        // open + close + 64 * (read + crc + write) = 194 native calls.
        assert_eq!(outcome.stats.native_calls, 194);
        // 64 blocks / 8 = 8 JNI upcalls from the CRC native, plus the
        // thread-entry launcher call.
        assert_eq!(outcome.stats.jni_upcalls, 9);
        // Low native share: bulk of time in bytecode.
        let pct = 100.0 * outcome.stats.native_cycles as f64 / outcome.total_cycles as f64;
        assert!(pct > 1.0 && pct < 12.0, "native share {pct:.2}%");
    }

    #[test]
    fn scales_with_problem_size() {
        let (_, s1) = run_reference(&Compress, ProblemSize::S1);
        let (_, s10) = run_reference(&Compress, ProblemSize::S10);
        assert!(s10.total_cycles > 3 * s1.total_cycles);
        assert!(s10.stats.native_calls > s1.stats.native_calls);
    }
}
