//! `jbb` — warehouse transaction server (SPEC JBB2005 analog).
//!
//! Runs the paper's "warehouse sequence 1, 2, 3, 4": for each sequence
//! point, that many warehouse threads are spawned, each executing a
//! deterministic stream of TPC-C-flavoured transactions (new-order,
//! payment, order-status, delivery, stock-level) against per-warehouse
//! tables. Committed transactions are recorded through a **native logger
//! that calls back into Java via the JNI invocation interface** for audit
//! and validation — which is why JBB2005 shows the evaluation's by-far
//! largest "JNI calls" count (770 k, Table II) alongside a 12.19 % native
//! share. The metric is throughput (transactions per virtual second),
//! computed by the harness from the run outcome.

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{ArrayKind, Cond, FieldFlags, MethodFlags};
use jvmsim_vm::jni::{JniRetType, ParamStyle};
use jvmsim_vm::{NativeLibrary, Value};

use crate::{Workload, WorkloadProgram};

const CLASS: &str = "spec/jbb/JBB";
const ST: MethodFlags = MethodFlags::PUBLIC.with(MethodFlags::STATIC);
const S: &str = "Ljava/lang/String;";

/// Warehouse thread count sequence, as in the paper's evaluation.
pub const WAREHOUSE_SEQUENCE: [u32; 4] = [1, 2, 3, 4];

/// Total warehouse threads spawned over the whole sequence.
pub const TOTAL_WAREHOUSES: u32 = 10;

/// The `jbb` workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jbb;

#[allow(clippy::too_many_lines)]
fn build_class() -> jvmsim_classfile::ClassFile {
    let mut cb = ClassBuilder::new(CLASS);
    cb.native_method("logTransaction", "(II)I", ST).unwrap();
    cb.field("checksum", "I", FieldFlags::STATIC).unwrap();
    cb.field("committed", "I", FieldFlags::STATIC).unwrap();

    // auditCallback(v) / validateCallback(v) — JNI upcall targets.
    {
        let mut m = cb.method("auditCallback", "(I)I", ST);
        m.iload(0).iconst(0x51DE).ixor().ireturn();
        m.finish().unwrap();
    }
    {
        let mut m = cb.method("validateCallback", "(I)I", ST);
        m.iload(0)
            .iconst(3)
            .imul()
            .iconst(16777215)
            .iand()
            .ireturn();
        m.finish().unwrap();
    }

    // checksumValue() — harness-visible accumulated checksum.
    {
        let mut m = cb.method("checksumValue", "()I", ST);
        m.getstatic(CLASS, "checksum", "I").ireturn();
        m.finish().unwrap();
    }
    // committedCount() — total committed transactions.
    {
        let mut m = cb.method("committedCount", "()I", ST);
        m.getstatic(CLASS, "committed", "I").ireturn();
        m.finish().unwrap();
    }

    // newOrder(stock, orders, rng) -> value  (insert + 10 item updates)
    {
        let mut m = cb.method("newOrder", "([I[II)I", ST);
        // locals: 0 stock, 1 orders, 2 rng, 3 i, 4 acc, 5 slot
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(3);
        m.iconst(0).istore(4);
        m.bind(top);
        m.iload(3).iconst(10).if_icmp(Cond::Ge, done);
        m.iload(2)
            .iload(3)
            .iconst(97)
            .imul()
            .iadd()
            .iconst(511)
            .iand()
            .istore(5);
        m.aload(0).iload(5);
        m.aload(0).iload(5).iaload().iconst(1).isub();
        m.iastore();
        m.iload(4).aload(0).iload(5).iaload().iadd().istore(4);
        m.iinc(3, 1);
        m.goto(top);
        m.bind(done);
        m.aload(1).iload(2).iconst(255).iand().iload(4).iastore();
        m.iload(4).ireturn();
        m.finish().unwrap();
    }

    // payment(balances, rng) -> value
    {
        let mut m = cb.method("payment", "([II)I", ST);
        // locals: 0 balances, 1 rng, 2 slot, 3 v
        m.iload(1).iconst(255).iand().istore(2);
        m.aload(0).iload(2);
        m.aload(0)
            .iload(2)
            .iaload()
            .iload(1)
            .iconst(1023)
            .iand()
            .iadd();
        m.iastore();
        m.aload(0).iload(2).iaload().istore(3);
        // receipt string via the native JDK path (result object unused,
        // as in a real fire-and-forget receipt)
        m.iload(3)
            .invokestatic("java/lang/String", "valueOf", &format!("(I){S}"));
        m.pop();
        m.iload(3).iload(2).iadd().ireturn();
        m.finish().unwrap();
    }

    // orderAt(orders, i) / stockBelow(stock, i) — per-element accessors,
    // making the scan paths method-call dense (TPC-C row accessors).
    {
        let mut m = cb.method("orderAt", "([II)I", ST);
        m.aload(0).iload(1).iconst(255).iand().iaload().ireturn();
        m.finish().unwrap();
    }
    {
        let mut m = cb.method("stockBelow", "([II)I", ST);
        let yes = m.new_label();
        m.aload(0).iload(1).iconst(511).iand().iaload();
        m.iconst(10).if_icmp(Cond::Lt, yes);
        m.iconst(0).ireturn();
        m.bind(yes);
        m.iconst(1).ireturn();
        m.finish().unwrap();
    }

    // orderStatus(orders, rng) -> value (scan)
    {
        let mut m = cb.method("orderStatus", "([II)I", ST);
        // locals: 0 orders, 1 rng, 2 i, 3 acc
        let top = m.new_label();
        let done = m.new_label();
        m.iconst(0).istore(2);
        m.iconst(0).istore(3);
        m.bind(top);
        m.iload(2).iconst(256).if_icmp(Cond::Ge, done);
        m.iload(3);
        m.aload(0).iload(2).invokestatic(CLASS, "orderAt", "([II)I");
        m.iadd().iconst(16777215).iand().istore(3);
        m.iinc(2, 4);
        m.goto(top);
        m.bind(done);
        m.iload(3).ireturn();
        m.finish().unwrap();
    }

    // stockLevel(stock, rng) -> count below threshold
    {
        let mut m = cb.method("stockLevel", "([II)I", ST);
        // locals: 0 stock, 1 rng, 2 i, 3 count
        let top = m.new_label();
        let done = m.new_label();
        let above = m.new_label();
        m.iconst(0).istore(2);
        m.iconst(0).istore(3);
        m.bind(top);
        m.iload(2).iconst(512).if_icmp(Cond::Ge, done);
        m.aload(0)
            .iload(2)
            .invokestatic(CLASS, "stockBelow", "([II)I");
        m.iconst(0).if_icmp(Cond::Le, above);
        m.iinc(3, 1);
        m.bind(above);
        m.iinc(2, 2);
        m.goto(top);
        m.bind(done);
        m.iload(3).ireturn();
        m.finish().unwrap();
    }

    // warehouse(tx) — the thread body: run `tx` transactions.
    {
        let mut m = cb.method("warehouse", "(I)V", ST);
        // locals: 0 tx, 1 stock, 2 orders, 3 balances, 4 i, 5 rng,
        //         6 kind, 7 v
        let top = m.new_label();
        let done = m.new_label();
        let k_new = m.new_label();
        let k_pay = m.new_label();
        let k_status = m.new_label();
        let k_delivery = m.new_label();
        let k_stock = m.new_label();
        let after = m.new_label();
        m.iconst(512).newarray(ArrayKind::Int).astore(1);
        m.iconst(256).newarray(ArrayKind::Int).astore(2);
        m.iconst(256).newarray(ArrayKind::Int).astore(3);
        m.iconst(987654321).istore(5);
        m.iconst(0).istore(4);
        m.bind(top);
        m.iload(4).iload(0).if_icmp(Cond::Ge, done);
        // rng step
        m.iload(5).iload(5).iconst(13).ishl().ixor().istore(5);
        m.iload(5).iload(5).iconst(7).iushr().ixor().istore(5);
        m.iload(5).iload(5).iconst(17).ishl().ixor().istore(5);
        // kind = (rng >>> 4) % 5
        m.iload(5).iconst(4).iushr().iconst(5).irem();
        m.tableswitch(0, &[k_new, k_pay, k_status, k_delivery], k_stock);

        m.bind(k_new);
        m.aload(1)
            .aload(2)
            .iload(5)
            .invokestatic(CLASS, "newOrder", "([I[II)I");
        m.istore(7);
        m.goto(after);

        m.bind(k_pay);
        m.aload(3)
            .iload(5)
            .invokestatic(CLASS, "payment", "([II)I")
            .istore(7);
        m.goto(after);

        m.bind(k_status);
        m.aload(2)
            .iload(5)
            .invokestatic(CLASS, "orderStatus", "([II)I")
            .istore(7);
        m.goto(after);

        m.bind(k_delivery);
        // delivery: drain 8 orders
        m.aload(2)
            .iload(5)
            .invokestatic(CLASS, "orderStatus", "([II)I");
        m.aload(1)
            .iload(5)
            .invokestatic(CLASS, "stockLevel", "([II)I");
        m.iadd().istore(7);
        m.goto(after);

        m.bind(k_stock);
        m.aload(1)
            .iload(5)
            .invokestatic(CLASS, "stockLevel", "([II)I")
            .istore(7);
        m.goto(after);

        m.bind(after);
        // Every committed transaction is logged natively; the logger
        // audits and validates through the JNI invocation interface.
        m.iload(7)
            .iload(4)
            .invokestatic(CLASS, "logTransaction", "(II)I")
            .pop();
        // checksum and committed counter (static, thread-accumulated)
        m.getstatic(CLASS, "checksum", "I")
            .iconst(31)
            .imul()
            .iload(7)
            .iadd();
        m.iconst(16777215).iand().putstatic(CLASS, "checksum", "I");
        m.getstatic(CLASS, "committed", "I").iconst(1).iadd();
        m.putstatic(CLASS, "committed", "I");
        m.iinc(4, 1);
        m.goto(top);
        m.bind(done);
        m.ret_void();
        m.finish().unwrap();
    }

    // main(size) -> planned transactions. Spawns the warehouse sequence.
    {
        let mut m = cb.method("main", "(I)I", ST);
        // locals: 0 size, 1 tx, 2 seq, 3 w
        let at_least = m.new_label();
        let seq_top = m.new_label();
        let seq_done = m.new_label();
        let w_top = m.new_label();
        let w_done = m.new_label();
        // tx per warehouse = max(1, size * 20)
        m.iload(0).iconst(20).imul().istore(1);
        m.iload(1).iconst(1).if_icmp(Cond::Ge, at_least);
        m.iconst(1).istore(1);
        m.bind(at_least);
        m.iconst(1).istore(2);
        m.bind(seq_top);
        m.iload(2).iconst(4).if_icmp(Cond::Gt, seq_done);
        m.iconst(0).istore(3);
        m.bind(w_top);
        m.iload(3).iload(2).if_icmp(Cond::Ge, w_done);
        m.ldc_str("warehouse")
            .ldc_str(CLASS)
            .ldc_str("warehouse")
            .iload(1);
        m.invokestatic("java/lang/Threads", "start", &format!("({S}{S}{S}I)V"));
        m.iinc(3, 1);
        m.goto(w_top);
        m.bind(w_done);
        m.iinc(2, 1);
        m.goto(seq_top);
        m.bind(seq_done);
        // planned = tx * 10 warehouses
        m.iload(1).iconst(10).imul().ireturn();
        m.finish().unwrap();
    }
    cb.finish().unwrap()
}

fn build_library() -> NativeLibrary {
    let mut lib = NativeLibrary::new("jbb");
    lib.register_method(CLASS, "logTransaction", move |env, args| {
        // Write the log record natively, then audit AND validate through
        // the JNI invocation interface: two N2J transitions per logged
        // transaction — the source of JBB's dominant JNI-call count.
        env.work(150);
        let (v, seq) = (args[0].as_int(), args[1].as_int());
        let audit = env.call_static(
            JniRetType::Int,
            ParamStyle::Varargs,
            CLASS,
            "auditCallback",
            "(I)I",
            &[Value::Int(v)],
        )?;
        let valid = env.call_static(
            JniRetType::Int,
            ParamStyle::Array,
            CLASS,
            "validateCallback",
            "(I)I",
            &[Value::Int(seq)],
        )?;
        Ok(Value::Int((audit.as_int() ^ valid.as_int()) & 0x7FFF_FFFF))
    });
    lib
}

impl Workload for Jbb {
    fn name(&self) -> &'static str {
        "jbb"
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
    use jvmsim_vm::Vm;

    #[test]
    fn spawns_the_warehouse_sequence() {
        let (planned, outcome) = run_reference(&Jbb, ProblemSize::S10);
        assert_eq!(planned, 10 * 200);
        // main + 1+2+3+4 warehouse threads.
        assert_eq!(outcome.threads.len(), 1 + TOTAL_WAREHOUSES as usize);
        assert!(outcome.threads.iter().all(|t| t.result.is_ok()));
    }

    #[test]
    fn jni_upcalls_dominate_native_calls() {
        let (_, outcome) = run_reference(&Jbb, ProblemSize::S10);
        // Every logged transaction makes exactly two JNI upcalls; payment
        // adds two ordinary JDK natives, so upcalls ≥ native calls — the
        // inversion unique to JBB in the paper's Table II.
        assert!(
            outcome.stats.jni_upcalls >= outcome.stats.native_calls,
            "jni {} vs native {}",
            outcome.stats.jni_upcalls,
            outcome.stats.native_calls
        );
        assert!(outcome.stats.native_calls > 100);
    }

    #[test]
    fn committed_count_matches_planned() {
        let w = Jbb;
        let program = w.program();
        let mut vm = Vm::new();
        program.load(&mut vm);
        let outcome = program.run(&mut vm, ProblemSize::S10).unwrap();
        let planned = match outcome.main.unwrap() {
            Value::Int(v) => v,
            other => panic!("{other:?}"),
        };
        let committed = vm
            .call_static(CLASS, "committedCount", "()I", vec![])
            .unwrap()
            .unwrap();
        assert_eq!(committed, Value::Int(planned));
        let checksum = vm
            .call_static(CLASS, "checksumValue", "()I", vec![])
            .unwrap()
            .unwrap();
        assert_ne!(checksum, Value::Int(0));
    }
}
