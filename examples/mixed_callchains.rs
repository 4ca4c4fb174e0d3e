//! Mixed Java/native call chains — the extension §VII of the paper
//! announces as work in progress: "tracking complete call chains including
//! a mix of Java and native methods … not possible with current profilers,
//! since they are either Java-only or system-specific."
//!
//! ```sh
//! cargo run --release --example mixed_callchains
//! ```
//!
//! Builds a program whose control flow bounces bytecode → native → bytecode
//! (a native codec calling a Java callback through the JNI), attaches the
//! [`ChainProfiler`], and prints the captured mixed stacks.

use std::sync::Arc;

use jnativeprof::classfile::builder::ClassBuilder;
use jnativeprof::classfile::MethodFlags;
use jnativeprof::vm::jni::{JniRetType, ParamStyle};
use jnativeprof::vm::{NativeLibrary, Vm};
use jnativeprof::workloads::{ProblemSize, WorkloadProgram};
use jvmsim_jvmti::Agent;
use nativeprof::ChainProfiler;

const ST: MethodFlags = MethodFlags::PUBLIC.with(MethodFlags::STATIC);

fn build_program() -> WorkloadProgram {
    let mut cb = ClassBuilder::new("demo/Codec");
    cb.native_method("encode", "(I)I", ST).unwrap();
    // quantize: the Java callback the native encoder consults per block.
    {
        let mut m = cb.method("quantize", "(I)I", ST);
        m.iload(0).iconst(16).idiv().iconst(16).imul().ireturn();
        m.finish().unwrap();
    }
    // transform -> encode (native) -> quantize (Java): a three-deep chain
    // alternating implementation types.
    {
        let mut m = cb.method("transform", "(I)I", ST);
        m.iload(0)
            .iconst(3)
            .imul()
            .invokestatic("demo/Codec", "encode", "(I)I");
        m.ireturn();
        m.finish().unwrap();
    }
    {
        let mut m = cb.method("main", "(I)I", ST);
        m.iload(0)
            .invokestatic("demo/Codec", "transform", "(I)I")
            .ireturn();
        m.finish().unwrap();
    }
    let mut lib = NativeLibrary::new("codec");
    lib.register_method("demo/Codec", "encode", |env, args| {
        env.work(2_000); // entropy coding
        env.call_static(
            JniRetType::Int,
            ParamStyle::Varargs,
            "demo/Codec",
            "quantize",
            "(I)I",
            &[args[0]],
        )
    });
    WorkloadProgram {
        classes: vec![cb.finish().unwrap()],
        libraries: vec![lib],
        entry_class: "demo/Codec".to_owned(),
        entry_method: "main".to_owned(),
    }
}

fn main() {
    let program = build_program();
    let profiler = ChainProfiler::new(vec![("demo/Codec".to_owned(), "quantize".to_owned())], 8);

    let mut vm = Vm::new();
    program.load(&mut vm);
    jvmsim_jvmti::attach(&mut vm, Arc::clone(&profiler) as Arc<dyn Agent>).expect("attach");
    let outcome = program.run(&mut vm, ProblemSize::S100).expect("run");
    println!("result: {:?}\n", outcome.main);

    println!("chains captured at demo/Codec.quantize:");
    for chain in profiler.watched_chains() {
        println!(
            "-- depth {}, {} bytecode↔native transitions, mixed: {}",
            chain.depth(),
            chain.transitions(),
            chain.is_mixed()
        );
        print!("{chain}");
    }
    println!("\ndeepest chain overall:");
    print!("{}", profiler.deepest_chain());
    println!("\n(A Java-only profiler would not see the [native] frame; a system");
    println!("profiler would not see the bytecode frames around it.)");
}
