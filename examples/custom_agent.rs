//! Writing your own JVMTI agent against the `jvmsim-jvmti` API.
//!
//! ```sh
//! cargo run --release --example custom_agent
//! ```
//!
//! The agent below is a small "hot method" profiler: it counts entries per
//! method (the classic bytecode-counting profiler family the paper cites as
//! related work [1], [4]) and prints the top methods at `VMDeath`. Note
//! what this costs: requesting `MethodEntry` events disables the JIT, so
//! the program runs ~10× slower even before the agent does any work —
//! exactly the trap the paper's SPA falls into.
//!
//! Each callback borrows the acting thread's record, and the counts live
//! in thread-local storage on that record, so counting takes no lock; the
//! per-thread tables are merged once, at `VMDeath`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use jnativeprof::vm::{builtins, MethodView, ThreadInfo, Value, Vm};
use jvmsim_jvmti::{
    attach, Agent, AgentHost, Capabilities, EventType, JvmtiError, ThreadLocalStorage,
};
use workloads::by_name;

#[derive(Default)]
struct HotMethodAgent {
    counts: OnceLock<ThreadLocalStorage<HashMap<String, u64>>>,
    done: OnceLock<()>,
}

impl Agent for HotMethodAgent {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        host.add_capabilities(Capabilities::spa());
        host.enable_event(EventType::MethodEntry)?;
        host.enable_event(EventType::VmDeath)?;
        self.counts.set(host.env().create_tls()).ok();
        Ok(())
    }

    fn method_entry(&self, thread: &ThreadInfo, method: MethodView<'_>) {
        let key = format!("{}.{}{}", method.class_name, method.name, method.descriptor);
        let tls = self.counts.get().expect("attached");
        tls.with_or_insert(thread, HashMap::new, |counts| {
            *counts.entry(key).or_insert(0) += 1;
        });
    }

    fn vm_death(&self, threads: &[ThreadInfo]) {
        let tls = self.counts.get().expect("attached");
        let mut counts = BTreeMap::new();
        for thread in threads {
            for (sig, n) in tls.remove(thread).unwrap_or_default() {
                *counts.entry(sig).or_insert(0) += n;
            }
        }
        let mut rows: Vec<_> = counts.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        println!("hottest methods:");
        for (sig, n) in rows.iter().take(10) {
            println!("  {n:>9}  {sig}");
        }
        self.done.set(()).ok();
    }
}

fn main() {
    let workload = by_name("mtrt").expect("mtrt exists");
    let program = workload.program();

    let mut vm = Vm::new();
    builtins::install(&mut vm);
    for class in &program.classes {
        vm.add_classfile(class);
    }
    for lib in &program.libraries {
        vm.register_native_library(lib.clone(), true);
    }

    let agent = Arc::new(HotMethodAgent::default());
    attach(&mut vm, Arc::clone(&agent) as Arc<dyn Agent>).expect("attach");

    let outcome = vm
        .run(&program.entry_class, "main", "(I)I", vec![Value::Int(10)])
        .expect("run");
    assert!(agent.done.get().is_some(), "VMDeath must have fired");
    println!(
        "\n{} method invocations, {} virtual cycles (JIT was disabled by the agent)",
        outcome.stats.invocations, outcome.total_cycles
    );
}
