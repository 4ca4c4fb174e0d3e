//! `jasm` — assemble and run jvmsim assembly files.
//!
//! ```sh
//! jasm build <in.jasm> <out.jvma>            # assemble to an archive
//! jasm run <in.jasm> <class> <method> [int…] # assemble + execute
//! jasm profile [--agent LABEL] <in.jasm> <class> <method> [int…]
//! ```
//!
//! `run`/`profile` load the bootstrap library (`java/lang/*`, `java/io/*`)
//! so assembly programs can call the native JDK analogs; the entry method
//! must be static and take only integer parameters. `profile` defaults to
//! IPA; `--agent` accepts any label the shared [`AgentChoice`] parser
//! knows (`original`, `spa`, `ipa`, `alloc`, `lock`) and prints that
//! agent's report after the run.
//!
//! Exit codes follow the shared failure classes
//! ([`HarnessError::exit_code`]), so scripts distinguish a typo'd command
//! line (`2`) from a failed assembly (`2`), a broken archive (`3`), a VM
//! error (`5`), or an escaped exception (`6`) without parsing stderr —
//! the same contract `jprof` honours.

use std::process::ExitCode;

use jnativeprof::classfile::jasm;
use jnativeprof::harness::{AgentChoice, HarnessError};
use jnativeprof::instr::Archive;
use jnativeprof::session::program_archive;
use jnativeprof::vm::{Value, Vm};
use jnativeprof::workloads::WorkloadProgram;

const USAGE: &str = "\
usage:
  jasm build <in.jasm> <out.jvma>
  jasm run <in.jasm> <class> <method> [int args…]
  jasm profile [--agent LABEL] <in.jasm> <class> <method> [int args…]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => build(&args[1..]),
        Some("run") => execute(&args[1..], false),
        Some("profile") => execute(&args[1..], true),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(HarnessError::Usage(format!(
            "unknown subcommand {other:?}\n{USAGE}"
        ))),
        None => Err(HarnessError::Usage(format!("no subcommand\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("jasm: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn assemble(path: &str) -> Result<Vec<jnativeprof::classfile::ClassFile>, HarnessError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| HarnessError::Artifact(format!("{path}: {e}")))?;
    // A source that does not assemble is bad input, not a harness fault.
    jasm::parse(&source).map_err(|e| HarnessError::Usage(format!("{path}: {e}")))
}

fn build(args: &[String]) -> Result<(), HarnessError> {
    let [input, output] = args else {
        return Err(HarnessError::Usage(format!(
            "build needs <in.jasm> <out.jvma>\n{USAGE}"
        )));
    };
    let classes = assemble(input)?;
    let mut archive = Archive::new();
    for class in &classes {
        archive
            .insert_class(class)
            .map_err(|e| HarnessError::Instrument(e.to_string()))?;
    }
    std::fs::write(output, archive.to_bytes())
        .map_err(|e| HarnessError::Artifact(format!("{output}: {e}")))?;
    println!("{output}: {} classes assembled", classes.len());
    Ok(())
}

fn execute(args: &[String], profile: bool) -> Result<(), HarnessError> {
    // `profile` accepts an optional leading `--agent LABEL`; parsing goes
    // through the shared `FromStr` so jasm, jprof, and the serve spec all
    // reject unknown labels with the same typed message.
    let (agent, args) = match args {
        [flag, label, rest @ ..] if profile && flag == "--agent" => {
            let choice: AgentChoice =
                label
                    .parse()
                    .map_err(|e: jnativeprof::harness::ParseAgentError| {
                        HarnessError::Usage(e.to_string())
                    })?;
            (choice, rest)
        }
        _ if profile => (AgentChoice::ipa(), args),
        _ => (AgentChoice::None, args),
    };
    let [input, class, method, int_args @ ..] = args else {
        return Err(HarnessError::Usage(format!(
            "run needs <in.jasm> <class> <method> [int args…]\n{USAGE}"
        )));
    };
    let classes = assemble(input)?;
    let values: Vec<Value> = int_args
        .iter()
        .map(|a| {
            a.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| HarnessError::Usage(format!("{a}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let descriptor = format!("({})I", "I".repeat(values.len()));

    let program = WorkloadProgram {
        classes,
        libraries: Vec::new(),
        entry_class: class.clone(),
        entry_method: method.clone(),
    };
    let (archive, _) = program_archive(&program, &agent, None)?;
    let mut vm = Vm::new();
    program.load_archive(&mut vm, archive);
    let attached = agent.attach(&mut vm)?;

    let pcl = vm.pcl();
    let outcome = vm
        .run(class, method, &descriptor, values)
        .map_err(|e| HarnessError::Vm(e.to_string()))?;
    let failed = match &outcome.main {
        Ok(v) => {
            println!("result: {v}");
            None
        }
        Err(e) => Some(HarnessError::Escaped(format!("uncaught exception: {e}"))),
    };
    println!(
        "cycles: {}  (virtual {:.6} s)   invocations: {}   native calls: {}",
        outcome.total_cycles,
        pcl.cycles_to_seconds(outcome.total_cycles),
        outcome.stats.invocations,
        outcome.stats.native_calls
    );
    let (profile, alloc, lock) = attached.reports();
    print!("{}", profile.map(|r| r.to_string()).unwrap_or_default());
    print!("{}", alloc.map(|r| r.to_string()).unwrap_or_default());
    print!("{}", lock.map(|r| r.to_string()).unwrap_or_default());
    // Exit nonzero on an uncaught exception, like `java` does.
    failed.map_or(Ok(()), Err)
}
