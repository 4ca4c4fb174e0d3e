//! `jasm profile` end to end: a small inline program, run under every
//! agent label, must print exactly the committed output.
//!
//! The program mixes the three things the agents observe: bytecode calls,
//! native calls into the bootstrap library (`String.valueOf`,
//! `String.length`) and array allocation.

use std::path::PathBuf;
use std::process::Command;

const PROGRAM: &str = "\
class demo/Mix {
  method static digits (I)I {
    iload 0
    invokestatic java/lang/String.valueOf(I)Ljava/lang/String;
    invokestatic java/lang/String.length(Ljava/lang/String;)I
    ireturn
  }

  method static main (I)I {
    iconst 0
    istore 1
  top:
    iload 0
    ifle done
    iload 0
    newarray int
    arraylength
    iload 1
    iadd
    iload 0
    invokestatic demo/Mix.digits(I)I
    iadd
    istore 1
    iinc 0 -1
    goto top
  done:
    iload 1
    ireturn
  }
}
";

fn source() -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("jnativeprof-jasm-cli-{}.jasm", std::process::id()));
    std::fs::write(&path, PROGRAM).expect("write the jasm source");
    path
}

fn profile(source: &PathBuf, agent: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_jasm"))
        .arg("profile")
        .args(["--agent", agent])
        .arg(source)
        .args(["demo/Mix", "main", "40"])
        .output()
        .expect("spawn jasm");
    assert!(
        out.status.success(),
        "jasm profile --agent {agent} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn jasm_profile_output_is_pinned_for_every_agent() {
    let source = source();
    let expected: [(&str, &str); 5] = [
        ("original", ORIGINAL),
        ("spa", SPA),
        ("ipa", IPA),
        ("alloc", ALLOC),
        ("lock", LOCK),
    ];
    let mismatched: Vec<String> = expected
        .iter()
        .filter_map(|&(agent, want)| {
            let got = profile(&source, agent);
            (got != want).then(|| format!("--agent {agent}:\n{got}"))
        })
        .collect();
    let _ = std::fs::remove_file(&source);
    assert!(mismatched.is_empty(), "{}", mismatched.join("\n"));
}

const ORIGINAL: &str = r#"result: 891
cycles: 21087  (virtual 0.000008 s)   invocations: 121   native calls: 80
"#;

const SPA: &str = r#"result: 891
cycles: 329843  (virtual 0.000124 s)   invocations: 121   native calls: 80
native execution: 35.14%  (bytecode 212883 cy, native 115345 cy)
JNI calls: 0   native method calls: 80
  thread thread#0: 35.14% native (115345 / 328228 cy)
"#;

const IPA: &str = r#"result: 891
cycles: 58793  (virtual 0.000022 s)   invocations: 361   native calls: 240
native execution: 52.42%  (bytecode 12749 cy, native 14044 cy)
JNI calls: 1   native method calls: 80
  thread thread#0: 52.42% native (14044 / 26793 cy)
"#;

const ALLOC: &str = r#"result: 891
cycles: 118287  (virtual 0.000044 s)   invocations: 121   native calls: 80
ALLOC: 80 objects / 8231 bytes at 2 sites (0 objects / 0 bytes overflowed)
site (class.method)                           bci    objects        bytes  lifetime_cycles
demo/Mix.main                                   5         40         7200          2356340
java/lang/String.valueOf                        0         40         1031          2298614
"#;

const LOCK: &str = r#"result: 891
cycles: 22402  (virtual 0.000008 s)   invocations: 121   native calls: 80
LOCK: 1 entries / 0 contended / 0 cycles blocked (0 records discarded)
monitor                       entries  contended   blocked_cycles  discarded
LOCK totals                         1          0                0          0
"#;
