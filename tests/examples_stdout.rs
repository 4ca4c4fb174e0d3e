//! Every example of this package prints exactly its pinned stdout,
//! `tests/golden/stdout/<name>.txt`. Each runs through `cargo run`, so the
//! check covers the example as a reader runs it. The examples print only
//! modelled (virtual-cycle) quantities, so the output is the same in any
//! build profile.

use std::path::Path;
use std::process::Command;

const EXAMPLES: [&str; 6] = [
    "quickstart",
    "jbb_throughput",
    "mixed_callchains",
    "overhead_comparison",
    "custom_agent",
    "trace_export",
];

/// `cargo run --example name` from `dir`, in this test's build profile.
fn run_example(name: &str, dir: &Path) -> String {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let mut cargo = Command::new(env!("CARGO"));
    cargo
        .args([
            "run",
            "--offline",
            "--quiet",
            "--example",
            name,
            "--manifest-path",
        ])
        .arg(&manifest)
        .current_dir(dir);
    if !cfg!(debug_assertions) {
        cargo.arg("--release");
    }
    let out = cargo.output().expect("cargo starts");
    assert!(
        out.status.success(),
        "example {name} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn examples_print_their_pinned_stdout() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // trace_export writes its three artifacts into the working directory.
    let scratch = std::env::temp_dir().join(format!("jnativeprof-examples-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("temp dir");
    let mut mismatches = Vec::new();
    for name in EXAMPLES {
        let dir = if name == "trace_export" {
            &scratch
        } else {
            root
        };
        let got = run_example(name, dir);
        let pin = root.join("tests/golden/stdout").join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&pin).expect("pinned stdout");
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            mismatches.push(format!(
                "{name}: differs from {} at line {}\n  expected: {:?}\n  actual:   {:?}",
                pin.display(),
                line + 1,
                want.lines().nth(line),
                got.lines().nth(line)
            ));
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
