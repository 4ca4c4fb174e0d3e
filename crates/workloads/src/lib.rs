//! # workloads — the benchmark suite (SPEC JVM98 / JBB2005 analogs)
//!
//! The paper evaluates on SPEC JVM98 (problem size 100: `compress`, `jess`,
//! `db`, `javac`, `mpegaudio`, `mtrt`, `jack`) and SPEC JBB2005 (warehouse
//! sequence 1–4). The SPEC sources are licensed and JVM-specific, so this
//! crate provides **synthetic equivalents assembled to jvmsim bytecode**,
//! each structurally faithful to what made the original interesting for the
//! paper's question:
//!
//! | workload | structure | native-code profile |
//! |---|---|---|
//! | [`compress`] | block codec: LZW-style hashing over buffers | block I/O + CRC natives, low % |
//! | [`jess`] | rule engine: many tiny match/test methods | `String.intern`-style natives, low % |
//! | [`db`] | in-memory table: scans, shell sort, index probes | almost none (lowest %) |
//! | [`javac`] | scanner + recursive-descent parser + code emit | char-level `String` natives (high count, high %) |
//! | [`mpegaudio`] | frame decoder: float filter banks | `Math` transcendentals per frame |
//! | [`mtrt`] | ray tracer, "most object-oriented": tiny vector methods | rare texture-noise native |
//! | [`jack`] | parser generator over char streams | per-char reader native (highest count & %) |
//! | [`jbb`] | warehouse transactions on multiple threads | logger natives that **up-call via JNI** |
//!
//! Every workload returns a deterministic checksum, so instrumented and
//! uninstrumented runs can be compared for behavioural equivalence, and is
//! scaled by a problem-size knob (the JVM98 `-s{1,10,100}` analog).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod db;
pub mod jack;
pub mod javac;
pub mod jbb;
pub mod jess;
pub mod mpegaudio;
pub mod mtrt;

use jvmsim_classfile::{codec, ClassFile};
use jvmsim_vm::{builtins, NativeLibrary, RunOutcome, Value, Vm, VmError};

/// Problem size, mirroring SPEC JVM98's `-s` switch. The simulator's
/// "size 100" is itself scaled down from the paper's (documented in
/// EXPERIMENTS.md); ratios between workloads are preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemSize(pub u32);

impl ProblemSize {
    /// The paper's evaluation size.
    pub const S100: ProblemSize = ProblemSize(100);
    /// Medium size (quick benches).
    pub const S10: ProblemSize = ProblemSize(10);
    /// Smoke-test size.
    pub const S1: ProblemSize = ProblemSize(1);
}

impl Default for ProblemSize {
    fn default() -> Self {
        ProblemSize::S100
    }
}

/// Everything needed to run one benchmark program. A reusable value: its
/// natives keep their statics per VM ([`jvmsim_vm::jni::JniEnv::vm_local`]).
pub struct WorkloadProgram {
    /// Application classes (instrument these before adding to the VM when
    /// profiling with IPA).
    pub classes: Vec<ClassFile>,
    /// Application native libraries (auto-loaded, as if `loadLibrary` ran in
    /// each class's initializer).
    pub libraries: Vec<NativeLibrary>,
    /// Entry class name.
    pub entry_class: String,
    /// Entry method (static, `(I)I`, takes the problem size, returns the
    /// checksum).
    pub entry_method: String,
}

impl std::fmt::Debug for WorkloadProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadProgram")
            .field("classes", &self.classes.len())
            .field(
                "entry",
                &format!("{}.{}", self.entry_class, self.entry_method),
            )
            .finish()
    }
}

impl WorkloadProgram {
    /// Load the bootstrap library, this program's classes and its native
    /// libraries into `vm`, uninstrumented.
    pub fn load(&self, vm: &mut Vm) {
        let classes = self
            .classes
            .iter()
            .map(|c| (c.name().to_owned(), codec::encode(c)));
        self.load_archive(vm, builtins::boot_archive().into_iter().chain(classes));
    }

    /// Load `archive` — the bootstrap library and this program's classes,
    /// possibly instrumented — into `vm`, with `libjava` and this
    /// program's native libraries.
    pub fn load_archive(&self, vm: &mut Vm, archive: impl IntoIterator<Item = (String, Vec<u8>)>) {
        vm.add_archive(archive);
        vm.register_native_library(builtins::libjava(), true);
        for lib in &self.libraries {
            vm.register_native_library(lib.clone(), true);
        }
    }

    /// Call the entry method with the problem size.
    ///
    /// # Errors
    ///
    /// As [`Vm::run`].
    pub fn run(&self, vm: &mut Vm, size: ProblemSize) -> Result<RunOutcome, VmError> {
        let args = vec![Value::Int(i64::from(size.0))];
        vm.run(&self.entry_class, &self.entry_method, "(I)I", args)
    }
}

/// A benchmark in the suite.
pub trait Workload: Send + Sync {
    /// SPEC-style short name (`compress`, `jess`, …).
    ///
    /// Within a process the name *is* the program's identity: it is a
    /// field of every cell-result cache key, and [`Workload::program`] is
    /// built once per name and shared by every run (its natives keep their
    /// state per VM, see [`jvmsim_vm::jni::JniEnv::vm_local`]). Two
    /// workloads with one name must build the same program.
    fn name(&self) -> &'static str;

    /// Assemble the program.
    fn program(&self) -> WorkloadProgram;
}

/// The workload axis of the measurement matrix: the seven JVM98 analogs
/// in the paper's table order, then the `jbb` throughput analog. Every
/// matrix producer (suite driver, load generator, cluster drill) draws its
/// rows from here, so their orders cannot drift apart.
pub const AXIS: [&str; 8] = [
    "compress",
    "jess",
    "db",
    "javac",
    "mpegaudio",
    "mtrt",
    "jack",
    "jbb",
];

/// The problem size `workload` runs at in a matrix of size `size`: the
/// JBB throughput analog is heavier per unit and runs at a tenth of the
/// size, floored at 1; every other workload runs at `size` itself.
pub fn row_size(workload: &str, size: ProblemSize) -> ProblemSize {
    if workload == "jbb" {
        ProblemSize(size.0.max(10) / 10)
    } else {
        size
    }
}

/// The seven JVM98-like workloads, in the paper's table order.
pub fn jvm98_suite() -> Vec<Box<dyn Workload>> {
    AXIS[..7]
        .iter()
        .map(|name| by_name(name).expect("every axis name resolves"))
        .collect()
}

/// Look up any workload (JVM98 + `jbb`) by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match name {
        "compress" => Box::new(compress::Compress),
        "jess" => Box::new(jess::Jess),
        "db" => Box::new(db::Db),
        "javac" => Box::new(javac::Javac),
        "mpegaudio" => Box::new(mpegaudio::MpegAudio),
        "mtrt" => Box::new(mtrt::Mtrt),
        "jack" => Box::new(jack::Jack),
        "jbb" => Box::new(jbb::Jbb),
        "crashy" => Box::new(Crashy),
        _ => return None,
    };
    Some(w)
}

/// A deliberately broken workload for the suite driver's quarantine
/// drills: [`Workload::program`] panics unconditionally. It is reachable
/// only through [`by_name`] — never part of [`jvm98_suite`] — so the
/// standard matrix is unaffected; appending it to a suite run exercises
/// the driver's cell isolation without touching any real benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Crashy;

impl Workload for Crashy {
    fn name(&self) -> &'static str {
        "crashy"
    }

    fn program(&self) -> WorkloadProgram {
        panic!("crashy: deliberate workload failure (quarantine drill)");
    }
}

/// Run a workload uninstrumented and return `(checksum, outcome)`.
///
/// # Panics
///
/// Panics if the program fails to link or throws — workloads are expected
/// to be self-contained.
pub fn run_reference(workload: &dyn Workload, size: ProblemSize) -> (i64, RunOutcome) {
    let program = workload.program();
    let mut vm = Vm::new();
    program.load(&mut vm);
    let outcome = program
        .run(&mut vm, size)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let checksum = match &outcome.main {
        Ok(Value::Int(v)) => *v,
        other => panic!("{}: unexpected result {other:?}", workload.name()),
    };
    (checksum, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_the_seven_jvm98_benchmarks() {
        let names: Vec<&str> = jvm98_suite().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "compress",
                "jess",
                "db",
                "javac",
                "mpegaudio",
                "mtrt",
                "jack"
            ]
        );
        assert_eq!(
            AXIS,
            [
                "compress",
                "jess",
                "db",
                "javac",
                "mpegaudio",
                "mtrt",
                "jack",
                "jbb"
            ]
        );
        assert!(AXIS.iter().all(|name| by_name(name).is_some()));
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("compress").is_some());
        assert!(by_name("jbb").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn jbb_runs_at_a_tenth_of_the_matrix_size() {
        assert_eq!(row_size("jbb", ProblemSize::S100), ProblemSize(10));
        assert_eq!(row_size("jbb", ProblemSize(250)), ProblemSize(25));
        // Tiny sizes floor at the JBB minimum scale.
        assert_eq!(row_size("jbb", ProblemSize::S10), ProblemSize(1));
        assert_eq!(row_size("jbb", ProblemSize::S1), ProblemSize(1));
        assert_eq!(row_size("compress", ProblemSize::S100), ProblemSize::S100);
        assert_eq!(row_size("crashy", ProblemSize::S1), ProblemSize::S1);
    }

    #[test]
    fn problem_sizes() {
        assert_eq!(ProblemSize::default(), ProblemSize::S100);
        assert_eq!(ProblemSize::S1.0, 1);
        assert_eq!(ProblemSize::S10.0, 10);
    }
}
