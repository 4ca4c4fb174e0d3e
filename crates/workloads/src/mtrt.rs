//! `mtrt` — ray tracer (SPEC JVM98 `_227_mtrt` analog).
//!
//! The suite's "most object-oriented benchmark" (\[24\] in the paper): rays
//! are traced against a scene of sphere objects with **tiny instance
//! methods** on 3-vectors (`dot`, `scale`, `sub` …) — so little work per
//! call that disabling the JIT and paying event dispatch per call is
//! ruinous, which is why mtrt shows the paper's worst SPA overhead
//! (41 775 %). Native code is limited to a rare procedural-texture `noise`
//! call (paper: 1.62 % native).

use jvmsim_classfile::builder::ClassBuilder;
use jvmsim_classfile::{Cond, FieldFlags, MethodFlags};
use jvmsim_vm::jni::{JniRetType, ParamStyle};
use jvmsim_vm::{NativeLibrary, Value};

use crate::{Workload, WorkloadProgram};

const CLASS: &str = "spec/jvm98/Mtrt";
const VEC: &str = "spec/jvm98/Vec";
const SPHERE: &str = "spec/jvm98/Sphere";
const ST: MethodFlags = MethodFlags::PUBLIC.with(MethodFlags::STATIC);
const INST: MethodFlags = MethodFlags::PUBLIC;

/// The `mtrt` workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mtrt;

fn build_vec() -> jvmsim_classfile::ClassFile {
    let mut cb = ClassBuilder::new(VEC);
    for f in ["x", "y", "z"] {
        cb.field(f, "F", FieldFlags::PUBLIC).unwrap();
    }
    // set(x, y, z)
    {
        let mut m = cb.method("set", "(FFF)V", INST);
        m.aload(0).fload(1).putfield(VEC, "x", "F");
        m.aload(0).fload(2).putfield(VEC, "y", "F");
        m.aload(0).fload(3).putfield(VEC, "z", "F");
        m.ret_void();
        m.finish().unwrap();
    }
    // Accessor methods — mtrt is "the most object-oriented benchmark in
    // the SPEC JVM98 suite" [24]; field access goes through getters, which
    // is precisely what makes disabling the JIT so devastating for it.
    for f in ["x", "y", "z"] {
        let getter = format!("get{}", f.to_uppercase());
        let mut m = cb.method(&getter, "()F", INST);
        m.aload(0).getfield(VEC, f, "F").freturn();
        m.finish().unwrap();
    }
    // dot(other) — the hot tiny method, built from even tinier getters.
    {
        let mut m = cb.method("dot", &format!("(L{VEC};)F"), INST);
        m.aload(0).invokevirtual(VEC, "getX", "()F");
        m.aload(1).invokevirtual(VEC, "getX", "()F").fmul();
        m.aload(0).invokevirtual(VEC, "getY", "()F");
        m.aload(1).invokevirtual(VEC, "getY", "()F").fmul();
        m.fadd();
        m.aload(0).invokevirtual(VEC, "getZ", "()F");
        m.aload(1).invokevirtual(VEC, "getZ", "()F").fmul();
        m.fadd();
        m.freturn();
        m.finish().unwrap();
    }
    // subInto(a, b): this = a - b, through getters.
    {
        let mut m = cb.method("subInto", &format!("(L{VEC};L{VEC};)V"), INST);
        m.aload(0);
        m.aload(1).invokevirtual(VEC, "getX", "()F");
        m.aload(2).invokevirtual(VEC, "getX", "()F").fsub();
        m.putfield(VEC, "x", "F");
        m.aload(0);
        m.aload(1).invokevirtual(VEC, "getY", "()F");
        m.aload(2).invokevirtual(VEC, "getY", "()F").fsub();
        m.putfield(VEC, "y", "F");
        m.aload(0);
        m.aload(1).invokevirtual(VEC, "getZ", "()F");
        m.aload(2).invokevirtual(VEC, "getZ", "()F").fsub();
        m.putfield(VEC, "z", "F");
        m.ret_void();
        m.finish().unwrap();
    }
    // len2() — squared length.
    {
        let mut m = cb.method("len2", "()F", INST);
        m.aload(0)
            .aload(0)
            .invokevirtual(VEC, "dot", &format!("(L{VEC};)F"));
        m.freturn();
        m.finish().unwrap();
    }
    cb.finish().unwrap()
}

fn build_sphere() -> jvmsim_classfile::ClassFile {
    let mut cb = ClassBuilder::new(SPHERE);
    cb.field("center", &format!("L{VEC};"), FieldFlags::PUBLIC)
        .unwrap();
    cb.field("radius2", "F", FieldFlags::PUBLIC).unwrap();
    // intersect(origin, dir, tmp) -> 1 if hit (tiny-method cascade).
    {
        let mut m = cb.method("intersect", &format!("(L{VEC};L{VEC};L{VEC};)I"), INST);
        // locals: 0 this, 1 origin, 2 dir, 3 tmp, 4 b(F), 5 c(F)
        let miss = m.new_label();
        // tmp = center - origin
        m.aload(3)
            .aload(0)
            .getfield(SPHERE, "center", &format!("L{VEC};"));
        m.aload(1)
            .invokevirtual(VEC, "subInto", &format!("(L{VEC};L{VEC};)V"));
        // b = tmp . dir
        m.aload(3)
            .aload(2)
            .invokevirtual(VEC, "dot", &format!("(L{VEC};)F"))
            .fstore(4);
        // c = tmp.len2() - radius2
        m.aload(3).invokevirtual(VEC, "len2", "()F");
        m.aload(0).getfield(SPHERE, "radius2", "F").fsub().fstore(5);
        // hit iff b*b - c > 0
        m.fload(4)
            .fload(4)
            .fmul()
            .fload(5)
            .fsub()
            .fconst(0.0)
            .fcmp();
        m.if_(Cond::Le, miss);
        m.iconst(1).ireturn();
        m.bind(miss);
        m.iconst(0).ireturn();
        m.finish().unwrap();
    }
    cb.finish().unwrap()
}

#[allow(clippy::too_many_lines)]
fn build_main() -> jvmsim_classfile::ClassFile {
    let mut cb = ClassBuilder::new(CLASS);
    cb.native_method("noise", "(F)F", ST).unwrap();

    // onRay(n) — JNI upcall target from the texture native.
    {
        let mut m = cb.method("onRay", "(I)I", ST);
        m.iload(0).iconst(2).imul().ireturn();
        m.finish().unwrap();
    }

    // main(size) -> checksum
    {
        let mut m = cb.method("main", "(I)I", ST);
        // locals: 0 size, 1 rays, 2 spheres([Sphere]), 3 origin, 4 dir,
        //         5 tmp, 6 r, 7 hits, 8 s, 9 checksum, 10 sph
        let at_least = m.new_label();
        let build_top = m.new_label();
        let build_done = m.new_label();
        let ray_top = m.new_label();
        let ray_done = m.new_label();
        let sph_top = m.new_label();
        let sph_done = m.new_label();
        let no_hit = m.new_label();
        let no_noise = m.new_label();

        // rays = max(1, size * 30)
        m.iload(0).iconst(30).imul().istore(1);
        m.iload(1).iconst(1).if_icmp(Cond::Ge, at_least);
        m.iconst(1).istore(1);
        m.bind(at_least);
        // scene: 8 spheres
        m.iconst(8)
            .newarray(jvmsim_classfile::ArrayKind::Ref)
            .astore(2);
        m.iconst(0).istore(8);
        m.bind(build_top);
        m.iload(8).iconst(8).if_icmp(Cond::Ge, build_done);
        m.new_obj(SPHERE).astore(10);
        m.aload(10)
            .new_obj(VEC)
            .putfield(SPHERE, "center", &format!("L{VEC};"));
        m.aload(10).getfield(SPHERE, "center", &format!("L{VEC};"));
        m.iload(8).i2f().iload(8).iconst(3).imul().i2f().fconst(2.0);
        m.invokevirtual(VEC, "set", "(FFF)V");
        m.aload(10)
            .iload(8)
            .iconst(1)
            .iadd()
            .i2f()
            .putfield(SPHERE, "radius2", "F");
        m.aload(2).iload(8).aload(10).aastore();
        m.iinc(8, 1);
        m.goto(build_top);
        m.bind(build_done);
        m.new_obj(VEC).astore(3);
        m.new_obj(VEC).astore(4);
        m.new_obj(VEC).astore(5);
        m.iconst(0).istore(9);
        m.iconst(0).istore(6);
        m.bind(ray_top);
        m.iload(6).iload(1).if_icmp(Cond::Ge, ray_done);
        // origin.set(r & 15, (r >> 2) & 15, -8); dir.set(...normalized-ish)
        m.aload(3);
        m.iload(6).iconst(15).iand().i2f();
        m.iload(6).iconst(2).ishr().iconst(15).iand().i2f();
        m.fconst(-8.0);
        m.invokevirtual(VEC, "set", "(FFF)V");
        m.aload(4);
        m.iload(6).iconst(7).iand().i2f().fconst(0.125).fmul();
        m.iload(6)
            .iconst(3)
            .ishr()
            .iconst(7)
            .iand()
            .i2f()
            .fconst(0.125)
            .fmul();
        m.fconst(1.0);
        m.invokevirtual(VEC, "set", "(FFF)V");
        // hits = 0; for each sphere: intersect
        m.iconst(0).istore(7);
        m.iconst(0).istore(8);
        m.bind(sph_top);
        m.iload(8).iconst(8).if_icmp(Cond::Ge, sph_done);
        m.aload(2).iload(8).aaload();
        m.aload(3).aload(4).aload(5);
        m.invokevirtual(SPHERE, "intersect", &format!("(L{VEC};L{VEC};L{VEC};)I"));
        m.if_(Cond::Eq, no_hit);
        m.iinc(7, 1);
        m.bind(no_hit);
        m.iinc(8, 1);
        m.goto(sph_top);
        m.bind(sph_done);
        // every 8th ray with hits: native texture noise
        m.iload(6)
            .iconst(7)
            .iand()
            .iconst(0)
            .if_icmp(Cond::Ne, no_noise);
        m.iload(7).iconst(0).if_icmp(Cond::Le, no_noise);
        m.iload(9)
            .iload(6)
            .i2f()
            .invokestatic(CLASS, "noise", "(F)F")
            .f2i()
            .iadd();
        m.iconst(16777215).iand().istore(9);
        m.bind(no_noise);
        m.iload(9).iconst(31).imul().iload(7).iadd();
        m.iconst(16777215).iand().istore(9);
        m.iinc(6, 1);
        m.goto(ray_top);
        m.bind(ray_done);
        m.iload(9).ireturn();
        m.finish().unwrap();
    }
    cb.finish().unwrap()
}

#[derive(Default)]
struct NoiseCalls(u64);

fn build_library() -> NativeLibrary {
    let mut lib = NativeLibrary::new("mtrt");
    lib.register_method(CLASS, "noise", |env, args| {
        env.work(220);
        let x = args[0].as_float();
        env.vm_local::<NoiseCalls>().0 += 1;
        let n = env.vm_local::<NoiseCalls>().0;
        let mut v = (x * 12.9898).sin();
        if n.is_multiple_of(128) {
            let r = env.call_static(
                JniRetType::Int,
                ParamStyle::Varargs,
                CLASS,
                "onRay",
                "(I)I",
                &[Value::Int(n as i64)],
            )?;
            v += r.as_int() as f64 * 1e-6;
        }
        Ok(Value::Float(v))
    });
    lib
}

impl Workload for Mtrt {
    fn name(&self) -> &'static str {
        "mtrt"
    }

    fn program(&self) -> WorkloadProgram {
        WorkloadProgram {
            classes: vec![build_vec(), build_sphere(), build_main()],
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
    fn deterministic() {
        let (c1, _) = run_reference(&Mtrt, ProblemSize::S1);
        let (c2, _) = run_reference(&Mtrt, ProblemSize::S1);
        assert_eq!(c1, c2);
    }

    #[test]
    fn extreme_call_density_and_low_native() {
        let (_, outcome) = run_reference(&Mtrt, ProblemSize::S100);
        // The defining property: tiny methods, huge invocation counts.
        let per_call = outcome.total_cycles / outcome.stats.invocations.max(1);
        assert!(
            per_call < 60,
            "mtrt must have tiny methods: {per_call} cy/call"
        );
        let pct = 100.0 * outcome.stats.native_cycles as f64 / outcome.total_cycles as f64;
        assert!(pct < 8.0, "native share {pct:.2}%");
    }
}
