//! The runtime class registry: linking, layouts, method resolution, and
//! per-method tier state.
//!
//! All class, method, field and descriptor names are interned into a
//! registry-wide [`Interner`] at link time. Resolution on the interpreter's
//! hot paths compares [`Sym`] integers instead of hashing `String`s — the
//! naive per-call `HashMap<String, _>` lookup (the pattern toy JVMs like
//! Birbe__jvm exhibit) never appears after linking.

use std::collections::HashMap;
use std::fmt;

use jvmsim_classfile::constpool::Constant;
use jvmsim_classfile::validate::CodeFacts;
use jvmsim_classfile::{ClassFile, MethodInfo, Type};

use crate::error::VmError;
use crate::events::MethodView;
use crate::value::Value;

/// An interned string: a dense index into the registry's [`Interner`].
///
/// Two `Sym`s from the *same* interner are equal iff their strings are
/// equal, so symbol comparison and symbol-keyed map lookups do no string
/// hashing at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Raw interner index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Registry-wide string interner. Strings are interned once at classfile
/// link time; everything after linking moves [`Sym`]s around.
#[derive(Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    /// Intern `s`, returning its symbol (inserting on first sight).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&i) = self.index.get(s) {
            return Sym(i);
        }
        let i = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(s.to_owned());
        self.index.insert(s.to_owned(), i);
        Sym(i)
    }

    /// The symbol for `s` if it was ever interned. Never inserts, so it is
    /// safe on lookup paths: a string nobody interned cannot name anything.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.index.get(s).copied().map(Sym)
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics on a symbol from a different interner (VM bug).
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A pre-resolved method call site (one pool `MethodRef`), parsed and
/// interned once at link time so the interpreter's hot path does no
/// string work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Referenced class name.
    pub class: String,
    /// Method name.
    pub name: String,
    /// Method descriptor string.
    pub descriptor: String,
    /// Interned referenced-class name.
    pub class_sym: Sym,
    /// Interned method name.
    pub name_sym: Sym,
    /// Interned descriptor.
    pub desc_sym: Sym,
    /// Declared parameter count (receiver *not* included).
    pub nargs: usize,
    /// Does the callee push a result?
    pub returns_value: bool,
}

/// A pre-resolved field reference (one pool `FieldRef`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSite {
    /// Referenced class name.
    pub class: String,
    /// Field name.
    pub name: String,
    /// Interned field name.
    pub name_sym: Sym,
}

/// Identifier of a linked class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(u32);

impl ClassId {
    /// Raw registry index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    #[cfg(test)]
    pub(crate) fn for_test(raw: u32) -> ClassId {
        ClassId(raw)
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// Identifier of a method within a linked class — the `jmethodID` analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId {
    /// Declaring class.
    pub class: ClassId,
    /// Index into the class's method list.
    pub index: u16,
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#m{}", self.class, self.index)
    }
}

/// One instance-field slot in an object layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSlot {
    /// Field name.
    pub name: String,
    /// Declared type (drives the zero value).
    pub ty: Type,
}

/// A linked class.
#[derive(Debug)]
pub struct RuntimeClass {
    /// This class's id.
    pub id: ClassId,
    /// Internal name.
    pub name: String,
    /// Interned internal name.
    pub name_sym: Sym,
    /// Superclass, `None` only for the root.
    pub super_id: Option<ClassId>,
    /// Methods, moved out of the classfile at link time.
    pub methods: Vec<MethodInfo>,
    /// Operand-stack depth on entry to each instruction of each body, as
    /// the validator's flow proved it (parallel to `methods`; empty for
    /// natives).
    pub(crate) depths: Vec<Vec<Option<u16>>>,
    /// Instance-field layout *including inherited slots* (super first).
    pub instance_layout: Vec<FieldSlot>,
    /// Interned field name → slot in `instance_layout` (inherited names
    /// included; shadowing resolves to the most-derived declaration).
    pub instance_index: HashMap<Sym, usize>,
    /// Static field storage for fields this class declares.
    pub statics: Vec<Value>,
    /// Interned static field name → slot in `statics`.
    pub static_index: HashMap<Sym, usize>,
    /// Interned method `(name, descriptor)` → index in `methods`.
    method_index: HashMap<(Sym, Sym), u16>,
    /// Has `<clinit>` run (or been scheduled)?
    pub clinit_started: bool,
    /// Per method (parallel to `methods`), the index of its prepared
    /// body in the VM's code arena, which holds its invocation count and
    /// tier; filled on first execution.
    bodies: Vec<Option<u32>>,
    /// Pool index → pre-resolved call site, for `invokestatic`/`invokevirtual`.
    pub callsites: HashMap<u16, CallSite>,
    /// Pool index → pre-resolved field reference.
    pub fieldsites: HashMap<u16, FieldSite>,
    /// Pool index → class name, for `new`.
    pub classrefs: HashMap<u16, String>,
    /// Pool index → string constant, for `ldc`.
    pub strings: HashMap<u16, String>,
}

impl RuntimeClass {
    /// Number of instance-field slots (inherited included).
    pub fn instance_slots(&self) -> usize {
        self.instance_layout.len()
    }

    /// Zero values for a fresh instance.
    pub fn field_defaults(&self) -> Vec<Value> {
        self.instance_layout
            .iter()
            .map(|f| Value::default_for(&f.ty))
            .collect()
    }

    /// Look up a declared method by interned name + descriptor.
    pub fn find_method_sym(&self, name: Sym, descriptor: Sym) -> Option<u16> {
        self.method_index.get(&(name, descriptor)).copied()
    }
}

/// The registry of linked classes.
#[derive(Debug, Default)]
pub struct ClassRegistry {
    classes: Vec<RuntimeClass>,
    by_name: HashMap<String, ClassId>,
    interner: Interner,
}

impl ClassRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of linked classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The registry-wide string interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Intern a string into the registry's interner.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.interner.intern(s)
    }

    /// Id of a linked class by name.
    pub fn id_of(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// Borrow a linked class.
    ///
    /// # Panics
    ///
    /// Panics on an id not issued by this registry (VM bug).
    pub fn get(&self, id: ClassId) -> &RuntimeClass {
        &self.classes[id.index()]
    }

    /// Mutably borrow a linked class.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id (VM bug).
    pub fn get_mut(&mut self, id: ClassId) -> &mut RuntimeClass {
        &mut self.classes[id.index()]
    }

    /// Borrow a method.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id (VM bug).
    pub fn method(&self, id: MethodId) -> &MethodInfo {
        &self.classes[id.class.index()].methods[id.index as usize]
    }

    /// Bytecode instruction count of a method (0 for natives) — the size
    /// input to the tier compile-cost model.
    pub fn insn_count(&self, id: MethodId) -> usize {
        self.method(id).code.as_ref().map_or(0, |c| c.insns.len())
    }

    /// Build the event-callback view of a method.
    pub fn method_view(&self, id: MethodId) -> MethodView<'_> {
        let class = self.get(id.class);
        let m = &class.methods[id.index as usize];
        MethodView {
            id,
            class_name: &class.name,
            name: m.name(),
            descriptor: m.descriptor_string(),
            is_native: m.is_native(),
        }
    }

    /// Link a decoded classfile, given the facts
    /// [`jvmsim_classfile::validate::validate_class`] returned for it
    /// (none for a class without methods). The superclass must already be
    /// linked (callers load bottom-up).
    ///
    /// # Errors
    ///
    /// [`VmError::BadHierarchy`] if the superclass is missing, or a
    /// duplicate definition of the same name.
    ///
    /// # Panics
    ///
    /// Panics if `facts` is not one entry per method (VM bug).
    pub fn define(
        &mut self,
        mut class: ClassFile,
        facts: Vec<Option<CodeFacts>>,
    ) -> Result<ClassId, VmError> {
        if self.by_name.contains_key(class.name()) {
            return Err(VmError::BadHierarchy(format!(
                "class {} defined twice",
                class.name()
            )));
        }
        let super_id = match class.super_name() {
            None => None,
            Some(s) => Some(self.id_of(s).ok_or_else(|| {
                VmError::BadHierarchy(format!("superclass {s} of {} not linked", class.name()))
            })?),
        };
        // Instance layout: inherited slots first, then own. The symbol
        // index clones cheaply because the interner is registry-wide.
        let (mut instance_layout, mut instance_index) = match super_id {
            Some(sid) => {
                let sup = self.get(sid);
                (sup.instance_layout.clone(), sup.instance_index.clone())
            }
            None => (Vec::new(), HashMap::new()),
        };
        let mut statics = Vec::new();
        let mut static_index = HashMap::new();
        for f in class.fields() {
            let sym = self.interner.intern(f.name());
            if f.is_static() {
                static_index.insert(sym, statics.len());
                statics.push(Value::default_for(f.ty()));
            } else {
                // Shadowing: most-derived wins in the name index, but the
                // inherited slot remains in the layout.
                instance_index.insert(sym, instance_layout.len());
                instance_layout.push(FieldSlot {
                    name: f.name().to_owned(),
                    ty: f.ty().clone(),
                });
            }
        }
        let methods = std::mem::take(class.methods_mut());
        assert_eq!(facts.len(), methods.len(), "one fact per method");
        let depths = facts
            .into_iter()
            .map(|f| f.map_or_else(Vec::new, |f| f.depths))
            .collect();
        let mut method_index = HashMap::new();
        for (i, m) in methods.iter().enumerate() {
            let name = self.interner.intern(m.name());
            let desc = self.interner.intern(m.descriptor_string());
            method_index.insert((name, desc), i as u16);
        }
        // Pre-resolve pool entries the interpreter dereferences, interning
        // every name a resolve path will ever compare.
        let mut callsites = HashMap::new();
        let mut fieldsites = HashMap::new();
        let mut classrefs = HashMap::new();
        let mut strings = HashMap::new();
        for (i, entry) in class.pool.entries().iter().enumerate() {
            let idx = i as u16;
            let cp = jvmsim_classfile::CpIndex(idx);
            match entry {
                Constant::Utf8(s) => {
                    strings.insert(idx, s.clone());
                }
                Constant::Class { .. } => {
                    if let Ok(name) = class.pool.class_name(cp) {
                        classrefs.insert(idx, name.to_owned());
                    }
                }
                Constant::MethodRef { .. } => {
                    if let Ok(r) = class.pool.method_ref(cp) {
                        if let Ok(desc) = r.descriptor.parse::<jvmsim_classfile::MethodDescriptor>()
                        {
                            callsites.insert(
                                idx,
                                CallSite {
                                    class_sym: self.interner.intern(&r.class),
                                    name_sym: self.interner.intern(&r.name),
                                    desc_sym: self.interner.intern(&r.descriptor),
                                    class: r.class,
                                    name: r.name,
                                    nargs: desc.param_slots(),
                                    returns_value: desc.return_type().is_value(),
                                    descriptor: r.descriptor,
                                },
                            );
                        }
                    }
                }
                Constant::FieldRef { .. } => {
                    if let Ok(r) = class.pool.field_ref(cp) {
                        fieldsites.insert(
                            idx,
                            FieldSite {
                                name_sym: self.interner.intern(&r.name),
                                class: r.class,
                                name: r.name,
                            },
                        );
                    }
                }
            }
        }
        let id = ClassId(u32::try_from(self.classes.len()).expect("too many classes"));
        let n = methods.len();
        let name_sym = self.interner.intern(class.name());
        self.classes.push(RuntimeClass {
            id,
            name: class.name().to_owned(),
            name_sym,
            super_id,
            methods,
            depths,
            instance_layout,
            instance_index,
            statics,
            static_index,
            method_index,
            clinit_started: false,
            bodies: vec![None; n],
            callsites,
            fieldsites,
            classrefs,
            strings,
        });
        self.by_name.insert(class.name().to_owned(), id);
        Ok(id)
    }

    /// Look up a method declared *directly* on `class` by string name +
    /// descriptor (no superclass walk). Cold-path convenience over
    /// [`RuntimeClass::find_method_sym`].
    pub fn find_method(&self, class: ClassId, name: &str, descriptor: &str) -> Option<u16> {
        let name = self.interner.lookup(name)?;
        let desc = self.interner.lookup(descriptor)?;
        self.get(class).find_method_sym(name, desc)
    }

    /// Resolve interned `(name, descriptor)` starting at `class` and
    /// walking the superclass chain — used for both static and virtual
    /// dispatch. The hot path: integer-keyed map hits, zero string work.
    pub fn resolve_method_sym(
        &self,
        class: ClassId,
        name: Sym,
        descriptor: Sym,
    ) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(cid) = cur {
            let rc = self.get(cid);
            if let Some(index) = rc.find_method_sym(name, descriptor) {
                return Some(MethodId { class: cid, index });
            }
            cur = rc.super_id;
        }
        None
    }

    /// Resolve `(name, descriptor)` by string, walking the superclass
    /// chain. Cold paths only (harness entry, JNI lookups, tests); a name
    /// that was never interned cannot resolve to anything.
    pub fn resolve_method(&self, class: ClassId, name: &str, descriptor: &str) -> Option<MethodId> {
        let name = self.interner.lookup(name)?;
        let descriptor = self.interner.lookup(descriptor)?;
        self.resolve_method_sym(class, name, descriptor)
    }

    /// Resolve a static field by interned name, walking the superclass
    /// chain. Returns the declaring class and slot.
    pub fn resolve_static_sym(&self, class: ClassId, field: Sym) -> Option<(ClassId, usize)> {
        let mut cur = Some(class);
        while let Some(cid) = cur {
            let rc = self.get(cid);
            if let Some(&slot) = rc.static_index.get(&field) {
                return Some((cid, slot));
            }
            cur = rc.super_id;
        }
        None
    }

    /// Resolve an instance-field slot by interned name for objects whose
    /// dynamic class is `class` (the index already folds in inheritance
    /// and shadowing).
    pub fn resolve_instance_field_sym(&self, class: ClassId, field: Sym) -> Option<usize> {
        self.get(class).instance_index.get(&field).copied()
    }

    /// Resolve an instance-field slot by string name (cold paths and tests).
    pub fn resolve_instance_field(&self, class: ClassId, field: &str) -> Option<usize> {
        let field = self.interner.lookup(field)?;
        self.resolve_instance_field_sym(class, field)
    }

    /// The method's prepared body, if it has run.
    pub(crate) fn body(&self, id: MethodId) -> Option<u32> {
        self.classes[id.class.index()].bodies[id.index as usize]
    }

    pub(crate) fn set_body(&mut self, id: MethodId, body: u32) {
        self.classes[id.class.index()].bodies[id.index as usize] = Some(body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim_classfile::builder::ClassBuilder;
    use jvmsim_classfile::{FieldFlags, MethodFlags, OBJECT_CLASS};

    /// Validate and link `class`, as the VM's loader does.
    fn define(reg: &mut ClassRegistry, class: &ClassFile) -> Result<ClassId, VmError> {
        let facts = jvmsim_classfile::validate::validate_class(class).unwrap();
        reg.define(class.clone(), facts)
    }

    fn object_class() -> ClassFile {
        ClassBuilder::new(OBJECT_CLASS).finish().unwrap()
    }

    fn registry_with_object() -> (ClassRegistry, ClassId) {
        let mut reg = ClassRegistry::new();
        let oid = define(&mut reg, &object_class()).unwrap();
        (reg, oid)
    }

    fn class_ab() -> (ClassFile, ClassFile) {
        let mut a = ClassBuilder::new("t/A");
        a.field("x", "I", FieldFlags::EMPTY).unwrap();
        a.field("s", "I", FieldFlags::STATIC).unwrap();
        let mut m = a.method("id", "()I", MethodFlags::PUBLIC);
        m.iconst(1).ireturn();
        m.finish().unwrap();
        let a = a.finish().unwrap();

        let mut b = ClassBuilder::new("t/B");
        b.extends("t/A");
        b.field("y", "F", FieldFlags::EMPTY).unwrap();
        let mut m = b.method("id", "()I", MethodFlags::PUBLIC);
        m.iconst(2).ireturn();
        m.finish().unwrap();
        let b = b.finish().unwrap();
        (a, b)
    }

    #[test]
    fn define_and_lookup() {
        let (mut reg, _) = registry_with_object();
        let (a, b) = class_ab();
        let aid = define(&mut reg, &a).unwrap();
        let bid = define(&mut reg, &b).unwrap();
        assert_eq!(reg.id_of("t/A"), Some(aid));
        assert_eq!(reg.id_of("t/B"), Some(bid));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.get(bid).super_id, Some(aid));
    }

    #[test]
    fn super_must_be_linked_first() {
        let (mut reg, _) = registry_with_object();
        let (_, b) = class_ab();
        let err = define(&mut reg, &b).unwrap_err();
        assert!(matches!(err, VmError::BadHierarchy(_)));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let (mut reg, _) = registry_with_object();
        let (a, _) = class_ab();
        define(&mut reg, &a).unwrap();
        assert!(matches!(
            define(&mut reg, &a),
            Err(VmError::BadHierarchy(_))
        ));
    }

    #[test]
    fn instance_layout_includes_supers() {
        let (mut reg, _) = registry_with_object();
        let (a, b) = class_ab();
        define(&mut reg, &a).unwrap();
        let bid = define(&mut reg, &b).unwrap();
        let rb = reg.get(bid);
        assert_eq!(rb.instance_slots(), 2); // x from A, y from B
        assert_eq!(reg.resolve_instance_field(bid, "x"), Some(0));
        assert_eq!(reg.resolve_instance_field(bid, "y"), Some(1));
        assert_eq!(rb.field_defaults(), vec![Value::Int(0), Value::Float(0.0)]);
    }

    #[test]
    fn virtual_dispatch_picks_most_derived() {
        let (mut reg, _) = registry_with_object();
        let (a, b) = class_ab();
        let aid = define(&mut reg, &a).unwrap();
        let bid = define(&mut reg, &b).unwrap();
        let on_b = reg.resolve_method(bid, "id", "()I").unwrap();
        assert_eq!(on_b.class, bid);
        let on_a = reg.resolve_method(aid, "id", "()I").unwrap();
        assert_eq!(on_a.class, aid);
        // Inherited resolution: a method only on A found from B.
        assert!(reg.resolve_method(bid, "missing", "()V").is_none());
    }

    #[test]
    fn static_field_resolution_walks_supers() {
        let (mut reg, _) = registry_with_object();
        let (a, b) = class_ab();
        let aid = define(&mut reg, &a).unwrap();
        let bid = define(&mut reg, &b).unwrap();
        let s = reg.interner().lookup("s").unwrap();
        assert_eq!(reg.resolve_static_sym(bid, s), Some((aid, 0)));
        // An instance field's name is interned but names no static.
        let x = reg.interner().lookup("x").unwrap();
        assert_eq!(reg.resolve_static_sym(bid, x), None);
    }

    #[test]
    fn interning_is_idempotent_and_symbols_compare_equal() {
        let mut i = Interner::default();
        let a1 = i.intern("t/A");
        let a2 = i.intern("t/A");
        let b = i.intern("t/B");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(i.lookup("t/A"), Some(a1));
        assert_eq!(i.lookup("never"), None);
        assert_eq!(i.resolve(b), "t/B");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn sym_resolution_matches_string_resolution() {
        let (mut reg, _) = registry_with_object();
        let (a, b) = class_ab();
        define(&mut reg, &a).unwrap();
        let bid = define(&mut reg, &b).unwrap();
        let name = reg.interner().lookup("id").unwrap();
        let desc = reg.interner().lookup("()I").unwrap();
        assert_eq!(
            reg.resolve_method_sym(bid, name, desc),
            reg.resolve_method(bid, "id", "()I")
        );
        let x = reg.interner().lookup("x").unwrap();
        assert_eq!(
            reg.resolve_instance_field_sym(bid, x),
            reg.resolve_instance_field(bid, "x")
        );
    }

    #[test]
    fn insn_count_is_zero_for_natives() {
        let (mut reg, _) = registry_with_object();
        let mut c = ClassBuilder::new("t/N");
        c.native_method("nat", "(I)I", MethodFlags::PUBLIC).unwrap();
        let mut m = c.method("f", "()I", MethodFlags::PUBLIC);
        m.iconst(1).ireturn();
        m.finish().unwrap();
        let cid = define(&mut reg, &c.finish().unwrap()).unwrap();
        let nat = reg.resolve_method(cid, "nat", "(I)I").unwrap();
        let f = reg.resolve_method(cid, "f", "()I").unwrap();
        assert_eq!(reg.insn_count(nat), 0);
        assert!(reg.insn_count(f) > 0);
    }

    #[test]
    fn method_view_exposes_nativeness() {
        let (mut reg, _) = registry_with_object();
        let mut c = ClassBuilder::new("t/N");
        c.native_method("nat", "(I)I", MethodFlags::PUBLIC).unwrap();
        let cid = define(&mut reg, &c.finish().unwrap()).unwrap();
        let mid = reg.resolve_method(cid, "nat", "(I)I").unwrap();
        let view = reg.method_view(mid);
        assert!(view.is_native);
        assert_eq!(view.class_name, "t/N");
        assert_eq!(view.name, "nat");
        assert_eq!(view.descriptor, "(I)I");
    }
}
