//! The program model: classes, fields, methods, and virtual dispatch.
//!
//! A [`Program`] owns a single-inheritance class hierarchy and a set of
//! methods. Methods are either *static functions* (no holder class) or
//! *class methods* that participate in virtual dispatch through interned
//! [`SelectorId`]s (method name + arity). Class-hierarchy analysis (CHA)
//! queries used by devirtualization live here as well.

use std::collections::HashMap;
use std::fmt;

use crate::graph::Graph;
use crate::ids::{ClassId, FieldId, MethodId, SelectorId};
use crate::types::{RetType, Type};

/// A class in the hierarchy.
#[derive(Clone, Debug)]
pub struct Class {
    /// Human-readable class name (unique within the program).
    pub name: String,
    /// Superclass, if any.
    pub parent: Option<ClassId>,
    /// Fields declared by this class itself (not inherited).
    pub declared_fields: Vec<FieldId>,
    /// Methods declared by this class, keyed by selector (overrides included).
    pub declared_methods: HashMap<SelectorId, MethodId>,
    /// Direct subclasses.
    pub subclasses: Vec<ClassId>,
    /// Number of fields in an instance (inherited + declared).
    pub instance_len: usize,
}

/// A field of a class.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Declaring class.
    pub holder: ClassId,
    /// Value type of the field.
    pub ty: Type,
    /// Slot offset within an instance (inherited fields first).
    pub offset: usize,
}

/// Interned virtual-dispatch selector.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Selector {
    /// Method name.
    pub name: String,
    /// Number of parameters, including the receiver.
    pub arity: usize,
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// How a method body may be used by the compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodKind {
    /// Ordinary method: may be interpreted, compiled and inlined.
    Normal,
    /// Opaque method (paper's `G` nodes): has an executable body but the
    /// compiler must treat it as a call boundary and never inline it.
    Opaque,
}

/// A method: a typed signature plus an IR [`Graph`] body.
#[derive(Clone, Debug)]
pub struct Method {
    /// Method name. For class methods this is the selector name.
    pub name: String,
    /// Holder class for class methods; `None` for static functions.
    pub holder: Option<ClassId>,
    /// Dispatch selector for class methods.
    pub selector: Option<SelectorId>,
    /// Parameter types. For class methods, `params[0]` is the receiver.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: RetType,
    /// The body. Empty until [`Program::define_method`] is called.
    pub graph: Graph,
    /// Inlineability class of the method.
    pub kind: MethodKind,
    /// `graph.size()`, measured when the body was attached. A program hands
    /// out its methods by shared reference only, so this cannot go stale.
    graph_size: usize,
}

impl Method {
    /// Whether the compiler may inline this method.
    pub fn can_inline(&self) -> bool {
        self.kind == MethodKind::Normal
    }

    /// The paper's `|ir|` of the method's template body: `graph.size()`,
    /// without the walk (the inliners ask for it at every callsite).
    pub fn ir_size(&self) -> usize {
        self.graph_size
    }
}

/// A whole program: class hierarchy plus methods.
#[derive(Clone, Debug, Default)]
pub struct Program {
    classes: Vec<Class>,
    fields: Vec<Field>,
    methods: Vec<Method>,
    selectors: Vec<Selector>,
    selector_lookup: HashMap<Selector, SelectorId>,
    class_lookup: HashMap<String, ClassId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- classes ----------------------------------------------------------

    /// Adds a class with an optional superclass and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the class name is already taken.
    pub fn add_class(&mut self, name: impl Into<String>, parent: Option<ClassId>) -> ClassId {
        let name = name.into();
        assert!(
            !self.class_lookup.contains_key(&name),
            "duplicate class name `{name}`"
        );
        let id = ClassId::new(self.classes.len());
        let instance_len = parent.map_or(0, |p| self.classes[p.index()].instance_len);
        self.classes.push(Class {
            name: name.clone(),
            parent,
            declared_fields: Vec::new(),
            declared_methods: HashMap::new(),
            subclasses: Vec::new(),
            instance_len,
        });
        if let Some(p) = parent {
            self.classes[p.index()].subclasses.push(id);
        }
        self.class_lookup.insert(name, id);
        id
    }

    /// Adds a field to `class` and returns its id.
    ///
    /// Fields must be declared before any subclass of `class` is created so
    /// that slot offsets of subclasses remain valid.
    ///
    /// # Panics
    ///
    /// Panics if `class` already has subclasses.
    pub fn add_field(&mut self, class: ClassId, name: impl Into<String>, ty: Type) -> FieldId {
        assert!(
            self.classes[class.index()].subclasses.is_empty(),
            "cannot add field to class with existing subclasses"
        );
        let id = FieldId::new(self.fields.len());
        let offset = self.classes[class.index()].instance_len;
        self.fields.push(Field {
            name: name.into(),
            holder: class,
            ty,
            offset,
        });
        let c = &mut self.classes[class.index()];
        c.declared_fields.push(id);
        c.instance_len += 1;
        id
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_lookup.get(name).copied()
    }

    /// Returns the class data for `id`.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Returns the field data for `id`.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Finds a field by name, searching `class` and its ancestors.
    pub fn field_by_name(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let data = self.class(c);
            for &f in &data.declared_fields {
                if self.fields[f.index()].name == name {
                    return Some(f);
                }
            }
            cur = data.parent;
        }
        None
    }

    /// Number of classes in the program.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Iterates over all class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len()).map(ClassId::new)
    }

    /// Whether `sub` equals `sup` or transitively inherits from it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c.index()].parent;
        }
        false
    }

    /// Whether a value of type `from` can flow into a slot of type `to`
    /// without a cast (reflexive; covariant only via class subtyping).
    pub fn is_assignable(&self, from: Type, to: Type) -> bool {
        match (from, to) {
            (Type::Object(a), Type::Object(b)) => self.is_subclass(a, b),
            (a, b) => a == b,
        }
    }

    /// All transitive subclasses of `class`, excluding `class` itself.
    pub fn transitive_subclasses(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = self.classes[class.index()].subclasses.clone();
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend_from_slice(&self.classes[c.index()].subclasses);
        }
        out
    }

    // ---- selectors --------------------------------------------------------

    /// Interns a selector (name + arity including receiver).
    pub fn intern_selector(&mut self, name: impl Into<String>, arity: usize) -> SelectorId {
        let sel = Selector {
            name: name.into(),
            arity,
        };
        if let Some(&id) = self.selector_lookup.get(&sel) {
            return id;
        }
        let id = SelectorId::new(self.selectors.len());
        self.selectors.push(sel.clone());
        self.selector_lookup.insert(sel, id);
        id
    }

    /// Returns the selector data for `id`.
    pub fn selector(&self, id: SelectorId) -> &Selector {
        &self.selectors[id.index()]
    }

    /// Looks up an existing selector without interning.
    pub fn selector_by_name(&self, name: &str, arity: usize) -> Option<SelectorId> {
        self.selector_lookup
            .get(&Selector {
                name: name.to_string(),
                arity,
            })
            .copied()
    }

    // ---- methods ----------------------------------------------------------

    /// Declares a static function with an empty body; the body is attached
    /// later with [`Program::define_method`]. Two-phase creation lets bodies
    /// reference the `MethodId` of mutually recursive methods.
    pub fn declare_function(
        &mut self,
        name: impl Into<String>,
        params: Vec<Type>,
        ret: impl Into<RetType>,
    ) -> MethodId {
        let id = MethodId::new(self.methods.len());
        self.methods.push(Method {
            name: name.into(),
            holder: None,
            selector: None,
            params,
            ret: ret.into(),
            graph: Graph::empty(),
            kind: MethodKind::Normal,
            graph_size: Graph::empty().size(),
        });
        id
    }

    /// Declares a class method participating in virtual dispatch.
    ///
    /// The receiver parameter (`params[0] = Object(holder)`) is added
    /// implicitly; `params` lists only the non-receiver parameters.
    ///
    /// # Panics
    ///
    /// Panics if the class already declares a method with this selector.
    pub fn declare_method(
        &mut self,
        holder: ClassId,
        name: impl Into<String>,
        params: Vec<Type>,
        ret: impl Into<RetType>,
    ) -> MethodId {
        let name = name.into();
        let mut full_params = Vec::with_capacity(params.len() + 1);
        full_params.push(Type::Object(holder));
        full_params.extend(params);
        let sel = self.intern_selector(name.clone(), full_params.len());
        let id = MethodId::new(self.methods.len());
        self.methods.push(Method {
            name,
            holder: Some(holder),
            selector: Some(sel),
            params: full_params,
            ret: ret.into(),
            graph: Graph::empty(),
            kind: MethodKind::Normal,
            graph_size: Graph::empty().size(),
        });
        let prev = self.classes[holder.index()]
            .declared_methods
            .insert(sel, id);
        assert!(
            prev.is_none(),
            "class redeclares selector {}",
            self.selectors[sel.index()]
        );
        id
    }

    /// Attaches the body graph to a previously declared method.
    pub fn define_method(&mut self, id: MethodId, graph: Graph) {
        let method = &mut self.methods[id.index()];
        method.graph_size = graph.size();
        method.graph = graph;
    }

    /// Marks a method as opaque (never inlined; the paper's `G` nodes).
    pub fn set_opaque(&mut self, id: MethodId) {
        self.methods[id.index()].kind = MethodKind::Opaque;
    }

    /// Returns the method data for `id`.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Number of methods in the program.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Iterates over all method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.methods.len()).map(MethodId::new)
    }

    /// Finds a static function by name.
    pub fn function_by_name(&self, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.holder.is_none() && m.name == name)
            .map(MethodId::new)
    }

    // ---- dispatch ---------------------------------------------------------

    /// Resolves virtual dispatch of `selector` on a receiver of dynamic
    /// class `class`, walking up the hierarchy.
    pub fn resolve(&self, class: ClassId, selector: SelectorId) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(&m) = self.classes[c.index()].declared_methods.get(&selector) {
                return Some(m);
            }
            cur = self.classes[c.index()].parent;
        }
        None
    }

    /// Class-hierarchy analysis: if every possible receiver whose static
    /// type is `class` dispatches `selector` to the same method, returns it.
    ///
    /// This holds when the method resolved at `class` is not overridden by
    /// any transitive subclass of `class`.
    pub fn resolve_unique(&self, class: ClassId, selector: SelectorId) -> Option<MethodId> {
        let target = self.resolve(class, selector)?;
        for sub in self.transitive_subclasses(class) {
            if let Some(&m) = self.classes[sub.index()].declared_methods.get(&selector) {
                if m != target {
                    return None;
                }
            }
        }
        Some(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> (Program, ClassId, ClassId, ClassId) {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let b = p.add_class("B", Some(a));
        let c = p.add_class("C", Some(b));
        (p, a, b, c)
    }

    #[test]
    fn subclass_chain() {
        let (p, a, b, c) = hierarchy();
        assert!(p.is_subclass(c, a));
        assert!(p.is_subclass(b, a));
        assert!(p.is_subclass(a, a));
        assert!(!p.is_subclass(a, b));
    }

    #[test]
    fn field_offsets_follow_inheritance() {
        let mut p = Program::new();
        let a = p.add_class("A", None);
        let fx = p.add_field(a, "x", Type::Int);
        let b = p.add_class("B", Some(a));
        let fy = p.add_field(b, "y", Type::Float);
        assert_eq!(p.field(fx).offset, 0);
        assert_eq!(p.field(fy).offset, 1);
        assert_eq!(p.class(b).instance_len, 2);
        assert_eq!(p.field_by_name(b, "x"), Some(fx));
        assert_eq!(p.field_by_name(b, "y"), Some(fy));
        assert_eq!(p.field_by_name(a, "y"), None);
    }

    #[test]
    #[should_panic(expected = "existing subclasses")]
    fn field_after_subclass_panics() {
        let (mut p, a, _, _) = hierarchy();
        p.add_field(a, "late", Type::Int);
    }

    #[test]
    fn dispatch_resolution_and_cha() {
        let (mut p, a, b, c) = hierarchy();
        let ma = p.declare_method(a, "run", vec![], Type::Int);
        let mb = p.declare_method(b, "run", vec![], Type::Int);
        let sel = p.selector_by_name("run", 1).unwrap();
        assert_eq!(p.resolve(a, sel), Some(ma));
        assert_eq!(p.resolve(b, sel), Some(mb));
        assert_eq!(p.resolve(c, sel), Some(mb));
        // `a`'s dispatch is polymorphic (B overrides), so CHA fails at A…
        assert_eq!(p.resolve_unique(a, sel), None);
        // …but succeeds at B (C does not override).
        assert_eq!(p.resolve_unique(b, sel), Some(mb));
        assert_eq!(p.resolve_unique(c, sel), Some(mb));
    }

    #[test]
    fn assignability() {
        let (p, a, b, _) = hierarchy();
        assert!(p.is_assignable(Type::Object(b), Type::Object(a)));
        assert!(!p.is_assignable(Type::Object(a), Type::Object(b)));
        assert!(p.is_assignable(Type::Int, Type::Int));
        assert!(!p.is_assignable(Type::Int, Type::Float));
    }

    #[test]
    fn selectors_intern_once() {
        let mut p = Program::new();
        let s1 = p.intern_selector("foo", 2);
        let s2 = p.intern_selector("foo", 2);
        let s3 = p.intern_selector("foo", 3);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(p.selector(s1).to_string(), "foo/2");
    }

    #[test]
    fn opaque_methods_cannot_inline() {
        let mut p = Program::new();
        let f = p.declare_function("native_thing", vec![], RetType::Void);
        assert!(p.method(f).can_inline());
        p.set_opaque(f);
        assert!(!p.method(f).can_inline());
    }
}
