//! Wiring spec AST and programmatic builder.

use std::collections::{BTreeMap, BTreeSet};

use crate::{Result, WiringError};

/// An argument in a wiring declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Reference to another wiring instance by name.
    Ref(String),
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// List of arguments.
    List(Vec<Arg>),
}

impl Arg {
    /// Shorthand for a reference.
    pub fn r(name: &str) -> Arg {
        Arg::Ref(name.to_string())
    }

    /// All reference names inside this argument, recursively.
    pub fn refs(&self) -> Vec<&str> {
        match self {
            Arg::Ref(n) => vec![n.as_str()],
            Arg::List(items) => items.iter().flat_map(Arg::refs).collect(),
            _ => Vec::new(),
        }
    }

    /// Integer value, if this is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Arg::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float value (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Arg::Float(v) => Some(*v),
            Arg::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String value, if this is a string literal.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Arg::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Reference name, if this is a reference.
    pub fn as_ref_name(&self) -> Option<&str> {
        match self {
            Arg::Ref(n) => Some(n),
            _ => None,
        }
    }
}

/// One wiring declaration: `name = Callee(args, kw=..)[.with_server([mods])]`.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceDecl {
    /// Instance name (left-hand side).
    pub name: String,
    /// Callee identifier resolved against the plugin registry at compile time
    /// (e.g. `Memcached`, `UserServiceImpl`, `GRPCServer`, `Container`).
    pub callee: String,
    /// Positional arguments.
    pub args: Vec<Arg>,
    /// Keyword arguments.
    pub kwargs: BTreeMap<String, Arg>,
    /// Names of modifier instances applied via `.with_server([...])`,
    /// innermost first.
    pub server_modifiers: Vec<String>,
}

impl InstanceDecl {
    /// All instance names this declaration references (args, kwargs, and
    /// server modifiers).
    pub fn referenced(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.args.iter().flat_map(Arg::refs).collect();
        out.extend(self.kwargs.values().flat_map(Arg::refs));
        out.extend(self.server_modifiers.iter().map(String::as_str));
        out
    }

    /// Keyword argument accessor.
    pub fn kwarg(&self, key: &str) -> Option<&Arg> {
        self.kwargs.get(key)
    }
}

/// A complete wiring spec: an ordered list of declarations.
///
/// Order matters: references must be declared before use, mirroring the
/// straight-line style of the paper's wiring files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WiringSpec {
    /// Application name.
    pub app_name: String,
    /// Declarations, in order.
    pub decls: Vec<InstanceDecl>,
}

impl WiringSpec {
    /// Creates an empty wiring spec.
    pub fn new(app_name: impl Into<String>) -> Self {
        WiringSpec {
            app_name: app_name.into(),
            decls: Vec::new(),
        }
    }

    /// Adds a declaration, checking name uniqueness and define-before-use.
    pub fn add(&mut self, decl: InstanceDecl) -> Result<()> {
        if self.decl(&decl.name).is_some() {
            return Err(WiringError::DuplicateName(decl.name));
        }
        let known: BTreeSet<&str> = self.decls.iter().map(|d| d.name.as_str()).collect();
        for r in decl.referenced() {
            if !known.contains(r) {
                return Err(WiringError::UndefinedRef {
                    instance: decl.name.clone(),
                    referenced: r.to_string(),
                });
            }
        }
        self.decls.push(decl);
        Ok(())
    }

    /// Convenience: declare `name = callee(args...)`.
    pub fn define(&mut self, name: &str, callee: &str, args: Vec<Arg>) -> Result<()> {
        self.add(InstanceDecl {
            name: name.into(),
            callee: callee.into(),
            args,
            kwargs: BTreeMap::new(),
            server_modifiers: Vec::new(),
        })
    }

    /// Convenience: declare with keyword arguments.
    pub fn define_kw(
        &mut self,
        name: &str,
        callee: &str,
        args: Vec<Arg>,
        kwargs: Vec<(&str, Arg)>,
    ) -> Result<()> {
        self.add(InstanceDecl {
            name: name.into(),
            callee: callee.into(),
            args,
            kwargs: kwargs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            server_modifiers: Vec::new(),
        })
    }

    /// Convenience: declare an instance with keyword arguments and server
    /// modifiers (used e.g. for backends that carry timeout/retry
    /// scaffolding, as in the Type-4 metastability variant).
    pub fn define_kw_mods(
        &mut self,
        name: &str,
        callee: &str,
        args: Vec<Arg>,
        kwargs: Vec<(&str, Arg)>,
        server_modifiers: &[&str],
    ) -> Result<()> {
        self.add(InstanceDecl {
            name: name.into(),
            callee: callee.into(),
            args,
            kwargs: kwargs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            server_modifiers: server_modifiers.iter().map(|m| m.to_string()).collect(),
        })
    }

    /// Convenience: declare a service instance with server modifiers, the
    /// `X = Impl(deps).WithServer(mods)` pattern of Fig. 3.
    pub fn service(
        &mut self,
        name: &str,
        impl_name: &str,
        deps: &[&str],
        server_modifiers: &[&str],
    ) -> Result<()> {
        self.add(InstanceDecl {
            name: name.into(),
            callee: impl_name.into(),
            args: deps.iter().map(|d| Arg::r(d)).collect(),
            kwargs: BTreeMap::new(),
            server_modifiers: server_modifiers.iter().map(|m| m.to_string()).collect(),
        })
    }

    /// Convenience: group instances into a container namespace.
    pub fn container(&mut self, name: &str, members: &[&str]) -> Result<()> {
        self.define(
            name,
            "Container",
            members.iter().map(|m| Arg::r(m)).collect(),
        )
    }

    /// Convenience: group instances into a process namespace.
    pub fn process(&mut self, name: &str, members: &[&str]) -> Result<()> {
        self.define(name, "Process", members.iter().map(|m| Arg::r(m)).collect())
    }

    /// Looks a declaration up by name.
    pub fn decl(&self, name: &str) -> Option<&InstanceDecl> {
        self.decls.iter().find(|d| d.name == name)
    }

    /// Looks a declaration up mutably by name.
    pub fn decl_mut(&mut self, name: &str) -> Option<&mut InstanceDecl> {
        self.decls.iter_mut().find(|d| d.name == name)
    }

    /// All declarations using a given callee.
    pub fn decls_with_callee(&self, callee: &str) -> Vec<&InstanceDecl> {
        self.decls.iter().filter(|d| d.callee == callee).collect()
    }

    /// Validates the whole spec (uniqueness + define-before-use), useful after
    /// mutation helpers that edit declarations in place.
    pub fn validate(&self) -> Result<()> {
        let mut known: BTreeSet<&str> = BTreeSet::new();
        for d in &self.decls {
            if !known.insert(d.name.as_str()) {
                return Err(WiringError::DuplicateName(d.name.clone()));
            }
            for r in d.referenced() {
                if !known.contains(r) {
                    return Err(WiringError::UndefinedRef {
                        instance: d.name.clone(),
                        referenced: r.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Lines of wiring spec (the number reported in Tab. 1 — one declaration
    /// is one line in the textual DSL).
    pub fn loc(&self) -> usize {
        self.decls.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_spec() -> WiringSpec {
        let mut w = WiringSpec::new("dsb_sn_excerpt");
        w.define("normal_deployer", "Docker", vec![]).unwrap();
        w.define("rpc_server", "GRPCServer", vec![]).unwrap();
        w.define("tracer", "ZipkinTracer", vec![]).unwrap();
        w.define_kw(
            "tracer_mod",
            "TracerModifier",
            vec![],
            vec![("tracer", Arg::r("tracer"))],
        )
        .unwrap();
        w.define("post_cache", "Memcached", vec![]).unwrap();
        w.define("post_db", "MongoDB", vec![]).unwrap();
        w.define("user_db", "MongoDB", vec![]).unwrap();
        let mods = ["rpc_server", "normal_deployer", "tracer_mod"];
        w.service("us", "UserServiceImpl", &["user_db"], &mods)
            .unwrap();
        w.service(
            "ps",
            "PostStorageServiceImpl",
            &["post_cache", "post_db"],
            &mods,
        )
        .unwrap();
        w.container("c1", &["ps", "post_cache"]).unwrap();
        w.service("cs", "ComposePostServiceImpl", &["ps", "us"], &mods)
            .unwrap();
        w
    }

    #[test]
    fn fig3_builds_and_validates() {
        let w = fig3_spec();
        w.validate().unwrap();
        assert_eq!(w.loc(), 11);
        assert_eq!(w.decls_with_callee("MongoDB").len(), 2);
        let cs = w.decl("cs").unwrap();
        assert_eq!(
            cs.server_modifiers,
            vec!["rpc_server", "normal_deployer", "tracer_mod"]
        );
        assert_eq!(cs.args, vec![Arg::r("ps"), Arg::r("us")]);
    }

    #[test]
    fn duplicate_rejected() {
        let mut w = fig3_spec();
        let err = w.define("us", "Docker", vec![]).unwrap_err();
        assert!(matches!(err, WiringError::DuplicateName(_)));
    }

    #[test]
    fn use_before_define_rejected() {
        let mut w = WiringSpec::new("t");
        let err = w.service("s", "Impl", &["missing_db"], &[]).unwrap_err();
        assert!(matches!(err, WiringError::UndefinedRef { .. }));
    }

    #[test]
    fn kwargs_and_refs() {
        let w = fig3_spec();
        let tm = w.decl("tracer_mod").unwrap();
        assert_eq!(tm.kwarg("tracer").unwrap().as_ref_name(), Some("tracer"));
        assert!(tm.referenced().contains(&"tracer"));
    }

    #[test]
    fn arg_accessors() {
        assert_eq!(Arg::Int(3).as_int(), Some(3));
        assert_eq!(Arg::Int(3).as_float(), Some(3.0));
        assert_eq!(Arg::Float(0.5).as_float(), Some(0.5));
        assert_eq!(Arg::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Arg::Bool(true).as_int(), None);
        let l = Arg::List(vec![Arg::r("a"), Arg::List(vec![Arg::r("b")]), Arg::Int(1)]);
        assert_eq!(l.refs(), vec!["a", "b"]);
    }

    #[test]
    fn validate_catches_in_place_corruption() {
        let mut w = fig3_spec();
        // Mutate an arg to reference a name declared later than the use site.
        w.decl_mut("us").unwrap().args[0] = Arg::r("cs");
        assert!(matches!(
            w.validate().unwrap_err(),
            WiringError::UndefinedRef { .. }
        ));
    }
}
