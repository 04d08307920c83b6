//! Service interfaces: named sets of typed methods (paper Fig. 1).

use blueprint_ir::types::{snake_case, MethodSig};

/// A service interface declared in a workflow spec.
///
/// The interface is the unit the compiler works with: RPC plugins generate
/// IDL and wrapper classes from it, tracing plugins wrap each method, and IR
/// edges carry subsets of its methods.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceInterface {
    /// Interface name, e.g. `"ComposePostService"`.
    pub name: String,
    /// Typed methods.
    pub methods: Vec<MethodSig>,
}

impl ServiceInterface {
    /// Creates an interface.
    pub fn new(name: impl Into<String>, methods: Vec<MethodSig>) -> Self {
        ServiceInterface {
            name: name.into(),
            methods,
        }
    }

    /// Looks a method up by name.
    pub fn method(&self, name: &str) -> Option<&MethodSig> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Whether the interface declares `name`.
    pub fn has_method(&self, name: &str) -> bool {
        self.method(name).is_some()
    }

    /// Renders the interface as a Rust trait declaration (used by codegen and
    /// shown in quickstart docs).
    pub fn rust_trait(&self) -> String {
        let mut out = format!("pub trait {} {{\n", self.name);
        for m in &self.methods {
            out.push_str("    ");
            out.push_str(&m.rust_decl());
            out.push_str(";\n");
        }
        out.push_str("}\n");
        out
    }

    /// The conventional instance name for this interface
    /// (`ComposePostService` → `compose_post_service`).
    pub fn default_instance_name(&self) -> String {
        snake_case(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::types::{Param, TypeRef};

    fn iface() -> ServiceInterface {
        ServiceInterface::new(
            "ComposePostService",
            vec![
                MethodSig::new(
                    "ComposePost",
                    vec![
                        Param::new("reqID", TypeRef::I64),
                        Param::new("text", TypeRef::Str),
                    ],
                    TypeRef::Unit,
                ),
                MethodSig::new("Health", vec![], TypeRef::Bool),
            ],
        )
    }

    #[test]
    fn lookup() {
        let i = iface();
        assert!(i.has_method("ComposePost"));
        assert!(!i.has_method("Missing"));
        assert_eq!(i.method("Health").unwrap().ret, TypeRef::Bool);
    }

    #[test]
    fn rust_trait_renders_each_method() {
        let t = iface().rust_trait();
        assert!(t.starts_with("pub trait ComposePostService {"));
        assert!(t.contains("fn compose_post(&self, ctx: &mut Ctx, req_id: i64, text: String) -> Result<(), Error>;"));
        assert!(t.contains("fn health(&self, ctx: &mut Ctx) -> Result<bool, Error>;"));
    }

    #[test]
    fn default_instance_name_is_snake() {
        assert_eq!(iface().default_instance_name(), "compose_post_service");
    }
}
