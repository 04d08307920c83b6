//! Service implementations and the dependency-injection model (paper Fig. 1).

use std::collections::BTreeMap;

use crate::backend::BackendKind;
use crate::behavior::Behavior;
use crate::interface::ServiceInterface;
use crate::{Result, WorkflowError};

/// What kind of thing a declared dependency is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepKind {
    /// Another workflow service, identified by its *interface* name; the
    /// wiring spec later binds the dependency to a concrete instance.
    Service(String),
    /// A backend of the given kind.
    Backend(BackendKind),
}

impl DepKind {
    /// Human-readable kind family used in error messages and validation
    /// (`"service"`, `"cache"`, `"db"`, `"queue"`, `"tracer"`).
    pub fn family(&self) -> &'static str {
        match self {
            DepKind::Service(_) => "service",
            DepKind::Backend(BackendKind::Cache) => "cache",
            DepKind::Backend(BackendKind::NoSqlDb) | DepKind::Backend(BackendKind::RelDb) => "db",
            DepKind::Backend(BackendKind::Queue) => "queue",
            DepKind::Backend(BackendKind::Tracer) => "tracer",
        }
    }
}

/// A constructor-injected dependency declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct DepDecl {
    /// Local name the behavior programs use, e.g. `"post_db"`.
    pub name: String,
    /// Dependency kind.
    pub kind: DepKind,
}

/// A service implementation: an interface plus declared dependencies plus a
/// behavior per interface method.
///
/// Mirrors Fig. 1 of the paper: the implementation never instantiates its
/// dependencies (they are constructor parameters) and never references
/// scaffolding or instantiations.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceImpl {
    /// Implementation name, e.g. `"ComposePostServiceImpl"`.
    pub name: String,
    /// The implemented interface.
    pub interface: ServiceInterface,
    /// Ordered constructor parameters.
    pub deps: Vec<DepDecl>,
    /// Method name → behavior program.
    pub behaviors: BTreeMap<String, Behavior>,
}

impl ServiceImpl {
    /// Looks a dependency declaration up by name.
    pub fn dep(&self, name: &str) -> Option<&DepDecl> {
        self.deps.iter().find(|d| d.name == name)
    }

    /// Validates internal consistency:
    ///
    /// * every behavior belongs to an interface method;
    /// * every interface method has a behavior;
    /// * every dependency used by a behavior is declared with a compatible
    ///   kind (this is the compile-time enforcement of dependency injection).
    pub fn validate(&self) -> Result<()> {
        for method in self.behaviors.keys() {
            if !self.interface.has_method(method) {
                return Err(WorkflowError::UnknownMethod {
                    service: self.name.clone(),
                    method: method.clone(),
                });
            }
        }
        for m in &self.interface.methods {
            if !self.behaviors.contains_key(&m.name) {
                return Err(WorkflowError::MissingBehavior {
                    service: self.name.clone(),
                    method: m.name.clone(),
                });
            }
        }
        for (method, behavior) in &self.behaviors {
            for (dep, family) in behavior.dep_uses() {
                match self.dep(dep) {
                    None => {
                        return Err(WorkflowError::UnknownDep {
                            service: self.name.clone(),
                            method: method.clone(),
                            dep: dep.to_string(),
                        });
                    }
                    Some(decl) if decl.kind.family() != family => {
                        return Err(WorkflowError::DepKindMismatch {
                            service: self.name.clone(),
                            dep: dep.to_string(),
                            expected: family.to_string(),
                            found: decl.kind.family().to_string(),
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`ServiceImpl`].
#[derive(Debug)]
pub struct ServiceBuilder {
    name: String,
    interface: ServiceInterface,
    deps: Vec<DepDecl>,
    behaviors: BTreeMap<String, Behavior>,
}

impl ServiceBuilder {
    /// Starts building an implementation of `interface`.
    pub fn new(name: impl Into<String>, interface: ServiceInterface) -> Self {
        ServiceBuilder {
            name: name.into(),
            interface,
            deps: Vec::new(),
            behaviors: BTreeMap::new(),
        }
    }

    /// Declares a dependency on another service by interface name.
    pub fn dep_service(mut self, name: &str, interface: &str) -> Self {
        self.deps.push(DepDecl {
            name: name.into(),
            kind: DepKind::Service(interface.into()),
        });
        self
    }

    /// Declares a dependency on a backend.
    pub fn dep_backend(mut self, name: &str, kind: BackendKind) -> Self {
        self.deps.push(DepDecl {
            name: name.into(),
            kind: DepKind::Backend(kind),
        });
        self
    }

    /// Declares a cache dependency.
    pub fn dep_cache(self, name: &str) -> Self {
        self.dep_backend(name, BackendKind::Cache)
    }

    /// Declares a NoSQL database dependency.
    pub fn dep_nosql(self, name: &str) -> Self {
        self.dep_backend(name, BackendKind::NoSqlDb)
    }

    /// Declares a relational database dependency.
    pub fn dep_reldb(self, name: &str) -> Self {
        self.dep_backend(name, BackendKind::RelDb)
    }

    /// Declares a queue dependency.
    pub fn dep_queue(self, name: &str) -> Self {
        self.dep_backend(name, BackendKind::Queue)
    }

    /// Provides the behavior for an interface method.
    pub fn method(mut self, name: &str, behavior: Behavior) -> Self {
        self.behaviors.insert(name.into(), behavior);
        self
    }

    /// Finishes and validates the implementation.
    pub fn done(self) -> Result<ServiceImpl> {
        let s = ServiceImpl {
            name: self.name,
            interface: self.interface,
            deps: self.deps,
            behaviors: self.behaviors,
        };
        s.validate()?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::KeyExpr;
    use blueprint_ir::types::{MethodSig, TypeRef};

    fn iface() -> ServiceInterface {
        ServiceInterface::new(
            "PostStorageService",
            vec![
                MethodSig::new("StorePost", vec![], TypeRef::Unit),
                MethodSig::new("ReadPost", vec![], TypeRef::Bytes),
            ],
        )
    }

    #[test]
    fn valid_service_builds() {
        let s = ServiceBuilder::new("PostStorageServiceImpl", iface())
            .dep_cache("post_cache")
            .dep_nosql("post_db")
            .method(
                "StorePost",
                Behavior::build()
                    .db_write("post_db", KeyExpr::Entity)
                    .cache_put("post_cache", KeyExpr::Entity)
                    .done(),
            )
            .method(
                "ReadPost",
                Behavior::build()
                    .cache_get_or_fetch(
                        "post_cache",
                        KeyExpr::Entity,
                        Behavior::build().db_read("post_db", KeyExpr::Entity).done(),
                    )
                    .done(),
            )
            .done()
            .unwrap();
        assert_eq!(s.deps.len(), 2);
        assert!(s.dep("post_cache").is_some());
    }

    #[test]
    fn undeclared_dep_rejected() {
        let err = ServiceBuilder::new("S", iface())
            .method("StorePost", Behavior::build().call("mystery", "X").done())
            .method("ReadPost", Behavior::empty())
            .done()
            .unwrap_err();
        assert!(matches!(err, WorkflowError::UnknownDep { .. }), "{err}");
    }

    #[test]
    fn dep_kind_mismatch_rejected() {
        let err = ServiceBuilder::new("S", iface())
            .dep_cache("thing")
            .method(
                "StorePost",
                Behavior::build().db_write("thing", KeyExpr::Entity).done(),
            )
            .method("ReadPost", Behavior::empty())
            .done()
            .unwrap_err();
        assert!(
            matches!(err, WorkflowError::DepKindMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_behavior_rejected() {
        let err = ServiceBuilder::new("S", iface())
            .method("StorePost", Behavior::empty())
            .done()
            .unwrap_err();
        assert!(
            matches!(err, WorkflowError::MissingBehavior { .. }),
            "{err}"
        );
    }

    #[test]
    fn extra_behavior_rejected() {
        let err = ServiceBuilder::new("S", iface())
            .method("StorePost", Behavior::empty())
            .method("ReadPost", Behavior::empty())
            .method("NotAMethod", Behavior::empty())
            .done()
            .unwrap_err();
        assert!(matches!(err, WorkflowError::UnknownMethod { .. }), "{err}");
    }

    #[test]
    fn reldb_and_queue_families() {
        assert_eq!(DepKind::Backend(BackendKind::RelDb).family(), "db");
        assert_eq!(DepKind::Backend(BackendKind::Queue).family(), "queue");
        assert_eq!(DepKind::Backend(BackendKind::Tracer).family(), "tracer");
        assert_eq!(DepKind::Service("X".into()).family(), "service");
    }
}
