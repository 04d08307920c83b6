//! The workflow spec: all service implementations of one application.

use std::collections::BTreeMap;

use crate::service::{DepKind, ServiceImpl};
use crate::{Result, WorkflowError};

/// A complete workflow spec: the application-level half of a Blueprint
/// application (the other half being the wiring spec).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkflowSpec {
    /// Application name.
    pub name: String,
    /// Implementation name → service implementation.
    pub services: BTreeMap<String, ServiceImpl>,
}

impl WorkflowSpec {
    /// Creates an empty spec.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowSpec {
            name: name.into(),
            services: BTreeMap::new(),
        }
    }

    /// Adds a service implementation.
    pub fn add_service(&mut self, service: ServiceImpl) -> Result<()> {
        if self.services.contains_key(&service.name) {
            return Err(WorkflowError::Invalid(format!(
                "duplicate service implementation {}",
                service.name
            )));
        }
        service.validate()?;
        self.services.insert(service.name.clone(), service);
        Ok(())
    }

    /// Looks an implementation up by name.
    pub fn service(&self, name: &str) -> Option<&ServiceImpl> {
        self.services.get(name)
    }

    /// Finds the implementations of a given interface name.
    pub fn impls_of(&self, interface: &str) -> Vec<&ServiceImpl> {
        self.services
            .values()
            .filter(|s| s.interface.name == interface)
            .collect()
    }

    /// Validates cross-service consistency:
    ///
    /// * every service-dependency interface is implemented by some service in
    ///   the spec;
    /// * every `Call` step targets a method that exists on the dependency's
    ///   interface.
    pub fn validate(&self) -> Result<()> {
        for svc in self.services.values() {
            svc.validate()?;
            for dep in &svc.deps {
                if let DepKind::Service(iface) = &dep.kind {
                    if self.impls_of(iface).is_empty() {
                        return Err(WorkflowError::Invalid(format!(
                            "{}: dependency `{}` needs interface {iface}, \
                             which no service in the spec implements",
                            svc.name, dep.name
                        )));
                    }
                }
            }
            for (method, behavior) in &svc.behaviors {
                for (dep, called) in behavior.calls() {
                    let Some(decl) = svc.dep(dep) else { continue };
                    if let DepKind::Service(iface) = &decl.kind {
                        let Some(target) = self.impls_of(iface).first().copied() else {
                            continue;
                        };
                        if !target.interface.has_method(called) {
                            return Err(WorkflowError::Invalid(format!(
                                "{}.{method}: calls {dep}.{called}, but interface {iface} \
                                 has no method {called}",
                                svc.name
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Total number of interface methods across all services.
    pub fn method_count(&self) -> usize {
        self.services
            .values()
            .map(|s| s.interface.methods.len())
            .sum()
    }

    /// Total behavior size (step count) across all services — a rough
    /// complexity measure reported next to LoC in Tab. 1 tooling.
    pub fn behavior_size(&self) -> usize {
        self.services
            .values()
            .flat_map(|s| s.behaviors.values())
            .map(|b| b.size())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::interface::ServiceInterface;
    use crate::service::ServiceBuilder;
    use blueprint_ir::types::{MethodSig, TypeRef};

    fn leaf(name: &str, iface: &str, method: &str) -> ServiceImpl {
        ServiceBuilder::new(
            name,
            ServiceInterface::new(iface, vec![MethodSig::new(method, vec![], TypeRef::Unit)]),
        )
        .method(method, Behavior::build().compute(1000, 64).done())
        .done()
        .unwrap()
    }

    #[test]
    fn spec_with_resolved_deps_validates() {
        let mut spec = WorkflowSpec::new("app");
        spec.add_service(leaf("UserServiceImpl", "UserService", "Login"))
            .unwrap();
        let front = ServiceBuilder::new(
            "FrontendImpl",
            ServiceInterface::new(
                "Frontend",
                vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
            ),
        )
        .dep_service("users", "UserService")
        .method("Handle", Behavior::build().call("users", "Login").done())
        .done()
        .unwrap();
        spec.add_service(front).unwrap();
        spec.validate().unwrap();
        assert_eq!(spec.method_count(), 2);
        assert!(spec.behavior_size() >= 2);
        assert_eq!(spec.impls_of("UserService").len(), 1);
    }

    #[test]
    fn unimplemented_interface_rejected() {
        let mut spec = WorkflowSpec::new("app");
        let front = ServiceBuilder::new(
            "FrontendImpl",
            ServiceInterface::new(
                "Frontend",
                vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
            ),
        )
        .dep_service("users", "UserService")
        .method("Handle", Behavior::build().call("users", "Login").done())
        .done()
        .unwrap();
        spec.add_service(front).unwrap();
        let err = spec.validate().unwrap_err();
        assert!(
            err.to_string()
                .contains("no service in the spec implements"),
            "{err}"
        );
    }

    #[test]
    fn bad_target_method_rejected() {
        let mut spec = WorkflowSpec::new("app");
        spec.add_service(leaf("UserServiceImpl", "UserService", "Login"))
            .unwrap();
        let front = ServiceBuilder::new(
            "FrontendImpl",
            ServiceInterface::new(
                "Frontend",
                vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
            ),
        )
        .dep_service("users", "UserService")
        .method("Handle", Behavior::build().call("users", "Logout").done())
        .done()
        .unwrap();
        spec.add_service(front).unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("no method Logout"), "{err}");
    }

    #[test]
    fn duplicate_service_rejected() {
        let mut spec = WorkflowSpec::new("app");
        spec.add_service(leaf("A", "IA", "M")).unwrap();
        let err = spec.add_service(leaf("A", "IA", "M")).unwrap_err();
        assert!(matches!(err, WorkflowError::Invalid(_)));
    }
}
