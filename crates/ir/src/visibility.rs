//! Edge visibility levels and the boundary-crossing computation.
//!
//! "Although there may be an edge between two components, it is possible that
//! those components are not visible to each other, e.g. if a service has not
//! been wrapped with an RPC server, it cannot receive remote invocations"
//! (paper §4.2). We encode visibility as the *coarsest namespace boundary an
//! edge is able to cross*:
//!
//! * a plain method call can only reach instances in the same process
//!   ([`Visibility::Local`]);
//! * an RPC/HTTP server modifier widens the callee's incoming edges to be
//!   reachable network-wide ([`Visibility::Global`]);
//! * intermediate levels exist for scaffolding such as Unix-socket transports
//!   (same container) or non-published container ports (same machine).

use crate::node::Granularity;

/// How far an edge can reach across the namespace hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Visibility {
    /// Callee reachable only from the same process (plain method call).
    #[default]
    Local,
    /// Callee reachable from other processes in the same container
    /// (e.g. a Unix domain socket transport).
    Container,
    /// Callee reachable from other containers on the same machine
    /// (e.g. a bound-but-unpublished container port).
    Machine,
    /// Callee reachable from other machines in the same region.
    Region,
    /// Callee reachable from anywhere in the deployment
    /// (published network address; gRPC/Thrift/HTTP server).
    Global,
}

impl Visibility {
    /// The visibility required to cross a boundary of namespace granularity `g`.
    ///
    /// Crossing a process boundary inside one container requires `Container`
    /// visibility, crossing a container boundary requires `Machine`, and so on.
    pub fn required_for_boundary(g: Granularity) -> Visibility {
        match g {
            // Within a process there is no boundary to cross.
            Granularity::Instance => Visibility::Local,
            Granularity::Process => Visibility::Container,
            Granularity::Container => Visibility::Machine,
            Granularity::Machine => Visibility::Region,
            Granularity::Region | Granularity::Deployment => Visibility::Global,
        }
    }

    /// Whether this visibility satisfies `required`.
    pub fn satisfies(self, required: Visibility) -> bool {
        self >= required
    }

    /// Returns the wider of two visibilities.
    pub fn widen(self, other: Visibility) -> Visibility {
        self.max(other)
    }
}

impl std::fmt::Display for Visibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Visibility::Local => "local",
            Visibility::Container => "container",
            Visibility::Machine => "machine",
            Visibility::Region => "region",
            Visibility::Global => "global",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_widening() {
        assert!(Visibility::Local < Visibility::Container);
        assert!(Visibility::Container < Visibility::Machine);
        assert!(Visibility::Machine < Visibility::Region);
        assert!(Visibility::Region < Visibility::Global);
    }

    #[test]
    fn satisfies_is_monotone() {
        assert!(Visibility::Global.satisfies(Visibility::Local));
        assert!(Visibility::Global.satisfies(Visibility::Global));
        assert!(!Visibility::Local.satisfies(Visibility::Container));
        assert!(Visibility::Machine.satisfies(Visibility::Container));
    }

    #[test]
    fn required_for_each_boundary() {
        assert_eq!(
            Visibility::required_for_boundary(Granularity::Instance),
            Visibility::Local
        );
        assert_eq!(
            Visibility::required_for_boundary(Granularity::Process),
            Visibility::Container
        );
        assert_eq!(
            Visibility::required_for_boundary(Granularity::Container),
            Visibility::Machine
        );
        assert_eq!(
            Visibility::required_for_boundary(Granularity::Machine),
            Visibility::Region
        );
        assert_eq!(
            Visibility::required_for_boundary(Granularity::Region),
            Visibility::Global
        );
    }

    #[test]
    fn widen_takes_max() {
        assert_eq!(
            Visibility::Local.widen(Visibility::Machine),
            Visibility::Machine
        );
        assert_eq!(
            Visibility::Global.widen(Visibility::Local),
            Visibility::Global
        );
    }
}
