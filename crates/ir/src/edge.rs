//! IR edges: directional caller→callee dependencies.

use crate::node::NodeId;
use crate::props::Props;
use crate::types::MethodSig;
use crate::visibility::Visibility;

/// Opaque handle identifying an edge inside one [`crate::IrGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Returns the raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The semantic flavor of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Caller invokes methods on the callee (service→service or
    /// service→backend). Carries the invoked method signatures.
    Invocation,
    /// A non-invocation dependency: the source needs the target's address or
    /// artifacts at deploy time (e.g. a tracer wrapper depending on the tracer
    /// collector, a load balancer depending on its replicas).
    Dependency,
}

/// A directional edge of the IR graph.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Caller / dependent node.
    pub from: NodeId,
    /// Callee / dependency node.
    pub to: NodeId,
    /// Edge flavor.
    pub kind: EdgeKind,
    /// Method signatures invoked over this edge (invocation edges).
    pub methods: Vec<MethodSig>,
    /// How far this edge can currently reach (widened by RPC-server modifiers).
    pub visibility: Visibility,
    /// Plugin-attached edge configuration (e.g. per-edge timeout overrides).
    pub props: Props,
    /// Tombstone flag; dead edges are skipped by iteration.
    pub(crate) dead: bool,
}

impl Edge {
    /// Creates a plain local invocation edge.
    pub fn invocation(from: NodeId, to: NodeId, methods: Vec<MethodSig>) -> Self {
        Edge {
            from,
            to,
            kind: EdgeKind::Invocation,
            methods,
            visibility: Visibility::Local,
            props: Props::new(),
            dead: false,
        }
    }

    /// Creates a deploy-time dependency edge.
    pub fn dependency(from: NodeId, to: NodeId) -> Self {
        Edge {
            from,
            to,
            kind: EdgeKind::Dependency,
            methods: Vec::new(),
            visibility: Visibility::Global,
            props: Props::new(),
            dead: false,
        }
    }

    /// Whether this edge has been deleted by a pass.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeRef;

    #[test]
    fn invocation_edges_start_local() {
        let e = Edge::invocation(
            NodeId(0),
            NodeId(1),
            vec![MethodSig::new("Get", vec![], TypeRef::Bytes)],
        );
        assert_eq!(e.visibility, Visibility::Local);
        assert_eq!(e.kind, EdgeKind::Invocation);
        assert_eq!(e.methods.len(), 1);
        assert!(!e.is_dead());
    }

    #[test]
    fn dependency_edges_are_global() {
        let e = Edge::dependency(NodeId(0), NodeId(1));
        assert_eq!(e.visibility, Visibility::Global);
        assert_eq!(e.kind, EdgeKind::Dependency);
        assert!(e.methods.is_empty());
    }

    #[test]
    fn edge_id_display() {
        assert_eq!(EdgeId(3).to_string(), "e3");
        assert_eq!(EdgeId(3).index(), 3);
    }
}
