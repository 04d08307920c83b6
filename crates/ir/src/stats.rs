//! Graph statistics used by the compile-time cost evaluation (paper Tab. 5:
//! "the compilation time is proportional to the number of service instances
//! in the wiring spec and the density of the service topology").

use crate::edge::EdgeKind;
use crate::graph::IrGraph;
use crate::node::NodeRole;
use crate::path;

/// Summary statistics of an IR graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Live node count.
    pub nodes: usize,
    /// Live edge count.
    pub edges: usize,
    /// Component nodes.
    pub components: usize,
    /// Workflow service instances (kind `workflow.*`).
    pub services: usize,
    /// Backend instances (kind `backend.*`).
    pub backends: usize,
    /// Namespace nodes.
    pub namespaces: usize,
    /// Modifier nodes.
    pub modifiers: usize,
    /// Generator nodes.
    pub generators: usize,
    /// Invocation edges.
    pub invocation_edges: usize,
    /// Entry points (services with no inbound invocation).
    pub entry_points: usize,
    /// Longest acyclic call chain from any entry point.
    pub max_call_depth: usize,
    /// Edge density: invocation edges / components.
    pub density: f64,
}

/// Computes [`GraphStats`] for a graph.
pub fn stats(g: &IrGraph) -> GraphStats {
    let mut components = 0;
    let mut services = 0;
    let mut backends = 0;
    let mut namespaces = 0;
    let mut modifiers = 0;
    let mut generators = 0;
    for (_, n) in g.nodes() {
        match n.role {
            NodeRole::Component => {
                components += 1;
                if n.kind.starts_with("workflow.") {
                    services += 1;
                } else if n.kind.starts_with("backend.") {
                    backends += 1;
                }
            }
            NodeRole::Namespace => namespaces += 1,
            NodeRole::Modifier => modifiers += 1,
            NodeRole::Generator => generators += 1,
        }
    }
    let invocation_edges = g
        .edges()
        .filter(|(_, e)| e.kind == EdgeKind::Invocation)
        .count();
    let entries = path::entry_points(g);
    let max_call_depth = entries
        .iter()
        .map(|e| path::max_call_depth(g, *e))
        .max()
        .unwrap_or(0);
    GraphStats {
        nodes: g.node_count(),
        edges: g.edge_count(),
        components,
        services,
        backends,
        namespaces,
        modifiers,
        generators,
        invocation_edges,
        entry_points: entries.len(),
        max_call_depth,
        density: if components == 0 {
            0.0
        } else {
            invocation_edges as f64 / components as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Granularity, Node, NodeId};
    use crate::types::{MethodSig, TypeRef};

    #[test]
    fn counts_by_role_and_kind() {
        let mut g = IrGraph::new("t");
        let s1 = g
            .add_component("s1", "workflow.service", Granularity::Instance)
            .unwrap();
        let s2 = g
            .add_component("s2", "workflow.service", Granularity::Instance)
            .unwrap();
        let c = g
            .add_component("cache", "backend.cache.memcached", Granularity::Process)
            .unwrap();
        let p = g
            .add_namespace("p", "ns.process", Granularity::Process)
            .unwrap();
        g.set_parent(s1, p).unwrap();
        let m = g
            .add_node(Node::new(
                "m",
                "mod.trace",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        g.attach_modifier(s1, m).unwrap();
        let sig = vec![MethodSig::new("M", vec![], TypeRef::Unit)];
        g.add_invocation(s1, s2, sig.clone()).unwrap();
        g.add_invocation(s2, c, sig).unwrap();

        let st = stats(&g);
        assert_eq!(st.components, 3);
        assert_eq!(st.services, 2);
        assert_eq!(st.backends, 1);
        assert_eq!(st.namespaces, 1);
        assert_eq!(st.modifiers, 1);
        assert_eq!(st.invocation_edges, 2);
        assert_eq!(st.entry_points, 1);
        assert_eq!(st.max_call_depth, 2);
        assert!((st.density - 2.0 / 3.0).abs() < 1e-9);
        let _ = NodeId::from_index(0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = IrGraph::new("t");
        let st = stats(&g);
        assert_eq!(st.nodes, 0);
        assert_eq!(st.density, 0.0);
        assert_eq!(st.max_call_depth, 0);
    }
}
