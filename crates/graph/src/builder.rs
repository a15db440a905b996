//! Fluent graph construction.
//!
//! [`GraphBuilder`] lets tests, examples and generators build graphs from
//! string keys without tracking [`NodeId`]s by hand:
//!
//! ```
//! use chatgraph_graph::GraphBuilder;
//!
//! let g = GraphBuilder::undirected()
//!     .node("a", "Person")
//!     .node("b", "Person")
//!     .edge("a", "b", "knows")
//!     .build();
//! assert_eq!(g.node_count(), 2);
//! ```

use crate::attr::Attrs;
use crate::graph::{Direction, Graph, NodeId};
use std::collections::HashMap;

/// Incremental builder keyed by caller-chosen string names.
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
    by_key: HashMap<String, NodeId>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with the given direction.
    pub fn new(direction: Direction) -> Self {
        GraphBuilder {
            graph: Graph::new(direction),
            by_key: HashMap::new(),
        }
    }

    /// Starts an undirected-graph builder.
    pub fn undirected() -> Self {
        Self::new(Direction::Undirected)
    }

    /// Starts a directed-graph builder.
    pub fn directed() -> Self {
        Self::new(Direction::Directed)
    }

    /// Sets the graph name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.graph.set_name(name);
        self
    }

    /// Adds (or re-labels) a node identified by `key`.
    pub fn node(self, key: impl Into<String>, label: impl Into<String>) -> Self {
        self.node_attrs(key, label, Attrs::new())
    }

    /// Adds a node with attributes, identified by `key`.
    pub fn node_attrs(
        mut self,
        key: impl Into<String>,
        label: impl Into<String>,
        attrs: Attrs,
    ) -> Self {
        let key = key.into();
        match self.by_key.get(&key) {
            Some(&id) => {
                // Builder nodes are never removed, so neither lookup can
                // fail; degrade silently rather than panic in a builder.
                let _ = self.graph.set_node_label(id, label);
                let _ = self.graph.set_node_attrs(id, attrs);
            }
            None => {
                let id = self.graph.add_node_with_attrs(label, attrs);
                self.by_key.insert(key, id);
            }
        }
        self
    }

    /// Adds an edge between two keyed nodes; the nodes are created with the
    /// empty label if they do not exist yet. Duplicate edges are ignored.
    pub fn edge(
        self,
        src: impl Into<String>,
        dst: impl Into<String>,
        label: impl Into<String>,
    ) -> Self {
        self.edge_attrs(src, dst, label, Attrs::new())
    }

    /// Adds an edge with attributes. Duplicate edges are ignored.
    pub fn edge_attrs(
        mut self,
        src: impl Into<String>,
        dst: impl Into<String>,
        label: impl Into<String>,
        attrs: Attrs,
    ) -> Self {
        let s = self.ensure(src.into());
        let d = self.ensure(dst.into());
        // A self-edge or duplicate is a caller mistake in fluent usage; the
        // builder swallows duplicates to make idempotent construction easy.
        let _ = self.graph.add_edge_with_attrs(s, d, label, attrs);
        self
    }

    fn ensure(&mut self, key: String) -> NodeId {
        if let Some(&id) = self.by_key.get(&key) {
            id
        } else {
            let id = self.graph.add_node(key.clone());
            self.by_key.insert(key, id);
            id
        }
    }

    /// Looks up the node id for a key added earlier.
    pub fn id_of(&self, key: &str) -> Option<NodeId> {
        self.by_key.get(key).copied()
    }

    /// Finishes construction.
    pub fn build(self) -> Graph {
        self.graph
    }

    /// Finishes construction and also returns the key → id map.
    pub fn build_with_keys(self) -> (Graph, HashMap<String, NodeId>) {
        (self.graph, self.by_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attrs;

    #[test]
    fn builds_triangle() {
        let g = GraphBuilder::undirected()
            .node("a", "X")
            .node("b", "X")
            .node("c", "Y")
            .edge("a", "b", "e")
            .edge("b", "c", "e")
            .edge("c", "a", "e")
            .build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn edge_creates_missing_nodes_with_key_as_label() {
        let (g, keys) = GraphBuilder::directed()
            .edge("u", "v", "r")
            .build_with_keys();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.node_label(keys["u"]).unwrap(), "u");
    }

    #[test]
    fn duplicate_edges_ignored() {
        let g = GraphBuilder::undirected()
            .edge("a", "b", "e")
            .edge("b", "a", "e")
            .build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn re_adding_node_relabels() {
        let g = GraphBuilder::undirected()
            .node("a", "Old")
            .node_attrs("a", "New", attrs([("k", 1i64.into())]))
            .build();
        let id = g.node_ids().next().unwrap();
        assert_eq!(g.node_label(id).unwrap(), "New");
        assert_eq!(g.node_attrs(id).unwrap()["k"].as_int(), Some(1));
    }

    #[test]
    fn id_of_reports_known_keys() {
        let b = GraphBuilder::undirected().node("a", "A");
        assert!(b.id_of("a").is_some());
        assert!(b.id_of("zz").is_none());
    }

    #[test]
    fn name_is_set() {
        let g = GraphBuilder::undirected().name("mol-1").build();
        assert_eq!(g.name(), "mol-1");
    }
}
