//! Per-version GED profiles.
//!
//! Every cell of the assignment cost matrix compares one node of each
//! graph: their labels, their incident-edge label multisets and their
//! degrees. A [`GedProfile`] holds exactly those, built once per graph
//! version in its derived-data slot ([`Graph::derived`]). A database graph
//! that is compared against every query therefore builds its profile once,
//! and a query builds its own once per version.
//!
//! Labels become ids into the profile's sorted symbol table, and each
//! node's multiset is a run of `(id, count)` pairs sorted by id. Comparing
//! two profiles maps one into the other's ids once per pair
//! ([`GedProfile::in_terms_of`]); after that a cell compares integers.

use chatgraph_graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Sentinel id for a label the other profile's symbol table lacks: it
/// equals no id of that table.
const ABSENT: u32 = u32::MAX;

/// What GED reads of one graph version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GedProfile {
    /// Live node ids, in `node_ids` order; node `i` below is `nodes[i]`.
    nodes: Vec<NodeId>,
    /// Sorted, distinct node labels and incident-edge keys. An undirected
    /// edge's key is its label; a directed edge is `out:<label>` at its
    /// source and `in:<label>` at its target, so a reversed edge does not
    /// read as the same environment.
    symbols: Vec<String>,
    pub(crate) keys: Keys,
    /// Total degree per node.
    pub(crate) degrees: Vec<usize>,
    /// Incident-edge multiset size per node.
    pub(crate) env_sizes: Vec<usize>,
}

/// Node labels and incident-edge multisets as symbol ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Keys {
    labels: Vec<u32>,
    /// `env[ends[i - 1]..ends[i]]` is node `i`'s multiset (from 0 for
    /// `i = 0`), as `(key id, count)` sorted by id.
    ends: Vec<u32>,
    env: Vec<(u32, u32)>,
}

impl Keys {
    /// Node `i`'s label id.
    pub(crate) fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// Node `i`'s incident-edge multiset.
    pub(crate) fn env(&self, i: usize) -> &[(u32, u32)] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.env[start..self.ends[i] as usize]
    }
}

#[derive(PartialEq)]
struct GedProfileKey;

impl GedProfile {
    /// The profile of `g`'s version, built on first use.
    pub fn of(g: &Graph) -> Arc<GedProfile> {
        g.derived(GedProfileKey, GedProfile::build)
    }

    fn build(g: &Graph) -> GedProfile {
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let directed = g.is_directed();
        let edge_labels: Vec<&str> = g
            .edge_ids()
            .map(|e| g.edge_label(e).unwrap_or(""))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut symbols: BTreeSet<String> = nodes
            .iter()
            .map(|&v| g.node_label(v).unwrap_or("").to_owned())
            .collect();
        for &l in &edge_labels {
            if directed {
                symbols.insert(format!("out:{l}"));
                symbols.insert(format!("in:{l}"));
            } else {
                symbols.insert(l.to_owned());
            }
        }
        let symbols: Vec<String> = symbols.into_iter().collect();
        let id = |s: &str| symbols.binary_search_by(|x| x.as_str().cmp(s)).unwrap_or(0) as u32;
        // Per distinct edge label: its key id at the source and at the
        // target end (the same id for an undirected edge).
        let label_keys: Vec<(u32, u32)> = edge_labels
            .iter()
            .map(|&l| {
                if directed {
                    (id(&format!("out:{l}")), id(&format!("in:{l}")))
                } else {
                    (id(l), id(l))
                }
            })
            .collect();
        let mut edge_keys = vec![(0, 0); g.edge_bound()];
        for e in g.edge_ids() {
            let l = g.edge_label(e).unwrap_or("");
            edge_keys[e.index()] = label_keys[edge_labels.binary_search(&l).unwrap_or(0)];
        }

        let mut keys = Keys::default();
        let mut degrees = Vec::with_capacity(nodes.len());
        let mut env_sizes = Vec::with_capacity(nodes.len());
        let mut scratch: Vec<u32> = Vec::new();
        for &v in &nodes {
            keys.labels.push(id(g.node_label(v).unwrap_or("")));
            degrees.push(g.total_degree(v));
            scratch.clear();
            // The same walk the multiset always counted: out- then
            // in-neighbours (the latter empty when undirected).
            scratch.extend(g.neighbors(v).map(|(_, e)| edge_keys[e.index()].0));
            scratch.extend(g.in_neighbors(v).map(|(_, e)| edge_keys[e.index()].1));
            scratch.sort_unstable();
            env_sizes.push(scratch.len());
            for run in scratch.chunk_by(|a, b| a == b) {
                keys.env.push((run[0], run.len() as u32));
            }
            keys.ends.push(keys.env.len() as u32);
        }
        GedProfile {
            nodes,
            symbols,
            keys,
            degrees,
            env_sizes,
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a graph without live nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Live node ids, in `node_ids` order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// This profile's labels and multisets in `other`'s symbol ids. A
    /// label `other` lacks becomes an id no label of `other` has, and a
    /// multiset key `other` lacks is dropped: it can match nothing there.
    /// Both tables are sorted, so ids keep their order and each multiset
    /// stays sorted.
    pub(crate) fn in_terms_of(&self, other: &GedProfile) -> Keys {
        let mut map = vec![ABSENT; self.symbols.len()];
        let (mut i, mut j) = (0, 0);
        while i < self.symbols.len() && j < other.symbols.len() {
            match self.symbols[i].cmp(&other.symbols[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    map[i] = j as u32;
                    i += 1;
                    j += 1;
                }
            }
        }
        let mut out = Keys {
            labels: self.keys.labels.iter().map(|&l| map[l as usize]).collect(),
            ends: Vec::with_capacity(self.keys.ends.len()),
            env: Vec::with_capacity(self.keys.env.len()),
        };
        for i in 0..self.len() {
            out.env.extend(
                self.keys
                    .env(i)
                    .iter()
                    .map(|&(k, n)| (map[k as usize], n))
                    .filter(|&(k, _)| k != ABSENT),
            );
            out.ends.push(out.env.len() as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_graph::GraphBuilder;

    #[test]
    fn directed_multisets_tell_in_from_out() {
        let g = GraphBuilder::directed()
            .node("a", "X")
            .node("b", "Y")
            .edge("a", "b", "r")
            .edge("b", "a", "r")
            .build();
        let p = GedProfile::of(&g);
        assert_eq!(p.symbols, ["X", "Y", "in:r", "out:r"]);
        assert_eq!(p.keys.env(0), &[(2, 1), (3, 1)]);
        assert_eq!(p.env_sizes[1], 2);
        assert_eq!(p.degrees[0], 2);
        assert!(Arc::ptr_eq(&p, &GedProfile::of(&g.clone())));
    }

    #[test]
    fn undirected_multisets_count_repeats_and_skip_tombstones() {
        let mut g = GraphBuilder::undirected()
            .node("a", "C")
            .node("b", "C")
            .node("c", "O")
            .node("d", "N")
            .edge("a", "b", "-")
            .edge("a", "c", "-")
            .edge("a", "d", "=")
            .build();
        g.remove_node(NodeId(3)).unwrap();
        let p = GedProfile::of(&g);
        assert_eq!(p.len(), 3);
        assert_eq!(p.symbols, ["-", "C", "O"]);
        assert_eq!(p.keys.env(0), &[(0, 2)]);
        assert_eq!(p.keys.env(2), &[(0, 1)]);
    }

    #[test]
    fn translation_keeps_shared_symbols_and_drops_the_rest() {
        let g1 = GraphBuilder::undirected().node("a", "C").node("b", "O").edge("a", "b", "-").build();
        let g2 = GraphBuilder::undirected().node("a", "C").node("b", "S").edge("a", "b", "=").build();
        let (p1, p2) = (GedProfile::of(&g1), GedProfile::of(&g2));
        let q = p2.in_terms_of(&p1);
        assert_eq!(q.label(0), p1.keys.label(0));
        assert_eq!(q.label(1), ABSENT);
        assert!(q.env(0).is_empty() && q.env(1).is_empty());
    }
}
