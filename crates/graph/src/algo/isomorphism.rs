//! VF2-style subgraph isomorphism.
//!
//! Backs the similarity / pattern-matching APIs: finds label-preserving
//! embeddings of a small pattern graph inside a target graph. Undirected
//! semantics; node labels must match exactly, edge labels match when
//! `match_edge_labels` is set.

use crate::graph::{Graph, NodeId};

/// Search options.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct IsoOptions {
    /// Require pattern edge labels to equal target edge labels.
    pub match_edge_labels: bool,
    /// Stop after this many embeddings (0 = unlimited).
    pub limit: usize,
}


/// Finds embeddings of `pattern` in `target`.
///
/// Each embedding maps pattern node → target node, returned as a vector
/// indexed by pattern slot. Pattern and target must both be live-compact
/// enough that their `node_ids` enumerations are meaningful (removed slots
/// are handled).
pub fn find_embeddings(pattern: &Graph, target: &Graph, opts: &IsoOptions) -> Vec<Vec<NodeId>> {
    let p_nodes: Vec<NodeId> = pattern.node_ids().collect();
    if p_nodes.is_empty() {
        return vec![Vec::new()];
    }
    if p_nodes.len() > target.node_count() {
        return Vec::new();
    }
    // Order pattern nodes so each node after the first connects to an earlier
    // one where possible — keeps the partial mapping connected and prunes hard.
    let order = connected_order(pattern, &p_nodes);
    let mut results = Vec::new();
    let mut mapping: Vec<Option<NodeId>> = vec![None; pattern.node_bound()];
    let mut used = vec![false; target.node_bound()];
    backtrack(
        pattern,
        target,
        opts,
        &order,
        0,
        &mut mapping,
        &mut used,
        &mut results,
    );
    // Every recorded mapping is complete: it was pushed at full depth.
    results
        .into_iter()
        .filter_map(|m: Vec<Option<NodeId>>| p_nodes.iter().map(|p| m[p.index()]).collect())
        .collect()
}

/// True if `pattern` occurs in `target` (at least one embedding).
pub fn is_subgraph(pattern: &Graph, target: &Graph, opts: &IsoOptions) -> bool {
    let mut o = opts.clone();
    o.limit = 1;
    !find_embeddings(pattern, target, &o).is_empty()
}

fn connected_order(pattern: &Graph, nodes: &[NodeId]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = Vec::with_capacity(nodes.len());
    let mut placed = vec![false; pattern.node_bound()];
    // Start from the highest-degree node for maximal early pruning.
    let mut remaining: Vec<NodeId> = nodes.to_vec();
    remaining.sort_by_key(|&v| std::cmp::Reverse(pattern.total_degree(v)));
    // Prefer an unplaced node adjacent to the placed set.
    while let Some(next) = remaining
        .iter()
        .copied()
        .find(|&v| {
            !placed[v.index()]
                && pattern
                    .undirected_neighbors(v)
                    .any(|(w, _)| placed[w.index()])
        })
        .or_else(|| remaining.iter().copied().find(|&v| !placed[v.index()]))
    {
        placed[next.index()] = true;
        order.push(next);
    }
    order
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    pattern: &Graph,
    target: &Graph,
    opts: &IsoOptions,
    order: &[NodeId],
    depth: usize,
    mapping: &mut Vec<Option<NodeId>>,
    used: &mut Vec<bool>,
    results: &mut Vec<Vec<Option<NodeId>>>,
) {
    if opts.limit != 0 && results.len() >= opts.limit {
        return;
    }
    if depth == order.len() {
        results.push(mapping.clone());
        return;
    }
    let p = order[depth];
    // `order` holds live pattern nodes only.
    let Ok(p_label) = pattern.node_label(p) else {
        return;
    };
    'candidates: for t in target.node_ids() {
        if used[t.index()] || target.node_label(t) != Ok(p_label) {
            continue;
        }
        if target.total_degree(t) < pattern.total_degree(p) {
            continue;
        }
        // Consistency: every already-mapped pattern neighbour of p must map to
        // a target neighbour of t (with a matching edge label, if requested).
        for (q, pe) in pattern.undirected_neighbors(p) {
            if let Some(tq) = mapping[q.index()] {
                let te = target
                    .find_edge(t, tq)
                    .or_else(|| target.find_edge(tq, t));
                match te {
                    None => continue 'candidates,
                    Some(te) if opts.match_edge_labels
                        && target.edge_label(te) != pattern.edge_label(pe)
                        => {
                            continue 'candidates;
                        }
                    _ => {}
                }
            }
        }
        mapping[p.index()] = Some(t);
        used[t.index()] = true;
        backtrack(pattern, target, opts, order, depth + 1, mapping, used, results);
        mapping[p.index()] = None;
        used[t.index()] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn labeled_triangle() -> Graph {
        GraphBuilder::undirected()
            .node("a", "C")
            .node("b", "C")
            .node("c", "O")
            .edge("a", "b", "single")
            .edge("b", "c", "single")
            .edge("c", "a", "double")
            .build()
    }

    #[test]
    fn finds_edge_pattern() {
        let target = labeled_triangle();
        let pattern = GraphBuilder::undirected()
            .node("x", "C")
            .node("y", "O")
            .edge("x", "y", "-")
            .build();
        let embeddings = find_embeddings(&pattern, &target, &IsoOptions::default());
        // Two C nodes each adjacent to the single O node.
        assert_eq!(embeddings.len(), 2);
        assert!(is_subgraph(&pattern, &target, &IsoOptions::default()));
    }

    #[test]
    fn label_mismatch_blocks() {
        let target = labeled_triangle();
        let pattern = GraphBuilder::undirected()
            .node("x", "N")
            .node("y", "O")
            .edge("x", "y", "-")
            .build();
        assert!(!is_subgraph(&pattern, &target, &IsoOptions::default()));
    }

    #[test]
    fn edge_labels_enforced_when_requested() {
        let target = labeled_triangle();
        let pattern = GraphBuilder::undirected()
            .node("x", "C")
            .node("y", "O")
            .edge("x", "y", "double")
            .build();
        let strict = IsoOptions {
            match_edge_labels: true,
            limit: 0,
        };
        let embeddings = find_embeddings(&pattern, &target, &strict);
        assert_eq!(embeddings.len(), 1, "only the double bond matches");
    }

    #[test]
    fn triangle_in_triangle_has_automorphisms() {
        let target = GraphBuilder::undirected()
            .node("a", "X")
            .node("b", "X")
            .node("c", "X")
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("c", "a", "-")
            .build();
        let embeddings = find_embeddings(&target, &target, &IsoOptions::default());
        assert_eq!(embeddings.len(), 6, "3! automorphisms of a label-free triangle");
    }

    #[test]
    fn pattern_larger_than_target_fails_fast() {
        let small = GraphBuilder::undirected().edge("a", "b", "-").build();
        let big = labeled_triangle();
        assert!(find_embeddings(&big, &small, &IsoOptions::default()).is_empty());
    }

    #[test]
    fn empty_pattern_matches_trivially() {
        let target = labeled_triangle();
        let empty = crate::Graph::undirected();
        assert_eq!(find_embeddings(&empty, &target, &IsoOptions::default()).len(), 1);
    }

    #[test]
    fn limit_caps_results() {
        let target = labeled_triangle();
        let node = GraphBuilder::undirected().node("x", "C").build();
        let opts = IsoOptions {
            match_edge_labels: false,
            limit: 1,
        };
        assert_eq!(find_embeddings(&node, &target, &opts).len(), 1);
    }

    #[test]
    fn disconnected_pattern_is_supported() {
        let target = labeled_triangle();
        let pattern = GraphBuilder::undirected()
            .node("x", "C")
            .node("y", "O")
            .build(); // no edge: any C and any O, distinct
        let embeddings = find_embeddings(&pattern, &target, &IsoOptions::default());
        assert_eq!(embeddings.len(), 2);
    }
}
