//! Exact graph edit distance by A* search.
//!
//! Explores node mappings in a fixed order of `g1`'s nodes; each state maps
//! the next `g1` node to an unused `g2` node or deletes it. Edge costs are
//! charged incrementally against already-processed nodes, and a label-multiset
//! heuristic over the remaining nodes keeps the search admissible.
//!
//! Exponential in the worst case — intended for the small graphs where exact
//! GED is needed (API chains, unit tests, approximation-quality experiments).

use crate::cost::CostModel;
use chatgraph_graph::{Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct State {
    f: f64,
    g: f64,
    depth: usize,
    /// Image of g1 node `order[i]` for `i < depth`; `None` = deleted.
    mapping: Vec<Option<usize>>,
    used: u64, // bitset over g2 node indices (≤ 64 nodes)
    /// Goal states are re-queued with the full completion cost folded into
    /// `f` before they may be returned: the heuristic underestimates the
    /// completion (it ignores inserted edges), so returning on first goal
    /// pop would not be optimal.
    finalized: bool,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f (BinaryHeap is a max-heap, so reverse), preferring
        // deeper states on ties to reach goals sooner.
        other
            .f
            .total_cmp(&self.f)
            .then(self.depth.cmp(&other.depth))
    }
}

/// Exact GED with an expansion budget.
///
/// Returns `None` if either graph has more than 64 nodes or the budget is
/// exhausted before the optimum is proven.
pub fn exact_ged_with_limit(
    g1: &Graph,
    g2: &Graph,
    cost: &CostModel,
    max_expansions: usize,
) -> Option<f64> {
    let nodes1: Vec<NodeId> = g1.node_ids().collect();
    let nodes2: Vec<NodeId> = g2.node_ids().collect();
    let (n1, n2) = (nodes1.len(), nodes2.len());
    if n2 > 64 || n1 > 64 {
        return None;
    }
    let labels1: Vec<&str> = nodes1
        .iter()
        .map(|&v| g1.node_label(v).ok())
        .collect::<Option<_>>()?;
    let labels2: Vec<&str> = nodes2
        .iter()
        .map(|&v| g2.node_label(v).ok())
        .collect::<Option<_>>()?;
    let edge_labels1 = edge_labels(g1)?;
    let edge_labels2 = edge_labels(g2)?;
    // Each g2 edge as a pair of indices into `nodes2` (ascending, so a
    // binary search finds them).
    let ends2: Vec<(usize, usize)> = g2
        .edge_ids()
        .map(|e| {
            let (a, b) = g2.edge_endpoints(e).ok()?;
            Some((nodes2.binary_search(&a).ok()?, nodes2.binary_search(&b).ok()?))
        })
        .collect::<Option<_>>()?;

    // Process high-degree g1 nodes first: their edge constraints prune most.
    let mut order: Vec<usize> = (0..n1).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(g1.total_degree(nodes1[i])));

    let h = |depth: usize, used: u64| -> f64 {
        // Node-only label-multiset lower bound over the unprocessed frontier.
        let mut rem1: std::collections::BTreeMap<&str, i64> = Default::default();
        for &i in &order[depth..] {
            *rem1.entry(labels1[i]).or_default() += 1;
        }
        let mut rem2: std::collections::BTreeMap<&str, i64> = Default::default();
        let mut c2 = 0i64;
        for (j, label) in labels2.iter().enumerate() {
            if used & (1 << j) == 0 {
                *rem2.entry(label).or_default() += 1;
                c2 += 1;
            }
        }
        let c1 = (n1 - depth) as i64;
        let common: i64 = rem1
            .iter()
            .map(|(k, &a)| a.min(rem2.get(k).copied().unwrap_or(0)))
            .sum();
        let ua = c1 - common;
        let ub = c2 - common;
        let subs = ua.min(ub);
        let dels = ua - subs;
        let inss = ub - subs;
        subs as f64 * cost.node_sub.min(cost.node_del + cost.node_ins)
            + dels as f64 * cost.node_del
            + inss as f64 * cost.node_ins
    };

    // Cost of mapping order[depth] -> j (or deletion when j == None), charged
    // against the already-mapped prefix.
    let step_cost = |depth: usize, mapping: &[Option<usize>], img: Option<usize>| -> f64 {
        let i = order[depth];
        let u = nodes1[i];
        let mut c = match img {
            Some(j) => cost.node_relabel(labels1[i], labels2[j]),
            None => cost.node_del,
        };
        // Directed graphs must distinguish u→u' from u'→u; undirected graphs
        // must not. Compare each orientation separately for directed pairs.
        let oriented_pairs: &[(bool, bool)] = if g1.is_directed() && g2.is_directed() {
            &[(false, false), (true, true)]
        } else {
            &[(false, false)]
        };
        for (d, &m) in mapping.iter().enumerate().take(depth) {
            let up = nodes1[order[d]];
            for &(rev1, _rev2) in oriented_pairs {
                let e1 = if g1.is_directed() && g2.is_directed() {
                    if rev1 {
                        g1.find_edge(up, u)
                    } else {
                        g1.find_edge(u, up)
                    }
                } else {
                    g1.find_edge(u, up).or_else(|| g1.find_edge(up, u))
                };
                match img {
                    None => {
                        if e1.is_some() {
                            c += cost.edge_del;
                        }
                    }
                    Some(j) => {
                        let v = nodes2[j];
                        let e2 = m.and_then(|mj| {
                            let vp = nodes2[mj];
                            if g1.is_directed() && g2.is_directed() {
                                if rev1 {
                                    g2.find_edge(vp, v)
                                } else {
                                    g2.find_edge(v, vp)
                                }
                            } else {
                                g2.find_edge(v, vp).or_else(|| g2.find_edge(vp, v))
                            }
                        });
                        match (e1, e2) {
                            (Some(e1), Some(e2)) => {
                                c += cost.edge_relabel(
                                    edge_labels1[e1.index()],
                                    edge_labels2[e2.index()],
                                )
                            }
                            (Some(_), None) => c += cost.edge_del,
                            (None, Some(_)) => c += cost.edge_ins,
                            (None, None) => {}
                        }
                    }
                }
            }
        }
        c
    };

    // Terminal completion: insert all unused g2 nodes and every g2 edge
    // touching an unused node.
    let completion = |used: u64| -> f64 {
        let mut c = 0.0;
        for j in 0..n2 {
            if used & (1 << j) == 0 {
                c += cost.node_ins;
            }
        }
        for &(ja, jb) in &ends2 {
            if used & (1 << ja) == 0 || used & (1 << jb) == 0 {
                c += cost.edge_ins;
            }
        }
        c
    };

    let mut heap = BinaryHeap::new();
    heap.push(State {
        f: h(0, 0),
        g: 0.0,
        depth: 0,
        mapping: Vec::new(),
        used: 0,
        finalized: false,
    });
    let mut expansions = 0usize;
    while let Some(state) = heap.pop() {
        if state.depth == n1 {
            if state.finalized {
                return Some(state.g);
            }
            let total = state.g + completion(state.used);
            heap.push(State {
                f: total,
                g: total,
                finalized: true,
                ..state
            });
            continue;
        }
        expansions += 1;
        if expansions > max_expansions {
            return None;
        }
        // Children: map to each unused g2 node, or delete.
        for j in 0..n2 {
            if state.used & (1 << j) != 0 {
                continue;
            }
            let extra = step_cost(state.depth, &state.mapping, Some(j));
            let mut mapping = state.mapping.clone();
            mapping.push(Some(j));
            let used = state.used | (1 << j);
            let g_cost = state.g + extra;
            heap.push(State {
                f: g_cost + h(state.depth + 1, used),
                g: g_cost,
                depth: state.depth + 1,
                mapping,
                used,
                finalized: false,
            });
        }
        let extra = step_cost(state.depth, &state.mapping, None);
        let mut mapping = state.mapping.clone();
        mapping.push(None);
        let g_cost = state.g + extra;
        heap.push(State {
            f: g_cost + h(state.depth + 1, state.used),
            g: g_cost,
            depth: state.depth + 1,
            mapping,
            used: state.used,
            finalized: false,
        });
    }
    // n1 == 0: pure insertion of g2.
    Some(completion(0))
}

/// Every live edge's label, indexed by edge slot (`""` for tombstones);
/// `None` if a live edge has no label.
fn edge_labels(g: &Graph) -> Option<Vec<&str>> {
    let mut labels = vec![""; g.edge_bound()];
    for e in g.edge_ids() {
        labels[e.index()] = g.edge_label(e).ok()?;
    }
    Some(labels)
}

/// Exact GED with a generous default expansion budget (2 million states).
pub fn exact_ged(g1: &Graph, g2: &Graph, cost: &CostModel) -> Option<f64> {
    exact_ged_with_limit(g1, g2, cost, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::{approx_ged, lower_bound};
    use chatgraph_graph::GraphBuilder;

    fn path(labels: &[&str]) -> Graph {
        let mut b = GraphBuilder::undirected();
        for (i, l) in labels.iter().enumerate() {
            b = b.node(format!("n{i}"), *l);
        }
        for i in 1..labels.len() {
            b = b.edge(format!("n{}", i - 1), format!("n{i}"), "-");
        }
        b.build()
    }

    #[test]
    fn identical_graphs_cost_zero() {
        let g = path(&["A", "B", "C"]);
        assert_eq!(exact_ged(&g, &g, &CostModel::uniform()), Some(0.0));
    }

    #[test]
    fn single_relabel() {
        let g1 = path(&["A", "B", "C"]);
        let g2 = path(&["A", "B", "D"]);
        assert_eq!(exact_ged(&g1, &g2, &CostModel::uniform()), Some(1.0));
    }

    #[test]
    fn node_insertion_with_edge() {
        let g1 = path(&["A", "B"]);
        let g2 = path(&["A", "B", "C"]);
        // insert node C + edge B-C
        assert_eq!(exact_ged(&g1, &g2, &CostModel::uniform()), Some(2.0));
    }

    #[test]
    fn edge_only_difference() {
        let line = path(&["A", "A", "A"]);
        let tri = GraphBuilder::undirected()
            .node("a", "A")
            .node("b", "A")
            .node("c", "A")
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("c", "a", "-")
            .build();
        assert_eq!(exact_ged(&line, &tri, &CostModel::uniform()), Some(1.0));
    }

    #[test]
    fn empty_to_graph_is_pure_insertion() {
        let empty = Graph::undirected();
        let g = path(&["A", "B", "C"]);
        assert_eq!(exact_ged(&empty, &g, &CostModel::uniform()), Some(5.0));
        assert_eq!(exact_ged(&g, &empty, &CostModel::uniform()), Some(5.0));
    }

    #[test]
    fn symmetric_under_uniform_costs() {
        let g1 = path(&["A", "B", "C", "D"]);
        let g2 = GraphBuilder::undirected()
            .node("a", "A")
            .node("b", "C")
            .edge("a", "b", "x")
            .build();
        let d12 = exact_ged(&g1, &g2, &CostModel::uniform()).unwrap();
        let d21 = exact_ged(&g2, &g1, &CostModel::uniform()).unwrap();
        assert_eq!(d12, d21);
    }

    #[test]
    fn exact_within_bipartite_bounds() {
        use chatgraph_graph::generators::{molecule, MoleculeParams};
        let cost = CostModel::uniform();
        for seed in 0..6 {
            let p = MoleculeParams {
                atoms: 6,
                rings: 1,
                double_bond_prob: 0.2,
            };
            let g1 = molecule(&p, seed);
            let g2 = molecule(&p, seed + 50);
            let exact = exact_ged(&g1, &g2, &cost).expect("small graphs solve");
            let approx = approx_ged(&g1, &g2, &cost);
            let lb = lower_bound(&g1, &g2, &cost);
            assert!(
                lb <= exact + 1e-9,
                "seed {seed}: lb {} > exact {exact}",
                lb
            );
            assert!(
                exact <= approx.upper_bound + 1e-9,
                "seed {seed}: exact {exact} > ub {}",
                approx.upper_bound
            );
        }
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let g1 = path(&["A", "B", "C", "D", "E", "F"]);
        let g2 = path(&["F", "E", "D", "C", "B", "A"]);
        assert_eq!(exact_ged_with_limit(&g1, &g2, &CostModel::uniform(), 1), None);
    }

    #[test]
    fn weighted_costs_respected() {
        let g1 = path(&["A"]);
        let g2 = path(&["B"]);
        let cost = CostModel::node_weighted(5.0);
        // relabel (5) beats delete+insert (10)
        assert_eq!(exact_ged(&g1, &g2, &cost), Some(5.0));
    }
}
