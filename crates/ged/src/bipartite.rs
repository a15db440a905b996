//! Assignment-based GED approximation (Riesen–Bunke style).
//!
//! Builds the classic `(n1+n2) × (n1+n2)` cost matrix — substitutions in the
//! upper-left block, deletions/insertions on diagonal blocks — solves it with
//! the Hungarian algorithm, and then *executes* the resulting node mapping to
//! obtain the exact cost of the induced edit path, which is a true upper
//! bound on GED. A cheap label-multiset lower bound is also provided.
//!
//! What a cell reads of a node — its label, its incident-edge label
//! multiset and its degree — comes from the graph version's
//! [`GedProfile`], built once per version, so a cell is one label compare
//! and one merge of two sorted multisets.

use crate::cost::CostModel;
use crate::hungarian::hungarian;
use crate::profile::GedProfile;
use chatgraph_graph::{Graph, NodeId};
use std::collections::BTreeMap;

/// Output of [`approx_ged`].
#[derive(Debug, Clone)]
pub struct GedApproximation {
    /// Cost of the optimal node assignment in the Riesen–Bunke matrix
    /// (a heuristic estimate; neither bound in general).
    pub assignment_cost: f64,
    /// Exact cost of the edit path induced by the assignment — an upper
    /// bound on the true GED.
    pub upper_bound: f64,
    /// For each live node of `g1` (in `node_ids` order), its image in `g2`
    /// (`None` = deleted).
    pub mapping: Vec<(NodeId, Option<NodeId>)>,
}

/// Edge from `a` to `b`, honouring direction for directed graphs.
fn edge_between(g: &Graph, a: NodeId, b: NodeId) -> Option<chatgraph_graph::EdgeId> {
    if g.is_directed() {
        g.find_edge(a, b)
    } else {
        g.find_edge(a, b).or_else(|| g.find_edge(b, a))
    }
}

fn multiset_common(a: &BTreeMap<String, usize>, b: &BTreeMap<String, usize>) -> usize {
    a.iter()
        .map(|(k, &ca)| ca.min(b.get(k).copied().unwrap_or(0)))
        .sum()
}

/// Estimated cost of aligning two nodes' incident-edge environments, given
/// their sizes and how many labels they share. Halved because every edge
/// is shared by two endpoints.
fn edge_env_cost(da: usize, db: usize, common: usize, cost: &CostModel) -> f64 {
    let unmatched_a = da - common;
    let unmatched_b = db - common;
    let subs = unmatched_a.min(unmatched_b);
    let dels = unmatched_a - subs;
    let inss = unmatched_b - subs;
    0.5 * (subs as f64 * cost.edge_sub.min(cost.edge_del + cost.edge_ins)
        + dels as f64 * cost.edge_del
        + inss as f64 * cost.edge_ins)
}

/// Label-multiset lower bound on GED: a relaxation that ignores structure
/// and only counts unavoidable node and edge label mismatches.
pub fn lower_bound(g1: &Graph, g2: &Graph, cost: &CostModel) -> f64 {
    let count = |g: &Graph, node: bool| -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        if node {
            for v in g.node_ids() {
                *m.entry(g.node_label(v).unwrap_or("").to_owned()).or_default() += 1;
            }
        } else {
            for e in g.edge_ids() {
                *m.entry(g.edge_label(e).unwrap_or("").to_owned()).or_default() += 1;
            }
        }
        m
    };
    let bound = |a: &BTreeMap<String, usize>,
                 b: &BTreeMap<String, usize>,
                 sub: f64,
                 del: f64,
                 ins: f64| {
        let ta: usize = a.values().sum();
        let tb: usize = b.values().sum();
        let common = multiset_common(a, b);
        let ua = ta - common;
        let ub = tb - common;
        let subs = ua.min(ub);
        let dels = ua - subs;
        let inss = ub - subs;
        subs as f64 * sub.min(del + ins) + dels as f64 * del + inss as f64 * ins
    };
    bound(
        &count(g1, true),
        &count(g2, true),
        cost.node_sub,
        cost.node_del,
        cost.node_ins,
    ) + bound(
        &count(g1, false),
        &count(g2, false),
        cost.edge_sub,
        cost.edge_del,
        cost.edge_ins,
    )
}

/// Exact cost of the edit path induced by a node mapping.
///
/// `mapping` pairs each live `g1` node with its `g2` image or `None`
/// (deletion); `g2` nodes missing from the image set are insertions.
pub fn induced_cost(
    g1: &Graph,
    g2: &Graph,
    mapping: &[(NodeId, Option<NodeId>)],
    cost: &CostModel,
) -> f64 {
    let mut total = 0.0;
    // g1 slot -> g2 image; a later pair for the same node overrides.
    let bound = mapping
        .iter()
        .map(|(u, _)| u.index() + 1)
        .fold(g1.node_bound(), usize::max);
    let mut image: Vec<Option<NodeId>> = vec![None; bound];
    for &(u, img) in mapping {
        match img {
            Some(v) => {
                total += cost.node_relabel(
                    g1.node_label(u).unwrap_or(""),
                    g2.node_label(v).unwrap_or(""),
                );
                image[u.index()] = Some(v);
            }
            None => total += cost.node_del,
        }
    }
    // g2 slot -> the lowest g1 node imaged on it. Only slots of `g2` are
    // ever looked up, so images outside it are left out.
    let mut preimage: Vec<Option<NodeId>> = vec![None; g2.node_bound()];
    for (u, img) in image.iter().enumerate() {
        if let Some(slot) = img.and_then(|v| preimage.get_mut(v.index())) {
            slot.get_or_insert(NodeId(u as u32));
        }
    }
    // Inserted nodes.
    for v in g2.node_ids() {
        if preimage[v.index()].is_none() {
            total += cost.node_ins;
        }
    }
    // Edges of g1: deleted if an endpoint is deleted or the image edge is
    // absent; substituted otherwise.
    for e in g1.edge_ids() {
        // edge_ids only yields live edges; skip rather than panic if not.
        let Ok((a, b)) = g1.edge_endpoints(e) else { continue };
        match (image[a.index()], image[b.index()]) {
            (Some(ia), Some(ib)) => match edge_between(g2, ia, ib) {
                Some(e2) => {
                    total += cost.edge_relabel(
                        g1.edge_label(e).unwrap_or(""),
                        g2.edge_label(e2).unwrap_or(""),
                    )
                }
                None => total += cost.edge_del,
            },
            _ => total += cost.edge_del,
        }
    }
    // Edges of g2 not covered by any g1 edge image are insertions.
    for e2 in g2.edge_ids() {
        let Ok((a2, b2)) = g2.edge_endpoints(e2) else { continue };
        let covered = match (preimage[a2.index()], preimage[b2.index()]) {
            (Some(pa), Some(pb)) => edge_between(g1, pa, pb).is_some(),
            _ => false,
        };
        if !covered {
            total += cost.edge_ins;
        }
    }
    total
}

/// The Riesen–Bunke cost matrix of two profiles, flat and row-major:
/// `n1` substitution/deletion rows, then `n2` insertion rows, each
/// `n1 + n2` wide.
fn cost_matrix(p1: &GedProfile, p2: &GedProfile, cost: &CostModel) -> Vec<f64> {
    let (n1, n2) = (p1.len(), p2.len());
    let dim = n1 + n2;
    // A large-but-finite stand-in for infinity keeps the Hungarian potentials
    // finite while never being chosen when a feasible cell exists.
    let big = 1e9;
    let mut m = vec![0.0f64; dim * dim];
    if dim == 0 {
        return m;
    }
    let q2 = p2.in_terms_of(p1);
    for (i, row) in m.chunks_exact_mut(dim).take(n1).enumerate() {
        let (label, env) = (p1.keys.label(i), p1.keys.env(i));
        let da = p1.env_sizes[i];
        for (j, cell) in row[..n2].iter_mut().enumerate() {
            let relabel = if label == q2.label(j) { 0.0 } else { cost.node_sub };
            let common = common_count(env, q2.env(j));
            *cell = relabel + edge_env_cost(da, p2.env_sizes[j], common, cost);
        }
        for (k, cell) in row[n2..].iter_mut().enumerate() {
            *cell = if i == k {
                cost.node_del + 0.5 * p1.degrees[i] as f64 * cost.edge_del
            } else {
                big
            };
        }
    }
    for (k, row) in m.chunks_exact_mut(dim).skip(n1).enumerate() {
        for (j, cell) in row[..n2].iter_mut().enumerate() {
            *cell = if j == k {
                cost.node_ins + 0.5 * p2.degrees[j] as f64 * cost.edge_ins
            } else {
                big
            };
        }
        // lower-right block stays 0
    }
    m
}

/// Size of the intersection of two multisets given as `(key, count)`
/// runs sorted by key.
fn common_count(a: &[(u32, u32)], b: &[(u32, u32)]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += a[i].1.min(b[j].1) as usize;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// Approximates GED between two graphs via bipartite assignment.
pub fn approx_ged(g1: &Graph, g2: &Graph, cost: &CostModel) -> GedApproximation {
    let (p1, p2) = (GedProfile::of(g1), GedProfile::of(g2));
    let n2 = p2.len();
    let m = cost_matrix(&p1, &p2, cost);
    let (assignment, assignment_cost) = hungarian(&m, p1.len() + n2);
    let mapping: Vec<(NodeId, Option<NodeId>)> = p1
        .nodes()
        .iter()
        .zip(&assignment)
        .map(|(&u, &j)| (u, (j < n2).then(|| p2.nodes()[j])))
        .collect();
    let upper_bound = induced_cost(g1, g2, &mapping, cost);
    GedApproximation {
        assignment_cost,
        upper_bound,
        mapping,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_graph::GraphBuilder;

    fn tri(labels: [&str; 3]) -> Graph {
        GraphBuilder::undirected()
            .node("a", labels[0])
            .node("b", labels[1])
            .node("c", labels[2])
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("c", "a", "-")
            .build()
    }

    #[test]
    fn identical_graphs_have_zero_ged() {
        let g = tri(["C", "N", "O"]);
        let approx = approx_ged(&g, &g, &CostModel::uniform());
        assert_eq!(approx.upper_bound, 0.0);
        assert_eq!(lower_bound(&g, &g, &CostModel::uniform()), 0.0);
        for (u, v) in &approx.mapping {
            assert_eq!(Some(*u), *v);
        }
    }

    #[test]
    fn single_relabel_costs_one() {
        let g1 = tri(["C", "N", "O"]);
        let g2 = tri(["C", "N", "S"]);
        let approx = approx_ged(&g1, &g2, &CostModel::uniform());
        assert_eq!(approx.upper_bound, 1.0);
        assert_eq!(lower_bound(&g1, &g2, &CostModel::uniform()), 1.0);
    }

    #[test]
    fn size_mismatch_bounds() {
        let g1 = tri(["C", "C", "C"]);
        let g2 = GraphBuilder::undirected()
            .node("a", "C")
            .node("b", "C")
            .edge("a", "b", "-")
            .build();
        let approx = approx_ged(&g1, &g2, &CostModel::uniform());
        // Delete one node and its two incident edges: GED = 3.
        assert_eq!(approx.upper_bound, 3.0);
        let lb = lower_bound(&g1, &g2, &CostModel::uniform());
        assert!(lb <= approx.upper_bound);
        assert!(lb >= 2.0); // ≥ 1 node + ≥ 1 edge
    }

    #[test]
    fn lower_bound_never_exceeds_upper() {
        use chatgraph_graph::generators::{molecule, MoleculeParams};
        for seed in 0..8 {
            let g1 = molecule(&MoleculeParams { atoms: 10, rings: 1, double_bond_prob: 0.2 }, seed);
            let g2 = molecule(&MoleculeParams { atoms: 12, rings: 2, double_bond_prob: 0.2 }, seed + 100);
            let approx = approx_ged(&g1, &g2, &CostModel::uniform());
            let lb = lower_bound(&g1, &g2, &CostModel::uniform());
            assert!(
                lb <= approx.upper_bound + 1e-9,
                "seed {seed}: lb {} > ub {}",
                lb,
                approx.upper_bound
            );
        }
    }

    #[test]
    fn symmetry_of_bounds_under_uniform_costs() {
        let g1 = tri(["C", "N", "O"]);
        let g2 = GraphBuilder::undirected()
            .node("a", "C")
            .node("b", "N")
            .edge("a", "b", "-")
            .build();
        let a12 = approx_ged(&g1, &g2, &CostModel::uniform());
        let a21 = approx_ged(&g2, &g1, &CostModel::uniform());
        let cost = CostModel::uniform();
        assert_eq!(lower_bound(&g1, &g2, &cost), lower_bound(&g2, &g1, &cost));
        assert_eq!(a12.upper_bound, a21.upper_bound);
    }

    #[test]
    fn empty_graph_cases() {
        let empty = Graph::undirected();
        let g = tri(["C", "C", "C"]);
        let approx = approx_ged(&empty, &g, &CostModel::uniform());
        assert_eq!(approx.upper_bound, 6.0); // 3 node ins + 3 edge ins
        let both = approx_ged(&empty, &empty, &CostModel::uniform());
        assert_eq!(both.upper_bound, 0.0);
    }

    #[test]
    fn induced_cost_of_explicit_mapping() {
        let g1 = tri(["C", "N", "O"]);
        let g2 = tri(["C", "N", "O"]);
        let ids1: Vec<NodeId> = g1.node_ids().collect();
        let ids2: Vec<NodeId> = g2.node_ids().collect();
        // Perverse mapping: swap N and O images → 2 relabels, edges survive.
        let mapping = vec![
            (ids1[0], Some(ids2[0])),
            (ids1[1], Some(ids2[2])),
            (ids1[2], Some(ids2[1])),
        ];
        let c = induced_cost(&g1, &g2, &mapping, &CostModel::uniform());
        assert_eq!(c, 2.0);
    }
}
