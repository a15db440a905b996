//! Community detection.
//!
//! Two detectors back the social-analysis APIs:
//!
//! * [`label_propagation`] — near-linear-time, seed-deterministic.
//! * [`greedy_modularity`] — agglomerative modularity maximisation (CNM
//!   style), slower but deterministic without a seed.
//!
//! Both return a [`Communities`] partition; [`modularity`] scores any
//! partition, and [`nmi`] compares one against ground truth.

use crate::graph::{Graph, NodeId};
use chatgraph_support::rng::SliceRandom;
use chatgraph_support::rng::SeedableRng;
use chatgraph_support::rng::ChaCha12Rng;
use std::collections::HashMap;

/// A partition of the live nodes into communities `0..count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communities {
    /// Community index per node slot (`None` for removed slots).
    pub assignment: Vec<Option<usize>>,
    count: usize,
}

impl Communities {
    /// Builds a partition from raw per-slot labels, renumbering communities
    /// densely in first-appearance order.
    pub fn from_assignment(raw: Vec<Option<usize>>) -> Self {
        let mut remap: HashMap<usize, usize> = HashMap::new();
        let mut assignment = raw;
        for c in assignment.iter_mut().flatten() {
            let next = remap.len();
            *c = *remap.entry(*c).or_insert(next);
        }
        let count = remap.len();
        Communities { assignment, count }
    }

    /// Number of communities.
    pub fn num_communities(&self) -> usize {
        self.count
    }

    /// Community of `v`, if live.
    pub fn community_of(&self, v: NodeId) -> Option<usize> {
        self.assignment.get(v.index()).copied().flatten()
    }

    /// Nodes grouped per community, largest first.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (i, c) in self.assignment.iter().enumerate() {
            if let Some(c) = c {
                groups[*c].push(NodeId(i as u32));
            }
        }
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        groups
    }
}

/// Synchronous-ish label propagation with seed-controlled tie-breaking.
///
/// Each node repeatedly adopts the most frequent label among its neighbours
/// (ties broken by smallest label); iteration order is shuffled per round.
/// Converges on planted-partition graphs in a handful of rounds.
pub fn label_propagation(g: &Graph, seed: u64) -> Communities {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut labels: Vec<Option<usize>> = vec![None; g.node_bound()];
    let mut order: Vec<NodeId> = g.node_ids().collect();
    for v in &order {
        labels[v.index()] = Some(v.index());
    }
    let max_rounds = 50;
    for _ in 0..max_rounds {
        order.shuffle(&mut rng);
        let mut changed = false;
        for &v in &order {
            let mut freq: HashMap<usize, usize> = HashMap::new();
            for (w, _) in g.undirected_neighbors(v) {
                if let Some(l) = labels[w.index()] {
                    *freq.entry(l).or_default() += 1;
                }
            }
            // Most frequent neighbour label, ties to the smallest label.
            let Some((_, std::cmp::Reverse(best))) =
                freq.iter().map(|(&l, &c)| (c, std::cmp::Reverse(l))).max()
            else {
                continue;
            };
            if labels[v.index()] != Some(best) {
                labels[v.index()] = Some(best);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Communities::from_assignment(labels)
}

/// Newman modularity `Q` of a partition (undirected semantics).
pub fn modularity(g: &Graph, comms: &Communities) -> f64 {
    let m = g.edge_count() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let mut intra = 0.0;
    for (a, b) in g.edge_ids().filter_map(|e| g.edge_endpoints(e).ok()) {
        if comms.community_of(a) == comms.community_of(b) {
            intra += 1.0;
        }
    }
    let mut degree_sum: HashMap<usize, f64> = HashMap::new();
    for v in g.node_ids() {
        if let Some(c) = comms.community_of(v) {
            *degree_sum.entry(c).or_default() += g.total_degree(v) as f64;
        }
    }
    let expected: f64 = degree_sum.values().map(|d| (d / (2.0 * m)).powi(2)).sum();
    intra / m - expected
}

/// Greedy agglomerative modularity maximisation (CNM-style).
///
/// Starts from singletons and repeatedly merges the pair of connected
/// communities with the best modularity gain until no positive gain remains.
/// Deterministic. Intended for the modest graph sizes of the demo scenarios
/// (it is O(n·m) in this simple formulation).
pub fn greedy_modularity(g: &Graph) -> Communities {
    let two_m = (2 * g.edge_count()) as f64;
    if two_m == 0.0 {
        let labels: Vec<Option<usize>> = (0..g.node_bound())
            .map(|i| g.contains_node(NodeId(i as u32)).then_some(i))
            .collect();
        return Communities::from_assignment(labels);
    }
    // community id per slot; start as singletons
    let mut comm: Vec<Option<usize>> = (0..g.node_bound())
        .map(|i| g.contains_node(NodeId(i as u32)).then_some(i))
        .collect();
    // degree sum per community
    let mut deg: HashMap<usize, f64> = HashMap::new();
    for v in g.node_ids() {
        *deg.entry(v.index()).or_default() += g.total_degree(v) as f64;
    }
    // edge counts between communities
    let mut between: HashMap<(usize, usize), f64> = HashMap::new();
    for (a, b) in g.edge_ids().filter_map(|e| g.edge_endpoints(e).ok()) {
        let (x, y) = ord(a.index(), b.index());
        *between.entry((x, y)).or_default() += 1.0;
    }

    loop {
        // Find the merge with the largest modularity gain:
        // ΔQ = e_ij/m − k_i·k_j/(2m²)   (with e_ij the inter-community edges)
        let mut best: Option<((usize, usize), f64)> = None;
        for (&(i, j), &eij) in &between {
            if i == j {
                continue;
            }
            let gain = 2.0 * eij / two_m - 2.0 * deg[&i] * deg[&j] / (two_m * two_m);
            let better = match best {
                None => true,
                Some((pair, g0)) => gain > g0 + 1e-15 || (gain > g0 - 1e-15 && (i, j) < pair),
            };
            if better {
                best = Some(((i, j), gain));
            }
        }
        let Some(((i, j), gain)) = best else { break };
        if gain <= 1e-12 {
            break;
        }
        // Merge j into i.
        for c in comm.iter_mut().flatten() {
            if *c == j {
                *c = i;
            }
        }
        let dj = deg.remove(&j).unwrap_or(0.0);
        *deg.entry(i).or_default() += dj;
        let old: Vec<((usize, usize), f64)> = between
            .iter()
            .filter(|(&(a, b), _)| a == j || b == j)
            .map(|(&k, &v)| (k, v))
            .collect();
        for (k, v) in old {
            between.remove(&k);
            let other = if k.0 == j { k.1 } else { k.0 };
            if other == i || other == j {
                continue; // internal edges no longer matter
            }
            let nk = ord(i, other);
            *between.entry(nk).or_default() += v;
        }
    }
    Communities::from_assignment(comm)
}

fn ord(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Normalised mutual information between two partitions over the same nodes,
/// in `[0, 1]`; 1 means identical partitions. Used to validate detected
/// communities against planted ground truth.
pub fn nmi(a: &Communities, b: &Communities) -> f64 {
    let mut joint: HashMap<(usize, usize), f64> = HashMap::new();
    let mut ca: HashMap<usize, f64> = HashMap::new();
    let mut cb: HashMap<usize, f64> = HashMap::new();
    let mut n = 0.0;
    for (i, la) in a.assignment.iter().enumerate() {
        if let (Some(x), Some(Some(y))) = (la, b.assignment.get(i)) {
            *joint.entry((*x, *y)).or_default() += 1.0;
            *ca.entry(*x).or_default() += 1.0;
            *cb.entry(*y).or_default() += 1.0;
            n += 1.0;
        }
    }
    if n == 0.0 {
        return 0.0;
    }
    let mut mi = 0.0;
    for (&(x, y), &nxy) in &joint {
        mi += (nxy / n) * ((n * nxy) / (ca[&x] * cb[&y])).ln();
    }
    let h = |m: &HashMap<usize, f64>| -> f64 {
        m.values().map(|&c| -(c / n) * (c / n).ln()).sum::<f64>()
    };
    let (ha, hb) = (h(&ca), h(&cb));
    if ha == 0.0 && hb == 0.0 {
        return 1.0; // both trivial single-community partitions
    }
    let denom = (ha * hb).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (mi / denom).clamp(0.0, 1.0)
    }
}

/// Ground-truth partition read from the `community` node attribute written by
/// the social-network generator. Nodes lacking the attribute go to a fresh
/// community each.
pub fn planted_partition(g: &Graph) -> Communities {
    let mut labels: Vec<Option<usize>> = vec![None; g.node_bound()];
    let mut fresh = 1_000_000;
    for v in g.node_ids() {
        let c = g
            .node_attrs(v)
            .ok()
            .and_then(|a| a.get("community"))
            .and_then(|v| v.as_int())
            .map(|c| c as usize)
            .unwrap_or_else(|| {
                fresh += 1;
                fresh
            });
        labels[v.index()] = Some(c);
    }
    Communities::from_assignment(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{social_network, SocialParams};
    use crate::GraphBuilder;

    fn two_cliques() -> Graph {
        // Two K4s joined by one bridge edge.
        let mut b = GraphBuilder::undirected();
        for (x, y) in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")] {
            b = b.edge(x, y, "-");
        }
        for (x, y) in [("e", "f"), ("e", "g"), ("e", "h"), ("f", "g"), ("f", "h"), ("g", "h")] {
            b = b.edge(x, y, "-");
        }
        b.edge("d", "e", "-").build()
    }

    #[test]
    fn label_propagation_splits_cliques() {
        let g = two_cliques();
        let c = label_propagation(&g, 1);
        assert!(c.num_communities() >= 2, "got {}", c.num_communities());
        // All of the first clique share a community.
        let c0 = c.community_of(NodeId(0));
        for i in 1..4 {
            assert_eq!(c.community_of(NodeId(i)), c0);
        }
    }

    #[test]
    fn greedy_modularity_splits_cliques() {
        let g = two_cliques();
        let c = greedy_modularity(&g);
        assert_eq!(c.num_communities(), 2);
        let q = modularity(&g, &c);
        assert!(q > 0.3, "modularity {q}");
    }

    #[test]
    fn modularity_of_trivial_partition_is_low() {
        let g = two_cliques();
        let all_one =
            Communities::from_assignment(vec![Some(0); g.node_bound()]);
        assert!(modularity(&g, &all_one).abs() < 1e-9);
    }

    #[test]
    fn nmi_identity_and_disagreement() {
        let a = Communities::from_assignment(vec![Some(0), Some(0), Some(1), Some(1)]);
        let b = Communities::from_assignment(vec![Some(5), Some(5), Some(9), Some(9)]);
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-9);
        let c = Communities::from_assignment(vec![Some(0), Some(1), Some(0), Some(1)]);
        assert!(nmi(&a, &c) < 0.1);
    }

    #[test]
    fn recovers_planted_partition() {
        let g = social_network(&SocialParams::default(), 13);
        let truth = planted_partition(&g);
        assert_eq!(truth.num_communities(), 4);
        let detected = label_propagation(&g, 13);
        let score = nmi(&truth, &detected);
        assert!(score > 0.8, "nmi {score}");
    }

    #[test]
    fn greedy_modularity_on_planted_graph() {
        let g = social_network(
            &SocialParams {
                communities: 3,
                community_size: 12,
                p_intra: 0.5,
                p_inter: 0.01,
            },
            21,
        );
        let truth = planted_partition(&g);
        let detected = greedy_modularity(&g);
        let score = nmi(&truth, &detected);
        assert!(score > 0.8, "nmi {score}");
    }

    #[test]
    fn empty_graph_has_no_communities() {
        let g = crate::Graph::undirected();
        assert_eq!(label_propagation(&g, 0).num_communities(), 0);
        assert_eq!(greedy_modularity(&g).num_communities(), 0);
    }

    #[test]
    fn groups_sorted_largest_first() {
        let c = Communities::from_assignment(vec![Some(0), Some(1), Some(1), Some(1)]);
        let gs = c.groups();
        assert_eq!(gs[0].len(), 3);
        assert_eq!(gs[1].len(), 1);
    }
}
