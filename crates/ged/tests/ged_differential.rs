//! Differential properties for the assignment-based GED: the profile-based
//! `approx_ged` and the flat Hungarian solver must reproduce, bit for bit,
//! the per-cell string-multiset implementation and the nested-row solver
//! they replaced, kept below as oracles.

use chatgraph_ged::{approx_ged, hungarian, CostModel};
use chatgraph_graph::generators::{
    knowledge_graph, molecule, social_network, KgParams, MoleculeParams, SocialParams,
};
use chatgraph_graph::{Graph, NodeId};
use chatgraph_support::prop::{check, Config};
use chatgraph_support::rng::{RngExt, SeedableRng, StdRng};
use chatgraph_support::{prop_assert, prop_assert_eq};

/// The implementations the profile-based ones replaced.
mod reference {
    use chatgraph_ged::CostModel;
    use chatgraph_graph::{Graph, NodeId};
    use std::collections::{BTreeMap, BTreeSet};

    pub struct Approx {
        pub assignment_cost: f64,
        pub upper_bound: f64,
        pub mapping: Vec<(NodeId, Option<NodeId>)>,
    }

    /// Minimum-cost assignment over a matrix given as rows.
    pub fn hungarian(cost: &[Vec<f64>]) -> (Vec<usize>, f64) {
        let n = cost.len();
        if n == 0 {
            return (Vec::new(), 0.0);
        }
        let m = cost[0].len();
        const INF: f64 = f64::INFINITY;
        let mut u = vec![0.0f64; n + 1];
        let mut v = vec![0.0f64; m + 1];
        let mut p = vec![0usize; m + 1];
        let mut way = vec![0usize; m + 1];
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![INF; m + 1];
            let mut used = vec![false; m + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        let mut assignment = vec![usize::MAX; n];
        for j in 1..=m {
            if p[j] != 0 {
                assignment[p[j] - 1] = j - 1;
            }
        }
        let total = assignment
            .iter()
            .enumerate()
            .map(|(r, &c)| cost[r][c])
            .sum();
        (assignment, total)
    }

    fn incident_labels(g: &Graph, v: NodeId) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        if g.is_directed() {
            for (_, e) in g.neighbors(v) {
                *out.entry(format!("out:{}", g.edge_label(e).unwrap_or("")))
                    .or_default() += 1;
            }
            for (_, e) in g.in_neighbors(v) {
                *out.entry(format!("in:{}", g.edge_label(e).unwrap_or("")))
                    .or_default() += 1;
            }
        } else {
            for (_, e) in g.undirected_neighbors(v) {
                *out.entry(g.edge_label(e).unwrap_or("").to_owned())
                    .or_default() += 1;
            }
        }
        out
    }

    fn edge_between(g: &Graph, a: NodeId, b: NodeId) -> Option<chatgraph_graph::EdgeId> {
        if g.is_directed() {
            g.find_edge(a, b)
        } else {
            g.find_edge(a, b).or_else(|| g.find_edge(b, a))
        }
    }

    fn edge_env_cost(g1: &Graph, u: NodeId, g2: &Graph, v: NodeId, cost: &CostModel) -> f64 {
        let a = incident_labels(g1, u);
        let b = incident_labels(g2, v);
        let common: usize = a
            .iter()
            .map(|(k, &ca)| ca.min(b.get(k).copied().unwrap_or(0)))
            .sum();
        let da: usize = a.values().sum();
        let db: usize = b.values().sum();
        let unmatched_a = da - common;
        let unmatched_b = db - common;
        let subs = unmatched_a.min(unmatched_b);
        let dels = unmatched_a - subs;
        let inss = unmatched_b - subs;
        0.5 * (subs as f64 * cost.edge_sub.min(cost.edge_del + cost.edge_ins)
            + dels as f64 * cost.edge_del
            + inss as f64 * cost.edge_ins)
    }

    pub fn induced_cost(
        g1: &Graph,
        g2: &Graph,
        mapping: &[(NodeId, Option<NodeId>)],
        cost: &CostModel,
    ) -> f64 {
        let mut total = 0.0;
        let mut image: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for &(u, img) in mapping {
            match img {
                Some(v) => {
                    total += cost.node_relabel(
                        g1.node_label(u).unwrap_or(""),
                        g2.node_label(v).unwrap_or(""),
                    );
                    image.insert(u, v);
                }
                None => total += cost.node_del,
            }
        }
        let used: BTreeSet<NodeId> = image.values().copied().collect();
        for v in g2.node_ids() {
            if !used.contains(&v) {
                total += cost.node_ins;
            }
        }
        for e in g1.edge_ids() {
            let Ok((a, b)) = g1.edge_endpoints(e) else { continue };
            match (image.get(&a), image.get(&b)) {
                (Some(&ia), Some(&ib)) => match edge_between(g2, ia, ib) {
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
        for e2 in g2.edge_ids() {
            let Ok((a2, b2)) = g2.edge_endpoints(e2) else { continue };
            let covered = if used.contains(&a2) && used.contains(&b2) {
                let pa = image.iter().find(|(_, &v)| v == a2).map(|(&u, _)| u);
                let pb = image.iter().find(|(_, &v)| v == b2).map(|(&u, _)| u);
                match (pa, pb) {
                    (Some(pa), Some(pb)) => edge_between(g1, pa, pb).is_some(),
                    _ => false,
                }
            } else {
                false
            };
            if !covered {
                total += cost.edge_ins;
            }
        }
        total
    }

    pub fn approx_ged(g1: &Graph, g2: &Graph, cost: &CostModel) -> Approx {
        let n1_nodes: Vec<NodeId> = g1.node_ids().collect();
        let n2_nodes: Vec<NodeId> = g2.node_ids().collect();
        let (n1, n2) = (n1_nodes.len(), n2_nodes.len());
        let dim = n1 + n2;
        let big = 1e9;
        let mut m = vec![vec![0.0f64; dim]; dim];
        for i in 0..n1 {
            for j in 0..n2 {
                m[i][j] = cost.node_relabel(
                    g1.node_label(n1_nodes[i]).unwrap_or(""),
                    g2.node_label(n2_nodes[j]).unwrap_or(""),
                ) + edge_env_cost(g1, n1_nodes[i], g2, n2_nodes[j], cost);
            }
            for k in 0..n1 {
                m[i][n2 + k] = if i == k {
                    cost.node_del + 0.5 * g1.total_degree(n1_nodes[i]) as f64 * cost.edge_del
                } else {
                    big
                };
            }
        }
        for k in 0..n2 {
            for j in 0..n2 {
                m[n1 + k][j] = if j == k {
                    cost.node_ins + 0.5 * g2.total_degree(n2_nodes[j]) as f64 * cost.edge_ins
                } else {
                    big
                };
            }
        }
        let (assignment, assignment_cost) = hungarian(&m);
        let mapping: Vec<(NodeId, Option<NodeId>)> = (0..n1)
            .map(|i| {
                let j = assignment[i];
                (n1_nodes[i], (j < n2).then(|| n2_nodes[j]))
            })
            .collect();
        let upper_bound = induced_cost(g1, g2, &mapping, cost);
        Approx {
            assignment_cost,
            upper_bound,
            mapping,
        }
    }
}

/// An API chain as the finetuning loss encodes it: a directed path of
/// API-name nodes joined by `next` edges.
fn chain_graph(rng: &mut StdRng, len: usize) -> Graph {
    const APIS: &[&str] = &["load", "communities", "pagerank", "report", "toxicity"];
    let mut g = Graph::directed();
    let ids: Vec<NodeId> = (0..len)
        .map(|_| g.add_node(APIS[rng.random_range(0..APIS.len())]))
        .collect();
    for w in ids.windows(2) {
        let _ = g.add_edge(w[0], w[1], "next");
    }
    g
}

/// A directed graph where node pairs may carry an edge each way with
/// different labels.
fn antiparallel(rng: &mut StdRng, n: usize) -> Graph {
    let mut g = Graph::directed();
    let labels = ["A", "B", "C"];
    let ids: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(labels[rng.random_range(0..labels.len())]))
        .collect();
    for _ in 0..2 * n {
        let (a, b) = (ids[rng.random_range(0..n)], ids[rng.random_range(0..n)]);
        if a != b && g.add_edge(a, b, "to").is_ok() && rng.random_bool(0.5) {
            let _ = g.add_edge(b, a, "from");
        }
    }
    g
}

/// One graph of a random family, with some nodes and an edge tombstoned.
fn family_graph(rng: &mut StdRng, family: u8, size: usize) -> Graph {
    let seed = rng.random_range(0u64..1000);
    let mut g = match family {
        0 => molecule(&MoleculeParams { atoms: size, ..Default::default() }, seed),
        1 => knowledge_graph(&KgParams::sized(size), seed),
        2 => chain_graph(rng, size.min(10)),
        3 => social_network(&SocialParams::sized(size), seed),
        _ => antiparallel(rng, size),
    };
    if rng.random_bool(0.5) {
        let live: Vec<NodeId> = g.node_ids().collect();
        for v in live.iter().skip(1).step_by(5).take(2) {
            g.remove_node(*v).unwrap();
        }
        let doomed = g.edge_ids().next();
        if let Some(e) = doomed {
            g.remove_edge(e).unwrap();
        }
    }
    g
}

/// `approx_ged` equals the oracle bit for bit on assignment cost, upper
/// bound and mapping, on pairs drawn from molecules, directed KGs, API
/// chains, social graphs and directed graphs with edges both ways, within
/// and across families, with tombstones and under a weighted cost model.
#[test]
fn approx_ged_matches_the_oracle() {
    check(
        "approx_ged_matches_the_oracle",
        Config::default().with_cases(96),
        |rng, size| {
            (
                rng.random_range(0u8..5),
                rng.random_range(0u8..5),
                rng.random_range(3..=6 + 2 * size),
                rng.random_range(3..=6 + 2 * size),
                rng.random_range(0u64..1_000_000),
                rng.random_bool(0.3),
            )
        },
        |&(f1, f2, s1, s2, seed, weighted)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let same = rng.random_bool(0.5);
            let g1 = family_graph(&mut rng, f1, s1);
            let g2 = family_graph(&mut rng, if same { f1 } else { f2 }, s2);
            let cost = if weighted { CostModel::node_weighted(2.5) } else { CostModel::uniform() };
            let got = approx_ged(&g1, &g2, &cost);
            let want = reference::approx_ged(&g1, &g2, &cost);
            prop_assert_eq!(got.assignment_cost.to_bits(), want.assignment_cost.to_bits());
            prop_assert_eq!(got.upper_bound.to_bits(), want.upper_bound.to_bits());
            prop_assert_eq!(got.mapping, want.mapping);
            Ok(())
        },
    );
}

/// `induced_cost` equals the oracle on arbitrary mappings, including
/// ones that send two nodes to the same image or name a node twice.
#[test]
fn induced_cost_matches_the_oracle() {
    check(
        "induced_cost_matches_the_oracle",
        Config::default().with_cases(64),
        |rng, size| {
            (
                rng.random_range(0u8..5),
                rng.random_range(3..=6 + 2 * size),
                rng.random_range(0u64..1_000_000),
            )
        },
        |&(family, size, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let g1 = family_graph(&mut rng, family, size);
            let g2 = family_graph(&mut rng, family, size);
            let targets: Vec<NodeId> = g2.node_ids().collect();
            let mut mapping: Vec<(NodeId, Option<NodeId>)> = g1
                .node_ids()
                .map(|u| {
                    let img = (!targets.is_empty() && rng.random_bool(0.8))
                        .then(|| targets[rng.random_range(0..targets.len())]);
                    (u, img)
                })
                .collect();
            if let Some(&(u, _)) = mapping.first() {
                mapping.push((u, targets.first().copied()));
            }
            let cost = CostModel::uniform();
            let got = chatgraph_ged::bipartite::induced_cost(&g1, &g2, &mapping, &cost);
            let want = reference::induced_cost(&g1, &g2, &mapping, &cost);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            Ok(())
        },
    );
}

/// The flat solver returns the oracle's assignment and total, bit for bit,
/// on random, tie-heavy and integer-valued square and rectangular matrices.
#[test]
fn flat_hungarian_matches_the_oracle() {
    check(
        "flat_hungarian_matches_the_oracle",
        Config::default().with_cases(128),
        |rng, size| {
            let rows = rng.random_range(1..=2 + size.min(14));
            let cols = rows + if rng.random_bool(0.5) { 0 } else { rng.random_range(1..4) };
            let kind = rng.random_range(0u8..3);
            let cells: Vec<f64> = (0..rows * cols)
                .map(|_| match kind {
                    0 => rng.random_range(0.0..10.0),
                    1 => rng.random_range(0..3u32) as f64,
                    _ => rng.random_range(0..40u32) as f64 * 0.5,
                })
                .collect();
            (cells, cols)
        },
        |(cells, cols)| {
            let rows: Vec<Vec<f64>> = cells.chunks(*cols).map(<[f64]>::to_vec).collect();
            let (got, got_total) = hungarian(cells, *cols);
            let (want, want_total) = reference::hungarian(&rows);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_total.to_bits(), want_total.to_bits());
            prop_assert!(got_total.is_finite());
            Ok(())
        },
    );
}
