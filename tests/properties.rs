//! Property-based tests on cross-crate invariants, running on the vendored
//! `chatgraph_support::prop` harness.

use chatgraph::ged::bipartite::lower_bound;
use chatgraph::ged::{approx_ged, exact_ged, hungarian, matching_loss, CostModel};
use chatgraph::graph::{Direction, Graph};
use chatgraph::sequencer::{path_cover, sequentialize, CoverParams};
use chatgraph_support::prop::{check, Config};
use chatgraph_support::rng::{RngExt, SliceRandom, StdRng};
use chatgraph_support::{prop_assert, prop_assert_eq};

/// Generator: a random small labelled graph with up to `max_n` nodes
/// (further tightened by the harness `size` so counterexamples shrink).
fn small_graph(rng: &mut StdRng, size: usize, max_n: usize, directed: bool) -> Graph {
    let cap = max_n.min(2 + size).max(2);
    let n = rng.random_range(2..=cap);
    let mut g = Graph::new(if directed {
        Direction::Directed
    } else {
        Direction::Undirected
    });
    let labels = ["A", "B", "C"];
    let ids: Vec<_> = (0..n)
        .map(|_| g.add_node(*labels.choose(rng).expect("non-empty")))
        .collect();
    let m = rng.random_range(0..2 * n);
    for _ in 0..m {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b {
            let _ = g.add_edge(ids[a], ids[b], "e");
        }
    }
    g
}

/// GED(g, g) = 0 for both the approximation and exact search.
#[test]
fn ged_of_identical_graphs_is_zero() {
    check(
        "ged_of_identical_graphs_is_zero",
        Config::default().with_cases(64),
        |rng, size| small_graph(rng, size, 7, false),
        |g| {
            let cost = CostModel::uniform();
            let approx = approx_ged(g, g, &cost);
            prop_assert_eq!(approx.upper_bound, 0.0);
            prop_assert_eq!(lower_bound(g, g, &cost), 0.0);
            if let Some(exact) = exact_ged(g, g, &cost) {
                prop_assert_eq!(exact, 0.0);
            }
            Ok(())
        },
    );
}

/// Shared check: lower bound ≤ exact ≤ upper bound for one graph pair.
fn check_bounds_bracket(g1: &Graph, g2: &Graph) -> Result<(), String> {
    let cost = CostModel::uniform();
    let approx = approx_ged(g1, g2, &cost);
    let lb = lower_bound(g1, g2, &cost);
    if let Some(exact) = exact_ged(g1, g2, &cost) {
        prop_assert!(lb <= exact + 1e-9, "lb {lb} > exact {exact}");
        prop_assert!(
            exact <= approx.upper_bound + 1e-9,
            "exact {exact} > ub {}",
            approx.upper_bound
        );
    }
    Ok(())
}

/// lower bound ≤ exact ≤ upper bound on random graph pairs.
#[test]
fn ged_bounds_bracket_exact() {
    check(
        "ged_bounds_bracket_exact",
        Config::default().with_cases(64),
        |rng, size| {
            (
                small_graph(rng, size, 6, false),
                small_graph(rng, size, 6, false),
            )
        },
        |(g1, g2)| check_bounds_bracket(g1, g2),
    );
}

/// Shared check: GED is symmetric under uniform costs (exact solver).
fn check_exact_symmetric(g1: &Graph, g2: &Graph) -> Result<(), String> {
    let cost = CostModel::uniform();
    let d12 = exact_ged(g1, g2, &cost);
    let d21 = exact_ged(g2, g1, &cost);
    if let (Some(a), Some(b)) = (d12, d21) {
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
    Ok(())
}

/// GED is symmetric under uniform costs (exact solver).
#[test]
fn exact_ged_symmetric() {
    check(
        "exact_ged_symmetric",
        Config::default().with_cases(64),
        |rng, size| {
            (
                small_graph(rng, size, 5, false),
                small_graph(rng, size, 5, false),
            )
        },
        |(g1, g2)| check_exact_symmetric(g1, g2),
    );
}

/// Builds one of the recorded regression graphs: a list of node labels plus
/// `(src, dst)` index pairs, all edges labelled `"e"`.
fn regression_graph(labels: &[&str], edges: &[(usize, usize)]) -> Graph {
    let mut g = Graph::new(Direction::Undirected);
    let ids: Vec<_> = labels.iter().map(|l| g.add_node(*l)).collect();
    for &(a, b) in edges {
        g.add_edge(ids[a], ids[b], "e").expect("valid edge");
    }
    g
}

/// Regression: first shrunken counterexample recorded by the old proptest
/// harness (formerly `tests/properties.proptest-regressions`) — a size-2
/// graph against a size-4 graph sharing one label.
#[test]
fn regression_ged_pair_unbalanced_sizes() {
    let g1 = regression_graph(&["A", "B"], &[]);
    let g2 = regression_graph(&["C", "B", "B", "A"], &[(2, 3), (1, 3)]);
    check_bounds_bracket(&g1, &g2).unwrap();
    check_exact_symmetric(&g1, &g2).unwrap();
}

/// Regression: second recorded counterexample — both graphs carry a single
/// `"e"` edge out of their first node.
#[test]
fn regression_ged_pair_single_edges() {
    let g1 = regression_graph(&["C", "A"], &[(0, 1)]);
    let g2 = regression_graph(&["B", "A", "A", "C"], &[(0, 1)]);
    check_bounds_bracket(&g1, &g2).unwrap();
    check_exact_symmetric(&g1, &g2).unwrap();
}

/// The matching loss is non-negative, zero on identity, and its
/// regulariser counts exactly the unmatched nodes.
#[test]
fn matching_loss_invariants() {
    check(
        "matching_loss_invariants",
        Config::default().with_cases(64),
        |rng, size| {
            (
                small_graph(rng, size, 6, true),
                small_graph(rng, size, 6, true),
                rng.random_range(0.0f64..2.0),
            )
        },
        |(g1, g2, alpha)| {
            let alpha = *alpha;
            let cost = CostModel::uniform();
            let l = matching_loss(g1, g2, alpha, &cost);
            prop_assert!(l.total >= 0.0);
            prop_assert!(l.edit_distance >= 0.0);
            prop_assert!((l.total - (l.edit_distance + alpha * l.regularizer)).abs() < 1e-9);
            let matched = l.matching.iter().filter(|(_, v)| v.is_some()).count();
            let deleted = l.matching.len() - matched;
            let inserted = g2.node_count() - matched;
            prop_assert_eq!(l.regularizer, (deleted + inserted) as f64);
            let id = matching_loss(g1, g1, alpha, &cost);
            prop_assert_eq!(id.total, 0.0);
            Ok(())
        },
    );
}

/// Hungarian result equals brute force on small random instances.
#[test]
fn hungarian_is_optimal() {
    check(
        "hungarian_is_optimal",
        Config::default().with_cases(64),
        |rng, _size| {
            let n = rng.random_range(1usize..5);
            let m = n + rng.random_range(0usize..2);
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.random_range(0.0..9.0)).collect())
                .collect();
            cost
        },
        |cost| {
            let m = cost[0].len();
            let (assignment, total) = hungarian(&cost.concat(), m);
            // brute force over permutations
            fn rec(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
                if row == cost.len() {
                    *best = best.min(acc);
                    return;
                }
                for c in 0..cost[0].len() {
                    if !used[c] {
                        used[c] = true;
                        rec(cost, row + 1, used, acc + cost[row][c], best);
                        used[c] = false;
                    }
                }
            }
            let mut best = f64::INFINITY;
            rec(cost, 0, &mut vec![false; m], 0.0, &mut best);
            prop_assert!(
                (total - best).abs() < 1e-9,
                "hungarian {total} vs brute {best}"
            );
            // assignment is an injection
            let mut seen = std::collections::HashSet::new();
            for &c in &assignment {
                prop_assert!(seen.insert(c));
            }
            Ok(())
        },
    );
}

/// Every ℓ-ball is covered by the path cover, every path respects the
/// length bound and adjacency, for random graphs and ℓ.
#[test]
fn path_cover_covers_and_respects_length() {
    check(
        "path_cover_covers_and_respects_length",
        Config::default().with_cases(64),
        |rng, size| {
            (
                small_graph(rng, size, 12, false),
                rng.random_range(0usize..4),
            )
        },
        |(g, l)| {
            let cover = path_cover(
                g,
                &CoverParams {
                    max_length: *l,
                    dedup_singletons: false,
                },
            );
            for p in &cover.paths {
                prop_assert!(p.len() <= l + 1);
                for w in p.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]) || g.has_edge(w[1], w[0]));
                }
            }
            for root in g.node_ids() {
                prop_assert!(cover.covers_ball(g, root), "ball of {root} uncovered");
            }
            Ok(())
        },
    );
}

/// Sequentialisation is deterministic and its token count is consistent
/// with its sequences for arbitrary graphs.
#[test]
fn sequentialisation_deterministic() {
    check(
        "sequentialisation_deterministic",
        Config::default().with_cases(64),
        |rng, size| small_graph(rng, size, 10, false),
        |g| {
            let params = CoverParams::default();
            let a = sequentialize(g, &params, true);
            let b = sequentialize(g, &params, true);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.flat_tokens().len(), a.token_count());
            Ok(())
        },
    );
}

/// compact() preserves node/edge counts and label histograms after
/// arbitrary removals.
#[test]
fn compact_preserves_structure() {
    check(
        "compact_preserves_structure",
        Config::default().with_cases(64),
        |rng, size| {
            let g = small_graph(rng, size, 10, false);
            let kills: Vec<usize> = (0..rng.random_range(0usize..4))
                .map(|_| rng.random_range(0usize..10))
                .collect();
            (g, kills)
        },
        |(g, kills)| {
            let mut g = g.clone();
            for &k in kills {
                let victim = g.node_ids().nth(k % g.node_count().max(1));
                if let Some(v) = victim {
                    let _ = g.remove_node(v);
                }
                if g.node_count() == 0 {
                    break;
                }
            }
            let (dense, _) = g.compact();
            prop_assert_eq!(dense.node_count(), g.node_count());
            prop_assert_eq!(dense.edge_count(), g.edge_count());
            prop_assert_eq!(dense.label_histogram(), g.label_histogram());
            prop_assert_eq!(dense.node_bound(), dense.node_count());
            Ok(())
        },
    );
}

/// τ-MG always returns the exact nearest neighbour of a *dataset member*
/// queried with a generous beam (self-lookup floor), and its degree cap
/// holds, for random cluster configurations.
#[test]
fn taumg_self_lookup_floor() {
    check(
        "taumg_self_lookup_floor",
        Config::default().with_cases(16),
        |rng, _size| (rng.random_range(0u64..50), rng.random_range(2usize..8)),
        |&(seed, clusters)| {
            use chatgraph::ann::dataset::{clustered, ClusterParams};
            use chatgraph::ann::{SearchStats, TauMg, TauMgParams};
            let params = ClusterParams {
                n: 200,
                dim: 8,
                clusters,
                noise: 0.05,
            };
            let data = clustered(&params, seed);
            let index = TauMg::build(data.clone(), TauMgParams::default());
            let mut misses = 0usize;
            for (i, v) in data.iter().enumerate().step_by(17) {
                let res = index.search_with_ef(v, 1, 64, &mut SearchStats::default());
                if res[0].0 != i && res[0].1 > 0.0 {
                    misses += 1;
                }
            }
            prop_assert!(misses <= 1, "{misses} self-lookups missed");
            Ok(())
        },
    );
}
