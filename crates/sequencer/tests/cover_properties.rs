//! Property-based tests for the sequentialiser.

use chatgraph_graph::generators::{
    erdos_renyi, knowledge_graph, molecule, social_network, ErParams, KgParams, MoleculeParams,
    SocialParams,
};
use chatgraph_graph::{Graph, GraphBuilder, NodeId};
use chatgraph_sequencer::{build_supergraph, path_cover, sequentialize, CoverParams};
use chatgraph_support::prop::{check, Config};
use chatgraph_support::rng::{RngExt, StdRng};
use chatgraph_support::{prop_assert, prop_assert_eq};
use std::collections::BTreeMap;

fn er(n: usize, p_percent: u8, seed: u64) -> Graph {
    erdos_renyi(
        &ErParams {
            nodes: n,
            edge_prob: p_percent as f64 / 100.0,
        },
        seed,
    )
}

/// A random Erdős–Rényi configuration `(n, p%, seed)`.
fn er_config(rng: &mut StdRng, max_n: usize, p_lo: u8, p_hi: u8) -> (usize, u8, u64) {
    (
        rng.random_range(2..=max_n.max(2)),
        rng.random_range(p_lo..p_hi),
        rng.random_range(0u64..100),
    )
}

/// The string sequentializer the compact one replaced, kept as the
/// reference its output must resolve to token for token.
mod reference {
    use super::*;
    use chatgraph_sequencer::serialize::{PATH_MARKER, SUPER_MARKER};

    /// A path's alternating label tokens; `None` when it is not walkable.
    pub fn tokens_for_path(g: &Graph, path: &[NodeId]) -> Option<Vec<String>> {
        let mut out = Vec::with_capacity(path.len() * 2);
        for (i, &v) in path.iter().enumerate() {
            if i > 0 {
                let u = path[i - 1];
                let e = g.find_edge(u, v).or_else(|| g.find_edge(v, u))?;
                out.push(g.edge_label(e).ok()?.to_owned());
            }
            out.push(g.node_label(v).ok()?.to_owned());
        }
        Some(out)
    }

    fn level(g: &Graph, params: &CoverParams, marker: &str) -> Vec<Vec<String>> {
        let mut seqs: Vec<Vec<String>> = path_cover(g, params)
            .paths
            .iter()
            .filter_map(|p| {
                let mut t = vec![marker.to_owned()];
                t.extend(tokens_for_path(g, p)?);
                Some(t)
            })
            .collect();
        seqs.sort();
        seqs
    }

    /// `(base, multi_level)` token sequences, each level sorted.
    pub fn sequentialize(
        g: &Graph,
        params: &CoverParams,
        multi_level: bool,
    ) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
        let multi = if multi_level {
            level(&build_supergraph(g, 3).graph, params, SUPER_MARKER)
        } else {
            Vec::new()
        };
        (level(g, params, PATH_MARKER), multi)
    }
}

/// A random graph of one of the three chat families, `(family, size,
/// seed)`, with `removed` nodes tombstoned.
fn family_graph(family: u8, size: usize, seed: u64, removed: usize) -> Graph {
    let mut g = match family {
        0 => molecule(&MoleculeParams { atoms: size, ..Default::default() }, seed),
        1 => social_network(&SocialParams::sized(size), seed),
        _ => knowledge_graph(&KgParams::sized(size), seed),
    };
    let live: Vec<NodeId> = g.node_ids().collect();
    for v in live.iter().step_by(7).take(removed) {
        g.remove_node(*v).unwrap();
    }
    g
}

/// The compact sequentializer resolves to exactly the reference's token
/// streams: same sequences, same tokens, same order, on both levels.
#[test]
fn compact_sequences_resolve_to_the_reference() {
    check(
        "compact_sequences_resolve_to_the_reference",
        Config::default().with_cases(48),
        |rng, size| {
            (
                rng.random_range(0u8..3),
                rng.random_range(4..=4 + 3 * size),
                rng.random_range(0u64..1000),
                rng.random_range(0usize..3),
                rng.random_range(0usize..4),
                rng.random_bool(0.5),
            )
        },
        |&(family, size, seed, removed, l, multi)| {
            let g = family_graph(family, size, seed, removed);
            let params = CoverParams { max_length: l, dedup_singletons: l % 2 == 0 };
            let seqs = sequentialize(&g, &params, multi);
            let (base, multi_level) = reference::sequentialize(&g, &params, multi);
            prop_assert_eq!(seqs.resolve(&seqs.base), base);
            prop_assert_eq!(seqs.resolve(&seqs.multi_level), multi_level);
            prop_assert_eq!(
                seqs.token_count(),
                base.iter().chain(&multi_level).map(Vec::len).sum::<usize>()
            );
            Ok(())
        },
    );
}

/// Path tokens alternate node and edge labels: a path of k nodes yields
/// exactly 2k − 1 tokens, so its sequence (marker included) has 2k.
#[test]
fn token_counts_match_path_lengths() {
    check(
        "token_counts_match_path_lengths",
        Config::default().with_cases(64),
        |rng, size| {
            (
                er_config(rng, 19.min(2 + size), 5, 40),
                rng.random_range(1usize..4),
            )
        },
        |&((n, p, seed), l)| {
            let g = er(n, p, seed);
            let params = CoverParams {
                max_length: l,
                dedup_singletons: false,
            };
            let cover = path_cover(&g, &params);
            for path in &cover.paths {
                let tokens = reference::tokens_for_path(&g, path);
                prop_assert_eq!(tokens.map(|t| t.len()), Some(2 * path.len() - 1));
            }
            let mut expected: Vec<usize> = cover.paths.iter().map(|p| 2 * p.len()).collect();
            let seqs = sequentialize(&g, &params, false);
            let mut lengths: Vec<usize> = seqs.base.iter().map(<[u32]>::len).collect();
            expected.sort_unstable();
            lengths.sort_unstable();
            prop_assert_eq!(lengths, expected);
            Ok(())
        },
    );
}

/// Super-graph node count never exceeds the original's, and membership
/// is total over live nodes.
#[test]
fn supergraph_is_a_contraction() {
    check(
        "supergraph_is_a_contraction",
        Config::default().with_cases(64),
        |rng, size| er_config(rng, 24.min(2 + size), 10, 50),
        |&(n, p, seed)| {
            let g = er(n, p, seed);
            let sg = build_supergraph(&g, 3);
            prop_assert!(sg.graph.node_count() <= g.node_count());
            for v in g.node_ids() {
                let m = sg.membership[v.index()];
                prop_assert!(m.is_some());
                prop_assert!(sg.graph.contains_node(m.unwrap()));
            }
            // Every super-edge is witnessed by at least one original cross edge.
            for e in sg.graph.edge_ids() {
                let (sa, sb) = sg.graph.edge_endpoints(e).unwrap();
                let witnessed = g.edge_ids().any(|ge| {
                    let (a, b) = g.edge_endpoints(ge).unwrap();
                    let (ma, mb) = (
                        sg.membership[a.index()].unwrap(),
                        sg.membership[b.index()].unwrap(),
                    );
                    (ma == sa && mb == sb) || (ma == sb && mb == sa)
                });
                prop_assert!(witnessed);
            }
            Ok(())
        },
    );
}

/// The dedup_singletons option only ever removes single-node paths, and
/// only when the node is covered elsewhere.
#[test]
fn dedup_only_drops_redundant_singletons() {
    check(
        "dedup_only_drops_redundant_singletons",
        Config::default().with_cases(64),
        |rng, size| er_config(rng, 19.min(2 + size), 0, 30),
        |&(n, p, seed)| {
            let g = er(n, p, seed);
            let params_all = CoverParams {
                max_length: 2,
                dedup_singletons: false,
            };
            let params_dedup = CoverParams {
                max_length: 2,
                dedup_singletons: true,
            };
            let all = path_cover(&g, &params_all);
            let dedup = path_cover(&g, &params_dedup);
            prop_assert!(dedup.len() <= all.len());
            // Every node still appears somewhere in the deduped cover.
            let mut seen = std::collections::HashSet::new();
            for path in &dedup.paths {
                seen.extend(path.iter().copied());
            }
            for v in g.node_ids() {
                prop_assert!(seen.contains(&v), "node {v} lost by dedup");
            }
            Ok(())
        },
    );
}

/// Sequentialisation of the multi-level view contains the base view's token
/// count (super sequences only add).
#[test]
fn multi_level_only_adds_tokens() {
    let g = GraphBuilder::undirected()
        .node("a", "C").node("b", "C").node("c", "C").node("d", "O")
        .edge("a", "b", "-").edge("b", "c", "-").edge("c", "a", "-")
        .edge("c", "d", "-")
        .build();
    let params = CoverParams::default();
    let base = sequentialize(&g, &params, false);
    let multi = sequentialize(&g, &params, true);
    assert_eq!(base.base, multi.base);
    assert!(multi.token_count() >= base.token_count());
    assert!(!multi.multi_level.is_empty(), "triangle motif must contract");
}

/// A random directed graph where some node pairs carry an edge each way,
/// with different labels, and a few nodes and edges are tombstoned.
fn directed_antiparallel(n: usize, seed: u64) -> Graph {
    use chatgraph_support::rng::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::directed();
    let labels = ["A", "B", "C"];
    let ids: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(labels[rng.random_range(0..labels.len())]))
        .collect();
    for _ in 0..2 * n {
        let (a, b) = (ids[rng.random_range(0..n)], ids[rng.random_range(0..n)]);
        if a != b && g.add_edge(a, b, "fwd").is_ok() && rng.random_bool(0.5) {
            let _ = g.add_edge(b, a, "back");
        }
    }
    let doomed = g.edge_ids().nth(rng.random_range(0..3));
    if let Some(e) = doomed {
        g.remove_edge(e).unwrap();
    }
    g.remove_node(ids[rng.random_range(0..n)]).unwrap();
    g
}

/// The cover counts are the token, bigram and super-token counts summed
/// over `sequentialize`'s sequences (markers excluded), on all three
/// families, tombstones, ℓ 0–3, both singleton modes, and directed graphs
/// with edges both ways between a pair.
#[test]
fn cover_counts_sum_the_sequences() {
    check(
        "cover_counts_sum_the_sequences",
        Config::default().with_cases(64),
        |rng, size| {
            (
                rng.random_range(0u8..4),
                rng.random_range(4..=4 + 3 * size),
                rng.random_range(0u64..1000),
                rng.random_range(0usize..3),
                rng.random_range(0usize..4),
                rng.random_bool(0.5),
                rng.random_bool(0.5),
            )
        },
        |&(family, size, seed, removed, l, dedup, multi)| {
            let g = match family {
                3 => directed_antiparallel(size, seed),
                f => family_graph(f, size, seed, removed),
            };
            let params = CoverParams { max_length: l, dedup_singletons: dedup };
            let counts = chatgraph_sequencer::cover_counts(&g, &params, multi);
            let seqs = sequentialize(&g, &params, multi);
            let mut tokens: BTreeMap<String, u64> = BTreeMap::new();
            let mut supers: BTreeMap<String, u64> = BTreeMap::new();
            let mut bigrams: BTreeMap<(String, String), u64> = BTreeMap::new();
            for seq in seqs.resolve(&seqs.base) {
                for t in &seq[1..] {
                    *tokens.entry(t.to_string()).or_default() += 1;
                }
                for w in seq[1..].windows(2) {
                    *bigrams.entry((w[0].to_owned(), w[1].to_owned())).or_default() += 1;
                }
            }
            for seq in seqs.resolve(&seqs.multi_level) {
                for t in &seq[1..] {
                    *supers.entry(t.to_string()).or_default() += 1;
                }
            }
            let nonzero = |per: &[u64]| -> BTreeMap<String, u64> {
                counts
                    .symbols
                    .iter()
                    .zip(per)
                    .filter(|(_, &n)| n > 0)
                    .map(|(s, &n)| (s.clone(), n))
                    .collect()
            };
            prop_assert_eq!(nonzero(&counts.tokens), tokens);
            prop_assert_eq!(nonzero(&counts.supers), supers);
            let sym = |i: u32| counts.symbols[i as usize].clone();
            let got: BTreeMap<(String, String), u64> = counts
                .bigrams
                .iter()
                .map(|&((a, b), n)| ((sym(a), sym(b)), n))
                .collect();
            prop_assert_eq!(got, bigrams);
            Ok(())
        },
    );
}
