//! Token statistics of a graph's sequences, without the sequences.
//!
//! The chat model reads a graph's sequences only as counts: how often each
//! label occurs as a token, how often each pair of labels occurs as
//! adjacent tokens, and how often each label occurs at the super-graph
//! level. [`cover_counts`] produces exactly those counts from one walk of
//! each root's BFS tree: a tree node on `k` root-to-leaf paths adds `k` to
//! its label, `k` to its parent edge's label, and `k` to each of the two
//! bigrams the edge forms (`parent label, edge label` and `edge label,
//! node label`). No path, token sequence or sequence map is built.

use crate::path_cover::{for_each_tree_count, CoverParams};
use crate::supergraph::build_supergraph;
use chatgraph_graph::Graph;
use std::collections::HashMap;

/// Label counts over the path cover of a graph (and of its super-graph).
/// The markers opening each sequence are not counted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverCounts {
    /// Every distinct node and edge label of the graph and, with the
    /// multi-level view, of its super-graph, in first-seen order. The
    /// other fields index into it.
    pub symbols: Vec<String>,
    /// Base-level token occurrences per symbol.
    pub tokens: Vec<u64>,
    /// Super-graph token occurrences per symbol (all zero without the
    /// multi-level view).
    pub supers: Vec<u64>,
    /// Base-level occurrences of each adjacent token pair, sorted by pair.
    pub bigrams: Vec<((u32, u32), u64)>,
}

/// Counts the tokens and bigrams that [`crate::sequentialize`] with the
/// same arguments would produce, summed over its sequences.
pub fn cover_counts(g: &Graph, params: &CoverParams, multi_level: bool) -> CoverCounts {
    let sg = multi_level.then(|| build_supergraph(g, 3).graph);
    let mut interner = Interner::default();
    let base = LevelCounts::walk(g, params, &mut interner);
    let supers = sg.as_ref().map(|sg| LevelCounts::walk(sg, params, &mut interner));

    let n = interner.symbols.len();
    let mut out = CoverCounts {
        tokens: vec![0; n],
        supers: vec![0; n],
        ..CoverCounts::default()
    };
    base.add_tokens(&mut out.tokens);
    if let Some(level) = &supers {
        level.add_tokens(&mut out.supers);
    }
    let mut bigrams: HashMap<(u32, u32), u64> = HashMap::new();
    for (e, ids) in base.edges.iter().enumerate() {
        let (fwd, bwd) = (base.fwd[e], base.bwd[e]);
        let (src, label, dst) = (ids[0], ids[1], ids[2]);
        for (pair, n) in [
            ((src, label), fwd),
            ((label, dst), fwd),
            ((dst, label), bwd),
            ((label, src), bwd),
        ] {
            if n > 0 {
                *bigrams.entry(pair).or_default() += n;
            }
        }
    }
    out.bigrams = bigrams.into_iter().collect();
    out.bigrams.sort_unstable();
    out.symbols = interner.symbols.into_iter().map(str::to_owned).collect();
    out
}

/// Label ids shared by both levels.
#[derive(Default)]
struct Interner<'a> {
    ids: HashMap<&'a str, u32>,
    symbols: Vec<&'a str>,
}

impl<'a> Interner<'a> {
    fn id(&mut self, label: &'a str) -> u32 {
        let next = self.symbols.len() as u32;
        *self.ids.entry(label).or_insert_with(|| {
            self.symbols.push(label);
            next
        })
    }
}

/// One level's per-slot path counts.
struct LevelCounts {
    /// Per node slot: its label id and the paths it lies on.
    nodes: Vec<(u32, u64)>,
    /// Per edge slot: `[source label, edge label, target label]` ids.
    edges: Vec<[u32; 3]>,
    /// Per edge slot: paths crossing it from its source to its target
    /// (`fwd`) and the other way (`bwd`).
    fwd: Vec<u64>,
    bwd: Vec<u64>,
}

impl LevelCounts {
    fn walk<'a>(g: &'a Graph, params: &CoverParams, interner: &mut Interner<'a>) -> LevelCounts {
        let mut nodes = vec![(0, 0); g.node_bound()];
        for v in g.node_ids() {
            nodes[v.index()].0 = interner.id(g.node_label(v).unwrap_or_default());
        }
        let mut edges = vec![[0; 3]; g.edge_bound()];
        for e in g.edge_ids() {
            if let Ok((a, b)) = g.edge_endpoints(e) {
                let label = interner.id(g.edge_label(e).unwrap_or_default());
                edges[e.index()] = [nodes[a.index()].0, label, nodes[b.index()].0];
            }
        }
        let mut level = LevelCounts {
            nodes,
            fwd: vec![0; edges.len()],
            bwd: vec![0; edges.len()],
            edges,
        };
        for_each_tree_count(g, params, |v, parent, k| {
            level.nodes[v.index()].1 += k;
            // The edge a path token names: `find_edge(u, v)`, else
            // `find_edge(v, u)`, as the sequences pick it. A tree edge
            // always has one.
            let Some(u) = parent else { return };
            let Some(e) = g.find_edge(u, v).or_else(|| g.find_edge(v, u)) else {
                return;
            };
            if g.edge_endpoints(e).is_ok_and(|(src, _)| src == u) {
                level.fwd[e.index()] += k;
            } else {
                level.bwd[e.index()] += k;
            }
        });
        level
    }

    fn add_tokens(&self, counts: &mut [u64]) {
        for &(id, n) in &self.nodes {
            counts[id as usize] += n;
        }
        for (ids, (f, b)) in self.edges.iter().zip(self.fwd.iter().zip(&self.bwd)) {
            counts[ids[1] as usize] += f + b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_graph::GraphBuilder;

    fn count_of(c: &CoverCounts, sym: &str) -> (u64, u64) {
        let i = c.symbols.iter().position(|s| s == sym).expect("symbol present");
        (c.tokens[i], c.supers[i])
    }

    #[test]
    fn line_counts_tokens_and_bigrams() {
        // a -single- b -double- c with ℓ = 2: paths from a: [a b c]; from
        // b: [b a], [b c]; from c: [c b a].
        let g = GraphBuilder::undirected()
            .node("a", "C")
            .node("b", "O")
            .node("c", "N")
            .edge("a", "b", "single")
            .edge("b", "c", "double")
            .build();
        let params = CoverParams { max_length: 2, dedup_singletons: true };
        let c = cover_counts(&g, &params, false);
        assert_eq!(count_of(&c, "C"), (3, 0));
        assert_eq!(count_of(&c, "O"), (4, 0));
        assert_eq!(count_of(&c, "N"), (3, 0));
        assert_eq!(count_of(&c, "single"), (3, 0));
        assert_eq!(count_of(&c, "double"), (3, 0));
        let id = |s: &str| c.symbols.iter().position(|x| x == s).unwrap() as u32;
        let bigram = |a: &str, b: &str| {
            c.bigrams
                .iter()
                .find(|(p, _)| *p == (id(a), id(b)))
                .map_or(0, |&(_, n)| n)
        };
        assert_eq!(bigram("C", "single"), 1);
        assert_eq!(bigram("single", "O"), 1);
        assert_eq!(bigram("O", "single"), 2);
        assert_eq!(bigram("single", "C"), 2);
        assert_eq!(bigram("double", "C"), 0);
    }

    #[test]
    fn isolated_node_is_one_token_and_super_level_counts() {
        let mut g = GraphBuilder::undirected()
            .node("a", "C").node("b", "C").node("c", "C")
            .edge("a", "b", "-").edge("b", "c", "-").edge("c", "a", "-")
            .build();
        g.add_node("Z");
        let c = cover_counts(&g, &CoverParams::default(), true);
        assert_eq!(count_of(&c, "Z"), (1, 1));
        assert_eq!(count_of(&c, "clique3[C|C|C]"), (0, 1));
    }

    #[test]
    fn empty_graph_counts_nothing() {
        let c = cover_counts(&Graph::undirected(), &CoverParams::default(), true);
        assert!(c.symbols.is_empty() && c.bigrams.is_empty());
    }
}
