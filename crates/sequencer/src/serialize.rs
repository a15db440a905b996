//! Path → token serialisation.
//!
//! The LLM substrate consumes token sequences. A path `v0 —e0— v1 —e1— v2`
//! becomes the alternating label sequence `[l(v0), l(e0), l(v1), l(e1), l(v2)]`,
//! with each path introduced by a level marker (`[PATH]` for base-level paths,
//! `[SUPER]` for super-graph paths). Output is deterministic: paths are sorted.
//!
//! A graph version is sequentialised once: [`sequentialize`] keeps its
//! result in the version's derived-data slot ([`Graph::derived`]), so every
//! later turn about the same version reads it back. The kept form is
//! compact: each token is a `u32` index into the version's sorted symbol
//! table, and each level keeps every distinct sequence once, with its
//! repeat count, in one flat id array.

use crate::path_cover::{for_each_path, CoverParams};
use crate::supergraph::build_supergraph;
use chatgraph_graph::{Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Marker token opening a base-level path.
pub const PATH_MARKER: &str = "[PATH]";
/// Marker token opening a super-graph path.
pub const SUPER_MARKER: &str = "[SUPER]";

/// The sequentialised form of one graph: what the graph-aware LLM module
/// actually reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSequences {
    /// Every token that occurs, sorted and deduplicated. A token id is an
    /// index into it, so ids order like the tokens they stand for.
    symbols: Vec<String>,
    /// Token sequences for the base-level path cover (marker included).
    pub base: Sequences,
    /// Token sequences for the super-graph path cover (marker included).
    pub multi_level: Sequences,
}

/// One level's sequences, as token ids. A cover repeats the same label
/// sequence many times (a 500-node social graph has 32k base paths over
/// seven symbols), and sorted repeats are adjacent, so each distinct
/// sequence is kept once with its repeat count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sequences {
    /// `ids[ends[k - 1]..ends[k]]` is distinct sequence `k` (from 0 for
    /// `k = 0`), in sorted order.
    ends: Vec<u32>,
    ids: Vec<u32>,
    /// How many times distinct sequence `k` occurs.
    counts: Vec<u32>,
    /// Number of sequences, repeats included.
    len: usize,
}

impl Sequences {
    /// Number of sequences, repeats included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the level has no sequences.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Each distinct sequence's token ids with its repeat count, in order.
    pub fn runs(&self) -> impl Iterator<Item = (&[u32], usize)> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .zip(&self.counts)
            .map(|((s, &e), &n)| (&self.ids[s as usize..e as usize], n as usize))
    }

    /// Every sequence in order, repeats included.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.runs().flat_map(|(seq, n)| std::iter::repeat_n(seq, n))
    }

    /// Total token count, repeats included.
    pub fn token_count(&self) -> usize {
        self.runs().map(|(seq, n)| seq.len() * n).sum()
    }

    /// Bytes held by the id arrays.
    fn bytes(&self) -> usize {
        (self.ends.capacity() + self.ids.capacity() + self.counts.capacity())
            * std::mem::size_of::<u32>()
    }
}

impl GraphSequences {
    /// The sorted symbol table token ids index.
    pub fn symbols(&self) -> &[String] {
        &self.symbols
    }

    /// The sequences of one level with their ids resolved to tokens.
    pub fn resolve<'a>(&'a self, level: &'a Sequences) -> Vec<Vec<&'a str>> {
        level
            .iter()
            .map(|s| s.iter().map(|&t| self.symbols[t as usize].as_str()).collect())
            .collect()
    }

    /// All sequences flattened into one token stream.
    pub fn flat_tokens(&self) -> Vec<&str> {
        self.resolve(&self.base)
            .into_iter()
            .chain(self.resolve(&self.multi_level))
            .flatten()
            .collect()
    }

    /// Total token count across all sequences.
    pub fn token_count(&self) -> usize {
        self.base.token_count() + self.multi_level.token_count()
    }

    /// Bytes this value keeps resident: the symbol table and both levels'
    /// id arrays.
    pub fn resident_bytes(&self) -> usize {
        let symbols: usize = self
            .symbols
            .iter()
            .map(|s| s.capacity() + std::mem::size_of::<String>())
            .sum();
        std::mem::size_of::<Self>() + symbols + self.base.bytes() + self.multi_level.bytes()
    }
}

/// Sequentialises a graph: base-level path cover plus (optionally) the
/// super-graph's own cover, following §II-B's multi-level design.
///
/// Computed at most once per graph version and config; later calls on the
/// version, or on any clone of it, return the same `Arc`.
pub fn sequentialize(g: &Graph, params: &CoverParams, multi_level: bool) -> Arc<GraphSequences> {
    g.derived((*params, multi_level), |g| build(g, params, multi_level))
}

fn build(g: &Graph, params: &CoverParams, multi_level: bool) -> GraphSequences {
    let sg = multi_level.then(|| build_supergraph(g, 3).graph);
    let mut tokens: BTreeSet<&str> = BTreeSet::from([PATH_MARKER, SUPER_MARKER]);
    for graph in std::iter::once(g).chain(sg.as_ref()) {
        tokens.extend(graph.node_ids().filter_map(|v| graph.node_label(v).ok()));
        tokens.extend(graph.edge_ids().filter_map(|e| graph.edge_label(e).ok()));
    }
    let symbols: Vec<String> = tokens.into_iter().map(str::to_owned).collect();
    let base = level(g, params, &symbols, PATH_MARKER);
    let multi = sg.map(|sg| level(&sg, params, &symbols, SUPER_MARKER)).unwrap_or_default();
    GraphSequences { symbols, base, multi_level: multi }
}

/// The id of `token`, which the symbol table holds by construction.
fn id_of(symbols: &[String], token: &str) -> u32 {
    symbols.binary_search_by(|s| s.as_str().cmp(token)).unwrap_or_default() as u32
}

/// Per-slot token ids of `g`'s live node and edge labels.
struct SlotIds {
    nodes: Vec<u32>,
    edges: Vec<u32>,
}

impl SlotIds {
    fn of(g: &Graph, symbols: &[String]) -> SlotIds {
        let mut nodes = vec![0; g.node_bound()];
        for v in g.node_ids() {
            nodes[v.index()] = id_of(symbols, g.node_label(v).unwrap_or_default());
        }
        let mut edges = vec![0; g.edge_bound()];
        for e in g.edge_ids() {
            edges[e.index()] = id_of(symbols, g.edge_label(e).unwrap_or_default());
        }
        SlotIds { nodes, edges }
    }
}

/// Appends one path's alternating label ids to `out`. Returns `None` (with
/// `out` partly written) when the path is not walkable in `g` — consecutive
/// nodes without a connecting edge, or dead node ids.
fn push_path(g: &Graph, ids: &SlotIds, path: &[NodeId], out: &mut Vec<u32>) -> Option<()> {
    for (i, &v) in path.iter().enumerate() {
        if !g.contains_node(v) {
            return None;
        }
        if i > 0 {
            let u = path[i - 1];
            let e = g.find_edge(u, v).or_else(|| g.find_edge(v, u))?;
            out.push(ids.edges[e.index()]);
        }
        out.push(ids.nodes[v.index()]);
    }
    Some(())
}

/// One level: the cover of `g`, each path behind `marker`, sorted.
fn level(g: &Graph, params: &CoverParams, symbols: &[String], marker: &str) -> Sequences {
    let ids = SlotIds::of(g, symbols);
    let marker = id_of(symbols, marker);
    // Ids order like their tokens, so the map's order is the token
    // sequences' order. A cover path is walkable by construction, so
    // `push_path` cannot fail here; dropping a failed path keeps the
    // function total anyway.
    let mut runs: BTreeMap<Vec<u32>, u32> = BTreeMap::new();
    let mut seq = Vec::new();
    for_each_path(g, params, |p| {
        seq.clear();
        seq.push(marker);
        if push_path(g, &ids, p, &mut seq).is_none() {
            return;
        }
        match runs.get_mut(seq.as_slice()) {
            Some(n) => *n += 1,
            None => {
                runs.insert(seq.clone(), 1);
            }
        }
    });
    let mut out = Sequences::default();
    for (seq, n) in runs {
        out.ids.extend_from_slice(&seq);
        out.ends.push(out.ids.len() as u32);
        out.counts.push(n);
        out.len += n as usize;
    }
    out.ids.shrink_to_fit();
    out.ends.shrink_to_fit();
    out.counts.shrink_to_fit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_graph::GraphBuilder;

    fn labeled_line() -> Graph {
        GraphBuilder::undirected()
            .node("a", "C")
            .node("b", "O")
            .node("c", "N")
            .edge("a", "b", "single")
            .edge("b", "c", "double")
            .build()
    }

    /// `path`'s tokens, through the id encoding.
    fn path_tokens(g: &Graph, path: &[NodeId]) -> Option<Vec<String>> {
        let mut symbols: Vec<String> = g
            .node_ids()
            .map(|v| g.node_label(v).unwrap().to_owned())
            .chain(g.edge_ids().map(|e| g.edge_label(e).unwrap().to_owned()))
            .collect();
        symbols.sort();
        symbols.dedup();
        let mut out = Vec::new();
        push_path(g, &SlotIds::of(g, &symbols), path, &mut out)?;
        Some(out.iter().map(|&t| symbols[t as usize].clone()).collect())
    }

    #[test]
    fn path_tokens_alternate_labels() {
        let g = labeled_line();
        let ids: Vec<NodeId> = g.node_ids().collect();
        let t = path_tokens(&g, &ids).expect("line is walkable");
        assert_eq!(t, vec!["C", "single", "O", "double", "N"]);
        let seqs = sequentialize(&g, &CoverParams::default(), false);
        let full = ["[PATH]", "C", "single", "O", "double", "N"];
        assert!(seqs.resolve(&seqs.base).iter().any(|s| s == &full));
    }

    #[test]
    fn single_node_path_is_one_token() {
        let g = labeled_line();
        assert_eq!(path_tokens(&g, &[NodeId(1)]), Some(vec!["O".to_owned()]));
    }

    #[test]
    fn unwalkable_path_is_rejected() {
        let g = GraphBuilder::undirected()
            .node("a", "C")
            .node("b", "O")
            .build();
        // No edge between the two nodes: the path is not walkable.
        assert_eq!(path_tokens(&g, &[NodeId(0), NodeId(1)]), None);
        assert_eq!(path_tokens(&g, &[NodeId(7)]), None, "no such node");
    }

    #[test]
    fn sequences_start_with_markers() {
        let g = labeled_line();
        let seqs = sequentialize(&g, &CoverParams::default(), true);
        assert!(!seqs.base.is_empty());
        assert!(seqs.resolve(&seqs.base).iter().all(|s| s[0] == PATH_MARKER));
        assert!(seqs.resolve(&seqs.multi_level).iter().all(|s| s[0] == SUPER_MARKER));
    }

    #[test]
    fn multi_level_flag_controls_super_sequences() {
        let g = GraphBuilder::undirected()
            .node("a", "C").node("b", "C").node("c", "C")
            .edge("a", "b", "-").edge("b", "c", "-").edge("c", "a", "-")
            .build();
        let without = sequentialize(&g, &CoverParams::default(), false);
        assert!(without.multi_level.is_empty());
        let with = sequentialize(&g, &CoverParams::default(), true);
        assert!(!with.multi_level.is_empty());
        // The triangle contracts to one super-node: a singleton path.
        assert_eq!(with.resolve(&with.multi_level)[0][1], "clique3[C|C|C]");
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let g = labeled_line();
        let a = sequentialize(&g, &CoverParams::default(), true);
        // A fresh version of equal content computes afresh, equal.
        let b = sequentialize(&labeled_line(), &CoverParams::default(), true);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let tokens = a.resolve(&a.base);
        let mut sorted = tokens.clone();
        sorted.sort();
        assert_eq!(tokens, sorted);
    }

    #[test]
    fn token_count_and_flat_tokens_agree() {
        let g = labeled_line();
        let seqs = sequentialize(&g, &CoverParams::default(), true);
        assert_eq!(seqs.flat_tokens().len(), seqs.token_count());
    }

    #[test]
    fn empty_graph_serialises_to_nothing() {
        let seqs = sequentialize(&Graph::undirected(), &CoverParams::default(), true);
        assert_eq!(seqs.token_count(), 0);
    }

    #[test]
    fn computed_once_per_version_and_config() {
        let g = labeled_line();
        let p = CoverParams::default();
        let a = sequentialize(&g, &p, true);
        assert!(Arc::ptr_eq(&a, &sequentialize(&g.clone(), &p, true)));
        assert!(!Arc::ptr_eq(&a, &sequentialize(&g, &p, false)));
        let mut edited = g.clone();
        edited.set_node_label(NodeId(0), "S").unwrap();
        let fresh = sequentialize(&edited, &p, true);
        assert!(fresh.symbols().iter().any(|s| s == "S"));
        assert!(!a.symbols().iter().any(|s| s == "S"));
    }
}
