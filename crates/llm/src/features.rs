//! Hashed feature extraction over (prompt, graph, partial chain).
//!
//! The "graph-aware" part of the graph-aware LLM: the sequentialiser's token
//! streams (both the base path cover and the super-graph paths, paper §II-B)
//! enter the feature space alongside the prompt text and the decoding state.

use chatgraph_embed::hashing::fnv1a;
use chatgraph_embed::tokenizer;
use chatgraph_graph::Graph;
use chatgraph_sequencer::{cover_counts, CoverParams};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Feature-space configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureConfig {
    /// Hashed feature dimensionality.
    pub dim: usize,
    /// Character n-gram size for prompt words (0 disables).
    pub char_ngram: usize,
    /// Path-cover length ℓ used when sequentialising graphs.
    pub cover_length: usize,
    /// Include super-graph (multi-level) sequences.
    pub multi_level: bool,
    /// Weight of the prompt-text feature group.
    pub prompt_weight: f32,
    /// Weight of the graph feature group.
    pub graph_weight: f32,
    /// Weight of the decoding-state feature group.
    pub state_weight: f32,
    /// Weight of the single graph-family hint feature.
    pub family_weight: f32,
}

chatgraph_support::impl_json_struct!(FeatureConfig {
    dim,
    char_ngram,
    cover_length,
    multi_level,
    prompt_weight,
    graph_weight,
    state_weight,
    family_weight,
});

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            dim: 4096,
            char_ngram: 3,
            cover_length: 2,
            multi_level: true,
            prompt_weight: 1.0,
            graph_weight: 0.5,
            state_weight: 2.0,
            family_weight: 1.0,
        }
    }
}

/// A sparse feature vector: `index → count`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseFeatures(pub BTreeMap<u32, f32>);

impl SparseFeatures {
    /// Number of distinct active features.
    pub fn nnz(&self) -> usize {
        self.0.len()
    }

    fn bump(&mut self, dim: usize, namespaced: &str) {
        *self.0.entry(feature_index(dim, namespaced)).or_insert(0.0) += 1.0;
    }

    /// L2-normalises the counts so long prompts don't drown short ones.
    pub fn normalize(&mut self) {
        let norm: f32 = self.0.values().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in self.0.values_mut() {
                *v /= norm;
            }
        }
    }

    /// Adds another sparse vector into this one, scaled by `scale`.
    pub fn merge_scaled(&mut self, other: &SparseFeatures, scale: f32) {
        for (&i, &v) in &other.0 {
            *self.0.entry(i).or_insert(0.0) += v * scale;
        }
    }

    /// Adds another sparse vector into this one.
    pub fn merge(&mut self, other: &SparseFeatures) {
        self.merge_scaled(other, 1.0);
    }
}

/// The hashed index of a namespaced feature.
fn feature_index(dim: usize, namespaced: &str) -> u32 {
    (fnv1a(namespaced.as_bytes()) % dim as u64) as u32
}

/// What a graph version contributes to every context about it: the
/// L2-normalised graph group and the family-hint index.
struct GraphView {
    group: SparseFeatures,
    family: u32,
}

/// The config fields [`GraphView`] depends on.
#[derive(PartialEq)]
struct ViewKey {
    dim: usize,
    cover_length: usize,
    multi_level: bool,
}

/// A label heuristic for the family of a graph. Cheap and local — the
/// authoritative classifier lives in the API layer; this hint only feeds
/// one model feature that disambiguates same-wording prompts attached to
/// different graph kinds ("write a report for G"). Reads the version's
/// [`Graph::label_summary`], the same pass the API layer's classifier reads.
pub fn family_hint(graph: &Graph) -> &'static str {
    let s = graph.label_summary();
    if !s.has_nodes {
        "empty"
    } else if graph.is_directed() {
        "directed"
    } else if s.all_elements {
        "molecule"
    } else if s.has_person {
        "social"
    } else {
        "generic"
    }
}

/// Extracts model features from the three prompt components.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    config: FeatureConfig,
}

chatgraph_support::impl_json_struct!(FeatureExtractor { config });

impl FeatureExtractor {
    /// Creates an extractor.
    pub fn new(config: FeatureConfig) -> Self {
        assert!(config.dim > 0, "feature dimension must be positive");
        FeatureExtractor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Prompt-text features (namespace `p:`).
    fn add_prompt(&self, out: &mut SparseFeatures, prompt: &str) {
        for f in tokenizer::features(prompt, self.config.char_ngram) {
            out.bump(self.config.dim, &format!("p:{f}"));
        }
    }

    /// The graph's share of a context (namespaces `g:` for tokens, `g2:`
    /// for token bigrams, `s:` for super-graph tokens, `fam:` for the
    /// family hint), computed once per graph version and config.
    fn graph_view(&self, graph: &Graph) -> Arc<GraphView> {
        let key = ViewKey {
            dim: self.config.dim,
            cover_length: self.config.cover_length,
            multi_level: self.config.multi_level,
        };
        graph.derived(key, |g| {
            let params = CoverParams {
                max_length: self.config.cover_length,
                dedup_singletons: true,
            };
            // Only per-symbol and per-bigram counts enter the group, so
            // they are counted straight off the cover's BFS trees; each
            // distinct feature is then hashed once. A token's bump is a
            // `+1.0`, so the group holds per-index counts, which sum in
            // any order.
            let cover = cover_counts(g, &params, self.config.multi_level);
            let symbols = &cover.symbols;
            let dim = self.config.dim;
            let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
            let mut add = |feature: String, n: u64| {
                if n > 0 {
                    *counts.entry(feature_index(dim, &feature)).or_default() += n;
                }
            };
            for (sym, (&n, &m)) in symbols.iter().zip(cover.tokens.iter().zip(&cover.supers)) {
                add(format!("g:{sym}"), n);
                add(format!("s:{sym}"), m);
            }
            for &((a, b), n) in &cover.bigrams {
                add(format!("g2:{}_{}", symbols[a as usize], symbols[b as usize]), n);
            }
            // `+1.0` steps from zero stop growing at 2^24 in `f32`.
            let mut group = SparseFeatures(
                counts
                    .into_iter()
                    .map(|(i, n)| (i, n.min(1 << 24) as f32))
                    .collect(),
            );
            group.normalize();
            GraphView {
                group,
                family: feature_index(dim, &format!("fam:{}", family_hint(g))),
            }
        })
    }

    /// Decoding-state features (namespaces `c1:`, `c2:`, `used:`, `pos:`).
    fn add_chain_state(&self, out: &mut SparseFeatures, partial_chain: &[String]) {
        let last = partial_chain.last().map(String::as_str).unwrap_or("[BOS]");
        out.bump(self.config.dim, &format!("c1:{last}"));
        if partial_chain.len() >= 2 {
            out.bump(
                self.config.dim,
                &format!(
                    "c2:{}_{}",
                    partial_chain[partial_chain.len() - 2],
                    last
                ),
            );
        }
        for api in partial_chain {
            out.bump(self.config.dim, &format!("used:{api}"));
        }
        out.bump(self.config.dim, &format!("pos:{}", partial_chain.len().min(8)));
    }

    /// Precomputes the (expensive) prompt + graph features once per question.
    /// Counting the graph's cover dominates extraction cost, and rollout-based
    /// prediction evaluates hundreds of steps per question, so this cache is
    /// what makes finetuning fast.
    ///
    /// Each feature *group* (prompt, graph) is L2-normalised independently
    /// before merging: a large graph emits hundreds of path tokens, and
    /// without per-group normalisation they drown the handful of prompt and
    /// decoding-state features that actually decide the next API.
    ///
    /// The graph's share is computed once per graph version (see
    /// [`Graph::derived`]), so a turn about a version already seen costs
    /// the prompt group and one merge.
    pub fn context(&self, prompt: &str, graph: Option<&Graph>) -> SparseFeatures {
        let mut prompt_group = SparseFeatures::default();
        self.add_prompt(&mut prompt_group, prompt);
        prompt_group.normalize();
        let mut out = SparseFeatures::default();
        out.merge_scaled(&prompt_group, self.config.prompt_weight);
        if let Some(g) = graph {
            let view = self.graph_view(g);
            out.merge_scaled(&view.group, self.config.graph_weight);
            *out.0.entry(view.family).or_insert(0.0) += self.config.family_weight;
        }
        out
    }

    /// Merges a cached context with the (independently normalised) decoding
    /// state.
    pub fn step(&self, context: &SparseFeatures, partial_chain: &[String]) -> SparseFeatures {
        let mut state = SparseFeatures::default();
        self.add_chain_state(&mut state, partial_chain);
        state.normalize();
        let mut out = context.clone();
        out.merge_scaled(&state, self.config.state_weight);
        out
    }

    /// Full feature vector for one decoding step (uncached convenience).
    pub fn extract(
        &self,
        prompt: &str,
        graph: Option<&Graph>,
        partial_chain: &[String],
    ) -> SparseFeatures {
        self.step(&self.context(prompt, graph), partial_chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_graph::generators::{molecule, social_network, MoleculeParams, SocialParams};

    fn extractor() -> FeatureExtractor {
        FeatureExtractor::new(FeatureConfig::default())
    }

    #[test]
    fn deterministic_and_group_normalised() {
        let e = extractor();
        let g = molecule(&MoleculeParams::default(), 1);
        let a = e.extract("report please", Some(&g), &[]);
        let b = e.extract("report please", Some(&g), &[]);
        assert_eq!(a, b);
        // Three weighted unit-norm groups merged: total norm is bounded by
        // the sum of the group weights.
        let cfg = e.config();
        let bound =
            cfg.prompt_weight + cfg.graph_weight + cfg.state_weight + cfg.family_weight;
        let norm: f32 = a.0.values().map(|v| v * v).sum::<f32>().sqrt();
        assert!(norm > 1.0 && norm <= bound, "norm {norm}");
    }

    #[test]
    fn groups_contribute_comparable_mass() {
        let e = extractor();
        let g = social_network(&SocialParams::default(), 3);
        let ctx = e.context("question", Some(&g));
        // Groups of norm prompt_weight, graph_weight and family_weight.
        let cfg = e.config();
        let expected = (cfg.prompt_weight.powi(2)
            + cfg.graph_weight.powi(2)
            + cfg.family_weight.powi(2))
        .sqrt();
        let norm: f32 = ctx.0.values().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - expected).abs() < 0.4, "norm {norm} vs {expected}");
    }

    #[test]
    fn different_graph_families_yield_different_features() {
        let e = extractor();
        let mol = molecule(&MoleculeParams::default(), 1);
        let soc = social_network(&SocialParams::default(), 1);
        let fa = e.extract("analyse this", Some(&mol), &[]);
        let fb = e.extract("analyse this", Some(&soc), &[]);
        assert_ne!(fa, fb);
    }

    #[test]
    fn chain_state_changes_features() {
        let e = extractor();
        let f0 = e.extract("q", None, &[]);
        let f1 = e.extract("q", None, &["detect_communities".to_owned()]);
        assert_ne!(f0, f1);
    }

    #[test]
    fn no_graph_is_supported() {
        let e = extractor();
        let f = e.extract("just text", None, &[]);
        assert!(f.nnz() > 0);
    }

    #[test]
    fn multi_level_adds_features_on_clustered_graphs() {
        let cfg = FeatureConfig { multi_level: false, ..Default::default() };
        let single = FeatureExtractor::new(cfg);
        let multi = extractor();
        let g = social_network(&SocialParams::default(), 2);
        let fs = single.extract("q", Some(&g), &[]);
        let fm = multi.extract("q", Some(&g), &[]);
        assert!(fm.nnz() >= fs.nnz());
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        FeatureExtractor::new(FeatureConfig { dim: 0, ..Default::default() });
    }
}
