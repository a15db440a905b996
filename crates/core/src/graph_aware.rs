//! The graph-aware LLM module (paper §II-B).
//!
//! Bundles the graph sequentialiser-backed feature extractor with the
//! trainable next-API model: the component that "enables the LLM to
//! comprehend graphs".

use crate::config::ChatGraphConfig;
use chatgraph_apis::ApiRegistry;
use chatgraph_graph::Graph;
use chatgraph_llm::{ApiLm, FeatureExtractor, SparseFeatures, Vocab};
use chatgraph_support::json::JsonError;

/// The graph-aware language model: extractor + scorer over the API
/// vocabulary.
#[derive(Debug, Clone)]
pub struct GraphAwareLm {
    /// Feature extraction (prompt text ⊕ sequentialised graph ⊕ chain state).
    pub extractor: FeatureExtractor,
    /// The trainable next-token model.
    pub model: ApiLm,
}

impl GraphAwareLm {
    /// Builds an untrained model whose vocabulary is the registry's API set.
    pub fn new(registry: &ApiRegistry, config: &ChatGraphConfig) -> Self {
        let mut features = config.features.clone();
        features.cover_length = config.cover.max_length;
        features.multi_level = config.cover.multi_level;
        let extractor = FeatureExtractor::new(features.clone());
        let vocab = Vocab::new(registry.names());
        let model = ApiLm::new(vocab, features.dim);
        GraphAwareLm { extractor, model }
    }

    /// Precomputes the prompt + graph context features for one question.
    pub fn context(&self, prompt: &str, graph: Option<&Graph>) -> SparseFeatures {
        self.extractor.context(prompt, graph)
    }

    /// Features for one decoding step given a cached context.
    pub fn step_features(&self, context: &SparseFeatures, partial: &[String]) -> SparseFeatures {
        self.extractor.step(context, partial)
    }

    /// Token ids (plus `[EOS]`) for a set of candidate API names; unknown
    /// names are ignored.
    pub fn allowed_ids<S: AsRef<str>>(&self, candidates: &[S]) -> Vec<u32> {
        let vocab = self.model.vocab();
        let mut ids: Vec<u32> = candidates
            .iter()
            .filter_map(|n| vocab.id(n.as_ref()))
            .collect();
        ids.push(vocab.eos());
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Serialises the finetuned model (extractor config + weights) to JSON —
    /// the offline analogue of saving a finetuned checkpoint, so a session
    /// can skip re-finetuning on startup.
    pub fn save_json(&self) -> String {
        chatgraph_support::json::to_string(&(self.extractor.clone(), self.model.clone()))
    }

    /// Restores a model saved by [`GraphAwareLm::save_json`], refusing one
    /// whose shape would make the first prediction index out of range or
    /// divide by zero: a zero dimension, an extractor dimension other than
    /// the model's, or a weight count other than tokens × dimension.
    pub fn load_json(text: &str) -> Result<Self, JsonError> {
        let (extractor, mut model): (FeatureExtractor, ApiLm) =
            chatgraph_support::json::from_str(text)?;
        model.check_shape().map_err(JsonError::msg)?;
        let dim = extractor.config().dim;
        if dim != model.dim() {
            return Err(JsonError::msg(format!(
                "extractor dim {dim} differs from model dim {}",
                model.dim()
            )));
        }
        model.reindex_vocab();
        Ok(GraphAwareLm { extractor, model })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_apis::registry;

    #[test]
    fn vocabulary_covers_registry() {
        let reg = registry::standard();
        let lm = GraphAwareLm::new(&reg, &ChatGraphConfig::default());
        assert_eq!(lm.model.vocab().len(), reg.len() + 2);
        for name in reg.names() {
            assert!(lm.model.vocab().id(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn allowed_ids_include_eos_and_skip_unknowns() {
        let reg = registry::standard();
        let lm = GraphAwareLm::new(&reg, &ChatGraphConfig::default());
        let ids = lm.allowed_ids(&["node_count", "bogus_api", "node_count"]);
        assert_eq!(ids.len(), 2); // node_count + EOS, deduped
        assert!(ids.contains(&lm.model.vocab().eos()));
    }

    #[test]
    fn feature_config_inherits_cover_settings() {
        let reg = registry::standard();
        let mut cfg = ChatGraphConfig::default();
        cfg.cover.max_length = 4;
        let lm = GraphAwareLm::new(&reg, &cfg);
        assert_eq!(lm.extractor.config().cover_length, 4);
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        use chatgraph_graph::generators::{social_network, SocialParams};
        let reg = registry::standard();
        let mut lm = GraphAwareLm::new(&reg, &ChatGraphConfig::default());
        let g = social_network(&SocialParams::default(), 1);
        let ctx = lm.context("find communities", Some(&g));
        let x = lm.step_features(&ctx, &[]);
        let target = lm.model.vocab().id("detect_communities").unwrap();
        for _ in 0..10 {
            lm.model.train_step(&x, target, 0.5, 1.0);
        }
        let loaded = GraphAwareLm::load_json(&lm.save_json()).unwrap();
        assert_eq!(loaded.model.logits(&x), lm.model.logits(&x));
        // The reindexed vocabulary still resolves names.
        assert_eq!(
            loaded.model.vocab().id("detect_communities"),
            Some(target)
        );
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(GraphAwareLm::load_json("not json").is_err());
    }

    /// Models that parse but would panic on the first `send`: too few
    /// weights (an index out of range in `ApiLm::logit`), a zero extractor
    /// dimension (a division by zero in feature hashing), and an extractor
    /// hashing into more features than the model has columns.
    #[test]
    fn load_rejects_models_of_the_wrong_shape() {
        let reg = registry::standard();
        let saved = GraphAwareLm::new(&reg, &ChatGraphConfig::default()).save_json();
        assert!(GraphAwareLm::load_json(&saved).is_ok());
        let dim = format!("\"dim\":{}", ChatGraphConfig::default().features.dim);
        let weights = saved.find("\"weights\":[").expect("weights are saved");
        let end = weights + saved[weights..].find(']').expect("weights end");
        let bad = [
            format!("{}\"weights\":[0.5{}", &saved[..weights], &saved[end..]),
            saved.replacen(&dim, "\"dim\":0", 1),
            saved.replacen(&dim, "\"dim\":8192", 1),
        ];
        for (i, text) in bad.iter().enumerate() {
            assert!(text != &saved, "case {i} edits the saved text");
            let loaded = GraphAwareLm::load_json(text);
            assert!(loaded.is_err(), "case {i} was accepted");
        }
    }
}
