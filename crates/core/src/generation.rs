//! Chain decoding at inference time.
//!
//! Generation iteratively extends a partial chain (paper §II-C): at each
//! step the graph-aware model scores the candidate APIs surfaced by the
//! retrieval module (plus `[EOS]`), and the sampler picks one. Restricting
//! decoding to retrieved candidates is what keeps the prediction space small
//! — the role §II-A assigns to API retrieval, "critical for performance".

use crate::graph_aware::GraphAwareLm;
use crate::retrieval::ApiRetriever;
use chatgraph_apis::{ApiCategory, ApiChain, ApiRegistry};
use chatgraph_graph::Graph;
use chatgraph_llm::{Sampler, SamplingConfig};

/// Assembles the candidate API set for a prompt: the retrieval module's
/// top-k hits, the APIs of the predicted graph-type category (scenario 1:
/// "if G is a social network, social-specific APIs will be invoked"), and
/// the report sinks. Sorted and deduplicated.
pub fn candidate_apis(
    registry: &ApiRegistry,
    retriever: &ApiRetriever,
    prompt: &str,
    graph: Option<&Graph>,
) -> Vec<String> {
    let mut out: Vec<String> = retriever
        .retrieve(prompt)
        .into_iter()
        .map(|h| h.name)
        .collect();
    let mut add_category = |cat: ApiCategory| {
        out.extend(registry.by_category(cat).iter().map(|d| d.name.clone()));
    };
    if let Some(g) = graph {
        match chatgraph_apis::impls::structure::predict_type(g) {
            "social" => add_category(ApiCategory::Social),
            "molecule" => {
                add_category(ApiCategory::Molecule);
                add_category(ApiCategory::Similarity);
            }
            "knowledge" => {
                add_category(ApiCategory::Knowledge);
                add_category(ApiCategory::Edit);
            }
            _ => add_category(ApiCategory::Structure),
        }
    }
    add_category(ApiCategory::Report);
    out.sort();
    out.dedup();
    out
}

/// Decodes API chains from a trained [`GraphAwareLm`].
#[derive(Debug, Clone)]
pub struct ChainGenerator {
    /// Maximum chain length (steps before forced stop).
    pub max_len: usize,
}

impl Default for ChainGenerator {
    fn default() -> Self {
        ChainGenerator { max_len: 6 }
    }
}

impl ChainGenerator {
    /// Greedy decoding with per-step type-flow pruning (see
    /// [`ChainGenerator::generate_checked`]).
    pub fn generate_greedy_checked(
        &self,
        lm: &GraphAwareLm,
        registry: &ApiRegistry,
        prompt: &str,
        graph: Option<&Graph>,
        candidates: &[String],
    ) -> ApiChain {
        let mut sampler = Sampler::new(
            SamplingConfig {
                temperature: 0.0,
                top_k: 1,
            },
            0,
        );
        self.generate_checked(lm, registry, prompt, graph, candidates, &mut sampler)
    }

    /// Sampled decoding restricted to `candidates`, with static-analysis
    /// pruning: before each step, the candidate set is filtered through
    /// [`chatgraph_apis::analysis::can_extend`], so extensions that would
    /// introduce a type-flow error (analyzer codes CG003/CG004) are never
    /// offered to the sampler. `[EOS]` always remains available, so pruning
    /// can only end chains early, never derail them.
    pub fn generate_checked(
        &self,
        lm: &GraphAwareLm,
        registry: &ApiRegistry,
        prompt: &str,
        graph: Option<&Graph>,
        candidates: &[String],
        sampler: &mut Sampler,
    ) -> ApiChain {
        let context = lm.context(prompt, graph);
        let has_graph = graph.is_some();
        let mut names: Vec<String> = Vec::new();
        for _ in 0..self.max_len {
            let last = names.last().map(String::as_str);
            let step_candidates: Vec<&String> = candidates
                .iter()
                .filter(|c| chatgraph_apis::analysis::can_extend(registry, last, c, has_graph))
                .collect();
            let allowed = lm.allowed_ids(&step_candidates);
            let x = lm.step_features(&context, &names);
            let token = sampler.sample(&lm.model, &x, &allowed);
            if token == lm.model.vocab().eos() || token == lm.model.vocab().bos() {
                break;
            }
            let Some(name) = lm.model.vocab().token(token) else {
                break;
            };
            names.push(name.to_owned());
        }
        ApiChain::from_names(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChatGraphConfig;
    use chatgraph_apis::registry;
    use chatgraph_llm::SparseFeatures;

    fn lm_preferring(api: &str) -> GraphAwareLm {
        let reg = registry::standard();
        let mut lm = GraphAwareLm::new(&reg, &ChatGraphConfig::default());
        // Train the bias feature set (empty-ish context) to emit `api` then EOS.
        let ctx = lm.context("question", None);
        let target = lm.model.vocab().id(api).unwrap();
        let eos = lm.model.vocab().eos();
        for _ in 0..60 {
            let x0 = lm.step_features(&ctx, &[]);
            lm.model.train_step(&x0, target, 0.5, 1.0);
            let x1 = lm.step_features(&ctx, &[api.to_owned()]);
            lm.model.train_step(&x1, eos, 0.5, 1.0);
        }
        lm
    }

    /// A session graph for the Graph-input APIs the tests decode.
    fn graph() -> chatgraph_graph::Graph {
        use chatgraph_graph::generators::{social_network, SocialParams};
        social_network(&SocialParams::default(), 1)
    }

    #[test]
    fn greedy_decodes_trained_chain() {
        let lm = lm_preferring("node_count");
        let gen = ChainGenerator::default();
        let chain = gen.generate_greedy_checked(
            &lm,
            &registry::standard(),
            "question",
            Some(&graph()),
            &["node_count".to_owned()],
        );
        assert_eq!(chain.api_names(), vec!["node_count"]);
    }

    #[test]
    fn candidates_restrict_output() {
        let lm = lm_preferring("node_count");
        let gen = ChainGenerator::default();
        // node_count is not among the candidates, so it cannot be emitted.
        let chain = gen.generate_greedy_checked(
            &lm,
            &registry::standard(),
            "question",
            Some(&graph()),
            &["edge_count".to_owned(), "graph_stats".to_owned()],
        );
        for api in chain.api_names() {
            assert!(api == "edge_count" || api == "graph_stats");
        }
    }

    #[test]
    fn max_len_bounds_untrained_decoding() {
        let reg = registry::standard();
        let lm = GraphAwareLm::new(&reg, &ChatGraphConfig::default());
        let gen = ChainGenerator { max_len: 3 };
        let names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
        let mut sampler = Sampler::new(SamplingConfig { temperature: 2.0, top_k: 0 }, 5);
        let chain = gen.generate_checked(&lm, &reg, "anything", Some(&graph()), &names, &mut sampler);
        assert!(chain.len() <= 3);
    }

    #[test]
    fn checked_decoding_only_emits_well_typed_chains() {
        let reg = registry::standard();
        let lm = GraphAwareLm::new(&reg, &ChatGraphConfig::default());
        let gen = ChainGenerator { max_len: 4 };
        let names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
        let g = graph();
        for seed in 0..10 {
            // An untrained model at high temperature emits near-uniform noise;
            // pruning must still keep every non-empty chain well-typed, both
            // with and without a session graph.
            let mut sampler = Sampler::new(SamplingConfig { temperature: 2.0, top_k: 0 }, seed);
            let chain = gen.generate_checked(&lm, &reg, "anything", Some(&g), &names, &mut sampler);
            if !chain.is_empty() {
                assert!(chain.validate(&reg, true).is_ok(), "{chain}");
            }
            let mut sampler = Sampler::new(SamplingConfig { temperature: 2.0, top_k: 0 }, seed);
            let chain = gen.generate_checked(&lm, &reg, "anything", None, &names, &mut sampler);
            if !chain.is_empty() {
                assert!(chain.validate(&reg, false).is_ok(), "{chain}");
            }
        }
    }

    #[test]
    fn untrained_model_uniform_logits_are_finite() {
        let reg = registry::standard();
        let lm = GraphAwareLm::new(&reg, &ChatGraphConfig::default());
        let x = SparseFeatures([(1u32, 1.0f32)].into_iter().collect());
        for l in lm.model.logits(&x) {
            assert!(l.is_finite());
        }
    }
}

#[cfg(test)]
mod candidate_tests {
    use super::*;
    use crate::config::ChatGraphConfig;
    use crate::retrieval::ApiRetriever;
    use chatgraph_apis::registry;
    use chatgraph_graph::generators::{
        knowledge_graph, molecule, social_network, KgParams, MoleculeParams, SocialParams,
    };

    fn setup() -> (chatgraph_apis::ApiRegistry, ApiRetriever) {
        let reg = registry::standard();
        let retriever = ApiRetriever::build(&reg, &ChatGraphConfig::default().retrieval);
        (reg, retriever)
    }

    #[test]
    fn candidates_track_graph_family() {
        let (reg, retriever) = setup();
        let social = social_network(&SocialParams::default(), 1);
        let cands = candidate_apis(&reg, &retriever, "analyse this", Some(&social));
        assert!(cands.iter().any(|c| c == "detect_communities"));
        assert!(cands.iter().any(|c| c == "generate_report"));

        let mol = molecule(&MoleculeParams::default(), 1);
        let cands = candidate_apis(&reg, &retriever, "analyse this", Some(&mol));
        assert!(cands.iter().any(|c| c == "predict_toxicity"));
        assert!(cands.iter().any(|c| c == "similarity_search"));

        let kg = knowledge_graph(&KgParams::default(), 1);
        let cands = candidate_apis(&reg, &retriever, "analyse this", Some(&kg));
        assert!(cands.iter().any(|c| c == "detect_incorrect_edges"));
        assert!(cands.iter().any(|c| c == "remove_edges"));
    }

    #[test]
    fn candidates_without_graph_still_include_retrieved_and_report() {
        let (reg, retriever) = setup();
        let cands = candidate_apis(&reg, &retriever, "how many nodes are there", None);
        assert!(cands.iter().any(|c| c == "generate_report"));
        assert!(!cands.is_empty());
        // Sorted and deduplicated.
        let mut sorted = cands.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(cands, sorted);
    }
}
