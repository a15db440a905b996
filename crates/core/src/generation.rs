//! Chain decoding at inference time.
//!
//! Generation iteratively extends a partial chain (paper §II-C): at each
//! step the graph-aware model scores the candidate APIs surfaced by the
//! retrieval module (plus `[EOS]`), and decoding emits the highest-scoring
//! one (greedy decoding: the same prompt always yields the same chain). Restricting
//! decoding to retrieved candidates is what keeps the prediction space small
//! — the role §II-A assigns to API retrieval, "critical for performance".

use crate::graph_aware::GraphAwareLm;
use crate::retrieval::ApiRetriever;
use chatgraph_apis::{ApiCategory, ApiChain, ApiRegistry};
use chatgraph_graph::Graph;

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
    /// Greedy decoding restricted to `candidates`, with static-analysis
    /// pruning: before each step, the candidate set is filtered through
    /// [`chatgraph_apis::analysis::can_extend`], so extensions that would
    /// introduce a type-flow error (analyzer codes CG003/CG004) are never
    /// scored, and the argmax over what remains is emitted. `[EOS]` always
    /// remains available, so pruning can only end chains early, never
    /// derail them.
    pub fn generate_greedy_checked(
        &self,
        lm: &GraphAwareLm,
        registry: &ApiRegistry,
        prompt: &str,
        graph: Option<&Graph>,
        candidates: &[String],
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
            let vocab = lm.model.vocab();
            let token = lm.model.top_k(&x, &allowed, 1).first().map_or(vocab.eos(), |&(t, _)| t);
            if token == vocab.eos() || token == vocab.bos() {
                break;
            }
            let Some(name) = vocab.token(token) else {
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

    /// A model trained on the empty-ish context to emit `chain` step by
    /// step, then `[EOS]`.
    fn lm_trained(chain: &[&str]) -> GraphAwareLm {
        let reg = registry::standard();
        let mut lm = GraphAwareLm::new(&reg, &ChatGraphConfig::default());
        let ctx = lm.context("question", None);
        let eos = lm.model.vocab().eos();
        let targets: Vec<u32> = chain
            .iter()
            .map(|api| lm.model.vocab().id(api).unwrap())
            .chain([eos])
            .collect();
        for _ in 0..60 {
            for (i, &target) in targets.iter().enumerate() {
                let prefix: Vec<String> = chain[..i].iter().map(|s| s.to_string()).collect();
                let x = lm.step_features(&ctx, &prefix);
                lm.model.train_step(&x, target, 0.5, 1.0);
            }
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
        let lm = lm_trained(&["node_count"]);
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
        let lm = lm_trained(&["node_count"]);
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
        // Trained never to stop: every prefix of the chain scores `node_count`
        // above `[EOS]`, so only `max_len` ends decoding.
        let lm = lm_trained(&["node_count"; 5]);
        let names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
        let gen = ChainGenerator { max_len: 3 };
        let chain = gen.generate_greedy_checked(&lm, &reg, "question", Some(&graph()), &names);
        assert_eq!(chain.api_names(), vec!["node_count"; 3]);
    }

    #[test]
    fn checked_decoding_only_emits_well_typed_chains() {
        let reg = registry::standard();
        let gen = ChainGenerator { max_len: 4 };
        let names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
        let g = graph();
        // Models trained toward ill-typed chains: a first step nothing can
        // feed (an edge list, or a graph without a session graph), and a
        // continuation the previous output cannot feed. Pruning must keep
        // every decoded chain well-typed, with and without a session graph.
        let targets: [&[&str]; 3] = [
            &["remove_edges"],
            &["node_count", "remove_edges"],
            &["node_count", "node_count", "add_edges", "generate_report"],
        ];
        for target in targets {
            let lm = lm_trained(target);
            for graph in [Some(&g), None] {
                let has_graph = graph.is_some();
                assert!(
                    ApiChain::from_names(target.iter().copied()).validate(&reg, has_graph).is_err(),
                    "{target:?} must be ill-typed for the test to prune anything"
                );
                // Unpruned, the argmax would follow the target all the way.
                let ctx = lm.context("question", graph);
                for (i, api) in target.iter().enumerate() {
                    let prefix: Vec<String> = target[..i].iter().map(|s| s.to_string()).collect();
                    let x = lm.step_features(&ctx, &prefix);
                    let best = lm.model.top_k(&x, &lm.allowed_ids(&names), 1)[0].0;
                    assert_eq!(lm.model.vocab().token(best), Some(*api), "{target:?}");
                }
                let chain = gen.generate_greedy_checked(&lm, &reg, "question", graph, &names);
                assert_ne!(chain.api_names(), target.to_vec());
                if !chain.is_empty() {
                    assert!(chain.validate(&reg, has_graph).is_ok(), "{chain}");
                }
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
