//! API chain-oriented finetuning (paper §II-C).
//!
//! Two sub-modules, exactly as in the paper:
//!
//! * **Node matching-based loss** (Definition 1) — scores a candidate chain
//!   against ground truth as `GED + α·(one-to-one regulariser)`, minimised
//!   over node matchings. Implemented in `chatgraph-ged`; this module applies
//!   it as the chain-level training signal, taking the *minimum over the
//!   equivalent ground-truth chains* of a question.
//! * **Search-based prediction** — "in each iteration, an API is added. …
//!   For each API a in S, we conduct r random rollouts. In each rollout, we
//!   randomly extend `C_p + {a}` to a full chain C and the loss between C
//!   and a ground-truth API chain is used to score a. … The API having the
//!   highest score is added to `C_p`." The chains this search produces
//!   become the supervised next-token targets of SGD.
//!
//! [`FinetuneMethod`] exposes the ablations of experiment E8: drop the
//! rollouts (plain teacher forcing) or replace the matching loss with a
//! structure-blind token-overlap score.

use crate::config::ChatGraphConfig;
use crate::dataset::QaExample;
use crate::generation::{candidate_apis, ChainGenerator};
use crate::graph_aware::GraphAwareLm;
use crate::retrieval::ApiRetriever;
use chatgraph_apis::{ApiChain, ApiRegistry};
use chatgraph_ged::{min_matching_loss, CostModel};
use chatgraph_graph::Graph;
use chatgraph_llm::{train, Example, TrainReport};
use chatgraph_support::rng::{RngExt, SeedableRng};
use chatgraph_support::rng::ChaCha12Rng;
use std::collections::BTreeMap;

/// Which finetuning variant to run (E8 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinetuneMethod {
    /// Search-based prediction with rollouts, scored by the node
    /// matching-based loss (the paper's full method).
    Full,
    /// No search: teacher forcing on the first ground-truth chain
    /// (equivalent to `r = 0` and ignoring chain equivalence).
    TeacherForcing,
    /// Search-based prediction, but rollouts scored by order-blind token
    /// overlap instead of the matching loss (ablating Definition 1).
    TokenOverlap,
}

chatgraph_support::impl_json_enum!(FinetuneMethod {
    Full,
    TeacherForcing,
    TokenOverlap,
});

/// Finetuning outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneReport {
    /// Supervised next-token examples constructed.
    pub examples: usize,
    /// SGD metrics.
    pub train: TrainReport,
}

chatgraph_support::impl_json_struct!(FinetuneReport { examples, train });

/// Held-out evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Fraction of questions whose generated chain exactly matches one of
    /// the equivalent ground truths.
    pub exact_match: f64,
    /// Mean node matching-based loss of generated chains.
    pub avg_loss: f64,
    /// Per-intent `(correct, total)` breakdown.
    pub per_intent: BTreeMap<String, (usize, usize)>,
}

chatgraph_support::impl_json_struct!(EvalReport { exact_match, avg_loss, per_intent });

/// Chain-level loss of `names` against the example's equivalent truths:
/// the minimum node matching-based loss (Definition 1).
fn chain_loss(names: &[String], truth_graphs: &[Graph], alpha: f64) -> f64 {
    let Ok(g) = ApiChain::from_names(names.iter().cloned()).to_graph() else {
        return f64::INFINITY;
    };
    min_matching_loss(&g, truth_graphs, alpha, &CostModel::uniform())
        .map(|(_, l)| l.total)
        .unwrap_or(f64::INFINITY)
}

/// Order-blind token-overlap "loss" for the ablation: `1 − max Jaccard`.
fn overlap_loss(names: &[String], truths: &[ApiChain]) -> f64 {
    let set: std::collections::BTreeSet<&str> = names.iter().map(String::as_str).collect();
    let best = truths
        .iter()
        .map(|t| {
            let ts: std::collections::BTreeSet<&str> = t.api_names().into_iter().collect();
            let inter = set.intersection(&ts).count() as f64;
            let union = set.union(&ts).count() as f64;
            if union == 0.0 {
                1.0
            } else {
                inter / union
            }
        })
        .fold(0.0f64, f64::max);
    1.0 - best
}

/// Runs the search-based prediction for one question, returning the chosen
/// chain (the sequence of argmax-score APIs, ended by `[EOS]`).
#[allow(clippy::too_many_arguments)]
fn search_chain(
    example: &QaExample,
    registry: &ApiRegistry,
    candidates: &[String],
    truth_graphs: &[Graph],
    method: FinetuneMethod,
    rollouts: usize,
    max_len: usize,
    alpha: f64,
    rng: &mut ChaCha12Rng,
) -> Vec<String> {
    let score_of = |names: &[String]| -> f64 {
        match method {
            FinetuneMethod::TokenOverlap => -overlap_loss(names, &example.truths),
            _ => -chain_loss(names, truth_graphs, alpha),
        }
    };
    // Completes `prefix` with the unused tokens of `truth`, in truth order —
    // the deterministic reference-policy rollout. Purely random rollouts need
    // enormous r before one samples a correct continuation of a 5-step chain;
    // rolling out along each equivalent ground truth is the standard
    // variance-reduction and keeps the scores' argmax meaningful at small r.
    let complete_with_truth = |prefix: &[String], truth: &ApiChain| -> Vec<String> {
        let mut rollout = prefix.to_vec();
        let mut used = vec![false; prefix.len()];
        for api in truth.api_names() {
            // Truth tokens already consumed by the prefix (multiset) are
            // skipped; the rest are appended in truth order.
            match prefix.iter().enumerate().find(|(i, p)| !used[*i] && *p == api) {
                Some((i, _)) => used[i] = true,
                None if rollout.len() < max_len => rollout.push(api.to_owned()),
                None => break,
            }
        }
        rollout
    };
    let mut chain: Vec<String> = Vec::new();
    for _ in 0..max_len {
        // Score stopping here.
        let stop_score = score_of(&chain);
        let mut best: Option<(f64, &String)> = None;
        for c in candidates {
            // Static-analysis pruning: never consider an extension the chain
            // analyzer would flag as a type-flow error (CG003/CG004).
            if !chatgraph_apis::analysis::can_extend(
                registry,
                chain.last().map(String::as_str),
                c,
                true,
            ) {
                continue;
            }
            let mut prefix = chain.clone();
            prefix.push(c.clone());
            // Deterministic rollouts: stop immediately, or follow each truth.
            let mut best_rollout = score_of(&prefix);
            for truth in &example.truths {
                best_rollout = best_rollout.max(score_of(&complete_with_truth(&prefix, truth)));
            }
            // Plus r uniformly random extensions.
            for _ in 0..rollouts {
                let mut rollout = prefix.clone();
                while rollout.len() < max_len {
                    let i = rng.random_range(0..=candidates.len());
                    if i == candidates.len() {
                        break; // rollout chose [EOS]
                    }
                    rollout.push(candidates[i].clone());
                }
                best_rollout = best_rollout.max(score_of(&rollout));
            }
            let better = match best {
                None => true,
                Some((s, name)) => {
                    best_rollout > s + 1e-12
                        || (best_rollout > s - 1e-12 && c < name)
                }
            };
            if better {
                best = Some((best_rollout, c));
            }
        }
        match best {
            // Extend only when some continuation strictly beats stopping.
            Some((s, c)) if s > stop_score + 1e-12 => chain.push(c.clone()),
            _ => break,
        }
    }
    chain
}

/// Builds the supervised next-token examples for a corpus.
pub fn build_examples(
    lm: &GraphAwareLm,
    registry: &ApiRegistry,
    retriever: &ApiRetriever,
    corpus: &[QaExample],
    method: FinetuneMethod,
    config: &ChatGraphConfig,
) -> Vec<Example> {
    let cost_alpha = config.finetune.alpha;
    let mut out = Vec::new();
    let mut rng = ChaCha12Rng::seed_from_u64(config.finetune.train.seed ^ 0xf17e);
    for example in corpus {
        // Candidates: what inference will see, plus the truth tokens so the
        // search space always contains a correct chain.
        let mut candidates =
            candidate_apis(registry, retriever, &example.question, Some(&example.graph));
        for t in &example.truths {
            for api in t.api_names() {
                if !candidates.iter().any(|c| c == api) {
                    candidates.push(api.to_owned());
                }
            }
        }
        candidates.sort();
        candidates.dedup();

        let truth_graphs: Vec<Graph> =
            example.truths.iter().filter_map(|t| t.to_graph().ok()).collect();
        let target_chain: Vec<String> = match method {
            FinetuneMethod::TeacherForcing => example.truths[0]
                .api_names()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            _ => search_chain(
                example,
                registry,
                &candidates,
                &truth_graphs,
                method,
                config.finetune.rollouts,
                config.finetune.max_chain_len,
                cost_alpha,
                &mut rng,
            ),
        };

        // Teacher-force the chosen chain into next-token examples.
        let context = lm.context(&example.question, Some(&example.graph));
        let mut partial: Vec<String> = Vec::new();
        for api in &target_chain {
            if let Some(id) = lm.model.vocab().id(api) {
                out.push(Example {
                    features: lm.step_features(&context, &partial),
                    target: id,
                    weight: 1.0,
                });
            }
            partial.push(api.clone());
        }
        out.push(Example {
            features: lm.step_features(&context, &partial),
            target: lm.model.vocab().eos(),
            weight: 1.0,
        });
    }
    out
}

/// Finetunes `lm` on a corpus with the chosen method.
pub fn finetune(
    lm: &mut GraphAwareLm,
    registry: &ApiRegistry,
    retriever: &ApiRetriever,
    corpus: &[QaExample],
    method: FinetuneMethod,
    config: &ChatGraphConfig,
) -> FinetuneReport {
    let examples = build_examples(lm, registry, retriever, corpus, method, config);
    let report = train(&mut lm.model, &examples, &config.finetune.train);
    FinetuneReport {
        examples: examples.len(),
        train: report,
    }
}

/// Evaluation options (the candidate-set ablation of DESIGN.md §6.5).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {
    /// Offer the decoder the whole API vocabulary instead of the
    /// retrieval-augmented candidate set.
    pub full_vocabulary: bool,
}

/// Evaluates greedy generation on a held-out corpus.
pub fn evaluate(
    lm: &GraphAwareLm,
    registry: &ApiRegistry,
    retriever: &ApiRetriever,
    corpus: &[QaExample],
    config: &ChatGraphConfig,
) -> EvalReport {
    evaluate_opts(lm, registry, retriever, corpus, config, EvalOptions::default())
}

/// Evaluates greedy generation with explicit [`EvalOptions`].
pub fn evaluate_opts(
    lm: &GraphAwareLm,
    registry: &ApiRegistry,
    retriever: &ApiRetriever,
    corpus: &[QaExample],
    config: &ChatGraphConfig,
    opts: EvalOptions,
) -> EvalReport {
    let generator = ChainGenerator {
        max_len: config.finetune.max_chain_len,
    };
    let mut correct = 0usize;
    let mut total_loss = 0.0;
    let mut per_intent: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for example in corpus {
        let candidates = if opts.full_vocabulary {
            registry.names().iter().map(|s| s.to_string()).collect()
        } else {
            candidate_apis(registry, retriever, &example.question, Some(&example.graph))
        };
        let chain = generator.generate_greedy_checked(
            lm,
            registry,
            &example.question,
            Some(&example.graph),
            &candidates,
        );
        let names: Vec<String> = chain.api_names().into_iter().map(str::to_owned).collect();
        let hit = example
            .truths
            .iter()
            .any(|t| t.api_names() == chain.api_names());
        let truth_graphs: Vec<Graph> =
            example.truths.iter().filter_map(|t| t.to_graph().ok()).collect();
        total_loss += chain_loss(&names, &truth_graphs, config.finetune.alpha);
        let entry = per_intent.entry(example.intent.to_owned()).or_insert((0, 0));
        entry.1 += 1;
        if hit {
            entry.0 += 1;
            correct += 1;
        }
    }
    let n = corpus.len().max(1) as f64;
    EvalReport {
        exact_match: correct as f64 / n,
        avg_loss: total_loss / n,
        per_intent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_corpus, CorpusParams};
    use chatgraph_apis::registry;

    fn setup(train_size: usize) -> (GraphAwareLm, ApiRegistry, ApiRetriever, Vec<QaExample>, ChatGraphConfig) {
        let mut config = ChatGraphConfig::default();
        config.finetune.train.epochs = 12;
        config.finetune.rollouts = 2;
        let reg = registry::standard();
        let retriever = ApiRetriever::build(&reg, &config.retrieval);
        let lm = GraphAwareLm::new(&reg, &config);
        let corpus = generate_corpus(
            &CorpusParams {
                size: train_size,
                small_graphs: true,
            },
            11,
        );
        (lm, reg, retriever, corpus, config)
    }

    #[test]
    fn finetuning_beats_untrained_on_heldout() {
        let (mut lm, reg, retriever, corpus, config) = setup(160);
        let (train_set, test_set) = corpus.split_at(128);
        let before = evaluate(&lm, &reg, &retriever, test_set, &config);
        let report = finetune(&mut lm, &reg, &retriever, train_set, FinetuneMethod::Full, &config);
        assert!(report.examples >= train_set.len());
        assert!(report.train.final_accuracy > 0.5, "{report:?}");
        let after = evaluate(&lm, &reg, &retriever, test_set, &config);
        assert!(
            after.exact_match > before.exact_match,
            "before {before:?} after {after:?}"
        );
        assert!(after.avg_loss < before.avg_loss);
        assert!(after.exact_match >= 0.5, "after {after:?}");
    }

    #[test]
    fn chain_loss_zero_for_exact_truth() {
        let truths = [ApiChain::from_names(["a", "b"])];
        let graphs: Vec<Graph> = truths.iter().map(|t| t.to_graph().unwrap()).collect();
        let names = vec!["a".to_owned(), "b".to_owned()];
        assert_eq!(chain_loss(&names, &graphs, 0.5), 0.0);
        let wrong = vec!["a".to_owned()];
        assert!(chain_loss(&wrong, &graphs, 0.5) > 0.0);
    }

    #[test]
    fn overlap_loss_ignores_order() {
        let truths = vec![ApiChain::from_names(["a", "b", "c"])];
        let fwd = vec!["a".to_owned(), "b".to_owned(), "c".to_owned()];
        let rev = vec!["c".to_owned(), "b".to_owned(), "a".to_owned()];
        assert_eq!(overlap_loss(&fwd, &truths), 0.0);
        assert_eq!(overlap_loss(&rev, &truths), 0.0);
        let partial = vec!["a".to_owned()];
        assert!((overlap_loss(&partial, &truths) - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn search_recovers_truth_chain_when_reachable() {
        let (_, reg, _, corpus, config) = setup(16);
        let example = &corpus[2]; // communities intent
        let candidates: Vec<String> = example.truths[0]
            .api_names()
            .into_iter()
            .map(str::to_owned)
            .chain(["graph_stats".to_owned(), "edge_count".to_owned()])
            .collect();
        let truth_graphs: Vec<Graph> =
            example.truths.iter().map(|t| t.to_graph().unwrap()).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let found = search_chain(
            example,
            &reg,
            &candidates,
            &truth_graphs,
            FinetuneMethod::Full,
            3,
            config.finetune.max_chain_len,
            config.finetune.alpha,
            &mut rng,
        );
        let truth: Vec<String> = example.truths[0]
            .api_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        assert_eq!(found, truth);
    }

    #[test]
    fn teacher_forcing_builds_one_example_per_token_plus_eos() {
        let (lm, reg, retriever, corpus, config) = setup(8);
        let examples = build_examples(
            &lm,
            &reg,
            &retriever,
            &corpus,
            FinetuneMethod::TeacherForcing,
            &config,
        );
        let expected: usize = corpus.iter().map(|e| e.truths[0].len() + 1).sum();
        assert_eq!(examples.len(), expected);
    }

    #[test]
    fn methods_are_deterministic() {
        let (lm, reg, retriever, corpus, config) = setup(12);
        for method in [
            FinetuneMethod::Full,
            FinetuneMethod::TeacherForcing,
            FinetuneMethod::TokenOverlap,
        ] {
            let a = build_examples(&lm, &reg, &retriever, &corpus, method, &config);
            let b = build_examples(&lm, &reg, &retriever, &corpus, method, &config);
            assert_eq!(a.len(), b.len(), "{method:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.target, y.target);
                assert_eq!(x.features, y.features);
            }
        }
    }
}
