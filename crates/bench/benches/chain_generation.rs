//! Timing benches for the chain-generation pipeline: feature extraction,
//! search-based prediction, and greedy (type-pruned) decoding.

use chatgraph_apis::registry;
use chatgraph_core::finetune::build_examples;
use chatgraph_core::generation::candidate_apis;
use chatgraph_core::{
    generate_corpus, ApiRetriever, ChainGenerator, ChatGraphConfig, CorpusParams, FinetuneMethod,
    GraphAwareLm,
};
use chatgraph_support::bench::Bench;
use std::hint::black_box;

fn main() {
    let config = ChatGraphConfig::default();
    let reg = registry::standard();
    let retriever = ApiRetriever::build(&reg, &config.retrieval);
    let lm = GraphAwareLm::new(&reg, &config);
    let corpus = generate_corpus(&CorpusParams { size: 16, small_graphs: true }, 3);
    let one = &corpus[..1];

    let mut bench = Bench::new("chain_generation");
    let mut group = bench.group("chain_generation");
    group.bench("context_features", || {
        black_box(lm.context(black_box(&corpus[0].question), Some(&corpus[0].graph)));
    });
    group.bench("search_based_prediction_one_question", || {
        black_box(
            build_examples(
                black_box(&lm),
                &reg,
                &retriever,
                one,
                FinetuneMethod::Full,
                &config,
            )
            .len(),
        );
    });
    let gen = ChainGenerator::default();
    let cands = candidate_apis(&reg, &retriever, &corpus[0].question, Some(&corpus[0].graph));
    group.bench("greedy_decode", || {
        black_box(
            gen.generate_greedy_checked(
                &lm,
                &reg,
                &corpus[0].question,
                Some(&corpus[0].graph),
                &cands,
            )
            .len(),
        );
    });
}
