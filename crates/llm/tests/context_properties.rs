//! Properties of the per-version chat view: the graph share of
//! `FeatureExtractor::context` is computed once per graph version, and the
//! cached value must equal a fresh computation of the old per-token
//! algorithm after every kind of edit.

use chatgraph_embed::hashing::fnv1a;
use chatgraph_graph::generators::{
    knowledge_graph, molecule, social_network, KgParams, MoleculeParams, SocialParams,
};
use chatgraph_graph::{io, EdgeId, Graph, NodeId};
use chatgraph_llm::features::family_hint;
use chatgraph_llm::{FeatureConfig, FeatureExtractor, SparseFeatures};
use chatgraph_sequencer::{sequentialize, CoverParams};
use chatgraph_support::prop::{check, Config};
use chatgraph_support::rng::{RngExt, StdRng};
use chatgraph_support::{prop_assert, prop_assert_eq};
use std::sync::{Arc, Barrier};

const PROMPT: &str = "find the communities of G";

fn family_graph(family: u8, size: usize, seed: u64) -> Graph {
    match family {
        0 => molecule(
            &MoleculeParams {
                atoms: size,
                ..Default::default()
            },
            seed,
        ),
        1 => social_network(&SocialParams::sized(size), seed),
        _ => knowledge_graph(&KgParams::sized(size), seed),
    }
}

/// The family hint as a label histogram computed it, before the label
/// summary replaced it.
fn reference_family_hint(g: &Graph) -> &'static str {
    const ELEMENTS: &[&str] = &["C", "N", "O", "S", "P", "H", "F", "Cl", "Br"];
    let hist = g.label_histogram();
    if hist.is_empty() {
        return "empty";
    }
    if g.is_directed() {
        return "directed";
    }
    if hist.iter().all(|(l, _)| ELEMENTS.contains(&l.as_str())) {
        return "molecule";
    }
    if hist.iter().any(|(l, _)| l == "Person" || l == "User") {
        return "social";
    }
    "generic"
}

/// The context as the per-token walk computed it: every token, bigram and
/// super token formatted and hashed one by one, on a freshly decoded copy
/// of `g` (so nothing is read from `g`'s derived slot).
fn reference_context(cfg: &FeatureConfig, prompt: &str, g: &Graph) -> SparseFeatures {
    let fresh = io::from_json(&io::to_json(g)).unwrap();
    let dim = cfg.dim;
    let bump = |f: &mut SparseFeatures, s: String| {
        *f.0.entry((fnv1a(s.as_bytes()) % dim as u64) as u32)
            .or_insert(0.0) += 1.0;
    };
    let params = CoverParams {
        max_length: cfg.cover_length,
        dedup_singletons: true,
    };
    let seqs = sequentialize(&fresh, &params, cfg.multi_level);
    let mut group = SparseFeatures::default();
    for seq in seqs.resolve(&seqs.base) {
        for t in &seq[1..] {
            bump(&mut group, format!("g:{t}"));
        }
        for w in seq[1..].windows(2) {
            bump(&mut group, format!("g2:{}_{}", w[0], w[1]));
        }
    }
    for seq in seqs.resolve(&seqs.multi_level) {
        for t in &seq[1..] {
            bump(&mut group, format!("s:{t}"));
        }
    }
    group.normalize();
    let mut out = FeatureExtractor::new(cfg.clone()).context(prompt, None);
    out.merge_scaled(&group, cfg.graph_weight);
    let mut hint = SparseFeatures::default();
    bump(&mut hint, format!("fam:{}", reference_family_hint(&fresh)));
    out.merge_scaled(&hint, cfg.family_weight);
    out
}

/// Bit-for-bit equality of two feature vectors.
fn same_bits(a: &SparseFeatures, b: &SparseFeatures) -> bool {
    a.0.len() == b.0.len()
        && a.0
            .iter()
            .zip(&b.0)
            .all(|((i, x), (j, y))| i == j && x.to_bits() == y.to_bits())
}

/// Applies one edit of kind `kind % 9` at a position picked by `r`;
/// returns whether the graph changed.
fn edit(g: &mut Graph, kind: u8, r: u64) -> bool {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let edges: Vec<EdgeId> = g.edge_ids().collect();
    let node = |k: u64| nodes[(k % nodes.len().max(1) as u64) as usize];
    let edge = |k: u64| edges[(k % edges.len().max(1) as u64) as usize];
    let labels = [
        "Person", "User", "C", "O", "City", "friend", "-", "works_at",
    ];
    let label = labels[(r % labels.len() as u64) as usize];
    match kind % 9 {
        0 => {
            g.add_node(label);
            true
        }
        1 if nodes.len() >= 2 => g.add_edge(node(r), node(r / 7 + 1), label).is_ok(),
        2 if !nodes.is_empty() => g.remove_node(node(r)).is_ok(),
        3 if !edges.is_empty() => g.remove_edge(edge(r)).is_ok(),
        4 if !nodes.is_empty() => g.set_node_label(node(r), label).is_ok(),
        5 if !edges.is_empty() => g.set_edge_label(edge(r), label).is_ok(),
        6 if !nodes.is_empty() => g.set_node_attr(node(r), "score", r as i64).is_ok(),
        7 if !edges.is_empty() => g.set_edge_attr(edge(r), "weight", r as f64).is_ok(),
        8 => {
            g.set_name(format!("G{r}"));
            true
        }
        _ => false,
    }
}

type EditCase = (u8, usize, u64, Vec<(u8, u64)>);

fn edit_case(rng: &mut StdRng, size: usize) -> EditCase {
    let edits = (0..rng.random_range(1..=12))
        .map(|_| (rng.random_range(0u8..9), rng.random_range(0u64..10_000)))
        .collect();
    (
        rng.random_range(0u8..3),
        rng.random_range(4..=4 + 2 * size),
        rng.random_range(0u64..1000),
        edits,
    )
}

/// The cached context equals a fresh, uncached one after every mutation
/// kind: node and edge add/remove, node and edge relabel, attribute set,
/// rename. Each edited version is asked twice, so the second answer comes
/// from the slot.
#[test]
fn cached_context_equals_a_fresh_one_after_every_edit() {
    let cfg = FeatureConfig::default();
    let extractor = FeatureExtractor::new(cfg.clone());
    check(
        "cached_context_equals_a_fresh_one_after_every_edit",
        Config::default().with_cases(32),
        edit_case,
        |(family, size, seed, edits)| {
            let mut g = family_graph(*family, *size, *seed);
            prop_assert!(same_bits(
                &extractor.context(PROMPT, Some(&g)),
                &reference_context(&cfg, PROMPT, &g)
            ));
            for &(kind, r) in edits {
                edit(&mut g, kind, r);
                let first = extractor.context(PROMPT, Some(&g));
                let cached = extractor.context(PROMPT, Some(&g));
                let fresh = reference_context(&cfg, PROMPT, &g);
                prop_assert!(
                    same_bits(&first, &fresh),
                    "edit kind {kind} r {r}: context differs"
                );
                prop_assert!(
                    same_bits(&cached, &fresh),
                    "edit kind {kind} r {r}: cached differs"
                );
                prop_assert_eq!(family_hint(&g), reference_family_hint(&g));
            }
            Ok(())
        },
    );
}

/// Twin clones share the version's slot until one is edited; the edited
/// twin sees fresh data and the other keeps what was computed.
#[test]
fn twins_share_the_slot_until_one_is_edited() {
    let cfg = FeatureConfig::default();
    let extractor = FeatureExtractor::new(cfg.clone());
    let params = CoverParams {
        max_length: cfg.cover_length,
        dedup_singletons: true,
    };
    check(
        "twins_share_the_slot_until_one_is_edited",
        Config::default().with_cases(32),
        edit_case,
        |(family, size, seed, edits)| {
            let g = family_graph(*family, *size, *seed);
            let mut twin = g.clone();
            let before = extractor.context(PROMPT, Some(&g));
            let seqs = sequentialize(&g, &params, cfg.multi_level);
            prop_assert!(Arc::ptr_eq(
                &seqs,
                &sequentialize(&twin, &params, cfg.multi_level)
            ));
            let mut changed = false;
            for &(kind, r) in edits {
                changed |= edit(&mut twin, kind, r);
            }
            if changed {
                prop_assert!(!Arc::ptr_eq(
                    &seqs,
                    &sequentialize(&twin, &params, cfg.multi_level)
                ));
            }
            prop_assert!(same_bits(
                &extractor.context(PROMPT, Some(&twin)),
                &reference_context(&cfg, PROMPT, &twin)
            ));
            prop_assert!(same_bits(&extractor.context(PROMPT, Some(&g)), &before));
            prop_assert!(Arc::ptr_eq(
                &seqs,
                &sequentialize(&g, &params, cfg.multi_level)
            ));
            Ok(())
        },
    );
}

/// Two threads asking for the context of twin clones at once get
/// identical answers, equal to a fresh computation, and neither blocks:
/// the view derives from the sequences in the same slot, so the slot must
/// hold no lock while either is computed.
#[test]
fn concurrent_twins_agree_without_deadlock() {
    let cfg = FeatureConfig::default();
    let extractor = FeatureExtractor::new(cfg.clone());
    for seed in 0..12u64 {
        let g = family_graph((seed % 3) as u8, 60, seed);
        let twin = g.clone();
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                barrier.wait();
                extractor.context(PROMPT, Some(&g))
            });
            let b = s.spawn(|| {
                barrier.wait();
                extractor.context(PROMPT, Some(&twin))
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(same_bits(&a, &b), "seed {seed}: twins disagree");
        assert!(
            same_bits(&a, &reference_context(&cfg, PROMPT, &g)),
            "seed {seed}"
        );
    }
}
