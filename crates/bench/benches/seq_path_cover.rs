//! Timing benches for the graph sequentialiser (experiment E5's timing
//! side): path cover as ℓ grows, super-graph contraction, and
//! `sequentialize` cold (a new graph version) and warm (the same version
//! again, served from its derived-data slot), and `cover_counts` (the token
//! and bigram counts the chat model reads, which no slot keeps, so every
//! call is cold). Writes `results/BENCH_sequencer.json` with, per
//! social-graph size, the cold and warm medians, the cold cover-count
//! median and the bytes the compact sequences keep resident.

use chatgraph_bench::{env_json, quick_mode, record_stats as record};
use chatgraph_graph::generators::{barabasi_albert, social_network, BaParams, SocialParams};
use chatgraph_sequencer::{build_supergraph, cover_counts, path_cover, sequentialize, CoverParams};
use chatgraph_support::bench::Bench;
use chatgraph_support::json::Json;
use std::hint::black_box;

fn main() {
    let mut bench = Bench::new("seq_path_cover");
    let mut group = bench.group("sequencer");
    let g = barabasi_albert(&BaParams { nodes: 200, attach: 2 }, 5);
    for l in 1..=4usize {
        let params = CoverParams { max_length: l, dedup_singletons: true };
        group.bench(&format!("path_cover_l/{l}"), || {
            black_box(path_cover(black_box(&g), &params).len());
        });
    }
    group.bench("supergraph_200", || {
        black_box(build_supergraph(black_box(&g), 3).motif_count);
    });

    // The chat model's cover: ℓ = 2 with the super-graph level.
    let params = CoverParams { max_length: 2, dedup_singletons: true };
    let sizes: &[usize] = if quick_mode() { &[100] } else { &[100, 500, 2000] };
    let mut tiers = Vec::new();
    for &n in sizes {
        let g = social_network(&SocialParams::sized(n), 7);
        let mut results: Vec<(String, Json)> = Vec::new();
        // A clone shares the version's slot; renaming it makes a new
        // version with an empty one. `clone` times that step alone, so
        // `cold` minus `clone` is the sequentialisation.
        let fresh = || {
            let mut v = g.clone();
            v.set_name("cold");
            v
        };
        let clone = group.bench(&format!("clone/{n}"), || {
            black_box(fresh());
        });
        let cold = group.bench(&format!("cold/{n}"), || {
            black_box(sequentialize(&fresh(), &params, true).base.len());
        });
        let counts = group.bench(&format!("cover_counts/{n}"), || {
            black_box(cover_counts(black_box(&g), &params, true).bigrams.len());
        });
        let seqs = sequentialize(&g, &params, true);
        let warm = group.bench(&format!("warm/{n}"), || {
            black_box(sequentialize(black_box(&g), &params, true).base.len());
        });
        record(&mut results, "clone", clone);
        record(&mut results, "cold", cold);
        record(&mut results, "warm", warm);
        record(&mut results, "cover_counts", counts);
        let ms = |d: std::time::Duration| Json::Float(d.as_secs_f64() * 1e3);
        tiers.push(Json::Object(vec![
            ("nodes".to_owned(), Json::UInt(g.node_count() as u64)),
            ("edges".to_owned(), Json::UInt(g.edge_count() as u64)),
            ("base_seqs".to_owned(), Json::UInt(seqs.base.len() as u64)),
            ("super_seqs".to_owned(), Json::UInt(seqs.multi_level.len() as u64)),
            ("distinct_seqs".to_owned(), Json::UInt(
                (seqs.base.runs().count() + seqs.multi_level.runs().count()) as u64,
            )),
            ("tokens".to_owned(), Json::UInt(seqs.token_count() as u64)),
            ("resident_bytes".to_owned(), Json::UInt(seqs.resident_bytes() as u64)),
            ("cold_ms".to_owned(), ms(cold.median.saturating_sub(clone.median))),
            ("warm_ms".to_owned(), ms(warm.median)),
            ("cover_counts_ms".to_owned(), ms(counts.median)),
            ("results".to_owned(), Json::Object(results)),
        ]));
    }

    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("sequencer".to_owned())),
        ("cover".to_owned(), Json::Str("max_length 2, dedup_singletons, multi_level".to_owned())),
        ("env".to_owned(), env_json(1)),
        ("tiers".to_owned(), Json::Array(tiers)),
    ]);
    if quick_mode() {
        return;
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("results/BENCH_sequencer.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}
