//! Timing benches for the GED substrate (node matching-based loss,
//! similarity search). Writes `results/BENCH_ged.json`: the Hungarian,
//! `approx_ged`, exact-GED and matching-loss tiers, plus `rank_database`
//! over a 30-molecule database with 24-atom queries, cold (no graph has a
//! GED profile yet) and warm (the database's profiles are built, the query
//! is a new version each time, as on a chat turn about a new graph).
//! `--quick` runs the small tiers and checks that the committed artifact
//! still parses with its schema.

use chatgraph_apis::impls::similarity::rank_database;
use chatgraph_bench::{env_json, quick_mode, record_stats as record};
use chatgraph_ged::{approx_ged, exact_ged, hungarian, matching_loss, CostModel};
use chatgraph_graph::generators::{molecule, molecule_database, MoleculeParams};
use chatgraph_graph::{Graph, GraphBuilder};
use chatgraph_support::bench::Bench;
use chatgraph_support::json::Json;
use chatgraph_support::rng::{RngExt, SeedableRng};
use std::hint::black_box;

/// A random `n × n` matrix, flat and row-major.
fn random_cost_matrix(n: usize) -> Vec<f64> {
    let mut rng = chatgraph_support::rng::ChaCha12Rng::seed_from_u64(9);
    (0..n * n).map(|_| rng.random_range(0.0..10.0)).collect()
}

fn chain_graph(len: usize) -> Graph {
    let mut b = GraphBuilder::directed();
    for i in 0..len {
        b = b.node(format!("s{i}"), format!("api{}", i % 5));
    }
    for i in 1..len {
        b = b.edge(format!("s{}", i - 1), format!("s{i}"), "next");
    }
    b.build()
}

/// A new version of `g` with the same content: renaming clears the
/// derived-data slot, so its GED profile is unbuilt.
fn fresh(g: &Graph) -> Graph {
    let mut v = g.clone();
    v.set_name(format!("{}-cold", g.name()));
    v
}

fn validate_committed_artifact(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed {} unreadable: {e}", path.display()));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| panic!("committed {} is not valid JSON: {e}", path.display()));
    for field in ["bench", "env", "results", "rank_database"] {
        assert!(doc.get(field).is_some(), "artifact is missing `{field}`");
    }
    let rank = doc.get("rank_database").expect("checked above");
    for field in ["database", "query_atoms", "cold_ms", "warm_ms", "results"] {
        assert!(rank.get(field).is_some(), "rank_database is missing `{field}`");
    }
    println!("committed {} validated: schema intact", path.display());
}

fn main() {
    let quick = quick_mode();
    let mut bench = Bench::new("ged");
    let mut group = bench.group("ged");
    let mut results: Vec<(String, Json)> = Vec::new();
    let sizes: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32, 64] };
    for &n in sizes {
        let m = random_cost_matrix(n);
        let label = format!("hungarian/{n}");
        let stats = group.bench(&label, || {
            black_box(hungarian(black_box(&m), n));
        });
        record(&mut results, &label, stats);
    }
    let cost = CostModel::uniform();
    let atoms_tiers: &[usize] = if quick { &[8] } else { &[8, 16, 32] };
    for &atoms in atoms_tiers {
        let g1 = molecule(&MoleculeParams { atoms, rings: 2, double_bond_prob: 0.15 }, 1);
        let g2 = molecule(&MoleculeParams { atoms, rings: 2, double_bond_prob: 0.15 }, 2);
        let label = format!("approx_ged_molecule/{atoms}");
        let stats = group.bench(&label, || {
            black_box(approx_ged(black_box(&g1), black_box(&g2), &cost).upper_bound);
        });
        record(&mut results, &label, stats);
    }
    {
        let g1 = molecule(&MoleculeParams { atoms: 7, rings: 1, double_bond_prob: 0.15 }, 1);
        let g2 = molecule(&MoleculeParams { atoms: 7, rings: 1, double_bond_prob: 0.15 }, 2);
        let stats = group.bench("exact_ged_molecule_7", || {
            black_box(exact_ged(black_box(&g1), black_box(&g2), &cost));
        });
        record(&mut results, "exact_ged_molecule_7", stats);
    }
    for &len in &[3usize, 5, 8] {
        let c1 = chain_graph(len);
        let c2 = chain_graph(len + 1);
        let label = format!("matching_loss_chain/{len}");
        let stats = group.bench(&label, || {
            black_box(matching_loss(black_box(&c1), black_box(&c2), 0.5, &cost).total);
        });
        record(&mut results, &label, stats);
    }

    // Similarity search as the `similarity_search` API runs it.
    let params = MoleculeParams::default();
    let database = molecule_database(if quick { 5 } else { 30 }, &params, 77);
    let query = molecule(&params, 9001);
    let mut rank_results: Vec<(String, Json)> = Vec::new();
    // `clone` times making the new versions alone, so `cold` minus `clone`
    // is the ranking with every profile built on the way.
    let clone = group.bench("rank_database/clone", || {
        black_box((fresh(&query), database.iter().map(fresh).collect::<Vec<_>>()));
    });
    let cold = group.bench("rank_database/cold", || {
        let db: Vec<Graph> = database.iter().map(fresh).collect();
        black_box(rank_database(&fresh(&query), &db));
    });
    rank_database(&query, &database);
    let query_clone = group.bench("rank_database/query_clone", || {
        black_box(fresh(&query));
    });
    let warm = group.bench("rank_database/warm", || {
        black_box(rank_database(&fresh(&query), &database));
    });
    record(&mut rank_results, "clone", clone);
    record(&mut rank_results, "cold", cold);
    record(&mut rank_results, "query_clone", query_clone);
    record(&mut rank_results, "warm", warm);
    let ms = |d: std::time::Duration| Json::Float(d.as_secs_f64() * 1e3);
    let rank = Json::Object(vec![
        ("database".to_owned(), Json::UInt(database.len() as u64)),
        ("query_atoms".to_owned(), Json::UInt(query.node_count() as u64)),
        ("cold_ms".to_owned(), ms(cold.median.saturating_sub(clone.median))),
        ("warm_ms".to_owned(), ms(warm.median.saturating_sub(query_clone.median))),
        ("results".to_owned(), Json::Object(rank_results)),
    ]);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("results/BENCH_ged.json");
    if quick {
        validate_committed_artifact(&path);
        return;
    }
    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("ged".to_owned())),
        ("env".to_owned(), env_json(1)),
        ("results".to_owned(), Json::Object(results)),
        ("rank_database".to_owned(), rank),
    ]);
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}
