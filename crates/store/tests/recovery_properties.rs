//! Crash-matrix property tests for the durable store.
//!
//! The suite sweeps *every* byte offset of a WAL built from seeded random
//! mutation chains — truncations (torn writes) and single-bit flips
//! (media corruption) — and asserts the recovery contract:
//!
//! 1. the recovered graph is one of the graphs at committed epochs (never a
//!    half-applied step),
//! 2. recovery lands on the *greatest* fully-durable commit at or before
//!    the damage point,
//! 3. `executed ≥ replayed`: recovery never replays more records or
//!    commits than were written,
//! 4. a store that survives a checkpoint replays to the same graph as the
//!    in-memory one it mirrored.
//!
//! Recovered graphs are compared in full (`==`, slots and adjacency), not
//! only by fingerprint, so a fingerprint bug cannot mask a replay bug.

use chatgraph_graph::{AttrValue, Graph, NodeId};
use chatgraph_store::{
    graph_fp, CrashMode, CrashPoint, GraphStore, StoreOpened, PAGE_SIZE,
};
use chatgraph_support::prop::{check, Config};
use chatgraph_support::rng::{RngExt, SeedableRng, StdRng};
use chatgraph_support::{prop_assert, prop_assert_eq};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "chatgraph-store-prop-{tag}-{}-{}.cgdb",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ))
}

/// One seeded random mutation: grow, relabel, or annotate — applied
/// copy-on-write, as a session's mutation barrier does.
fn random_mutation(g: &mut Arc<Graph>, rng: &mut StdRng, round: usize) {
    let g = Arc::make_mut(g);
    let nodes: Vec<NodeId> = g.node_ids().collect();
    match rng.random_range(0u8..4) {
        0 => {
            g.add_node(format!("n{round}"));
        }
        1 if nodes.len() >= 2 => {
            let u = nodes[rng.random_range(0..nodes.len())];
            let v = nodes[rng.random_range(0..nodes.len())];
            if u != v {
                let _ = g.add_edge(u, v, format!("e{round}"));
            }
        }
        2 if !nodes.is_empty() => {
            let v = nodes[rng.random_range(0..nodes.len())];
            let _ = g.set_node_label(v, format!("relabel{round}"));
        }
        _ if !nodes.is_empty() => {
            let v = nodes[rng.random_range(0..nodes.len())];
            let _ = g.set_node_attr(v, format!("k{}", round % 3), AttrValue::Int(round as i64));
        }
        _ => {
            g.add_node(format!("n{round}"));
        }
    }
}

/// A committed-epoch marker: `(epoch, graph, durable end offset)`.
type EpochMark = (u64, Arc<Graph>, u64);

/// Builds a store at `path` from a seeded mutation chain, returning the
/// committed-epoch markers (including the base group as epoch 1) and the
/// total records written (base-group upper bound + per-commit receipts).
fn build_wal(path: &PathBuf, seed: u64, commits: usize) -> (Vec<EpochMark>, usize) {
    let _ = std::fs::remove_file(path);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::undirected();
    for i in 0..4 {
        g.add_node(format!("seed{i}"));
    }
    let store = GraphStore::create(path, &g).expect("create");
    let mut g = Arc::new(g);
    // The base group (snapshot + commit + pad) is three records; recovery
    // must never replay more than were written.
    let mut written = 3;
    let mut marks = vec![(1u64, Arc::clone(&g), store.file_bytes())];
    for round in 0..commits {
        random_mutation(&mut g, &mut rng, round);
        let r = store.commit(&g).expect("commit");
        written += r.records;
        marks.push((r.epoch, Arc::clone(&g), r.wal_end));
    }
    (marks, written)
}

/// The greatest committed epoch whose durable end fits inside `len` bytes.
fn expected_at(marks: &[EpochMark], len: u64) -> Option<&EpochMark> {
    marks.iter().filter(|(_, _, end)| *end <= len).next_back()
}

/// The byte offset just past the base group's `Commit` record. The base
/// group is padded to a page boundary, so its *durable* end (what a torn
/// write may truncate down to while keeping epoch 1) sits before the file
/// end recorded in its mark.
fn base_commit_end(image: &[u8]) -> u64 {
    use chatgraph_store::record::{next_record, WalRecord};
    let mut pos = PAGE_SIZE;
    loop {
        let framed = next_record(image, pos).expect("base group is intact");
        pos += framed.len;
        if matches!(framed.record, WalRecord::Commit { .. }) {
            return pos as u64;
        }
    }
}

/// Writes `bytes` to a fresh sibling file and opens it as a store.
fn open_mangled(
    tag: &str,
    bytes: &[u8],
) -> Result<(GraphStore, chatgraph_store::RecoveryReport), chatgraph_store::StoreError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).expect("write mangled image");
    let out = GraphStore::open(&path);
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn truncation_at_every_byte_recovers_greatest_durable_commit() {
    let path = temp_path("trunc-sweep");
    let (mut marks, written) = build_wal(&path, 0xC0FFEE, 6);
    let image = std::fs::read(&path).expect("read image");
    // Epoch 1 is durable as soon as the base group's Commit record is on
    // disk; the trailing pad to the page boundary is expendable tail.
    let page_end = marks[0].2;
    marks[0].2 = base_commit_end(&image);
    // Offsets at which recovery truncates nothing: the commit boundaries,
    // plus the base pad's end (pad records are standalone-durable).
    let durable: Vec<u64> = marks.iter().map(|(_, _, end)| *end).chain([page_end]).collect();
    let fps: Vec<u64> = marks.iter().map(|(_, g, _)| graph_fp(g)).collect();
    for len in 0..=image.len() {
        let result = open_mangled("trunc", &image[..len]);
        match expected_at(&marks, len as u64) {
            None => assert!(
                result.is_err(),
                "truncation to {len} bytes left no durable commit but open succeeded"
            ),
            Some((epoch, graph, end)) => {
                let (epoch, end) = (*epoch, *end);
                let (store, report) = result
                    .unwrap_or_else(|e| panic!("open failed at truncation {len}: {e}"));
                assert_eq!(report.epoch, epoch, "truncation to {len} bytes");
                assert_eq!(store.epoch(), epoch, "truncation to {len} bytes");
                assert_eq!(store.graph(), *graph, "truncation to {len} bytes recovered a wrong graph");
                let got = graph_fp(&store.graph());
                assert_eq!(got, graph_fp(graph), "truncation to {len} bytes: fingerprint");
                assert!(fps.contains(&got), "fingerprint outside the committed set");
                // `end` ignores standalone-durable pad bytes, so the
                // dropped tail may be shorter than `len - end`.
                assert!(report.tail_dropped <= len as u64 - end);
                assert_eq!(
                    report.tail_dropped == 0,
                    durable.contains(&(len as u64)),
                    "tail_dropped {} at truncation {len}",
                    report.tail_dropped
                );
                assert!(
                    report.records_replayed <= written,
                    "replayed {} > executed {written}",
                    report.records_replayed
                );
                assert!(report.commits_replayed <= marks.len());
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flip_at_every_wal_byte_recovers_a_committed_epoch() {
    let path = temp_path("flip-sweep");
    let (marks, written) = build_wal(&path, 0xB17F11B, 5);
    let image = std::fs::read(&path).expect("read image");
    let fps: Vec<u64> = marks.iter().map(|(_, g, _)| graph_fp(g)).collect();
    let base_end = marks[0].2;
    for byte in PAGE_SIZE..image.len() {
        let mut mangled = image.clone();
        mangled[byte] ^= 1 << (byte % 8);
        match open_mangled("flip", &mangled) {
            // A flip inside the base group can destroy the only commit.
            Err(_) => assert!(
                (byte as u64) < base_end,
                "flip at byte {byte} (past the base group) must stay recoverable"
            ),
            Ok((store, report)) => {
                let got = graph_fp(&store.graph());
                assert!(
                    fps.contains(&got),
                    "flip at byte {byte} recovered a fingerprint outside the committed set"
                );
                assert!(report.records_replayed <= written);
                if byte as u64 >= base_end {
                    // Past the base group there is no padding: a flip in
                    // commit group k+1 recovers exactly epoch k.
                    let (epoch, graph, _) = expected_at(&marks, byte as u64)
                        .expect("base group fits before byte");
                    assert_eq!(report.epoch, *epoch, "flip at byte {byte}");
                    assert_eq!(got, graph_fp(graph), "flip at byte {byte}");
                    assert_eq!(store.graph(), *graph, "flip at byte {byte}");
                }
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn armed_crash_points_recover_to_previous_epoch() {
    check(
        "armed_crash_points_recover_to_previous_epoch",
        Config::default().with_cases(48),
        |rng, size| {
            (
                rng.random_range(0u64..1 << 32),
                1 + size.min(6),
                rng.random_range(0u64..48),
                rng.random_range(0u8..9), // 8 = truncate, 0..8 = flip that bit
            )
        },
        |&(seed, commits, offset, mode)| {
            let path = temp_path("armed");
            let (marks, _) = build_wal(&path, seed, commits);
            let (last_epoch, last_graph, wal_end) = marks.last().expect("non-empty");
            let (last_epoch, wal_end) = (*last_epoch, *wal_end);
            let (store, opened) =
                GraphStore::open_or_create(&path, &Graph::undirected())
                    .map_err(|e| format!("reopen: {e}"))?;
            prop_assert!(matches!(opened, StoreOpened::Recovered(_)));
            let crash_mode = if mode == 8 {
                CrashMode::Truncate
            } else {
                CrashMode::FlipBit { bit: mode }
            };
            store.arm_crash(CrashPoint { at_byte: wal_end + offset, mode: crash_mode });
            let mut g = store.graph();
            Arc::make_mut(&mut g).add_node("doomed");
            let crash = store.commit(&g);
            prop_assert!(crash.is_err(), "armed commit must report the crash");
            prop_assert!(store.is_crashed());
            // The process "died": everything after the crash point is torn.
            let (recovered, report) =
                GraphStore::open(&path).map_err(|e| format!("recovery: {e}"))?;
            prop_assert_eq!(report.epoch, last_epoch);
            prop_assert_eq!(graph_fp(&recovered.graph()), graph_fp(last_graph));
            prop_assert!(recovered.graph() == *last_graph, "recovered a different graph");
            // The store keeps working after recovery.
            let r = recovered.commit(&g).map_err(|e| format!("recommit: {e}"))?;
            prop_assert_eq!(r.epoch, last_epoch + 1);
            prop_assert_eq!(graph_fp(&recovered.graph()), graph_fp(&g));
            prop_assert!(recovered.graph() == g, "recommitted a different graph");
            let _ = std::fs::remove_file(&path);
            Ok(())
        },
    );
}

#[test]
fn reopen_after_checkpoint_matches_in_memory_graph() {
    check(
        "reopen_after_checkpoint_matches_in_memory_graph",
        Config::default().with_cases(24),
        |rng, size| (rng.random_range(0u64..1 << 32), 2 + size.min(8)),
        |&(seed, rounds)| {
            let path = temp_path("ckpt-diff");
            let _ = std::fs::remove_file(&path);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = Graph::undirected();
            g.add_node("origin");
            let store = GraphStore::create(&path, &g).map_err(|e| e.to_string())?;
            let mut g = Arc::new(g);
            for round in 0..rounds {
                random_mutation(&mut g, &mut rng, round);
                store.commit(&g).map_err(|e| e.to_string())?;
                if round == rounds / 2 {
                    store.checkpoint().map_err(|e| e.to_string())?;
                }
            }
            let epoch = store.epoch();
            drop(store);
            let (reopened, report) = GraphStore::open(&path).map_err(|e| e.to_string())?;
            prop_assert_eq!(report.epoch, epoch);
            prop_assert_eq!(report.tail_dropped, 0);
            prop_assert_eq!(graph_fp(&reopened.graph()), graph_fp(&g));
            prop_assert!(reopened.graph() == g, "reopened a different graph");
            // Post-checkpoint stores keep committing and recovering.
            random_mutation(&mut g, &mut rng, rounds);
            reopened.commit(&g).map_err(|e| e.to_string())?;
            drop(reopened);
            let (again, _) = GraphStore::open(&path).map_err(|e| e.to_string())?;
            prop_assert_eq!(graph_fp(&again.graph()), graph_fp(&g));
            prop_assert!(again.graph() == g, "reopened a different graph");
            let _ = std::fs::remove_file(&path);
            Ok(())
        },
    );
}
