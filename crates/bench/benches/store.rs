//! Durable store bench: WAL append throughput, recovery time as a
//! function of WAL length, and checkpoint/compaction cost. Also measures
//! the unarmed crash-injection check against a plain append to show the
//! injection hook is free on the hot path. Writes
//! `results/BENCH_store.json`. `--quick` runs a small smoke tier and
//! validates the committed artifact instead of overwriting it.

use chatgraph_bench::{env_json, quick_mode};
use chatgraph_graph::generators::{social_network, SocialParams};
use chatgraph_graph::Graph;
use chatgraph_store::{CrashMode, CrashPoint, GraphStore};
use chatgraph_support::json::Json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Commits per append-throughput run.
const APPEND_COMMITS: usize = 256;
/// WAL lengths (in commits) for the recovery-time curve.
const RECOVERY_LEVELS: [usize; 4] = [16, 64, 256, 1024];
/// Repetitions per recovery measurement (medians reported).
const RECOVERY_REPS: usize = 5;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chatgraph-store-bench-{tag}-{}.cgdb", std::process::id()))
}

fn seed_graph() -> Arc<Graph> {
    Arc::new(social_network(&SocialParams::default(), 11))
}

/// One synthetic mutation per commit: a fresh node wired to an existing
/// one, applied copy-on-write as a session's mutation barrier does (the
/// store holds the committed `Arc`, so this copies the graph).
fn mutate(g: &mut Arc<Graph>, round: usize) {
    let g = Arc::make_mut(g);
    let first = g.node_ids().next();
    let v = g.add_node(format!("n{round}"));
    if let Some(u) = first {
        let _ = g.add_edge(u, v, "follows");
    }
}

/// Builds a store with `commits` commits, returning `(path, wal_bytes)`.
/// The caller removes the file.
fn build_wal(tag: &str, commits: usize) -> (PathBuf, u64) {
    let path = temp_path(tag);
    let _ = std::fs::remove_file(&path);
    let mut g = seed_graph();
    let store = GraphStore::create(&path, &g).expect("create");
    for round in 0..commits {
        mutate(&mut g, round);
        store.commit(&g).expect("commit");
    }
    (path, store.wal_bytes())
}

/// Commits `commits` mutations, returning `(secs, bytes_appended)`.
/// `armed` installs a crash point that can never fire, to price the
/// injection check on the hot path.
fn time_appends(tag: &str, commits: usize, armed: bool) -> (f64, u64) {
    let path = temp_path(tag);
    let _ = std::fs::remove_file(&path);
    let mut g = seed_graph();
    let store = GraphStore::create(&path, &g).expect("create");
    if armed {
        store.arm_crash(CrashPoint { at_byte: u64::MAX, mode: CrashMode::Truncate });
    }
    let start = Instant::now();
    let mut bytes = 0u64;
    for round in 0..commits {
        mutate(&mut g, round);
        bytes += store.commit(&g).expect("commit").bytes;
    }
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    (secs, bytes)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn append_json(label: &str, commits: usize, secs: f64, bytes: u64) -> (String, Json) {
    (
        label.to_owned(),
        Json::Object(vec![
            ("commits".to_owned(), Json::UInt(commits as u64)),
            ("seconds".to_owned(), Json::Float(secs)),
            ("commits_per_sec".to_owned(), Json::Float(commits as f64 / secs.max(1e-9))),
            ("bytes_appended".to_owned(), Json::UInt(bytes)),
            (
                "append_mb_per_sec".to_owned(),
                Json::Float(bytes as f64 / 1e6 / secs.max(1e-9)),
            ),
        ]),
    )
}

fn validate_committed_artifact(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed {} unreadable: {e}", path.display()));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| panic!("committed {} is not valid JSON: {e}", path.display()));
    for field in ["bench", "append", "append_armed_noop", "recovery", "checkpoint", "env"] {
        assert!(doc.get(field).is_some(), "artifact is missing `{field}`");
    }
    let recovery = doc
        .get("recovery")
        .and_then(|r| r.as_array())
        .expect("artifact carries a `recovery` array");
    assert!(!recovery.is_empty(), "recovery curve is empty");
    for level in recovery {
        for field in ["commits", "wal_bytes", "recovery_ms", "replay_mb_per_sec"] {
            assert!(level.get(field).is_some(), "recovery level is missing `{field}`");
        }
    }
    println!("committed {} validated: schema intact", path.display());
}

fn main() {
    let quick = quick_mode();
    let commits = if quick { 32 } else { APPEND_COMMITS };

    // Append throughput, plain and with a never-firing crash point armed:
    // the difference prices the injection check on the unarmed path.
    let (plain_secs, plain_bytes) = time_appends("append", commits, false);
    let (armed_secs, armed_bytes) = time_appends("append-armed", commits, true);
    println!(
        "append: {:.0} commits/s plain, {:.0} commits/s with a dormant crash point \
         ({:.1} MB/s WAL)",
        commits as f64 / plain_secs.max(1e-9),
        commits as f64 / armed_secs.max(1e-9),
        plain_bytes as f64 / 1e6 / plain_secs.max(1e-9),
    );

    // Recovery time as a function of WAL length.
    let levels = if quick { &RECOVERY_LEVELS[..2] } else { &RECOVERY_LEVELS[..] };
    let mut recovery = Vec::new();
    for &n in levels {
        let (path, wal_bytes) = build_wal(&format!("recover-{n}"), n);
        let mut times = Vec::new();
        let mut replayed = 0usize;
        for _ in 0..RECOVERY_REPS {
            let start = Instant::now();
            let (_, report) = GraphStore::open(&path).expect("open");
            times.push(start.elapsed().as_secs_f64());
            replayed = report.records_replayed;
        }
        let secs = median(times);
        println!(
            "recovery: {n} commits ({wal_bytes} WAL bytes, {replayed} records) in {:.1}ms",
            secs * 1e3
        );
        recovery.push(Json::Object(vec![
            ("commits".to_owned(), Json::UInt(n as u64)),
            ("wal_bytes".to_owned(), Json::UInt(wal_bytes)),
            ("records_replayed".to_owned(), Json::UInt(replayed as u64)),
            ("recovery_ms".to_owned(), Json::Float(secs * 1e3)),
            (
                "replay_mb_per_sec".to_owned(),
                Json::Float(wal_bytes as f64 / 1e6 / secs.max(1e-9)),
            ),
        ]));
        let _ = std::fs::remove_file(&path);
    }

    // Checkpoint cost at the largest level: compaction time and the WAL
    // bytes it reclaims.
    let ckpt_commits = *levels.last().expect("levels are non-empty");
    let (path, wal_bytes) = build_wal("checkpoint", ckpt_commits);
    let (store, _) = GraphStore::open(&path).expect("open");
    let start = Instant::now();
    let report = store.checkpoint().expect("checkpoint");
    let ckpt_secs = start.elapsed().as_secs_f64();
    println!(
        "checkpoint: {ckpt_commits} commits compacted in {:.1}ms, {} of {wal_bytes} WAL \
         bytes reclaimed, file now {} bytes",
        ckpt_secs * 1e3,
        report.reclaimed,
        report.file_bytes
    );
    let checkpoint = Json::Object(vec![
        ("commits".to_owned(), Json::UInt(ckpt_commits as u64)),
        ("wal_bytes_before".to_owned(), Json::UInt(wal_bytes)),
        ("checkpoint_ms".to_owned(), Json::Float(ckpt_secs * 1e3)),
        ("reclaimed_bytes".to_owned(), Json::UInt(report.reclaimed)),
        ("file_bytes_after".to_owned(), Json::UInt(report.file_bytes)),
    ]);
    let _ = std::fs::remove_file(&path);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("results/BENCH_store.json");
    if quick {
        validate_committed_artifact(&out);
        return;
    }

    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("store".to_owned())),
        ("env".to_owned(), env_json(1)),
        append_json("append", commits, plain_secs, plain_bytes),
        append_json("append_armed_noop", commits, armed_secs, armed_bytes),
        (
            "armed_noop_overhead_ratio".to_owned(),
            Json::Float(armed_secs / plain_secs.max(1e-9)),
        ),
        ("recovery".to_owned(), Json::Array(recovery)),
        ("checkpoint".to_owned(), checkpoint),
    ]);
    match std::fs::write(&out, doc.render()) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => println!("could not write {}: {e}", out.display()),
    }
}
