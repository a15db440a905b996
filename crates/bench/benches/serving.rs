//! Multi-tenant serving bench: a seeded open-loop workload over the
//! [`SessionServer`] shared worker pool at several pool widths, the
//! cross-session memo hit rate against standalone sessions with private
//! memos, plus a duplicate-heavy workload gating the singleflight step
//! coalescing (executed-steps/requested-steps and req/s). Writes
//! `results/BENCH_serving.json` with requests/sec, sessions/sec, p50/p95
//! chain latency (queue wait included), the solo and shared memo hit
//! rates, and the coalescing record. `--quick` runs only the coalescing
//! tier and validates the committed artifact instead of overwriting it.

use chatgraph_apis::{ApiCall, ApiChain, MemoStats, SilentMonitor};
use chatgraph_bench::{env_json, quick_mode};
use chatgraph_core::serve::{Request, ServeConfig, SessionServer};
use chatgraph_core::session::{ChatSession, SessionCore};
use chatgraph_core::ChatGraphConfig;
use chatgraph_graph::generators::{social_network, SocialParams};
use chatgraph_graph::Graph;
use chatgraph_support::json::Json;
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 8;
const ROUNDS: usize = 4;
/// Fresh-server repetitions of the cold duplicate-heavy round (coalescing
/// only matters cold — warm rounds are all memo hits).
const DEDUP_ITERS: usize = 3;
/// Pool width for the coalescing comparison (and the widest sweep level);
/// recorded in `env` so `oversubscribed` reflects what actually ran.
const MAX_POOL_WORKERS: usize = 4;

fn tenant_graph(i: usize) -> Graph {
    // Four distinct graphs across eight tenants: each graph is shared by
    // exactly two tenants, the cross-session cache-sharing case.
    social_network(
        &SocialParams {
            communities: 4,
            community_size: 30,
            p_intra: 0.3,
            p_inter: 0.02,
        },
        (i % 4) as u64 + 11,
    )
}

fn tenant_chains() -> Vec<ApiChain> {
    // Read-heavy analysis chains, no within-tenant repetition: a memo hit
    // in a single cold round can only come from another tenant.
    [
        vec![("top_pagerank", "5")],
        vec![("detect_communities", "5")],
        vec![("clustering_coefficient", "5")],
        vec![("triangle_count", "5")],
        vec![("largest_component", "5"), ("node_count", "5")],
        vec![("modularity_score", "5")],
    ]
    .into_iter()
    .map(|calls| {
        let mut chain = ApiChain::new();
        for (api, k) in calls {
            chain.push(ApiCall::new(api).with_param("k", k));
        }
        chain
    })
    .collect()
}

fn build_server(core: &Arc<SessionCore>, pool_workers: usize) -> SessionServer {
    let server = SessionServer::from_core(
        Arc::clone(core),
        ServeConfig {
            pool_workers,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    for i in 0..TENANTS {
        let t = server.open_session().expect("capacity");
        server
            .with_session(t, |s| s.set_graph(tenant_graph(i)))
            .expect("fresh tenant");
    }
    server
}

fn percentile(sorted_micros: &[u64], p: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let idx = ((sorted_micros.len() - 1) as f64 * p).round() as usize;
    sorted_micros[idx]
}

/// Submits `rounds` full workloads and drains them, returning
/// (total requests, drain seconds, sorted latencies in µs).
fn run_workload(server: &SessionServer, rounds: usize) -> (usize, f64, Vec<u64>) {
    let requests: Vec<Request> = tenant_chains().into_iter().map(Request::Execute).collect();
    let tenants = server.tenants();
    let mut latencies = Vec::new();
    let mut total = 0usize;
    let mut secs = 0.0f64;
    for _ in 0..rounds {
        for t in &tenants {
            for req in &requests {
                server.submit(*t, req.clone()).expect("queue has room");
            }
        }
        let start = Instant::now();
        let completed = server.drain();
        secs += start.elapsed().as_secs_f64();
        total += completed.len();
        for c in &completed {
            assert!(c.reply.is_ok(), "workload must serve cleanly");
            latencies.push(c.latency_micros);
        }
    }
    latencies.sort_unstable();
    (total, secs, latencies)
}

/// The solo counterpart of the server's shared-memo stats: one cold round
/// of the same workload on standalone sessions over the same core, each
/// with its own private memo, aggregated across tenants.
fn solo_memo_stats(core: &Arc<SessionCore>) -> MemoStats {
    let mut agg = MemoStats::default();
    for i in 0..TENANTS {
        let mut session = ChatSession::from_core(Arc::clone(core));
        session.set_graph(tenant_graph(i));
        for chain in tenant_chains() {
            session
                .run_chain(&chain, &mut SilentMonitor)
                .expect("workload must serve cleanly");
        }
        let s = session.memo_handle().stats();
        agg.hits += s.hits;
        agg.misses += s.misses;
        agg.coalesced += s.coalesced;
    }
    agg
}

fn memo_json(label: &str, stats: &MemoStats) -> (String, Json) {
    (
        label.to_owned(),
        Json::Object(vec![
            ("hits".to_owned(), Json::UInt(stats.hits)),
            ("misses".to_owned(), Json::UInt(stats.misses)),
            ("hit_rate".to_owned(), Json::Float(stats.hit_rate())),
        ]),
    )
}

/// The duplicate-heavy workload's graph: heavier than the sweep graphs so
/// each unique step holds its flight open long enough for duplicates from
/// other tenants to arrive while it is still in flight — the regime the
/// singleflight exists for.
fn dedup_graph() -> Graph {
    social_network(
        &SocialParams {
            communities: 8,
            community_size: 150,
            p_intra: 0.08,
            p_inter: 0.005,
        },
        11,
    )
}

/// Maximal cross-tenant duplication: every tenant holds the *same* graph,
/// so the identical per-tenant chains fingerprint to identical step keys.
fn dedup_server(core: &Arc<SessionCore>) -> SessionServer {
    let server = SessionServer::from_core(
        Arc::clone(core),
        ServeConfig {
            pool_workers: MAX_POOL_WORKERS,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    for _ in 0..TENANTS {
        let t = server.open_session().expect("capacity");
        server
            .with_session(t, |s| s.set_graph(dedup_graph()))
            .expect("fresh tenant");
    }
    server
}

/// `iters` cold duplicate-heavy rounds, each on a fresh server, returning
/// the aggregated memo stats, request count, and drain seconds.
fn run_dedup(core: &Arc<SessionCore>, iters: usize) -> (MemoStats, usize, f64) {
    let mut agg = MemoStats::default();
    let (mut total, mut secs) = (0usize, 0.0f64);
    for _ in 0..iters {
        let server = dedup_server(core);
        let (t, s, _) = run_workload(&server, 1);
        total += t;
        secs += s;
        let stats = server.memo_stats();
        agg.hits += stats.hits;
        agg.misses += stats.misses;
        agg.coalesced += stats.coalesced;
    }
    (agg, total, secs)
}

fn coalescing_json(stats: &MemoStats, total: usize, secs: f64) -> Json {
    let requested = stats.requested();
    let executed = stats.executed();
    Json::Object(vec![
        ("requested_steps".to_owned(), Json::UInt(requested)),
        ("executed_steps".to_owned(), Json::UInt(executed)),
        (
            "executed_ratio".to_owned(),
            Json::Float(executed as f64 / requested.max(1) as f64),
        ),
        ("coalesced_steps".to_owned(), Json::UInt(stats.coalesced)),
        ("memo_hits".to_owned(), Json::UInt(stats.hits)),
        ("requests".to_owned(), Json::UInt(total as u64)),
        (
            "requests_per_sec".to_owned(),
            Json::Float(total as f64 / secs.max(1e-9)),
        ),
    ])
}

/// `--quick`: prove the committed full artifact is intact without paying
/// for (or clobbering it with) the full sweep.
fn validate_committed_artifact(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed {} unreadable: {e}", path.display()));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| panic!("committed {} is not valid JSON: {e}", path.display()));
    for field in ["bench", "tenants", "memo_solo_cold", "memo_shared_cold", "levels"] {
        assert!(doc.get(field).is_some(), "artifact is missing `{field}`");
    }
    let env = doc.get("env").and_then(|e| e.as_object()).expect("artifact carries `env`");
    assert!(
        env.iter().any(|(k, _)| k == "oversubscribed"),
        "env must record the oversubscription flag"
    );
    let on = doc
        .get("coalescing")
        .and_then(|c| c.get("on"))
        .expect("artifact carries a `coalescing.on` record");
    for field in [
        "requested_steps",
        "executed_steps",
        "executed_ratio",
        "coalesced_steps",
        "requests_per_sec",
    ] {
        assert!(on.get(field).is_some(), "coalescing.on is missing `{field}`");
    }
    println!("committed {} validated: schema intact", path.display());
}

fn main() {
    let quick = quick_mode();
    // Requests are Execute-only (no LLM in the hot path), so a small
    // finetune corpus keeps the one-off bootstrap cheap.
    let (core, _) =
        SessionCore::bootstrap(ChatGraphConfig::default(), 96).expect("default config is valid");

    // Step coalescing: the duplicate-heavy workload where every tenant
    // submits identical chains over identical graphs. Executed steps are
    // the misses that actually ran (misses − coalesced).
    let iters = if quick { 1 } else { DEDUP_ITERS };
    let (on_stats, on_total, on_secs) = run_dedup(&core, iters);
    println!(
        "coalescing: {} requested steps, {} executed (ratio {:.3}), {} coalesced, {:.0} req/s",
        on_stats.requested(),
        on_stats.executed(),
        on_stats.executed() as f64 / on_stats.requested().max(1) as f64,
        on_stats.coalesced,
        on_total as f64 / on_secs.max(1e-9),
    );
    // Exactly-once makes this timing-independent: once a unique key is
    // executed, every later duplicate is a flight share or a memo hit.
    let on_ratio = on_stats.executed() as f64 / on_stats.requested().max(1) as f64;
    assert!(
        on_ratio < 0.6,
        "duplicate-heavy workload must dedup below 0.6 executed/requested, got {on_ratio:.3}"
    );
    assert!(on_stats.coalesced > 0, "concurrent duplicates must coalesce: {on_stats:?}");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("results/BENCH_serving.json");
    if quick {
        // The quick run is a smoke test of the coalescing tier; the
        // committed artifact stays the authoritative full record.
        validate_committed_artifact(&path);
        return;
    }

    // Cross-session memo measurement: one cold round, solo vs shared.
    // Solo runs the identical workload on standalone private-memo sessions.
    let solo_stats = solo_memo_stats(&core);

    let shared_cold = build_server(&core, 2);
    let (_, _, _) = run_workload(&shared_cold, 1);
    let shared_stats = shared_cold.memo_stats();
    println!(
        "cold round memo hit rate: solo {:.3} vs shared {:.3} ({} cross-session hits)",
        solo_stats.hit_rate(),
        shared_stats.hit_rate(),
        shared_stats.hits
    );

    // Sustained throughput at three pool widths, shared caches on.
    let mut levels: Vec<Json> = Vec::new();
    for pool_workers in [1usize, 2, 4] {
        let server = build_server(&core, pool_workers);
        run_workload(&server, 1); // warmup: caches hot, pool exercised
        let (total, secs, latencies) = run_workload(&server, ROUNDS);
        let requests_per_sec = total as f64 / secs.max(1e-9);
        let sessions_per_sec = (TENANTS * ROUNDS) as f64 / secs.max(1e-9);
        let p50 = percentile(&latencies, 0.50);
        let p95 = percentile(&latencies, 0.95);
        println!(
            "pool_workers={pool_workers}: {requests_per_sec:.0} req/s, \
             {sessions_per_sec:.1} sessions/s, p50 {p50}us, p95 {p95}us"
        );
        levels.push(Json::Object(vec![
            ("pool_workers".to_owned(), Json::UInt(pool_workers as u64)),
            ("requests".to_owned(), Json::UInt(total as u64)),
            ("requests_per_sec".to_owned(), Json::Float(requests_per_sec)),
            ("sessions_per_sec".to_owned(), Json::Float(sessions_per_sec)),
            ("p50_latency_micros".to_owned(), Json::UInt(p50)),
            ("p95_latency_micros".to_owned(), Json::UInt(p95)),
        ]));
    }

    let doc = Json::Object(vec![
        ("bench".to_owned(), Json::Str("serving".to_owned())),
        ("tenants".to_owned(), Json::UInt(TENANTS as u64)),
        ("rounds".to_owned(), Json::UInt(ROUNDS as u64)),
        (
            "requests_per_tenant_per_round".to_owned(),
            Json::UInt(tenant_chains().len() as u64),
        ),
        ("env".to_owned(), env_json(MAX_POOL_WORKERS)),
        memo_json("memo_solo_cold", &solo_stats),
        memo_json("memo_shared_cold", &shared_stats),
        (
            "cross_session_memo_hits".to_owned(),
            Json::UInt(shared_stats.hits),
        ),
        (
            "coalescing".to_owned(),
            Json::Object(vec![
                ("pool_workers".to_owned(), Json::UInt(MAX_POOL_WORKERS as u64)),
                ("iterations".to_owned(), Json::UInt(DEDUP_ITERS as u64)),
                ("on".to_owned(), coalescing_json(&on_stats, on_total, on_secs)),
            ]),
        ),
        ("levels".to_owned(), Json::Array(levels)),
    ]);
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}
