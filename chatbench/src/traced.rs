//! The traced run: the same closed loop, with the program's own request
//! path timed in spans.
//!
//! `POOL_WORKERS` threads, like the server's drain pool, claim the round's
//! requests in the server's claim order and serve each under its tenant's
//! session lock (`SessionServer::with_session`) as the server does:
//! `ChatSession::send`, then `ChatSession::run_chain` on a non-empty
//! proposal. Those two calls are the on-clock spans; the plan and step
//! spans inside `run_chain` are rebuilt from the program's own
//! `ChainStarted` and `StepTimed` events.
//!
//! The layers inside `send` (`predict_type`, candidate retrieval, the
//! context features with sequentialize, checked greedy decoding, analysis)
//! and work the request path does not expose (embedding, ANN search, plan
//! building, the memo-key fingerprint, the WAL commit) are re-measured after
//! each round as probe spans on the same inputs, off the clock. The probes
//! must reproduce the candidates and the chain `send` produced.

use crate::outcome::{Outcome, Phase};
use crate::trace::{self, NameTotals, Span, SpanBuf};
use crate::workload::{Inputs, Served, Turn, Workload, POOL_WORKERS};
use crate::{metric, trace_path, Metric};
use chatgraph_ann::SearchStats;
use chatgraph_apis::impls::structure::predict_type;
use chatgraph_apis::sched::graph_fingerprint;
use chatgraph_apis::{analysis, ApiChain, ChainError, ChainEvent, MemoStats, Monitor, Plan, Value};
use chatgraph_core::generation::candidate_apis;
use chatgraph_core::{ChainGenerator, ChatSession, GraphAwareLm, Prompt, Request, SessionCore};
use chatgraph_graph::Graph;
use chatgraph_sequencer::{sequentialize, CoverParams};
use chatgraph_store::GraphStore;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans whose self time is unattributed: the request wrapper, and the
/// chain run outside its plan and step spans.
const CONTAINERS: &[&str] = &["request", "session.run_chain"];
/// The probes that together repeat `ChatSession::send`; the part of the
/// `session.send` span they do not account for is unattributed.
const SEND_LAYERS: &[&str] = &[
    "structure.predict_type",
    "retrieval.candidates",
    "generation.decode",
    "analysis.analyze",
];

/// What the probes re-run `send`'s layers with: a copy of the finetuned
/// model (the core keeps its own private) and the core's settings.
struct Probes {
    lm: GraphAwareLm,
    generator: ChainGenerator,
    cover: CoverParams,
    multi_level: bool,
}

/// What one traced request leaves for the probes and the metrics.
struct TracedReq {
    buf: SpanBuf,
    outcome: Outcome,
    /// Service time: the `request` span.
    service_ns: u64,
    out: RequestOut,
}

/// What the request path produced for one request.
#[derive(Default)]
struct RequestOut {
    /// The prompt of a chat turn.
    prompt: Option<String>,
    /// The session graph `send` worked on.
    context_graph: Option<Arc<Graph>>,
    /// The candidates `send` offered to the decoder.
    candidates: Vec<String>,
    /// Duration of the `session.send` span.
    send_ns: u64,
    chain: ApiChain,
    result: Option<Result<Value, ChainError>>,
    /// The session graph before and after the chain ran.
    before: Option<Arc<Graph>>,
    after: Option<Arc<Graph>>,
    events: Vec<ChainEvent>,
}

/// Records every chain event with its arrival time on the span clock.
struct TimedMonitor {
    origin: Instant,
    events: Vec<(u64, ChainEvent)>,
}

impl Monitor for TimedMonitor {
    fn on_event(&mut self, event: &ChainEvent) {
        let at = Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.events.push((at, event.clone()));
    }
}

/// Counters gathered from the probes and the chain events.
#[derive(Default)]
struct Counts {
    requests: u64,
    distance_evals: u64,
    base_seqs: u64,
    csr_full: u64,
    csr_full_us: u64,
    csr_delta: u64,
    ged_steps: u64,
    ged_us: u64,
    commits: u64,
    wal_bytes: u64,
    checkpoints: u64,
    queue_wait_ns: u64,
    /// `session.send` time the probes of its layers do not account for.
    send_unexplained_ns: u64,
}

pub struct Traced {
    pub outcomes: Vec<Outcome>,
    /// Chat turns whose `send` was re-measured by probes.
    pub probed_turns: u64,
    /// Probed turns whose probes did not reproduce what `send` produced.
    pub probe_mismatches: u64,
    busy_secs: f64,
    totals: BTreeMap<&'static str, NameTotals>,
    counts: Counts,
    memo: MemoStats,
}

pub fn run(
    served: &Served,
    inputs: &mut Inputs,
    seconds: f64,
    scratch: &Path,
    seed: u64,
) -> Result<Traced, String> {
    let core = Arc::clone(served.server.core());
    let config = core.config();
    let probes = Probes {
        lm: GraphAwareLm::load_json(&core.save_model()).map_err(|e| e.to_string())?,
        generator: ChainGenerator {
            max_len: config.finetune.max_chain_len,
        },
        cover: CoverParams {
            max_length: config.cover.max_length,
            dedup_singletons: true,
        },
        multi_level: config.cover.multi_level,
    };
    let origin = Instant::now();
    let durable = inputs.workload == Workload::EditDurable;
    let probe_stores = if durable {
        probe_stores(served, scratch)?
    } else {
        Vec::new()
    };

    let memo_before = served.server.memo_stats();
    let mut bufs = Vec::new();
    let mut outcomes = Vec::new();
    let mut counts = Counts::default();
    let (mut probed_turns, mut probe_mismatches) = (0, 0);
    let mut busy_secs = 0.0;
    let mut round = 0usize;
    while busy_secs < seconds {
        let turns: Vec<Mutex<Option<Turn>>> = inputs
            .next_round()
            .into_iter()
            .map(|t| Mutex::new(Some(t)))
            .collect();
        let cursor = AtomicUsize::new(0);
        let first_req = (round * turns.len()) as u64;
        let start = Instant::now();
        let mut done: Vec<TracedReq> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..POOL_WORKERS)
                .map(|worker| {
                    let (turns, cursor) = (&turns, &cursor);
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(slot) = turns.get(i) else { break };
                            let turn = slot
                                .lock()
                                .expect("turn slots hold plain data")
                                .take()
                                .expect("each turn is claimed once");
                            let req = first_req + i as u64;
                            local.push(serve_turn(served, turn, req, worker, origin, start, round));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a traced worker panicked"))
                .collect()
        });
        busy_secs += start.elapsed().as_secs_f64();
        done.sort_by_key(|r| r.outcome.tenant);

        // Probes: re-measure the layers inside `send` and the hidden ones on
        // the same inputs, after the round and off the clock.
        for r in &mut done {
            if r.out.prompt.is_some() {
                probed_turns += 1;
                if !probe_send(r, &core, &probes, &mut counts) {
                    probe_mismatches += 1;
                }
            }
            let registry = core.registry();
            if !r.out.chain.is_empty() {
                r.buf.probe("plan.build", || {
                    black_box(Plan::build(&r.out.chain, registry)).is_ok()
                });
                if let Some(g) = &r.out.before {
                    r.buf
                        .probe("sched.fingerprint", || black_box(graph_fingerprint(g)));
                }
            }
            if let (Some(store), true, Some(g)) = (
                probe_stores.get(r.outcome.tenant),
                r.outcome.writes,
                &r.out.after,
            ) {
                let receipt = r.buf.probe("store.commit", || store.commit(g));
                receipt.map_err(|e| format!("probe store commit: {e}"))?;
            }
            tally(r, &mut counts);
        }
        for r in done {
            outcomes.push(r.outcome);
            bufs.push(r.buf);
        }
        round += 1;
    }
    let memo_after = served.server.memo_stats();
    let memo = MemoStats {
        hits: memo_after.hits - memo_before.hits,
        misses: memo_after.misses - memo_before.misses,
        coalesced: memo_after.coalesced - memo_before.coalesced,
    };

    let mut totals = BTreeMap::new();
    for buf in &bufs {
        trace::accumulate(buf, &mut totals);
    }
    let path = trace_path(inputs.workload, seed);
    std::fs::write(&path, trace::chrome_json(&bufs).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let spans: usize = bufs.iter().map(|b| b.spans.len()).sum();
    eprintln!("chatbench: wrote {spans} spans to {}", path.display());
    Ok(Traced {
        outcomes,
        probed_turns,
        probe_mismatches,
        busy_secs,
        totals,
        counts,
        memo,
    })
}

/// Bench-owned stores, one per tenant, seeded with the tenant's current
/// graph; fed the same post-write graphs so `store.commit` is timed alone.
fn probe_stores(served: &Served, scratch: &Path) -> Result<Vec<GraphStore>, String> {
    let dir = scratch.join("probe-stores");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    served
        .tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let g = served
                .server
                .with_session(t, |s| s.graph().cloned())
                .map_err(|e| e.to_string())?
                .ok_or("durable tenant without a graph")?;
            GraphStore::create(dir.join(format!("tenant-{i}.cgdb")), &g)
                .map_err(|e| format!("probe store: {e}"))
        })
        .collect()
}

fn tally(r: &TracedReq, c: &mut Counts) {
    c.requests += 1;
    c.queue_wait_ns += (r.outcome.latency_us * 1000).saturating_sub(r.service_ns);
    for e in &r.out.events {
        match e {
            ChainEvent::CsrBuilt {
                micros,
                delta: false,
                ..
            } => {
                c.csr_full += 1;
                c.csr_full_us += micros;
            }
            ChainEvent::CsrBuilt { delta: true, .. } => c.csr_delta += 1,
            ChainEvent::StepTimed {
                api,
                micros,
                cached: false,
                ..
            } if api == "similarity_search" => {
                c.ged_steps += 1;
                c.ged_us += micros;
            }
            ChainEvent::WalAppended { bytes, .. } => {
                c.commits += 1;
                c.wal_bytes += bytes;
            }
            ChainEvent::Checkpointed { .. } => c.checkpoints += 1,
            _ => {}
        }
    }
}

/// Serves one turn under the tenant's session lock, as the server does.
fn serve_turn(
    served: &Served,
    turn: Turn,
    req: u64,
    worker: usize,
    origin: Instant,
    round_start: Instant,
    round: usize,
) -> TracedReq {
    let mut buf = SpanBuf::new(origin, req, worker);
    let registry = served.server.core().registry();
    let root = buf.enter("request");
    let served_turn = served
        .server
        .with_session(served.tenants[turn.tenant], |s| {
            run_request(s, turn.request, &mut buf, origin)
        });
    buf.exit(root);
    let latency_us = round_start.elapsed().as_micros() as u64;
    let service_ns = buf.spans[root].dur_ns();
    let (parts, out) = match served_turn {
        Ok(mut out) => (Ok((out.chain.clone(), out.result.take())), out),
        Err(e) => (Err(e.to_string()), RequestOut::default()),
    };
    let outcome = Outcome::from_reply(
        registry,
        round,
        turn.tenant,
        req,
        latency_us,
        parts,
        &turn.truths,
    );
    TracedReq {
        buf,
        outcome,
        service_ns,
        out,
    }
}

/// The server's handling of one request, with `send` and `run_chain` in
/// spans.
fn run_request(
    s: &mut ChatSession,
    request: Request,
    buf: &mut SpanBuf,
    origin: Instant,
) -> RequestOut {
    let mut out = RequestOut::default();
    let (chain, execute) = match request {
        Request::Execute(chain) => (chain, true),
        Request::ChatAndRun(prompt) => {
            let chain = send(s, prompt, buf, &mut out);
            let execute = !chain.is_empty();
            (chain, execute)
        }
        Request::Chat(prompt) => (send(s, prompt, buf, &mut out), false),
    };
    if execute {
        out.before = s.graph_arc().cloned();
        let id = buf.enter("session.run_chain");
        let start = buf.spans[id].start_ns;
        let mut monitor = TimedMonitor {
            origin,
            events: Vec::new(),
        };
        out.result = Some(s.run_chain(&chain, &mut monitor));
        buf.exit(id);
        for (at, event) in &monitor.events {
            match event {
                ChainEvent::ChainStarted { .. } => {
                    buf.record("sched.plan", id, start, *at, String::new());
                }
                ChainEvent::StepTimed {
                    api,
                    micros,
                    cached,
                    ..
                } => {
                    let note = if *cached {
                        format!("{api} (memo)")
                    } else {
                        api.clone()
                    };
                    buf.record(
                        "sched.step",
                        id,
                        at.saturating_sub(micros * 1000),
                        *at,
                        note,
                    );
                }
                _ => {}
            }
        }
        out.events = monitor.events.into_iter().map(|(_, e)| e).collect();
        out.after = s.graph_arc().cloned();
    }
    out.chain = chain;
    out
}

/// The program's `ChatSession::send` in one span; returns the proposal.
fn send(s: &mut ChatSession, prompt: Prompt, buf: &mut SpanBuf, out: &mut RequestOut) -> ApiChain {
    out.prompt = Some(prompt.text.clone());
    let id = buf.enter("session.send");
    let response = s.send(prompt);
    buf.exit(id);
    out.send_ns = buf.spans[id].dur_ns();
    out.context_graph = s.graph_arc().cloned();
    out.candidates = response.candidates;
    response.chain
}

/// Re-runs the layers `send` calls, in its order and on its inputs, as
/// probe spans. Returns whether they reproduced `send`'s candidates and
/// chain.
fn probe_send(r: &mut TracedReq, core: &SessionCore, probes: &Probes, c: &mut Counts) -> bool {
    let TracedReq { buf, out, .. } = r;
    let Some(text) = out.prompt.as_deref() else {
        return true;
    };
    let (registry, retriever) = (core.registry(), core.retriever());
    let g = out.context_graph.as_deref();
    if let Some(g) = g {
        buf.probe("structure.predict_type", || black_box(predict_type(g)));
    }
    let candidates = buf.probe("retrieval.candidates", || {
        candidate_apis(registry, retriever, text, g)
    });
    buf.probe("embed.embed", || black_box(retriever.embed(text)));
    let mut stats = SearchStats::default();
    buf.probe("retrieval.retrieve_k", || {
        black_box(retriever.retrieve_k(text, retriever.top_k(), &mut stats))
    });
    c.distance_evals += stats.distance_computations as u64;
    // Decoding recomputes the context features, and its self time is the
    // difference of the two probes; one untimed call first starts both
    // warm, so the difference is the decoding steps, not cold caches.
    black_box(probes.lm.context(text, g));
    buf.probe("llm.context", || black_box(probes.lm.context(text, g)));
    if let Some(g) = g {
        let seqs = buf.probe("sequencer.sequentialize", || {
            sequentialize(g, &probes.cover, probes.multi_level)
        });
        c.base_seqs += seqs.base.len() as u64;
    }
    let chain = buf.probe("generation.decode", || {
        probes
            .generator
            .generate_greedy_checked(&probes.lm, registry, text, g, &candidates)
    });
    if !chain.is_empty() {
        buf.probe("analysis.analyze", || {
            black_box(analysis::analyze(&chain, registry, g.is_some()))
        });
    }
    let explained: u64 = buf
        .spans
        .iter()
        .filter(|s| SEND_LAYERS.contains(&s.name))
        .map(Span::dur_ns)
        .sum();
    c.send_unexplained_ns += out.send_ns.saturating_sub(explained);
    candidates == out.candidates && chain == out.chain
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

impl Traced {
    /// Every per-layer metric; a layer the workload never reaches reads 0.
    pub fn per_layer(&self, untraced: &Phase) -> Vec<Metric> {
        let t = |name: &str| self.totals.get(name).copied().unwrap_or_default();
        let c = &self.counts;
        let n = c.requests;
        let nu = n as usize;
        let send = t("session.send");
        let context = t("llm.context");
        let seq = t("sequencer.sequentialize");
        let embed = t("embed.embed");
        let retrieve = t("retrieval.retrieve_k");
        let decode = t("generation.decode");
        let run_chain = t("session.run_chain");
        let plan = t("plan.build");
        let fp = t("sched.fingerprint");
        let commit = t("store.commit");
        let request = t("request");
        let mean = |x: NameTotals| per(ms(x.dur_ns), x.count);
        let unattributed =
            CONTAINERS.iter().map(|name| t(name).self_ns).sum::<u64>() + c.send_unexplained_ns;
        let memo = &self.memo;
        let requested = memo.requested();
        let clients = self.outcomes.iter().filter(|o| !o.editor).count();
        let traced_rps = clients as f64 / self.busy_secs.max(1e-9);
        let untraced_rps = untraced.timed_rps();
        vec![
            metric("session.send_ms", mean(send), "ms", send.count as usize),
            metric(
                "llm.context_ms",
                per(ms(context.dur_ns.saturating_sub(seq.dur_ns)), context.count),
                "ms",
                context.count as usize,
            ),
            metric(
                "sequencer.sequentialize_ms",
                per(ms(seq.dur_ns), context.count),
                "ms",
                seq.count as usize,
            ),
            metric(
                "sequencer.base_seqs",
                per(c.base_seqs as f64, seq.count),
                "count",
                seq.count as usize,
            ),
            metric(
                "llm.context_send_share",
                context.dur_ns as f64 / send.dur_ns.max(1) as f64,
                "ratio",
                send.count as usize,
            ),
            metric(
                "structure.predict_type_ms",
                mean(t("structure.predict_type")),
                "ms",
                t("structure.predict_type").count as usize,
            ),
            metric("embed.embed_ms", mean(embed), "ms", embed.count as usize),
            metric(
                "ann.search_ms",
                per(
                    ms(retrieve.dur_ns.saturating_sub(embed.dur_ns)),
                    retrieve.count,
                ),
                "ms",
                retrieve.count as usize,
            ),
            metric(
                "ann.distance_evals",
                per(c.distance_evals as f64, retrieve.count),
                "count",
                retrieve.count as usize,
            ),
            metric(
                "generation.decode_ms",
                per(
                    ms(decode.dur_ns.saturating_sub(context.dur_ns)),
                    decode.count,
                ),
                "ms",
                decode.count as usize,
            ),
            metric(
                "analysis.analyze_ms",
                mean(t("analysis.analyze")),
                "ms",
                t("analysis.analyze").count as usize,
            ),
            metric(
                "session.run_chain_ms",
                mean(run_chain),
                "ms",
                run_chain.count as usize,
            ),
            metric("plan.build_ms", mean(plan), "ms", plan.count as usize),
            metric("sched.fingerprint_ms", mean(fp), "ms", fp.count as usize),
            metric(
                "memo.hit_ratio",
                per(memo.hits as f64, requested),
                "ratio",
                requested as usize,
            ),
            metric(
                "memo.executed_ratio",
                per(memo.executed() as f64, requested),
                "ratio",
                requested as usize,
            ),
            metric(
                "memo.coalesced",
                memo.coalesced as f64,
                "count",
                requested as usize,
            ),
            metric(
                "csr.build_ms",
                per(c.csr_full_us as f64 / 1e3, c.csr_full),
                "ms",
                c.csr_full as usize,
            ),
            metric("csr.builds_per_req", per(c.csr_full as f64, n), "count", nu),
            metric(
                "csr.delta_builds_per_req",
                per(c.csr_delta as f64, n),
                "count",
                nu,
            ),
            metric(
                "ged.similarity_ms",
                per(c.ged_us as f64 / 1e3, c.ged_steps),
                "ms",
                c.ged_steps as usize,
            ),
            metric("store.commit_ms", mean(commit), "ms", commit.count as usize),
            metric(
                "store.commits_per_req",
                per(c.commits as f64, n),
                "count",
                nu,
            ),
            metric(
                "store.wal_bytes_per_commit",
                per(c.wal_bytes as f64, c.commits),
                "bytes",
                c.commits as usize,
            ),
            metric("store.checkpoints", c.checkpoints as f64, "count", nu),
            metric("serve.queue_wait_ms", per(ms(c.queue_wait_ns), n), "ms", nu),
            metric(
                "trace.unattributed_frac",
                unattributed as f64 / request.dur_ns.max(1) as f64,
                "ratio",
                request.count as usize,
            ),
            metric(
                "trace.overhead_frac",
                1.0 - traced_rps / untraced_rps.max(1e-9),
                "ratio",
                nu,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_support::json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside chatbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|s| s.as_array())
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(metrics: Vec<Metric>) -> Vec<(String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let phase = Phase {
            outcomes: Vec::new(),
            round_secs: vec![0.1, 0.1],
        };
        let check = crate::checks::Check {
            digest: 0,
            checked: 0,
            judged: 0,
            matched: 0,
            accuracy: 1.0,
            stores: Vec::new(),
        };
        assert_eq!(
            reported(crate::end_to_end(&phase, &[1.0], &check, 1.0)),
            declared("end_to_end")
        );
        let traced = Traced {
            outcomes: Vec::new(),
            probed_turns: 0,
            probe_mismatches: 0,
            busy_secs: 1.0,
            totals: BTreeMap::new(),
            counts: Counts::default(),
            memo: MemoStats {
                hits: 0,
                misses: 0,
                coalesced: 0,
            },
        };
        assert_eq!(reported(traced.per_layer(&phase)), declared("per_layer"));
    }
}
