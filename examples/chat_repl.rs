//! An interactive ChatGraph terminal session — the headless equivalent of
//! the paper's Gradio interface (Fig. 2): panel ① is stdout, panel ② is the
//! `:suggest` command, panel ③ is stdin.
//!
//! ```sh
//! cargo run --release --example chat_repl
//! ```
//!
//! or scripted:
//!
//! ```sh
//! printf ':social\nWhat communities exist in G?\n:quit\n' \
//!   | cargo run --release --example chat_repl
//! ```
//!
//! Commands: `:social` / `:molecule` / `:kg` generate and upload a graph,
//! `:upload <path>` reads an edge-list file, `:suggest` prints suggested
//! questions, `:plan` shows the execution plan (each step's input and
//! whether it is a barrier) of the last proposed chain — during execution, CSR kernel
//! timings stream alongside it as `KernelTimed` events — `:faults
//! [seed [error [panic [delay]]]]` arms deterministic fault injection on
//! the chain supervisor (`:faults off` disarms it; retries, timeouts,
//! isolated panics and degraded steps stream as events) — `:store <path>`
//! attaches a durable single-file store (recovering it if it already
//! exists; every mutation barrier then streams `WalAppended` events) —
//! `:checkpoint` compacts the attached store — `:quit` exits.
//! Anything else is a prompt; proposed chains are executed immediately
//! (auto-confirm).

use chatgraph::apis::{ChainEvent, CollectingMonitor, FaultPlan, Plan, Value};
use chatgraph::core::prompt::Prompt;
use chatgraph::core::{ChatGraphConfig, ChatSession};
use chatgraph::graph::generators::{
    corrupt_kg, knowledge_graph, molecule, molecule_database, social_network, KgParams,
    MoleculeParams, SocialParams,
};
use chatgraph::graph::io;
use std::io::BufRead;

fn main() {
    println!("Bootstrapping ChatGraph (this finetunes the model once)...");
    let (mut session, _) = ChatSession::bootstrap(ChatGraphConfig::default(), 384).expect("default config is valid");
    session.set_database(molecule_database(30, &MoleculeParams::default(), 123));
    println!(
        "Ready. Type :social / :molecule / :kg to upload a graph, :suggest, :plan, :faults, :store, :checkpoint, :quit.\n"
    );

    let mut last_chain: Option<chatgraph::apis::ApiChain> = None;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim().to_owned();
        if line.is_empty() {
            continue;
        }
        match line.split_whitespace().next().unwrap_or("") {
            ":quit" | ":exit" => break,
            ":social" => {
                session.set_graph(social_network(&SocialParams::default(), 7));
                println!("uploaded a social network (120 nodes).");
            }
            ":molecule" => {
                session.set_graph(molecule(&MoleculeParams::default(), 7));
                println!("uploaded a molecule (24 atoms).");
            }
            ":kg" => {
                let mut g = knowledge_graph(&KgParams::default(), 7);
                let truth = corrupt_kg(&mut g, 0.08, 0.05, 7);
                session.set_graph(g);
                println!(
                    "uploaded a knowledge graph with {} wrong and {} missing facts injected.",
                    truth.injected_wrong.len(),
                    truth.removed.len()
                );
            }
            ":upload" => {
                let path = line.split_whitespace().nth(1).unwrap_or("");
                match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|t| {
                    io::parse_edge_list(&t).map_err(|e| e.to_string())
                }) {
                    Ok(g) => {
                        println!("uploaded '{}' ({} nodes).", g.name(), g.node_count());
                        session.set_graph(g);
                    }
                    Err(e) => println!("upload failed: {e}"),
                }
            }
            ":suggest" => {
                for q in session.suggest_questions() {
                    println!("  - {q}");
                }
            }
            ":faults" => {
                let args: Vec<&str> = line.split_whitespace().skip(1).collect();
                if args.first() == Some(&"off") {
                    session.set_fault_plan(None);
                    println!("fault injection disarmed.");
                } else {
                    let num = |i: usize, default: f64| {
                        args.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(default)
                    };
                    let seed = args
                        .first()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(7);
                    let plan = FaultPlan::new(seed)
                        .with_error_rate(num(1, 0.3))
                        .with_panic_rate(num(2, 0.1))
                        .with_delay(num(3, 0.0), 20)
                        .with_faults_per_step(1);
                    println!(
                        "fault injection armed: seed {seed}, error {:.2}, panic {:.2}, delay {:.2} \
                         (one faulty attempt per afflicted step; `:faults off` disarms).",
                        plan.error_rate, plan.panic_rate, plan.delay_rate
                    );
                    session.set_fault_plan(Some(plan));
                }
            }
            ":store" => {
                let path = line.split_whitespace().nth(1).unwrap_or("");
                if path.is_empty() {
                    match session.store() {
                        Some(store) => println!(
                            "store attached at '{}' (epoch {}, {} WAL byte(s)).",
                            store.path().display(),
                            store.epoch(),
                            store.wal_bytes()
                        ),
                        None => println!("usage: :store <path> — no store attached."),
                    }
                } else {
                    match session.open_store(path) {
                        Ok(opened) => {
                            match opened {
                                chatgraph::store::StoreOpened::Created => {
                                    println!("created a durable store at '{path}'.")
                                }
                                chatgraph::store::StoreOpened::Recovered(r) => println!(
                                    "recovered '{path}' to epoch {} ({} record(s) replayed, {} torn byte(s) dropped).",
                                    r.epoch, r.records_replayed, r.tail_dropped
                                ),
                            }
                            if let Err(e) = session.persist_model() {
                                println!("model persist failed: {e}");
                            }
                        }
                        Err(e) => println!("store open failed: {e}"),
                    }
                }
            }
            ":checkpoint" => match session.checkpoint_store() {
                Ok(r) => println!(
                    "checkpointed at epoch {}: file is {} byte(s), {} reclaimed.",
                    r.epoch, r.file_bytes, r.reclaimed
                ),
                Err(e) => println!("checkpoint failed: {e}"),
            },
            ":plan" => match &last_chain {
                None => println!("no chain proposed yet — ask a question first."),
                Some(chain) => match Plan::build(chain, session.registry()) {
                    Ok(plan) => {
                        println!("plan: {} steps, {} barrier(s)", plan.len(), plan.barrier_count());
                        print!("{}", plan.render_text());
                        println!(
                            "(per-kernel CSR timings are emitted as KernelTimed events while the plan runs)"
                        );
                    }
                    Err(e) => println!("the chain does not lower to a plan: {e}"),
                },
            },
            _ => {
                let response = session.send(Prompt::text(line));
                println!("ChatGraph: {}", response.message);
                if response.chain.is_empty() {
                    continue;
                }
                last_chain = Some(response.chain.clone());
                let mut monitor = CollectingMonitor::new();
                match session.run_chain(&response.chain, &mut monitor) {
                    Ok(result) => {
                        for e in &monitor.events {
                            match e {
                                ChainEvent::Diagnostics { diagnostics } => {
                                    for note in diagnostics.render_text().lines() {
                                        println!("  note: {note}");
                                    }
                                }
                                ChainEvent::StepFinished { api, summary, .. } => {
                                    println!("  [{api}] {summary}");
                                }
                                ChainEvent::KernelTimed { kernel, micros } => {
                                    println!("  (kernel {kernel}: {micros}us)");
                                }
                                ChainEvent::StepRetried { api, attempt, backoff_ms, error, .. } => {
                                    println!(
                                        "  [{api}] retry #{attempt} after {backoff_ms}ms: {error}"
                                    );
                                }
                                ChainEvent::StepTimedOut { api, deadline_ms, .. } => {
                                    println!("  [{api}] exceeded its {deadline_ms}ms deadline");
                                }
                                ChainEvent::StepPanicked { api, message, .. } => {
                                    println!("  [{api}] panicked (isolated): {message}");
                                }
                                ChainEvent::DegradedResult { api, error, .. } => {
                                    println!("  [{api}] degraded, chain continues: {error}");
                                }
                                ChainEvent::WalAppended { epoch, records, bytes, .. } => {
                                    println!(
                                        "  (wal: epoch {epoch} committed, {records} record(s), {bytes} byte(s))"
                                    );
                                }
                                ChainEvent::Checkpointed { epoch, bytes, reclaimed } => {
                                    println!(
                                        "  (store checkpointed at epoch {epoch}: {bytes} byte(s), {reclaimed} reclaimed)"
                                    );
                                }
                                ChainEvent::Recovered { epoch, records_replayed, tail_dropped } => {
                                    println!(
                                        "  (store recovered to epoch {epoch}: {records_replayed} record(s) replayed, {tail_dropped} torn byte(s) dropped)"
                                    );
                                }
                                _ => {}
                            }
                        }
                        match result {
                            Value::Table(t) => println!("{}", t.to_text()),
                            Value::Report(r) => println!("{}", r.to_text()),
                            other => println!("=> {}", other.summary()),
                        }
                    }
                    Err(e) => println!("execution failed: {e}"),
                }
            }
        }
    }
    println!("bye.");
}
