//! Output checks, all outside the timed phase: the answer digest, chain
//! accuracy, a storeless replay of the durable workload, and reopening
//! every tenant store.

use crate::outcome::{Outcome, Phase};
use crate::workload::{Inputs, Served, Workload};
use chatgraph_apis::{ApiChain, SilentMonitor};
use chatgraph_core::{ChatSession, Request};
use chatgraph_store::{graph_fp, GraphStore};
use chatgraph_support::hash::Fnv64;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

pub struct Check {
    /// FNV over chain text and answer of the checked prefix, in
    /// `(tenant, seq)` order.
    pub digest: u64,
    /// Requests in the checked prefix.
    pub checked: usize,
    /// Prefix requests with a known right answer, and how many matched.
    pub judged: usize,
    pub matched: usize,
    pub accuracy: f64,
    /// For a durable workload: each tenant's store file and the
    /// fingerprint of its in-memory graph at the end of the run.
    pub stores: Vec<(PathBuf, u64)>,
}

/// Digest and accuracy over the first `check_rounds` rounds of `phase`.
///
/// Chat turns are right when the proposed chain is one of the corpus
/// truths. Confirmed `Execute` turns of the durable workload are right when
/// their answer equals a replay of the same tenant's requests on a fresh
/// in-memory session (no store) over the same core.
pub fn check(w: Workload, served: &Served, phase: &Phase, seed: u64) -> Result<Check, String> {
    let mut prefix: Vec<&Outcome> = phase
        .outcomes
        .iter()
        .filter(|o| o.round < w.check_rounds())
        .collect();
    prefix.sort_by_key(|o| (o.tenant, o.seq));
    let mut h = Fnv64::new();
    for o in &prefix {
        h.write_u64(o.tenant as u64);
        h.write_u64(o.seq);
        h.write_str(&o.chain);
        h.write_str(o.error.as_deref().unwrap_or(&o.summary));
    }
    let (judged, matched) = if w == Workload::EditDurable {
        let reference = replay(served, w, seed)?;
        let matched = prefix
            .iter()
            .filter(|o| reference.get(&(o.tenant, o.seq)) == Some(&o.summary))
            .count();
        (prefix.len(), matched)
    } else {
        let judged: Vec<bool> = prefix.iter().filter_map(|o| o.correct).collect();
        (judged.len(), judged.iter().filter(|&&c| c).count())
    };
    let mut stores = Vec::new();
    if w == Workload::EditDurable {
        for &t in &served.tenants {
            let entry = served
                .server
                .with_session(t, |s| Some((s.store()?.path(), graph_fp(s.graph()?))))
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("{t} has no store or no graph"))?;
            stores.push(entry);
        }
    }
    Ok(Check {
        digest: h.finish(),
        checked: prefix.len(),
        judged,
        matched,
        accuracy: if judged == 0 {
            0.0
        } else {
            matched as f64 / judged as f64
        },
        stores,
    })
}

/// Answers of the checked prefix, replayed tenant by tenant without a
/// store, keyed by `(tenant, seq)`. One reference session lives at a time.
fn replay(
    served: &Served,
    w: Workload,
    seed: u64,
) -> Result<BTreeMap<(usize, u64), String>, String> {
    let mut inputs = Inputs::generate(w, seed);
    let mut chains: Vec<Vec<ApiChain>> = vec![Vec::new(); inputs.uploads.len()];
    for _ in 0..w.check_rounds() {
        for turn in inputs.next_round() {
            let Request::Execute(chain) = turn.request else {
                return Err("the durable workload only sends Execute".to_owned());
            };
            chains[turn.tenant].push(chain);
        }
    }
    let core = served.server.core();
    let mut answers = BTreeMap::new();
    for (tenant, (upload, chains)) in inputs.uploads.iter().zip(chains).enumerate() {
        let mut session = ChatSession::from_core(Arc::clone(core));
        session.set_graph(upload.clone());
        for (seq, chain) in chains.iter().enumerate() {
            let answer = match session.run_chain(chain, &mut SilentMonitor) {
                Ok(v) => v.summary(),
                Err(e) => e.to_string(),
            };
            answers.insert((tenant, seq as u64), answer);
        }
    }
    Ok(answers)
}

pub struct Durability {
    pub ok: bool,
    pub summary: String,
}

/// Reopens every tenant store (after the server is gone) and requires a
/// clean tail and the same graph the session held.
pub fn durability(check: &Check) -> Result<Durability, String> {
    let mut ok = true;
    let mut dropped = 0;
    let mut mismatched = 0;
    for (path, fp) in &check.stores {
        let (store, report) =
            GraphStore::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if report.tail_dropped != 0 {
            ok = false;
            dropped += 1;
        }
        if graph_fp(&store.graph()) != *fp {
            ok = false;
            mismatched += 1;
        }
    }
    Ok(Durability {
        ok,
        summary: format!(
            "{} stores reopened: {} with a torn tail, {} with a different graph",
            check.stores.len(),
            dropped,
            mismatched
        ),
    })
}
