//! The untraced closed loop through `SessionServer::drain`, and what each
//! completed request is reduced to.

use crate::workload::{Inputs, Served, EDITOR};
use crate::WARMUP_ROUNDS;
use chatgraph_apis::{ApiChain, ApiRegistry, ChainError, Value};
use chatgraph_core::{Completed, Reply};
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed request, reduced to what the metrics and checks need.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub round: usize,
    pub tenant: usize,
    pub seq: u64,
    /// Submit to completion, queue wait included.
    pub latency_us: u64,
    /// Counted in the timing metrics (not a warm-up round).
    pub timed: bool,
    pub error: Option<String>,
    /// The chain that ran, as text.
    pub chain: String,
    /// The answer: the result summary, or why there is none.
    pub summary: String,
    /// For a chat turn, whether the proposed chain is a corpus truth.
    pub correct: Option<bool>,
    /// Whether the chain mutates the graph.
    pub writes: bool,
    /// Sent by the `chat_resident` editor: counted only as a write.
    pub editor: bool,
}

impl Outcome {
    /// Reduces a reply to an outcome; `truths` are the chat turn's accepted
    /// chains (empty for a confirmed `Execute`).
    pub fn from_reply(
        registry: &ApiRegistry,
        round: usize,
        tenant: usize,
        seq: u64,
        latency_us: u64,
        reply: Result<(ApiChain, Option<Result<Value, ChainError>>), String>,
        truths: &[ApiChain],
    ) -> Outcome {
        let mut o = Outcome {
            round,
            tenant,
            seq,
            latency_us,
            timed: round >= WARMUP_ROUNDS,
            error: None,
            chain: String::new(),
            summary: String::new(),
            correct: None,
            writes: false,
            editor: tenant == EDITOR,
        };
        match reply {
            Err(e) => o.error = Some(e),
            Ok((chain, result)) => {
                o.chain = chain.to_string();
                o.writes = chain
                    .steps
                    .iter()
                    .any(|s| registry.descriptor(&s.api).is_some_and(|d| d.mutates_graph));
                if !truths.is_empty() {
                    o.correct = Some(truths.contains(&chain));
                }
                match result {
                    None => o.summary = "no chain proposed".to_owned(),
                    Some(Ok(v)) => o.summary = v.summary(),
                    Some(Err(e)) => o.error = Some(e.to_string()),
                }
            }
        }
        o
    }
}

/// The chain and execution result carried by a server reply.
pub fn reply_parts(c: Completed) -> Result<(ApiChain, Option<Result<Value, ChainError>>), String> {
    match c.reply.map_err(|e| e.to_string())? {
        Reply::ChatAndRun(resp, exec) => Ok((resp.chain, exec.map(|e| e.result))),
        Reply::Execution(e) => Ok((e.chain, Some(e.result))),
        Reply::Chat(resp) => Ok((resp.chain, None)),
    }
}

/// The requests of one phase and the wall time each round's drain took.
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    /// Drain wall seconds per round, warm-up rounds included.
    pub round_secs: Vec<f64>,
}

impl Phase {
    /// Completed client requests (not the editor's) per wall second of the
    /// timed rounds.
    pub fn timed_rps(&self) -> f64 {
        let busy: f64 = self.round_secs.iter().skip(WARMUP_ROUNDS).sum();
        let done = self.outcomes.iter().filter(|o| o.timed && !o.editor);
        done.count() as f64 / busy.max(1e-9)
    }
}

/// Closed loop through the server: each round submits one request per
/// tenant and drains. Runs until `seconds` of timed rounds have passed, at
/// least `min_rounds` rounds are done, and the timed rounds are a whole
/// number of `cycle`s of the workload's request pattern.
pub fn serve_rounds(
    served: &Served,
    inputs: &mut Inputs,
    min_rounds: usize,
    cycle: usize,
    seconds: f64,
) -> Result<Phase, String> {
    let registry = served.server.core().registry();
    let mut outcomes = Vec::new();
    let mut round_secs: Vec<f64> = Vec::new();
    let mut round = 0;
    let done = |round: usize, secs: &[f64]| {
        let timed = round.saturating_sub(WARMUP_ROUNDS);
        secs.iter().skip(WARMUP_ROUNDS).sum::<f64>() >= seconds
            && round >= min_rounds
            && timed > 0
            && timed.is_multiple_of(cycle)
    };
    while !done(round, &round_secs) {
        let mut truths = BTreeMap::new();
        for turn in inputs.next_round() {
            let seq = served
                .server
                .submit(served.tenants[turn.tenant], turn.request)
                .map_err(|e| format!("submit: {e}"))?;
            truths.insert((turn.tenant, seq), turn.truths);
        }
        let start = Instant::now();
        let completed = served.server.drain();
        round_secs.push(start.elapsed().as_secs_f64());
        for c in completed {
            let tenant = served
                .tenants
                .iter()
                .position(|&t| t == c.tenant)
                .ok_or("completion for an unknown tenant")?;
            let (seq, latency_us) = (c.seq, c.latency_micros);
            let expected = truths.remove(&(tenant, seq)).unwrap_or_default();
            outcomes.push(Outcome::from_reply(
                registry,
                round,
                tenant,
                seq,
                latency_us,
                reply_parts(c),
                &expected,
            ));
        }
        if !truths.is_empty() {
            return Err(format!(
                "round {round}: {} requests never completed",
                truths.len()
            ));
        }
        round += 1;
    }
    Ok(Phase {
        outcomes,
        round_secs,
    })
}

/// Nearest-rank percentile of microsecond samples, in milliseconds.
pub fn percentile_ms(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage`: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).map(|v| v * 1000).collect();
        assert_eq!(percentile_ms(&s, 0.50), 50.0);
        assert_eq!(percentile_ms(&s, 0.95), 95.0);
        assert_eq!(percentile_ms(&[7000], 0.95), 7.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
