//! End-to-end ChatGraph benchmark.
//!
//! Drives the real `SessionServer` from one process: eight tenants, a
//! two-worker drain pool, closed loop (each round submits one request per
//! tenant, then drains, because a chat user waits for the reply before the
//! next turn). Prints every metric with its unit and sample count, checks
//! the answers, and ends with one JSON line:
//!
//! ```text
//! cargo run --release --offline --manifest-path chatbench/Cargo.toml -- \
//!     --workload chat_resident --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (tracing off). `--trace 1`
//! runs the same workload twice — through the server untraced, then with
//! the program's own `ChatSession::send` and `ChatSession::run_chain` timed
//! in spans — and reports the per-layer metrics, writing the spans as
//! Chrome trace-event JSON under `.chatbench/`.

mod checks;
mod outcome;
mod trace;
mod traced;
mod workload;

use chatgraph_support::json::Json;
use outcome::{percentile_ms, Outcome, Phase};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Inputs, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untimed rounds before measurement starts (lazy state, first CSR builds).
pub const WARMUP_ROUNDS: usize = 1;
/// Lowest `chain_accuracy` a chat workload may show and still count as
/// correct: a guard against broken output, well below the 0.93–1.0 the
/// finetuned model reaches on held-out paraphrases (the metric's own bound
/// gates smaller drops).
const MIN_CHAT_ACCURACY: f64 = 0.75;
/// Directory, relative to the working directory, for stores and traces.
const WORK_DIR: &str = ".chatbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let code = match parse_args().and_then(|args| {
        let scratch = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let result = run(&args, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        result
    }) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("chatbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// One metric line of the final report.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Runs one workload; returns whether every check passed.
fn run(args: &Args, scratch: &Path) -> Result<bool, String> {
    let w = args.workload;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::with_capacity(reps);
    let mut served = None;
    let mut inputs = None;
    for rep in 0..reps {
        // The previous server goes first, so memory never holds two.
        drop(served.take());
        // Inputs are generated before the clock starts; only the work a
        // deployment repeats at start-up is timed. Set-up moves the graphs
        // into the server, so the request stream left in `inputs` holds
        // no second copy during the measured phase.
        let mut rep_inputs = Inputs::generate(w, args.seed);
        let dir = scratch.join(format!("stores-{rep}"));
        let start = Instant::now();
        let s = workload::set_up(&mut rep_inputs, &dir)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        served = Some(s);
        inputs = Some(rep_inputs);
    }
    let served = served.ok_or("no set-up ran")?;
    let mut inputs = inputs.ok_or("no set-up ran")?;

    let phase_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = outcome::serve_rounds(
        &served,
        &mut inputs,
        w.check_rounds(),
        w.cycle_rounds(),
        phase_secs,
    )?;
    // Peak memory of set-up plus the measured phase; the checks below
    // build reference sessions of their own.
    let peak_rss_mb = outcome::peak_rss_mb();
    let traced = if args.trace {
        Some(traced::run(
            &served,
            &mut inputs,
            phase_secs,
            scratch,
            args.seed,
        )?)
    } else {
        None
    };

    let check = checks::check(w, &served, &untraced, args.seed)?;
    drop(served);
    let durable = if w == Workload::EditDurable {
        Some(checks::durability(&check)?)
    } else {
        None
    };

    let mut all: Vec<&Outcome> = untraced.outcomes.iter().collect();
    if let Some(t) = &traced {
        all.extend(t.outcomes.iter());
    }
    let attempted = all.len();
    let failures: Vec<&Outcome> = all.iter().copied().filter(|o| o.error.is_some()).collect();
    for f in failures.iter().take(5) {
        eprintln!(
            "chatbench: failed request tenant {} seq {}: {}",
            f.tenant,
            f.seq,
            f.error.as_deref().unwrap_or_default()
        );
    }
    let accuracy_floor = if w.is_chat() { MIN_CHAT_ACCURACY } else { 1.0 };
    let mut correct = failures.is_empty() && check.accuracy >= accuracy_floor;
    if let Some(t) = &traced {
        // The probes re-run `send`'s layers off the clock; they must
        // reproduce the candidates and the chain `send` produced, or they
        // timed other work than the request did.
        println!(
            "chatbench: probes of send reproduced {}/{} chat turns",
            t.probed_turns - t.probe_mismatches,
            t.probed_turns
        );
        correct &= t.probe_mismatches == 0;
    }
    if let Some(d) = &durable {
        correct &= d.ok;
    }

    println!(
        "chatbench: workload={} seed={} trace={} tenants={} pool_workers={} cpus={}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        workload::TENANTS,
        workload::POOL_WORKERS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "chatbench: answer_digest={:016x} over {} requests; chain_accuracy={:.4} ({}/{})",
        check.digest, check.checked, check.accuracy, check.matched, check.judged
    );
    if let Some(d) = &durable {
        println!("chatbench: durability {}", d.summary);
    }
    println!(
        "chatbench: requests attempted={} succeeded={} failed={}",
        attempted,
        attempted - failures.len(),
        failures.len()
    );

    let metrics = match &traced {
        None => end_to_end(&untraced, &setup_secs, &check, peak_rss_mb),
        Some(t) => t.per_layer(&untraced),
    };
    for m in &metrics {
        println!(
            "  {:<30} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let doc = Json::Object(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::UInt(attempted as u64)),
        ("failed".to_owned(), Json::UInt(failures.len() as u64)),
        (
            "metrics".to_owned(),
            Json::Object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            Json::Object(vec![
                                ("value".to_owned(), Json::Float(m.value)),
                                ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", doc.render());
    Ok(correct)
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(
    phase: &Phase,
    setup_secs: &[f64],
    check: &checks::Check,
    rss_mb: f64,
) -> Vec<Metric> {
    let timed: Vec<&Outcome> = phase.outcomes.iter().filter(|o| o.timed).collect();
    let latencies = |keep: &dyn Fn(&Outcome) -> bool| -> Vec<u64> {
        timed
            .iter()
            .filter(|o| keep(o))
            .map(|o| o.latency_us)
            .collect()
    };
    // The `chat_resident` editor's requests count only as writes.
    let all = latencies(&|o| !o.editor);
    let reads = latencies(&|o| !o.editor && !o.writes);
    let writes = latencies(&|o| o.writes);
    vec![
        metric(
            "setup_s",
            median(setup_secs.to_vec()),
            "s",
            setup_secs.len(),
        ),
        metric("latency_p50_ms", percentile_ms(&all, 0.50), "ms", all.len()),
        metric("latency_p95_ms", percentile_ms(&all, 0.95), "ms", all.len()),
        metric("throughput_rps", phase.timed_rps(), "1/s", all.len()),
        metric(
            "read_latency_p50_ms",
            percentile_ms(&reads, 0.50),
            "ms",
            reads.len(),
        ),
        metric(
            "write_latency_p50_ms",
            percentile_ms(&writes, 0.50),
            "ms",
            writes.len(),
        ),
        metric("chain_accuracy", check.accuracy, "ratio", check.judged),
        metric("peak_rss_mb", rss_mb, "MB", 1),
    ]
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Where the traced run writes its Chrome trace.
fn trace_path(w: Workload, seed: u64) -> PathBuf {
    Path::new(WORK_DIR).join(format!("trace-{}-seed{seed}.json", w.name()))
}
