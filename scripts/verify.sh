#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md). The workspace has zero external
# dependencies, so this must succeed on a cold checkout with no network:
# every dependency is an in-workspace path dep (enforced by tests/hermetic.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

# --quick-scale: just the CI-sized scale sweep — runs the 10^3/10^4 tiers
# and validates that the committed results/BENCH_scale.json still parses
# with all four tiers (the full sweep is expensive and committed; see
# benches/scale_sweep.rs and EXPERIMENTS.md E12).
if [[ "${1:-}" == "--quick-scale" ]]; then
    cargo bench --offline -p chatgraph-bench --bench scale_sweep -- --quick
    exit 0
fi

# --quick-store: the crash-matrix recovery property suite (every-byte
# truncation and bit-flip sweeps, armed crash points, checkpoint
# differentials) plus a small store bench tier validating that the
# committed results/BENCH_store.json still carries the full schema (see
# benches/store.rs and EXPERIMENTS.md E14).
if [[ "${1:-}" == "--quick-store" ]]; then
    cargo test -q --offline -p chatgraph-store
    cargo test -q --offline -p chatgraph-store --test recovery_properties
    cargo bench --offline -p chatgraph-bench --bench store -- --quick
    exit 0
fi

# --quick-serve: the coalescing property suite plus a single-iteration
# duplicate-heavy serving round, validating that the committed
# results/BENCH_serving.json still carries the full schema (env with the
# oversubscription flag, the coalescing.on record; see benches/serving.rs
# and EXPERIMENTS.md E13).
if [[ "${1:-}" == "--quick-serve" ]]; then
    cargo test -q --offline -p chatgraph-apis --test coalesce_properties
    cargo bench --offline -p chatgraph-bench --bench serving -- --quick
    exit 0
fi

# --quick-ged: the GED differential suite (profile-based approx_ged, the
# slot-indexed induced cost and the flat Hungarian solver against the
# implementations they replaced, bit for bit) plus the small GED bench
# tiers, validating that the committed results/BENCH_ged.json still parses
# with its schema (see benches/ged.rs and EXPERIMENTS.md E16).
if [[ "${1:-}" == "--quick-ged" ]]; then
    cargo test -q --offline -p chatgraph-ged --test ged_differential
    cargo bench --offline -p chatgraph-bench --bench ged -- --quick
    exit 0
fi

cargo build --release && cargo test -q

# Everything else must also compile offline: benches, examples, all targets.
cargo build --offline --workspace --benches --examples

# Plan scheduler determinism: execution, cold and from a warm memo, must
# match the sequential reference executor on random valid chains
# (DESIGN.md §9).
cargo test -q --offline -p chatgraph-apis --test plan_properties

# Plan execution baseline: cold (memo off) vs warm-memo timings, written
# to results/BENCH_plan_exec.json with the measured memo speedup.
cargo bench --offline -p chatgraph-bench --bench chain_plan_exec

# CSR kernel differential properties: every kernel must equal its
# adjacency-walking `algo::` oracle bit for bit, on random graphs and on
# fixed graphs spanning several cancellation strides (DESIGN.md §10).
cargo test -q --offline -p chatgraph-graph --test kernel_properties

# CSR kernel baseline: per-kernel reference vs CSR medians (and the CSR
# kernels slower than their reference), plus a per-call CSR rebuild vs
# reading the snapshot the graph version already holds, written to
# results/BENCH_graph_kernels.json.
cargo bench --offline -p chatgraph-bench --bench graph_kernels

# Supervisor fault differentials: a fault-free supervisor is invisible,
# injected faults degrade/abort exactly as modelled, cold and warm,
# deadlines cancel cooperatively and retries replay deterministically
# (DESIGN.md §11).
cargo test -q --offline -p chatgraph-apis --test fault_properties

# Supervisor overhead baseline: passive vs armed-fault-free vs all-faulted
# medians, plus the armed-vs-passive overhead over interleaved pairs (median,
# quartiles, and whether the quartiles exclude zero), written to
# results/BENCH_fault_exec.json; read the overhead there.
cargo bench --offline -p chatgraph-bench --bench chain_fault_exec

# Serving differentials: N tenants on the shared pool must reply
# bit-identically to the same N sessions run solo at pool widths 1/2/4,
# warm and cold shared memo; poisoning and degraded findings must stay
# within their tenant (DESIGN.md §12).
cargo test -q --offline -p chatgraph-core --test serving_properties

# Coalescing properties: concurrent identical steps execute exactly once,
# results (and failures) are bit-identical to solo runs, cold and warm,
# a panicking leader fails all waiters without hanging, and only the steps
# a fault plan afflicts run unmemoized (DESIGN.md §15).
cargo test -q --offline -p chatgraph-apis --test coalesce_properties

# Serving baseline: requests/sec, sessions/sec, and p50/p95 open-loop
# latency at three pool widths plus the memo hit rates of standalone
# private-memo sessions vs the shared memo, written
# to results/BENCH_serving.json. The cross-session hit count must be > 0.
cargo bench --offline -p chatgraph-bench --bench serving

# Snapshot-staleness differential: after every random edit epoch a
# version's `Graph::csr` must equal a fresh `CsrGraph::build`, and the
# kernels must agree on both bit for bit, with one build shared by
# concurrent callers and by clones (DESIGN.md §14). The kernels' fixed
# multi-stride cases run with kernel_properties above.
cargo test -q --offline -p chatgraph-graph --test delta_properties

# Cold-path differentials: the GED cost matrix, induced cost and flat
# Hungarian solver equal their oracles bit for bit, and the context's cover
# counts equal the counts summed over `sequentialize`'s sequences
# (DESIGN.md §17).
cargo test -q --offline -p chatgraph-ged --test ged_differential
cargo test -q --offline -p chatgraph-sequencer --test cover_properties

# Scale sweep smoke: 10^3/10^4 tiers plus validation of the committed
# full-sweep artifact (results/BENCH_scale.json, EXPERIMENTS.md E12).
cargo bench --offline -p chatgraph-bench --bench scale_sweep -- --quick

# Durable store crash matrix: recovery at every truncation/bit-flip
# offset, armed crash points, checkpoint differentials (DESIGN.md §16),
# plus the quick store bench tier validating results/BENCH_store.json.
cargo test -q --offline -p chatgraph-store --test recovery_properties
cargo bench --offline -p chatgraph-bench --bench store -- --quick

# Repository lint: no unwrap/expect/panic! in non-test library code beyond
# the shrink-only allowlist (lint-allow.toml), no `unsafe`, hermetic
# manifests, `catch_unwind` only at the supervisor's isolation boundary
# (CG106), threads only in the serving drain pool (CG107), and the
# concurrency pass (DESIGN.md §13): lock-order cycles
# (CG201), guards across dispatch points (CG202), declared-order violations
# (CG203), unsanctioned poisoned-lock recovery (CG204), and the
# Ordering::Relaxed ratchet (CG205). The machine-readable report is kept as
# an artifact alongside the bench JSONs.
mkdir -p results
cargo run -q --offline -p chatgraph-analyzer --bin repolint -- --json \
  > results/repolint.json
cargo run -q --offline -p chatgraph-analyzer --bin repolint
