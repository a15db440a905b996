//! Vendored, dependency-free support layer for the ChatGraph workspace.
//!
//! The build environment has no crates.io access, so everything the
//! reproduction needs beyond `std` lives here, in-tree:
//!
//! * [`rng`] — a deterministic ChaCha12 stream-cipher RNG with the exact
//!   trait surface the workspace used from `rand`/`rand_chacha`
//!   ([`rng::SeedableRng`], [`rng::RngExt`], [`rng::SliceRandom`]).
//! * [`json`] — a JSON value type, recursive-descent parser and writer, plus
//!   the [`json::ToJson`]/[`json::FromJson`] traits (and impl macros) that
//!   replace serde's `Serialize`/`Deserialize` derives.
//! * [`prop`] — a seeded property-test harness (case-generation loop,
//!   failing-seed reporting, bounded shrinking) replacing `proptest`.
//! * [`bench`] — a minimal timing harness (warmup + N iterations,
//!   median/p95 report) replacing `criterion`.
//! * [`hash`] — FNV-1a 64 fingerprints (one-shot and streaming) for stable
//!   cache keys.
//! * [`lru`] — a bounded least-recently-used map replacing the `lru` crate,
//!   backing the plan scheduler's step-memo cache.
//! * [`cancel`] — a cooperative cancellation token (shared flag + optional
//!   deadline) the chain supervisor threads through steps and kernels.
//!
//! Design rule: **no external crates, ever** — `tests/hermetic.rs` at the
//! workspace root fails the build if any manifest regresses to a registry
//! dependency.

pub mod bench;
pub mod cancel;
pub mod hash;
pub mod json;
pub mod lru;
pub mod prop;
pub mod rng;
