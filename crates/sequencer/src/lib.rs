//! # chatgraph-sequencer
//!
//! The **graph sequentializer** (paper §II-B): LLMs consume token sequences,
//! so an input graph must be decomposed into sequences first.
//!
//! * [`mod@path_cover`] — the length-constrained path cover: for every node `u`,
//!   paths starting at `u` of length at most `ℓ` that cover the subgraph
//!   within `ℓ` hops of `u` (following the paper's prior works \[11\], \[12\]).
//!   The number of paths is bounded by `O(|G|·2^ℓ)` for bounded-degree graphs.
//! * [`supergraph`] — the multi-level structure: motifs of `G` are contracted
//!   into super-nodes (following RUM \[13\]) and the super-graph is
//!   sequentialised too, so the LLM sees both the atom-level and the
//!   community/motif-level structure.
//! * [`counts`] — the token and bigram counts of those sequences, from
//!   one walk of each root's BFS tree, without building them: what the
//!   chat model reads of a new graph.
//! * [`serialize`] — turns paths into token sequences and a whole graph into
//!   the token stream fed to the (simulated) LLM, once per graph version,
//!   kept compact as ids into a per-version symbol table.

pub mod counts;
pub mod path_cover;
pub mod serialize;
pub mod supergraph;

pub use counts::{cover_counts, CoverCounts};
pub use path_cover::{path_cover, CoverParams, PathCover};
pub use serialize::{sequentialize, GraphSequences, Sequences};
pub use supergraph::{build_supergraph, SuperGraph};
