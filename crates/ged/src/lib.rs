//! # chatgraph-ged
//!
//! Graph edit distance (GED) substrate for ChatGraph's API chain-oriented
//! finetuning (paper §II-C).
//!
//! The finetuning module scores a *generated* API chain against *ground-truth*
//! chains with a **node matching-based loss** (paper Definition 1):
//!
//! ```text
//! min over matchings M of   X + α·Y
//! ```
//!
//! where `X` is the graph edit distance between the two chains under `M` and
//! `Y` penalises violations of one-to-one matching. This crate provides the
//! machinery:
//!
//! * [`mod@hungarian`] — the O(n³) Hungarian algorithm for minimum-cost
//!   assignment, the workhorse of bipartite GED approximation.
//! * [`profile`] — what the cost matrix reads of a graph (labels,
//!   incident-edge label multisets, degrees), once per graph version.
//! * [`cost`] — pluggable edit-cost models (uniform by default).
//! * [`bipartite`] — the Riesen–Bunke assignment-based GED approximation,
//!   yielding a lower bound and, from the induced edit path, an upper bound.
//! * [`astar`] — exact GED by A* search for small graphs (API chains are
//!   small, so exact evaluation is feasible in tests and experiments).
//! * [`mod@matching_loss`] — Definition 1 itself, plus the min-over-equivalent
//!   ground truths reduction used by search-based prediction.

pub mod astar;
pub mod bipartite;
pub mod cost;
pub mod hungarian;
pub mod matching_loss;
pub mod profile;

pub use astar::{exact_ged, exact_ged_with_limit};
pub use bipartite::{approx_ged, GedApproximation};
pub use cost::CostModel;
pub use hungarian::hungarian;
pub use matching_loss::{matching_loss, min_matching_loss, MatchingLoss};
pub use profile::GedProfile;
