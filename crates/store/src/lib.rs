//! # chatgraph-store — the durable graph store
//!
//! A single-file, page-based durable store for ChatGraph sessions: an
//! append-only, checksummed write-ahead log whose commits align one-to-one
//! with the scheduler's mutation barriers. The contract, proved by the
//! crash-injection suite in `tests/recovery_properties.rs`:
//!
//! > After a crash at **any** byte offset — torn write or flipped bit —
//! > reopening the store recovers a graph identical to the one at some
//! > prefix of the committed mutation barriers, and every barrier the
//! > store acknowledged before the crash is in that prefix.
//!
//! Modules, bottom-up:
//!
//! * [`codec`] — bounds-checked little-endian (de)serialisation.
//! * [`record`] — the WAL record grammar and `len | crc | payload` framing.
//! * [`crash`] — deterministic crash injection ([`crash::CrashPoint`]).
//! * [`store`] — [`GraphStore`]: create/open/commit/checkpoint/recover.
//!
//! The crate depends only on `chatgraph-support` and `chatgraph-graph`;
//! session integration (the scheduler's commit sink, config, serving) lives
//! above it in `chatgraph-core`.

pub mod codec;
pub mod crash;
pub mod record;
pub mod store;

pub use crash::{CrashMode, CrashPoint};
pub use store::{
    CheckpointReport, CommitReceipt, GraphStore, RecoveryReport, StoreOpened, PAGE_SIZE,
};

use chatgraph_graph::Graph;

/// What went wrong in a store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O error from the filesystem.
    Io(String),
    /// The file failed validation beyond repair (bad header, or no
    /// committed state survived the scan).
    Corrupt(String),
    /// An armed [`CrashPoint`] fired during this operation.
    CrashInjected {
        /// The file offset the crash was placed at.
        at_byte: u64,
    },
    /// A previous injected crash killed this store handle; reopen the path
    /// to recover.
    Crashed,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(why) => write!(f, "store file is corrupt: {why}"),
            StoreError::CrashInjected { at_byte } => {
                write!(f, "injected crash fired at byte {at_byte}")
            }
            StoreError::Crashed => write!(f, "store is dead after an injected crash"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The store's graph fingerprint — the one the `Commit` seal records:
/// [`Graph::fingerprint`], O(1) and slot-exact, so that a recovered graph
/// reproduces chain results bit-identically (chain findings hold stable
/// node/edge ids).
pub fn graph_fp(g: &Graph) -> u64 {
    g.fingerprint()
}
