//! The single-file durable graph store.
//!
//! ## File layout
//!
//! The store is one file of [`PAGE_SIZE`]-byte pages:
//!
//! * **page 0** — the header: magic, format version, page size, WAL offset,
//!   CRC. The header is written once per file generation (create or
//!   checkpoint) and never updated in place.
//! * **pages 1…** — the append-only WAL (see [`crate::record`] for the
//!   record grammar). A fresh file opens with a *base group* — `Snapshot`,
//!   `Commit`, optionally `Model` — padded to a page boundary, so live
//!   appends always start page-aligned.
//!
//! ## Commit protocol
//!
//! [`GraphStore::commit`] writes the epoch's graph record and seals it with
//! a `Commit { epoch, graph_fp }` record, in **one** buffered write
//! followed by one `fsync`. The graph record is a `Delta` of slot upserts
//! read off the new graph's edit journal since the committed graph's tip
//! (O(edits), whatever the graph's size), or a `Snapshot` when the journal
//! cannot prove lineage (an unrelated upload, or more edits than the
//! journal retains). `graph_fp` is the O(1) [`Graph::fingerprint`]. The
//! store keeps the committed `Arc<Graph>` itself as the next delta base.
//! State in memory is updated only after the fsync returns: a crash at any
//! byte of the append leaves the previous epoch durable and intact.
//!
//! ## Recovery
//!
//! [`GraphStore::open`] scans the WAL from the first page, replaying sealed
//! groups in order. Each replayed graph recomputes its fingerprint from its
//! slots, and must match the seal. The scan stops at the first torn frame,
//! failed CRC, undecodable payload, fingerprint mismatch or epoch
//! regression; the file is truncated back to the last durable boundary
//! (`tail_dropped` bytes removed). The recovered graph is therefore always
//! *identical to some prefix of committed epochs* — the crash-injection
//! property suite asserts this at every byte offset. A file of another
//! format version is refused as corrupt, untouched.
//!
//! ## Checkpoint
//!
//! [`GraphStore::checkpoint`] compacts the WAL: the current committed state
//! is written as a fresh base group to `<path>.tmp`, fsynced, and renamed
//! over the store — the only "header write" in the design, and atomic. A
//! crash during checkpoint abandons the temporary file ([`GraphStore::open`]
//! removes stale ones) and loses nothing.

use crate::crash::CrashPoint;
use crate::record::{next_record, WalRecord};
use crate::StoreError;
use chatgraph_graph::delta::{image_from_bytes, image_to_bytes, GraphDelta};
use chatgraph_graph::Graph;
use chatgraph_support::hash::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Pages are 4 KiB: the header fills page 0, the WAL starts at page 1, and
/// create/checkpoint pad the base group so live appends begin page-aligned.
pub const PAGE_SIZE: usize = 4096;

const MAGIC: &[u8; 8] = b"CGSTORE1";
/// Version 2 seals commits with [`Graph::fingerprint`]; a file of any other
/// version is refused, untouched.
const FORMAT_VERSION: u32 = 2;
// Header: magic[8] | version u32 | page_size u32 | wal_off u64 | crc u32.
const HEADER_BYTES: usize = 28;

/// What [`GraphStore::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The recovered (last durable) store epoch.
    pub epoch: u64,
    /// WAL records replayed into the recovered state.
    pub records_replayed: usize,
    /// Commit groups among them.
    pub commits_replayed: usize,
    /// Torn/corrupt tail bytes truncated off the file.
    pub tail_dropped: u64,
}

/// Receipt for one durable commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The epoch this commit produced.
    pub epoch: u64,
    /// WAL records appended (delta or snapshot, then commit).
    pub records: usize,
    /// Bytes appended.
    pub bytes: u64,
    /// Absolute file offset after the append — the durable boundary the
    /// crash-injection suite sweeps against.
    pub wal_end: u64,
    /// Whether the graph went to disk as a delta (vs a full snapshot).
    pub delta: bool,
}

/// Receipt for one WAL checkpoint/compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The epoch the checkpoint captured.
    pub epoch: u64,
    /// Size of the compacted file.
    pub file_bytes: u64,
    /// WAL bytes reclaimed by the compaction.
    pub reclaimed: u64,
}

/// How [`GraphStore::open_or_create`] obtained the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOpened {
    /// No file existed; a fresh store was created at epoch 1.
    Created,
    /// An existing file was opened and recovered.
    Recovered(RecoveryReport),
}

// In-memory mirror of the last durable state. Every field is written only
// *after* the corresponding file write and fsync succeed, so the mirror
// never runs ahead of the disk.
struct StoreInner {
    file: File,
    path: PathBuf,
    /// Durable append position (absolute file offset).
    end: u64,
    /// The last committed graph (the delta base for the next commit).
    graph: Arc<Graph>,
    /// The last committed store epoch.
    epoch: u64,
    model: Option<String>,
    commits_since_checkpoint: u64,
    crash: Option<CrashPoint>,
    crashed: bool,
}

/// The durable graph store. Thread-safe: one mutex serialises appends,
/// which matches the append-only file anyway.
// The session layer calls into the store while holding a tenant session
// lock (the scheduler's commit hook runs inside `run_chain`), so the store
// lock nests strictly inside it.
// lockdoc: order(session < store_inner)
pub struct GraphStore {
    store_inner: Mutex<StoreInner>,
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.guard();
        f.debug_struct("GraphStore")
            .field("path", &inner.path)
            .field("epoch", &inner.epoch)
            .field("end", &inner.end)
            .field("crashed", &inner.crashed)
            .finish_non_exhaustive()
    }
}

impl GraphStore {
    /// Creates a fresh store at `path` (atomically — via a temporary file
    /// and rename), seeding it with `graph` as epoch 1.
    pub fn create(path: impl AsRef<Path>, graph: &Graph) -> Result<GraphStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let epoch = 1;
        let bytes = base_file_bytes(graph, None, epoch);
        write_atomic(&path, &bytes)?;
        let file = open_rw(&path)?;
        Ok(GraphStore {
            store_inner: Mutex::new(StoreInner {
                file,
                path,
                end: bytes.len() as u64,
                graph: Arc::new(graph.clone()),
                epoch,
                model: None,
                commits_since_checkpoint: 0,
                crash: None,
                crashed: false,
            }),
        })
    }

    /// Opens an existing store, recovering to the last durable epoch: the
    /// WAL is scanned, sealed groups are replayed, and the torn/corrupt
    /// tail (if any) is truncated off.
    pub fn open(path: impl AsRef<Path>) -> Result<(GraphStore, RecoveryReport), StoreError> {
        let path = path.as_ref().to_path_buf();
        // A stale temporary file is an abandoned checkpoint attempt.
        let _ = fs::remove_file(tmp_path(&path));
        let data = fs::read(&path).map_err(io_err)?;
        if data.len() < PAGE_SIZE {
            return Err(StoreError::Corrupt("file is shorter than the header page".into()));
        }
        let wal_off = parse_header(&data)?;

        let mut pos = wal_off;
        let mut durable_end = pos;
        let mut committed: Option<Graph> = None;
        let mut epoch = 0u64;
        let mut model: Option<String> = None;
        let mut commits_replayed = 0usize;
        let mut records_replayed = 0usize;
        let mut staged_graph: Option<Graph> = None;
        let mut staged_records = 0usize;
        loop {
            let framed = match next_record(&data, pos) {
                Ok(f) => f,
                Err(_) => break,
            };
            let next_pos = pos + framed.len;
            match framed.record {
                WalRecord::Snapshot { image } => match image_from_bytes(&image) {
                    Ok(g) => {
                        staged_graph = Some(g);
                        staged_records += 1;
                    }
                    Err(_) => break,
                },
                WalRecord::Delta { ops } => {
                    let Some(base) = staged_graph.as_ref().or(committed.as_ref()) else {
                        break;
                    };
                    let Ok(d) = GraphDelta::from_bytes(&ops) else { break };
                    let Ok(g) = d.apply(base) else { break };
                    staged_graph = Some(g);
                    staged_records += 1;
                }
                WalRecord::Commit { epoch: e, graph_fp: fp } => {
                    // Every commit seals exactly one graph record.
                    let Some(g) = staged_graph.take() else { break };
                    // The fingerprint — recomputed from the replayed slots —
                    // re-proves the graph matches what the writer committed;
                    // epochs must strictly grow.
                    if fp != g.fingerprint() || e <= epoch {
                        break;
                    }
                    committed = Some(g);
                    epoch = e;
                    commits_replayed += 1;
                    records_replayed += staged_records + 1;
                    staged_records = 0;
                    durable_end = next_pos;
                }
                WalRecord::Model { json } => {
                    // Standalone-durable, but only at a group boundary.
                    if staged_records > 0 {
                        break;
                    }
                    model = Some(json);
                    records_replayed += 1;
                    durable_end = next_pos;
                }
                WalRecord::Pad { .. } => {
                    if staged_records > 0 {
                        break;
                    }
                    records_replayed += 1;
                    durable_end = next_pos;
                }
            }
            pos = next_pos;
        }
        let Some(graph) = committed else {
            return Err(StoreError::Corrupt("log contains no committed state".into()));
        };
        let tail_dropped = (data.len() - durable_end) as u64;
        let file = open_rw(&path)?;
        if tail_dropped > 0 {
            file.set_len(durable_end as u64).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        let report = RecoveryReport {
            epoch,
            records_replayed,
            commits_replayed,
            tail_dropped,
        };
        Ok((
            GraphStore {
                store_inner: Mutex::new(StoreInner {
                    file,
                    path,
                    end: durable_end as u64,
                    graph: Arc::new(graph),
                    epoch,
                    model,
                    commits_since_checkpoint: 0,
                    crash: None,
                    crashed: false,
                }),
            },
            report,
        ))
    }

    /// Opens `path` if it exists, otherwise creates it seeded with `init`.
    pub fn open_or_create(
        path: impl AsRef<Path>,
        init: &Graph,
    ) -> Result<(GraphStore, StoreOpened), StoreError> {
        let path = path.as_ref();
        if path.exists() {
            let (store, report) = GraphStore::open(path)?;
            Ok((store, StoreOpened::Recovered(report)))
        } else {
            Ok((GraphStore::create(path, init)?, StoreOpened::Created))
        }
    }

    /// Durably commits `graph` as the next epoch: one buffered append of
    /// the graph record (a journal delta against the committed graph, or a
    /// snapshot when lineage is unproven) and the sealing commit, one
    /// fsync. Returns only after the bytes are on disk; then `graph` itself
    /// (not a copy) becomes the committed graph.
    pub fn commit(&self, graph: &Arc<Graph>) -> Result<CommitReceipt, StoreError> {
        let mut inner = self.guard();
        inner.ensure_live()?;
        let epoch = inner.epoch + 1;
        let delta = GraphDelta::since(&inner.graph, graph);
        let mut buf = Vec::new();
        match &delta {
            Some(d) => WalRecord::Delta { ops: d.to_bytes() }.encode(&mut buf),
            None => WalRecord::Snapshot { image: image_to_bytes(graph) }.encode(&mut buf),
        }
        WalRecord::Commit { epoch, graph_fp: graph.fingerprint() }.encode(&mut buf);

        inner.append(&buf)?;
        inner.graph = Arc::clone(graph);
        inner.epoch = epoch;
        inner.commits_since_checkpoint += 1;
        Ok(CommitReceipt {
            epoch,
            records: 2,
            bytes: buf.len() as u64,
            wal_end: inner.end,
            delta: delta.is_some(),
        })
    }

    /// Durably saves the finetuned model (standalone record — no epoch).
    pub fn put_model(&self, json: &str) -> Result<(), StoreError> {
        let mut inner = self.guard();
        inner.ensure_live()?;
        let mut buf = Vec::new();
        WalRecord::Model { json: json.to_owned() }.encode(&mut buf);
        inner.append(&buf)?;
        inner.model = Some(json.to_owned());
        Ok(())
    }

    /// Compacts the WAL: writes the committed state as a fresh base group
    /// to a temporary file and atomically renames it over the store.
    pub fn checkpoint(&self) -> Result<CheckpointReport, StoreError> {
        let mut inner = self.guard();
        inner.ensure_live()?;
        let bytes = base_file_bytes(&inner.graph, inner.model.as_deref(), inner.epoch);
        let old_len = inner.end;
        if let Some(cp) = inner.crash {
            if cp.fires(0, bytes.len()) {
                // Crash while building the temporary file: the mangled tmp
                // is abandoned (never renamed), the store file untouched.
                let _ = fs::write(tmp_path(&inner.path), cp.mangle(0, &bytes));
                inner.crashed = true;
                return Err(StoreError::CrashInjected { at_byte: cp.at_byte });
            }
        }
        write_atomic(&inner.path, &bytes)?;
        inner.file = open_rw(&inner.path)?;
        inner.end = bytes.len() as u64;
        inner.commits_since_checkpoint = 0;
        Ok(CheckpointReport {
            epoch: inner.epoch,
            file_bytes: inner.end,
            reclaimed: old_len.saturating_sub(inner.end),
        })
    }

    /// The last committed graph.
    pub fn graph(&self) -> Arc<Graph> {
        Arc::clone(&self.guard().graph)
    }

    /// The saved model, if one was persisted.
    pub fn model(&self) -> Option<String> {
        self.guard().model.clone()
    }

    /// The last committed store epoch.
    pub fn epoch(&self) -> u64 {
        self.guard().epoch
    }

    /// Bytes of WAL appended since the file's base group (grows with every
    /// commit, reset by checkpoint).
    pub fn wal_bytes(&self) -> u64 {
        let inner = self.guard();
        inner.end.saturating_sub(PAGE_SIZE as u64)
    }

    /// Total durable file size.
    pub fn file_bytes(&self) -> u64 {
        self.guard().end
    }

    /// Commits since the last checkpoint (the session layer's compaction
    /// trigger).
    pub fn commits_since_checkpoint(&self) -> u64 {
        self.guard().commits_since_checkpoint
    }

    /// The store file path.
    pub fn path(&self) -> PathBuf {
        self.guard().path.clone()
    }

    /// Arms deterministic crash injection: the next write reaching the
    /// crash offset is torn or bit-flipped, and the store goes dead until
    /// reopened.
    pub fn arm_crash(&self, crash: CrashPoint) {
        self.guard().crash = Some(crash);
    }

    /// Disarms crash injection (a pending, unfired crash point only — a
    /// fired one has already killed the store).
    pub fn disarm_crash(&self) {
        self.guard().crash = None;
    }

    /// Whether an injected crash has fired (every operation now fails).
    pub fn is_crashed(&self) -> bool {
        self.guard().crashed
    }

    // lockdoc: acquires(store_inner)
    fn guard(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        // In-memory state is updated only after the corresponding file
        // write and fsync succeed, so a panicked writer leaves the mirror
        // on the previous durable state — recovery is safe.
        // lockdoc: recover(fields mirror the last durable state and are written whole after a successful fsync; a panic mid-append cannot tear them)
        self.store_inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl StoreInner {
    fn ensure_live(&self) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    /// Appends `buf` at the durable end and fsyncs, honouring an armed
    /// crash point. The append position only advances on full success, so
    /// a failed (or torn) append is overwritten by the next one.
    fn append(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        let start = self.end;
        if let Some(cp) = self.crash {
            if cp.fires(start, buf.len()) {
                let mangled = cp.mangle(start, buf);
                self.crashed = true;
                let _ = self.write_at(start, &mangled);
                let _ = self.file.sync_data();
                return Err(StoreError::CrashInjected { at_byte: cp.at_byte });
            }
        }
        self.write_at(start, buf)?;
        self.file.sync_data().map_err(io_err)?;
        self.end = start + buf.len() as u64;
        Ok(())
    }

    fn write_at(&mut self, at: u64, buf: &[u8]) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::Start(at)).map_err(io_err)?;
        self.file.write_all(buf).map_err(io_err)
    }
}

/// A complete fresh store file: header page, then the base group
/// (`Snapshot`, `Commit`, optional `Model`), padded to a page boundary.
fn base_file_bytes(graph: &Graph, model: Option<&str>, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * PAGE_SIZE);
    out.extend_from_slice(&header_page());
    WalRecord::Snapshot { image: image_to_bytes(graph) }.encode(&mut out);
    WalRecord::Commit { epoch, graph_fp: graph.fingerprint() }.encode(&mut out);
    if let Some(json) = model {
        WalRecord::Model { json: json.to_owned() }.encode(&mut out);
    }
    pad_to_page(&mut out);
    out
}

/// Pads `out` to the next page boundary with a `Pad` record (skipping ahead
/// one page when the gap is too small to hold a record frame).
fn pad_to_page(out: &mut Vec<u8>) {
    let rem = out.len() % PAGE_SIZE;
    if rem == 0 {
        return;
    }
    let mut gap = PAGE_SIZE - rem;
    if gap < crate::record::FRAME_BYTES + 1 {
        gap += PAGE_SIZE;
    }
    WalRecord::Pad { zeros: gap - crate::record::FRAME_BYTES - 1 }.encode(out);
}

fn header_page() -> [u8; PAGE_SIZE] {
    let mut page = [0u8; PAGE_SIZE];
    page[0..8].copy_from_slice(MAGIC);
    page[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    page[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    page[16..24].copy_from_slice(&(PAGE_SIZE as u64).to_le_bytes());
    let crc = crc32(&page[0..HEADER_BYTES - 4]);
    page[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    page
}

/// Validates the header page, returning the WAL offset.
fn parse_header(data: &[u8]) -> Result<usize, StoreError> {
    let h = &data[..HEADER_BYTES];
    let crc = u32::from_le_bytes([h[24], h[25], h[26], h[27]]);
    if crc32(&h[..HEADER_BYTES - 4]) != crc {
        return Err(StoreError::Corrupt("header checksum mismatch".into()));
    }
    if &h[0..8] != MAGIC {
        return Err(StoreError::Corrupt("bad magic".into()));
    }
    let version = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    if version != FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!("unsupported format version {version}")));
    }
    let page_size = u32::from_le_bytes([h[12], h[13], h[14], h[15]]) as usize;
    if page_size != PAGE_SIZE {
        return Err(StoreError::Corrupt(format!("unsupported page size {page_size}")));
    }
    let wal_off = u64::from_le_bytes([h[16], h[17], h[18], h[19], h[20], h[21], h[22], h[23]]);
    if wal_off as usize > data.len() || wal_off as usize % PAGE_SIZE != 0 || wal_off == 0 {
        return Err(StoreError::Corrupt(format!("bad wal offset {wal_off}")));
    }
    Ok(wal_off as usize)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Writes `bytes` to `path` atomically: temporary sibling, fsync, rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = tmp_path(path);
    let mut f = File::create(&tmp).map_err(io_err)?;
    f.write_all(bytes).map_err(io_err)?;
    f.sync_all().map_err(io_err)?;
    drop(f);
    fs::rename(&tmp, path).map_err(io_err)?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn open_rw(path: &Path) -> Result<File, StoreError> {
    OpenOptions::new().read(true).write(true).open(path).map_err(io_err)
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashMode;
    use chatgraph_graph::generators::{social_network, SocialParams};
    use chatgraph_graph::{GraphBuilder, NodeId};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "chatgraph-store-unit-{tag}-{}-{}.cgdb",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ))
    }

    fn sample() -> Arc<Graph> {
        Arc::new(social_network(&SocialParams::default(), 11))
    }

    /// Grows the graph copy-on-write, as a session's mutation barrier does.
    fn mutate(g: &mut Arc<Graph>, round: u32) {
        let g = Arc::make_mut(g);
        let v = g.add_node(format!("extra-{round}"));
        let first = g.node_ids().next();
        if let Some(u) = first {
            if u != v {
                let _ = g.add_edge(u, v, "follows");
            }
        }
    }

    #[test]
    fn create_then_open_restores_everything() {
        let path = temp_store("roundtrip");
        let g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        assert_eq!(store.epoch(), 1);
        drop(store);

        let (store, report) = GraphStore::open(&path).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.commits_replayed, 1);
        assert_eq!(report.tail_dropped, 0);
        assert_eq!(store.graph(), g);
        assert_eq!(store.graph().fingerprint(), g.fingerprint());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn commits_replay_on_reopen_with_exact_fingerprints() {
        let path = temp_store("commits");
        let mut g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        for round in 0..5 {
            mutate(&mut g, round);
            let receipt = store.commit(&g).unwrap();
            assert_eq!(receipt.epoch, (round + 2) as u64);
            assert!(receipt.delta, "small edits should go as deltas");
            assert!(Arc::ptr_eq(&store.graph(), &g), "the store keeps the committed Arc");
        }
        drop(store);

        let (store, report) = GraphStore::open(&path).unwrap();
        assert_eq!(report.epoch, 6);
        assert_eq!(report.commits_replayed, 6);
        assert_eq!(report.tail_dropped, 0);
        assert_eq!(store.graph(), g);
        assert_eq!(store.graph().fingerprint(), g.fingerprint());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unproven_lineage_commits_as_snapshots() {
        let path = temp_store("upload");
        let g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        // A freshly built graph shares no journal with the committed one.
        let upload = Arc::new(social_network(&SocialParams::default(), 12));
        let receipt = store.commit(&upload).unwrap();
        assert!(!receipt.delta, "unproven lineage must go as a snapshot");
        // Its descendants are deltas again.
        let mut next = Arc::clone(&upload);
        mutate(&mut next, 0);
        assert!(store.commit(&next).unwrap().delta);
        // Until more edits separate them than the journal retains.
        let v = next.node_ids().next().unwrap();
        for i in 0..5000i64 {
            Arc::make_mut(&mut next).set_node_attr(v, "i", i).unwrap();
        }
        assert!(!store.commit(&next).unwrap().delta, "past the journal window");
        drop(store);
        let (store, _) = GraphStore::open(&path).unwrap();
        assert_eq!(store.graph(), next);
        let _ = fs::remove_file(&path);
    }

    /// A one-relabel commit appends O(edits) bytes: the same small bound
    /// holds at 10^3 and at 10^5 nodes.
    #[test]
    fn one_relabel_commit_bytes_do_not_grow_with_the_graph() {
        const BOUND: u64 = 128;
        for n in [1_000usize, 100_000] {
            let path = temp_store("relabel");
            let mut g = Graph::directed();
            for i in 0..n {
                let v = g.add_node("City");
                if i > 0 {
                    g.add_edge(NodeId(i as u32 - 1), v, "road").unwrap();
                }
            }
            let mut g = Arc::new(g);
            let store = GraphStore::create(&path, &g).unwrap();
            Arc::make_mut(&mut g).set_node_label(NodeId(n as u32 / 2), "Town").unwrap();
            let receipt = store.commit(&g).unwrap();
            assert!(receipt.delta);
            assert!(receipt.bytes < BOUND, "{n} nodes: {} bytes", receipt.bytes);
            drop(store);
            let (store, _) = GraphStore::open(&path).unwrap();
            assert_eq!(store.graph(), g);
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn model_survives_reopen_and_checkpoint() {
        let path = temp_store("model");
        let g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        store.put_model("{\"weights\":[1,2,3]}").unwrap();
        drop(store);
        let (store, _) = GraphStore::open(&path).unwrap();
        assert_eq!(store.model().as_deref(), Some("{\"weights\":[1,2,3]}"));
        store.checkpoint().unwrap();
        drop(store);
        let (store, _) = GraphStore::open(&path).unwrap();
        assert_eq!(store.model().as_deref(), Some("{\"weights\":[1,2,3]}"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let path = temp_store("checkpoint");
        let mut g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        for round in 0..20 {
            mutate(&mut g, round);
            store.commit(&g).unwrap();
        }
        let before = store.file_bytes();
        assert_eq!(store.commits_since_checkpoint(), 20);
        let report = store.checkpoint().unwrap();
        assert_eq!(report.epoch, 21);
        assert!(report.file_bytes < before, "{} !< {}", report.file_bytes, before);
        assert_eq!(store.commits_since_checkpoint(), 0);
        assert_eq!(store.file_bytes() % PAGE_SIZE as u64, 0);
        drop(store);
        let (store, report) = GraphStore::open(&path).unwrap();
        assert_eq!(report.epoch, 21);
        assert_eq!(store.graph(), g);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_append_recovers_to_previous_epoch() {
        let path = temp_store("torn");
        let mut g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        mutate(&mut g, 0);
        let r1 = store.commit(&g).unwrap();
        let committed = Arc::clone(&g);
        // Crash 10 bytes into the next append.
        store.arm_crash(CrashPoint::truncate(r1.wal_end + 10));
        mutate(&mut g, 1);
        let err = store.commit(&g).unwrap_err();
        assert!(matches!(err, StoreError::CrashInjected { .. }));
        assert!(store.is_crashed());
        assert_eq!(store.commit(&g).unwrap_err(), StoreError::Crashed);
        drop(store);

        let (store, report) = GraphStore::open(&path).unwrap();
        assert_eq!(report.epoch, r1.epoch);
        assert_eq!(report.tail_dropped, 10);
        assert_eq!(store.graph(), committed);
        // The recovered store accepts new commits cleanly.
        let r2 = store.commit(&g).unwrap();
        assert_eq!(r2.epoch, r1.epoch + 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flipped_bit_recovers_to_previous_epoch() {
        let path = temp_store("flip");
        let mut g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        let r1 = store.commit(&g).unwrap();
        let committed = store.graph();
        store.arm_crash(CrashPoint::flip_bit(r1.wal_end + 25, 3));
        mutate(&mut g, 1);
        let err = store.commit(&g).unwrap_err();
        assert!(matches!(err, StoreError::CrashInjected { .. }));
        drop(store);

        let (store, report) = GraphStore::open(&path).unwrap();
        assert_eq!(report.epoch, r1.epoch);
        assert!(report.tail_dropped > 0, "corrupt tail must be truncated");
        assert_eq!(store.graph(), committed);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn crash_during_checkpoint_loses_nothing() {
        let path = temp_store("ckpt-crash");
        let mut g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        for round in 0..6 {
            mutate(&mut g, round);
            store.commit(&g).unwrap();
        }
        store.arm_crash(CrashPoint { at_byte: PAGE_SIZE as u64 + 3, mode: CrashMode::Truncate });
        assert!(matches!(
            store.checkpoint().unwrap_err(),
            StoreError::CrashInjected { .. }
        ));
        drop(store);
        let (store, report) = GraphStore::open(&path).unwrap();
        assert_eq!(report.epoch, 7);
        assert_eq!(store.graph(), g);
        assert!(!tmp_path(&store.path()).exists(), "stale tmp must be removed");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let path = temp_store("header");
        let g = GraphBuilder::undirected().node("a", "X").build();
        GraphStore::create(&path, &g).unwrap();
        let mut data = fs::read(&path).unwrap();
        data[3] ^= 0x40;
        fs::write(&path, &data).unwrap();
        assert!(matches!(GraphStore::open(&path), Err(StoreError::Corrupt(_))));
        // Too-short files too.
        fs::write(&path, b"CGSTORE1").unwrap();
        assert!(matches!(GraphStore::open(&path), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_file(&path);
    }

    /// A version-1 file (whose seal meant something else) is refused as
    /// corrupt and left exactly as it was — recovery truncates nothing.
    #[test]
    fn version_one_files_are_refused_untruncated() {
        let path = temp_store("v1");
        let mut g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        mutate(&mut g, 0);
        store.commit(&g).unwrap();
        drop(store);
        let mut data = fs::read(&path).unwrap();
        data[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&data[..HEADER_BYTES - 4]);
        data[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &data).unwrap();
        match GraphStore::open(&path) {
            Err(StoreError::Corrupt(why)) => assert!(why.contains("version 1"), "{why}"),
            other => panic!("a version-1 file must be refused, got {other:?}"),
        }
        assert_eq!(fs::read(&path).unwrap(), data, "a refused file is left untouched");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn open_or_create_distinguishes_the_two_paths() {
        let path = temp_store("ooc");
        let g = sample();
        let (store, opened) = GraphStore::open_or_create(&path, &g).unwrap();
        assert_eq!(opened, StoreOpened::Created);
        drop(store);
        let (store, opened) = GraphStore::open_or_create(&path, &Graph::undirected()).unwrap();
        assert!(matches!(opened, StoreOpened::Recovered(r) if r.epoch == 1));
        assert_eq!(store.graph(), g, "recovered graph wins over init");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn appends_start_page_aligned() {
        let path = temp_store("aligned");
        let g = sample();
        let store = GraphStore::create(&path, &g).unwrap();
        assert_eq!(store.file_bytes() % PAGE_SIZE as u64, 0);
        let _ = fs::remove_file(&path);
    }
}
