//! Chunked frontier kernels over [`CsrGraph`] snapshots.
//!
//! Each kernel is a flat-array, level-synchronous reimplementation of one
//! of the adjacency-walking algorithms in [`crate::algo`], with the
//! original kept as its differential oracle (re-exported under
//! [`reference`] with a `*_reference` name). The contract every kernel
//! honours:
//!
//! * **Exact equivalence** — identical output to its reference oracle,
//!   bit-for-bit for floating-point kernels. PageRank pulls over
//!   ascending-sorted in-adjacency so each accumulator sees the same
//!   addition sequence as the reference's push loop; components renumber
//!   min-labels by first occurrence so the numbering matches BFS discovery
//!   order; the traversal kernels only combine integers.
//! * **Chunk-size independence** — work is split into contiguous in-order
//!   chunks of [`KernelPolicy::chunk`] items, run one after another on the
//!   caller's thread, and results are combined in chunk order, so the bytes
//!   never depend on where the cuts fall. Kernels spawn no threads: a
//!   request's only parallelism is the serving layer's drain pool.
//! * **Cooperative cancellation** — every chunked kernel polls
//!   [`KernelPolicy::cancel`] at chunk boundaries. Once the token fires the
//!   kernel stops computing chunks and returns a *neutral* value (empty /
//!   zero / `None`); the supervisor that armed the token discards the
//!   result, so partial output is never observed by callers.

use crate::algo::components::Components;
use crate::algo::stats::GraphStats;
use crate::csr::CsrGraph;
use crate::graph::{EdgeId, Graph, NodeId};
use chatgraph_support::cancel::CancelToken;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Differential oracles: the original adjacency-walking implementations in
/// [`crate::algo`], re-exported under the `*_reference` names the property
/// tests and benches compare each kernel against.
pub mod reference {
    pub use crate::algo::centrality::{closeness as closeness_reference, pagerank as pagerank_reference};
    pub use crate::algo::components::{
        connected_components as connected_components_reference, is_connected as is_connected_reference,
    };
    pub use crate::algo::paths::{
        average_path_length as average_path_length_reference, diameter as diameter_reference,
        eccentricity as eccentricity_reference, weighted_distances as dijkstra_reference,
    };
    pub use crate::algo::stats::{
        degree_histogram as degree_histogram_reference, graph_stats as graph_stats_reference,
    };
    pub use crate::algo::traversal::bfs_distances as bfs_distances_reference;
    pub use crate::algo::triangles::{
        global_clustering_coefficient as global_clustering_coefficient_reference,
        triangle_count as triangle_count_reference,
    };
}

/// Default work-chunk size (nodes or edges per cancellation check).
pub const DEFAULT_KERNEL_CHUNK: usize = 1024;

/// Sources per cache block in the blocked PageRank pull: the corresponding
/// slice of the share vector (512 KiB of f64) stays L2-resident while every
/// target in a chunk drains it.
const PAGERANK_SOURCE_BLOCK: usize = 1 << 16;

/// Shrink trigger for checked-in scratch buffers: a buffer whose capacity
/// exceeds this multiple of its last-use length is shrunk to that length,
/// so one 10^6-node run doesn't pin high-water memory across later small
/// kernels.
const SCRATCH_SHRINK_FACTOR: usize = 4;

/// Reusable kernel working memory: the frontier queues, value/next vectors
/// and pair buffers the kernels used to allocate per invocation. One
/// `Scratch` is checked out of the policy's [`ScratchPool`] per kernel (or
/// per chunk, for per-chunk buffers like the BFS sweep's distance array)
/// and checked back in when done, so the capacity survives across the
/// chunks, kernels and steps that share the pool. Buffers carry arbitrary stale contents at checkout —
/// every kernel re-initialises the prefix it uses (`clear` + `resize`),
/// which is what keeps outputs bit-identical to the allocate-fresh code.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Hop/weight distance buffer (BFS sweeps, component renumbering).
    pub dist: Vec<usize>,
    /// BFS queue.
    pub queue: VecDeque<u32>,
    /// f64 value buffer (pagerank ranks).
    pub f64a: Vec<f64>,
    /// Second f64 value buffer (pagerank shares).
    pub f64b: Vec<f64>,
    /// Cursor buffer (blocked-pull per-target cursors).
    pub cursors: Vec<usize>,
    /// u32 buffer (frontiers, component labels).
    pub u32a: Vec<u32>,
    /// Second u32 buffer (next frontier / next labels).
    pub u32b: Vec<u32>,
    /// Dense endpoint-pair buffer (triangle counting).
    pub pairs: Vec<(u32, u32)>,
}

/// Shrinks one buffer that is far over its last-use length.
fn shrink_vec<T>(v: &mut Vec<T>) {
    if v.capacity() > SCRATCH_SHRINK_FACTOR * v.len().max(1) {
        v.shrink_to(v.len().max(1));
    }
}

impl Scratch {
    /// Applies the shrink policy at check-in: any buffer whose capacity ran
    /// ahead of its last-use length by more than [`SCRATCH_SHRINK_FACTOR`]
    /// gives the excess back. Lengths are left as the kernels set them —
    /// they *are* the high-water record the next shrink decision uses.
    fn shrink_to_high_water(&mut self) {
        shrink_vec(&mut self.dist);
        shrink_vec(&mut self.f64a);
        shrink_vec(&mut self.f64b);
        shrink_vec(&mut self.cursors);
        shrink_vec(&mut self.u32a);
        shrink_vec(&mut self.u32b);
        shrink_vec(&mut self.pairs);
        if self.queue.capacity() > SCRATCH_SHRINK_FACTOR * self.queue.len().max(1) {
            self.queue.shrink_to(self.queue.len().max(1));
        }
    }
}

/// A shared pool of [`Scratch`] arenas, cloned by `Arc` into every copy of
/// a [`KernelPolicy`]. Checkouts are exclusive, so the pool never grows past
/// the peak number of simultaneous checkouts (a kernel's arena plus a
/// per-chunk one); a checked-in arena keeps its capacity for the next
/// chunk, kernel or step.
/// The pool lives as long as the policy's owner: an `ExecContext` holds one
/// per chain execution.
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    arenas: Arc<Mutex<Vec<Scratch>>>,
}

impl ScratchPool {
    /// A fresh, empty pool.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Takes an arena out of the pool (a fresh one when empty). The arena's
    /// buffers hold stale contents; callers re-initialise what they use.
    pub fn checkout(&self) -> Scratch {
        // The pool holds plain owned buffers; a panic between push/pop
        // cannot tear them, so a poisoned pool is still structurally valid.
        // lockdoc: recover(pool arenas are whole owned buffers; poison cannot tear them)
        self.arenas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns an arena to the pool, applying the shrink policy.
    pub fn checkin(&self, mut scratch: Scratch) {
        scratch.shrink_to_high_water();
        // lockdoc: recover(pool arenas are whole owned buffers; poison cannot tear them)
        self.arenas.lock().unwrap_or_else(|e| e.into_inner()).push(scratch);
    }
}

/// Auto-engage thresholds for the blocked pull: below this many nodes the
/// share vector fits in cache anyway, and below this average pull degree
/// the per-block cursor sweep costs more than the locality buys.
const PAGERANK_BLOCK_NODES: usize = 1 << 17;
const PAGERANK_BLOCK_MIN_DEG: usize = 8;

/// How a kernel invocation splits its work.
#[derive(Debug, Clone)]
pub struct KernelPolicy {
    /// Chunk size: work items per chunk, i.e. between two cancellation
    /// checks. Boundaries never affect results.
    pub chunk: usize,
    /// Cooperative cancellation, polled at every chunk boundary. The
    /// default token never fires; the chain supervisor swaps in a
    /// deadline-armed clone per supervised step.
    pub cancel: CancelToken,
    /// Fault-injection stall applied before each chunk runs. Zero in
    /// production; the deterministic fault harness uses it to force a
    /// deadline to expire *inside* a kernel, proving chunk-boundary
    /// cancellation is observed.
    pub chunk_delay: Duration,
    /// Reusable working memory shared (via `Arc`) by every clone of this
    /// policy. Kernels check arenas out per kernel/chunk and back in when
    /// done; contents never leak between uses (each kernel re-initialises
    /// what it reads), so scratch reuse cannot affect results.
    pub scratch: ScratchPool,
}

impl KernelPolicy {
    /// A policy with an explicit chunk size.
    pub fn new(chunk: usize) -> KernelPolicy {
        KernelPolicy {
            chunk: chunk.max(1),
            cancel: CancelToken::new(),
            chunk_delay: Duration::ZERO,
            scratch: ScratchPool::new(),
        }
    }

    /// The same policy watching `cancel` instead of its current token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> KernelPolicy {
        self.cancel = cancel;
        self
    }

    /// The same policy with an injected per-chunk stall (fault harness).
    pub fn with_chunk_delay(mut self, delay: Duration) -> KernelPolicy {
        self.chunk_delay = delay;
        self
    }
}

/// The default chunk size, [`DEFAULT_KERNEL_CHUNK`].
impl Default for KernelPolicy {
    fn default() -> Self {
        KernelPolicy::new(DEFAULT_KERNEL_CHUNK)
    }
}

/// Applies `f` to each [`KernelPolicy::chunk`]-sized range of `0..len`, one
/// after another, and returns the per-chunk results **in chunk order**.
///
/// Before each chunk the caller's [`CancelToken`] is polled (after the
/// injected `chunk_delay`, if any, so a fault-harness stall can push the
/// deadline over); once it fires, no further chunks are computed and the
/// call returns `None`. Kernels translate `None` into a neutral result —
/// the supervisor that armed the token never looks at it.
fn map_chunks<T>(
    policy: &KernelPolicy,
    len: usize,
    mut f: impl FnMut(std::ops::Range<usize>) -> T,
) -> Option<Vec<T>> {
    let chunk = policy.chunk.max(1);
    let mut out = Vec::with_capacity(len.div_ceil(chunk));
    for start in (0..len).step_by(chunk) {
        if !policy.chunk_delay.is_zero() {
            std::thread::sleep(policy.chunk_delay);
        }
        if policy.cancel.is_cancelled() {
            return None;
        }
        out.push(f(start..(start + chunk).min(len)));
    }
    Some(out)
}

const UNSEEN: usize = usize::MAX;

/// Level-synchronous BFS / unweighted SSSP over the undirected view.
/// Matches [`reference::bfs_distances_reference`]: hop distances from
/// `start` up to `max_hops` (inclusive), slot-indexed, `None` when
/// unreachable, too far, or removed.
pub fn bfs_distances(
    csr: &CsrGraph,
    start: NodeId,
    max_hops: usize,
    policy: &KernelPolicy,
) -> Vec<Option<usize>> {
    let mut out = vec![None; csr.node_bound()];
    let Some(s) = csr.dense_of(start) else { return out };
    let mut scratch = policy.scratch.checkout();
    let Scratch { dist, u32a: frontier, u32b: next, .. } = &mut scratch;
    dist.clear();
    dist.resize(csr.n(), UNSEEN);
    dist[s as usize] = 0;
    frontier.clear();
    frontier.push(s);
    let mut depth = 0usize;
    while !frontier.is_empty() && depth < max_hops {
        // Expand the frontier chunk by chunk (read-only over `dist`), then
        // claim discoveries in chunk order: duplicates across chunks
        // collapse and the result is chunk-size independent. All candidates
        // sit at the same level, so any claim order yields the same
        // distances.
        let Some(candidates) = map_chunks(policy, frontier.len(), |r| {
            let mut cand: Vec<u32> = Vec::new();
            for &v in &frontier[r] {
                for &w in csr.und(v) {
                    if dist[w as usize] == UNSEEN {
                        cand.push(w);
                    }
                }
            }
            cand
        }) else {
            return vec![None; csr.node_bound()];
        };
        next.clear();
        for chunk in candidates {
            for w in chunk {
                if dist[w as usize] == UNSEEN {
                    dist[w as usize] = depth + 1;
                    next.push(w);
                }
            }
        }
        std::mem::swap(frontier, next);
        depth += 1;
    }
    for (d, &v) in csr.nodes().iter().enumerate() {
        if dist[d] != UNSEEN {
            out[v.index()] = Some(dist[d]);
        }
    }
    policy.scratch.checkin(scratch);
    out
}

/// Min-heap item for Dijkstra: ordered by distance (total order over f64),
/// ties by dense id, inverted for `BinaryHeap`'s max-heap semantics.
struct HeapItem {
    dist: f64,
    node: u32,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.dist.total_cmp(&self.dist).then(other.node.cmp(&self.node))
    }
}

/// Dijkstra over the undirected view with slot-indexed edge `weights`
/// (missing slots weigh 1.0; weights are assumed non-negative). Returns
/// slot-indexed shortest distances. Matches
/// [`reference::dijkstra_reference`].
pub fn dijkstra(csr: &CsrGraph, weights: &[f64], start: NodeId) -> Vec<Option<f64>> {
    let mut out = vec![None; csr.node_bound()];
    let Some(s) = csr.dense_of(start) else { return out };
    let w_of = |e: EdgeId| weights.get(e.index()).copied().unwrap_or(1.0);
    let mut dist: Vec<f64> = vec![f64::INFINITY; csr.n()];
    dist[s as usize] = 0.0;
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(HeapItem { dist: 0.0, node: s });
    while let Some(HeapItem { dist: d, node: v }) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let relax = |heap: &mut std::collections::BinaryHeap<HeapItem>,
                     dist: &mut [f64],
                     w: u32,
                     e: EdgeId| {
            let nd = d + w_of(e);
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(HeapItem { dist: nd, node: w });
            }
        };
        for (&w, &e) in csr.out(v).iter().zip(csr.out_edge_ids(v)) {
            relax(&mut heap, &mut dist, w, e);
        }
        for (&w, &e) in csr.incoming(v).iter().zip(csr.incoming_edge_ids(v)) {
            relax(&mut heap, &mut dist, w, e);
        }
    }
    for (d, &v) in csr.nodes().iter().enumerate() {
        if dist[d].is_finite() {
            out[v.index()] = Some(dist[d]);
        }
    }
    out
}

/// PageRank, chunked *pull* over ascending-sorted in-adjacency.
/// Bit-identical to [`reference::pagerank_reference`]: per-target
/// contributions are summed in ascending source order (the same sequence
/// the reference's push loop produces), the dangling sum is accumulated
/// sequentially in ascending order, and the per-node update uses the exact
/// reference expression. Returns slot-indexed scores.
///
/// On large, dense-enough snapshots the pull loop automatically switches to
/// the cache-blocked variant (see [`pagerank_blocked`]); the switch never
/// changes the bytes, only the memory access pattern.
pub fn pagerank(csr: &CsrGraph, damping: f64, iterations: usize, policy: &KernelPolicy) -> Vec<f64> {
    let n = csr.n();
    let blocked =
        n >= PAGERANK_BLOCK_NODES && csr.m() / n.max(1) >= PAGERANK_BLOCK_MIN_DEG;
    pagerank_impl(csr, damping, iterations, policy, blocked)
}

/// PageRank with the cache-blocked pull forced on: within each target
/// chunk, sources are drained in ascending [`PAGERANK_SOURCE_BLOCK`]-sized
/// blocks so the active slice of the share vector stays cache-resident
/// across every target in the chunk. Each target still accumulates its
/// contributions in ascending source order (a per-target cursor only moves
/// forward), so the result is bit-identical to [`pagerank`] and the
/// reference oracle.
pub fn pagerank_blocked(
    csr: &CsrGraph,
    damping: f64,
    iterations: usize,
    policy: &KernelPolicy,
) -> Vec<f64> {
    pagerank_impl(csr, damping, iterations, policy, true)
}

fn pagerank_impl(
    csr: &CsrGraph,
    damping: f64,
    iterations: usize,
    policy: &KernelPolicy,
    blocked: bool,
) -> Vec<f64> {
    let n = csr.n();
    let mut out = vec![0.0; csr.node_bound()];
    if n == 0 {
        return out;
    }
    let mut scratch = policy.scratch.checkout();
    let Scratch { f64a: rank, f64b: share, .. } = &mut scratch;
    rank.clear();
    rank.resize(n, 1.0 / n as f64);
    share.clear();
    share.resize(n, 0.0);
    for _ in 0..iterations {
        let mut dangling = 0.0;
        for d in 0..n {
            let deg = csr.degree(d as u32);
            if deg == 0 {
                dangling += rank[d];
                share[d] = 0.0;
            } else {
                share[d] = rank[d] / deg as f64;
            }
        }
        let teleport = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        let Some(next) = map_chunks(policy, n, |r| {
            if blocked {
                return pull_blocked(csr, share, r, &policy.scratch);
            }
            let mut vals = Vec::with_capacity(r.len());
            for w in r {
                let mut sum = 0.0;
                for &u in csr.pull_sources(w as u32) {
                    sum += share[u as usize];
                }
                vals.push(sum);
            }
            vals
        }) else {
            return vec![0.0; csr.node_bound()];
        };
        let mut d = 0usize;
        for chunk in next {
            for v in chunk {
                rank[d] = teleport + damping * v;
                d += 1;
            }
        }
    }
    for (d, &v) in csr.nodes().iter().enumerate() {
        out[v.index()] = rank[d];
    }
    policy.scratch.checkin(scratch);
    out
}

/// One cache-blocked pull pass over the targets in `r`: ascending source
/// blocks, per-target forward-only cursors (held in a per-chunk scratch
/// arena). Addition order per target is globally ascending — identical to
/// the plain pull.
fn pull_blocked(csr: &CsrGraph, share: &[f64], r: std::ops::Range<usize>, pool: &ScratchPool) -> Vec<f64> {
    let n = csr.n();
    let m = r.len();
    let mut vals = vec![0.0; m];
    let mut scratch = pool.checkout();
    let cursors = &mut scratch.cursors;
    cursors.clear();
    cursors.resize(m, 0);
    let mut b0 = 0usize;
    while b0 < n {
        let b1 = (b0 + PAGERANK_SOURCE_BLOCK).min(n);
        for (i, cursor) in cursors.iter_mut().enumerate() {
            let srcs = csr.pull_sources((r.start + i) as u32);
            let mut c = *cursor;
            while c < srcs.len() && (srcs[c] as usize) < b1 {
                vals[i] += share[srcs[c] as usize];
                c += 1;
            }
            *cursor = c;
        }
        b0 = b1;
    }
    pool.checkin(scratch);
    vals
}

/// Connected components by chunked min-label propagation (Jacobi rounds
/// with pointer shortcutting), renumbered by first occurrence in ascending
/// node order — exactly the numbering the reference's repeated-BFS
/// produces. Matches [`reference::connected_components_reference`].
pub fn connected_components(csr: &CsrGraph, policy: &KernelPolicy) -> Components {
    let n = csr.n();
    let mut scratch = policy.scratch.checkout();
    let Scratch { u32a: labels, u32b: next, cursors: comp_of_label, .. } = &mut scratch;
    labels.clear();
    labels.extend(0..n as u32);
    loop {
        let Some(rounds) = map_chunks(policy, n, |r| {
            let mut round = Vec::with_capacity(r.len());
            let mut changed = false;
            for v in r {
                let mut best = labels[v];
                for &w in csr.und(v as u32) {
                    best = best.min(labels[w as usize]);
                }
                // Shortcut through the current label (pointer jumping):
                // reads the same pre-round snapshot, so the result stays
                // independent of chunking, but convergence drops from
                // O(diameter) to O(log n) rounds.
                best = best.min(labels[best as usize]);
                changed |= best != labels[v];
                round.push(best);
            }
            (round, changed)
        }) else {
            return Components { assignment: vec![None; csr.node_bound()], count: 0 };
        };
        let mut changed = false;
        next.clear();
        for (chunk, c) in rounds {
            next.extend(chunk);
            changed |= c;
        }
        std::mem::swap(labels, next);
        if !changed {
            break;
        }
    }
    let mut assignment = vec![None; csr.node_bound()];
    comp_of_label.clear();
    comp_of_label.resize(n, usize::MAX);
    let mut count = 0usize;
    for d in 0..n {
        let l = labels[d] as usize;
        if comp_of_label[l] == usize::MAX {
            comp_of_label[l] = count;
            count += 1;
        }
        assignment[csr.node_of(d as u32).index()] = Some(comp_of_label[l]);
    }
    policy.scratch.checkin(scratch);
    Components { assignment, count }
}

/// Whether all live nodes are mutually reachable (empty graphs count as
/// connected). Matches [`reference::is_connected_reference`].
pub fn is_connected(csr: &CsrGraph, policy: &KernelPolicy) -> bool {
    connected_components(csr, policy).count <= 1
}

/// Common elements of two ascending slices strictly greater than `hi`.
fn count_common_gt(a: &[u32], b: &[u32], hi: u32) -> usize {
    let mut a = &a[a.partition_point(|&x| x <= hi)..];
    let mut b = &b[b.partition_point(|&x| x <= hi)..];
    let mut count = 0usize;
    while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => a = &a[1..],
            std::cmp::Ordering::Greater => b = &b[1..],
            std::cmp::Ordering::Equal => {
                count += 1;
                a = &a[1..];
                b = &b[1..];
            }
        }
    }
    count
}

/// Live edges as dense endpoint pairs, filled into `pairs`: each undirected
/// edge once (low endpoint first), each directed edge once — the same
/// per-edge iteration the reference oracles perform over `edge_ids`.
fn edge_pairs(csr: &CsrGraph, pairs: &mut Vec<(u32, u32)>) {
    pairs.clear();
    pairs.reserve(csr.m());
    for v in 0..csr.n() as u32 {
        for &w in csr.out(v) {
            if csr.is_directed() || w > v {
                pairs.push((v, w));
            }
        }
    }
}

/// Edge-chunked triangle count over sorted undirected-view adjacency.
/// Matches [`reference::triangle_count_reference`].
pub fn triangle_count(csr: &CsrGraph, policy: &KernelPolicy) -> usize {
    let mut scratch = policy.scratch.checkout();
    let pairs = &mut scratch.pairs;
    edge_pairs(csr, pairs);
    let count = map_chunks(policy, pairs.len(), |r| {
        let mut c = 0usize;
        for &(a, b) in &pairs[r] {
            c += count_common_gt(csr.und(a), csr.und(b), a.max(b));
        }
        c
    })
    .map(|chunks| chunks.into_iter().sum())
    .unwrap_or(0);
    policy.scratch.checkin(scratch);
    count
}

/// Connected triples `Σ k(k−1)/2` over undirected-view degrees.
fn triples(csr: &CsrGraph, policy: &KernelPolicy) -> usize {
    map_chunks(policy, csr.n(), |r| {
        let mut t = 0usize;
        for v in r {
            let k = csr.und(v as u32).len();
            t += k * k.saturating_sub(1) / 2;
        }
        t
    })
    .map(|chunks| chunks.into_iter().sum())
    .unwrap_or(0)
}

/// Global clustering coefficient `3·triangles / triples`. Matches
/// [`reference::global_clustering_coefficient_reference`].
pub fn global_clustering_coefficient(csr: &CsrGraph, policy: &KernelPolicy) -> f64 {
    let t = triples(csr, policy);
    if t == 0 {
        0.0
    } else {
        3.0 * triangle_count(csr, policy) as f64 / t as f64
    }
}

/// Fills `dist` (pre-set to `UNSEEN`) with hop distances from `s` over the
/// undirected view, reusing `queue`. Returns `(eccentricity, Σ d, pairs)`
/// over reached nodes with `d > 0`.
fn bfs_scan(csr: &CsrGraph, s: u32, dist: &mut [usize], queue: &mut VecDeque<u32>) -> (usize, usize, usize) {
    queue.clear();
    dist[s as usize] = 0;
    queue.push_back(s);
    let (mut ecc, mut total, mut pairs) = (0usize, 0usize, 0usize);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &w in csr.und(v) {
            if dist[w as usize] == UNSEEN {
                dist[w as usize] = d + 1;
                ecc = ecc.max(d + 1);
                total += d + 1;
                pairs += 1;
                queue.push_back(w);
            }
        }
    }
    (ecc, total, pairs)
}

/// Per-source BFS sweep, chunked over sources. Each chunk checks one
/// scratch arena out of the policy's pool and reuses its distance buffer
/// and queue across the chunk's sources (and, via the pool, across chunks,
/// kernels and steps). Returns per-source `(ecc, Σ d, pairs)` in ascending
/// source order.
fn sweep(csr: &CsrGraph, policy: &KernelPolicy) -> Vec<(usize, usize, usize)> {
    let n = csr.n();
    map_chunks(policy, n, |r| {
        let mut scratch = policy.scratch.checkout();
        let Scratch { dist, queue, .. } = &mut scratch;
        dist.clear();
        dist.resize(n, UNSEEN);
        let mut out = Vec::with_capacity(r.len());
        for s in r {
            dist.fill(UNSEEN);
            out.push(bfs_scan(csr, s as u32, dist, queue));
        }
        policy.scratch.checkin(scratch);
        out
    })
    .map(|chunks| chunks.into_iter().flatten().collect())
    .unwrap_or_default()
}

/// Eccentricity of `v`: maximum hop distance to any reachable node.
/// Matches [`reference::eccentricity_reference`].
pub fn eccentricity(csr: &CsrGraph, v: NodeId) -> Option<usize> {
    let s = csr.dense_of(v)?;
    let mut dist = vec![UNSEEN; csr.n()];
    let mut queue = VecDeque::new();
    let (ecc, _, _) = bfs_scan(csr, s, &mut dist, &mut queue);
    Some(ecc)
}

/// Exact diameter via an all-sources BFS sweep. Matches
/// [`reference::diameter_reference`].
pub fn diameter(csr: &CsrGraph, policy: &KernelPolicy) -> Option<usize> {
    sweep(csr, policy).into_iter().map(|(ecc, _, _)| ecc).max()
}

/// Average shortest-path length over ordered reachable pairs. Matches
/// [`reference::average_path_length_reference`].
pub fn average_path_length(csr: &CsrGraph, policy: &KernelPolicy) -> Option<f64> {
    let (mut total, mut pairs) = (0usize, 0usize);
    for (_, t, p) in sweep(csr, policy) {
        total += t;
        pairs += p;
    }
    if pairs == 0 {
        None
    } else {
        Some(total as f64 / pairs as f64)
    }
}

/// Closeness centrality (Wasserman–Faust), slot-indexed. Each score is an
/// independent per-source computation, so the chunked sweep is bit-exact
/// against [`reference::closeness_reference`].
pub fn closeness(csr: &CsrGraph, policy: &KernelPolicy) -> Vec<f64> {
    let n = csr.n();
    let mut out = vec![0.0; csr.node_bound()];
    if n <= 1 {
        return out;
    }
    for (d, (_, sum, reachable)) in sweep(csr, policy).into_iter().enumerate() {
        if sum > 0 {
            out[csr.node_of(d as u32).index()] =
                (reachable as f64 / (n - 1) as f64) * (reachable as f64 / sum as f64);
        }
    }
    out
}

/// Degree histogram over total degrees. Matches
/// [`reference::degree_histogram_reference`].
pub fn degree_histogram(csr: &CsrGraph) -> Vec<usize> {
    let mut hist = Vec::new();
    for v in 0..csr.n() as u32 {
        let d = csr.total_degree(v);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Whole-graph statistics scan: degree extrema from the CSR degree arrays,
/// components / triangles / clustering from the kernels above, labels from
/// the graph (the snapshot stores structure only). Matches
/// [`reference::graph_stats_reference`].
pub fn graph_stats(g: &Graph, csr: &CsrGraph, policy: &KernelPolicy) -> GraphStats {
    let n = csr.n();
    let m = csr.m();
    let possible = if csr.is_directed() {
        n.saturating_mul(n.saturating_sub(1))
    } else {
        n.saturating_mul(n.saturating_sub(1)) / 2
    };
    let density = if possible == 0 { 0.0 } else { m as f64 / possible as f64 };
    let (mut min_d, mut max_d, mut sum_d) = (usize::MAX, 0usize, 0usize);
    let degree_chunks = map_chunks(policy, n, |r| {
        let (mut lo, mut hi, mut sum) = (usize::MAX, 0usize, 0usize);
        for v in r {
            let d = csr.total_degree(v as u32);
            lo = lo.min(d);
            hi = hi.max(d);
            sum += d;
        }
        (lo, hi, sum)
    })
    .unwrap_or_default();
    for (lo, hi, sum) in degree_chunks {
        min_d = min_d.min(lo);
        max_d = max_d.max(hi);
        sum_d += sum;
    }
    let cc = connected_components(csr, policy);
    let tri = triangle_count(csr, policy);
    let trip = triples(csr, policy);
    GraphStats {
        nodes: n,
        edges: m,
        density,
        min_degree: if n == 0 { 0 } else { min_d },
        max_degree: max_d,
        avg_degree: if n == 0 { 0.0 } else { sum_d as f64 / n as f64 },
        components: cc.count,
        largest_component: cc.largest_size(),
        triangles: tri,
        clustering: if trip == 0 { 0.0 } else { 3.0 * tri as f64 / trip as f64 },
        distinct_labels: g.label_histogram().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;
    use crate::generators::{social_network, SocialParams};
    use crate::GraphBuilder;

    fn par() -> KernelPolicy {
        // Tiny chunks force many chunk boundaries in tests.
        KernelPolicy::new(8)
    }

    fn social() -> Graph {
        social_network(
            &SocialParams { communities: 3, community_size: 15, p_intra: 0.3, p_inter: 0.02 },
            7,
        )
    }

    #[test]
    fn bfs_matches_reference_on_social_graph() {
        let g = social();
        let csr = CsrGraph::build(&g);
        for start in [NodeId(0), NodeId(17), NodeId(44)] {
            for hops in [0, 2, usize::MAX] {
                assert_eq!(
                    bfs_distances(&csr, start, hops, &par()),
                    bfs_distances_reference(&g, start, hops),
                );
            }
        }
        assert!(bfs_distances(&csr, NodeId(9999), usize::MAX, &par()).iter().all(Option::is_none));
    }

    #[test]
    fn pagerank_is_bit_exact_sequential_and_parallel() {
        let g = social();
        let csr = CsrGraph::build(&g);
        let oracle = pagerank_reference(&g, 0.85, 50);
        let seq = pagerank(&csr, 0.85, 50, &KernelPolicy::default());
        let p = pagerank(&csr, 0.85, 50, &par());
        assert_eq!(seq, oracle, "default chunks must be bit-exact");
        assert_eq!(p, oracle, "tiny chunks must be bit-exact");
    }

    #[test]
    fn pagerank_directed_with_dangling_matches() {
        let g = GraphBuilder::directed()
            .edge("a", "b", "r")
            .edge("b", "c", "r")
            .edge("d", "b", "r")
            .build();
        let csr = CsrGraph::build(&g);
        assert_eq!(pagerank(&csr, 0.85, 40, &par()), pagerank_reference(&g, 0.85, 40));
    }

    #[test]
    fn components_match_reference_numbering() {
        let mut g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("c", "d", "-")
            .edge("e", "f", "-")
            .build();
        g.remove_node(NodeId(2)).expect("live node");
        let csr = CsrGraph::build(&g);
        let ours = connected_components(&csr, &par());
        let oracle = connected_components_reference(&g);
        assert_eq!(ours.assignment, oracle.assignment);
        assert_eq!(ours.count, oracle.count);
        assert_eq!(is_connected(&csr, &par()), is_connected_reference(&g));
    }

    #[test]
    fn triangles_and_clustering_match() {
        let g = social();
        let csr = CsrGraph::build(&g);
        assert_eq!(triangle_count(&csr, &par()), triangle_count_reference(&g));
        assert_eq!(
            global_clustering_coefficient(&csr, &par()),
            global_clustering_coefficient_reference(&g),
        );
    }

    #[test]
    fn path_kernels_match() {
        let g = social();
        let csr = CsrGraph::build(&g);
        assert_eq!(diameter(&csr, &par()), diameter_reference(&g));
        assert_eq!(average_path_length(&csr, &par()), average_path_length_reference(&g));
        assert_eq!(closeness(&csr, &par()), closeness_reference(&g));
        assert_eq!(eccentricity(&csr, NodeId(3)), eccentricity_reference(&g, NodeId(3)));
    }

    #[test]
    fn stats_and_histogram_match() {
        let g = social();
        let csr = CsrGraph::build(&g);
        assert_eq!(graph_stats(&g, &csr, &par()), graph_stats_reference(&g));
        assert_eq!(degree_histogram(&csr), degree_histogram_reference(&g));
    }

    #[test]
    fn dijkstra_matches_weighted_reference() {
        // Weighted diamond: the long way round is cheaper.
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "d", "-")
            .edge("a", "c", "-")
            .edge("c", "d", "-")
            .edge("a", "d", "-")
            .build();
        let weights = vec![1.0, 1.0, 2.0, 2.0, 10.0];
        let csr = CsrGraph::build(&g);
        let got = dijkstra(&csr, &weights, NodeId(0));
        let want = dijkstra_reference(&g, NodeId(0), |e| weights[e.index()]);
        assert_eq!(got, want);
        assert_eq!(got[3], Some(2.0), "a→b→d beats the direct weight-10 edge");
    }

    /// The cache-blocked pull changes the access pattern, not the bytes.
    #[test]
    fn blocked_pagerank_is_bit_exact() {
        let g = social();
        let csr = CsrGraph::build(&g);
        let oracle = pagerank_reference(&g, 0.85, 50);
        assert_eq!(pagerank_blocked(&csr, 0.85, 50, &KernelPolicy::default()), oracle);
        assert_eq!(pagerank_blocked(&csr, 0.85, 50, &par()), oracle);
    }

    #[test]
    fn cancelled_token_stops_kernels_and_yields_neutral_results() {
        let g = social();
        let csr = CsrGraph::build(&g);
        let cancel = CancelToken::new();
        cancel.cancel();
        let p = KernelPolicy::new(8).with_cancel(cancel.clone());
        let polls = cancel.polls();
        assert_eq!(pagerank(&csr, 0.85, 50, &p), vec![0.0; csr.node_bound()]);
        assert_eq!(triangle_count(&csr, &p), 0);
        assert_eq!(diameter(&csr, &p), None);
        assert_eq!(connected_components(&csr, &p).count, 0);
        assert!(cancel.polls() > polls, "kernels must poll at chunk boundaries");
    }

    #[test]
    fn deadline_plus_injected_chunk_delay_cancels_mid_kernel() {
        let g = social();
        let csr = CsrGraph::build(&g);
        let cancel = CancelToken::with_deadline(Duration::from_millis(5));
        let p = KernelPolicy::new(1)
            .with_cancel(cancel.clone())
            .with_chunk_delay(Duration::from_millis(2));
        // 45 sources at one per chunk would stall ~90ms; the 5ms deadline
        // must be observed at a chunk boundary long before that.
        assert_eq!(closeness(&csr, &p), vec![0.0; csr.node_bound()]);
        assert!(cancel.is_cancelled(), "delayed chunks must trip the deadline");
    }

    #[test]
    fn empty_graph_kernels_are_safe() {
        let csr = CsrGraph::build(&Graph::undirected());
        assert_eq!(pagerank(&csr, 0.85, 10, &par()), Vec::<f64>::new());
        assert_eq!(triangle_count(&csr, &par()), 0);
        assert_eq!(diameter(&csr, &par()), None);
        assert_eq!(connected_components(&csr, &par()).count, 0);
    }
}
