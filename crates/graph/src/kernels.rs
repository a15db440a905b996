//! Sequential kernels over [`CsrGraph`] snapshots.
//!
//! Each kernel is a plain loop over the flat CSR arrays that reimplements
//! one of the adjacency-walking algorithms in [`crate::algo`]; those stay
//! as the differential oracles the tests and benches compare against. The
//! contract every kernel honours:
//!
//! * **Exact equivalence** — identical output to its `algo::` oracle,
//!   bit-for-bit for floating-point kernels. PageRank pulls over
//!   ascending-sorted in-adjacency so each accumulator sees the same
//!   addition sequence as the oracle's push loop; components run BFS from
//!   ascending roots, so the numbering is the oracle's discovery order; the
//!   traversal kernels only combine integers.
//! * **One thread** — kernels run on the caller's thread and spawn none: a
//!   request's only parallelism is the serving layer's drain pool.
//! * **Cooperative cancellation** — every kernel polls
//!   [`KernelPolicy::cancel`] before every [`CANCEL_STRIDE`] items of its
//!   outer loop. Once the token fires the kernel stops and returns a
//!   *neutral* value (empty / zero / `None`); the supervisor that armed the
//!   token discards the result, so partial output is never observed by
//!   callers.

use crate::algo::components::Components;
use crate::algo::stats::GraphStats;
use crate::csr::CsrGraph;
use crate::graph::{EdgeId, Graph, NodeId};
use chatgraph_support::cancel::CancelToken;
use std::time::Duration;

/// Items of a kernel's outer loop (nodes, sources or dequeued vertices)
/// between two cancellation polls.
pub const CANCEL_STRIDE: usize = 1024;

/// How a kernel invocation observes cancellation.
#[derive(Debug, Clone, Default)]
pub struct KernelPolicy {
    /// Cooperative cancellation, polled every [`CANCEL_STRIDE`] items. The
    /// default token never fires; the chain supervisor swaps in a
    /// deadline-armed clone per supervised step.
    pub cancel: CancelToken,
    /// Fault-injection stall applied before each poll. Zero in production;
    /// the deterministic fault harness uses it to force a deadline to
    /// expire *inside* a kernel, proving the poll observes it.
    pub poll_delay: Duration,
}

impl KernelPolicy {
    /// The same policy watching `cancel` instead of its current token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> KernelPolicy {
        self.cancel = cancel;
        self
    }

    /// The same policy with an injected per-poll stall (fault harness).
    pub fn with_poll_delay(mut self, delay: Duration) -> KernelPolicy {
        self.poll_delay = delay;
        self
    }
}

/// The cancellation check before item `i` of a kernel's outer loop: at
/// every [`CANCEL_STRIDE`]-th item it applies the injected delay, then
/// polls the token. True once the token has fired.
fn poll(policy: &KernelPolicy, i: usize) -> bool {
    if !i.is_multiple_of(CANCEL_STRIDE) {
        return false;
    }
    if !policy.poll_delay.is_zero() {
        std::thread::sleep(policy.poll_delay);
    }
    policy.cancel.is_cancelled()
}

const UNSEEN: usize = usize::MAX;

/// BFS / unweighted SSSP over the undirected view. Matches
/// [`crate::algo::traversal::bfs_distances`]: hop distances from `start` up
/// to `max_hops` (inclusive), slot-indexed, `None` when unreachable, too
/// far, or removed.
pub fn bfs_distances(
    csr: &CsrGraph,
    start: NodeId,
    max_hops: usize,
    policy: &KernelPolicy,
) -> Vec<Option<usize>> {
    let mut out = vec![None; csr.node_bound()];
    let Some(s) = csr.dense_of(start) else { return out };
    let mut dist = vec![UNSEEN; csr.n()];
    dist[s as usize] = 0;
    let mut queue = vec![s];
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        if poll(policy, head) {
            return out;
        }
        head += 1;
        let d = dist[v as usize];
        if d >= max_hops {
            continue;
        }
        for &w in csr.und(v) {
            if dist[w as usize] == UNSEEN {
                dist[w as usize] = d + 1;
                queue.push(w);
            }
        }
    }
    for &v in &queue {
        out[csr.node_of(v).index()] = Some(dist[v as usize]);
    }
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
/// [`crate::algo::paths::weighted_distances`].
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

/// PageRank as a *pull* over ascending-sorted in-adjacency, written in
/// place. Bit-identical to [`crate::algo::centrality::pagerank`]: each
/// target sums its contributions in ascending source order (the sequence
/// the oracle's push loop produces), the dangling sum is accumulated in
/// ascending order, and the per-node update uses the oracle's expression.
/// Returns slot-indexed scores.
pub fn pagerank(csr: &CsrGraph, damping: f64, iterations: usize, policy: &KernelPolicy) -> Vec<f64> {
    let n = csr.n();
    let mut out = vec![0.0; csr.node_bound()];
    if n == 0 {
        return out;
    }
    let mut rank = vec![1.0 / n as f64; n];
    let mut share = vec![0.0; n];
    for _ in 0..iterations {
        let mut dangling = 0.0;
        for d in 0..n {
            let deg = csr.degree(d as u32);
            if deg == 0 {
                dangling += rank[d];
            } else {
                share[d] = rank[d] / deg as f64;
            }
        }
        let teleport = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        for (w, r) in rank.iter_mut().enumerate() {
            if poll(policy, w) {
                return out;
            }
            let mut sum = 0.0;
            for &u in csr.pull_sources(w as u32) {
                sum += share[u as usize];
            }
            *r = teleport + damping * sum;
        }
    }
    for (d, &v) in csr.nodes().iter().enumerate() {
        out[v.index()] = rank[d];
    }
    out
}

/// Connected components by BFS from ascending roots, numbered in discovery
/// order. Matches [`crate::algo::components::connected_components`].
pub fn connected_components(csr: &CsrGraph, policy: &KernelPolicy) -> Components {
    let n = csr.n();
    let mut comp = vec![UNSEEN; n];
    // Every node enters the queue once, so `head` counts dequeued nodes.
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    let mut head = 0;
    let mut count = 0;
    for root in 0..n {
        if comp[root] != UNSEEN {
            continue;
        }
        comp[root] = count;
        queue.push(root as u32);
        while let Some(&v) = queue.get(head) {
            if poll(policy, head) {
                return Components { assignment: vec![None; csr.node_bound()], count: 0 };
            }
            head += 1;
            for &w in csr.und(v) {
                if comp[w as usize] == UNSEEN {
                    comp[w as usize] = count;
                    queue.push(w);
                }
            }
        }
        count += 1;
    }
    let mut assignment = vec![None; csr.node_bound()];
    for (d, &v) in csr.nodes().iter().enumerate() {
        assignment[v.index()] = Some(comp[d]);
    }
    Components { assignment, count }
}

/// Whether all live nodes are mutually reachable (empty graphs count as
/// connected). Matches [`crate::algo::components::is_connected`].
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

/// Triangle count over sorted undirected-view adjacency: each undirected
/// edge once (low endpoint first), each directed edge once — the same
/// per-edge iteration the oracle performs over `edge_ids`. Matches
/// [`crate::algo::triangles::triangle_count`].
pub fn triangle_count(csr: &CsrGraph, policy: &KernelPolicy) -> usize {
    let mut count = 0usize;
    for v in 0..csr.n() as u32 {
        if poll(policy, v as usize) {
            return 0;
        }
        for &w in csr.out(v) {
            if csr.is_directed() || w > v {
                count += count_common_gt(csr.und(v), csr.und(w), v.max(w));
            }
        }
    }
    count
}

/// Connected triples `Σ k(k−1)/2` over undirected-view degrees.
fn triples(csr: &CsrGraph, policy: &KernelPolicy) -> usize {
    let mut t = 0usize;
    for v in 0..csr.n() {
        if poll(policy, v) {
            return 0;
        }
        let k = csr.und(v as u32).len();
        t += k * k.saturating_sub(1) / 2;
    }
    t
}

/// Global clustering coefficient `3·triangles / triples`. Matches
/// [`crate::algo::triangles::global_clustering_coefficient`].
pub fn global_clustering_coefficient(csr: &CsrGraph, policy: &KernelPolicy) -> f64 {
    let t = triples(csr, policy);
    if t == 0 {
        0.0
    } else {
        3.0 * triangle_count(csr, policy) as f64 / t as f64
    }
}

/// BFS from `s` over the undirected view. `dist` must be all `UNSEEN` on
/// entry and is left that way; `queue` is reused. Returns
/// `(eccentricity, Σ d, pairs)` over reached nodes with `d > 0`.
fn bfs_scan(csr: &CsrGraph, s: u32, dist: &mut [usize], queue: &mut Vec<u32>) -> (usize, usize, usize) {
    queue.clear();
    dist[s as usize] = 0;
    queue.push(s);
    let (mut ecc, mut total, mut pairs) = (0usize, 0usize, 0usize);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let d = dist[v as usize];
        for &w in csr.und(v) {
            if dist[w as usize] == UNSEEN {
                dist[w as usize] = d + 1;
                ecc = ecc.max(d + 1);
                total += d + 1;
                pairs += 1;
                queue.push(w);
            }
        }
    }
    for &v in queue.iter() {
        dist[v as usize] = UNSEEN;
    }
    (ecc, total, pairs)
}

/// All-sources BFS sweep: per-source `(ecc, Σ d, pairs)` in ascending
/// source order, or empty once cancelled.
fn sweep(csr: &CsrGraph, policy: &KernelPolicy) -> Vec<(usize, usize, usize)> {
    let n = csr.n();
    let mut dist = vec![UNSEEN; n];
    let mut queue = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for s in 0..n {
        if poll(policy, s) {
            return Vec::new();
        }
        out.push(bfs_scan(csr, s as u32, &mut dist, &mut queue));
    }
    out
}

/// Eccentricity of `v`: maximum hop distance to any reachable node.
/// Matches [`crate::algo::paths::eccentricity`].
pub fn eccentricity(csr: &CsrGraph, v: NodeId) -> Option<usize> {
    let s = csr.dense_of(v)?;
    let (ecc, _, _) = bfs_scan(csr, s, &mut vec![UNSEEN; csr.n()], &mut Vec::new());
    Some(ecc)
}

/// Exact diameter via an all-sources BFS sweep. Matches
/// [`crate::algo::paths::diameter`].
pub fn diameter(csr: &CsrGraph, policy: &KernelPolicy) -> Option<usize> {
    sweep(csr, policy).into_iter().map(|(ecc, _, _)| ecc).max()
}

/// Average shortest-path length over ordered reachable pairs. Matches
/// [`crate::algo::paths::average_path_length`].
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
/// independent per-source computation, so the sweep is bit-exact against
/// [`crate::algo::centrality::closeness`].
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
/// [`crate::algo::stats::degree_histogram`].
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
/// [`crate::algo::stats::graph_stats`].
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
    for v in 0..n {
        if poll(policy, v) {
            (min_d, max_d, sum_d) = (usize::MAX, 0, 0);
            break;
        }
        let d = csr.total_degree(v as u32);
        min_d = min_d.min(d);
        max_d = max_d.max(d);
        sum_d += d;
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
    use super::*;
    use crate::algo::{centrality, components, paths, stats, traversal, triangles};
    use crate::generators::{social_network, SocialParams};
    use crate::GraphBuilder;

    fn policy() -> KernelPolicy {
        KernelPolicy::default()
    }

    fn social() -> Graph {
        social_network(
            &SocialParams { communities: 3, community_size: 15, p_intra: 0.3, p_inter: 0.02 },
            7,
        )
    }

    /// 1025 disjoint 4-cliques: an outer loop of 4100 nodes spans five
    /// cancellation strides, the last one partial.
    fn multi_stride() -> Graph {
        let mut g = Graph::undirected();
        let ids: Vec<NodeId> = (0..4 * (CANCEL_STRIDE + 1)).map(|_| g.add_node("v")).collect();
        for clique in ids.chunks(4) {
            for (i, &a) in clique.iter().enumerate() {
                for &b in &clique[i + 1..] {
                    g.add_edge(a, b, "e").expect("distinct live endpoints");
                }
            }
        }
        g
    }

    #[test]
    fn bfs_matches_reference_on_social_graph() {
        let g = social();
        let csr = CsrGraph::build(&g);
        for start in [NodeId(0), NodeId(17), NodeId(44)] {
            for hops in [0, 2, usize::MAX] {
                assert_eq!(
                    bfs_distances(&csr, start, hops, &policy()),
                    traversal::bfs_distances(&g, start, hops),
                );
            }
        }
        assert!(bfs_distances(&csr, NodeId(9999), usize::MAX, &policy()).iter().all(Option::is_none));
    }

    #[test]
    fn pagerank_is_bit_exact_sequential_and_parallel() {
        let g = social();
        let csr = CsrGraph::build(&g);
        assert_eq!(pagerank(&csr, 0.85, 50, &policy()), centrality::pagerank(&g, 0.85, 50));
    }

    #[test]
    fn pagerank_directed_with_dangling_matches() {
        let g = GraphBuilder::directed()
            .edge("a", "b", "r")
            .edge("b", "c", "r")
            .edge("d", "b", "r")
            .build();
        let csr = CsrGraph::build(&g);
        assert_eq!(pagerank(&csr, 0.85, 40, &policy()), centrality::pagerank(&g, 0.85, 40));
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
        let ours = connected_components(&csr, &policy());
        let oracle = components::connected_components(&g);
        assert_eq!(ours.assignment, oracle.assignment);
        assert_eq!(ours.count, oracle.count);
        assert_eq!(is_connected(&csr, &policy()), components::is_connected(&g));
    }

    #[test]
    fn triangles_and_clustering_match() {
        let g = social();
        let csr = CsrGraph::build(&g);
        assert_eq!(triangle_count(&csr, &policy()), triangles::triangle_count(&g));
        assert_eq!(
            global_clustering_coefficient(&csr, &policy()),
            triangles::global_clustering_coefficient(&g),
        );
    }

    #[test]
    fn path_kernels_match() {
        let g = social();
        let csr = CsrGraph::build(&g);
        assert_eq!(diameter(&csr, &policy()), paths::diameter(&g));
        assert_eq!(average_path_length(&csr, &policy()), paths::average_path_length(&g));
        assert_eq!(closeness(&csr, &policy()), centrality::closeness(&g));
        assert_eq!(eccentricity(&csr, NodeId(3)), paths::eccentricity(&g, NodeId(3)));
    }

    #[test]
    fn stats_and_histogram_match() {
        let g = social();
        let csr = CsrGraph::build(&g);
        assert_eq!(graph_stats(&g, &csr, &policy()), stats::graph_stats(&g));
        assert_eq!(degree_histogram(&csr), stats::degree_histogram(&g));
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
        let want = paths::weighted_distances(&g, NodeId(0), |e| weights[e.index()]);
        assert_eq!(got, want);
        assert_eq!(got[3], Some(2.0), "a→b→d beats the direct weight-10 edge");
    }

    #[test]
    fn cancelled_token_stops_kernels_and_yields_neutral_results() {
        let g = multi_stride();
        let csr = CsrGraph::build(&g);
        let cancel = CancelToken::new();
        cancel.cancel();
        let p = policy().with_cancel(cancel.clone());
        let polls = cancel.polls();
        assert_eq!(pagerank(&csr, 0.85, 50, &p), vec![0.0; csr.node_bound()]);
        assert_eq!(triangle_count(&csr, &p), 0);
        assert_eq!(diameter(&csr, &p), None);
        assert_eq!(connected_components(&csr, &p).count, 0);
        assert!(cancel.polls() > polls, "kernels must poll their cancel token");
    }

    #[test]
    fn deadline_plus_injected_chunk_delay_cancels_mid_kernel() {
        let g = multi_stride();
        let csr = CsrGraph::build(&g);
        let cancel = CancelToken::with_deadline(Duration::from_millis(5));
        let p = policy().with_cancel(cancel.clone()).with_poll_delay(Duration::from_millis(2));
        // Five polls at 2ms each would stall ~10ms; the 5ms deadline must be
        // observed at a later poll, after some strides of real work.
        assert_eq!(closeness(&csr, &p), vec![0.0; csr.node_bound()]);
        assert!(cancel.is_cancelled(), "delayed polls must trip the deadline");
    }

    #[test]
    fn kernels_poll_once_per_stride() {
        let g = multi_stride();
        let csr = CsrGraph::build(&g);
        let strides = csr.n().div_ceil(CANCEL_STRIDE) as u64;
        assert_eq!(strides, 5);
        let polls_of = |kernel: &dyn Fn(&KernelPolicy)| {
            let p = policy();
            kernel(&p);
            p.cancel.polls()
        };
        assert!(polls_of(&|p| { pagerank(&csr, 0.85, 3, p); }) >= 3 * strides);
        assert!(polls_of(&|p| { connected_components(&csr, p); }) >= strides);
        assert!(polls_of(&|p| { closeness(&csr, p); }) >= strides);
    }

    #[test]
    fn empty_graph_kernels_are_safe() {
        let csr = CsrGraph::build(&Graph::undirected());
        assert_eq!(pagerank(&csr, 0.85, 10, &policy()), Vec::<f64>::new());
        assert_eq!(triangle_count(&csr, &policy()), 0);
        assert_eq!(diameter(&csr, &policy()), None);
        assert_eq!(connected_components(&csr, &policy()).count, 0);
    }
}
