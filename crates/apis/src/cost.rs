//! The planner's statistics-driven cost model.
//!
//! [`CostModel`] turns three statistics the [`Graph`] keeps as O(1)
//! counters — live node count, live edge count and `Σ total_degree²` — into
//! per-step work estimates, without walking the graph. RGL-style
//! graph-centric planning (PAPERS.md) chooses operators from statistics
//! rather than live scans; these three are all the estimates read. The
//! estimates drive two scheduling decisions in
//! [`crate::plan::Plan::build_with_stats`]:
//!
//! * **ordering**: within a barrier-free segment, independent sub-chains are
//!   dispatched most-expensive-first, so a long analysis never starts last
//!   and dominates the segment's tail (classic LPT heuristic);
//! * **kernel parallelism**: steps whose estimated work is below
//!   [`PAR_KERNEL_MIN_WORK`] run their CSR kernels sequentially — for small
//!   inputs the scoped-thread fan-out costs more than the kernel itself.
//!
//! Estimates are in abstract *work units* (≈ memory touches), not time:
//! only their relative order and the parallelism threshold matter, and both
//! are deterministic functions of the graph's content, so plans stay
//! reproducible.
//!
//! The model classifies APIs by name with a category fallback, so an API
//! added to the registry without a cost entry degrades to a sane default
//! instead of breaking planning.

use crate::descriptor::{ApiCategory, ApiDescriptor};
use chatgraph_graph::Graph;

/// Estimated work units below which a step's CSR kernels run sequentially:
/// at ~1 work unit per memory touch, 2^20 touches finish in a few
/// milliseconds — under that, spawning and joining a scoped worker pool
/// (plus the cache cooling it causes) typically costs more than it saves.
/// A single linear sweep crosses the bar only past ~10^6-node graphs;
/// iterated and super-linear kernels cross it around 10^5.
pub const PAR_KERNEL_MIN_WORK: u64 = 1 << 20;

/// Iteration count folded into iterative-kernel estimates (pagerank and
/// friends run a fixed default iteration budget).
const ITERATIVE_ROUNDS: u64 = 20;

/// Per-step work estimation over one graph version's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    nodes: u64,
    edges: u64,
    /// Σ deg² — the pair-enumeration work of triangle-style kernels.
    degree_sum_sq: u64,
}

impl CostModel {
    /// A model over `g`'s current version, read from its O(1) counters.
    pub fn new(g: &Graph) -> CostModel {
        CostModel {
            nodes: g.node_count() as u64,
            edges: g.edge_count() as u64,
            degree_sum_sq: g.degree_sum_sq(),
        }
    }

    /// One linear sweep over the graph.
    fn linear(&self) -> u64 {
        self.nodes + self.edges
    }

    /// Estimated work units for one call of `desc`.
    ///
    /// Classes, cheapest to dearest: constant-ish bookkeeping; one linear
    /// sweep; a fixed number of iterated sweeps (pagerank-style); degree
    /// pair enumeration (`Σ deg²`, triangle-style); and per-source
    /// traversals (`n · (n + m)`, distance-style). Saturating arithmetic —
    /// a 10^6-node diameter estimate must not wrap.
    pub fn estimate(&self, desc: &ApiDescriptor) -> u64 {
        let linear = self.linear();
        let named = match desc.name.as_str() {
            // Bookkeeping over findings or parameters, not the graph.
            "list_findings" | "summarize_result" | "generate_report" => Some(64),
            // Edits touch the edges named in the input, bounded by m.
            "remove_edges" | "add_edges" | "relabel_nodes" | "export_graph" => {
                Some(linear.max(64))
            }
            // Iterated linear sweeps.
            "top_pagerank" | "find_influencers" | "detect_communities"
            | "modularity_score" | "predict_solubility" => {
                Some(linear.saturating_mul(ITERATIVE_ROUNDS))
            }
            // Degree pair enumeration.
            "triangle_count" | "clustering_coefficient" | "count_pattern_matches" => {
                Some(self.degree_sum_sq.max(linear))
            }
            // Per-source traversals.
            "graph_diameter" | "average_path_length" | "top_betweenness"
            | "top_closeness" | "connectivity_report" => {
                Some(self.nodes.saturating_mul(linear).max(linear))
            }
            _ => None,
        };
        let est = named.unwrap_or(match desc.category {
            // Structure/social/molecule/knowledge analyses default to one
            // linear sweep; similarity rescans the database per entry, which
            // the graph's statistics cannot see — assume a sizeable constant
            // factor so it never looks free.
            ApiCategory::Similarity => linear.saturating_mul(64),
            ApiCategory::Report => 64,
            _ => linear,
        });
        est.max(1)
    }

    /// Whether `desc`'s estimated work clears the bar where fanning its CSR
    /// kernels out across the worker pool pays for the pool.
    pub fn par_kernel(&self, desc: &ApiDescriptor) -> bool {
        self.estimate(desc) >= PAR_KERNEL_MIN_WORK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use chatgraph_graph::generators::{social_network, SocialParams};

    fn model(n: usize) -> CostModel {
        CostModel::new(&social_network(&SocialParams::sized(n), 5))
    }

    #[test]
    fn estimates_order_by_algorithmic_class() {
        let reg = registry::standard();
        let m = model(5_000);
        let est = |name: &str| m.estimate(reg.descriptor(name).unwrap());
        assert!(est("node_count") < est("top_pagerank"));
        assert!(est("top_pagerank") < est("graph_diameter"));
        assert!(est("generate_report") <= 64);
        // Triangle work tracks Σ deg², which dominates a linear sweep here.
        assert!(est("triangle_count") >= est("edge_count"));
    }

    #[test]
    fn par_kernel_flips_with_graph_scale() {
        let reg = registry::standard();
        let pagerank = reg.descriptor("top_pagerank").unwrap();
        let count = reg.descriptor("node_count").unwrap();
        let small = model(120);
        assert!(!small.par_kernel(pagerank), "120 nodes never pays for a pool");
        let large = model(100_000);
        assert!(large.par_kernel(pagerank), "10^5-node pagerank clears the bar");
        assert!(!large.par_kernel(count), "a single sweep stays sequential");
    }

    #[test]
    fn empty_model_estimates_are_floored() {
        let reg = registry::standard();
        let m = CostModel::new(&Graph::undirected());
        for d in reg.descriptors() {
            assert!(m.estimate(d) >= 1, "{} estimated zero work", d.name);
            assert!(!m.par_kernel(d));
        }
    }
}
