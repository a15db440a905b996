//! Valence-constrained molecule-like graphs.
//!
//! Scenarios 1 and 2 of the paper analyse chemical molecules (property
//! prediction, similarity search against a molecule database). This generator
//! produces heavy-atom graphs (hydrogens implicit, as in most cheminformatics
//! toolkits) that respect per-element valence limits and contain rings, so the
//! structural descriptors the molecule APIs compute (ring count, branching,
//! heteroatom fraction) carry real signal.

use crate::attr::{attrs, AttrValue};
use crate::graph::{Graph, NodeId};
use chatgraph_support::rng::RngExt;

/// Heavy-atom elements and their maximum valences.
const ELEMENTS: &[(&str, u32, f64)] = &[
    // (symbol, valence, sampling weight)
    ("C", 4, 0.62),
    ("N", 3, 0.14),
    ("O", 2, 0.16),
    ("S", 2, 0.05),
    ("P", 3, 0.03),
];

/// Parameters for [`molecule`].
#[derive(Debug, Clone, PartialEq)]
pub struct MoleculeParams {
    /// Number of heavy atoms.
    pub atoms: usize,
    /// Expected number of ring-closing edges added after the spanning tree.
    pub rings: usize,
    /// Probability that a bond with available valence becomes a double bond.
    pub double_bond_prob: f64,
}

impl Default for MoleculeParams {
    fn default() -> Self {
        MoleculeParams {
            atoms: 24,
            rings: 2,
            double_bond_prob: 0.15,
        }
    }
}

fn sample_element<R: RngExt>(rng: &mut R) -> (&'static str, u32) {
    let total: f64 = ELEMENTS.iter().map(|e| e.2).sum();
    let mut x = rng.random::<f64>() * total;
    for &(sym, val, w) in ELEMENTS {
        if x < w {
            return (sym, val);
        }
        x -= w;
    }
    let last = ELEMENTS[ELEMENTS.len() - 1];
    (last.0, last.1)
}

/// Samples a connected, valence-respecting molecular graph.
///
/// Nodes are labelled with element symbols and carry a `valence` attribute;
/// edges are labelled `single` or `double`. A double bond consumes two units
/// of valence at each endpoint.
pub fn molecule(params: &MoleculeParams, seed: u64) -> Graph {
    let mut rng = super::rng(seed);
    let n = params.atoms.max(1);
    let mut g = Graph::undirected();
    g.set_name(format!("mol-{}-{}", n, seed));

    let mut ids: Vec<NodeId> = Vec::with_capacity(n);
    let mut free: Vec<u32> = Vec::with_capacity(n); // remaining valence
    for _ in 0..n {
        let (sym, val) = sample_element(&mut rng);
        ids.push(g.add_node_with_attrs(sym, attrs([("valence", AttrValue::Int(val as i64))])));
        free.push(val);
    }

    // Random spanning tree under valence constraints: attach atom i to a
    // uniformly chosen earlier atom that still has free valence.
    for i in 1..n {
        let candidates: Vec<usize> = (0..i).filter(|&j| free[j] > 0).collect();
        let j = if candidates.is_empty() {
            // All earlier valences exhausted (possible with many O/S atoms):
            // fall back to the previous atom; chemically this over-saturates
            // one atom but keeps the graph connected.
            i - 1
        } else {
            candidates[rng.random_range(0..candidates.len())]
        };
        let double = free[i] >= 2 && free[j] >= 2 && rng.random_bool(params.double_bond_prob);
        let (label, units) = if double { ("double", 2) } else { ("single", 1) };
        // Atom `i` has no bonds yet, so the edge is new and always added.
        let Ok(_) = g.add_edge(ids[i], ids[j], label) else { continue };
        free[i] = free[i].saturating_sub(units);
        free[j] = free[j].saturating_sub(units);
    }

    // Ring closures: connect random non-adjacent pairs that both have free
    // valence. Each closure creates exactly one new cycle.
    let mut closures = 0;
    let mut attempts = 0;
    while closures < params.rings && attempts < 50 * params.rings.max(1) {
        attempts += 1;
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j || free[i] == 0 || free[j] == 0 {
            continue;
        }
        // An existing bond is refused as a duplicate edge.
        let Ok(_) = g.add_edge(ids[i], ids[j], "single") else { continue };
        free[i] -= 1;
        free[j] -= 1;
        closures += 1;
    }
    g
}

/// Generates a database of `count` molecules with varied sizes, as the
/// similarity-search scenario's corpus. Molecule `k` uses seed `seed + k`.
pub fn molecule_database(count: usize, base: &MoleculeParams, seed: u64) -> Vec<Graph> {
    (0..count)
        .map(|k| {
            let mut p = base.clone();
            // Vary sizes ±40% deterministically so the database is not uniform.
            let jitter = ((k * 2654435761) % 81) as i64 - 40;
            let atoms = (base.atoms as i64 + base.atoms as i64 * jitter / 100).max(3);
            p.atoms = atoms as usize;
            let mut g = molecule(&p, seed.wrapping_add(k as u64));
            g.set_name(format!("db-mol-{k}"));
            g
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::components::connected_components;

    fn bond_units(g: &Graph, v: NodeId) -> i64 {
        g.neighbors(v)
            .map(|(_, e)| if g.edge_label(e).unwrap() == "double" { 2 } else { 1 })
            .sum()
    }

    #[test]
    fn molecule_is_connected() {
        for seed in 0..10 {
            let g = molecule(&MoleculeParams::default(), seed);
            let cc = connected_components(&g);
            assert_eq!(cc.count, 1, "seed {seed}");
        }
    }

    #[test]
    fn valences_respected() {
        for seed in 0..10 {
            let g = molecule(&MoleculeParams::default(), seed);
            for v in g.node_ids() {
                let val = g.node_attrs(v).unwrap()["valence"].as_int().unwrap();
                assert!(
                    bond_units(&g, v) <= val,
                    "seed {seed}: node {v} exceeds valence"
                );
            }
        }
    }

    #[test]
    fn ring_closures_add_cycles() {
        let p = MoleculeParams {
            atoms: 30,
            rings: 3,
            double_bond_prob: 0.0,
        };
        let g = molecule(&p, 42);
        // cyclomatic number = E - V + components
        let cyclomatic = g.edge_count() as i64 - g.node_count() as i64 + 1;
        assert!(cyclomatic >= 1, "expected at least one ring");
        assert!(cyclomatic <= 3);
    }

    #[test]
    fn database_varies_sizes() {
        let db = molecule_database(20, &MoleculeParams::default(), 9);
        assert_eq!(db.len(), 20);
        let sizes: std::collections::BTreeSet<_> = db.iter().map(|g| g.node_count()).collect();
        assert!(sizes.len() > 3, "sizes should vary: {sizes:?}");
        assert_eq!(db[3].name(), "db-mol-3");
    }

    #[test]
    fn only_known_elements() {
        let g = molecule(&MoleculeParams::default(), 5);
        for v in g.node_ids() {
            let l = g.node_label(v).unwrap();
            assert!(ELEMENTS.iter().any(|e| e.0 == l), "unknown element {l}");
        }
    }
}
