//! Properties of the graph's version identity and change log: the O(1)
//! fingerprint every mutation method maintains, the edit journal from
//! which WAL deltas are built, and the CSR snapshot each version carries.
//!
//! Cases are `(seed, edits)` pairs; each check regenerates its graphs from
//! the seed, so a failure report stays small and replays exactly.

use crate::attr::{AttrValue, Attrs};
use crate::csr::CsrGraph;
use crate::delta::{image_from_bytes, image_to_bytes, GraphDelta};
use crate::graph::{Direction, EdgeId, Graph, NodeId, JOURNAL_CAP};
use chatgraph_support::json;
use chatgraph_support::prop::{check, Config};
use chatgraph_support::rng::{RngExt, SeedableRng, StdRng};
use chatgraph_support::{prop_assert, prop_assert_eq};

fn label(rng: &mut StdRng) -> String {
    ["A", "B", "C", "City", "Town"][rng.random_range(0..5usize)].to_owned()
}

fn value(rng: &mut StdRng) -> AttrValue {
    match rng.random_range(0u8..4) {
        0 => AttrValue::Bool(rng.random()),
        1 => AttrValue::Int(rng.random_range(-3i64..4)),
        2 => AttrValue::Float(f64::from(rng.random_range(0u8..4)) / 2.0),
        _ => AttrValue::Text(label(rng)),
    }
}

fn attrs(rng: &mut StdRng) -> Attrs {
    (0..rng.random_range(0..3usize)).map(|_| (label(rng), value(rng))).collect()
}

/// A node id drawn from every slot ever allocated plus one past the end,
/// so calls on tombstones and unknown ids (which must fail and change
/// nothing) are part of the mix.
fn any_node(g: &Graph, rng: &mut StdRng) -> NodeId {
    NodeId(rng.random_range(0..=g.node_bound() as u32))
}

fn any_edge(g: &Graph, rng: &mut StdRng) -> EdgeId {
    EdgeId(rng.random_range(0..=g.edge_bound() as u32))
}

/// One call of a random mutation method with random arguments. Failing
/// calls (dead ids, duplicate edges, self-loops) are deliberately included.
fn random_edit(g: &mut Graph, rng: &mut StdRng) {
    let _ = match rng.random_range(0u8..12) {
        0 => {
            g.add_node(label(rng));
            Ok(())
        }
        1 => {
            g.add_node_with_attrs(label(rng), attrs(rng));
            Ok(())
        }
        2 => {
            let (a, b) = (any_node(g, rng), any_node(g, rng));
            g.add_edge(a, b, label(rng)).map(|_| ())
        }
        3 => {
            let (a, b) = (any_node(g, rng), any_node(g, rng));
            g.add_edge_with_attrs(a, b, label(rng), attrs(rng)).map(|_| ())
        }
        4 => g.remove_edge(any_edge(g, rng)),
        5 => g.remove_node(any_node(g, rng)),
        6 => g.set_node_label(any_node(g, rng), label(rng)),
        7 => g.set_node_attrs(any_node(g, rng), attrs(rng)),
        8 => g.set_node_attr(any_node(g, rng), label(rng), value(rng)),
        9 => g.set_edge_label(any_edge(g, rng), label(rng)),
        10 => g.set_edge_attr(any_edge(g, rng), label(rng), value(rng)),
        _ => {
            g.set_name(label(rng));
            Ok(())
        }
    };
}

/// A graph grown by `edits` random mutations from empty.
fn random_graph(rng: &mut StdRng, edits: usize) -> Graph {
    let direction = if rng.random() { Direction::Directed } else { Direction::Undirected };
    let mut g = Graph::new(direction);
    for _ in 0..4 {
        g.add_node(label(rng));
    }
    for _ in 0..edits {
        random_edit(&mut g, rng);
    }
    g
}

/// The fingerprint recomputed from scratch: a graph rebuilt from the raw
/// slot arrays hashes every slot anew.
fn scratch(g: &Graph) -> Graph {
    Graph::from_slots(
        g.direction(),
        g.name().to_owned(),
        g.node_slots().to_vec(),
        g.edge_slots().to_vec(),
    )
}

fn cases() -> Config {
    Config::default().with_cases(48)
}

fn seeded(rng: &mut StdRng, size: usize) -> (u64, usize) {
    (rng.random(), 1 + 4 * size)
}

#[test]
fn fingerprint_is_maintained_incrementally() {
    check("fingerprint_is_maintained_incrementally", cases(), seeded, |&(seed, edits)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = random_graph(&mut rng, 0);
        for step in 0..edits {
            random_edit(&mut g, &mut rng);
            let rebuilt = scratch(&g);
            prop_assert!(rebuilt == g, "step {step}: slot rebuild differs from the graph");
            prop_assert_eq!(g.fingerprint(), rebuilt.fingerprint(), "step {}", step);
            prop_assert!(
                *g.csr() == CsrGraph::build(&g),
                "step {step}: snapshot differs from a rebuild"
            );
        }
        Ok(())
    });
}

#[test]
fn fingerprint_survives_clone_codecs_and_delta_apply() {
    check("fingerprint_survives_clone_codecs_and_delta_apply", cases(), seeded, |&(seed, edits)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_graph(&mut rng, edits);
        base.csr();
        let mut g = base.clone();
        prop_assert_eq!(g.fingerprint(), base.fingerprint());
        for _ in 0..edits {
            random_edit(&mut g, &mut rng);
        }
        let fp = g.fingerprint();
        let from_json: Graph = json::from_str(&json::to_string(&g)).map_err(|e| e.to_string())?;
        prop_assert_eq!(from_json.fingerprint(), fp, "json round-trip");
        let from_image = image_from_bytes(&image_to_bytes(&g)).map_err(|e| e.to_string())?;
        prop_assert_eq!(from_image.fingerprint(), fp, "image round-trip");
        let delta = GraphDelta::since(&base, &g).ok_or("a clone's edits must form a delta")?;
        let applied = delta.apply(&base).map_err(|e| e.to_string())?;
        prop_assert!(applied == g, "delta apply differs from the edited graph");
        prop_assert_eq!(applied.fingerprint(), fp, "delta apply");
        let snapshots =
            [&g, &from_json, &from_image, &applied].map(|h| *h.csr() == CsrGraph::build(h));
        prop_assert_eq!(snapshots, [true; 4], "CSR snapshot across clone and decoders");
        Ok(())
    });
}

/// Reaches `g`'s exact slots through another history: placeholder labels
/// and attributes overwritten later, attributes set one at a time, and
/// every tombstone applied at a different point than in `g`.
fn replay_differently(g: &Graph) -> Result<Graph, String> {
    let err = |e: crate::GraphError| e.to_string();
    let mut h = Graph::new(g.direction());
    h.set_name("placeholder");
    for n in g.node_slots() {
        let v = h.add_node_with_attrs("placeholder", [("tmp".to_owned(), AttrValue::Bool(true))].into());
        h.set_node_label(v, n.label.clone()).map_err(err)?;
        h.set_node_attrs(v, n.attrs.clone()).map_err(err)?;
    }
    for e in g.edge_slots() {
        let id = h.add_edge(e.src, e.dst, "placeholder").map_err(err)?;
        h.set_edge_label(id, e.label.clone()).map_err(err)?;
        for (k, v) in &e.attrs {
            h.set_edge_attr(id, k.clone(), v.clone()).map_err(err)?;
        }
        if e.removed {
            h.remove_edge(id).map_err(err)?;
        }
    }
    for (i, n) in g.node_slots().iter().enumerate() {
        if n.removed {
            h.remove_node(NodeId(i as u32)).map_err(err)?;
        }
    }
    h.set_name(g.name());
    Ok(h)
}

#[test]
fn equal_slots_agree_whatever_the_history() {
    check("equal_slots_agree_whatever_the_history", cases(), seeded, |&(seed, edits)| {
        let g = random_graph(&mut StdRng::seed_from_u64(seed), edits);
        let h = replay_differently(&g)?;
        prop_assert!(h == g, "the replay must reach the same slots");
        prop_assert_eq!(h.fingerprint(), g.fingerprint());
        Ok(())
    });
}

#[test]
fn any_single_slot_field_change_changes_the_fingerprint() {
    check("any_single_slot_field_change_changes_the_fingerprint", cases(), seeded, |&(seed, edits)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, edits);
        let fp = g.fingerprint();
        let (nodes, edges) = (g.node_slots().to_vec(), g.edge_slots().to_vec());
        let rebuild = |nodes, edges| Graph::from_slots(g.direction(), g.name().to_owned(), nodes, edges);
        let mut variants: Vec<(String, Graph)> = Vec::new();
        let i = rng.random_range(0..nodes.len());
        let mut edit_node = |what: &str, f: &dyn Fn(&mut crate::graph::NodeSlot)| {
            let mut n = nodes.clone();
            f(&mut n[i]);
            variants.push((format!("node {i} {what}"), rebuild(n, edges.clone())));
        };
        edit_node("removed", &|n| n.removed = !n.removed);
        edit_node("label", &|n| n.label.push('x'));
        edit_node("attrs", &|n| {
            n.attrs.insert("fresh".into(), AttrValue::Int(1));
        });
        if !edges.is_empty() {
            let j = rng.random_range(0..edges.len());
            let mut edit_edge = |what: &str, f: &dyn Fn(&mut crate::graph::EdgeSlot)| {
                let mut e = edges.clone();
                f(&mut e[j]);
                variants.push((format!("edge {j} {what}"), rebuild(nodes.clone(), e)));
            };
            edit_edge("removed", &|e| e.removed = !e.removed);
            edit_edge("label", &|e| e.label.push('x'));
            edit_edge("attrs", &|e| {
                e.attrs.insert("fresh".into(), AttrValue::Int(1));
            });
            edit_edge("endpoints", &|e| std::mem::swap(&mut e.src, &mut e.dst));
        }
        // Moving a slot to another index is a change too.
        if let Some(k) = (0..nodes.len()).find(|&k| nodes[k] != nodes[i]) {
            let mut n = nodes.clone();
            n.swap(i, k);
            variants.push((format!("nodes {i}<->{k}"), rebuild(n, edges.clone())));
        }
        let mut renamed = g.clone();
        renamed.set_name(format!("{}x", g.name()));
        variants.push(("name".into(), renamed));
        let flipped = if g.is_directed() { Direction::Undirected } else { Direction::Directed };
        variants.push((
            "direction".into(),
            Graph::from_slots(flipped, g.name().to_owned(), nodes.clone(), edges.clone()),
        ));
        for (what, v) in &variants {
            prop_assert!(v.fingerprint() != fp, "changing {what} kept the fingerprint");
        }
        Ok(())
    });
}

/// What the durable store does per commit, minus the file: a delta from
/// the journal when it proves lineage, else a full image.
fn commit(committed: &Graph, live: &Graph) -> Result<(Graph, bool), String> {
    match GraphDelta::since(committed, live) {
        Some(delta) => {
            let bytes = delta.to_bytes();
            let decoded = GraphDelta::from_bytes(&bytes).map_err(|e| e.to_string())?;
            Ok((decoded.apply(committed).map_err(|e| e.to_string())?, true))
        }
        None => Ok((image_from_bytes(&image_to_bytes(live)).map_err(|e| e.to_string())?, false)),
    }
}

#[test]
fn journal_deltas_replay_to_the_live_graph() {
    check(
        "journal_deltas_replay_to_the_live_graph",
        Config::default().with_cases(24),
        |rng, size| (rng.random::<u64>(), 1 + size / 2),
        |&(seed, rounds)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live = random_graph(&mut rng, 8);
            let mut committed = live.clone();
            for round in 0..rounds {
                // Mostly short edit runs; sometimes an unrelated upload or a
                // run past the journal window, which must take the snapshot
                // path.
                let pick = rng.random_range(0u8..8);
                let expect_delta = match pick {
                    0 => {
                        live = random_graph(&mut rng, 8);
                        false
                    }
                    1 => {
                        for _ in 0..=JOURNAL_CAP {
                            live.add_node("bulk");
                        }
                        false
                    }
                    _ => {
                        for _ in 0..rng.random_range(0..40usize) {
                            random_edit(&mut live, &mut rng);
                        }
                        true
                    }
                };
                let (replayed, as_delta) = commit(&committed, &live)?;
                prop_assert_eq!(as_delta, expect_delta, "round {}", round);
                prop_assert!(replayed == live, "round {round}: replay differs from the live graph");
                prop_assert_eq!(replayed.fingerprint(), live.fingerprint(), "round {}", round);
                // The store keeps the live graph itself as the next base.
                committed = live.clone();
            }
            Ok(())
        },
    );
}
