//! Slot-exact graph images and deltas — the durable store's payload codec.
//!
//! Chain results hold stable node/edge ids, so a recovered graph must
//! reproduce the *slot layout* — tombstones included — or replayed chains
//! drift. This module provides:
//!
//! * [`image_to_bytes`] / [`image_from_bytes`] — a lossless snapshot of a
//!   graph's slot arrays (direction, name, every node/edge slot ever
//!   allocated with its `removed` flag). `image_from_bytes(image_to_bytes(g))
//!   == g`, adjacency and all.
//! * [`GraphDelta`] — slot upserts transforming one graph into a
//!   descendant. [`GraphDelta::since`] reads them off the descendant's edit
//!   journal in O(edits): one put per touched slot, carrying the slot's
//!   current content. [`GraphDelta::apply`] writes them at the slot level,
//!   bypassing the mutation API's duplicate/liveness checks.
//!
//! `since` declines (returns `None`) when the journal cannot prove that
//! `after` descends from `before` — an unrelated or compacted graph, a
//! decoded one, or more edits than the journal retains. Callers fall back
//! to a full image.
//!
//! ```text
//! image := "CGSI" | version u8 | directed u8 | name |
//!          n_node_slots u32 | node_slot… | n_edge_slots u32 | edge_slot…
//! node_slot := removed u8 | label | attrs
//! edge_slot := removed u8 | src u32 | dst u32 | label | attrs
//! delta := n_ops u32 | op…
//! op    := 0 | id u32 | node_slot      (put node)
//!        | 1 | id u32 | edge_slot      (put edge)
//!        | 2 | name                    (rename)
//! ```

use crate::attr::Attrs;
use crate::binary::{
    get_attrs, get_string, get_u32_le, get_u8, put_attrs, put_string, take, BinaryError,
};
use crate::graph::{Direction, EdgeSlot, Graph, NodeId, NodeSlot, Touched};

const IMAGE_MAGIC: &[u8; 4] = b"CGSI";
const IMAGE_VERSION: u8 = 1;

/// Smallest encoded node slot: removed (1) + empty label (4) + attrs (2).
const MIN_NODE_SLOT_BYTES: usize = 7;
/// Smallest encoded edge slot: removed (1) + src/dst (8) + label (4) + attrs (2).
const MIN_EDGE_SLOT_BYTES: usize = 15;
/// Smallest encoded op: tag (1) + an empty name (4).
const MIN_OP_BYTES: usize = 5;

/// One slot-level write. A put overwrites slot `id`, or appends it when
/// `id` equals the current slot bound (slots only ever append).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphOp {
    /// Write node slot `id` whole.
    PutNode { id: u32, label: String, attrs: Attrs, removed: bool },
    /// Write edge slot `id` whole.
    PutEdge { id: u32, src: u32, dst: u32, label: String, attrs: Attrs, removed: bool },
    /// Rename the graph.
    Rename { name: String },
}

/// An ordered op list transforming a graph into a slot-level descendant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphDelta {
    ops: Vec<GraphOp>,
}

/// Why a delta could not be applied to a base graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A put named a slot past the end of the slot array.
    BadSlot(u32),
    /// A put edge referenced an out-of-range node slot.
    BadEndpoint(u32),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BadSlot(id) => write!(f, "delta op references missing slot {id}"),
            DeltaError::BadEndpoint(id) => write!(f, "delta edge references missing node {id}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Overwrites slot `id`, or appends it when `id` is the bound.
fn put<T>(slots: &mut Vec<T>, id: u32, slot: T) -> Result<(), DeltaError> {
    match (id as usize).cmp(&slots.len()) {
        std::cmp::Ordering::Less => slots[id as usize] = slot,
        std::cmp::Ordering::Equal => slots.push(slot),
        std::cmp::Ordering::Greater => return Err(DeltaError::BadSlot(id)),
    }
    Ok(())
}

impl GraphDelta {
    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The delta turning `before` into `after`, read off `after`'s edit
    /// journal in O(edits): a rename when the names differ, then one put
    /// per slot touched since `before`'s journal tip, nodes before edges,
    /// each in ascending id order so appends land at the bound. `None`
    /// when the journal cannot prove `after` descends from `before`; the
    /// caller then persists a full image instead.
    pub fn since(before: &Graph, after: &Graph) -> Option<GraphDelta> {
        let touched = after.journal().touched_since(before.journal().tip())?;
        let (mut nodes, mut edges) = (Vec::new(), Vec::new());
        for t in touched {
            match t {
                Touched::Node(v) => nodes.push(v.0),
                Touched::Edge(e) => edges.push(e.0),
            }
        }
        for ids in [&mut nodes, &mut edges] {
            ids.sort_unstable();
            ids.dedup();
        }
        let mut ops = Vec::with_capacity(1 + nodes.len() + edges.len());
        if before.name() != after.name() {
            ops.push(GraphOp::Rename { name: after.name().to_owned() });
        }
        for id in nodes {
            let n = &after.node_slots()[id as usize];
            ops.push(GraphOp::PutNode {
                id,
                label: n.label.clone(),
                attrs: n.attrs.clone(),
                removed: n.removed,
            });
        }
        for id in edges {
            let e = &after.edge_slots()[id as usize];
            ops.push(GraphOp::PutEdge {
                id,
                src: e.src.0,
                dst: e.dst.0,
                label: e.label.clone(),
                attrs: e.attrs.clone(),
                removed: e.removed,
            });
        }
        Some(GraphDelta { ops })
    }

    /// Applies the delta to `base`, returning the descendant graph.
    ///
    /// Works at the slot level (no duplicate-edge or liveness checks) and
    /// rebuilds adjacency canonically, so `since(b, a).apply(b) == a`
    /// exactly, fingerprint included.
    pub fn apply(&self, base: &Graph) -> Result<Graph, DeltaError> {
        let mut name = base.name().to_owned();
        let mut nodes = base.node_slots().to_vec();
        let mut edges = base.edge_slots().to_vec();
        for op in &self.ops {
            match op {
                GraphOp::PutNode { id, label, attrs, removed } => {
                    let slot = NodeSlot { label: label.clone(), attrs: attrs.clone(), removed: *removed };
                    put(&mut nodes, *id, slot)?;
                }
                GraphOp::PutEdge { id, src, dst, label, attrs, removed } => {
                    for end in [*src, *dst] {
                        if end as usize >= nodes.len() {
                            return Err(DeltaError::BadEndpoint(end));
                        }
                    }
                    let slot = EdgeSlot {
                        src: NodeId(*src),
                        dst: NodeId(*dst),
                        label: label.clone(),
                        attrs: attrs.clone(),
                        removed: *removed,
                    };
                    put(&mut edges, *id, slot)?;
                }
                GraphOp::Rename { name: n } => name = n.clone(),
            }
        }
        Ok(Graph::from_slots(base.direction(), name, nodes, edges))
    }

    /// Encodes the delta (no framing — the store wraps payloads in
    /// length-prefixed, CRC-checksummed records).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + 32 * self.ops.len());
        buf.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match op {
                GraphOp::PutNode { id, label, attrs, removed } => {
                    buf.push(0);
                    buf.extend_from_slice(&id.to_le_bytes());
                    buf.push(*removed as u8);
                    put_string(&mut buf, label);
                    put_attrs(&mut buf, attrs);
                }
                GraphOp::PutEdge { id, src, dst, label, attrs, removed } => {
                    buf.push(1);
                    buf.extend_from_slice(&id.to_le_bytes());
                    buf.push(*removed as u8);
                    buf.extend_from_slice(&src.to_le_bytes());
                    buf.extend_from_slice(&dst.to_le_bytes());
                    put_string(&mut buf, label);
                    put_attrs(&mut buf, attrs);
                }
                GraphOp::Rename { name } => {
                    buf.push(2);
                    put_string(&mut buf, name);
                }
            }
        }
        buf
    }

    /// Decodes a delta encoded by [`GraphDelta::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<GraphDelta, BinaryError> {
        let mut buf = data;
        let n_ops = get_u32_le(&mut buf)? as usize;
        if n_ops > buf.len() / MIN_OP_BYTES {
            return Err(BinaryError::Truncated);
        }
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let op = match get_u8(&mut buf)? {
                0 => GraphOp::PutNode {
                    id: get_u32_le(&mut buf)?,
                    removed: get_u8(&mut buf)? != 0,
                    label: get_string(&mut buf)?,
                    attrs: get_attrs(&mut buf)?,
                },
                1 => GraphOp::PutEdge {
                    id: get_u32_le(&mut buf)?,
                    removed: get_u8(&mut buf)? != 0,
                    src: get_u32_le(&mut buf)?,
                    dst: get_u32_le(&mut buf)?,
                    label: get_string(&mut buf)?,
                    attrs: get_attrs(&mut buf)?,
                },
                2 => GraphOp::Rename { name: get_string(&mut buf)? },
                other => return Err(BinaryError::BadTag(other)),
            };
            ops.push(op);
        }
        Ok(GraphDelta { ops })
    }
}

/// Encodes a slot-exact image of the graph (tombstones included), so that
/// `image_from_bytes(image_to_bytes(g)) == g` — adjacency, ids and all.
pub fn image_to_bytes(g: &Graph) -> Vec<u8> {
    let mut buf =
        Vec::with_capacity(64 + 32 * g.node_bound() + 24 * g.edge_bound());
    buf.extend_from_slice(IMAGE_MAGIC);
    buf.push(IMAGE_VERSION);
    buf.push(g.is_directed() as u8);
    put_string(&mut buf, g.name());
    let nodes = g.node_slots();
    buf.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    for n in nodes {
        buf.push(n.removed as u8);
        put_string(&mut buf, &n.label);
        put_attrs(&mut buf, &n.attrs);
    }
    let edges = g.edge_slots();
    buf.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for e in edges {
        buf.push(e.removed as u8);
        buf.extend_from_slice(&e.src.0.to_le_bytes());
        buf.extend_from_slice(&e.dst.0.to_le_bytes());
        put_string(&mut buf, &e.label);
        put_attrs(&mut buf, &e.attrs);
    }
    buf
}

/// Decodes a slot-exact image. Counts are validated against the remaining
/// buffer and edge endpoints against the node slots, so corrupt input is
/// rejected without over-allocation or panics.
pub fn image_from_bytes(data: &[u8]) -> Result<Graph, BinaryError> {
    let mut buf = data;
    let header = take(&mut buf, 6).map_err(|_| BinaryError::BadHeader)?;
    if &header[..4] != IMAGE_MAGIC || header[4] != IMAGE_VERSION {
        return Err(BinaryError::BadHeader);
    }
    let direction = if header[5] != 0 { Direction::Directed } else { Direction::Undirected };
    let name = get_string(&mut buf)?;
    let n_nodes = get_u32_le(&mut buf)? as usize;
    if n_nodes > buf.len() / MIN_NODE_SLOT_BYTES {
        return Err(BinaryError::Truncated);
    }
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let removed = get_u8(&mut buf)? != 0;
        nodes.push(NodeSlot {
            label: get_string(&mut buf)?,
            attrs: get_attrs(&mut buf)?,
            removed,
        });
    }
    let n_edges = get_u32_le(&mut buf)? as usize;
    if n_edges > buf.len() / MIN_EDGE_SLOT_BYTES {
        return Err(BinaryError::Truncated);
    }
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let removed = get_u8(&mut buf)? != 0;
        let src = get_u32_le(&mut buf)?;
        let dst = get_u32_le(&mut buf)?;
        if src as usize >= nodes.len() || dst as usize >= nodes.len() {
            return Err(BinaryError::BadEdge);
        }
        edges.push(EdgeSlot {
            src: NodeId(src),
            dst: NodeId(dst),
            label: get_string(&mut buf)?,
            attrs: get_attrs(&mut buf)?,
            removed,
        });
    }
    Ok(Graph::from_slots(direction, name, nodes, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{knowledge_graph, social_network, KgParams, SocialParams};

    fn mutate(g: &mut Graph) {
        // A representative edit mix: adds, removals (cascading), label and
        // attribute edits, and an add-then-remove inside the same window.
        let a = g.add_node("fresh");
        let b = g.node_ids().next().unwrap();
        let _ = g.add_edge(a, b, "new-edge");
        let victim = g.node_ids().nth(2).unwrap();
        g.remove_node(victim).unwrap();
        let relabel = g.node_ids().nth(1).unwrap();
        g.set_node_label(relabel, "renamed").unwrap();
        g.set_node_attr(relabel, "w", 7i64).unwrap();
        let tmp = g.add_node("ephemeral");
        g.remove_node(tmp).unwrap();
        let first_edge = g.edge_ids().next();
        if let Some(e) = first_edge {
            g.set_edge_label(e, "relabelled").unwrap();
        }
    }

    #[test]
    fn image_roundtrip_is_slot_exact() {
        let mut g = social_network(&SocialParams::default(), 5);
        mutate(&mut g);
        let back = image_from_bytes(&image_to_bytes(&g)).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.node_bound(), g.node_bound());
        assert_eq!(back.edge_bound(), g.edge_bound());
    }

    #[test]
    fn since_apply_reproduces_the_descendant_exactly() {
        for seed in 0..4u64 {
            let before = social_network(&SocialParams::default(), seed);
            let mut after = before.clone();
            mutate(&mut after);
            let delta = GraphDelta::since(&before, &after).expect("descendant");
            assert!(!delta.is_empty());
            let replayed = delta.apply(&before).unwrap();
            assert_eq!(replayed, after, "seed {seed}");
            assert_eq!(replayed.fingerprint(), after.fingerprint(), "seed {seed}");
        }
    }

    #[test]
    fn since_apply_handles_directed_graphs() {
        let before = knowledge_graph(&KgParams::default(), 3);
        let mut after = before.clone();
        let ids: Vec<_> = after.node_ids().collect();
        let e = after.add_edge(ids[0], ids[3], "linked").unwrap();
        after.remove_edge(e).unwrap();
        after.remove_node(ids[1]).unwrap();
        let delta = GraphDelta::since(&before, &after).unwrap();
        assert_eq!(delta.apply(&before).unwrap(), after);
    }

    #[test]
    fn since_puts_only_the_touched_slots() {
        let before = social_network(&SocialParams::default(), 6);
        let mut after = before.clone();
        let v = after.node_ids().nth(4).unwrap();
        after.set_node_label(v, "A").unwrap();
        after.set_node_label(v, "B").unwrap();
        let delta = GraphDelta::since(&before, &after).unwrap();
        assert_eq!(delta.len(), 1, "one slot touched twice is one put");
    }

    #[test]
    fn since_declines_unproven_lineage() {
        let g = social_network(&SocialParams::default(), 9);
        let mut shrunk = g.clone();
        let victim = shrunk.node_ids().next().unwrap();
        shrunk.remove_node(victim).unwrap();
        let (compacted, _) = shrunk.compact();
        // A compaction is a new graph with no shared history.
        assert!(GraphDelta::since(&g, &compacted).is_none());
        // An ancestor does not descend from its descendant.
        assert!(GraphDelta::since(&shrunk, &g).is_none());
        // A decoded copy has no proven lineage either.
        let decoded = image_from_bytes(&image_to_bytes(&g)).unwrap();
        assert!(GraphDelta::since(&g, &decoded).is_none());
        // Nor does a descendant more edits away than the journal retains.
        let mut far = g.clone();
        let v = far.node_ids().next().unwrap();
        for i in 0..=crate::graph::JOURNAL_CAP {
            far.set_node_attr(v, "i", i as i64).unwrap();
        }
        assert!(GraphDelta::since(&g, &far).is_none());
    }

    #[test]
    fn delta_codec_roundtrips() {
        let before = social_network(&SocialParams::default(), 2);
        let mut after = before.clone();
        mutate(&mut after);
        after.set_name("renamed-graph");
        let delta = GraphDelta::since(&before, &after).unwrap();
        let decoded = GraphDelta::from_bytes(&delta.to_bytes()).unwrap();
        assert_eq!(decoded, delta);
        assert_eq!(decoded.apply(&before).unwrap(), after);
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let g = social_network(&SocialParams::default(), 1);
        let image = image_to_bytes(&g);
        for cut in 0..image.len() {
            assert!(image_from_bytes(&image[..cut]).is_err(), "cut {cut}");
        }
        let mut after = g.clone();
        mutate(&mut after);
        let delta_bytes = GraphDelta::since(&g, &after).unwrap().to_bytes();
        for cut in 0..delta_bytes.len() {
            assert!(GraphDelta::from_bytes(&delta_bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut absurd = delta_bytes;
        absurd[..4].copy_from_slice(&u32::MAX.to_le_bytes()); // op count vs remaining bytes
        assert!(GraphDelta::from_bytes(&absurd).is_err());
    }

    #[test]
    fn empty_delta_for_an_unchanged_graph() {
        let g = social_network(&SocialParams::default(), 4);
        let delta = GraphDelta::since(&g, &g.clone()).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.apply(&g).unwrap(), g);
    }

    #[test]
    fn bad_slot_references_error_on_apply() {
        let g = Graph::undirected();
        let delta = GraphDelta {
            ops: vec![GraphOp::PutNode {
                id: 7,
                label: "x".into(),
                attrs: Attrs::new(),
                removed: false,
            }],
        };
        assert_eq!(delta.apply(&g).unwrap_err(), DeltaError::BadSlot(7));
        let delta = GraphDelta {
            ops: vec![GraphOp::PutEdge {
                id: 0,
                src: 0,
                dst: 9,
                label: "x".into(),
                attrs: Attrs::new(),
                removed: false,
            }],
        };
        assert!(matches!(delta.apply(&g), Err(DeltaError::BadEndpoint(_))));
    }
}
