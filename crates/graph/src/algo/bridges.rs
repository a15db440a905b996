//! Bridges and articulation points (Tarjan's low-link algorithm).
//!
//! Social-network analysts ask for the "weak links" of a network: edges and
//! nodes whose removal disconnects it. Undirected semantics.

use crate::graph::{EdgeId, Graph, NodeId};

struct Dfs<'a> {
    g: &'a Graph,
    disc: Vec<Option<usize>>,
    low: Vec<usize>,
    timer: usize,
    bridges: Vec<EdgeId>,
    articulation: Vec<bool>,
}

impl<'a> Dfs<'a> {
    /// Iterative Tarjan DFS from `root` (recursion would overflow on long
    /// paths).
    fn run(&mut self, root: NodeId) {
        #[derive(Clone)]
        struct Frame {
            v: NodeId,
            parent_edge: Option<EdgeId>,
            child_count: usize,
            neighbors: Vec<(NodeId, EdgeId)>,
            next: usize,
        }
        let mut stack = vec![Frame {
            v: root,
            parent_edge: None,
            child_count: 0,
            neighbors: self.g.undirected_neighbors(root).collect(),
            next: 0,
        }];
        self.disc[root.index()] = Some(self.timer);
        self.low[root.index()] = self.timer;
        self.timer += 1;

        while let Some(frame) = stack.last_mut() {
            if frame.next < frame.neighbors.len() {
                let (w, e) = frame.neighbors[frame.next];
                frame.next += 1;
                if Some(e) == frame.parent_edge {
                    continue;
                }
                match self.disc[w.index()] {
                    Some(dw) => {
                        let vi = frame.v.index();
                        self.low[vi] = self.low[vi].min(dw);
                    }
                    None => {
                        frame.child_count += 1;
                        self.disc[w.index()] = Some(self.timer);
                        self.low[w.index()] = self.timer;
                        self.timer += 1;
                        let neighbors = self.g.undirected_neighbors(w).collect();
                        stack.push(Frame {
                            v: w,
                            parent_edge: Some(e),
                            child_count: 0,
                            neighbors,
                            next: 0,
                        });
                    }
                }
            } else {
                // Post-visit: propagate low-link to the parent.
                let Some(done) = stack.pop() else { break };
                let v = done.v;
                // Only the root frame lacks a parent edge (and a parent).
                let (Some(pe), Some(parent_frame)) = (done.parent_edge, stack.last()) else {
                    // DFS root: articulation iff it has ≥ 2 DFS children.
                    if done.child_count >= 2 {
                        self.articulation[v.index()] = true;
                    }
                    continue;
                };
                let p = parent_frame.v;
                self.low[p.index()] = self.low[p.index()].min(self.low[v.index()]);
                // A parent on the stack was discovered when it was pushed.
                let Some(disc_p) = self.disc[p.index()] else { continue };
                if self.low[v.index()] > disc_p {
                    self.bridges.push(pe);
                }
                // Non-root articulation: some child's subtree cannot reach
                // above p.
                if self.low[v.index()] >= disc_p && parent_frame.parent_edge.is_some() {
                    self.articulation[p.index()] = true;
                }
            }
        }
    }
}

/// All bridge edges (edges whose removal increases the component count),
/// sorted by id.
pub fn bridges(g: &Graph) -> Vec<EdgeId> {
    let (b, _) = bridges_and_articulation(g);
    b
}

/// All articulation points (nodes whose removal increases the component
/// count), sorted by id.
pub fn articulation_points(g: &Graph) -> Vec<NodeId> {
    let (_, a) = bridges_and_articulation(g);
    a
}

/// Computes both in one pass.
pub fn bridges_and_articulation(g: &Graph) -> (Vec<EdgeId>, Vec<NodeId>) {
    let bound = g.node_bound();
    let mut dfs = Dfs {
        g,
        disc: vec![None; bound],
        low: vec![0; bound],
        timer: 0,
        bridges: Vec::new(),
        articulation: vec![false; bound],
    };
    for v in g.node_ids() {
        if dfs.disc[v.index()].is_none() {
            dfs.run(v);
        }
    }
    let mut bridges = dfs.bridges;
    bridges.sort();
    let articulation: Vec<NodeId> = dfs
        .articulation
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    (bridges, articulation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::components::connected_components;
    use crate::GraphBuilder;

    fn barbell() -> Graph {
        // triangle a-b-c — bridge c-d — triangle d-e-f
        GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("c", "a", "-")
            .edge("c", "d", "-")
            .edge("d", "e", "-")
            .edge("e", "f", "-")
            .edge("f", "d", "-")
            .build()
    }

    #[test]
    fn finds_the_single_bridge() {
        let g = barbell();
        let b = bridges(&g);
        assert_eq!(b.len(), 1);
        let (s, d) = g.edge_endpoints(b[0]).unwrap();
        assert_eq!((s, d), (NodeId(2), NodeId(3)));
    }

    #[test]
    fn bridge_endpoints_are_articulation_points() {
        let g = barbell();
        let a = articulation_points(&g);
        assert_eq!(a, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let mut b = GraphBuilder::undirected();
        for i in 0..6 {
            b = b.edge(format!("n{i}"), format!("n{}", (i + 1) % 6), "-");
        }
        let g = b.build();
        assert!(bridges(&g).is_empty());
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn tree_edges_are_all_bridges() {
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("b", "d", "-")
            .build();
        assert_eq!(bridges(&g).len(), 3);
        assert_eq!(articulation_points(&g), vec![NodeId(1)]);
    }

    #[test]
    fn removing_a_bridge_disconnects() {
        let mut g = barbell();
        let b = bridges(&g)[0];
        assert_eq!(connected_components(&g).count, 1);
        g.remove_edge(b).unwrap();
        assert_eq!(connected_components(&g).count, 2);
    }

    #[test]
    fn star_center_is_articulation() {
        let g = GraphBuilder::undirected()
            .edge("c", "a", "-")
            .edge("c", "b", "-")
            .edge("c", "d", "-")
            .build();
        assert_eq!(articulation_points(&g), vec![NodeId(0)]);
    }

    #[test]
    fn disconnected_graph_handled() {
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("x", "y", "-")
            .build();
        assert_eq!(bridges(&g).len(), 2);
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::undirected();
        assert!(bridges(&g).is_empty());
        assert!(articulation_points(&g).is_empty());
    }
}
