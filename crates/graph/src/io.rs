//! Graph (de)serialisation.
//!
//! Two formats are supported, matching what the paper's demo accepts from the
//! "upload graphs" panel:
//!
//! * **Edge list** — a forgiving line-based text format:
//!   ```text
//!   # comment
//!   graph my-molecule undirected
//!   node 0 C
//!   node 1 O
//!   edge 0 1 double
//!   ```
//!   Node lines are optional; edges referencing unseen numeric ids create
//!   unlabelled nodes on the fly.
//! * **JSON** — the [`Graph`] JSON representation (via
//!   `chatgraph_support::json`), for lossless round-trips including
//!   attributes.

use crate::graph::{Direction, Graph, GraphError, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Errors raised while parsing the edge-list format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be interpreted; payload is `(line_number, line)`.
    BadLine(usize, String),
    /// A structural mutation failed (duplicate edge, self-loop, …).
    Graph(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadLine(n, l) => write!(f, "line {n}: cannot parse {l:?}"),
            ParseError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<GraphError> for ParseError {
    fn from(e: GraphError) -> Self {
        ParseError::Graph(e.to_string())
    }
}

/// Parses the edge-list text format.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut g = Graph::undirected();
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut saw_header = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(kind) = parts.next() else {
            continue; // unreachable: the line is non-empty after trimming
        };
        match kind {
            "graph" => {
                if saw_header {
                    return Err(ParseError::BadLine(lineno + 1, raw.to_owned()));
                }
                saw_header = true;
                let name = parts.next().unwrap_or("G").to_owned();
                let dir = match parts.next() {
                    Some("directed") => Direction::Directed,
                    Some("undirected") | None => Direction::Undirected,
                    Some(_) => return Err(ParseError::BadLine(lineno + 1, raw.to_owned())),
                };
                g = Graph::new(dir);
                g.set_name(name);
            }
            "node" => {
                let key = parts
                    .next()
                    .ok_or_else(|| ParseError::BadLine(lineno + 1, raw.to_owned()))?;
                let label = parts.next().unwrap_or(key);
                let id = g.add_node(label);
                ids.insert(key.to_owned(), id);
            }
            "edge" => {
                let a = parts
                    .next()
                    .ok_or_else(|| ParseError::BadLine(lineno + 1, raw.to_owned()))?;
                let b = parts
                    .next()
                    .ok_or_else(|| ParseError::BadLine(lineno + 1, raw.to_owned()))?;
                let label = parts.next().unwrap_or("-").to_owned();
                let sa = ensure(&mut g, &mut ids, a);
                let sb = ensure(&mut g, &mut ids, b);
                g.add_edge(sa, sb, label)?;
            }
            _ => return Err(ParseError::BadLine(lineno + 1, raw.to_owned())),
        }
    }
    Ok(g)
}

fn ensure(g: &mut Graph, ids: &mut HashMap<String, NodeId>, key: &str) -> NodeId {
    if let Some(&id) = ids.get(key) {
        id
    } else {
        let id = g.add_node(key);
        ids.insert(key.to_owned(), id);
        id
    }
}

/// Serialises a graph to the edge-list text format.
///
/// Attributes are not representable in this format and are dropped; use
/// [`to_json`] for a lossless round-trip.
pub fn to_edge_list(g: &Graph) -> Result<String, GraphError> {
    let mut out = String::new();
    let dir = if g.is_directed() {
        "directed"
    } else {
        "undirected"
    };
    out.push_str(&format!("graph {} {}\n", g.name(), dir));
    for id in g.node_ids() {
        out.push_str(&format!("node {} {}\n", id.0, g.node_label(id)?));
    }
    for eid in g.edge_ids() {
        let (s, d) = g.edge_endpoints(eid)?;
        out.push_str(&format!("edge {} {} {}\n", s.0, d.0, g.edge_label(eid)?));
    }
    Ok(out)
}

/// Serialises a graph to JSON (lossless, including attributes).
pub fn to_json(g: &Graph) -> String {
    chatgraph_support::json::to_string(g)
}

/// Parses a graph from its JSON representation.
pub fn from_json(text: &str) -> Result<Graph, chatgraph_support::json::JsonError> {
    chatgraph_support::json::from_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\n# a molecule\ngraph mol undirected\nnode 0 C\nnode 1 O\nnode 2 H\nedge 0 1 double\nedge 0 2 single\n";

    #[test]
    fn parses_sample() {
        let g = parse_edge_list(SAMPLE).unwrap();
        assert_eq!(g.name(), "mol");
        assert!(!g.is_directed());
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(
            g.label_histogram(),
            vec![
                ("C".to_owned(), 1),
                ("H".to_owned(), 1),
                ("O".to_owned(), 1)
            ]
        );
    }

    #[test]
    fn edges_create_unseen_nodes() {
        let g = parse_edge_list("edge a b friend").unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn directed_header() {
        let g = parse_edge_list("graph kg directed\nedge a b r").unwrap();
        assert!(g.is_directed());
    }

    #[test]
    fn rejects_double_header() {
        let err = parse_edge_list("graph a\ngraph b").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(2, _)));
    }

    #[test]
    fn rejects_garbage() {
        let err = parse_edge_list("wibble 1 2").unwrap_err();
        assert!(matches!(err, ParseError::BadLine(1, _)));
        assert!(err.to_string().contains("wibble"));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = parse_edge_list("edge a b x\nedge a b y").unwrap_err();
        assert!(matches!(err, ParseError::Graph(_)));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = parse_edge_list(SAMPLE).unwrap();
        let text = to_edge_list(&g).unwrap();
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.label_histogram(), g.label_histogram());
    }

    #[test]
    fn json_roundtrip_preserves_attrs() {
        let mut g = parse_edge_list(SAMPLE).unwrap();
        let v = g.node_ids().next().unwrap();
        g.set_node_attr(v, "charge", -1i64).unwrap();
        let g2 = from_json(&to_json(&g)).unwrap();
        assert_eq!(g2.node_attrs(v).unwrap()["charge"].as_int(), Some(-1));
    }

    /// Freezes the JSON wire format: field order, transparent ids,
    /// string direction variants, and untagged attribute scalars must
    /// stay byte-identical to what the pre-vendoring serde derives
    /// produced, so previously exported graphs keep loading.
    #[test]
    fn json_wire_format_is_stable() {
        let mut g = crate::Graph::undirected();
        g.set_name("G");
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.set_node_attr(a, "w", 1.5f64).unwrap();
        g.add_edge(a, b, "e").unwrap();
        let expected = concat!(
            r#"{"direction":"Undirected","name":"G","#,
            r#""nodes":[{"label":"A","attrs":{"w":1.5},"removed":false},"#,
            r#"{"label":"B","attrs":{},"removed":false}],"#,
            r#""edges":[{"src":0,"dst":1,"label":"e","attrs":{},"removed":false}],"#,
            r#""out_adj":[[[1,0]],[[0,0]]],"in_adj":[[],[]],"#,
            r#""live_nodes":2,"live_edges":1}"#
        );
        assert_eq!(to_json(&g), expected);
        assert_eq!(from_json(expected).unwrap(), g);
    }

    /// A document's adjacency lists and live counts are derived data: the
    /// decoder rebuilds them from the slots instead of trusting them, and
    /// refuses an edge whose endpoint names no node slot.
    #[test]
    fn json_decode_rebuilds_derived_fields_and_checks_endpoints() {
        let slots = concat!(
            r#"{"direction":"Undirected","name":"G","#,
            r#""nodes":[{"label":"A","attrs":{},"removed":false},"#,
            r#"{"label":"B","attrs":{},"removed":false}],"#,
            r#""edges":[{"src":0,"dst":1,"label":"e","attrs":{},"removed":false}],"#,
        );
        let honest = from_json(&format!(
            r#"{slots}"out_adj":[[[1,0]],[[0,0]]],"in_adj":[[],[]],"live_nodes":2,"live_edges":1}}"#
        ))
        .unwrap();
        let (a, b) = (NodeId(0), NodeId(1));

        // Adjacency naming node 7 (and edge 7) in a 2-node graph.
        let g = from_json(&format!(
            r#"{slots}"out_adj":[[[7,7]],[[0,0]]],"in_adj":[[],[]],"live_nodes":2,"live_edges":1}}"#
        ))
        .unwrap();
        assert!(!g.has_edge(a, NodeId(7)));
        assert!(g.has_edge(a, b));
        assert_eq!(crate::CsrGraph::build(&g).n(), 2);
        assert_eq!(g, honest);

        // Adjacency lists shorter than the node slots.
        let mut g = from_json(&format!(
            r#"{slots}"out_adj":[],"in_adj":[],"live_nodes":2,"live_edges":1}}"#
        ))
        .unwrap();
        assert_eq!(g, honest);
        let c = g.add_node("C");
        g.add_edge(a, c, "f").unwrap();
        assert_eq!(g.degree(a), 2);

        // Live counts that disagree with the slots.
        let g = from_json(&format!(
            r#"{slots}"out_adj":[[[1,0]],[[0,0]]],"in_adj":[[],[]],"live_nodes":40,"live_edges":9}}"#
        ))
        .unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (2, 1));

        // An edge whose endpoint is outside the node slots.
        let bad_edge = concat!(
            r#"{"direction":"Undirected","name":"G","#,
            r#""nodes":[{"label":"A","attrs":{},"removed":false}],"#,
            r#""edges":[{"src":0,"dst":5,"label":"e","attrs":{},"removed":false}],"#,
            r#""out_adj":[[]],"in_adj":[[]],"live_nodes":1,"live_edges":1}"#
        );
        assert!(from_json(bad_edge).is_err());
    }

    #[test]
    fn default_edge_label_is_dash() {
        let g = parse_edge_list("edge x y").unwrap();
        let e = g.edge_ids().next().unwrap();
        assert_eq!(g.edge_label(e).unwrap(), "-");
    }
}
