//! Typed values exchanged between chained APIs.

use chatgraph_graph::{Graph, NodeId};
use chatgraph_support::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;
use std::sync::Arc;

/// The static type of a [`Value`], used to validate chains before running
/// them (scenario 4 lets the user edit a generated chain; the validator is
/// what makes editing safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// A property graph.
    Graph,
    /// A scalar number.
    Number,
    /// Free text.
    Text,
    /// A boolean.
    Bool,
    /// A list of node ids (with the session graph as referent).
    NodeList,
    /// A list of `(src, dst, label)` edges.
    EdgeList,
    /// A tabular result.
    Table,
    /// A composed multi-section report.
    Report,
    /// No value (chain start, or side-effect-only APIs).
    Unit,
    /// Accepts anything (report/summary sinks).
    Any,
}

chatgraph_support::impl_json_enum!(ValueType {
    Graph,
    Number,
    Text,
    Bool,
    NodeList,
    EdgeList,
    Table,
    Report,
    Unit,
    Any,
});

impl ValueType {
    /// Whether an input slot of this type accepts a value of type `v`.
    pub fn accepts(self, v: ValueType) -> bool {
        self == ValueType::Any || self == v
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Graph => "graph",
            ValueType::Number => "number",
            ValueType::Text => "text",
            ValueType::Bool => "bool",
            ValueType::NodeList => "node-list",
            ValueType::EdgeList => "edge-list",
            ValueType::Table => "table",
            ValueType::Report => "report",
            ValueType::Unit => "unit",
            ValueType::Any => "any",
        };
        f.write_str(s)
    }
}

/// A tabular API result: headers plus string rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
}

chatgraph_support::impl_json_struct!(Table { headers, rows });

impl Table {
    /// Builds a table from headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (converting cells to strings).
    pub fn push_row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, row: I) {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// A multi-section report (the output of scenario 1's "write a brief
/// report for G").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Report title.
    pub title: String,
    /// `(heading, body)` sections in order.
    pub sections: Vec<(String, String)>,
}

chatgraph_support::impl_json_struct!(Report { title, sections });

impl Report {
    /// Creates an empty titled report.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn add_section(&mut self, heading: impl Into<String>, body: impl Into<String>) {
        self.sections.push((heading.into(), body.into()));
    }

    /// Renders the report as plain text.
    pub fn to_text(&self) -> String {
        let mut out = format!("# {}\n", self.title);
        for (h, b) in &self.sections {
            out.push_str(&format!("\n## {h}\n{b}\n"));
        }
        out
    }
}

/// A dynamically typed API value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A property graph, shared by reference so passing a graph between
    /// steps (or caching one) never deep-copies it.
    Graph(Arc<Graph>),
    /// A scalar.
    Number(f64),
    /// Free text.
    Text(String),
    /// A boolean.
    Bool(bool),
    /// Node ids in the session graph.
    NodeList(Vec<NodeId>),
    /// `(src, dst, label)` edges.
    EdgeList(Vec<(NodeId, NodeId, String)>),
    /// A table.
    Table(Table),
    /// A report.
    Report(Report),
    /// Nothing.
    Unit,
}


impl ToJson for Value {
    fn to_json(&self) -> Json {
        // serde's externally tagged format: `{"Variant": payload}`, with
        // bare `"Unit"` for the payload-less variant.
        let tagged = |tag: &str, payload: Json| {
            Json::Object(vec![(tag.to_owned(), payload)])
        };
        match self {
            Value::Graph(g) => tagged("Graph", g.to_json()),
            Value::Number(x) => tagged("Number", Json::Float(*x)),
            Value::Text(t) => tagged("Text", Json::Str(t.clone())),
            Value::Bool(b) => tagged("Bool", Json::Bool(*b)),
            Value::NodeList(ns) => tagged("NodeList", ns.to_json()),
            Value::EdgeList(es) => tagged("EdgeList", es.to_json()),
            Value::Table(t) => tagged("Table", t.to_json()),
            Value::Report(r) => tagged("Report", r.to_json()),
            Value::Unit => Json::Str("Unit".to_owned()),
        }
    }
}

impl FromJson for Value {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some("Unit") = v.as_str() {
            return Ok(Value::Unit);
        }
        let fields = v.as_object().ok_or_else(|| JsonError::expected("Value object", v))?;
        let (tag, payload) = match fields {
            [(tag, payload)] => (tag.as_str(), payload),
            _ => return Err(JsonError::msg("Value must be a single-key tagged object")),
        };
        match tag {
            "Graph" => Ok(Value::Graph(Arc::new(FromJson::from_json(payload)?))),
            "Number" => Ok(Value::Number(FromJson::from_json(payload)?)),
            "Text" => Ok(Value::Text(FromJson::from_json(payload)?)),
            "Bool" => Ok(Value::Bool(FromJson::from_json(payload)?)),
            "NodeList" => Ok(Value::NodeList(FromJson::from_json(payload)?)),
            "EdgeList" => Ok(Value::EdgeList(FromJson::from_json(payload)?)),
            "Table" => Ok(Value::Table(FromJson::from_json(payload)?)),
            "Report" => Ok(Value::Report(FromJson::from_json(payload)?)),
            other => Err(JsonError::msg(format!("unknown Value variant `{other}`"))),
        }
    }
}

impl Value {
    /// The static type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Graph(_) => ValueType::Graph,
            Value::Number(_) => ValueType::Number,
            Value::Text(_) => ValueType::Text,
            Value::Bool(_) => ValueType::Bool,
            Value::NodeList(_) => ValueType::NodeList,
            Value::EdgeList(_) => ValueType::EdgeList,
            Value::Table(_) => ValueType::Table,
            Value::Report(_) => ValueType::Report,
            Value::Unit => ValueType::Unit,
        }
    }

    /// A one-line human summary (used by the chain monitor's progress feed).
    pub fn summary(&self) -> String {
        match self {
            Value::Graph(g) => format!("graph '{}' ({} nodes, {} edges)", g.name(), g.node_count(), g.edge_count()),
            Value::Number(x) => format!("{x:.4}"),
            Value::Text(t) => {
                if t.len() > 60 {
                    format!("{}…", &t[..t.char_indices().take(59).last().map(|(i, c)| i + c.len_utf8()).unwrap_or(0)])
                } else {
                    t.clone()
                }
            }
            Value::Bool(b) => b.to_string(),
            Value::NodeList(ns) => format!("{} nodes", ns.len()),
            Value::EdgeList(es) => format!("{} edges", es.len()),
            Value::Table(t) => format!("table ({} rows)", t.rows.len()),
            Value::Report(r) => format!("report '{}' ({} sections)", r.title, r.sections.len()),
            Value::Unit => "()".to_owned(),
        }
    }

    /// Extracts a number, if this is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// Extracts text, if this is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Extracts a table, if this is one.
    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Extracts a report, if this is one.
    pub fn as_report(&self) -> Option<&Report> {
        match self {
            Value::Report(r) => Some(r),
            _ => None,
        }
    }

    /// Extracts an edge list, if this is one.
    pub fn as_edge_list(&self) -> Option<&[(NodeId, NodeId, String)]> {
        match self {
            Value::EdgeList(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_graph::GraphBuilder;

    #[test]
    fn type_accepts() {
        assert!(ValueType::Any.accepts(ValueType::Graph));
        assert!(ValueType::Any.accepts(ValueType::Unit));
        assert!(ValueType::Number.accepts(ValueType::Number));
        assert!(!ValueType::Number.accepts(ValueType::Text));
    }

    #[test]
    fn value_types_roundtrip() {
        let g = GraphBuilder::undirected().node("a", "A").build();
        let vals = vec![
            Value::Graph(Arc::new(g)),
            Value::Number(1.5),
            Value::Text("x".into()),
            Value::Bool(true),
            Value::NodeList(vec![]),
            Value::EdgeList(vec![]),
            Value::Table(Table::default()),
            Value::Report(Report::default()),
            Value::Unit,
        ];
        let types = [
            ValueType::Graph,
            ValueType::Number,
            ValueType::Text,
            ValueType::Bool,
            ValueType::NodeList,
            ValueType::EdgeList,
            ValueType::Table,
            ValueType::Report,
            ValueType::Unit,
        ];
        for (v, t) in vals.iter().zip(types) {
            assert_eq!(v.value_type(), t);
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "count"]);
        t.push_row(["communities", "4"]);
        t.push_row(["x", "123456"]);
        let text = t.to_text();
        assert!(text.contains("name"));
        assert!(text.lines().count() >= 4);
        // header and rows align on the widest cell
        assert!(text.contains("communities  4"));
    }

    #[test]
    fn report_renders_sections() {
        let mut r = Report::new("Report for G");
        r.add_section("Overview", "120 nodes.");
        let text = r.to_text();
        assert!(text.starts_with("# Report for G"));
        assert!(text.contains("## Overview"));
        assert!(text.contains("120 nodes."));
    }

    #[test]
    fn summaries_are_short_and_informative() {
        assert_eq!(Value::Number(0.5).summary(), "0.5000");
        assert_eq!(Value::Unit.summary(), "()");
        let long = Value::Text("x".repeat(100)).summary();
        assert!(long.chars().count() <= 60);
        assert!(long.ends_with('…'));
    }

    #[test]
    fn json_roundtrip() {
        let v = Value::Table({
            let mut t = Table::new(["a"]);
            t.push_row(["1"]);
            t
        });
        let s = chatgraph_support::json::to_string(&v);
        let back: Value = chatgraph_support::json::from_str(&s).unwrap();
        assert_eq!(v, back);
    }
}
