//! API metadata.
//!
//! Each API carries the natural-language description the retrieval module
//! embeds (paper §II-A: "the descriptions of APIs … are embedded into
//! high-dimensional vectors"), plus typing information for chain validation:
//! input/output [`ValueType`]s, the step-typing rule
//! ([`ApiDescriptor::accepts_input`]) and the declared parameter schema
//! ([`ParamSpec`]).

use crate::value::ValueType;

/// Functional category of an API. Mirrors the paper's scenario families;
/// graph-type prediction routes to category-specific APIs (scenario 1:
/// "if G is a social network, social-specific APIs will be invoked").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiCategory {
    /// Generic structural statistics.
    Structure,
    /// Social-network analysis (communities, centrality, connectivity).
    Social,
    /// Molecule property prediction.
    Molecule,
    /// Similarity search and graph comparison.
    Similarity,
    /// Knowledge-graph inference (incorrect/missing edge detection).
    Knowledge,
    /// Graph editing.
    Edit,
    /// Report/summary generation.
    Report,
}

chatgraph_support::impl_json_enum!(ApiCategory {
    Structure,
    Social,
    Molecule,
    Similarity,
    Knowledge,
    Edit,
    Report,
});

impl ApiCategory {
    /// All categories, in a fixed order.
    pub fn all() -> &'static [ApiCategory] {
        &[
            ApiCategory::Structure,
            ApiCategory::Social,
            ApiCategory::Molecule,
            ApiCategory::Similarity,
            ApiCategory::Knowledge,
            ApiCategory::Edit,
            ApiCategory::Report,
        ]
    }
}

/// Declared kind of one API parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Parsed with `str::parse::<usize>`.
    Int,
    /// Parsed with `str::parse::<f64>`.
    Float,
    /// Any string.
    Text,
}

chatgraph_support::impl_json_enum!(ParamKind { Int, Float, Text });

/// Declared schema of one API parameter (name, kind, range, default).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name as it appears in [`crate::ApiCall::params`].
    pub name: String,
    /// Value kind.
    pub kind: ParamKind,
    /// Inclusive lower bound (numeric kinds).
    pub min: Option<f64>,
    /// Inclusive upper bound (numeric kinds).
    pub max: Option<f64>,
    /// Default used when the parameter is absent or unparseable.
    pub default: Option<String>,
}

chatgraph_support::impl_json_struct!(ParamSpec { name, kind, min, max, default });

impl ParamSpec {
    /// An integer parameter with a range and default.
    pub fn int(name: &str, min: usize, max: usize, default: usize) -> Self {
        ParamSpec {
            name: name.to_owned(),
            kind: ParamKind::Int,
            min: Some(min as f64),
            max: Some(max as f64),
            default: Some(default.to_string()),
        }
    }

    /// A free-text parameter (no range, no default — i.e. required).
    pub fn text(name: &str) -> Self {
        ParamSpec { name: name.to_owned(), kind: ParamKind::Text, min: None, max: None, default: None }
    }
}

/// Static metadata of one API.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiDescriptor {
    /// Unique snake_case name (the token the LLM emits).
    pub name: String,
    /// Natural-language description, embedded for retrieval.
    pub description: String,
    /// Category.
    pub category: ApiCategory,
    /// Type of the primary input.
    pub input: ValueType,
    /// Type of the output.
    pub output: ValueType,
    /// Whether execution must be confirmed by the user first (graph-edit
    /// APIs, per scenario 3's confirmation step).
    pub requires_confirmation: bool,
    /// Whether the handler mutates the session graph. Mutating steps are
    /// graph-mutation barriers in the execution plan: every later step that
    /// reads the session graph must be ordered after them.
    pub mutates_graph: bool,
    /// Whether the supervisor may re-run the step after a *transient*
    /// failure (timeout or injected fault). True for pure analytics —
    /// re-running them on the same snapshot is side-effect free; cleared
    /// for mutating and confirmation-gated APIs, which are not idempotent.
    pub transient_retryable: bool,
    /// Declared parameter schema: the analyzer lints call parameters
    /// (unknown names, unparseable values, out-of-range values) against it.
    pub params: Vec<ParamSpec>,
}

chatgraph_support::impl_json_struct!(ApiDescriptor {
    name,
    description,
    category,
    input,
    output,
    requires_confirmation,
    mutates_graph,
    transient_retryable,
    params,
});

impl ApiDescriptor {
    /// Convenience constructor.
    pub fn new(
        name: &str,
        description: &str,
        category: ApiCategory,
        input: ValueType,
        output: ValueType,
    ) -> Self {
        ApiDescriptor {
            name: name.to_owned(),
            description: description.to_owned(),
            category,
            input,
            output,
            requires_confirmation: false,
            mutates_graph: false,
            transient_retryable: true,
            params: Vec::new(),
        }
    }

    /// Marks the API as requiring user confirmation. Confirmation-gated
    /// steps are never retried (the user answered once, for one attempt).
    pub fn with_confirmation(mut self) -> Self {
        self.requires_confirmation = true;
        self.transient_retryable = false;
        self
    }

    /// Marks the API as mutating the session graph (a plan barrier).
    /// Mutations are not idempotent, so the supervisor never retries them.
    pub fn with_mutation(mut self) -> Self {
        self.mutates_graph = true;
        self.transient_retryable = false;
        self
    }

    /// Declares the API's parameter schema.
    pub fn with_params<I: IntoIterator<Item = ParamSpec>>(mut self, params: I) -> Self {
        self.params = params.into_iter().collect();
        self
    }

    /// The step-typing rule: whether this API can run after a step that
    /// produced `prev` (`Unit` at chain start). Its input is satisfied by
    /// the previous output (`Any` accepts everything), by the session graph
    /// when the input is `Graph` and a graph was uploaded, or trivially when
    /// it takes `Unit`. [`crate::ApiChain::validate`], the decoder's
    /// [`crate::analysis::can_extend`] and the analyzer's CG003/CG004 pass
    /// all decide with this one function.
    pub fn accepts_input(&self, prev: ValueType, has_session_graph: bool) -> bool {
        self.input.accepts(prev)
            || (self.input == ValueType::Graph && has_session_graph)
            || self.input == ValueType::Unit
    }

    /// Looks up one declared parameter.
    pub fn param(&self, name: &str) -> Option<&ParamSpec> {
        self.params.iter().find(|p| p.name == name)
    }

    /// The text embedded by the retrieval module: name + description.
    pub fn retrieval_text(&self) -> String {
        format!("{} {}", self.name.replace('_', " "), self.description)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retrieval_text_includes_name_words() {
        let d = ApiDescriptor::new(
            "detect_communities",
            "find communities in a social network",
            ApiCategory::Social,
            ValueType::Graph,
            ValueType::Table,
        );
        assert!(d.retrieval_text().contains("detect communities"));
        assert!(d.retrieval_text().contains("social network"));
        assert!(!d.requires_confirmation);
    }

    #[test]
    fn confirmation_flag() {
        let d = ApiDescriptor::new(
            "remove_edges",
            "remove edges",
            ApiCategory::Edit,
            ValueType::EdgeList,
            ValueType::Number,
        )
        .with_confirmation();
        assert!(d.requires_confirmation);
        assert!(!d.transient_retryable, "confirmed steps are never retried");
    }

    #[test]
    fn retryability_defaults_on_and_clears_for_mutations() {
        let pure = ApiDescriptor::new(
            "node_count",
            "count nodes",
            ApiCategory::Structure,
            ValueType::Graph,
            ValueType::Number,
        );
        assert!(pure.transient_retryable);
        let edit = ApiDescriptor::new(
            "remove_edges",
            "remove edges",
            ApiCategory::Edit,
            ValueType::EdgeList,
            ValueType::Number,
        )
        .with_mutation();
        assert!(!edit.transient_retryable, "mutations are not idempotent");
    }

    #[test]
    fn categories_enumerated() {
        assert_eq!(ApiCategory::all().len(), 7);
    }
}
