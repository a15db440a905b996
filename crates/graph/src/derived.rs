//! Per-version derived data.
//!
//! Besides its CSR snapshot, each [`Graph`] version carries one slot of
//! values computed from it: the chat model's graph features, the GED
//! profile, a label summary, the sequentializer's token sequences.
//! [`Graph::derived`]
//! computes a value on the first call for a key and hands every later
//! call for that key the same `Arc`.
//!
//! * **Keyed by the caller's config.** The slot is type-erased, because
//!   this crate cannot name the types of the crates above it. An entry is
//!   found by the key's type and value (`K: PartialEq`), so two configs
//!   never share an entry and nothing depends on a content hash.
//! * **Shared by clones until one is edited.** Cloning a graph shares its
//!   slot; any edit the journal records (and a rename) drops the edited
//!   graph's reference, without allocating, so the new version starts
//!   empty while its twin keeps what was computed.
//! * **No lock is held while computing.** A value may be derived from
//!   another derived value of the same version (the chat features read
//!   the label summary), so `make` runs unlocked. Two first callers racing
//!   on one key may both compute; the first to publish wins and both get
//!   its value.

use crate::generators::RELATION_SCHEMA;
use crate::graph::Graph;
use std::any::Any;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Heavy-atom element symbols: a graph whose node labels are all among
/// them reads as a molecule.
pub const ELEMENT_SYMBOLS: &[&str] = &["C", "N", "O", "S", "P", "H", "F", "Cl", "Br"];

struct Entry {
    key: Box<dyn Any + Send + Sync>,
    value: Arc<dyn Any + Send + Sync>,
}

/// The entries of one version, shared by its clones.
type Shelf = Mutex<Vec<Entry>>;

/// The derived-data slot of one graph version.
#[derive(Default)]
pub(crate) struct Derived {
    shelf: OnceLock<Arc<Shelf>>,
}

impl Derived {
    fn shelf(&self) -> &Arc<Shelf> {
        self.shelf.get_or_init(Arc::default)
    }

    /// The value for `key`, computing it with `make(g)` (`g` being the
    /// graph that owns this slot) when no entry has it yet.
    // lockdoc: recover(entries are only looked up and pushed whole; a panic cannot tear the list)
    pub(crate) fn get_or_make<K, V>(
        &self,
        g: &Graph,
        key: K,
        make: impl FnOnce(&Graph) -> V,
    ) -> Arc<V>
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let shelf = self.shelf();
        if let Some(v) = find(&shelf.lock().unwrap_or_else(PoisonError::into_inner), &key) {
            return v;
        }
        let made = Arc::new(make(g));
        let mut entries = shelf.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = find(&entries, &key) {
            return v;
        }
        entries.push(Entry {
            key: Box::new(key),
            value: Arc::clone(&made) as _,
        });
        made
    }

    /// The version changed: drop this graph's reference to the entries.
    pub(crate) fn clear(&mut self) {
        self.shelf.take();
    }
}

fn find<K: PartialEq + 'static, V: Send + Sync + 'static>(
    entries: &[Entry],
    key: &K,
) -> Option<Arc<V>> {
    entries
        .iter()
        .find(|e| e.key.downcast_ref::<K>() == Some(key) && e.value.is::<V>())
        .and_then(|e| Arc::clone(&e.value).downcast::<V>().ok())
}

/// A clone is a twin of the same version, so it shares the slot (creating
/// it first, so twins share even what is computed after the clone).
impl Clone for Derived {
    fn clone(&self) -> Derived {
        let shelf = OnceLock::new();
        let _ = shelf.set(Arc::clone(self.shelf()));
        Derived { shelf }
    }
}

impl std::fmt::Debug for Derived {
    // lockdoc: recover(reads the entry count only)
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.shelf.get().map_or(0, |s| {
            s.lock().unwrap_or_else(PoisonError::into_inner).len()
        });
        write!(f, "Derived({entries} entries)")
    }
}

/// What the graph-type classifiers read of a version's labels, from one
/// pass over its live nodes (and, for a directed graph, its live edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelSummary {
    /// The graph has at least one live node.
    pub has_nodes: bool,
    /// Every live node label is in [`ELEMENT_SYMBOLS`].
    pub all_elements: bool,
    /// Some live node is labelled `Person` or `User`.
    pub has_person: bool,
    /// The graph is directed and some live edge carries a relation of
    /// [`RELATION_SCHEMA`].
    pub directed_kg_edges: bool,
}

#[derive(PartialEq)]
struct LabelSummaryKey;

impl Graph {
    /// Data derived from this version: `make(self)` on the first call for
    /// `key`, the same `Arc` on every later call from this graph or any
    /// clone of it (see [`crate::derived`]). `key` must name everything
    /// `make` reads besides the graph.
    pub fn derived<K, V>(&self, key: K, make: impl FnOnce(&Graph) -> V) -> Arc<V>
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.derived_slot().get_or_make(self, key, make)
    }

    /// This version's [`LabelSummary`], computed once per version.
    pub fn label_summary(&self) -> LabelSummary {
        *self.derived(LabelSummaryKey, |g| {
            let mut s = LabelSummary {
                has_nodes: false,
                all_elements: true,
                has_person: false,
                directed_kg_edges: false,
            };
            for v in g.node_ids() {
                let label = g.node_label(v).unwrap_or_default();
                s.has_nodes = true;
                s.all_elements &= ELEMENT_SYMBOLS.contains(&label);
                s.has_person |= label == "Person" || label == "User";
            }
            s.directed_kg_edges = g.is_directed()
                && g.edge_ids().any(|e| {
                    g.edge_label(e)
                        .is_ok_and(|l| RELATION_SCHEMA.iter().any(|r| r.0 == l))
                });
            s
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(PartialEq)]
    struct Key(u32);

    #[test]
    fn computed_once_per_key_and_shared_by_clones() {
        let g = GraphBuilder::undirected().edge("a", "b", "-").build();
        let runs = AtomicUsize::new(0);
        let count = |g: &Graph| {
            runs.fetch_add(1, Ordering::SeqCst);
            g.node_count()
        };
        let twin = g.clone();
        let a = g.derived(Key(1), count);
        assert!(Arc::ptr_eq(&a, &twin.derived(Key(1), count)));
        assert!(Arc::ptr_eq(&a, &g.clone().derived(Key(1), count)));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        // Another key is another entry.
        g.derived(Key(2), count);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn every_edit_and_a_rename_start_an_empty_slot() {
        let mut g = GraphBuilder::undirected().edge("a", "b", "-").build();
        let label = |g: &Graph| {
            g.node_label(crate::NodeId(0))
                .unwrap_or_default()
                .to_owned()
        };
        let twin = g.clone();
        assert_eq!(*g.derived(Key(0), label), "a");
        g.set_node_label(crate::NodeId(0), "z").unwrap();
        assert_eq!(*g.derived(Key(0), label), "z");
        assert_eq!(
            *twin.derived(Key(0), label),
            "a",
            "the twin keeps its entries"
        );
        let before = g.derived(Key(0), |_| String::new());
        g.set_name("renamed");
        assert!(!Arc::ptr_eq(&before, &g.derived(Key(0), |_| String::new())));
    }

    #[test]
    fn make_may_derive_from_the_same_version() {
        let g = GraphBuilder::undirected().edge("a", "b", "-").build();
        let outer = g.derived(Key(1), |g| *g.derived(Key(2), |g| g.edge_count()) + 1);
        assert_eq!(*outer, 2);
        assert_eq!(*g.derived(Key(2), |_| 0usize), 1);
    }

    #[test]
    fn label_summary_reads_nodes_and_kg_edges() {
        let mol = GraphBuilder::undirected()
            .node("a", "C")
            .node("b", "O")
            .edge("a", "b", "-")
            .build();
        let s = mol.label_summary();
        assert!(s.has_nodes && s.all_elements && !s.has_person && !s.directed_kg_edges);
        let kg = GraphBuilder::directed()
            .node("x", "Person")
            .node("y", "City")
            .edge("x", "y", RELATION_SCHEMA[0].0)
            .build();
        let s = kg.label_summary();
        assert!(s.has_nodes && !s.all_elements && s.has_person && s.directed_kg_edges);
        assert!(!Graph::undirected().label_summary().has_nodes);
    }
}
