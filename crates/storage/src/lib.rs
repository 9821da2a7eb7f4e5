//! # gbc-storage
//!
//! Storage structures for the Greedy-by-Choice engine:
//!
//! * [`tuple::Row`] — immutable, cheaply-clonable fact tuples;
//! * [`idtable::IdTable`] — the one open-addressed table from id tuples
//!   to dense entry numbers, behind every lookup below: relation dedup,
//!   index keys, congruence classes and FD memo entries;
//! * [`relation::Relation`] — insertion-ordered duplicate-free fact sets
//!   with lazily built, incrementally maintained hash indices
//!   ([`index::Index`]) on arbitrary column subsets;
//! * [`database::Database`] — the fact store mapping predicate symbols
//!   to relations;
//! * [`rql::Rql`] — the paper's **D_r = (R_r, Q_r, L_r)** structure: a
//!   priority queue of candidate facts with one representative per
//!   *r-congruence* class, the used set `L_r`, and the redundant set
//!   `R_r`, laid out as one id arena of class rows, a class table and
//!   a heap of inline nodes. Insertion and retrieve-least are
//!   `O(log |Q|)`;
//! * [`fdtable::FdTable`] — one choice goal's committed FD pairs in id
//!   space, each left tuple heading the chain of queued classes a
//!   commit of it may block;
//! * [`provenance::ProvenanceArena`] — an optional derivation record
//!   (rule id, γ step, parent rows, choice commits and rejections) the
//!   executors populate when one is attached to the [`Database`].

pub mod database;
pub mod dictionary;
pub mod fdtable;
pub mod fx;
pub mod idtable;
pub mod index;
pub mod provenance;
pub mod relation;
pub mod rql;
pub mod tuple;

pub use database::Database;
pub use dictionary::{dict_stats, DictStats, DictionaryFull, DICT_MISS};
pub use fdtable::FdTable;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use provenance::{ChoiceCommit, ChoiceRejection, Derivation, ProvenanceArena, NO_GOAL};
pub use relation::{ColumnBuf, Relation, RowsView};
pub use rql::{Rql, RqlOutcome};
pub use tuple::Row;
