//! # gbc-engine
//!
//! Bottom-up evaluation for the Greedy-by-Choice Datalog dialect:
//!
//! * [`eval`] — tuple-at-a-time rule-body matching with index-backed
//!   joins, arithmetic, comparisons and negation-as-lookup;
//! * [`extrema`] — in-rule `least`/`most` evaluation (group-by minimum /
//!   maximum over the body's satisfying bindings);
//! * [`seminaive`] — delta-driven saturation of a rule set;
//! * [`stratified`] — perfect-model evaluation of stratified programs
//!   (dependency graph → SCC condensation → stratum-by-stratum
//!   saturation);
//! * [`choice`] — the paper's **Choice Fixpoint** procedure: alternate
//!   the non-deterministic one-consequence operator γ with flat-rule
//!   saturation `Q^∞` (Section 2), with choice memoing — only `chosen`
//!   functional-dependency maps are materialised, `diffChoice` is an
//!   on-the-fly consistency check;
//! * [`chooser`] — pluggable non-determinism: deterministic-first,
//!   seeded-random;
//! * [`enumerate`] — exhaustive exploration of every γ instantiation,
//!   producing **all** choice models of small programs (Lemma 1/2);
//! * [`stable`] — a Gelfond–Lifschitz stable-model checker for negative
//!   programs (used to validate Theorem 1 on executor outputs), built on
//!   [`stratified`] and the matcher rather than a fixpoint of its own.
//!
//! The engine evaluates programs containing `choice`, `least`, `most`,
//! negation and comparisons. `next` goals must be macro-expanded first
//! (see `gbc-core`), keeping this crate independent of the paper-specific
//! rewritings layered on top of it.

pub mod bindings;
pub mod choice;
pub mod chooser;
pub mod enumerate;
pub mod error;
pub mod eval;
pub mod extrema;
pub mod graph;
pub mod plan;
pub mod seminaive;
pub mod stable;
pub mod stratified;

pub use bindings::Bindings;
pub use choice::{ChoiceFixpoint, ChoiceFixpointConfig};
pub use chooser::{Chooser, DeterministicFirst, SeededRandom};
pub use error::EngineError;
pub use stable::is_stable_model;
pub use stratified::evaluate_stratified;
