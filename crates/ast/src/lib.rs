//! # gbc-ast
//!
//! Abstract syntax for the Datalog dialect of *Greedy by Choice*
//! (Greco, Zaniolo, Ganguly — PODS 1992).
//!
//! The dialect is plain Datalog extended with the paper's meta-level
//! constructs:
//!
//! * [`Literal::Choice`] — `choice(X, Y)`: the functional dependency
//!   `X → Y` must hold in the model (Section 2 of the paper);
//! * [`Literal::Least`] / [`Literal::Most`] — extrema goals
//!   `least(C, G)` / `most(C, G)` selecting, among the bindings that
//!   satisfy the rest of the body, those with the minimal (maximal)
//!   cost `C` per value of the grouping terms `G`;
//! * [`Literal::Next`] — `next(I)`: `I` is a *stage variable*, a fresh
//!   stage number minted once per committed head (Section 3);
//! * negated atoms and arithmetic comparisons.
//!
//! Values ([`value::Value`]) include function symbols (the Huffman
//! program of Example 6 builds `t(X, Y)` tree terms), so the universe is
//! a genuine Herbrand universe, not just flat constants.
//!
//! This crate is purely syntactic: parsing lives in `gbc-parser`,
//! semantics in `gbc-engine` and `gbc-core`.

pub mod diag;
pub mod facts;
pub mod literal;
pub mod pretty;
pub mod program;
pub mod rule;
pub mod span;
pub mod symbol;
pub mod term;
pub mod value;

pub use diag::{Diagnostic, Label, Severity};
pub use facts::{FactGroup, FactTable};
pub use literal::{Atom, CmpOp, Literal};
pub use program::{Clause, Program};
pub use rule::Rule;
pub use span::{LiteralSpans, RuleSpans, SourceMap, Span};
pub use symbol::Symbol;
pub use term::{Expr, Term, VarId};
pub use value::Value;
