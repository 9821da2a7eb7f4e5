//! # gbc-parser
//!
//! Lexer and recursive-descent parser for the surface syntax used by the
//! programs of *Greedy by Choice* (PODS 1992).
//!
//! The dialect, by example (Prim's algorithm — Example 4 of the paper):
//!
//! ```text
//! prm(nil, a, 0, 0).
//! prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
//!                    least(C, I), choice(Y, X).
//! new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
//! ```
//!
//! * Variables start with an uppercase letter or `_`; a bare `_` is an
//!   anonymous variable, fresh at each occurrence.
//! * Constants are lowercase identifiers (interned symbols), integers,
//!   `nil`, or double-quoted strings.
//! * Rules use `<-` or `:-`; every clause ends with `.`.
//! * Negation is written `not p(…)`, `~p(…)` or `¬p(…)`.
//! * Meta-goals: `choice(L, R)`, `least(C[, G])`, `most(C[, G])`,
//!   `next(I)`, where `L`, `R`, `G` are a term or a parenthesised term
//!   tuple (possibly empty: `choice((), (X, Y))`).
//! * Arithmetic: `+ - * / mod`, `max(E, E)`, `min(E, E)`; comparisons
//!   `= != <> < <= > >=`.
//! * Comments: `%` to end of line.
//!
//! # Example
//!
//! ```
//! let program = gbc_parser::parse_program(
//!     "sp(nil, 0, 0). sp(X, C, I) <- next(I), p(X, C), least(C, I).",
//! ).unwrap();
//! // The ground fact goes to the fact table; only the rule is a `Rule`.
//! assert_eq!((program.rules.len(), program.facts.len()), (1, 1));
//! assert!(program.rules[0].has_next());
//! ```

mod lexer;
mod parser;

pub use lexer::LexError;
pub use parser::{parse_program, parse_rule, ParseError, MAX_NESTING};

#[cfg(test)]
mod roundtrip_tests;
