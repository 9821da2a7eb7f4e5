//! Engine errors.

use std::fmt;

use gbc_ast::{Diagnostic, Program};

/// Errors raised during evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The program failed static validation: the error diagnostics of
    /// [`Program::diagnostics`] (GBC002–GBC006).
    Rejected { diagnostics: Vec<Diagnostic> },
    /// Arithmetic applied to a non-integer value.
    TypeError { context: String },
    /// Integer division or modulo by zero.
    DivideByZero,
    /// Integer overflow in arithmetic.
    Overflow,
    /// A rule's head could not be grounded after body matching (should
    /// be prevented by safety validation).
    NonGroundHead { rule: String },
    /// No body literal was evaluable at some point (unsafe rule shape
    /// that slipped past validation, e.g. negation over unbound vars).
    NoEvaluableLiteral { rule: String },
    /// The program is not stratified (negation or extrema inside a
    /// recursive clique) and was given to the stratified evaluator.
    Unstratified { detail: String },
    /// A `next` goal reached the engine un-expanded.
    UnexpandedNext { rule: String },
    /// Evaluation exceeded the configured step budget (non-terminating
    /// program, e.g. uncontrolled function symbols).
    StepLimit { steps: u64 },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Rejected { diagnostics } => {
                f.write_str("invalid program")?;
                diagnostics.iter().try_for_each(|d| write!(f, "; {d}"))
            }
            EngineError::TypeError { context } => {
                write!(f, "type error: arithmetic on non-integer in {context}")
            }
            EngineError::DivideByZero => f.write_str("division by zero"),
            EngineError::Overflow => f.write_str("integer overflow"),
            EngineError::NonGroundHead { rule } => {
                write!(f, "non-ground head after body match in `{rule}`")
            }
            EngineError::NoEvaluableLiteral { rule } => {
                write!(f, "no evaluable literal while matching `{rule}`")
            }
            EngineError::Unstratified { detail } => write!(f, "program not stratified: {detail}"),
            EngineError::UnexpandedNext { rule } => {
                write!(f, "`next` goal must be expanded before evaluation: `{rule}`")
            }
            EngineError::StepLimit { steps } => {
                write!(f, "evaluation exceeded the step budget ({steps} steps)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The entry check of the engine's public evaluators: `program` must
/// pass static validation.
pub(crate) fn validate(program: &Program) -> Result<(), EngineError> {
    let diagnostics = program.diagnostics();
    if diagnostics.is_empty() {
        Ok(())
    } else {
        Err(EngineError::Rejected { diagnostics })
    }
}
