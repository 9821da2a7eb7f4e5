//! Errors of the compilation and execution pipeline.

use std::fmt;

use gbc_ast::Diagnostic;
use gbc_engine::EngineError;

/// Errors from `gbc-core`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// [`crate::compile`] refused the program: every error diagnostic
    /// of static validation (GBC002–GBC006) and stratification
    /// (GBC010). `gbc check` reports exactly these as errors.
    Rejected { diagnostics: Vec<Diagnostic> },
    /// Evaluation failed.
    Engine(EngineError),
    /// The program is not a stage program (conflicting stage arguments,
    /// mixed rule kinds in a clique, …).
    NotStageProgram { detail: String },
    /// No greedy plan exists (a next rule falls outside the Section 6
    /// template); callers should use the generic choice fixpoint.
    NoGreedyPlan { detail: String },
    /// The greedy executor hit its step budget.
    StepLimit { steps: u64 },
    /// A stage argument held a non-integer value at run time.
    NonIntegerStage { found: String },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rejected { diagnostics } => {
                f.write_str("invalid program")?;
                diagnostics.iter().try_for_each(|d| write!(f, "; {d}"))
            }
            CoreError::Engine(e) => write!(f, "{e}"),
            CoreError::NotStageProgram { detail } => {
                write!(f, "not a stage program: {detail}")
            }
            CoreError::NoGreedyPlan { detail } => {
                write!(f, "no greedy plan: {detail}")
            }
            CoreError::StepLimit { steps } => {
                write!(f, "greedy executor exceeded its step budget ({steps})")
            }
            CoreError::NonIntegerStage { found } => {
                write!(f, "stage argument must be an integer, found `{found}`")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}
