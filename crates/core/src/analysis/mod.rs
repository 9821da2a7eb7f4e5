//! Compile-time analysis: stage-variable inference and the
//! stage-stratification checker of Section 4 — the paper's claim that
//! greedy programs form "a syntactic class … easily recognized at
//! compile time".

pub mod classify;
pub mod constraints;
pub mod reachability;
pub mod report;
pub mod stage;
pub mod typeinfer;

pub use classify::{classify, Analysis, CliqueInfo, ProgramClass, StageViolation};
pub use constraints::Constraints;
pub use reachability::{ConstComparison, DeadRule, ReachInfo};
pub use report::{analyze_program, AnalyzeReport, PlanFacts, ANALYSIS_SCHEMA_VERSION};
pub use stage::{infer_stages, StageConflict, StageInfo};
pub use typeinfer::{Base, ColType, TypeConflict, TypeInfo};
