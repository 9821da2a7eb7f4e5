//! # gbc-core — *Greedy by Choice*
//!
//! The primary contribution of Greco, Zaniolo & Ganguly's PODS 1992
//! paper, as a Rust library:
//!
//! * [`rewrite`] — the meta-level rewritings that give `next`, `choice`
//!   and `least`/`most` a first-order, stable-model semantics;
//! * [`analysis`] — compile-time recognition of **stage-stratified**
//!   programs (Section 4): stage-predicate inference, difference-
//!   constraint checking of the strict/weak stage inequalities, clique
//!   classification;
//! * [`exec`] — the **Alternating Stage-Choice Fixpoint** executor over
//!   the (R, Q, L) priority structures of Section 6, delivering
//!   procedural-grade asymptotics for declarative greedy programs;
//! * [`verify`] — Theorem 1 validation: runs are checked to be stable
//!   models of the rewritten negative program (Gelfond–Lifschitz).
//!
//! The one-stop entry point is [`compile`]:
//!
//! ```
//! use gbc_core::{compile, ProgramClass};
//! use gbc_storage::Database;
//! use gbc_ast::Value;
//!
//! let program = gbc_parser::parse_program(
//!     "sp(nil, 0, 0).
//!      sp(X, C, I) <- next(I), p(X, C), least(C, I).",
//! ).unwrap();
//! let compiled = compile(program).unwrap();
//! assert_eq!(*compiled.class(), ProgramClass::StageStratified { alternating: true });
//!
//! let mut edb = Database::new();
//! for (x, c) in [("b", 30), ("a", 10), ("c", 20)] {
//!     edb.insert_values("p", vec![Value::sym(x), Value::int(c)]);
//! }
//! let run = compiled.run(&edb).unwrap();
//! // sp ranks tuples by cost: stage 1 = a(10), 2 = c(20), 3 = b(30).
//! let sp = run.db.facts_of(gbc_ast::Symbol::intern("sp"));
//! assert_eq!(sp.len(), 4); // exit fact + 3 ranked tuples
//! ```

pub mod analysis;
pub mod diag;
pub mod error;
pub mod exec;
pub mod explain;
pub mod rewrite;
pub mod verify;

pub use analysis::{
    classify, Analysis, AnalyzeReport, ProgramClass, StageViolation, ANALYSIS_SCHEMA_VERSION,
};
pub use diag::{check_program, diagnostics_to_json, CheckReport, DIAG_SCHEMA_VERSION};
pub use error::CoreError;
pub use exec::{ChosenRecord, GreedyConfig, GreedyRun, GreedyStats};
pub use rewrite::{rewrite_full, FullRewrite};
pub use verify::verify_stable_model;

use gbc_ast::{Diagnostic, Program, Symbol};
use gbc_engine::{ChoiceFixpoint, Chooser, DeterministicFirst};
use gbc_storage::{dict_stats, Database, DictStats};
use gbc_telemetry::{JournalBuffer, Json, Telemetry};

/// A compiled program: validated, analysed, `next`-expanded, and — when
/// it is stage-stratified and its next rules fit the Section 6 template
/// — equipped with a greedy execution plan.
#[derive(Clone, Debug)]
pub struct Compiled {
    program: Program,
    expanded: Program,
    analysis: Analysis,
    plans: Vec<exec::NextPlan>,
    plan_error: Option<String>,
    /// The program's fact table, encoded when the program is compiled
    /// (empty without a greedy plan, the only evaluator that reads it)
    /// and shared by every greedy evaluation: each run borrows the
    /// relations copy-on-write, and their rendered text is cached in
    /// the row stores. Clones of a `Compiled` share it too.
    base: Database,
}

/// The admission gate: validate, classify and plan `program`, and
/// encode its facts when a greedy plan exists.
///
/// This is the one function that decides whether a program is
/// admitted. It refuses the program, with [`CoreError::Rejected`], when
/// static validation (GBC002–GBC006) or the stratification check
/// (GBC010) finds an error: exactly the errors `gbc check` reports.
/// Warnings never block.
pub fn compile(program: Program) -> Result<Compiled, CoreError> {
    let (diagnostics, analysis) = admit(&program);
    if !diagnostics.is_empty() {
        return Err(CoreError::Rejected { diagnostics });
    }
    let (expanded, plans, plan_error) = expand_and_plan(&program, &analysis);
    let base = if plan_error.is_none() { exec::fact_base(&program) } else { Database::new() };
    Ok(Compiled { program, expanded, analysis, plans, plan_error, base })
}

/// Static validation and classification: the program's errors (every
/// diagnostic returned is one) and its analysis. A program is admitted
/// iff the errors are none.
pub(crate) fn admit(program: &Program) -> (Vec<Diagnostic>, Analysis) {
    let mut diagnostics = program.diagnostics();
    let analysis = classify(program);
    if let ProgramClass::Unstratified { cycle } = &analysis.class {
        diagnostics.push(unstratified_diag(program, cycle));
    }
    (diagnostics, analysis)
}

/// An admitted program's `next` expansion and greedy plans, or why no
/// greedy plan exists.
pub(crate) fn expand_and_plan(
    program: &Program,
    analysis: &Analysis,
) -> (Program, Vec<exec::NextPlan>, Option<String>) {
    let expanded = rewrite::next::expand_next(program);
    let (plans, plan_error) = match &analysis.class {
        ProgramClass::StageStratified { .. } => {
            match exec::build_plans(program, &expanded, &analysis.stages) {
                Ok(p) => (p, None),
                Err(e) => (Vec::new(), Some(e.to_string())),
            }
        }
        other => (Vec::new(), Some(format!("not stage-stratified (class {})", other.summary()))),
    };
    (expanded, plans, plan_error)
}

/// GBC010: unstratified negation/extrema, with the cycle as a
/// predicate trace.
fn unstratified_diag(program: &Program, cycle: &[Symbol]) -> Diagnostic {
    let mut trace: Vec<String> = cycle.iter().map(|p| p.to_string()).collect();
    if let Some(first) = trace.first().cloned() {
        trace.push(first);
    }
    let mut d = Diagnostic::error(
        "GBC010",
        "negation or extrema through recursion without stage discipline",
    )
    .with_note(format!("dependency cycle: {}", trace.join(" → ")))
    .with_help(
        "break the cycle, or introduce a `next` stage so each round only \
         negates the previous stage's facts (Section 4)",
    );
    // Anchor: the rule owning the offending dependency (head of the
    // cycle with a negative or extremum edge into it).
    if let Some(head) = cycle.first() {
        let offending = program.rules.iter().find(|r| {
            r.head.pred == *head
                && (r.has_extrema() || r.negated_atoms().any(|a| cycle.contains(&a.pred)))
        });
        if let Some(r) = offending {
            d = d.with_label(r.span(), format!("`{head}` depends on itself through this rule"));
        }
    }
    d
}

impl Compiled {
    /// The original program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The `next`-expanded program (choice/extrema intact).
    pub fn expanded(&self) -> &Program {
        &self.expanded
    }

    /// The analysis result.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The program class.
    pub fn class(&self) -> &ProgramClass {
        &self.analysis.class
    }

    /// The encoded fact base every greedy evaluation starts from.
    pub fn fact_base(&self) -> &Database {
        &self.base
    }

    /// Does a greedy (Section 6) plan exist?
    pub fn has_greedy_plan(&self) -> bool {
        self.plan_error.is_none()
    }

    /// Why no greedy plan exists, when it doesn't.
    pub fn plan_error(&self) -> Option<&str> {
        self.plan_error.as_deref()
    }

    /// The whole-program analysis report (`gbc analyze`): column types,
    /// reachability/dead-rule facts, and static facts about each greedy
    /// plan. The executor reads none of them.
    pub fn analyze_report(&self) -> AnalyzeReport {
        analysis::analyze_program(&self.program, &self.analysis.class, &self.plans)
    }

    /// Run with the greedy executor (errors when no plan exists).
    pub fn run_greedy(&self, edb: &Database) -> Result<GreedyRun, CoreError> {
        self.run_greedy_with(edb, GreedyConfig::default())
    }

    /// [`Compiled::run_greedy`] with explicit limits.
    pub fn run_greedy_with(
        &self,
        edb: &Database,
        config: GreedyConfig,
    ) -> Result<GreedyRun, CoreError> {
        self.run_greedy_telemetry(edb, config, &Telemetry::default())
    }

    /// [`Compiled::run_greedy_with`] under an explicit [`Telemetry`]
    /// handle: counters, the timing recorder and the trace sink are
    /// threaded through every executor layer. Executor construction is
    /// timed as the `setup` phase; the executor run as the `run/...`
    /// phases, whose sum is the `run` phase.
    pub fn run_greedy_telemetry(
        &self,
        edb: &Database,
        config: GreedyConfig,
        tel: &Telemetry,
    ) -> Result<GreedyRun, CoreError> {
        if let Some(e) = &self.plan_error {
            return Err(CoreError::NoGreedyPlan { detail: e.clone() });
        }
        let ex = tel.phases.time("setup", || {
            let mut ex = exec::GreedyExecutor::with_base(
                &self.program,
                self.plans.clone(),
                edb,
                &self.base,
                config,
            );
            ex.set_telemetry(tel.clone());
            ex
        });
        ex.run()
    }

    /// Run with the generic Choice Fixpoint (`gbc-engine`) on the
    /// expanded program — the reference (and ablation-baseline)
    /// evaluator: correct for every program that is locally stratified
    /// modulo choice, but without the (R,Q,L) asymptotics.
    pub fn run_generic(&self, edb: &Database) -> Result<GreedyRun, CoreError> {
        self.run_generic_telemetry(edb, &Telemetry::default(), &mut DeterministicFirst)
    }

    /// [`Compiled::run_generic`] under an explicit [`Telemetry`] handle,
    /// with `chooser` picking among the candidates at each choice point.
    pub fn run_generic_telemetry(
        &self,
        edb: &Database,
        tel: &Telemetry,
        chooser: &mut dyn Chooser,
    ) -> Result<GreedyRun, CoreError> {
        let mut fixpoint = tel.phases.time("setup", || ChoiceFixpoint::new(&self.expanded, edb))?;
        fixpoint.set_telemetry(tel.clone());
        fixpoint.run(chooser)?;
        let chosen = verify::records_from_engine(&fixpoint, &self.expanded);
        let steps = fixpoint.gamma_steps();
        Ok(GreedyRun {
            db: fixpoint.into_database(),
            chosen,
            stats: GreedyStats { gamma_steps: steps, ..GreedyStats::default() },
            snapshot: tel.metrics.snapshot(),
            pool: None,
        })
    }

    /// Run with the best available strategy: greedy when planned,
    /// generic otherwise.
    pub fn run(&self, edb: &Database) -> Result<GreedyRun, CoreError> {
        if self.has_greedy_plan() {
            self.run_greedy(edb)
        } else {
            self.run_generic(edb)
        }
    }

    /// [`Compiled::run`] under an explicit [`Telemetry`] handle.
    pub fn run_telemetry(&self, edb: &Database, tel: &Telemetry) -> Result<GreedyRun, CoreError> {
        if self.has_greedy_plan() {
            self.run_greedy_telemetry(edb, GreedyConfig::default(), tel)
        } else {
            self.run_generic_telemetry(edb, tel, &mut DeterministicFirst)
        }
    }
}

/// The stats report `--stats-json` writes and `GET /stats` serves:
/// [`Telemetry::to_json`], the `dictionary` counters moved since `base`
/// (the dictionary is process-global, so callers snapshot it when their
/// command or request starts), and the journal if recorded.
pub fn stats_report(tel: &Telemetry, base: &DictStats, journal: Option<&JournalBuffer>) -> Json {
    let mut report = tel.to_json();
    let Json::Obj(fields) = &mut report else { unreachable!("the telemetry report is an object") };
    let d = dict_stats().since(base);
    fields.push((
        "dictionary".to_owned(),
        Json::obj(vec![
            ("dict_entries", Json::UInt(d.dict_entries)),
            ("encode_hits", Json::UInt(d.encode_hits)),
            ("decode_calls", Json::UInt(d.decode_calls)),
        ]),
    ));
    if let Some(journal) = journal {
        fields.push(("journal".to_owned(), journal.to_json()));
    }
    report
}
