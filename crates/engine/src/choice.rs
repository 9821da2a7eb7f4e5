//! The **Choice Fixpoint** procedure (Sections 2 and 4 of the paper).
//!
//! ```text
//! Choice Fixpoint:
//!   S' := ∅;
//!   repeat  S := S';  S' := Q^∞(γ(S));  until S' = S
//! ```
//!
//! γ is the *one-consequence* operator: among the not-yet-chosen
//! instantiations of the choice rules that are consistent with every
//! functional dependency committed so far (and minimal under any
//! `least` goal), fire exactly one — the [`Chooser`] decides which.
//! `Q^∞` saturates the remaining ("flat") rules with the persistent
//! seminaive driver.
//!
//! Per the paper's implementation note, only the `chosen` predicates
//! are memoised — as one functional-dependency map per `choice` goal —
//! and the `diffChoice` consistency test is generated on the fly by
//! looking a candidate's left-hand tuple up in those maps.

use std::sync::Arc;

use gbc_ast::{Literal, Program, Rule, Symbol, Term, Value};
use gbc_storage::{Database, Row};
use gbc_telemetry::{Telemetry, TraceEvent};

use crate::bindings::Bindings;
use crate::chooser::Chooser;
use crate::error::EngineError;
use crate::eval::{eval_term, fact_rows, instantiate_head, parent_rows};
use crate::extrema::{collect_matches_plan, filter_extrema};
use crate::plan::RulePlan;
use crate::seminaive::Seminaive;

/// Tuning for the fixpoint.
#[derive(Clone, Copy, Debug)]
pub struct ChoiceFixpointConfig {
    /// Upper bound on γ steps; exceeded ⇒ [`EngineError::StepLimit`].
    /// Guards against non-terminating programs over function symbols.
    pub max_gamma_steps: u64,
}

impl Default for ChoiceFixpointConfig {
    fn default() -> Self {
        ChoiceFixpointConfig { max_gamma_steps: 10_000_000 }
    }
}

/// One fireable instance of a choice rule.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Index into the choice-rule list.
    pub rule: usize,
    /// The instantiated head.
    pub head: Row,
    /// Per `choice` goal: the (left, right) value tuples committed on fire.
    pub choices: Vec<(Vec<Value>, Vec<Value>)>,
    /// The values of the rule's choice variables (first-occurrence order
    /// across the `choice` goals) — the argument tuple of the
    /// `chosen_i` fact this firing corresponds to in the rewritten
    /// program. Used by `gbc-core` to reconstruct `chosen_i` relations
    /// when validating Theorem 1.
    pub chosen_args: Vec<Value>,
    /// The body rows this instantiation joined over. Only filled when a
    /// provenance arena is attached; excluded from comparisons so the
    /// candidate ordering (and hence γ) is identical with and without
    /// provenance.
    pub parents: Vec<(Symbol, Row)>,
}

/// The fields a [`Candidate`]'s identity and ordering are built from —
/// everything except `parents`, which is observability-only.
type CandidateKey<'a> = (usize, &'a Row, &'a [(Vec<Value>, Vec<Value>)], &'a [Value]);

impl Candidate {
    fn key(&self) -> CandidateKey<'_> {
        (self.rule, &self.head, &self.choices, &self.chosen_args)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Candidate) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Candidate) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Candidate) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The functional-dependency memo of one `choice` goal.
type FdMap = gbc_storage::FxHashMap<Vec<Value>, Vec<Value>>;

/// The Choice Fixpoint machine. Holds the evolving database, the
/// chosen-FD memos, and the flat-rule saturator. Cloneable so the
/// exhaustive enumerator can branch.
#[derive(Debug, Clone)]
pub struct ChoiceFixpoint {
    choice_rules: Vec<Rule>,
    /// Original-program rule index per choice rule (for provenance,
    /// profiling and audit events).
    choice_rule_ids: Vec<usize>,
    /// Head predicate of each choice rule (cached).
    choice_heads: Vec<Symbol>,
    /// Join plans of the choice rules, compiled once at construction;
    /// every γ step re-executes them instead of re-deriving the literal
    /// order (`candidates` takes `&self`, so the cache is eager).
    choice_plans: Vec<Arc<RulePlan>>,
    flat: Seminaive,
    /// `memos[rule][goal]` — one FD map per choice goal per rule
    /// (distinct `chosen_i`, per the paper's footnote 1).
    memos: Vec<Vec<FdMap>>,
    db: Database,
    config: ChoiceFixpointConfig,
    steps: u64,
    /// Log of fired candidates, in firing order.
    committed: Vec<Candidate>,
    /// Instrumentation bundle: counters (γ steps), the timing recorder
    /// and the optional trace sink (audit events). Forwarded to the
    /// database and the flat-rule saturator on attach.
    tel: Telemetry,
}

impl ChoiceFixpoint {
    /// Partition `program` into choice rules and flat rules and load
    /// `edb` plus the program's facts. The program must be `next`-free
    /// (expand first — `gbc-core`) and valid.
    pub fn new(program: &Program, edb: &Database) -> Result<ChoiceFixpoint, EngineError> {
        Self::with_config(program, edb, ChoiceFixpointConfig::default())
    }

    /// [`ChoiceFixpoint::new`] with explicit limits.
    pub fn with_config(
        program: &Program,
        edb: &Database,
        config: ChoiceFixpointConfig,
    ) -> Result<ChoiceFixpoint, EngineError> {
        crate::error::validate(program)?;
        let mut db = edb.clone();
        let mut choice_rules = Vec::new();
        let mut choice_rule_ids = Vec::new();
        let mut flat_rules = Vec::new();
        let mut flat_ids = Vec::new();
        for (i, r) in program.rules.iter().enumerate() {
            if r.has_next() {
                return Err(EngineError::UnexpandedNext { rule: r.to_string() });
            }
            if r.has_choice() {
                choice_rules.push(r.clone());
                choice_rule_ids.push(i);
            } else {
                flat_rules.push(r.clone());
                flat_ids.push(i);
            }
        }
        for (pred, row) in fact_rows(program) {
            db.insert(pred, row);
        }
        let memos = choice_rules
            .iter()
            .map(|r| {
                let goals = r.body.iter().filter(|l| matches!(l, Literal::Choice { .. })).count();
                vec![FdMap::default(); goals]
            })
            .collect();
        let choice_heads = choice_rules.iter().map(|r| r.head.pred).collect();
        let choice_plans = choice_rules
            .iter()
            .map(|r| RulePlan::compile(r).map(Arc::new))
            .collect::<Result<_, _>>()?;
        let mut flat = Seminaive::new(flat_rules);
        flat.set_rule_ids(flat_ids);
        Ok(ChoiceFixpoint {
            choice_rules,
            choice_rule_ids,
            choice_heads,
            choice_plans,
            flat,
            memos,
            db,
            config,
            steps: 0,
            committed: Vec::new(),
            tel: Telemetry::counters_only(),
        })
    }

    /// Attach an instrumentation bundle, forwarded to the database (index
    /// traffic) and the flat-rule saturator.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.db.set_metrics(Arc::clone(&tel.metrics));
        self.flat.set_telemetry(tel.clone());
        self.tel = tel;
    }

    /// The current database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Consume the machine, yielding its database.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Number of γ steps taken so far.
    pub fn gamma_steps(&self) -> u64 {
        self.steps
    }

    /// Saturate the flat rules (`Q^∞`).
    pub fn saturate_flat(&mut self) -> Result<u64, EngineError> {
        self.flat.saturate(&mut self.db)
    }

    /// Compute the current γ candidate set: FD-consistent, extrema-
    /// minimal, not-yet-fired instances of every choice rule, sorted
    /// and deduplicated.
    pub fn candidates(&self) -> Result<Vec<Candidate>, EngineError> {
        let prov = self.db.provenance().cloned();
        let mut out = Vec::new();
        for (ri, rule) in self.choice_rules.iter().enumerate() {
            let rule_id = self.choice_rule_ids[ri];
            self.tel.metrics.plan_cache_hits.inc();
            self.tel.phases.plan_hit(rule_id);
            let frames = collect_matches_plan(&self.db, rule, &self.choice_plans[ri], None)?;
            let considered = frames.len() as u64;
            self.tel.metrics.choice_candidates_considered.add(considered);
            // diffChoice on the fly: drop frames contradicting a memo.
            let mut consistent = Vec::new();
            let mut rejected: u64 = 0;
            for b in frames {
                match self.fd_conflict(ri, rule, &b)? {
                    None => consistent.push(b),
                    Some((gi, left, attempted, committed)) => {
                        rejected += 1;
                        self.tel.metrics.diffchoice_rejections.inc();
                        if let Some(arena) = &prov {
                            let head = instantiate_head(rule, &b)?;
                            arena.record_rejection(
                                rule_id,
                                gi,
                                "diffchoice",
                                rule.head.pred,
                                &head,
                                left,
                                attempted,
                                committed,
                            );
                        }
                    }
                }
            }
            if considered > 0 {
                self.tel.trace_with(|| TraceEvent::ChoiceAudit {
                    rule: rule_id,
                    pred: rule.head.pred.to_string(),
                    considered,
                    rejected,
                });
            }
            // least/most among the FD-consistent instantiations (the
            // rewriting order of Section 2: choice first, then least).
            let minimal = filter_extrema(rule, consistent)?;
            for b in &minimal {
                let cand = self.make_candidate(ri, rule, b, prov.is_some())?;
                if self.is_new(&cand) {
                    out.push(cand);
                }
            }
            self.tel.phases.charge(rule_id, 0, 0);
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Fire one candidate: insert its head and commit its FD pairs.
    pub fn commit(&mut self, cand: &Candidate) {
        let rule_id = self.choice_rule_ids[cand.rule];
        if let Some(arena) = self.db.provenance().cloned() {
            arena.advance_step();
            arena.record_derivation(
                self.choice_heads[cand.rule],
                &cand.head,
                rule_id,
                &cand.parents,
            );
            arena.record_commit(
                rule_id,
                self.choice_heads[cand.rule],
                &cand.head,
                cand.choices.clone(),
            );
        }
        self.db.insert(self.choice_heads[cand.rule], cand.head.clone());
        for (gi, (l, r)) in cand.choices.iter().enumerate() {
            self.memos[cand.rule][gi].insert(l.clone(), r.clone());
        }
        self.committed.push(cand.clone());
        self.steps += 1;
        self.tel.metrics.gamma_steps.inc();
        self.tel.phases.charge(rule_id, 1, 1);
    }

    /// The fired candidates, in order. Index [`Candidate::rule`] refers
    /// to [`ChoiceFixpoint::choice_rules`].
    pub fn committed(&self) -> &[Candidate] {
        &self.committed
    }

    /// The choice rules, in program order (the `rule` index space of
    /// candidates).
    pub fn choice_rules(&self) -> &[Rule] {
        &self.choice_rules
    }

    /// Run the fixpoint to completion under `chooser`. A round is timed
    /// as `run/flat` (`Q^∞`), `run/gamma/choose` (the candidate set)
    /// and `run/gamma/commit` (the fired candidate).
    pub fn run(&mut self, chooser: &mut dyn Chooser) -> Result<&Database, EngineError> {
        let rec = Arc::clone(&self.tel.phases);
        rec.time("run/other", || loop {
            rec.enter("run/flat");
            self.saturate_flat()?;
            rec.enter("run/gamma/choose");
            let cands = self.candidates()?;
            if cands.is_empty() {
                rec.end_round();
                return Ok(());
            }
            if self.steps >= self.config.max_gamma_steps {
                return Err(EngineError::StepLimit { steps: self.steps });
            }
            let pick = chooser.pick(cands.len());
            rec.enter("run/gamma/commit");
            self.commit(&cands[pick]);
            rec.end_round();
        })?;
        Ok(&self.db)
    }

    fn eval_tuple(
        &self,
        rule: &Rule,
        terms: &[Term],
        b: &Bindings,
    ) -> Result<Vec<Value>, EngineError> {
        terms
            .iter()
            .map(|t| {
                eval_term(t, b).ok_or_else(|| EngineError::NonGroundHead { rule: rule.to_string() })
            })
            .collect()
    }

    /// First `choice` goal whose memoised FD the binding contradicts,
    /// as `(goal, left, attempted, committed)` — `None` means the
    /// binding is diffChoice-consistent.
    #[allow(clippy::type_complexity)]
    fn fd_conflict(
        &self,
        ri: usize,
        rule: &Rule,
        b: &Bindings,
    ) -> Result<Option<(usize, Vec<Value>, Vec<Value>, Vec<Value>)>, EngineError> {
        let mut gi = 0;
        for lit in &rule.body {
            let Literal::Choice { left, right } = lit else { continue };
            let l = self.eval_tuple(rule, left, b)?;
            let r = self.eval_tuple(rule, right, b)?;
            if let Some(prev) = self.memos[ri][gi].get(&l) {
                if *prev != r {
                    return Ok(Some((gi, l, r, prev.clone())));
                }
            }
            gi += 1;
        }
        Ok(None)
    }

    fn make_candidate(
        &self,
        ri: usize,
        rule: &Rule,
        b: &Bindings,
        with_parents: bool,
    ) -> Result<Candidate, EngineError> {
        let head = instantiate_head(rule, b)?;
        let mut choices = Vec::new();
        for lit in &rule.body {
            let Literal::Choice { left, right } = lit else { continue };
            choices.push((self.eval_tuple(rule, left, b)?, self.eval_tuple(rule, right, b)?));
        }
        let chosen_args = choice_var_values(rule, b)?;
        let parents = if with_parents { parent_rows(rule, b) } else { Vec::new() };
        Ok(Candidate { rule: ri, head, choices, chosen_args, parents })
    }

    /// `T_C(I) − I`: a candidate is new if its head fact or any of its
    /// FD commitments is not yet present.
    fn is_new(&self, cand: &Candidate) -> bool {
        if !self.db.contains(self.choice_heads[cand.rule], &cand.head) {
            return true;
        }
        cand.choices
            .iter()
            .enumerate()
            .any(|(gi, (l, r))| self.memos[cand.rule][gi].get(l) != Some(r))
    }
}

/// Evaluate the choice variables of `rule` under `b`.
fn choice_var_values(rule: &Rule, b: &Bindings) -> Result<Vec<Value>, EngineError> {
    rule.choice_vars()
        .into_iter()
        .map(|v| {
            b.get(v).cloned().ok_or_else(|| EngineError::NonGroundHead { rule: rule.to_string() })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::{DeterministicFirst, Scripted};
    use gbc_ast::Atom;
    use std::collections::HashMap;

    #[test]
    fn both_entry_points_reject_an_invalid_program() {
        // p(X) <- q(Y).: nothing binds `X` (GBC003).
        let program = Program::from_rules(vec![Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::pos("q", vec![Term::var(1)])],
            vec!["X".into(), "Y".into()],
        )]);
        let edb = Database::new();
        for err in [
            ChoiceFixpoint::new(&program, &edb).err(),
            crate::evaluate_stratified(&program, &edb).err(),
        ] {
            let Some(EngineError::Rejected { diagnostics }) = err else { panic!("{err:?}") };
            assert_eq!(diagnostics.iter().map(|d| d.code).collect::<Vec<_>>(), ["GBC003"]);
        }
    }

    /// The paper's Example 1: one student per course and vice versa.
    fn example1() -> (Program, Database) {
        let rule = Rule::new(
            Atom::new("a_st", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("takes", vec![Term::var(0), Term::var(1)]),
                Literal::Choice { left: vec![Term::var(1)], right: vec![Term::var(0)] },
                Literal::Choice { left: vec![Term::var(0)], right: vec![Term::var(1)] },
            ],
            vec!["St".into(), "Crs".into()],
        );
        let mut edb = Database::new();
        for (s, c) in [("andy", "engl"), ("mark", "engl"), ("ann", "math"), ("mark", "math")] {
            edb.insert_values("takes", vec![Value::sym(s), Value::sym(c)]);
        }
        (Program::from_rules(vec![rule]), edb)
    }

    #[test]
    fn choice_model_satisfies_both_fds() {
        let (p, edb) = example1();
        let mut cf = ChoiceFixpoint::new(&p, &edb).unwrap();
        let m = cf.run(&mut DeterministicFirst).unwrap();
        let a_st = Symbol::intern("a_st");
        let rows = m.facts_of(a_st);
        assert_eq!(rows.len(), 2, "two courses ⇒ two assignments: {rows:?}");
        // FD Crs → St and St → Crs.
        let mut by_course = HashMap::new();
        let mut by_student = HashMap::new();
        for r in &rows {
            assert!(by_course.insert(r[1].clone(), r[0].clone()).is_none());
            assert!(by_student.insert(r[0].clone(), r[1].clone()).is_none());
        }
    }

    #[test]
    fn different_choosers_reach_different_models() {
        let (p, edb) = example1();
        let run = |chooser: &mut dyn Chooser| {
            let mut cf = ChoiceFixpoint::new(&p, &edb).unwrap();
            cf.run(chooser).unwrap().canonical_form()
        };
        let first = run(&mut DeterministicFirst);
        let models: std::collections::HashSet<String> = (0..6)
            .map(|k| run(&mut Scripted::new(vec![k % 3, k / 2])))
            .chain(std::iter::once(first))
            .collect();
        // The paper lists exactly three choice models for these facts.
        assert!(models.len() >= 2, "expected multiple models, got {models:?}");
        assert!(models.len() <= 3);
    }

    #[test]
    fn flat_rules_fire_between_choices() {
        // picked(X) <- item(X, C), choice((), (X)).   (pick exactly one item)
        // done <- picked(X).
        let rules = vec![
            Rule::new(
                Atom::new("picked", vec![Term::var(0)]),
                vec![
                    Literal::pos("item", vec![Term::var(0), Term::var(1)]),
                    Literal::Choice { left: vec![], right: vec![Term::var(0)] },
                ],
                vec!["X".into(), "C".into()],
            ),
            Rule::new(
                Atom::new("done", vec![]),
                vec![Literal::pos("picked", vec![Term::var(0)])],
                vec!["X".into()],
            ),
        ];
        let mut edb = Database::new();
        edb.insert_values("item", vec![Value::sym("a"), Value::int(1)]);
        edb.insert_values("item", vec![Value::sym("b"), Value::int(2)]);
        let p = Program::from_rules(rules);
        let mut cf = ChoiceFixpoint::new(&p, &edb).unwrap();
        let m = cf.run(&mut DeterministicFirst).unwrap();
        assert_eq!(m.count(Symbol::intern("picked")), 1, "choice((),(X)) picks exactly one");
        assert_eq!(m.count(Symbol::intern("done")), 1);
    }

    #[test]
    fn least_restricts_gamma_candidates() {
        // cheapest(X) <- item(X, C), least(C), choice((), (X)).
        let rule = Rule::new(
            Atom::new("cheapest", vec![Term::var(0)]),
            vec![
                Literal::pos("item", vec![Term::var(0), Term::var(1)]),
                Literal::Least { cost: Term::var(1), group: vec![] },
                Literal::Choice { left: vec![], right: vec![Term::var(0)] },
            ],
            vec!["X".into(), "C".into()],
        );
        let mut edb = Database::new();
        edb.insert_values("item", vec![Value::sym("pricey"), Value::int(9)]);
        edb.insert_values("item", vec![Value::sym("cheap"), Value::int(1)]);
        let p = Program::from_rules(vec![rule]);
        let mut cf = ChoiceFixpoint::new(&p, &edb).unwrap();
        let m = cf.run(&mut DeterministicFirst).unwrap();
        assert_eq!(
            m.facts_of(Symbol::intern("cheapest")),
            vec![Row::new(vec![Value::sym("cheap")])]
        );
    }

    #[test]
    fn recursive_choice_builds_a_spanning_tree() {
        // Example 3: st(nil, a, 0). st(X, Y, C) <- st(_, X, _), g(X, Y, C), choice(Y, (X, C)).
        // With the root guard Y ≠ a: the exit fact does not register in
        // the choice FD, so without the guard the source node could be
        // re-entered once (see DESIGN.md).
        let mut p = Program::new();
        p.push_fact("st", vec![Value::Nil, Value::sym("a"), Value::int(0)]);
        p.push(Rule::new(
            Atom::new("st", vec![Term::var(0), Term::var(1), Term::var(2)]),
            vec![
                Literal::pos("st", vec![Term::var(3), Term::var(0), Term::var(4)]),
                Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::cmp(
                    gbc_ast::CmpOp::Ne,
                    gbc_ast::term::Expr::var(1),
                    gbc_ast::term::Expr::Term(Term::sym("a")),
                ),
                Literal::Choice {
                    left: vec![Term::var(1)],
                    right: vec![Term::var(0), Term::var(2)],
                },
            ],
            vec!["X".into(), "Y".into(), "C".into(), "_".into(), "_2".into()],
        ));
        let mut edb = Database::new();
        // Undirected square a-b-c-d stored as directed pairs.
        for (x, y, c) in [
            ("a", "b", 1),
            ("b", "a", 1),
            ("b", "c", 2),
            ("c", "b", 2),
            ("c", "d", 3),
            ("d", "c", 3),
            ("a", "d", 4),
            ("d", "a", 4),
        ] {
            edb.insert_values("g", vec![Value::sym(x), Value::sym(y), Value::int(c)]);
        }
        let mut cf = ChoiceFixpoint::new(&p, &edb).unwrap();
        let m = cf.run(&mut DeterministicFirst).unwrap();
        let st = Symbol::intern("st");
        // Every node reached exactly once: |st| = 4 (n nodes incl. root via nil).
        let rows = m.facts_of(st);
        assert_eq!(rows.len(), 4, "{rows:?}");
        let mut targets: Vec<String> = rows.iter().map(|r| r[1].to_string()).collect();
        targets.sort();
        targets.dedup();
        assert_eq!(targets.len(), 4, "each node entered exactly once");
    }

    #[test]
    fn step_limit_guards_runaway_programs() {
        // grow(s(X)) is not expressible without function-symbol heads in
        // this dialect; emulate unbounded growth with arithmetic through
        // a choice rule: n(J) <- n(I), J = I + 1, choice(J, I).
        let rule = Rule::new(
            Atom::new("n", vec![Term::var(1)]),
            vec![
                Literal::pos("n", vec![Term::var(0)]),
                Literal::cmp(
                    gbc_ast::CmpOp::Eq,
                    gbc_ast::term::Expr::var(1),
                    gbc_ast::term::Expr::binary(
                        gbc_ast::term::ArithOp::Add,
                        gbc_ast::term::Expr::var(0),
                        gbc_ast::term::Expr::int(1),
                    ),
                ),
                Literal::Choice { left: vec![Term::var(1)], right: vec![Term::var(0)] },
            ],
            vec!["I".into(), "J".into()],
        );
        let mut p = Program::from_rules(vec![rule]);
        p.push_fact("n", vec![Value::int(0)]);
        let mut cf = ChoiceFixpoint::with_config(
            &p,
            &Database::new(),
            ChoiceFixpointConfig { max_gamma_steps: 50 },
        )
        .unwrap();
        assert!(matches!(cf.run(&mut DeterministicFirst), Err(EngineError::StepLimit { .. })));
    }
}
