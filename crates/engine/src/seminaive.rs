//! Delta-driven saturation of a rule set (seminaive evaluation).
//!
//! A [`Seminaive`] driver owns a rule set and per-predicate high-water
//! marks. Each call to [`Seminaive::saturate`] runs rounds until no new
//! facts appear; within a round, every non-extrema rule is evaluated
//! once per positive body occurrence, with that occurrence *focused* on
//! the rows inserted since the mark. Rules with `least`/`most` goals are
//! re-evaluated in full whenever a body predicate has grown (the filter
//! needs the complete match set), which is the behaviour the paper's
//! cost analysis assumes for flat rules.
//!
//! The driver persists across calls, so the paper's `Q^∞(γ(S))`
//! alternation (Section 2) pays only for work caused by the facts the
//! latest γ step introduced.

use std::sync::Arc;
use std::time::Instant;

use gbc_ast::{Literal, Rule, Symbol};
use gbc_storage::{Database, FxHashMap, Row};
use gbc_telemetry::{Metrics, RuleProfiler, TraceEvent, TraceSink};

use crate::error::EngineError;
use crate::eval::{instantiate_head, parent_rows, Focus};
use crate::extrema::{eval_rule_with_extrema_plan, eval_rule_with_extrema_plan_traced};
use crate::plan::{for_each_match_plan, PlanCache, RulePlan};

/// Rows joined over per derived head row — recorded for provenance.
type ParentSets = Vec<Vec<(Symbol, Row)>>;

/// Persistent seminaive driver. See the module docs.
#[derive(Clone)]
pub struct Seminaive {
    rules: Vec<Rule>,
    /// Original-program rule index per driven rule — the id reported
    /// to provenance, the profiler and `rule_fired` trace events.
    /// Defaults to the identity (driven rules ARE the program).
    rule_ids: Vec<usize>,
    /// Compiled join plans, one slot per rule, filled on first use and
    /// reused for every subsequent round and saturation call.
    plans: PlanCache,
    /// The distinct predicates appearing positively in rule bodies,
    /// computed once — each round snapshots exactly these counts.
    preds: Vec<Symbol>,
    /// Per-predicate count of rows already used as deltas.
    marks: FxHashMap<Symbol, usize>,
    /// Rules already given their initial full evaluation.
    evaluated_once: Vec<bool>,
    /// Per-round delta sizes report here when attached.
    metrics: Option<Arc<Metrics>>,
    /// `rule_fired` events go here when attached.
    trace: Option<Arc<dyn TraceSink>>,
    /// Per-rule timing reports here when attached.
    profiler: Option<Arc<RuleProfiler>>,
}

impl std::fmt::Debug for Seminaive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Seminaive")
            .field("rules", &self.rules.len())
            .field("marks", &self.marks)
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

impl Seminaive {
    /// Build a driver for `rules`. Rules may contain negation,
    /// comparisons and extrema; `choice`/`next` goals are rejected at
    /// evaluation time by the matcher.
    pub fn new(rules: Vec<Rule>) -> Seminaive {
        let n = rules.len();
        let mut preds = Vec::new();
        for rule in &rules {
            for a in rule.positive_atoms() {
                if !preds.contains(&a.pred) {
                    preds.push(a.pred);
                }
            }
        }
        Seminaive {
            rules,
            rule_ids: (0..n).collect(),
            plans: PlanCache::new(n),
            preds,
            marks: FxHashMap::default(),
            evaluated_once: vec![false; n],
            metrics: None,
            trace: None,
            profiler: None,
        }
    }

    /// Attach a counter registry: each saturation round reports its
    /// delta size (`record_delta`), feeding `tuples_derived`,
    /// `flat_rounds` and the optional per-round history.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// Override the original-program rule index per driven rule. Owners
    /// driving a *subset* of a program (the choice fixpoint's flat
    /// rules, the greedy executor) call this so observability reports
    /// cite program positions, not subset positions.
    pub fn set_rule_ids(&mut self, ids: Vec<usize>) {
        assert_eq!(ids.len(), self.rules.len(), "one id per driven rule");
        self.rule_ids = ids;
    }

    /// Attach (or detach) a trace sink for `rule_fired` events.
    pub fn set_trace(&mut self, trace: Option<Arc<dyn TraceSink>>) {
        self.trace = trace;
    }

    /// Attach (or detach) a per-rule profiler.
    pub fn set_profiler(&mut self, profiler: Option<Arc<RuleProfiler>>) {
        self.profiler = profiler;
    }

    /// The rules driven by this instance.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Run rounds until fixpoint. Returns the number of new facts.
    pub fn saturate(&mut self, db: &mut Database) -> Result<u64, EngineError> {
        let Seminaive {
            rules,
            rule_ids,
            plans,
            preds,
            marks,
            evaluated_once,
            metrics,
            trace,
            profiler,
        } = self;
        // Owned handle: recording happens while `db` is mutably
        // borrowed by the insert loop.
        let prov = db.provenance().cloned();
        let want_prov = prov.is_some();
        let mut total: u64 = 0;
        loop {
            // The round runs on a *chained* clock: one `Instant::now`
            // per boundary, with every interval charged either to the
            // rule that just evaluated or to the profiler's overhead
            // bucket (round snapshots, mark advances). Chaining — as
            // opposed to independent start/stop pairs per rule — leaves
            // no gap between intervals, so the clock reads themselves
            // cannot leak unattributed time.
            let mut t_prev = profiler.as_ref().and_then(|p| p.start());
            let start_lens: Vec<(Symbol, usize)> =
                preds.iter().map(|&p| (p, db.count(p))).collect();
            if let (Some(p), Some(t0)) = (profiler.as_ref(), t_prev) {
                let t = Instant::now();
                p.add_overhead(t - t0);
                t_prev = Some(t);
            }

            let mut new_facts: u64 = 0;
            for (ri, rule) in rules.iter().enumerate() {
                let head = rule.head.pred;
                let rule_id = rule_ids[ri];
                let cached = plans.is_cached(ri);
                let plan = plans.get_or_compile(ri, rule, metrics.as_deref())?;
                if cached {
                    if let Some(p) = profiler {
                        p.record_plan_hit(rule_id);
                    }
                }
                // `parents` stays index-aligned with `derived`; it is
                // only filled when an arena is attached.
                let mut parents: ParentSets = Vec::new();
                let first = !std::mem::replace(&mut evaluated_once[ri], true);
                let derived: Vec<Row> = if rule.has_extrema() {
                    let grown = first
                        || rule
                            .positive_atoms()
                            .any(|a| marks.get(&a.pred).copied().unwrap_or(0) < db.count(a.pred));
                    if !grown {
                        if let (Some(p), Some(t0)) = (profiler.as_ref(), t_prev) {
                            let t = Instant::now();
                            p.record(rule_id, 0, 0, t - t0);
                            t_prev = Some(t);
                        }
                        continue;
                    }
                    eval_extrema_full(db, rule, &plan, want_prov, &mut parents)?
                } else if first {
                    let mut derived = Vec::new();
                    derive(db, rule, &plan, None, want_prov, &mut derived, &mut parents)?;
                    derived
                } else {
                    let mut derived = Vec::new();
                    for (li, lit) in rule.body.iter().enumerate() {
                        let Literal::Pos(a) = lit else { continue };
                        let from = marks.get(&a.pred).copied().unwrap_or(0);
                        if from >= db.count(a.pred) {
                            continue;
                        }
                        // The delta rows are borrowed in place from the
                        // relation's arena — no per-round copy.
                        let focus = Focus { literal: li, rows: db.relation(a.pred).since(from) };
                        derive(
                            db,
                            rule,
                            &plan,
                            Some(focus),
                            want_prov,
                            &mut derived,
                            &mut parents,
                        )?;
                    }
                    derived
                };
                let mut inserted: u64 = 0;
                if let Some(arena) = &prov {
                    for (i, row) in derived.into_iter().enumerate() {
                        if db.insert(head, row.clone()) {
                            inserted += 1;
                            let par = parents.get(i).map_or(&[][..], Vec::as_slice);
                            arena.record_derivation(head, &row, rule_id, par);
                        }
                    }
                } else {
                    for row in derived {
                        if db.insert(head, row) {
                            inserted += 1;
                        }
                    }
                }
                new_facts += inserted;
                if inserted > 0 {
                    if let Some(t) = trace {
                        t.event(&TraceEvent::RuleFired {
                            rule: rule_id,
                            pred: head.to_string(),
                            new_facts: inserted,
                        });
                    }
                }
                if let (Some(p), Some(t0)) = (profiler.as_ref(), t_prev) {
                    let t = Instant::now();
                    p.record(rule_id, 1, inserted, t - t0);
                    t_prev = Some(t);
                }
            }

            // Advance marks to the round-start snapshot.
            for (pred, len) in start_lens {
                let m = marks.entry(pred).or_insert(0);
                *m = (*m).max(len);
            }

            if let Some(m) = metrics {
                m.record_delta(new_facts);
            }
            if let (Some(p), Some(t0)) = (profiler.as_ref(), t_prev) {
                p.add_overhead(t0.elapsed());
            }
            total += new_facts;
            if new_facts == 0 {
                return Ok(total);
            }
        }
    }
}

/// Full (unfocused) evaluation of an extrema rule. When `want_prov`,
/// `parents` receives each surviving match's parent rows, index-aligned
/// with the returned head rows.
fn eval_extrema_full(
    db: &Database,
    rule: &Rule,
    plan: &RulePlan,
    want_prov: bool,
    parents: &mut ParentSets,
) -> Result<Vec<Row>, EngineError> {
    if !want_prov {
        return eval_rule_with_extrema_plan(db, rule, plan);
    }
    let (rows, frames) = eval_rule_with_extrema_plan_traced(db, rule, plan)?;
    *parents = frames.iter().map(|b| parent_rows(rule, b)).collect();
    Ok(rows)
}

/// Append the head row of every match of a plain rule — focused on
/// `focus` when given — to `derived` and, when `want_prov`, its parent
/// rows to `parents`, index-aligned.
fn derive(
    db: &Database,
    rule: &Rule,
    plan: &RulePlan,
    focus: Option<Focus<'_>>,
    want_prov: bool,
    derived: &mut Vec<Row>,
    parents: &mut ParentSets,
) -> Result<(), EngineError> {
    for_each_match_plan(db, None, rule, plan, focus, &mut |b| {
        derived.push(instantiate_head(rule, b)?);
        if want_prov {
            parents.push(parent_rows(rule, b));
        }
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_ast::{Atom, Term, Value};

    fn tc_rules() -> Vec<Rule> {
        vec![
            // tc(X, Y) <- e(X, Y).
            Rule::new(
                Atom::new("tc", vec![Term::var(0), Term::var(1)]),
                vec![Literal::pos("e", vec![Term::var(0), Term::var(1)])],
                vec!["X".into(), "Y".into()],
            ),
            // tc(X, Z) <- tc(X, Y), e(Y, Z).
            Rule::new(
                Atom::new("tc", vec![Term::var(0), Term::var(2)]),
                vec![
                    Literal::pos("tc", vec![Term::var(0), Term::var(1)]),
                    Literal::pos("e", vec![Term::var(1), Term::var(2)]),
                ],
                vec!["X".into(), "Y".into(), "Z".into()],
            ),
        ]
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert_values("e", vec![Value::int(i), Value::int(i + 1)]);
        }
        db
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let mut db = chain_db(5);
        let mut sn = Seminaive::new(tc_rules());
        let new = sn.saturate(&mut db).unwrap();
        // Chain of 6 nodes: 5+4+3+2+1 = 15 tc facts.
        assert_eq!(new, 15);
        assert_eq!(db.count(Symbol::intern("tc")), 15);
    }

    #[test]
    fn saturation_is_idempotent() {
        let mut db = chain_db(4);
        let mut sn = Seminaive::new(tc_rules());
        sn.saturate(&mut db).unwrap();
        assert_eq!(sn.saturate(&mut db).unwrap(), 0);
    }

    #[test]
    fn incremental_facts_trigger_incremental_work() {
        let mut db = chain_db(3);
        let mut sn = Seminaive::new(tc_rules());
        sn.saturate(&mut db).unwrap();
        // Add a new edge extending the chain; only the new closures appear.
        db.insert_values("e", vec![Value::int(3), Value::int(4)]);
        let added = sn.saturate(&mut db).unwrap();
        // New tc facts: (0,4), (1,4), (2,4), (3,4).
        assert_eq!(added, 4);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut db = Database::new();
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            db.insert_values("e", vec![Value::int(a), Value::int(b)]);
        }
        let mut sn = Seminaive::new(tc_rules());
        sn.saturate(&mut db).unwrap();
        assert_eq!(db.count(Symbol::intern("tc")), 9);
    }

    #[test]
    fn extrema_rule_reevaluates_when_inputs_grow() {
        // cheapest(X, C) <- arc(X, C), least(C, X).
        let rules = vec![Rule::new(
            Atom::new("cheapest", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("arc", vec![Term::var(0), Term::var(1)]),
                Literal::Least { cost: Term::var(1), group: vec![Term::var(0)] },
            ],
            vec!["X".into(), "C".into()],
        )];
        let mut db = Database::new();
        db.insert_values("arc", vec![Value::sym("a"), Value::int(5)]);
        let mut sn = Seminaive::new(rules);
        sn.saturate(&mut db).unwrap();
        assert!(db
            .contains(Symbol::intern("cheapest"), &Row::new(vec![Value::sym("a"), Value::int(5)])));
        // A cheaper arc arrives: the new minimum is also derived
        // (inflationary semantics — old facts persist, as the paper's
        // fixpoint prescribes).
        db.insert_values("arc", vec![Value::sym("a"), Value::int(2)]);
        sn.saturate(&mut db).unwrap();
        assert!(db
            .contains(Symbol::intern("cheapest"), &Row::new(vec![Value::sym("a"), Value::int(2)])));
    }
}
