//! Delta-driven saturation of a rule set (seminaive evaluation).
//!
//! A [`Seminaive`] driver owns a rule set and per-predicate high-water
//! marks. Each call to [`Seminaive::saturate`] runs rounds until a
//! round grows no predicate that a rule body reads; within a round,
//! every non-extrema rule is evaluated once per positive body
//! occurrence, with that occurrence *focused* on the rows inserted
//! since the mark. Rules with `least`/`most` goals are re-evaluated in
//! full whenever a body predicate has grown (the filter needs the
//! complete match set), which is the behaviour the paper's cost
//! analysis assumes for flat rules.
//!
//! Head rows are built in id space: a variable's cell is the id the
//! frame already holds, a ground cell was interned when the plan was
//! compiled, and only computed cells (arithmetic results, compound
//! terms over variables) are encoded per match.
//!
//! The driver persists across calls, so the paper's `Q^∞(γ(S))`
//! alternation (Section 2) pays only for work caused by the facts the
//! latest γ step introduced.

use gbc_ast::{Literal, Rule, Symbol};
use gbc_storage::dictionary::decode_ref;
use gbc_storage::{Database, FxHashMap, Row};
use gbc_telemetry::{Telemetry, TraceEvent};

use crate::bindings::Bindings;
use crate::error::EngineError;
use crate::eval::{parent_rows, Focus};
use crate::extrema::{collect_matches_plan, filter_extrema};
use crate::plan::{for_each_match_plan, PlanCache, RulePlan};

/// Persistent seminaive driver. See the module docs.
#[derive(Clone, Debug)]
pub struct Seminaive {
    rules: Vec<Rule>,
    /// Original-program rule index per driven rule — the id reported
    /// to provenance, the profile and `rule_fired` trace events.
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
    /// Per-round delta sizes, per-rule time and `rule_fired` events
    /// report here.
    tel: Telemetry,
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
            tel: Telemetry::counters_only(),
        }
    }

    /// Attach an instrumentation bundle: round delta sizes go to its
    /// registry, rule evaluations to its recorder, `rule_fired` events
    /// to its trace sink.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Override the original-program rule index per driven rule. Owners
    /// driving a *subset* of a program (the choice fixpoint's flat
    /// rules, the greedy executor) call this so observability reports
    /// cite program positions, not subset positions.
    pub fn set_rule_ids(&mut self, ids: Vec<usize>) {
        assert_eq!(ids.len(), self.rules.len(), "one id per driven rule");
        self.rule_ids = ids;
    }

    /// The rules driven by this instance.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Run rounds until the round that grew no body predicate — the
    /// last round that could derive anything, since the next one would
    /// see only empty deltas and no grown extrema input. Returns the
    /// number of new facts.
    pub fn saturate(&mut self, db: &mut Database) -> Result<u64, EngineError> {
        let Seminaive { rules, rule_ids, plans, preds, marks, evaluated_once, tel } = self;
        let rec = &*tel.phases;
        // Owned handle: recording happens while `db` is mutably
        // borrowed by the insert loop.
        let prov = db.provenance().cloned();
        let mut heads = Heads { want_parents: prov.is_some(), ..Heads::default() };
        let mut total: u64 = 0;
        loop {
            // The recorder's clock is chained: the round snapshot (and
            // the previous round's mark advance) is charged to the
            // overhead bucket, each rule evaluation to its rule.
            let start_lens: Vec<(Symbol, usize)> =
                preds.iter().map(|&p| (p, db.count(p))).collect();
            rec.overhead();

            let mut new_facts: u64 = 0;
            for (ri, rule) in rules.iter().enumerate() {
                let head = rule.head.pred;
                let rule_id = rule_ids[ri];
                let cached = plans.is_cached(ri);
                let plan = plans.get_or_compile(ri, rule, Some(&tel.metrics))?;
                if cached {
                    rec.plan_hit(rule_id);
                }
                heads.clear();
                let first = !std::mem::replace(&mut evaluated_once[ri], true);
                if rule.has_extrema() {
                    let grown = first
                        || rule
                            .positive_atoms()
                            .any(|a| marks.get(&a.pred).copied().unwrap_or(0) < db.count(a.pred));
                    if !grown {
                        rec.charge(rule_id, 0, 0);
                        continue;
                    }
                    let frames = collect_matches_plan(db, rule, &plan, None)?;
                    for b in &filter_extrema(rule, frames)? {
                        heads.push(rule, &plan, b)?;
                    }
                } else if first {
                    derive(db, rule, &plan, None, &mut heads)?;
                } else {
                    for (li, lit) in rule.body.iter().enumerate() {
                        let Literal::Pos(a) = lit else { continue };
                        let from = marks.get(&a.pred).copied().unwrap_or(0);
                        if from >= db.count(a.pred) {
                            continue;
                        }
                        // The delta rows are borrowed in place from the
                        // relation's arena — no per-round copy.
                        let focus = Focus { literal: li, rows: db.relation(a.pred).since(from) };
                        derive(db, rule, &plan, Some(focus), &mut heads)?;
                    }
                }
                let mut inserted: u64 = 0;
                if heads.rows > 0 {
                    let rel = db.relation_mut(head);
                    let arity = rule.head.args.len();
                    for i in 0..heads.rows {
                        let ids = &heads.ids[i * arity..(i + 1) * arity];
                        if rel.insert_ids(ids) {
                            inserted += 1;
                            if let Some(arena) = &prov {
                                let row = ids.iter().map(|&id| decode_ref(id).clone()).collect();
                                arena.record_derivation(head, &row, rule_id, &heads.parents[i]);
                            }
                        }
                    }
                }
                new_facts += inserted;
                if inserted > 0 {
                    tel.trace_with(|| TraceEvent::RuleFired {
                        rule: rule_id,
                        pred: head.to_string(),
                        new_facts: inserted,
                    });
                }
                rec.charge(rule_id, 1, inserted);
            }

            tel.metrics.record_delta(new_facts);
            total += new_facts;
            let grew = start_lens.iter().any(|&(p, len)| db.count(p) > len);
            // Advance marks to the round-start snapshot.
            for (pred, len) in start_lens {
                let m = marks.entry(pred).or_insert(0);
                *m = (*m).max(len);
            }
            if !grew {
                return Ok(total);
            }
        }
    }
}

/// The head rows one rule derives in one round, as dictionary ids,
/// reused across rules and rounds.
#[derive(Default)]
struct Heads {
    /// Row-major head ids, `arity` cells per row.
    ids: Vec<u32>,
    /// Rows derived; counted apart from `ids` so that a zero-arity
    /// head still inserts one (empty) row per match.
    rows: usize,
    /// Whether to record each row's parent rows (an arena is attached).
    want_parents: bool,
    /// Rows joined over per derived row, index-aligned with the rows.
    parents: Vec<Vec<(Symbol, Row)>>,
}

impl Heads {
    fn clear(&mut self) {
        self.ids.clear();
        self.rows = 0;
        self.parents.clear();
    }

    /// Append the head row of the complete match `b`.
    fn push(&mut self, rule: &Rule, plan: &RulePlan, b: &Bindings) -> Result<(), EngineError> {
        plan.push_head_ids(rule, b, &mut self.ids)?;
        self.rows += 1;
        if self.want_parents {
            self.parents.push(parent_rows(rule, b));
        }
        Ok(())
    }
}

/// Append the head row of every match of a plain rule — focused on
/// `focus` when given — to `heads`.
fn derive(
    db: &Database,
    rule: &Rule,
    plan: &RulePlan,
    focus: Option<Focus<'_>>,
    heads: &mut Heads,
) -> Result<(), EngineError> {
    for_each_match_plan(db, rule, plan, focus, &mut |b| {
        heads.push(rule, plan, b)?;
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

    /// A driver over `rules` whose telemetry records the per-round
    /// delta sizes.
    fn with_history(rules: Vec<Rule>) -> (Seminaive, Telemetry) {
        let tel = Telemetry::enabled();
        let mut sn = Seminaive::new(rules);
        sn.set_telemetry(tel.clone());
        (sn, tel)
    }

    #[test]
    fn saturation_stops_at_the_round_that_grew_no_body_predicate() {
        // src(X) <- e(X, Y): no body reads `src`, so the round that
        // derives it is the last — no confirming empty round, on the
        // first call or after the input grows.
        let (mut sn, tel) = with_history(vec![Rule::new(
            Atom::new("src", vec![Term::var(0)]),
            vec![Literal::pos("e", vec![Term::var(0), Term::var(1)])],
            vec!["X".into(), "Y".into()],
        )]);
        let mut db = chain_db(4);
        sn.saturate(&mut db).unwrap();
        assert_eq!(tel.snapshot().delta_history, vec![4]);
        db.insert_values("e", vec![Value::int(4), Value::int(5)]);
        sn.saturate(&mut db).unwrap();
        assert_eq!(tel.snapshot().delta_history, vec![4, 1]);
        // A recursive rule set still ends on the round that derives
        // nothing: transitive closure of a 4-edge chain.
        let (mut sn, tel) = with_history(tc_rules());
        sn.saturate(&mut chain_db(4)).unwrap();
        assert_eq!(tel.snapshot().delta_history, vec![7, 2, 1, 0]);
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
