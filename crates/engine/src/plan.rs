//! Compiled join plans: sideways information passing, done once.
//!
//! The same rule is evaluated thousands of times across seminaive
//! rounds and γ steps, but the order its body literals should run in
//! only depends on *which variables are bound* at each step, and
//! boundness is branch-invariant: every branch at a given depth has
//! executed exactly the same step sequence, so the bound set — and
//! therefore the literal order — is a function of the rule alone
//! (plus, for deltas, which occurrence is focused).
//!
//! [`JoinPlan::compile`] exploits that: it runs the selection loop once
//! over a boolean bound-set, ranking ground filters first, then `=`
//! assignments, then the focused atom, then the atom with the most
//! ground columns, first literal winning ties, and records the
//! resulting step sequence. Evaluation then just runs the steps: no
//! per-call classification, no key re-derivation, constants
//! prefiltered at compile time, and scans go through
//! [`gbc_storage::Relation::select_ids_into`] so rows are read in place
//! from the arena instead of being cloned out.
//!
//! [`RulePlan`] bundles the unfocused plan with one variant per
//! positive literal (seminaive focuses each occurrence in turn);
//! [`PlanCache`] lazily compiles and retains one `RulePlan` per rule,
//! counting reuse in the `plan_cache_hits` metric.

use std::sync::Arc;

use gbc_ast::{Atom, CmpOp, Expr, Literal, Rule, Term, Value, VarId};
use gbc_storage::{dictionary, Database, RowsView, DICT_MISS};
use gbc_telemetry::Metrics;

use crate::bindings::Bindings;
use crate::error::EngineError;
use crate::eval::{eval_expr, eval_term, match_term, match_term_id, Focus};

/// One ingredient of a scan's index key, resolved at compile time.
#[derive(Clone, Debug)]
enum KeyPart {
    /// The argument is a ground term; its dictionary id is interned
    /// **once, at plan-compile time** (this is the constant-prefilter
    /// case — the index does the filtering, and no per-row or per-call
    /// re-encoding ever happens).
    Const(u32),
    /// The argument is a variable that is bound by the time this scan
    /// runs; read its id straight out of the binding slots.
    Var(VarId),
    /// A compound term whose variables are all bound: evaluate
    /// `args[col]` against the bindings at run time.
    Eval(usize),
}

/// Resolve one key ingredient to a dictionary id. Values reached
/// through the value-level side (arithmetic assignments, evaluated
/// compound terms) use a lookup-only encode: a value the dictionary has
/// never seen cannot be stored in any relation, so the [`DICT_MISS`]
/// key probes normally and matches nothing — exactly the old
/// value-keyed behaviour, counter for counter.
fn key_id(part: &KeyPart, a: &Atom, b: &Bindings) -> u32 {
    match part {
        KeyPart::Const(id) => *id,
        KeyPart::Var(var) => {
            let id = b.id_of(*var);
            if id != DICT_MISS {
                id
            } else {
                dictionary::try_encode(b.get(*var).expect("compiled as bound"))
            }
        }
        KeyPart::Eval(col) => {
            dictionary::try_encode(&eval_term(&a.args[*col], b).expect("compiled as ground"))
        }
    }
}

/// One step of a compiled plan, in execution order.
#[derive(Clone, Debug)]
enum PlanStep {
    /// `rule.body[lit]` is a comparison, ground at this point: evaluate
    /// both sides and prune on failure.
    Filter { lit: usize },
    /// `rule.body[lit]` is `t = e` with exactly one side ground: bind
    /// the bare term on the other side. `bind_lhs` says which side is
    /// the target.
    Assign { lit: usize, bind_lhs: bool },
    /// `rule.body[lit]` is a ground negation: membership test.
    NegCheck { lit: usize },
    /// `rule.body[lit]` is a positive atom: probe the relation on
    /// `key_cols` (ascending) with the values described by `key`, then
    /// unify only `match_cols` per candidate row — key columns are
    /// already guaranteed equal by the index. A focused scan iterates
    /// the caller's delta rows instead and unifies every column.
    Scan {
        lit: usize,
        key_cols: Vec<usize>,
        key: Vec<KeyPart>,
        match_cols: Vec<usize>,
        focused: bool,
    },
}

/// A compiled literal order for one (rule, focus) combination.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    steps: Vec<PlanStep>,
}

fn term_ground(t: &Term, bound: &[bool]) -> bool {
    match t {
        Term::Var(v) => bound.get(v.index()).copied().unwrap_or(false),
        Term::Const(_) => true,
        Term::Func(_, args) => args.iter().all(|a| term_ground(a, bound)),
    }
}

fn expr_ground(e: &Expr, bound: &[bool]) -> bool {
    match e {
        Expr::Term(t) => term_ground(t, bound),
        Expr::Neg(inner) => expr_ground(inner, bound),
        Expr::Binary(_, l, r) => expr_ground(l, bound) && expr_ground(r, bound),
    }
}

fn mark_term_bound(t: &Term, bound: &mut [bool]) {
    match t {
        Term::Var(v) => {
            if let Some(slot) = bound.get_mut(v.index()) {
                *slot = true;
            }
        }
        Term::Const(_) => {}
        Term::Func(_, args) => {
            for a in args {
                mark_term_bound(a, bound);
            }
        }
    }
}

impl JoinPlan {
    /// Compile the literal order for `rule`, optionally treating the
    /// positive literal at `focus_lit` as the focused (delta)
    /// occurrence, by the ranking in the module docs. The order is
    /// fixed per rule, so the enumeration order — and with it every
    /// downstream counter — is the same on every evaluation.
    pub fn compile(rule: &Rule, focus_lit: Option<usize>) -> Result<JoinPlan, EngineError> {
        if rule.has_next() {
            return Err(EngineError::UnexpandedNext { rule: rule.to_string() });
        }
        let mut bound = vec![false; rule.num_vars()];
        let mut pending: Vec<usize> =
            rule.body.iter().enumerate().filter(|(_, l)| !l.is_meta()).map(|(i, _)| i).collect();
        let mut steps = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            let mut best: Option<(usize, usize, u32)> = None; // (pending idx, rank, tie)
            for (pi, &li) in pending.iter().enumerate() {
                let (rank, tie) = match &rule.body[li] {
                    Literal::Pos(a) => {
                        let ground = a.args.iter().filter(|t| term_ground(t, &bound)).count();
                        let focused = focus_lit == Some(li);
                        (2, if focused { 0 } else { u32::MAX - ground as u32 })
                    }
                    Literal::Neg(a) => {
                        if !a.args.iter().all(|t| term_ground(t, &bound)) {
                            continue;
                        }
                        (0, 0)
                    }
                    Literal::Compare { op, lhs, rhs } => {
                        let lg = expr_ground(lhs, &bound);
                        let rg = expr_ground(rhs, &bound);
                        match (lg, rg) {
                            (true, true) => (0, 0),
                            (true, false) | (false, true) if *op == CmpOp::Eq => {
                                let unbound = if lg { rhs } else { lhs };
                                if unbound.as_bare_term().is_none() {
                                    continue;
                                }
                                (1, 0)
                            }
                            _ => continue,
                        }
                    }
                    _ => unreachable!("meta literals are filtered out"),
                };
                if best.map_or(true, |(_, br, bt)| (rank, tie) < (br, bt)) {
                    best = Some((pi, rank, tie));
                }
            }
            let Some((pi, _, _)) = best else {
                return Err(EngineError::NoEvaluableLiteral { rule: rule.to_string() });
            };
            let li = pending.remove(pi);
            match &rule.body[li] {
                Literal::Pos(a) => {
                    let focused = focus_lit == Some(li);
                    let mut key_cols = Vec::new();
                    let mut key = Vec::new();
                    let mut match_cols = Vec::new();
                    for (col, t) in a.args.iter().enumerate() {
                        if !focused && term_ground(t, &bound) {
                            key_cols.push(col);
                            key.push(match t {
                                Term::Var(v) => KeyPart::Var(*v),
                                Term::Const(c) => KeyPart::Const(dictionary::encode(c)),
                                Term::Func(..) => match t.as_value() {
                                    Some(v) => KeyPart::Const(dictionary::encode(&v)),
                                    None => KeyPart::Eval(col),
                                },
                            });
                        } else {
                            match_cols.push(col);
                        }
                    }
                    for t in &a.args {
                        mark_term_bound(t, &mut bound);
                    }
                    steps.push(PlanStep::Scan { lit: li, key_cols, key, match_cols, focused });
                }
                Literal::Neg(_) => steps.push(PlanStep::NegCheck { lit: li }),
                Literal::Compare { lhs, rhs, .. } => {
                    let lg = expr_ground(lhs, &bound);
                    let rg = expr_ground(rhs, &bound);
                    if lg && rg {
                        steps.push(PlanStep::Filter { lit: li });
                    } else {
                        let target = if lg { rhs } else { lhs };
                        let term = target.as_bare_term().expect("selected as assignable");
                        mark_term_bound(term, &mut bound);
                        steps.push(PlanStep::Assign { lit: li, bind_lhs: !lg });
                    }
                }
                _ => unreachable!("meta literals are filtered out"),
            }
        }
        Ok(JoinPlan { steps })
    }
}

/// One column of a compiled rule head, resolved at compile time like
/// a scan's [`KeyPart`].
#[derive(Clone, Debug)]
enum HeadPart {
    /// A ground term, interned once at plan-compile time.
    Const(u32),
    /// A variable: its id is read from the frame. A variable bound by
    /// value (an `=` assignment) has no id there and is encoded per
    /// match.
    Var(VarId),
    /// A compound term over variables: evaluate `head.args[col]` and
    /// encode it per match.
    Eval(usize),
}

/// The compiled plans of one rule: the unfocused order plus one
/// variant per positive body literal (the occurrence seminaive deltas
/// focus on), and the head as one part per column.
#[derive(Clone, Debug)]
pub struct RulePlan {
    base: JoinPlan,
    focused: Vec<(usize, JoinPlan)>,
    head: Vec<HeadPart>,
}

impl RulePlan {
    /// Compile every variant of `rule`.
    pub fn compile(rule: &Rule) -> Result<RulePlan, EngineError> {
        let base = JoinPlan::compile(rule, None)?;
        let mut focused = Vec::new();
        for (li, lit) in rule.body.iter().enumerate() {
            if matches!(lit, Literal::Pos(_)) {
                focused.push((li, JoinPlan::compile(rule, Some(li))?));
            }
        }
        let head = rule
            .head
            .args
            .iter()
            .enumerate()
            .map(|(col, t)| match t {
                Term::Var(v) => HeadPart::Var(*v),
                t => match t.as_value() {
                    Some(c) => HeadPart::Const(dictionary::encode(&c)),
                    None => HeadPart::Eval(col),
                },
            })
            .collect();
        Ok(RulePlan { base, focused, head })
    }

    /// Append the head row of the complete match `b` to `out` as
    /// dictionary ids. Only cells the match computes — a value-bound
    /// variable, a compound term over variables — are encoded.
    pub fn push_head_ids(
        &self,
        rule: &Rule,
        b: &Bindings,
        out: &mut Vec<u32>,
    ) -> Result<(), EngineError> {
        let non_ground = || EngineError::NonGroundHead { rule: rule.to_string() };
        for part in &self.head {
            out.push(match *part {
                HeadPart::Const(id) => id,
                HeadPart::Var(v) => match b.id_of(v) {
                    DICT_MISS => dictionary::encode(b.get(v).ok_or_else(non_ground)?),
                    id => id,
                },
                HeadPart::Eval(col) => {
                    dictionary::encode(&eval_term(&rule.head.args[col], b).ok_or_else(non_ground)?)
                }
            });
        }
        Ok(())
    }

    /// The plan variant for a given focused literal (or the base plan).
    pub fn variant(&self, focus_lit: Option<usize>) -> &JoinPlan {
        match focus_lit {
            None => &self.base,
            Some(li) => {
                &self
                    .focused
                    .iter()
                    .find(|(l, _)| *l == li)
                    .expect("focus must name a positive body literal")
                    .1
            }
        }
    }
}

/// Enumerate all satisfying bindings of `rule` by executing a compiled
/// plan. `on_match` returning `false` stops the enumeration early.
pub fn for_each_match_plan(
    db: &Database,
    rule: &Rule,
    plan: &RulePlan,
    focus: Option<Focus<'_>>,
    on_match: &mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
) -> Result<(), EngineError> {
    let variant = plan.variant(focus.map(|f| f.literal));
    execute(db, rule, variant, focus, on_match)
}

/// Execute one plan variant. `variant` must have been compiled from
/// `rule` with the same focus literal as `focus`.
pub(crate) fn execute<'a>(
    db: &'a Database,
    rule: &'a Rule,
    variant: &'a JoinPlan,
    focus: Option<Focus<'a>>,
    on_match: &'a mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
) -> Result<(), EngineError> {
    let mut exec = Exec {
        db,
        rule,
        steps: &variant.steps,
        focus_rows: focus.map_or(RowsView::empty(), |f| f.rows),
        bindings: Bindings::new(rule.num_vars()),
        trail: Vec::new(),
        key_buf: Vec::new(),
        val_buf: Vec::new(),
        ids_bufs: vec![Vec::new(); variant.steps.len()],
        on_match,
        stopped: false,
    };
    exec.run_step(0)
}

struct Exec<'a> {
    db: &'a Database,
    rule: &'a Rule,
    steps: &'a [PlanStep],
    focus_rows: RowsView<'a>,
    bindings: Bindings,
    /// Variables bound since the enclosing choice point, unwound by
    /// `rollback`.
    trail: Vec<VarId>,
    /// Scratch for encoded index keys; filled and drained within one
    /// scan step.
    key_buf: Vec<u32>,
    /// Scratch for ground negation tuples.
    val_buf: Vec<Value>,
    /// Per-step id buffers: scans reuse their own buffer across the
    /// sibling iterations of the enclosing step.
    ids_bufs: Vec<Vec<u32>>,
    on_match: &'a mut dyn FnMut(&Bindings) -> Result<bool, EngineError>,
    stopped: bool,
}

impl Exec<'_> {
    fn rollback(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.bindings.unbind(v);
        }
    }

    fn run_step(&mut self, d: usize) -> Result<(), EngineError> {
        let steps = self.steps;
        let Some(step) = steps.get(d) else {
            if !(self.on_match)(&self.bindings)? {
                self.stopped = true;
            }
            return Ok(());
        };
        let rule = self.rule;
        match step {
            PlanStep::Filter { lit } => {
                let Literal::Compare { op, lhs, rhs } = &rule.body[*lit] else {
                    unreachable!("Filter step on non-comparison");
                };
                let a = eval_expr(lhs, &self.bindings)?.expect("compiled as ground");
                let b = eval_expr(rhs, &self.bindings)?.expect("compiled as ground");
                if op.eval(a.cmp(&b)) {
                    self.run_step(d + 1)?;
                }
            }
            PlanStep::Assign { lit, bind_lhs } => {
                let Literal::Compare { lhs, rhs, .. } = &rule.body[*lit] else {
                    unreachable!("Assign step on non-comparison");
                };
                let (target, source) = if *bind_lhs { (lhs, rhs) } else { (rhs, lhs) };
                let val = eval_expr(source, &self.bindings)?.expect("compiled as ground");
                let term = target.as_bare_term().expect("compiled as assignable");
                let mark = self.trail.len();
                if match_term(term, &val, &mut self.bindings, &mut self.trail) {
                    self.run_step(d + 1)?;
                }
                self.rollback(mark);
            }
            PlanStep::NegCheck { lit } => {
                let Literal::Neg(a) = &rule.body[*lit] else {
                    unreachable!("NegCheck step on non-negation");
                };
                let mut vals = std::mem::take(&mut self.val_buf);
                vals.clear();
                for t in &a.args {
                    vals.push(eval_term(t, &self.bindings).expect("compiled as ground"));
                }
                let present = self.db.relation(a.pred).contains_values(&vals);
                self.val_buf = vals;
                if !present {
                    self.run_step(d + 1)?;
                }
            }
            PlanStep::Scan { lit, key_cols, key, match_cols, focused } => {
                let Literal::Pos(a) = &rule.body[*lit] else {
                    unreachable!("Scan step on non-positive literal");
                };
                if *focused {
                    let rows = self.focus_rows;
                    if rows.arity() == a.args.len() {
                        for i in 0..rows.len() {
                            let mark = self.trail.len();
                            let ok = a.args.iter().enumerate().all(|(c, t)| {
                                match_term_id(
                                    t,
                                    rows.cell(i, c),
                                    &mut self.bindings,
                                    &mut self.trail,
                                )
                            });
                            if ok {
                                self.run_step(d + 1)?;
                            }
                            self.rollback(mark);
                            if self.stopped {
                                break;
                            }
                        }
                    }
                } else {
                    let rel = self.db.relation(a.pred);
                    let mut ids_buf = std::mem::take(&mut self.ids_bufs[d]);
                    debug_assert!(self.key_buf.is_empty());
                    for part in key {
                        self.key_buf.push(key_id(part, a, &self.bindings));
                    }
                    rel.select_ids_into(key_cols, &self.key_buf, &mut ids_buf);
                    self.key_buf.clear();
                    let view = rel.rows();
                    if view.arity() == a.args.len() {
                        for &id in &ids_buf {
                            let mark = self.trail.len();
                            let ok = match_cols.iter().all(|&c| {
                                match_term_id(
                                    &a.args[c],
                                    view.cell(id as usize, c),
                                    &mut self.bindings,
                                    &mut self.trail,
                                )
                            });
                            if ok {
                                self.run_step(d + 1)?;
                            }
                            self.rollback(mark);
                            if self.stopped {
                                break;
                            }
                        }
                    }
                    ids_buf.clear();
                    self.ids_bufs[d] = ids_buf;
                }
            }
        }
        Ok(())
    }
}

/// One operand of a columnar feed comparison: either a cell of the
/// current source row or a dictionary id baked at plan-compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedOperand {
    /// Read `args[col]`'s id straight from the arena row.
    Col(usize),
    /// A ground expression, evaluated and interned once when the spec
    /// is built (the feed-kernel analogue of a join plan's constant key).
    Const(u32),
}

/// One per-row check of the bindings-free feed kernel, compiled against
/// the source atom's column layout. A row of the source relation feeds
/// the queue iff every check holds; no `Bindings` frame, no decoding,
/// no per-row interning — ids compare directly because interning makes
/// id equality ⇔ value equality, and [`dictionary::cmp_ids`] reproduces
/// the decoded `Value` order that the frame-based path's
/// `op.eval(a.cmp(&b))` would see.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedCheck {
    /// `args[col]` repeats a variable first bound at `args[prev]`.
    ColEqCol { col: usize, prev: usize },
    /// `args[col]` is a ground term with this dictionary id.
    ColEqConst { col: usize, id: u32 },
    /// A pre-check comparison `lhs op rhs` over resolved operands.
    Cmp { op: CmpOp, lhs: FeedOperand, rhs: FeedOperand },
}

impl FeedCheck {
    /// Evaluate against one source row; `cell(col)` reads the row's id
    /// at `col`.
    #[inline]
    pub fn eval(&self, cell: &impl Fn(usize) -> u32) -> bool {
        let id_of = |o: &FeedOperand| match *o {
            FeedOperand::Col(c) => cell(c),
            FeedOperand::Const(id) => id,
        };
        match self {
            FeedCheck::ColEqCol { col, prev } => cell(*col) == cell(*prev),
            FeedCheck::ColEqConst { col, id } => cell(*col) == *id,
            FeedCheck::Cmp { op, lhs, rhs } => op.eval(dictionary::cmp_ids(id_of(lhs), id_of(rhs))),
        }
    }
}

/// Compile the source atom `args` and the rule's stage-free pre-check
/// comparisons into a columnar [`FeedCheck`] sequence, or `None` when
/// some argument or comparison needs a real binding frame (non-ground
/// compound terms, arithmetic over source variables). Ground sides are
/// evaluated and interned here, once, at plan-build time.
///
/// The returned checks are ordered args-first then pre-checks in body
/// order, matching the frame-based path's match-then-filter order.
pub fn columnar_feed_spec(args: &[Term], pre_checks: &[Literal]) -> Option<Vec<FeedCheck>> {
    let empty = Bindings::new(0);
    // First-occurrence column of each source variable.
    let mut first_col: Vec<(VarId, usize)> = Vec::new();
    let mut checks = Vec::new();
    for (col, t) in args.iter().enumerate() {
        match t {
            Term::Var(v) => match first_col.iter().find(|(w, _)| w == v) {
                None => first_col.push((*v, col)),
                Some(&(_, prev)) => checks.push(FeedCheck::ColEqCol { col, prev }),
            },
            t => {
                let id = dictionary::encode(&eval_term(t, &empty)?);
                checks.push(FeedCheck::ColEqConst { col, id });
            }
        }
    }
    let operand = |e: &Expr| -> Option<FeedOperand> {
        if let Some(Term::Var(v)) = e.as_bare_term() {
            let &(_, col) = first_col.iter().find(|(w, _)| w == v)?;
            return Some(FeedOperand::Col(col));
        }
        if e.vars().is_empty() {
            let v = eval_expr(e, &empty).ok()??;
            return Some(FeedOperand::Const(dictionary::encode(&v)));
        }
        None
    };
    for lit in pre_checks {
        let Literal::Compare { op, lhs, rhs } = lit else { return None };
        checks.push(FeedCheck::Cmp { op: *op, lhs: operand(lhs)?, rhs: operand(rhs)? });
    }
    Some(checks)
}

/// A lazily compiled, slot-per-rule plan store. Owners size it to
/// their rule list once and index it with the rule's position; the
/// first use of a slot compiles, later uses are counted as
/// `plan_cache_hits`.
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    slots: Vec<Option<Arc<RulePlan>>>,
}

impl PlanCache {
    /// A cache with `n` empty slots.
    pub fn new(n: usize) -> PlanCache {
        PlanCache { slots: vec![None; n] }
    }

    /// Is slot `i` already compiled? (The next `get_or_compile` on it
    /// will be a cache hit.)
    pub fn is_cached(&self, i: usize) -> bool {
        self.slots.get(i).is_some_and(Option::is_some)
    }

    /// The plan for slot `i`, compiling `rule` on first use.
    pub fn get_or_compile(
        &mut self,
        i: usize,
        rule: &Rule,
        metrics: Option<&Metrics>,
    ) -> Result<Arc<RulePlan>, EngineError> {
        match &self.slots[i] {
            Some(plan) => {
                if let Some(m) = metrics {
                    m.plan_cache_hits.inc();
                }
                Ok(Arc::clone(plan))
            }
            None => {
                let plan = Arc::new(RulePlan::compile(rule)?);
                self.slots[i] = Some(Arc::clone(&plan));
                Ok(plan)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_rule_plain, instantiate_head};
    use gbc_ast::term::ArithOp;
    use gbc_ast::Atom;
    use gbc_storage::Row;

    fn db_edges(edges: &[(&str, &str, i64)]) -> Database {
        let mut db = Database::new();
        for &(x, y, c) in edges {
            db.insert_values("g", vec![Value::sym(x), Value::sym(y), Value::int(c)]);
        }
        db
    }

    /// The rule used across the eval tests: path(X, Z) <- g(X,Y,_), g(Y,Z,_).
    fn chain_rule() -> Rule {
        Rule::new(
            Atom::new("path", vec![Term::var(0), Term::var(2)]),
            vec![
                Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(3)]),
                Literal::pos("g", vec![Term::var(1), Term::var(2), Term::var(4)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into(), "_".into(), "_2".into()],
        )
    }

    #[test]
    fn feed_spec_compiles_repeats_constants_and_prechecks() {
        // g(X, Y, X, 7) with pre-checks Y != 0, X < 9.
        let args = vec![Term::var(0), Term::var(1), Term::var(0), Term::int(7)];
        let pre = vec![
            Literal::cmp(CmpOp::Ne, Expr::Term(Term::var(1)), Expr::Term(Term::int(0))),
            Literal::cmp(CmpOp::Lt, Expr::Term(Term::var(0)), Expr::Term(Term::int(9))),
        ];
        let checks = columnar_feed_spec(&args, &pre).unwrap();
        assert_eq!(checks.len(), 4);
        assert_eq!(checks[0], FeedCheck::ColEqCol { col: 2, prev: 0 });
        assert_eq!(
            checks[1],
            FeedCheck::ColEqConst { col: 3, id: dictionary::encode(&Value::int(7)) }
        );
        // Row [3, 5, 3, 7] passes; flipping any constraint fails.
        let enc = |vals: &[i64]| -> Vec<u32> {
            vals.iter().map(|&v| dictionary::encode(&Value::int(v))).collect()
        };
        let pass = enc(&[3, 5, 3, 7]);
        assert!(checks.iter().all(|c| c.eval(&|col| pass[col])));
        let repeat_broken = enc(&[3, 5, 4, 7]);
        assert!(!checks.iter().all(|c| c.eval(&|col| repeat_broken[col])));
        let zero_y = enc(&[3, 0, 3, 7]);
        assert!(!checks.iter().all(|c| c.eval(&|col| zero_y[col])));
        let big_x = enc(&[12, 5, 12, 7]);
        assert!(!checks.iter().all(|c| c.eval(&|col| big_x[col])));
    }

    #[test]
    fn feed_spec_rejects_frames_only_shapes() {
        // Arithmetic over a source variable needs a frame.
        let args = vec![Term::var(0), Term::var(1)];
        let pre = vec![Literal::cmp(
            CmpOp::Lt,
            Expr::Binary(
                ArithOp::Add,
                Box::new(Expr::Term(Term::var(0))),
                Box::new(Expr::Term(Term::int(1))),
            ),
            Expr::Term(Term::int(9)),
        )];
        assert!(columnar_feed_spec(&args, &pre).is_none());
        // A comparison over a variable the source does not bind.
        let stray =
            vec![Literal::cmp(CmpOp::Eq, Expr::Term(Term::var(5)), Expr::Term(Term::int(0)))];
        assert!(columnar_feed_spec(&args, &stray).is_none());
        // Non-ground compound argument.
        let func_args = vec![Term::Func("f".into(), vec![Term::var(0)])];
        assert!(columnar_feed_spec(&func_args, &[]).is_none());
    }

    #[test]
    fn cached_plan_agrees_with_one_shot_eval() {
        let rule = chain_rule();
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2), ("b", "d", 3)]);
        let plan = RulePlan::compile(&rule).unwrap();
        let mut via_plan = Vec::new();
        for_each_match_plan(&db, &rule, &plan, None, &mut |b| {
            via_plan.push(instantiate_head(&rule, b).unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(via_plan, eval_rule_plain(&db, &rule, None).unwrap());
    }

    #[test]
    fn focused_variant_restricts_the_occurrence() {
        let rule = chain_rule();
        let db = db_edges(&[("a", "b", 1), ("b", "c", 2), ("c", "d", 3)]);
        let plan = RulePlan::compile(&rule).unwrap();
        let mut delta = gbc_storage::ColumnBuf::new();
        delta.push_values(&[Value::sym("b"), Value::sym("c"), Value::int(2)]);
        let mut out = Vec::new();
        for (li, expect) in [(0, vec![("b", "d")]), (1, vec![("a", "c")])] {
            out.clear();
            for_each_match_plan(
                &db,
                &rule,
                &plan,
                Some(Focus { literal: li, rows: delta.view() }),
                &mut |b| {
                    out.push(instantiate_head(&rule, b).unwrap());
                    Ok(true)
                },
            )
            .unwrap();
            let expect: Vec<Row> =
                expect.iter().map(|&(x, z)| Row::new(vec![Value::sym(x), Value::sym(z)])).collect();
            assert_eq!(out, expect, "focus on literal {li}");
        }
    }

    #[test]
    fn constant_prefilters_are_baked_into_the_key() {
        // p(X) <- g(a, X, 1).  Both constants land in the index key.
        let rule = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::pos("g", vec![Term::sym("a"), Term::var(0), Term::int(1)])],
            vec!["X".into()],
        );
        let db = db_edges(&[("a", "b", 1), ("a", "c", 2), ("b", "d", 1)]);
        let plan = RulePlan::compile(&rule).unwrap();
        let mut out = Vec::new();
        for_each_match_plan(&db, &rule, &plan, None, &mut |b| {
            out.push(instantiate_head(&rule, b).unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(out, vec![Row::new(vec![Value::sym("b")])]);
    }

    #[test]
    fn compile_rejects_unexpanded_next_and_stuck_rules() {
        let next_rule = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::Next { var: VarId(0) }],
            vec!["I".into()],
        );
        assert!(matches!(RulePlan::compile(&next_rule), Err(EngineError::UnexpandedNext { .. })));
        // X < Y with neither bound can never be scheduled.
        let stuck = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::cmp(CmpOp::Lt, Expr::var(0), Expr::var(1))],
            vec!["X".into(), "Y".into()],
        );
        assert!(matches!(RulePlan::compile(&stuck), Err(EngineError::NoEvaluableLiteral { .. })));
    }

    #[test]
    fn plan_cache_counts_hits() {
        let m = Metrics::new();
        let rule = chain_rule();
        let mut cache = PlanCache::new(1);
        cache.get_or_compile(0, &rule, Some(&m)).unwrap(); // compile
        cache.get_or_compile(0, &rule, Some(&m)).unwrap(); // hit
        cache.get_or_compile(0, &rule, Some(&m)).unwrap(); // hit
        assert_eq!(m.snapshot().plan_cache_hits, 2);
    }

    #[test]
    fn ground_filters_precede_scans_and_scanless_bodies_match() {
        let db = db_edges(&[("a", "b", 1)]);
        let collect = |rule: &Rule| {
            let plan = RulePlan::compile(rule).unwrap();
            let mut out = Vec::new();
            for_each_match_plan(&db, rule, &plan, None, &mut |b| {
                out.push(instantiate_head(rule, b).unwrap());
                Ok(true)
            })
            .unwrap();
            (plan, out)
        };
        // 1 < 0 is a ground filter: scheduled before the scan, it
        // prunes the body before any index is probed.
        let dead = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![
                Literal::pos("g", vec![Term::var(0), Term::var(1), Term::var(2)]),
                Literal::cmp(CmpOp::Lt, Expr::int(1), Expr::int(0)),
            ],
            vec!["X".into(), "Y".into(), "C".into()],
        );
        let (plan, out) = collect(&dead);
        assert!(matches!(plan.variant(None).steps[0], PlanStep::Filter { lit: 1 }));
        assert!(out.is_empty());
        // A body of one assignment never scans, and still matches once.
        let noscan = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            vec![Literal::cmp(CmpOp::Eq, Expr::var(0), Expr::int(7))],
            vec!["X".into()],
        );
        let (plan, out) = collect(&noscan);
        assert!(plan.variant(None).steps.iter().all(|s| !matches!(s, PlanStep::Scan { .. })));
        assert_eq!(out, vec![Row::new(vec![Value::int(7)])]);
    }

    #[test]
    fn assignment_step_errors_surface_at_execution() {
        // p(Y) <- q(X), Y = X / 0 — the division errors once X is bound.
        let rule = Rule::new(
            Atom::new("p", vec![Term::var(1)]),
            vec![
                Literal::pos("q", vec![Term::var(0)]),
                Literal::cmp(
                    CmpOp::Eq,
                    Expr::var(1),
                    Expr::binary(ArithOp::Div, Expr::var(0), Expr::int(0)),
                ),
            ],
            vec!["X".into(), "Y".into()],
        );
        let mut db = Database::new();
        db.insert_values("q", vec![Value::int(4)]);
        let plan = RulePlan::compile(&rule).unwrap();
        let r = for_each_match_plan(&db, &rule, &plan, None, &mut |_| Ok(true));
        assert_eq!(r, Err(EngineError::DivideByZero));
    }
}
