//! The **Alternating Stage-Choice Fixpoint** executor (Sections 4 & 6).
//!
//! For a stage-stratified program whose next rules fit the Section 6
//! template
//!
//! ```text
//! next(I), p(X̄, J), [J < I | I = J + 1], [least(C, I)], [choice …]
//! ```
//!
//! the executor alternates:
//!
//! * `Q` — seminaive saturation of the flat rules;
//! * γ — *retrieve-least* from the rule's **D_r = (R, Q, L)** structure:
//!   pop the cheapest candidate, check the comparisons that read the
//!   stage and the choice FDs (the on-the-fly `diffChoice` test),
//!   discard failures to `R_r`, and commit the first survivor as the
//!   next stage. The commit then retires from `Q_r` every queued
//!   candidate its choice FDs block for good (see [`FdTable`]), so
//!   retrieve-least does not meet them.
//!
//! New source facts flow into `Q_r` as they are derived, once they pass
//! the comparisons that do not read the stage, keyed by their
//! *r-congruence class* (one queued representative per class — see
//! [`gbc_storage::rql`]). Insert and retrieve-least are `O(log |Q|)`,
//! which is what delivers the paper's complexity results: Prim in
//! `O(e log e)`, sorting in `O(n log n)` (the "insertion sort that runs
//! as heap-sort"), matching in `O(e log e)`.
//!
//! Congruence keys are derived from the rule's choice FDs per the
//! paper's definition, with a soundness guard: an argument column is
//! dropped as "functionally determined" only while the determining
//! columns remain in the key, and the cost column is dropped only when
//! the rule has choice goals at all (for plain `next`+`least` rules like
//! sorting, every source fact is its own class — the behaviour the
//! paper's sorting analysis describes).

use std::sync::Arc;

use gbc_ast::{Atom, Literal, Program, Rule, Symbol, Term, Value, VarId};
use gbc_engine::bindings::Bindings;
use gbc_engine::eval::{eval_expr, eval_term, instantiate_head, match_term_id, parent_rows};
use gbc_engine::extrema::{collect_matches_plan, filter_extrema};
use gbc_engine::plan::{columnar_feed_spec, FeedCheck, PlanCache};
use gbc_engine::seminaive::Seminaive;
use gbc_storage::dictionary::{self, decode_ref};
use gbc_storage::idtable::Chain;
use gbc_storage::{Database, FdTable, ProvenanceArena, Row, Rql, DICT_MISS, NO_GOAL};
use gbc_telemetry::{DiscardReason, Recorder, Snapshot, Telemetry, TraceEvent};

use crate::analysis::stage::StageInfo;
use crate::error::CoreError;

/// Execution limits.
#[derive(Clone, Copy, Debug)]
pub struct GreedyConfig {
    /// γ-step budget.
    pub max_steps: u64,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig { max_steps: 100_000_000 }
    }
}

impl GreedyConfig {
    /// [`GreedyConfig::default`]; the thread count is ignored, since an
    /// evaluation runs on one thread (DESIGN.md §9). Kept only for the
    /// benchmark crate under `perfbench/`, which builds against it; the
    /// next benchmark revision removes it together with
    /// [`GreedyRun::pool`] and the `pool.*` metrics.
    #[deprecated(note = "evaluation is single-threaded; use `GreedyConfig::default()`")]
    pub fn with_threads(_threads: usize) -> GreedyConfig {
        GreedyConfig::default()
    }
}

/// Always-empty stand-in for the retired worker-pool report, read only
/// by the benchmark crate under `perfbench/` (see
/// [`GreedyConfig::with_threads`]); removed with it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolReport {
    /// One entry per worker lane; always empty.
    pub workers: Vec<LaneReport>,
}

/// One worker lane of a [`PoolReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneReport {
    /// Tasks the lane executed.
    pub tasks: u64,
    /// Tasks the lane claimed outside its fair share.
    pub steals: u64,
}

impl PoolReport {
    /// Mean busy fraction across lanes: 0, as there are none.
    pub fn utilization(&self) -> f64 {
        0.0
    }
}

/// One committed choice: the `chosen_i` fact of the rewritten program
/// (Theorem 1 validation). Every choice goal's committed pair is built
/// from these values; the FD memos hold the same pairs as ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChosenRecord {
    /// Index of the firing rule in the original (and expanded) program.
    pub rule_idx: usize,
    /// The expanded rule's choice variables, evaluated.
    pub chosen_args: Vec<Value>,
}

/// Executor statistics (exposed for the benchmark harness and tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyStats {
    /// Committed γ steps.
    pub gamma_steps: u64,
    /// Candidates popped from some `Q_r` and discarded to `R_r`.
    pub discarded: u64,
    /// Facts derived by flat-rule saturation.
    pub flat_new_facts: u64,
    /// Largest `Q_r` size observed.
    pub queue_peak: usize,
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct GreedyRun {
    /// The computed choice model (EDB + all derived facts).
    pub db: Database,
    /// The committed choices, in firing order.
    pub chosen: Vec<ChosenRecord>,
    /// Counters.
    pub stats: GreedyStats,
    /// The full telemetry counter snapshot of the run.
    pub snapshot: Snapshot,
    /// Always `None`; see [`PoolReport`].
    pub pool: Option<PoolReport>,
}

/// The compiled plan for one next rule.
#[derive(Clone, Debug)]
pub struct NextPlan {
    /// Rule index in the original program.
    pub rule_idx: usize,
    rule: Rule,
    /// The `next`-expanded rule; its choice goals (the original ones,
    /// then the stage FDs) are read only for provenance.
    expanded: Rule,
    head_pred: Symbol,
    stage_pos: usize,
    stage_var: VarId,
    source_lit: usize,
    source_pred: Symbol,
    /// Cost variable (from `least`/`most`), if any, with its source
    /// column.
    cost: Option<(VarId, usize)>,
    /// True for `most` (retrieve the maximum — the dual structure).
    descending: bool,
    /// Chain mode: the rule pins `I = J + 1` (TSP-style), so stale
    /// stages must stay distinct congruence classes.
    pub chain: bool,
    /// Source columns forming the congruence key.
    pub cong_cols: Vec<usize>,
    /// Comparison literals evaluable from source variables alone. The
    /// feed runs them, so every queued row has passed them.
    pre_checks: Vec<Literal>,
    /// Comparison literals needing the stage variable: the only
    /// comparisons a pop runs.
    post_checks: Vec<Literal>,
    /// The expanded rule's choice variables: a commit's `chosen_i`
    /// arguments.
    chosen_vars: Vec<VarId>,
    /// The feed's per-row admission test without `Bindings`, when
    /// every source argument is a bare variable, a repeat of one, or
    /// ground, and every pre-check compares source columns and
    /// constants (empty when every row feeds). `None` admits each row
    /// by matching it into the rule's frame and running the
    /// pre-checks. Surfaced to users as the GBC032 note.
    feed_checks: Option<Vec<FeedCheck>>,
    /// The choice goals whose FD tables chain the queued classes by
    /// left tuple, so that a commit retires what it blocks.
    fd_index: Vec<IndexedGoal>,
}

/// A choice goal that indexes `Q_r`: its left and right terms are bare
/// source variables, read from columns `left_cols` and `right_cols` of
/// a queued row, and its left columns lie inside the congruence key, so
/// a class's left tuple never changes. A goal whose left columns are
/// the whole key is not indexed: its commit marks that one class used.
#[derive(Clone, Debug)]
struct IndexedGoal {
    goal: usize,
    left_cols: Vec<usize>,
    right_cols: Vec<usize>,
}

impl NextPlan {
    /// Head predicate.
    pub fn head_pred(&self) -> Symbol {
        self.head_pred
    }

    /// Source predicate feeding `Q_r`.
    pub fn source_pred(&self) -> Symbol {
        self.source_pred
    }

    /// Source column of the extremum cost, if any.
    pub fn cost_col(&self) -> Option<usize> {
        self.cost.map(|(_, c)| c)
    }

    /// `most` rule: retrieve the maximum.
    pub fn is_descending(&self) -> bool {
        self.descending
    }

    /// The feed loop qualifies for the bindings-free fast path.
    pub fn is_fast_feed(&self) -> bool {
        self.feed_checks.is_some()
    }

    /// Body position of the source atom in the original rule.
    pub(crate) fn source_lit(&self) -> usize {
        self.source_lit
    }

    /// The source atom feeding `Q_r`.
    fn source(&self) -> &Atom {
        let Literal::Pos(source) = &self.rule.body[self.source_lit] else { unreachable!() };
        source
    }

    /// Rewind the frame `b` along `trail`, then match the source atom
    /// against the row whose ids `ids` yields, recording new bindings on
    /// `trail`. False when the row does not match the atom.
    fn bind_source(
        &self,
        ids: impl Iterator<Item = u32>,
        b: &mut Bindings,
        trail: &mut Vec<VarId>,
    ) -> bool {
        for v in trail.drain(..) {
            b.unbind(v);
        }
        self.source().args.iter().zip(ids).all(|(t, id)| match_term_id(t, id, b, trail))
    }
}

/// Build plans for every next rule of a validated, stage-stratified
/// program. Errors with [`CoreError::NoGreedyPlan`] when a next rule
/// falls outside the Section 6 template.
pub fn build_plans(
    program: &Program,
    expanded: &Program,
    stages: &StageInfo,
) -> Result<Vec<NextPlan>, CoreError> {
    let mut plans = Vec::new();
    let mut seen_heads: Vec<Symbol> = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        if !rule.has_next() {
            continue;
        }
        if seen_heads.contains(&rule.head.pred) {
            return Err(CoreError::NoGreedyPlan {
                detail: format!(
                    "two next rules define `{}`; the executor supports one per predicate",
                    rule.head.pred
                ),
            });
        }
        seen_heads.push(rule.head.pred);
        plans.push(build_plan(ri, rule, &expanded.rules[ri], stages)?);
    }
    Ok(plans)
}

fn template_err(rule: &Rule, detail: impl Into<String>) -> CoreError {
    CoreError::NoGreedyPlan {
        detail: format!("rule `{rule}` is outside the Section 6 template: {}", detail.into()),
    }
}

fn build_plan(
    rule_idx: usize,
    rule: &Rule,
    expanded: &Rule,
    stages: &StageInfo,
) -> Result<NextPlan, CoreError> {
    let stage_var = rule
        .body
        .iter()
        .find_map(|l| match l {
            Literal::Next { var } => Some(*var),
            _ => None,
        })
        .expect("next rule");
    let stage_pos = rule
        .head
        .args
        .iter()
        .position(|t| matches!(t, Term::Var(v) if *v == stage_var))
        .ok_or_else(|| template_err(rule, "stage variable missing from head"))?;

    // Exactly one positive atom (the source); no negation.
    let sources: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l, Literal::Pos(_)))
        .map(|(i, _)| i)
        .collect();
    if sources.len() != 1 {
        return Err(template_err(rule, format!("{} positive atoms, need 1", sources.len())));
    }
    if rule.has_negation() {
        return Err(template_err(rule, "negated atoms in a next rule"));
    }
    let source_lit = sources[0];
    let Literal::Pos(source) = &rule.body[source_lit] else { unreachable!() };

    // Variables bound by the source atom.
    let source_vars = source.vars();

    // Extremum: at most one `least`/`most`, group ⊆ {stage var}.
    let mut cost = None;
    let mut descending = false;
    for lit in &rule.body {
        let (c, group, desc) = match lit {
            Literal::Least { cost, group } => (cost, group, false),
            Literal::Most { cost, group } => (cost, group, true),
            _ => continue,
        };
        if cost.is_some() {
            return Err(template_err(rule, "multiple extrema"));
        }
        let group_ok = group.is_empty()
            || (group.len() == 1 && matches!(&group[0], Term::Var(v) if *v == stage_var));
        if !group_ok {
            return Err(template_err(rule, "extremum group must be the stage variable"));
        }
        let Term::Var(cv) = c else {
            return Err(template_err(rule, "extremum cost must be a variable"));
        };
        let col = source
            .args
            .iter()
            .position(|t| matches!(t, Term::Var(v) if v == cv))
            .ok_or_else(|| template_err(rule, "cost variable must be a source column"))?;
        cost = Some((*cv, col));
        descending = desc;
    }

    // Comparisons: split by whether they mention the stage variable;
    // everything they mention must come from the source (or the stage).
    // This is what lets the executor run them as plain filters: a
    // pre-check is ground once the source row is matched, a post-check
    // once the stage is bound too, so no comparison ever assigns.
    let mut pre_checks = Vec::new();
    let mut post_checks = Vec::new();
    for lit in &rule.body {
        let Literal::Compare { .. } = lit else { continue };
        let vars = lit.vars();
        if vars.iter().any(|v| !source_vars.contains(v) && *v != stage_var) {
            return Err(template_err(rule, "comparison over non-source variables"));
        }
        if vars.contains(&stage_var) {
            post_checks.push(lit.clone());
        } else {
            pre_checks.push(lit.clone());
        }
    }

    // Bindings-free feed eligibility (see the field docs): the source
    // args and pre-checks compile to a columnar check sequence, or the
    // feed keeps its binding frames. Constant operands intern here, at
    // plan-build time, so the feed itself never interns them.
    let feed_checks = columnar_feed_spec(&source.args, &pre_checks);

    // Head must be instantiable from source vars + stage var.
    let mut head_vars = Vec::new();
    for t in &rule.head.args {
        t.collect_vars(&mut head_vars);
    }
    if head_vars.iter().any(|v| !source_vars.contains(v) && *v != stage_var) {
        return Err(template_err(rule, "head variable not bound by the source atom"));
    }

    // Chain mode: I = J + 1 for the source's stage column J.
    let cons = crate::analysis::constraints::Constraints::from_rule(rule);
    let source_stage_col =
        stages.stage_arg.get(&source.pred).copied().filter(|&pos| pos < source.args.len());
    let chain = source_stage_col.is_some_and(|pos| {
        matches!(&source.args[pos], Term::Var(j)
            if cons.lt(*j, stage_var) && cons.le_offset(stage_var, *j, 1))
    });

    // Choice goals of the original rule; their variables must be bound.
    let choice_lits = rule.body.iter().filter(|l| matches!(l, Literal::Choice { .. }));
    if choice_lits.flat_map(Literal::vars).any(|v| !source_vars.contains(&v) && v != stage_var) {
        return Err(template_err(rule, "choice variable not bound by the source atom"));
    }
    let choice_goals: Vec<(&[Term], &[Term])> = choice_goals(rule).collect();

    // Congruence key (see module docs).
    let mut key: Vec<usize> = (0..source.args.len()).collect();
    if let Some(pos) = source_stage_col {
        if !chain {
            key.retain(|&c| c != pos);
        }
    }
    // Columns whose variables are functionally determined by a choice
    // goal. Sound ONLY with a single choice goal: a popped candidate
    // can then fail solely through that goal's FD on the key itself, so
    // a discarded pop proves the whole congruence class dead. With two
    // or more FDs (the matching program) a pop may fail through an FD
    // over a dropped column while congruent siblings remain viable —
    // and indeed the paper's own matching analysis keeps all `e` arcs
    // in `Q_r`.
    let col_vars: Vec<Vec<VarId>> = source.args.iter().map(Term::vars).collect();
    let cost_col = cost.map(|(_, col)| col);
    if let [(left, right)] = choice_goals[..] {
        let l_vars: Vec<VarId> = left.iter().flat_map(Term::vars).collect();
        let r_vars: Vec<VarId> = right.iter().flat_map(Term::vars).collect();
        let key_vars: Vec<VarId> = key
            .iter()
            .filter(|&&c| Some(c) != cost_col)
            .flat_map(|&c| col_vars[c].iter().copied())
            .collect();
        if l_vars.iter().all(|v| key_vars.contains(v) || *v == stage_var) {
            key.retain(|&c| {
                Some(c) == cost_col
                    || col_vars[c].is_empty()
                    || !col_vars[c].iter().all(|v| r_vars.contains(v))
            });
        }
    }
    if let Some(col) = cost_col {
        if !choice_goals.is_empty() {
            key.retain(|&c| c != col);
        }
    }

    // The goals whose tables index `Q_r` (see `IndexedGoal`).
    let bare_col = |t: &Term| match t {
        Term::Var(v) => source.args.iter().position(|a| a == &Term::Var(*v)),
        _ => None,
    };
    let fd_index = choice_goals
        .iter()
        .enumerate()
        .filter_map(|(goal, (left, right))| {
            let left_cols: Vec<usize> = left.iter().map(bare_col).collect::<Option<_>>()?;
            let right_cols: Vec<usize> = right.iter().map(bare_col).collect::<Option<_>>()?;
            let inside = left_cols.iter().all(|c| key.contains(c));
            let whole = key.iter().all(|c| left_cols.contains(c));
            (inside && !whole).then_some(IndexedGoal { goal, left_cols, right_cols })
        })
        .collect();

    Ok(NextPlan {
        rule_idx,
        rule: rule.clone(),
        expanded: expanded.clone(),
        head_pred: rule.head.pred,
        stage_pos,
        stage_var,
        source_lit,
        source_pred: source.pred,
        cost,
        descending,
        chain,
        cong_cols: key,
        pre_checks,
        post_checks,
        chosen_vars: expanded.choice_vars(),
        feed_checks,
        fd_index,
    })
}

/// The FD tables of `rule`'s choice goals, in body order.
fn fd_tables(rule: &Rule) -> Vec<FdTable> {
    choice_goals(rule).map(|(l, r)| FdTable::new(l.len(), r.len())).collect()
}

/// Reusable id buffers for the feed, the diffChoice probe and the head
/// build, so neither a fed nor a rejected candidate allocates.
#[derive(Default)]
struct IdScratch {
    /// The source row being fed.
    row: Vec<u32>,
    left: Vec<u32>,
    right: Vec<u32>,
    head: Vec<u32>,
    w: Vec<u32>,
}

struct NextState {
    plan: NextPlan,
    rql: Rql,
    /// Fed rows of the source relation.
    src_mark: usize,
    /// Scanned rows of the head relation (stage tracking).
    head_mark: usize,
    /// Current maximum stage.
    stage: i64,
    /// FD table per original choice goal.
    memos: Vec<FdTable>,
    /// The `choice(W, I)` FD of the next-expansion: each non-stage head
    /// tuple `W` is committed at exactly one stage. Without this check
    /// a chain-mode program can re-commit the same tuple at every new
    /// stage (the head differs only in `I`) and never terminate. Only
    /// the FD's domain is kept: a table from `W` to no right terms.
    w_used: FdTable,
    /// The classes the current commit blocks.
    retired: Vec<u32>,
    /// Retired candidates not yet recorded, when provenance or a trace
    /// is on: each is recorded where its pop would have come, with the
    /// verdict that pop would have reached (see `fire_next_rule`).
    unrecorded: Rql,
    /// The rule's scratch binding frame and its trail, kept across
    /// feeds and γ steps: the trail rewinds the frame before each
    /// framed-feed row and each pop.
    frame: Bindings,
    trail: Vec<VarId>,
    scratch: IdScratch,
}

/// The executor. Create with [`GreedyExecutor::new`], then [`GreedyExecutor::run`].
pub struct GreedyExecutor {
    flat: Seminaive,
    nexts: Vec<NextState>,
    /// Exit choice rules (choice, no next), with their memos.
    exits: Vec<(usize, Rule)>,
    /// Compiled join plans of the exit rules, one slot per rule.
    exit_plans: PlanCache,
    exit_memos: Vec<Vec<FdTable>>,
    /// Per exit rule: the body-relation size total at the last fruitless
    /// attempt — unchanged inputs ⇒ still fruitless, skip the re-scan.
    exit_stale: Vec<Option<usize>>,
    /// The id of `nil`, the cost of every candidate of a rule without
    /// an extremum.
    nil_cost: u32,
    db: Database,
    config: GreedyConfig,
    chosen: Vec<ChosenRecord>,
    stats: GreedyStats,
    tel: Telemetry,
}

/// The program's fact table, encoded into a database of its own: the
/// fact base an evaluation starts from, next to its EDB. Each group
/// goes into a relation sized once for its facts, and each chunk of
/// its cells is encoded in one pass, under one dictionary read lock.
pub(crate) fn fact_base(program: &Program) -> Database {
    let mut base = Database::new();
    let mut ids = Vec::new();
    for g in program.facts.groups() {
        let (rel, arity) = (base.relation_mut(g.pred()), g.arity());
        if arity == 0 {
            // Every zero-arity fact is the one empty row.
            rel.insert_ids(&[]);
            continue;
        }
        // An upper bound: duplicate facts take no row.
        rel.reserve(arity, g.len());
        for chunk in g.chunks() {
            ids.clear();
            dictionary::encode_into(chunk, &mut ids);
            for row in ids.chunks_exact(arity) {
                rel.insert_ids(row);
            }
        }
    }
    base
}

impl GreedyExecutor {
    /// Set up the executor: facts are loaded, rules partitioned, one
    /// [`Rql`] allocated per next-rule plan. The facts are encoded
    /// afresh; [`crate::Compiled`] keeps them encoded across runs.
    pub fn new(
        program: &Program,
        _expanded: &Program,
        plans: Vec<NextPlan>,
        edb: &Database,
        config: GreedyConfig,
    ) -> GreedyExecutor {
        GreedyExecutor::with_base(program, plans, edb, &fact_base(program), config)
    }

    /// [`GreedyExecutor::new`] over an already-encoded fact base: the
    /// run starts from `edb` with `base`'s rows appended, sharing each
    /// base relation the EDB lacks until the run writes to it.
    pub(crate) fn with_base(
        program: &Program,
        plans: Vec<NextPlan>,
        edb: &Database,
        base: &Database,
        config: GreedyConfig,
    ) -> GreedyExecutor {
        let mut db = edb.clone();
        db.append(base);
        let mut flat_rules = Vec::new();
        let mut flat_ids = Vec::new();
        let mut exits = Vec::new();
        let mut exit_memos = Vec::new();
        for (ri, r) in program.rules.iter().enumerate() {
            if r.has_next() {
                // handled by plans
            } else if r.has_choice() {
                exit_memos.push(fd_tables(r));
                exits.push((ri, r.clone()));
            } else {
                flat_rules.push(r.clone());
                flat_ids.push(ri);
            }
        }
        let nexts: Vec<NextState> = plans
            .into_iter()
            .map(|plan| {
                let arity = plan.source().args.len();
                let new_rql = if plan.descending { Rql::new_descending } else { Rql::new };
                let rql = new_rql(arity, &plan.cong_cols);
                // Every row its own class, so two retired rows of one
                // congruence class are both recorded.
                let unrecorded = new_rql(arity, &(0..arity).collect::<Vec<_>>());
                NextState {
                    rql,
                    src_mark: 0,
                    head_mark: 0,
                    stage: i64::MIN,
                    memos: fd_tables(&plan.rule),
                    w_used: FdTable::new(plan.rule.head.args.len() - 1, 0),
                    retired: Vec::new(),
                    unrecorded,
                    frame: Bindings::new(plan.rule.num_vars()),
                    trail: Vec::new(),
                    scratch: IdScratch::default(),
                    plan,
                }
            })
            .collect();
        let exit_stale = vec![None; exits.len()];
        let exit_plans = PlanCache::new(exits.len());
        let mut flat = Seminaive::new(flat_rules);
        flat.set_rule_ids(flat_ids);
        let mut ex = GreedyExecutor {
            flat,
            nexts,
            exits,
            exit_plans,
            exit_memos,
            exit_stale,
            nil_cost: dictionary::encode(&Value::Nil),
            db,
            config,
            chosen: Vec::new(),
            stats: GreedyStats::default(),
            tel: Telemetry::default(),
        };
        ex.set_telemetry(ex.tel.clone());
        ex
    }

    /// Swap in a telemetry handle (counters, timing recorder, trace sink)
    /// and wire it into every layer: the database's index caches, the
    /// seminaive saturator, and each rule's `Q_r`.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.db.set_metrics(Arc::clone(&tel.metrics));
        self.flat.set_telemetry(tel.clone());
        for ns in &mut self.nexts {
            ns.rql.set_metrics(Arc::clone(&tel.metrics));
        }
        self.tel = tel;
    }

    /// Run to fixpoint. A round — saturation plus the γ or exit
    /// decision it enables — is timed as `run/flat`, `run/exit` and
    /// `run/gamma/{feed,choose,commit}`; loop bookkeeping, the closing
    /// snapshot and teardown as `run/other`.
    pub fn run(self) -> Result<GreedyRun, CoreError> {
        let rec = Arc::clone(&self.tel.phases);
        rec.time("run/other", || self.rounds(&rec))
    }

    fn rounds(mut self, rec: &Recorder) -> Result<GreedyRun, CoreError> {
        let mut flat_round: u64 = 0;
        loop {
            rec.enter("run/flat");
            let new_facts = self.flat.saturate(&mut self.db)?;
            self.stats.flat_new_facts += new_facts;
            flat_round += 1;
            self.tel.trace_with(|| TraceEvent::FlatRound { round: flat_round, new_facts });
            rec.enter("run/exit");
            if self.fire_exit_rule()? {
                rec.end_round();
                continue;
            }
            rec.enter("run/gamma/feed");
            self.feed_all()?;
            rec.enter("run/gamma/choose");
            let mut fired = false;
            for i in 0..self.nexts.len() {
                if self.fire_next_rule(i)? {
                    fired = true;
                    break;
                }
            }
            rec.end_round();
            if !fired {
                break;
            }
            if self.stats.gamma_steps >= self.config.max_steps {
                return Err(CoreError::StepLimit { steps: self.stats.gamma_steps });
            }
        }
        rec.enter("run/other");
        let snapshot = self.tel.metrics.snapshot();
        // The rest of the executor is dropped on return, inside the
        // `run/other` phase.
        Ok(GreedyRun { db: self.db, chosen: self.chosen, stats: self.stats, snapshot, pool: None })
    }

    /// Fire one exit choice rule instance, generic-candidate style.
    fn fire_exit_rule(&mut self) -> Result<bool, CoreError> {
        let GreedyExecutor {
            exits,
            exit_plans,
            exit_memos,
            exit_stale,
            db,
            tel,
            chosen,
            stats,
            ..
        } = self;
        let prov = db.provenance().cloned();
        let mut scratch = IdScratch::default();
        for (ei, (ri, rule)) in exits.iter().enumerate() {
            let body_size: usize = rule.positive_atoms().map(|a| db.count(a.pred)).sum();
            if exit_stale[ei] == Some(body_size) {
                continue;
            }
            let cached = exit_plans.is_cached(ei);
            let plan = exit_plans
                .get_or_compile(ei, rule, Some(&*tel.metrics))
                .map_err(CoreError::Engine)?;
            if cached {
                tel.phases.plan_hit(*ri);
            }
            let frames = collect_matches_plan(db, rule, &plan, None)?;
            let considered = frames.len() as u64;
            tel.metrics.choice_candidates_considered.add(considered);
            let memos = &mut exit_memos[ei];
            let mut consistent = Vec::new();
            let mut rejected: u64 = 0;
            for b in frames {
                let Some(gi) = fd_first_conflict(rule, memos, &b, &mut scratch)? else {
                    consistent.push(b);
                    continue;
                };
                rejected += 1;
                tel.metrics.diffchoice_rejections.inc();
                if let Some(arena) = &prov {
                    let head = instantiate_head(rule, &b)?;
                    let (left, attempted, committed) =
                        conflict_values(rule, gi, memos, &b, &scratch)?;
                    arena.record_rejection(
                        *ri,
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
            if considered > 0 {
                tel.trace_with(|| TraceEvent::ChoiceAudit {
                    rule: *ri,
                    pred: rule.head.pred.to_string(),
                    considered,
                    rejected,
                });
            }
            let minimal = filter_extrema(rule, consistent)?;
            // Deterministic pick: smallest (head, chosen-args).
            let mut best: Option<(Row, Vec<Value>, Bindings)> = None;
            for b in minimal {
                terms_ids(rule, &rule.head.args, &b, false, &mut scratch.head)?;
                if db.relation(rule.head.pred).contains_ids(&scratch.head)
                    && all_pairs_present(rule, memos, &b, &mut scratch)?
                {
                    continue; // not new
                }
                let head = instantiate_head(rule, &b)?;
                let args = eval_vars(rule, &rule.choice_vars(), &b)?;
                if best.as_ref().map_or(true, |(h, a, _)| (&head, &args) < (h, a)) {
                    best = Some((head, args, b));
                }
            }
            let Some((head, args, b)) = best else {
                exit_stale[ei] = Some(body_size);
                tel.phases.charge(*ri, 0, 0);
                continue;
            };
            commit_goals(rule, &b, memos, &mut scratch, |_, _| {})?;
            tel.trace_with(|| TraceEvent::ExitCommit {
                pred: rule.head.pred.to_string(),
                fact: head.to_string(),
            });
            if let Some(arena) = &prov {
                arena.advance_step();
                arena.record_derivation(rule.head.pred, &head, *ri, &parent_rows(rule, &b));
                record_commit(arena, *ri, rule, &head, &b)?;
            }
            terms_ids(rule, &rule.head.args, &b, true, &mut scratch.head)?;
            db.insert_ids(rule.head.pred, &scratch.head);
            chosen.push(ChosenRecord { rule_idx: *ri, chosen_args: args });
            stats.gamma_steps += 1;
            tel.metrics.gamma_steps.inc();
            tel.phases.charge(*ri, 1, 1);
            return Ok(true);
        }
        Ok(false)
    }

    /// Feed every next rule in index order.
    fn feed_all(&mut self) -> Result<(), CoreError> {
        for i in 0..self.nexts.len() {
            self.feed(i)?;
        }
        Ok(())
    }

    /// Push newly derived source facts of next rule `i` into its `Q_r`,
    /// and refresh the rule's stage high-water mark.
    fn feed(&mut self, i: usize) -> Result<(), CoreError> {
        let GreedyExecutor { nexts, db, stats, tel, nil_cost, .. } = self;
        let NextState {
            plan,
            rql,
            src_mark,
            head_mark,
            stage,
            memos,
            w_used,
            frame,
            trail,
            scratch,
            ..
        } = &mut nexts[i];

        // Track the head relation's max stage (exit rules seed it), and
        // register every head tuple's W projection: the stage variable
        // "associates each tuple with a unique value of the index I,
        // and vice versa" (Section 3) — the W → I direction must also
        // cover facts produced by exit rules, or a chain program can
        // re-commit an exit tuple at a fresh stage forever. A γ commit
        // registers its own tuple and moves the mark past it.
        let head_rel = db.relation(plan.head_pred);
        let head_rows = head_rel.since(*head_mark);
        for r in 0..head_rows.len() {
            match head_rows.try_cell(r, plan.stage_pos).map(decode_ref) {
                Some(Value::Int(s)) => *stage = (*stage).max(*s),
                Some(other) => return Err(CoreError::NonIntegerStage { found: other.to_string() }),
                None => {}
            }
            // A row of another arity never equals a committed W.
            if head_rows.arity() == plan.rule.head.args.len() {
                scratch.w.clear();
                scratch.w.extend(
                    (0..head_rows.arity())
                        .filter(|&c| c != plan.stage_pos)
                        .map(|c| head_rows.cell(r, c)),
                );
                w_used.commit(&scratch.w, &[]);
            }
        }
        *head_mark = head_rel.len();

        // The new rows are read in place from the relation's column
        // arenas; each admitted row is copied into one reused buffer and
        // runs the paper's case analysis against the live queue. A row
        // is admitted by the plan's columnar checks or, for shapes they
        // cannot express (arithmetic over a source variable, a
        // non-ground compound argument), by matching it into the frame
        // and running the pre-checks. Either way the cost id is the cost
        // column's cell: the frame binds the cost variable to that id.
        let src_rel = db.relation(plan.source_pred);
        let rows = src_rel.since(*src_mark);
        *src_mark = src_rel.len();
        let arity = plan.source().args.len();
        if rows.arity() == arity {
            rql.reserve(rows.len());
            for g in &plan.fd_index {
                memos[g.goal].reserve_links(rows.len());
            }
            for r in 0..rows.len() {
                let admitted = match &plan.feed_checks {
                    Some(checks) => checks.iter().all(|c| c.eval(&|col| rows.cell(r, col))),
                    None => {
                        plan.bind_source((0..arity).map(|c| rows.cell(r, c)), frame, trail)
                            && passes(&plan.pre_checks, frame)?
                    }
                };
                if admitted {
                    rows.read_row(r, &mut scratch.row);
                    let class = rql.classes();
                    rql.insert(plan.cost.map_or(*nil_cost, |(_, c)| scratch.row[c]), &scratch.row);
                    if rql.classes() > class {
                        for g in &plan.fd_index {
                            scratch.left.clear();
                            scratch.left.extend(g.left_cols.iter().map(|&c| scratch.row[c]));
                            memos[g.goal].link(class as u32, &scratch.left);
                        }
                    }
                }
            }
        }
        rql.flush_metrics();
        stats.queue_peak = stats.queue_peak.max(rql.queue_len());
        tel.phases.charge(plan.rule_idx, 0, 0);
        Ok(())
    }

    /// γ for next rule `i`: pop candidates until one passes every check.
    ///
    /// The step runs in id space: the popped row binds its ids into the
    /// frame, the FD tables are probed with id tuples read off the
    /// frame, and the committed head is an id row. Only the new stage
    /// value is interned (once per step); values are decoded only for
    /// the chosen record, provenance and trace events.
    fn fire_next_rule(&mut self, i: usize) -> Result<bool, CoreError> {
        let GreedyExecutor { nexts, db, chosen, stats, tel, .. } = self;
        let prov = db.provenance().cloned();
        let recording = prov.is_some() || tel.trace.is_some();
        let NextState {
            plan,
            rql,
            head_mark,
            stage,
            memos,
            w_used,
            retired,
            unrecorded,
            frame: b,
            trail,
            scratch,
            ..
        } = &mut nexts[i];
        if *stage == i64::MIN {
            // The head holds no stage yet, so the expansion's `p(_, I1)`
            // goal has no match and no candidate is eligible: the model
            // the generic fixpoint computes. A later exit fact raises the
            // stage in `feed`, and the queued candidates wait for it.
            return Ok(false);
        }
        let next_stage = stage.checked_add(1).ok_or(CoreError::StepLimit { steps: u64::MAX })?;
        // γ bucket accounting: everything up to a commit decision is
        // "choose" (pops, re-checks, FD tests, discards), which the run
        // loop entered; the committed candidate's bookkeeping and the
        // retirements it causes are "commit". Both intervals are
        // charged to this rule.

        let mut stage_id = None;
        let mut pops: u64 = 0;
        let mut rejected: u64 = 0;
        loop {
            // When recording, a retired candidate is recorded where its
            // pop would have come: it is taken from `unrecorded` when it
            // precedes the least queued candidate, checked like a pop and
            // recorded, but not counted again.
            let was_retired = recording && unrecorded.first_before(rql);
            let popped = if was_retired { unrecorded.pop_least() } else { rql.pop_least() };
            let Some(popped) = popped else { break };
            let row = if was_retired { unrecorded.row(&popped) } else { rql.row(&popped) };
            if !was_retired {
                pops += 1;
                tel.metrics.choice_candidates_considered.inc();
            }
            let ok = plan.bind_source(row.iter().copied(), b, trail);
            debug_assert!(ok, "queued row must re-match its source atom");
            let sid = *stage_id.get_or_insert_with(|| dictionary::encode(&Value::Int(next_stage)));
            b.bind_encoded(plan.stage_var, sid);
            trail.push(plan.stage_var);

            // The row passed the pre-checks when it was fed; what is
            // left are the post-checks, the choice FDs and the
            // next-expansion's choice(W, I): one stage per W, tested on
            // the head's id row without its stage column.
            let discard = if !passes(&plan.post_checks, b)? {
                Some((DiscardReason::StaleStage, NO_GOAL))
            } else if let Some(gi) = fd_first_conflict(&plan.rule, memos, b, scratch)? {
                Some((DiscardReason::DiffChoice, gi))
            } else {
                terms_ids(&plan.rule, &plan.rule.head.args, b, true, &mut scratch.head)?;
                scratch.w.clear();
                scratch.w.extend(
                    scratch
                        .head
                        .iter()
                        .enumerate()
                        .filter(|&(c, _)| c != plan.stage_pos)
                        .map(|(_, &id)| id),
                );
                w_used.get(&scratch.w).map(|_| (DiscardReason::StageReuse, NO_GOAL))
            };
            if let Some((reason, goal)) = discard {
                if let Some(arena) = &prov {
                    let (pred, left, attempted, committed) = match reason {
                        DiscardReason::StaleStage => {
                            (plan.source_pred, Vec::new(), Vec::new(), Vec::new())
                        }
                        DiscardReason::DiffChoice => {
                            let (left, attempted, committed) =
                                conflict_values(&plan.rule, goal, memos, b, scratch)?;
                            (plan.source_pred, left, attempted, committed)
                        }
                        DiscardReason::StageReuse => (
                            plan.head_pred,
                            decode_ids(&scratch.w),
                            vec![Value::Int(next_stage)],
                            Vec::new(),
                        ),
                    };
                    arena.record_rejection(
                        plan.rule_idx,
                        goal,
                        reason.label(),
                        pred,
                        &dictionary::decode_row(row),
                        left,
                        attempted,
                        committed,
                    );
                }
                tel.trace_with(|| TraceEvent::Discard {
                    pred: plan.head_pred.to_string(),
                    reason,
                    row: dictionary::decode_row(row).to_string(),
                });
                if was_retired {
                    unrecorded.discard(popped);
                    continue;
                }
                match reason {
                    DiscardReason::StaleStage => {}
                    DiscardReason::DiffChoice => tel.metrics.diffchoice_rejections.inc(),
                    DiscardReason::StageReuse => tel.metrics.stage_reuse_rejections.inc(),
                }
                rejected += 1;
                tel.metrics.discarded_pops.inc();
                rql.discard(popped);
                stats.discarded += 1;
                continue;
            }
            debug_assert!(!was_retired, "a retired candidate stays blocked");

            // Commit. Each indexed goal's first commit of its left tuple
            // yields the classes linked under that tuple; the queued ones
            // whose right tuple differs are blocked for good.
            tel.phases.charge(plan.rule_idx, 0, 0);
            tel.phases.enter("run/gamma/commit");
            w_used.commit(&scratch.w, &[]);
            retired.clear();
            commit_goals(&plan.rule, b, memos, scratch, |gi, chain| {
                let Some(g) = plan.fd_index.iter().find(|g| g.goal == gi) else { return };
                retired.extend(chain.filter(|&c| {
                    rql.is_queued(c)
                        && g.right_cols.iter().any(|&col| rql.class_row(c)[col] != row[col])
                }));
            })?;
            let chosen_args = eval_vars(&plan.expanded, &plan.chosen_vars, b)?;
            let head = std::mem::take(&mut scratch.head);
            tel.trace_with(|| TraceEvent::StageCommit {
                pred: plan.head_pred.to_string(),
                stage: next_stage,
                cost: if plan.cost.is_some() {
                    decode_ref(popped.cost).to_string()
                } else {
                    String::new()
                },
                fact: Row::new(decode_ids(&head)).to_string(),
            });
            if let Some(arena) = &prov {
                let head_row = Row::new(decode_ids(&head));
                arena.advance_step();
                arena.record_derivation(
                    plan.head_pred,
                    &head_row,
                    plan.rule_idx,
                    &[(plan.source_pred, dictionary::decode_row(row))],
                );
                record_commit(arena, plan.rule_idx, &plan.expanded, &head_row, b)?;
            }
            rql.commit(popped);
            *stage = next_stage;
            // Retire what the commit blocked: memos only grow, so every
            // later pop of these candidates would discard them. A class
            // linked under two committed tuples retires once.
            for &class in retired.iter() {
                if rql.is_queued(class) {
                    let cost = rql.retire(class);
                    tel.metrics.diffchoice_rejections.inc();
                    if recording {
                        unrecorded.insert(cost, rql.class_row(class));
                    }
                }
            }
            tel.trace_with(|| TraceEvent::ChoiceAudit {
                rule: plan.rule_idx,
                pred: plan.head_pred.to_string(),
                considered: pops,
                rejected,
            });
            rql.flush_metrics();
            // The commit registered its W above, so the next feed need
            // not scan this row again.
            let head_len = db.relation(plan.head_pred).len();
            db.insert_ids(plan.head_pred, &head);
            if head_len == *head_mark && db.relation(plan.head_pred).len() == head_len + 1 {
                *head_mark += 1;
            }
            chosen.push(ChosenRecord { rule_idx: plan.rule_idx, chosen_args });
            stats.gamma_steps += 1;
            tel.metrics.gamma_steps.inc();
            tel.phases.charge(plan.rule_idx, 1, 1);
            return Ok(true);
        }
        rql.flush_metrics();
        if pops > 0 {
            tel.trace_with(|| TraceEvent::ChoiceAudit {
                rule: plan.rule_idx,
                pred: plan.head_pred.to_string(),
                considered: pops,
                rejected,
            });
        }
        tel.phases.charge(plan.rule_idx, 0, 0);
        Ok(false)
    }
}

/// Run a plan's comparison literals over the frame `b` as filters, in
/// body order: true when every one holds. Nothing is assigned here —
/// [`build_plan`] admits only comparisons whose variables the frame
/// binds by the time they run.
fn passes(checks: &[Literal], b: &Bindings) -> Result<bool, CoreError> {
    for lit in checks {
        let Literal::Compare { op, lhs, rhs } = lit else { unreachable!("plan checks compare") };
        let (Some(l), Some(r)) = (eval_expr(lhs, b)?, eval_expr(rhs, b)?) else {
            unreachable!("build_plan proves every check ground");
        };
        if !op.eval(l.cmp(&r)) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn eval_tuple(rule: &Rule, terms: &[Term], b: &Bindings) -> Result<Vec<Value>, CoreError> {
    terms.iter().map(|t| eval_term(t, b).ok_or_else(|| non_ground(rule))).collect()
}

fn non_ground(rule: &Rule) -> CoreError {
    CoreError::Engine(gbc_engine::EngineError::NonGroundHead { rule: rule.to_string() })
}

/// The `(left, right)` term tuples of `rule`'s choice goals, in body
/// order.
fn choice_goals(rule: &Rule) -> impl Iterator<Item = (&[Term], &[Term])> {
    rule.body.iter().filter_map(|l| match l {
        Literal::Choice { left, right } => Some((left.as_slice(), right.as_slice())),
        _ => None,
    })
}

/// Write the dictionary ids of `terms` under `b` into `out`. A variable
/// bound with its id reads it off the frame; any other term is
/// evaluated, then interned (`intern`) or only looked up — a value
/// never interned yields [`DICT_MISS`], which equals no stored id.
fn terms_ids(
    rule: &Rule,
    terms: &[Term],
    b: &Bindings,
    intern: bool,
    out: &mut Vec<u32>,
) -> Result<(), CoreError> {
    out.clear();
    for t in terms {
        let id = match t {
            Term::Var(v) if b.id_of(*v) != DICT_MISS => b.id_of(*v),
            _ => {
                let v = eval_term(t, b).ok_or_else(|| non_ground(rule))?;
                if intern {
                    dictionary::encode(&v)
                } else {
                    dictionary::try_encode(&v)
                }
            }
        };
        out.push(id);
    }
    Ok(())
}

/// Values of an id tuple, borrowed from the dictionary (uncounted: these
/// are internal records, not output).
fn decode_ids(ids: &[u32]) -> Vec<Value> {
    ids.iter().map(|&id| decode_ref(id).clone()).collect()
}

/// The on-the-fly diffChoice test: the first choice goal of `rule`
/// whose FD the frame `b` violates against the committed `memos`, or
/// `None` when the frame is FD-consistent. Probes with `scratch`'s id
/// buffers; on a conflict, `scratch.left` holds the goal's left ids.
fn fd_first_conflict(
    rule: &Rule,
    memos: &[FdTable],
    b: &Bindings,
    scratch: &mut IdScratch,
) -> Result<Option<usize>, CoreError> {
    for (gi, (l, r)) in choice_goals(rule).enumerate() {
        terms_ids(rule, l, b, false, &mut scratch.left)?;
        let Some(prev) = memos[gi].get(&scratch.left) else { continue };
        terms_ids(rule, r, b, false, &mut scratch.right)?;
        if prev != scratch.right {
            return Ok(Some(gi));
        }
    }
    Ok(None)
}

/// The `(left, attempted, committed)` values of a diffChoice conflict.
type ConflictValues = (Vec<Value>, Vec<Value>, Vec<Value>);

/// The [`ConflictValues`] of a conflict that [`fd_first_conflict`]
/// reported on goal `gi`, for provenance.
fn conflict_values(
    rule: &Rule,
    gi: usize,
    memos: &[FdTable],
    b: &Bindings,
    scratch: &IdScratch,
) -> Result<ConflictValues, CoreError> {
    let (_, right) = choice_goals(rule).nth(gi).expect("conflicting goal exists");
    let committed = decode_ids(memos[gi].get(&scratch.left).expect("the conflict's commit"));
    Ok((decode_ids(&scratch.left), eval_tuple(rule, right, b)?, committed))
}

/// Has every choice goal of `rule` already committed exactly the pair
/// the frame `b` would?
fn all_pairs_present(
    rule: &Rule,
    memos: &[FdTable],
    b: &Bindings,
    scratch: &mut IdScratch,
) -> Result<bool, CoreError> {
    for (gi, (l, r)) in choice_goals(rule).enumerate() {
        terms_ids(rule, l, b, false, &mut scratch.left)?;
        terms_ids(rule, r, b, false, &mut scratch.right)?;
        if memos[gi].get(&scratch.left) != Some(scratch.right.as_slice()) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Commit the frame's choice goals: record each goal's (left, right)
/// ids in its table, and hand `fresh` the goal's index and the chain
/// its commit returned (empty unless the left tuple is new).
fn commit_goals(
    rule: &Rule,
    b: &Bindings,
    memos: &mut [FdTable],
    scratch: &mut IdScratch,
    mut fresh: impl FnMut(usize, Chain<'_>),
) -> Result<(), CoreError> {
    for (gi, ((l, r), memo)) in choice_goals(rule).zip(memos).enumerate() {
        terms_ids(rule, l, b, true, &mut scratch.left)?;
        terms_ids(rule, r, b, true, &mut scratch.right)?;
        fresh(gi, memo.commit(&scratch.left, &scratch.right));
    }
    Ok(())
}

/// Record the commit of `head` by rule `rule_idx` in the provenance
/// arena, with every choice goal of `rule` as its `(left, right)`
/// values under `b`.
fn record_commit(
    arena: &ProvenanceArena,
    rule_idx: usize,
    rule: &Rule,
    head: &Row,
    b: &Bindings,
) -> Result<(), CoreError> {
    let pairs = choice_goals(rule)
        .map(|(l, r)| Ok((eval_tuple(rule, l, b)?, eval_tuple(rule, r, b)?)))
        .collect::<Result<_, CoreError>>()?;
    arena.record_commit(rule_idx, rule.head.pred, head, pairs);
    Ok(())
}

/// The values of `vars` under `b` (a `chosen_i` argument tuple).
fn eval_vars(rule: &Rule, vars: &[VarId], b: &Bindings) -> Result<Vec<Value>, CoreError> {
    vars.iter().map(|&v| b.get(v).cloned().ok_or_else(|| non_ground(rule))).collect()
}
