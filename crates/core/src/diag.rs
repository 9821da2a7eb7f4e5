//! The `gbc check` diagnostics engine.
//!
//! Turns every static check — validation (`GBC002`–`GBC006`), the
//! stratification and stage-stratification analysis of Section 4
//! (`GBC010`–`GBC018`), a semantic lint pass (`GBC020`–`GBC025`) and
//! the whole-program type/reachability analysis (`GBC026`–`GBC032`,
//! see [`crate::analysis::typeinfer`] and
//! [`crate::analysis::reachability`]) — into span-carrying
//! [`Diagnostic`]s that the CLI renders rustc-style or serialises as
//! JSON. The full code registry lives in [`gbc_ast::diag`].
//!
//! Severity policy: anything that makes the program unevaluable
//! (validation failures, unstratified negation) is an **error**; the
//! stage-stratification violations are **warnings**, because such
//! programs are still evaluable by the generic choice fixpoint
//! (Theorem 1) — they merely forfeit the greedy executor's complexity
//! guarantees (Theorem 3). Lints are warnings. GBC032 is a **note** —
//! it reports a fast path the planner takes, not a problem — and
//! notes never trip `--deny-warnings`.

use std::collections::HashMap;

use gbc_ast::{Clause, Diagnostic, Literal, Program, SourceMap, Span, Symbol, Term, VarId};
use gbc_telemetry::json::Json;

use crate::analysis::classify::{Analysis, ProgramClass, StageViolation};
use crate::analysis::reachability::{self, ReachInfo};
use crate::analysis::stage::rule_stage_vars;
use crate::analysis::typeinfer::{self, TypeInfo};
use crate::exec;
use crate::{admit, expand_and_plan};

/// Everything `gbc check` needs: the diagnostics plus the analysis they
/// were derived from (for the class/clique summary).
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// All diagnostics, in registry-code order of discovery; render
    /// with [`gbc_ast::diag::render_all`] for source order.
    pub diagnostics: Vec<Diagnostic>,
    /// The classification the diagnostics were derived from.
    pub analysis: Analysis,
    /// Whole-program column types (GBC026/029/030 anchors).
    pub types: TypeInfo,
    /// Reachability/emptiness results (GBC027/028/031 anchors).
    pub reach: ReachInfo,
    /// `None` when [`crate::compile`] refuses the program (`errors() >
    /// 0`); otherwise whether it has a greedy plan, or why not.
    pub plan: Option<Result<(), String>>,
}

impl CheckReport {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        gbc_ast::diag::error_count(&self.diagnostics)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        gbc_ast::diag::warning_count(&self.diagnostics)
    }

    /// Number of note-severity diagnostics.
    pub fn notes(&self) -> usize {
        gbc_ast::diag::note_count(&self.diagnostics)
    }
}

/// Run every static check over `program`.
///
/// The program need not be admitted: the admission gate's errors come
/// back as diagnostics, and the lints still run, so a single `gbc
/// check` pass reports everything at once. An admitted program is also
/// planned, once, as [`crate::compile`] plans it.
pub fn check_program(program: &Program) -> CheckReport {
    let (mut diagnostics, analysis) = admit(program);
    let planned = diagnostics.is_empty().then(|| expand_and_plan(program, &analysis));

    match &analysis.class {
        ProgramClass::NotStageStratified { violations } => {
            for v in violations {
                diagnostics.push(violation_diag(program, v));
            }
        }
        ProgramClass::StageStratified { alternating: false } => {
            diagnostics.push(non_alternating_diag(program, &analysis));
        }
        _ => {}
    }

    lint_choice_args(program, &mut diagnostics);
    lint_extrema(program, &analysis, &mut diagnostics);
    lint_dead_predicates(program, &mut diagnostics);
    lint_singleton_vars(program, &mut diagnostics);

    let types = typeinfer::infer(program);
    let reach = reachability::analyze(program);
    lint_type_conflicts(program, &types, &mut diagnostics);
    lint_dead_rules(program, &reach, &mut diagnostics);
    lint_unreachable(program, &reach, &mut diagnostics);
    lint_stage_types(program, &analysis, &types, &mut diagnostics);
    lint_extremum_cost_types(program, &types, &mut diagnostics);
    lint_const_comparisons(program, &reach, &mut diagnostics);

    let plan = planned.map(|(_, plans, plan_error)| {
        note_fast_feed(program, &plans, &mut diagnostics);
        plan_error.map_or(Ok(()), Err)
    });
    CheckReport { diagnostics, analysis, types, reach, plan }
}

/// Version of the `--diag-json` payload schema. Bump when the shape of
/// [`diagnostics_to_json`]'s output changes incompatibly; consumers
/// should check it before parsing (see DESIGN.md, "JSON schemas").
pub const DIAG_SCHEMA_VERSION: u64 = 1;

/// Serialize diagnostics as the `gbc check --diag-json` payload: an
/// object with `schema_version` and a `diagnostics` array in render
/// (source) order. Each entry carries the code, severity, message,
/// resolved labels (file/line/col/len), notes and helps; labels with
/// dummy spans are dropped, like in the renderer.
pub fn diagnostics_to_json(diags: &[Diagnostic], sm: &SourceMap) -> Json {
    Json::obj(vec![
        ("schema_version", Json::UInt(DIAG_SCHEMA_VERSION)),
        ("diagnostics", diagnostics_array(diags, sm)),
    ])
}

fn diagnostics_array(diags: &[Diagnostic], sm: &SourceMap) -> Json {
    let mut order: Vec<&Diagnostic> = diags.iter().collect();
    order.sort_by_key(|d| d.primary_span().map_or(u32::MAX, |s| s.start));
    Json::Arr(
        order
            .into_iter()
            .map(|d| {
                let labels: Vec<Json> = d
                    .labels
                    .iter()
                    .filter(|l| !l.span.is_dummy())
                    .filter_map(|l| {
                        let loc = sm.locate(l.span.start)?;
                        Some(Json::obj(vec![
                            ("file", Json::Str(loc.file)),
                            ("line", Json::UInt(u64::from(loc.line))),
                            ("col", Json::UInt(u64::from(loc.col))),
                            ("len", Json::UInt(u64::from(l.span.end.saturating_sub(l.span.start)))),
                            ("primary", Json::Bool(l.primary)),
                            ("message", Json::Str(l.message.clone())),
                        ]))
                    })
                    .collect();
                Json::obj(vec![
                    ("code", Json::Str(d.code.to_owned())),
                    (
                        "severity",
                        Json::Str(
                            match d.severity {
                                gbc_ast::Severity::Error => "error",
                                gbc_ast::Severity::Warning => "warning",
                                gbc_ast::Severity::Note => "note",
                            }
                            .to_owned(),
                        ),
                    ),
                    ("message", Json::Str(d.message.clone())),
                    ("labels", Json::Arr(labels)),
                    ("notes", Json::Arr(d.notes.iter().map(|n| Json::Str(n.clone())).collect())),
                    ("helps", Json::Arr(d.helps.iter().map(|h| Json::Str(h.clone())).collect())),
                ])
            })
            .collect(),
    )
}

/// The head span of the first clause, rule or fact, whose head is
/// `pred`: the anchor of a predicate-level diagnostic.
fn defining_span(program: &Program, pred: Symbol) -> Option<Span> {
    program.clauses().find_map(|c| match c {
        Clause::Rule(r) if r.head.pred == pred => Some(r.head_span()),
        Clause::Facts(g) if g.pred() == pred => Some(g.first_span()),
        _ => None,
    })
}

/// GBC011–GBC018: one stage-stratification violation as a warning.
fn violation_diag(program: &Program, v: &StageViolation) -> Diagnostic {
    let mut d = Diagnostic::warning(v.code(), v.describe(program));
    match v {
        StageViolation::StageConflict(c) => {
            if let Some(span) = defining_span(program, c.pred) {
                d = d.with_label(span, format!("`{}` first defined here", c.pred));
            }
            d = d.with_note(
                "a stage predicate must carry its stage number at a single, \
                 consistent argument position (Section 4)",
            );
        }
        StageViolation::NoStageArg { pred } => {
            if let Some(span) = defining_span(program, *pred) {
                d = d.with_label(span, "no argument position carries the stage");
            }
            d = d.with_note(
                "every predicate of a stage clique must record the stage number \
                 minted by `next` (Section 4)",
            );
        }
        StageViolation::MixedRuleKinds { rule, .. } => {
            let r = &program.rules[*rule];
            d = d.with_label(r.span(), "second kind of recursive rule here").with_note(
                "all recursive rules defining a predicate must agree: either all \
                 mint stages via `next`, or none do (Section 4's next/flat split)",
            );
        }
        StageViolation::NextRuleNoHeadStageVar { rule } => {
            let r = &program.rules[*rule];
            d = d.with_label(r.head_span(), "stage position holds no variable here").with_note(
                "a next rule's head must hold the minted stage variable at the \
                 predicate's stage position",
            );
        }
        StageViolation::BodyStageNotLess { rule, var, .. } => {
            let r = &program.rules[*rule];
            d = d
                .with_label(
                    r.var_span(*var),
                    format!("`{}` not provably below the new stage", r.var_name(*var)),
                )
                .with_note(
                    "strict stage stratification: every body stage must be provably \
                     `<` the minted stage — add a guard like `J < I` (Section 4)",
                );
        }
        StageViolation::BadNextExtremumGroup { rule, literal, .. } => {
            let r = &program.rules[*rule];
            d = d
                .with_label(r.literal_span(*literal), "group is not the stage variable")
                .with_note(
                    "grouping an extremum by a non-stage variable re-ranks earlier \
                 stages — the paper's `least(C, _)` counter-example (Section 4)",
                );
        }
        StageViolation::FlatStageNotOrdered { rule, var, negated } => {
            let r = &program.rules[*rule];
            d = d
                .with_label(
                    r.var_span(*var),
                    format!(
                        "`{}` not provably {} the head stage",
                        r.var_name(*var),
                        if *negated { "below" } else { "at or below" }
                    ),
                )
                .with_note(
                    "flat rules may read the current stage (`≤`) but may only negate \
                     strictly earlier stages (`<`) — Section 4",
                );
        }
        StageViolation::ExtremumOverClique { rule } => {
            let r = &program.rules[*rule];
            d = d.with_label(r.span(), "extremum ranges over the clique's own facts").with_note(
                "an extremum inside a flat rule re-evaluates as stages accumulate — \
                 the Kruskal situation of Example 8, outside strict stage \
                 stratification",
            );
        }
    }
    d.with_help(
        "the program still runs under the generic choice fixpoint (Theorem 1), \
         but the greedy executor's guarantees (Theorem 3) do not apply",
    )
}

/// GBC020: stage-stratified but with recursive flat rules, so each
/// stage needs `Q^∞` (fixpoint) instead of one `Q` pass.
fn non_alternating_diag(program: &Program, analysis: &Analysis) -> Diagnostic {
    let mut d = Diagnostic::warning(
        "GBC020",
        "stage clique is not alternating: its flat rules are recursive",
    );
    for c in analysis.cliques.iter().filter(|c| c.is_stage_clique && !c.alternating) {
        if let Some(&ri) = c.flat_rules.first() {
            d = d.with_label(program.rules[ri].span(), "flat rules starting here form a cycle");
            break;
        }
    }
    d.with_note(
        "each stage must run the flat rules to fixpoint (Q^∞) instead of a \
         single pass (Section 4's alternating evaluation)",
    )
}

/// GBC021: `choice` tuple elements must be variables. Constants or
/// functor terms in a choice tuple make the functional dependency
/// trivially satisfiable or accidentally over-specific.
fn lint_choice_args(program: &Program, out: &mut Vec<Diagnostic>) {
    for r in &program.rules {
        for (li, lit) in r.body.iter().enumerate() {
            let Literal::Choice { left, right } = lit else { continue };
            for (ai, t) in left.iter().chain(right).enumerate() {
                if !matches!(t, Term::Var(_)) {
                    out.push(
                        Diagnostic::warning(
                            "GBC021",
                            format!(
                                "`choice` argument is not a variable in rule for `{}`",
                                r.head.pred
                            ),
                        )
                        .with_label(
                            r.spans
                                .as_ref()
                                .map(|s| s.literal_arg(li, ai))
                                .unwrap_or_else(|| r.literal_span(li)),
                            "expected a variable",
                        )
                        .with_note(
                            "choice((X), (Y)) declares the functional dependency X → Y \
                             over body-bound variables (Section 2)",
                        ),
                    );
                }
            }
        }
    }
}

/// GBC022 + GBC023: extremum lints. The cost of `least`/`most` must be
/// a data value, not the stage variable itself (GBC022); grouping
/// variables should be visible in the head, else the groups are
/// projected away and the extremum silently collapses (GBC023).
fn lint_extrema(program: &Program, analysis: &Analysis, out: &mut Vec<Diagnostic>) {
    for r in &program.rules {
        if !r.has_extrema() {
            continue;
        }
        let stage_vars = rule_stage_vars(r, &analysis.stages);
        let head_vars: Vec<VarId> = {
            let mut hv = Vec::new();
            for t in &r.head.args {
                t.collect_vars(&mut hv);
            }
            hv
        };
        for (li, lit) in r.body.iter().enumerate() {
            let (cost, group, kw) = match lit {
                Literal::Least { cost, group } => (cost, group, "least"),
                Literal::Most { cost, group } => (cost, group, "most"),
                _ => continue,
            };
            if r.has_next() {
                if let Term::Var(v) = cost {
                    if stage_vars.contains(v) {
                        out.push(
                            Diagnostic::warning(
                                "GBC022",
                                format!(
                                    "stage variable `{}` used as the cost of `{kw}`",
                                    r.var_name(*v)
                                ),
                            )
                            .with_label(
                                r.spans
                                    .as_ref()
                                    .map(|s| s.literal_arg(li, 0))
                                    .unwrap_or_else(|| r.literal_span(li)),
                                "this is the stage counter, not a cost",
                            )
                            .with_note(
                                "in a next rule each stage has a single stage value; \
                                 ranking by it selects nothing",
                            ),
                        );
                    }
                }
            }
            for (gi, g) in group.iter().enumerate() {
                let Term::Var(v) = g else { continue };
                if !head_vars.contains(v) {
                    out.push(
                        Diagnostic::warning(
                            "GBC023",
                            format!(
                                "`{kw}` groups by `{}`, which does not appear in the head",
                                r.var_name(*v)
                            ),
                        )
                        .with_label(
                            r.spans
                                .as_ref()
                                .map(|s| s.literal_arg(li, 1 + gi))
                                .unwrap_or_else(|| r.literal_span(li)),
                            "group variable projected away",
                        )
                        .with_note(
                            "per-group winners are indistinguishable in the result when \
                             the group is not part of the head",
                        ),
                    );
                }
            }
        }
    }
}

/// GBC024: a predicate defined only by plain (meta-free) proper rules
/// that is never read by any rule body. Fact-only predicates are
/// exempt (they are EDB-style inputs), as are heads of rules using
/// `choice`/`next`/`least`/`most` (those are the program's answers).
fn lint_dead_predicates(program: &Program, out: &mut Vec<Diagnostic>) {
    let mut referenced: Vec<Symbol> = Vec::new();
    for r in &program.rules {
        for l in &r.body {
            if let Literal::Pos(a) | Literal::Neg(a) = l {
                if !referenced.contains(&a.pred) {
                    referenced.push(a.pred);
                }
            }
        }
    }
    // pred → (has proper rule, every defining proper rule is meta-free).
    let mut defined: HashMap<Symbol, bool> = HashMap::new();
    // A body-less rule is a non-ground fact (GBC004), exempt like any fact.
    for r in program.rules.iter().filter(|r| !r.is_fact()) {
        let meta_free = !r.body.iter().any(Literal::is_meta);
        defined
            .entry(r.head.pred)
            .and_modify(|all_plain| *all_plain &= meta_free)
            .or_insert(meta_free);
    }
    let mut dead: Vec<Symbol> = defined
        .into_iter()
        .filter(|&(p, plain)| plain && !referenced.contains(&p))
        .map(|(p, _)| p)
        .collect();
    dead.sort();
    for p in dead {
        let span = defining_span(program, p).expect("defined predicate has a rule");
        out.push(
            Diagnostic::warning("GBC024", format!("predicate `{p}` is defined but never used"))
                .with_label(span, "defined here")
                .with_help("remove the rule(s), or reference the predicate somewhere"),
        );
    }
}

/// GBC025: a named variable occurring exactly once in its rule. Usually
/// a typo (`I1` vs `I`); write `_` when the position is intentionally
/// unconstrained.
fn lint_singleton_vars(program: &Program, out: &mut Vec<Diagnostic>) {
    for r in &program.rules {
        let mut occurrences: Vec<VarId> = Vec::new();
        for t in &r.head.args {
            t.collect_vars(&mut occurrences);
        }
        for l in &r.body {
            l.collect_vars(&mut occurrences);
        }
        let mut counts: HashMap<VarId, usize> = HashMap::new();
        for v in &occurrences {
            *counts.entry(*v).or_insert(0) += 1;
        }
        let mut singles: Vec<VarId> = counts
            .into_iter()
            .filter(|&(v, n)| n == 1 && !r.var_name(v).starts_with('_'))
            .map(|(v, _)| v)
            .collect();
        singles.sort_by_key(|v| v.index());
        for v in singles {
            out.push(
                Diagnostic::warning(
                    "GBC025",
                    format!(
                        "variable `{}` occurs only once in rule for `{}`",
                        r.var_name(v),
                        r.head.pred
                    ),
                )
                .with_label(r.var_span(v), "appears only here")
                .with_help("use `_` if the value is intentionally ignored"),
            );
        }
    }
}

/// GBC026: a type conflict at an interpreted position — arithmetic
/// over a provably non-integer variable, or a comparison between two
/// concretely different shapes. Only concrete-vs-concrete mismatches
/// warn: `any` (unknown EDB data) stays silent.
fn lint_type_conflicts(program: &Program, types: &TypeInfo, out: &mut Vec<Diagnostic>) {
    for c in &types.conflicts {
        let r = &program.rules[c.rule];
        let span = match (c.var, c.lit) {
            (Some(v), _) => r.var_span(v),
            (None, Some(li)) => r.literal_span(li),
            (None, None) => r.span(),
        };
        out.push(
            Diagnostic::warning(
                "GBC026",
                format!("type conflict in rule for `{}`: {}", r.head.pred, c.message),
            )
            .with_label(span, "conflicting use here")
            .with_note(
                "column types are inferred from facts and rule heads to fixpoint; \
                 run `gbc analyze` to see them",
            ),
        );
    }
}

/// GBC027: a proper rule whose body is provably unsatisfiable — it
/// reads a provably-empty predicate or carries a constant-false
/// comparison.
fn lint_dead_rules(program: &Program, reach: &ReachInfo, out: &mut Vec<Diagnostic>) {
    for d in &reach.dead_rules {
        let r = &program.rules[d.rule];
        let span = d.lit.map(|li| r.literal_span(li)).unwrap_or_else(|| r.span());
        out.push(
            Diagnostic::warning(
                "GBC027",
                format!("rule for `{}` can never fire: {}", r.head.pred, d.reason),
            )
            .with_label(span, "unsatisfiable because of this")
            .with_help("the rule never derives anything; remove it or fix its body"),
        );
    }
}

/// GBC028: a predicate that is defined *and referenced* but never
/// (transitively) feeds a program answer — derivation work spent on it
/// is wasted. Disjoint from GBC024, which requires *unreferenced*.
fn lint_unreachable(program: &Program, reach: &ReachInfo, out: &mut Vec<Diagnostic>) {
    for &p in &reach.unreachable {
        let Some(span) = defining_span(program, p) else { continue };
        out.push(
            Diagnostic::warning("GBC028", format!("predicate `{p}` never feeds a program answer"))
                .with_label(span, "defined here")
                .with_note(format!(
                    "the program's answers are {}",
                    reach.roots.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(", ")
                ))
                .with_help("remove it, or route its facts into an answer predicate"),
        );
    }
}

/// GBC029: a head term at a predicate's stage position with a concrete
/// non-integer type. Stage numbers are minted by `next`; a non-integer
/// there fails the executor's stage scan at run time.
fn lint_stage_types(
    program: &Program,
    analysis: &Analysis,
    types: &TypeInfo,
    out: &mut Vec<Diagnostic>,
) {
    for r in &program.rules {
        let Some(&pos) = analysis.stages.stage_arg.get(&r.head.pred) else { continue };
        let Some(term) = r.head.args.get(pos) else { continue };
        let Some(env) = typeinfer::final_env(program, types, r) else { continue };
        let ty = typeinfer::head_term_type(&env, term);
        if ty.base.is_concrete() && ty.base != typeinfer::Base::Int {
            out.push(
                Diagnostic::warning(
                    "GBC029",
                    format!("head of `{}` carries `{ty}` at its stage position", r.head.pred),
                )
                .with_label(
                    r.spans.as_ref().map(|s| s.head_arg(pos)).unwrap_or_else(|| r.head_span()),
                    format!("inferred type `{ty}`"),
                )
                .with_note(
                    "stage numbers are minted by `next` and must be integers; anything \
                     else fails the executor's stage scan at run time",
                ),
            );
        }
    }
}

/// GBC030: an extremum whose cost is concretely typed but not provably
/// pure `int`. The extremum still works through the dictionary's value
/// order, but forfeits the decode-free `Int` cost heap.
fn lint_extremum_cost_types(program: &Program, types: &TypeInfo, out: &mut Vec<Diagnostic>) {
    for r in &program.rules {
        if !r.has_extrema() {
            continue;
        }
        let Some(env) = typeinfer::final_env(program, types, r) else { continue };
        for (li, lit) in r.body.iter().enumerate() {
            let (cost, kw) = match lit {
                Literal::Least { cost, .. } => (cost, "least"),
                Literal::Most { cost, .. } => (cost, "most"),
                _ => continue,
            };
            let ty = typeinfer::head_term_type(&env, cost);
            if ty.base.is_concrete() && !ty.is_int() {
                out.push(
                    Diagnostic::warning(
                        "GBC030",
                        format!(
                            "`{kw}` in rule for `{}` ranks by a cost of type `{ty}`, \
                             not provably `int`",
                            r.head.pred
                        ),
                    )
                    .with_label(
                        r.spans
                            .as_ref()
                            .map(|s| s.literal_arg(li, 0))
                            .unwrap_or_else(|| r.literal_span(li)),
                        format!("cost has type `{ty}`"),
                    )
                    .with_note(
                        "the extremum still works through the dictionary's value order, \
                         but forfeits the decode-free `Int` cost heap",
                    ),
                );
            }
        }
    }
}

/// GBC031: a comparison whose two sides are ground, so its outcome is
/// known at compile time. Always-true checks still run on every
/// evaluation; always-false ones kill their rule (see GBC027).
fn lint_const_comparisons(program: &Program, reach: &ReachInfo, out: &mut Vec<Diagnostic>) {
    for c in &reach.const_comparisons {
        let r = &program.rules[c.rule];
        let outcome = if c.value { "true" } else { "false" };
        let d = Diagnostic::warning(
            "GBC031",
            format!("comparison in rule for `{}` is always {outcome}", r.head.pred),
        )
        .with_label(r.literal_span(c.lit), format!("always {outcome}"));
        out.push(if c.value {
            d.with_help("the check still runs on every evaluation; remove it from the source")
        } else {
            d.with_help("the rule can never fire; remove it")
        });
    }
}

/// GBC032 (note): a `next` rule whose plan feeds its queue by column
/// ids alone ([`exec::NextPlan::is_fast_feed`]). The plans are the ones
/// [`crate::compile`] builds, so the note names exactly the rules `gbc
/// analyze` reports with `fast_feed`.
fn note_fast_feed(program: &Program, plans: &[exec::NextPlan], out: &mut Vec<Diagnostic>) {
    for plan in plans.iter().filter(|p| p.is_fast_feed()) {
        let r = &program.rules[plan.rule_idx];
        out.push(
            Diagnostic::note(
                "GBC032",
                format!("rule for `{}` feeds its queue without binding frames", r.head.pred),
            )
            .with_label(
                r.literal_span(plan.source_lit()),
                "rows stream into the queue by column ids alone",
            )
            .with_note(
                "every source argument and feed-gating comparison reduces to \
                 column reads and baked constants, so the planner skips \
                 per-row `Bindings` entirely and streams rows by id",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_parser::parse_program;

    fn codes(src: &str) -> Vec<&'static str> {
        let p = parse_program(src).unwrap();
        let mut codes: Vec<&'static str> =
            check_program(&p).diagnostics.iter().map(|d| d.code).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    #[test]
    fn clean_programs_produce_no_diagnostics() {
        let report = check_program(
            &parse_program(
                "prm(nil, a, 0, 0).
                 prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, I), choice(Y, X).
                 new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).",
            )
            .unwrap(),
        );
        assert_eq!(report.errors(), 0, "{:#?}", report.diagnostics);
        assert_eq!(report.warnings(), 0, "{:#?}", report.diagnostics);
        // The prim-style next rule earns the fast-feed note, nothing else.
        assert!(report.diagnostics.iter().all(|d| d.code == "GBC032"), "{:#?}", report.diagnostics);
        assert_eq!(report.analysis.class, ProgramClass::StageStratified { alternating: true });
    }

    #[test]
    fn arithmetic_over_symbols_warns_gbc026() {
        let cs = codes("p(a).\nr(Y, I) <- next(I), p(X), Y = X + 1, least(Y, I).");
        assert!(cs.contains(&"GBC026"), "{cs:?}");
    }

    #[test]
    fn provably_empty_body_warns_gbc027() {
        let cs = codes("a(X) <- b(X).\nb(X) <- a(X).\nseed(1).\nout(X) <- a(X), seed(X).");
        assert!(cs.contains(&"GBC027"), "{cs:?}");
    }

    #[test]
    fn predicate_off_the_answer_path_warns_gbc028() {
        let cs = codes(
            "src(1). src(2).
             out(X, I) <- next(I), src(X), least(X, I).
             helper(X) <- src(X), X > 1.
             aux(X) <- helper(X).",
        );
        assert!(cs.contains(&"GBC028"), "{cs:?}");
    }

    #[test]
    fn non_integer_stage_position_warns_gbc029() {
        let cs = codes(
            "seed(0). src(1).
             h(X, I) <- next(I), src(X), least(X, I).
             h(X, first) <- seed(X).",
        );
        assert!(cs.contains(&"GBC029"), "{cs:?}");
    }

    #[test]
    fn symbolic_extremum_cost_warns_gbc030() {
        let cs = codes(
            "item(apple). item(banana).
             pick(X, I) <- next(I), item(X), least(X, I).",
        );
        assert!(cs.contains(&"GBC030"), "{cs:?}");
        // An integer cost is silent.
        let clean = codes(
            "item(a, 3). item(b, 1).
             pick(X, C, I) <- next(I), item(X, C), least(C, I).",
        );
        assert!(!clean.contains(&"GBC030"), "{clean:?}");
    }

    #[test]
    fn constant_comparison_warns_gbc031() {
        let cs = codes(
            "p(1). p(2).
             q(X, I) <- next(I), p(X), 1 < 2, least(X, I).",
        );
        assert!(cs.contains(&"GBC031"), "{cs:?}");
    }

    #[test]
    fn fast_feed_eligibility_notes_gbc032() {
        let noted = codes(
            "p(pear, 30). p(apple, 10).
             sp(X, C, I) <- next(I), p(X, C), least(C, I).",
        );
        assert!(noted.contains(&"GBC032"), "{noted:?}");
        // Stage-free comparisons over source columns and constants
        // compile to columnar checks — still bindings-free.
        let precheck = codes(
            "p(pear, 30). p(apple, 10).
             sp(X, C, I) <- next(I), p(X, C), C > 15, least(C, I).",
        );
        assert!(precheck.contains(&"GBC032"), "{precheck:?}");
        // Arithmetic over a source variable needs a binding frame: the
        // note stays silent.
        let silent = codes(
            "p(pear, 30). p(apple, 10).
             sp(X, C, I) <- next(I), p(X, C), C + 1 > 15, least(C, I).",
        );
        assert!(!silent.contains(&"GBC032"), "{silent:?}");
    }

    #[test]
    fn unstratified_negation_is_gbc010_with_trace() {
        let p = parse_program("win(X) <- move(X, Y), not win(Y).").unwrap();
        let report = check_program(&p);
        let d = report.diagnostics.iter().find(|d| d.code == "GBC010").expect("GBC010");
        assert_eq!(d.severity, gbc_ast::Severity::Error);
        assert!(d.notes.iter().any(|n| n.contains("win → win")), "{:?}", d.notes);
    }

    #[test]
    fn missing_guard_warns_gbc015() {
        assert!(codes(
            "prm(nil, a, 0, 0).
             prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), least(C, I), choice(Y, X).
             new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C)."
        )
        .contains(&"GBC015"));
    }

    #[test]
    fn papers_least_underscore_counterexample_warns_gbc016() {
        // least(C, X) groups by a non-stage variable.
        assert!(codes(
            "prm(nil, a, 0, 0).
             prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, X), choice(Y, X).
             new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C)."
        )
        .contains(&"GBC016"));
    }

    #[test]
    fn choice_over_constants_warns_gbc021() {
        assert!(codes("p(X, I) <- next(I), q(X), choice(a, X).").contains(&"GBC021"));
    }

    #[test]
    fn stage_cost_warns_gbc022() {
        assert!(codes("sp(X, I) <- next(I), p(X), least(I).").contains(&"GBC022"));
    }

    #[test]
    fn projected_group_warns_gbc023() {
        assert!(codes("sp(C, I) <- next(I), p(X, C), least(C, (X, I)).").contains(&"GBC023"));
    }

    #[test]
    fn dead_predicate_warns_gbc024_but_facts_are_exempt() {
        let cs = codes("e(a, b).\ntc(X, Y) <- e(X, Y).");
        assert!(cs.contains(&"GBC024"), "{cs:?}"); // tc unused
        let clean = codes("e(a, b).\ntc(X, Y) <- e(X, Y), least(Y).");
        assert!(!clean.contains(&"GBC024"), "{clean:?}"); // extremum head = answer
    }

    #[test]
    fn singleton_variable_warns_gbc025() {
        let cs = codes("p(X) <- q(X, Y), least(X).");
        assert!(cs.contains(&"GBC025"), "{cs:?}");
        let clean = codes("p(X) <- q(X, _), least(X).");
        assert!(!clean.contains(&"GBC025"), "{clean:?}");
    }

    #[test]
    fn validation_failures_are_collected_not_fatal() {
        // Arity clash + unsafe variable in one pass.
        let cs = codes("p(a).\np(a, b).\nq(X) <- r(Y).");
        assert!(cs.contains(&"GBC002"), "{cs:?}");
        assert!(cs.contains(&"GBC003"), "{cs:?}");
    }
}
