//! The `gbc analyze` report: one deterministic bundle of everything the
//! whole-program analyses (`typeinfer`, `reachability`, plan building)
//! concluded about a program, renderable as text or JSON.
//!
//! The JSON form is golden-tested by CI (`ci-analyze` sweeps every
//! shipped program against a committed report), so its field set and
//! ordering are part of the tool's compatibility surface — bump
//! [`ANALYSIS_SCHEMA_VERSION`] on any incompatible change.

use gbc_ast::{Program, Symbol};
use gbc_telemetry::json::Json;

use crate::analysis::reachability::{self, ReachInfo};
use crate::analysis::typeinfer::{self, TypeInfo};
use crate::analysis::ProgramClass;
use crate::exec::NextPlan;

/// Bumped whenever the shape of [`AnalyzeReport::to_json`]'s output
/// changes incompatibly; consumers should check it before reading
/// other fields.
pub const ANALYSIS_SCHEMA_VERSION: u64 = 1;

/// Static facts about one greedy (next-rule) plan.
#[derive(Clone, Debug)]
pub struct PlanFacts {
    /// Rule index in the original program.
    pub rule: usize,
    /// Head predicate.
    pub head: Symbol,
    /// Source predicate feeding `Q_r`.
    pub source: Symbol,
    /// Source column of the extremum cost, if any.
    pub cost_col: Option<usize>,
    /// The cost column is proved `int`: every heap compare of the rule
    /// reads inline `i64`s instead of the dictionary.
    pub int_cost: bool,
    /// The feed loop can skip per-row `Bindings` (the GBC032 shape).
    pub fast_feed: bool,
    /// `most` rule (descending retrieval).
    pub descending: bool,
    /// Chain mode (`I = J + 1`).
    pub chain: bool,
}

/// The full analysis bundle for one program.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// Program-class summary string (see `ProgramClass::summary`).
    pub class: String,
    /// Column types, external predicates, conflicts.
    pub types: TypeInfo,
    /// Reachability, emptiness, dead rules, constant comparisons.
    pub reach: ReachInfo,
    /// Per-greedy-plan specializations (empty when no plan exists).
    pub plans: Vec<PlanFacts>,
}

/// Run both whole-program analyses and collect the plan facts.
pub fn analyze_program(
    program: &Program,
    class: &ProgramClass,
    plans: &[NextPlan],
) -> AnalyzeReport {
    let types = typeinfer::infer(program);
    let reach = reachability::analyze(program);
    let plans = plans
        .iter()
        .map(|p| {
            let cost_col = p.cost_col();
            PlanFacts {
                rule: p.rule_idx,
                head: p.head_pred(),
                source: p.source_pred(),
                cost_col,
                int_cost: cost_col.is_some_and(|c| types.col_is_int(p.source_pred(), c)),
                fast_feed: p.is_fast_feed(),
                descending: p.is_descending(),
                chain: p.chain,
            }
        })
        .collect();
    AnalyzeReport { class: class.summary(), types, reach, plans }
}

impl AnalyzeReport {
    /// Predicate names in deterministic (lexical) order.
    fn pred_names(&self) -> Vec<Symbol> {
        let mut names: Vec<Symbol> = self.types.cols.keys().copied().collect();
        names.sort_by_key(|s| s.to_string());
        names
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        let preds = self
            .pred_names()
            .into_iter()
            .map(|name| {
                let cols = &self.types.cols[&name];
                Json::obj(vec![
                    ("name", Json::Str(name.to_string())),
                    ("cols", Json::Arr(cols.iter().map(|t| Json::Str(t.to_string())).collect())),
                    ("external", Json::Bool(self.types.external.contains(&name))),
                    ("reachable", Json::Bool(self.reach.reachable.contains(&name))),
                    ("empty", Json::Bool(self.reach.empty.contains(&name))),
                ])
            })
            .collect();
        let sym_arr = |syms: &[Symbol]| {
            let mut names: Vec<String> = syms.iter().map(|s| s.to_string()).collect();
            names.sort();
            Json::Arr(names.into_iter().map(Json::Str).collect())
        };
        let conflicts = self
            .types
            .conflicts
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("rule", Json::UInt(c.rule as u64)),
                    ("message", Json::Str(c.message.clone())),
                ])
            })
            .collect();
        let dead = self
            .reach
            .dead_rules
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("rule", Json::UInt(d.rule as u64)),
                    ("reason", Json::Str(d.reason.clone())),
                ])
            })
            .collect();
        let consts = self
            .reach
            .const_comparisons
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("rule", Json::UInt(c.rule as u64)),
                    ("lit", Json::UInt(c.lit as u64)),
                    ("value", Json::Bool(c.value)),
                ])
            })
            .collect();
        let plans = self
            .plans
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("rule", Json::UInt(p.rule as u64)),
                    ("head", Json::Str(p.head.to_string())),
                    ("source", Json::Str(p.source.to_string())),
                    ("cost_col", p.cost_col.map_or(Json::Null, |c| Json::UInt(c as u64))),
                    ("int_cost", Json::Bool(p.int_cost)),
                    ("fast_feed", Json::Bool(p.fast_feed)),
                    ("descending", Json::Bool(p.descending)),
                    ("chain", Json::Bool(p.chain)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::UInt(ANALYSIS_SCHEMA_VERSION)),
            ("class", Json::Str(self.class.clone())),
            ("predicates", Json::Arr(preds)),
            ("roots", sym_arr(&self.reach.roots)),
            ("unreachable", sym_arr(&self.reach.unreachable)),
            ("conflicts", Json::Arr(conflicts)),
            ("dead_rules", Json::Arr(dead)),
            ("const_comparisons", Json::Arr(consts)),
            ("plans", Json::Arr(plans)),
        ])
    }

    /// Human-readable multi-line rendering (the default `gbc analyze`
    /// output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("class: {}\n", self.class));
        out.push_str("predicates:\n");
        for name in self.pred_names() {
            let cols = &self.types.cols[&name];
            let tys: Vec<String> = cols.iter().map(|t| t.to_string()).collect();
            let mut marks = Vec::new();
            if self.types.external.contains(&name) {
                marks.push("external");
            }
            if !self.reach.reachable.contains(&name) {
                marks.push("unreachable");
            }
            if self.reach.empty.contains(&name) {
                marks.push("provably-empty");
            }
            let suffix =
                if marks.is_empty() { String::new() } else { format!("  [{}]", marks.join(", ")) };
            out.push_str(&format!("  {}/{}: {}{}\n", name, cols.len(), tys.join(", "), suffix));
        }
        if !self.types.conflicts.is_empty() {
            out.push_str("type conflicts:\n");
            for c in &self.types.conflicts {
                out.push_str(&format!("  rule {}: {}\n", c.rule, c.message));
            }
        }
        if !self.reach.dead_rules.is_empty() {
            out.push_str("dead rules:\n");
            for d in &self.reach.dead_rules {
                out.push_str(&format!("  rule {}: {}\n", d.rule, d.reason));
            }
        }
        if !self.reach.const_comparisons.is_empty() {
            out.push_str("constant comparisons:\n");
            for c in &self.reach.const_comparisons {
                out.push_str(&format!("  rule {} literal {}: always {}\n", c.rule, c.lit, c.value));
            }
        }
        if self.plans.is_empty() {
            out.push_str("greedy plans: none\n");
        } else {
            out.push_str("greedy plans:\n");
            for p in &self.plans {
                let cost = match p.cost_col {
                    Some(c) if p.int_cost => format!("cost col {c} (int fast path)"),
                    Some(c) => format!("cost col {c} (generic)"),
                    None => "no cost".to_owned(),
                };
                let mut marks = Vec::new();
                if p.fast_feed {
                    marks.push("fast-feed");
                }
                if p.descending {
                    marks.push("descending");
                }
                if p.chain {
                    marks.push("chain");
                }
                let suffix = if marks.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", marks.join(", "))
                };
                out.push_str(&format!(
                    "  rule {}: {} <- {}, {}{}\n",
                    p.rule, p.head, p.source, cost, suffix
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::classify;

    fn report(src: &str) -> AnalyzeReport {
        let program = gbc_parser::parse_program(src).unwrap();
        let compiled = crate::compile(program).unwrap();
        compiled.analyze_report()
    }

    #[test]
    fn report_covers_types_reachability_and_plans() {
        let r = report(
            "p(a, 1). p(b, 2).
             s(nil, 0).
             s(X, I) <- next(I), p(X, C), least(C, I).",
        );
        assert!(r.class.contains("StageStratified"));
        assert_eq!(r.plans.len(), 1);
        let plan = &r.plans[0];
        assert!(plan.int_cost, "cost column is all-int facts: {plan:?}");
        assert!(plan.fast_feed);
        assert!(!plan.descending);
        let json = r.to_json().to_string();
        for key in ["schema_version", "predicates", "dead_rules", "plans", "\"int_cost\":true"] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let text = r.render();
        assert!(text.contains("int fast path"), "{text}");
        assert!(text.contains("fast-feed"), "{text}");
    }

    #[test]
    fn report_flags_dead_rules_and_unreachable_predicates() {
        let r = report(
            "src(1).
             out(X, I) <- next(I), src(X), least(X, I).
             ghost(X) <- phantom(X), missing(X).
             phantom(X) <- ghost(X).
             helper(X) <- src(X).
             aux(X) <- helper(X).",
        );
        assert!(!r.reach.dead_rules.is_empty(), "{:?}", r.reach.dead_rules);
        assert!(!r.reach.unreachable.is_empty());
        let json = r.to_json().to_string();
        assert!(json.contains("\"dead_rules\":[{"), "{json}");
    }

    #[test]
    fn json_is_deterministic() {
        let src = "p(a, 1). s(nil, 0). s(X, I) <- next(I), p(X, C), least(C, I).";
        let a = report(src).to_json().to_string();
        let b = report(src).to_json().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn classify_is_reused_for_the_class_line() {
        let program = gbc_parser::parse_program("e(X) <- f(X).").unwrap();
        let analysis = classify(&program);
        let compiled = crate::compile(program).unwrap();
        assert_eq!(compiled.analyze_report().class, analysis.class.summary());
    }
}
