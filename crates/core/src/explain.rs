//! `gbc explain` — derivation trees from recorded provenance.
//!
//! Given a computed model, the [`gbc_storage::ProvenanceArena`] the run
//! populated, and an atom pattern, [`explain_atom`] prints why each
//! matching fact is in the model: the rule that fired it (cited by
//! source span), the γ step at which it committed, the functional-
//! dependency pairs its choice goals locked in, the `diffChoice`
//! alternatives that lost against those commitments, and — recursively
//! — the parent facts the firing joined over, down to program facts and
//! EDB input.
//!
//! The pattern is a synthetic single-literal query rule (the CLI parses
//! `query <- ATOM.`); `_` wildcards and repeated variables work exactly
//! as they do in a rule body.

use std::fmt::Write as _;

use gbc_ast::{Literal, Program, Rule, SourceMap, Span, Symbol, Value};
use gbc_engine::bindings::Bindings;
use gbc_engine::eval::match_term;
use gbc_storage::{ChoiceCommit, ChoiceRejection, Database, ProvenanceArena, Row, NO_GOAL};

/// Cycle/depth guard: provenance is acyclic by construction (parents
/// are interned before their children commit), but a cap keeps a
/// corrupted arena from recursing forever.
const MAX_DEPTH: usize = 32;

/// Explain every fact of `db` matching the single positive atom in
/// `query`'s body. Returns the rendered tree, or an error when the
/// query is malformed or matches nothing.
pub fn explain_atom(
    program: &Program,
    sm: &SourceMap,
    db: &Database,
    arena: &ProvenanceArena,
    query: &Rule,
) -> Result<String, String> {
    let pattern = match query.body.as_slice() {
        [Literal::Pos(atom)] => atom,
        _ => return Err("the query must be a single positive atom".into()),
    };
    let mut matches = Vec::new();
    for row in db.facts_of(pattern.pred) {
        let mut b = Bindings::new(query.num_vars());
        let mut trail = Vec::new();
        let ok = row.arity() == pattern.args.len()
            && pattern
                .args
                .iter()
                .zip(row.iter())
                .all(|(t, v)| match_term(t, v, &mut b, &mut trail));
        if ok {
            matches.push(row);
        }
    }
    if matches.is_empty() {
        return Err(format!(
            "no fact matching `{}` in the computed model ({} `{}` fact(s) present)",
            pattern,
            db.count(pattern.pred),
            pattern.pred
        ));
    }
    let mut ex = Explainer {
        program,
        sm,
        arena,
        commits: arena.commits(),
        rejections: arena.rejections(),
        out: String::new(),
    };
    for (i, row) in matches.iter().enumerate() {
        if i > 0 {
            ex.out.push('\n');
        }
        ex.render_root(pattern.pred, row);
    }
    Ok(ex.out)
}

struct Explainer<'a> {
    program: &'a Program,
    sm: &'a SourceMap,
    arena: &'a ProvenanceArena,
    commits: Vec<ChoiceCommit>,
    rejections: Vec<ChoiceRejection>,
    out: String,
}

/// `pred(v1,v2,…)`.
fn label(pred: Symbol, row: &Row) -> String {
    format!("{pred}{row}")
}

/// `(v1,v2,…)` for FD tuples.
fn tuple(vals: &[Value]) -> String {
    let inner: Vec<String> = vals.iter().map(Value::to_string).collect();
    format!("({})", inner.join(","))
}

impl Explainer<'_> {
    fn render_root(&mut self, pred: Symbol, row: &Row) {
        let _ = writeln!(self.out, "{}", label(pred, row));
        let mut path = Vec::new();
        self.render_origin(pred, row, "", &mut path);
    }

    /// Where a rule lives in the source: `file:line:col`.
    fn cite(&self, rule_idx: usize) -> String {
        self.cite_span(self.program.rules[rule_idx].span())
    }

    /// Where a span starts in the source: `file:line:col`.
    fn cite_span(&self, span: Span) -> String {
        match self.sm.locate(span.start) {
            Some(loc) => format!("{}:{}:{}", loc.file, loc.line, loc.col),
            None => "<no source>".into(),
        }
    }

    /// The source line a rule starts on, trimmed, for the snippet line.
    fn snippet(&self, rule_idx: usize) -> Option<String> {
        let span = self.program.rules[rule_idx].span();
        if span.is_dummy() {
            return None;
        }
        let loc = self.sm.locate(span.start)?;
        Some(loc.line_text.trim().to_owned())
    }

    /// Emit the subtree under an already-labelled fact: its derivation
    /// (rule, step, choice audit, parents) or its fact/EDB origin.
    fn render_origin(&mut self, pred: Symbol, row: &Row, prefix: &str, path: &mut Vec<u32>) {
        let id = self.arena.lookup(pred, row);
        let derivation = id.and_then(|id| self.arena.derivation(id));
        let Some(d) = derivation else {
            let _ = writeln!(self.out, "{prefix}└─ {}", self.fact_origin(pred, row));
            return;
        };
        let id = id.expect("derivation implies id");
        if path.contains(&id) || path.len() >= MAX_DEPTH {
            let _ = writeln!(self.out, "{prefix}└─ … (derivation cycle or depth limit)");
            return;
        }
        path.push(id);

        let step = if d.step > 0 { format!(", γ step {}", d.step) } else { String::new() };
        let _ = writeln!(self.out, "{prefix}└─ by rule #{} at {}{step}", d.rule, self.cite(d.rule));
        let inner = format!("{prefix}   ");
        if let Some(text) = self.snippet(d.rule) {
            let _ = writeln!(self.out, "{inner}│ {text}");
        }
        self.render_choice_audit(d.rule, id, &inner);

        let parents = d.parents.clone();
        for (i, pid) in parents.iter().enumerate() {
            let last = i + 1 == parents.len();
            let Some((ppred, prow)) = self.arena.row(*pid) else { continue };
            let connector = if last { "└─" } else { "├─" };
            let _ = writeln!(self.out, "{inner}{connector} {}", label(ppred, &prow));
            let child_prefix = format!("{inner}{}", if last { "   " } else { "│  " });
            self.render_origin(ppred, &prow, &child_prefix, path);
        }
        path.pop();
    }

    /// The committed FD pairs of the γ step that fired `id`, plus every
    /// rejected alternative that lost against one of those commitments.
    fn render_choice_audit(&mut self, rule_idx: usize, id: u32, prefix: &str) {
        let Some(commit) = self.commits.iter().find(|c| c.row == id).cloned() else {
            return;
        };
        for (gi, (l, r)) in commit.pairs.iter().enumerate() {
            let _ = writeln!(
                self.out,
                "{prefix}│ chose {} → {}  [choice goal {gi}]",
                tuple(l),
                tuple(r)
            );
        }
        let losers: Vec<ChoiceRejection> = self
            .rejections
            .iter()
            .filter(|rej| {
                rej.goal != NO_GOAL
                    && commit
                        .pairs
                        .get(rej.goal)
                        .is_some_and(|(l, r)| *l == rej.left && *r == rej.committed)
            })
            .cloned()
            .collect();
        for rej in losers {
            let loser = self
                .arena
                .row(rej.row)
                .map(|(p, r)| label(p, &r))
                .unwrap_or_else(|| "<unknown>".into());
            let _ = writeln!(
                self.out,
                "{prefix}│ rejected {loser}: {} wanted {} → {}, lost to {}  \
                 [rule #{} at {}]",
                rej.reason,
                tuple(&rej.left),
                tuple(&rej.attempted),
                tuple(&rej.committed),
                rej.rule,
                self.cite(rej.rule),
            );
        }
        // Non-FD rejections of the same rule (stale stages, stage
        // reuse) are decision-point noise rather than alternatives to
        // *this* fact; summarise rather than listing each.
        let other = self
            .rejections
            .iter()
            .filter(|rej| rej.rule == rule_idx && rej.goal == NO_GOAL)
            .count();
        if other > 0 {
            let _ = writeln!(
                self.out,
                "{prefix}│ ({other} candidate(s) of rule #{rule_idx} discarded on stage guards)"
            );
        }
    }

    /// A fact with no derivation record: either a program fact (cite
    /// its span) or EDB input.
    fn fact_origin(&self, pred: Symbol, row: &Row) -> String {
        let fact = self.program.facts().find(|&(p, args, _)| {
            p == pred && args.len() == row.arity() && args.iter().eq(row.iter())
        });
        match fact {
            Some((_, _, span)) => format!("program fact at {}", self.cite_span(span)),
            None => "input fact (EDB)".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use gbc_parser::{parse_program, parse_rule};

    /// Sorting program over an inline EDB: greedy path with provenance.
    fn sorted_run() -> (Program, SourceMap, Database, std::sync::Arc<ProvenanceArena>) {
        let src = "sorted(nil, 0, 0).\n\
                   sorted(X, C, I) <- next(I), item(X, C), least(C, I).\n";
        let sm = SourceMap::single("sort.dl", src);
        let program = parse_program(&sm.source()).unwrap();
        let compiled = compile(program.clone()).unwrap();
        let mut edb = Database::new();
        for (x, c) in [("b", 30), ("a", 10), ("c", 20)] {
            edb.insert_values("item", vec![Value::sym(x), Value::int(c)]);
        }
        let arena = ProvenanceArena::shared();
        edb.set_provenance(std::sync::Arc::clone(&arena));
        let run = compiled.run(&edb).unwrap();
        (program, sm, run.db, arena)
    }

    fn query(atom: &str) -> Rule {
        parse_rule(&format!("query <- {atom}.")).unwrap()
    }

    #[test]
    fn explains_a_derived_fact_with_rule_and_parent() {
        let (program, sm, db, arena) = sorted_run();
        let out = explain_atom(&program, &sm, &db, &arena, &query("sorted(a, 10, 1)")).unwrap();
        assert!(out.starts_with("sorted(a,10,1)"), "{out}");
        assert!(out.contains("by rule #0 at sort.dl:2:1"), "{out}");
        assert!(out.contains("item(a,10)"), "{out}");
        assert!(out.contains("input fact (EDB)"), "{out}");
        assert!(out.contains("γ step 1"), "{out}");
    }

    #[test]
    fn explains_program_facts_by_their_span() {
        let (program, sm, db, arena) = sorted_run();
        let out = explain_atom(&program, &sm, &db, &arena, &query("sorted(nil, 0, 0)")).unwrap();
        assert!(out.contains("program fact at sort.dl:1:1"), "{out}");
    }

    #[test]
    fn wildcards_match_multiple_facts() {
        let (program, sm, db, arena) = sorted_run();
        let out = explain_atom(&program, &sm, &db, &arena, &query("sorted(X, C, I)")).unwrap();
        // Exit fact + three ranked items, each with its own tree.
        let roots = out.lines().filter(|l| l.starts_with("sorted(")).count();
        assert_eq!(roots, 4, "{out}");
    }

    #[test]
    fn unmatched_pattern_is_an_error() {
        let (program, sm, db, arena) = sorted_run();
        let err = explain_atom(&program, &sm, &db, &arena, &query("sorted(z, 1, 9)")).unwrap_err();
        assert!(err.contains("no fact matching"), "{err}");
    }

    #[test]
    fn non_atom_queries_are_rejected() {
        let (program, sm, db, arena) = sorted_run();
        let q = parse_rule("query <- item(X, C), least(C).").unwrap();
        let err = explain_atom(&program, &sm, &db, &arena, &q).unwrap_err();
        assert!(err.contains("single positive atom"), "{err}");
    }
}
