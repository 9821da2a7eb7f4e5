//! Whole-program column type inference.
//!
//! An abstract interpretation over a small lattice of column types,
//! propagated from facts and rule heads to fixpoint. Each predicate
//! column gets a [`ColType`]: a [`Base`] shape (`Int`, `Sym`, `Str`, a
//! functor shape, `Any` = ⊤ or `Never` = ⊥) plus a nullability bit for
//! the paper's pervasive `nil` sentinel (exit facts like
//! `prm(nil, 0, 0, 0)`).
//!
//! The results are static facts about the program text: they anchor
//! the GBC026/GBC029/GBC030 diagnostics and the `int_cost` field of the
//! `gbc analyze` report. The executor consumes none of them. Only
//! in-program facts seed the lattice; referenced-but-undefined
//! predicates are EDB inputs and type `any`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use gbc_ast::literal::{CmpOp, Literal};
use gbc_ast::term::{Expr, Term, VarId};
use gbc_ast::value::Value;
use gbc_ast::{Program, Rule, Symbol};

/// The base shape of a column type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Base {
    /// ⊥ — no value observed (or only `nil`, when paired with
    /// `nullable`).
    Never,
    /// 64-bit integers: costs, grades, stage numbers.
    Int,
    /// Symbolic constants.
    Sym,
    /// String literals.
    Str,
    /// Ground functor terms with this symbol and arity, e.g. the
    /// Huffman constructor `t/2`.
    Func(Symbol, usize),
    /// ⊤ — mixed or unknown.
    Any,
}

impl Base {
    /// Concrete bases are the ones between ⊥ and ⊤.
    pub fn is_concrete(self) -> bool {
        !matches!(self, Base::Never | Base::Any)
    }
}

/// A column type: base shape plus whether `nil` may also appear.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColType {
    /// Shape of the non-`nil` values.
    pub base: Base,
    /// True when `nil` may occur in the column.
    pub nullable: bool,
}

impl ColType {
    /// ⊥: nothing flows here.
    pub const NEVER: ColType = ColType { base: Base::Never, nullable: false };
    /// ⊤: anything may flow here.
    pub const ANY: ColType = ColType { base: Base::Any, nullable: true };
    /// Non-nullable integer: a cost column of this type compares
    /// inline in the heap.
    pub const INT: ColType = ColType { base: Base::Int, nullable: false };

    /// The type of a single ground value.
    pub fn of_value(v: &Value) -> ColType {
        match v {
            Value::Nil => ColType { base: Base::Never, nullable: true },
            Value::Int(_) => ColType::INT,
            Value::Sym(_) => ColType { base: Base::Sym, nullable: false },
            Value::Str(_) => ColType { base: Base::Str, nullable: false },
            Value::Func(f, args) => ColType { base: Base::Func(*f, args.len()), nullable: false },
        }
    }

    /// Least upper bound (used when rule heads flow into columns).
    pub fn join(self, other: ColType) -> ColType {
        let base = match (self.base, other.base) {
            (Base::Never, b) | (b, Base::Never) => b,
            (a, b) if a == b => a,
            _ => Base::Any,
        };
        ColType { base, nullable: self.nullable || other.nullable }
    }

    /// Greatest lower bound (used when a variable occurs in several
    /// body positions: it can only bind values in the intersection).
    pub fn meet(self, other: ColType) -> ColType {
        let base = match (self.base, other.base) {
            (Base::Any, b) | (b, Base::Any) => b,
            (a, b) if a == b => a,
            _ => Base::Never,
        };
        ColType { base, nullable: self.nullable && other.nullable }
    }

    /// True when the column is proved pure non-nullable `Int`.
    pub fn is_int(self) -> bool {
        self.base == Base::Int && !self.nullable
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.base {
            Base::Never if self.nullable => return f.write_str("nil"),
            Base::Never => return f.write_str("never"),
            Base::Int => f.write_str("int")?,
            Base::Sym => f.write_str("sym")?,
            Base::Str => f.write_str("str")?,
            Base::Func(name, arity) => write!(f, "functor:{name}/{arity}")?,
            Base::Any => return f.write_str("any"),
        }
        if self.nullable {
            f.write_str("?")?;
        }
        Ok(())
    }
}

/// A type conflict at an interpreted position (anchors GBC026).
#[derive(Clone, Debug)]
pub struct TypeConflict {
    /// Index of the offending rule in `program.rules`.
    pub rule: usize,
    /// Body literal index, when the conflict anchors to one.
    pub lit: Option<usize>,
    /// The variable involved, when the conflict anchors to one.
    pub var: Option<VarId>,
    /// Human-readable description.
    pub message: String,
}

/// Result of whole-program type inference.
#[derive(Clone, Debug, Default)]
pub struct TypeInfo {
    /// Inferred column types, keyed by predicate, for every predicate
    /// that can hold facts (fact-defined or rule-defined).
    pub cols: BTreeMap<Symbol, Vec<ColType>>,
    /// Referenced predicates with no defining rule: EDB inputs supplied
    /// at run time; their columns are `any`.
    pub external: Vec<Symbol>,
    /// Conflicts at interpreted positions (comparisons, arithmetic).
    pub conflicts: Vec<TypeConflict>,
}

impl TypeInfo {
    /// True when `pred`'s column `col` is proved pure non-nullable `Int`.
    pub fn col_is_int(&self, pred: Symbol, col: usize) -> bool {
        self.cols.get(&pred).and_then(|c| c.get(col)).is_some_and(|t| t.is_int())
    }

    /// The inferred type of a column, `ANY` when unknown.
    pub fn col_type(&self, pred: Symbol, col: usize) -> ColType {
        self.cols.get(&pred).and_then(|c| c.get(col)).copied().unwrap_or(ColType::ANY)
    }
}

/// Every predicate a rule head or a fact defines.
fn defined_preds(program: &Program) -> BTreeSet<Symbol> {
    program.rules.iter().map(|r| r.head.pred).chain(program.fact_predicates()).collect()
}

/// Infer column types; seeds come only from in-program facts.
pub fn infer(program: &Program) -> TypeInfo {
    let defined = defined_preds(program);
    let mut referenced: BTreeSet<Symbol> = BTreeSet::new();
    for rule in &program.rules {
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                referenced.insert(a.pred);
            }
        }
    }
    let external: Vec<Symbol> =
        referenced.iter().filter(|p| !defined.contains(p)).copied().collect();

    let mut cols: BTreeMap<Symbol, Vec<ColType>> = BTreeMap::new();
    for g in program.facts.groups() {
        let entry = cols.entry(g.pred()).or_insert_with(|| vec![ColType::NEVER; g.arity()]);
        if entry.len() < g.arity() {
            entry.resize(g.arity(), ColType::NEVER);
        }
        for (row, _) in g.rows() {
            for (col, v) in entry.iter_mut().zip(row) {
                *col = col.join(ColType::of_value(v));
            }
        }
    }
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let Some(env) = rule_env(rule, &cols, &defined, true) else { continue };
            let arity = rule.head.arity();
            let entry = cols.entry(rule.head.pred).or_insert_with(|| vec![ColType::NEVER; arity]);
            if entry.len() < arity {
                entry.resize(arity, ColType::NEVER);
            }
            for (i, t) in rule.head.args.iter().enumerate() {
                let ty = type_of_term(t, &env);
                let joined = entry[i].join(ty);
                if joined != entry[i] {
                    entry[i] = joined;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut conflicts = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        check_rule(ri, rule, &cols, &defined, &mut conflicts);
    }

    TypeInfo { cols, external, conflicts }
}

/// The per-rule variable environment under the current column map:
/// the meet over all positive-atom occurrences, `next(I)` (stage
/// variables are integers by construction), `=`-assignments, and
/// arithmetic operands. Returns `None` while some positive body atom
/// reads a defined predicate that has derived no facts yet — such a
/// rule contributes nothing this round (and never will, if the
/// predicate is provably empty).
fn rule_env(
    rule: &Rule,
    cols: &BTreeMap<Symbol, Vec<ColType>>,
    defined: &BTreeSet<Symbol>,
    refine: bool,
) -> Option<Vec<ColType>> {
    let mut env = vec![ColType::ANY; rule.num_vars()];
    for lit in &rule.body {
        match lit {
            Literal::Pos(a) => {
                let Some(tys) = cols.get(&a.pred) else {
                    if defined.contains(&a.pred) {
                        return None; // defined but empty so far
                    }
                    continue; // external: columns are `any`
                };
                for (i, t) in a.args.iter().enumerate() {
                    if let Term::Var(v) = t {
                        let col = tys.get(i).copied().unwrap_or(ColType::ANY);
                        env[v.index()] = env[v.index()].meet(col);
                    }
                }
            }
            Literal::Next { var } => {
                env[var.index()] = env[var.index()].meet(ColType::INT);
            }
            _ => {}
        }
    }
    if !refine {
        return Some(env);
    }
    // `=`-assignments and arithmetic refine types; iterate because
    // assignment chains (`I = J, J = K + 1`) resolve in any order. The
    // lattice is tiny, so this converges in a handful of rounds.
    loop {
        let mut changed = false;
        for lit in &rule.body {
            let Literal::Compare { op, lhs, rhs } = lit else { continue };
            for e in [lhs, rhs] {
                if e.has_arith() {
                    for v in e.vars() {
                        changed |= meet_env(&mut env, v, ColType::INT);
                    }
                }
            }
            if *op == CmpOp::Eq {
                if let Some(Term::Var(v)) = lhs.as_bare_term() {
                    let ty = type_of_expr(rhs, &env);
                    changed |= meet_env(&mut env, *v, ty);
                }
                if let Some(Term::Var(v)) = rhs.as_bare_term() {
                    let ty = type_of_expr(lhs, &env);
                    changed |= meet_env(&mut env, *v, ty);
                }
            }
        }
        if !changed {
            break;
        }
    }
    Some(env)
}

fn meet_env(env: &mut [ColType], v: VarId, ty: ColType) -> bool {
    let met = env[v.index()].meet(ty);
    if met != env[v.index()] {
        env[v.index()] = met;
        true
    } else {
        false
    }
}

fn type_of_term(t: &Term, env: &[ColType]) -> ColType {
    match t {
        Term::Var(v) => env.get(v.index()).copied().unwrap_or(ColType::ANY),
        Term::Const(v) => ColType::of_value(v),
        Term::Func(f, args) => ColType { base: Base::Func(*f, args.len()), nullable: false },
    }
}

fn type_of_expr(e: &Expr, env: &[ColType]) -> ColType {
    match e {
        Expr::Term(t) => type_of_term(t, env),
        // Arithmetic always produces an integer.
        Expr::Binary(..) | Expr::Neg(_) => ColType::INT,
    }
}

/// Post-fixpoint conflict detection for one rule.
///
/// Checks run against the *unrefined* environment (atoms + `next`
/// only): the refined one melts a conflicting variable to ⊥ before the
/// offending constraint can be inspected. Only concrete-vs-concrete
/// mismatches are reported — `any` (unknown EDB data) and `nil`
/// columns never warn.
fn check_rule(
    ri: usize,
    rule: &Rule,
    cols: &BTreeMap<Symbol, Vec<ColType>>,
    defined: &BTreeSet<Symbol>,
    out: &mut Vec<TypeConflict>,
) {
    let Some(env) = rule_env(rule, cols, defined, false) else { return };
    for (li, lit) in rule.body.iter().enumerate() {
        let Literal::Compare { op, lhs, rhs } = lit else { continue };
        let mut reported = false;
        for e in [lhs, rhs] {
            if !e.has_arith() {
                continue;
            }
            for v in e.vars() {
                let base = env[v.index()].base;
                if base.is_concrete() && base != Base::Int {
                    out.push(TypeConflict {
                        rule: ri,
                        lit: Some(li),
                        var: Some(v),
                        message: format!(
                            "`{}` is used in arithmetic but has type `{}`",
                            rule.var_name(v),
                            env[v.index()],
                        ),
                    });
                    reported = true;
                }
            }
        }
        if reported {
            continue;
        }
        let lt = type_of_expr(lhs, &env);
        let rt = type_of_expr(rhs, &env);
        if lt.base.is_concrete() && rt.base.is_concrete() && lt.base != rt.base {
            out.push(TypeConflict {
                rule: ri,
                lit: Some(li),
                var: None,
                message: format!(
                    "comparison between incompatible types `{lt}` {} `{rt}`",
                    cmp_symbol(*op),
                ),
            });
        }
    }
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

/// The refined environment for one rule under the final column map —
/// used by lints that inspect head terms (GBC029) and extremum costs
/// (GBC030). `None` when the rule reads a provably-empty predicate.
pub fn final_env(program: &Program, info: &TypeInfo, rule: &Rule) -> Option<Vec<ColType>> {
    rule_env(rule, &info.cols, &defined_preds(program), true)
}

/// The refined type of a head term under [`final_env`].
pub fn head_term_type(env: &[ColType], term: &Term) -> ColType {
    type_of_term(term, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_parser::parse_program;

    fn types_of(src: &str, pred: &str) -> Vec<String> {
        let p = parse_program(src).expect("parse");
        let info = infer(&p);
        info.cols
            .get(&Symbol::intern(pred))
            .map(|tys| tys.iter().map(|t| t.to_string()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn fact_types_seed_the_lattice() {
        let src = "g(a, b, 4). g(b, c, 9).\n";
        assert_eq!(types_of(src, "g"), vec!["sym", "sym", "int"]);
    }

    #[test]
    fn rule_heads_propagate_to_fixpoint() {
        let src = "e(1, 2). e(2, 3).\ntc(X, Y) <- e(X, Y).\ntc(X, Z) <- tc(X, Y), e(Y, Z).\n";
        assert_eq!(types_of(src, "tc"), vec!["int", "int"]);
    }

    #[test]
    fn nil_makes_a_column_nullable() {
        let src = "p(nil, 0).\np(X, C) <- q(X, C).\nq(a, 3).\n";
        assert_eq!(types_of(src, "p"), vec!["sym?", "int"]);
    }

    #[test]
    fn mixed_shapes_join_to_any() {
        let src = "h(a, 1).\nh(t(X, Y), 2) <- h(X, C), h(Y, D).\n";
        assert_eq!(types_of(src, "h"), vec!["any", "int"]);
    }

    #[test]
    fn external_predicates_are_any() {
        let src = "p(X) <- q(X).\n";
        let prog = parse_program(src).expect("parse");
        let info = infer(&prog);
        assert_eq!(info.external, vec![Symbol::intern("q")]);
        assert_eq!(types_of(src, "p"), vec!["any"]);
    }

    #[test]
    fn arithmetic_forces_int() {
        let src = "p(1).\nq(Y) <- p(X), Y = X + 1.\n";
        let prog = parse_program(src).expect("parse");
        let info = infer(&prog);
        assert!(info.col_is_int(Symbol::intern("q"), 0));
        assert!(info.conflicts.is_empty());
    }

    #[test]
    fn arithmetic_over_symbols_conflicts() {
        let src = "p(a).\nq(Y) <- p(X), Y = X + 1.\n";
        let prog = parse_program(src).expect("parse");
        let info = infer(&prog);
        assert_eq!(info.conflicts.len(), 1, "{:?}", info.conflicts);
        assert!(info.conflicts[0].message.contains("arithmetic"), "{:?}", info.conflicts);
    }

    #[test]
    fn comparison_shape_mismatch_conflicts() {
        let src = "p(a).\nq(X) <- p(X), X < 3.\n";
        let prog = parse_program(src).expect("parse");
        let info = infer(&prog);
        assert_eq!(info.conflicts.len(), 1, "{:?}", info.conflicts);
        assert!(info.conflicts[0].message.contains("incompatible"), "{:?}", info.conflicts);
    }

    #[test]
    fn empty_defined_predicates_do_not_poison() {
        // `q` is defined but provably empty: the rule reading it
        // contributes nothing, and `p` keeps its fact-derived type.
        let src = "p(1).\nq(X) <- q(X).\np(X) <- q(X).\n";
        assert_eq!(types_of(src, "p"), vec!["int"]);
    }
}
