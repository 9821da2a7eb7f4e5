//! Predicate reachability and dead-rule detection.
//!
//! Two dataflow passes over the program's dependency structure:
//!
//! - **Emptiness**: a least fixpoint marking which defined predicates
//!   can ever hold a fact. A rule *supports* its head when every
//!   positive body atom reads a non-empty (or external — EDB inputs
//!   are unknown and assumed populated) predicate and no comparison in
//!   its body is constant-false. A proper rule that can never fire —
//!   because a body predicate is provably empty or a comparison is
//!   constant-false — is *dead* (GBC027).
//! - **Reachability**: which predicates can feed a program answer. The
//!   roots are the heads of rules with meta goals (`choice`, `least`,
//!   `most`, `next`) — the same "program answers" convention GBC024
//!   uses — or every head when the program has no meta rules (plain
//!   Datalog: everything is an answer). A predicate that is defined
//!   and referenced but never reaches a root is unreachable (GBC028):
//!   work spent deriving it is wasted.
//!
//! Constant-foldable comparisons (both sides ground, GBC031) are
//! reported here too; the always-false ones kill their rule. All of
//! these are static facts for diagnostics and the `gbc analyze`
//! report: the executor evaluates a dead rule like any other (it
//! derives nothing), and a constant comparison is a ground `Filter`
//! step its join plan already runs first.

use std::collections::BTreeSet;

use gbc_ast::literal::Literal;
use gbc_ast::term::{ArithOp, Expr};
use gbc_ast::value::Value;
use gbc_ast::{Program, Symbol};

/// A comparison whose outcome is known at compile time.
#[derive(Clone, Copy, Debug)]
pub struct ConstComparison {
    /// Rule index in `program.rules`.
    pub rule: usize,
    /// Body literal index of the comparison.
    pub lit: usize,
    /// The folded outcome.
    pub value: bool,
}

/// A rule that provably never fires.
#[derive(Clone, Debug)]
pub struct DeadRule {
    /// Rule index in `program.rules`.
    pub rule: usize,
    /// Body literal index anchoring the reason, when there is one.
    pub lit: Option<usize>,
    /// Human-readable reason.
    pub reason: String,
}

/// Result of the reachability/emptiness analysis.
#[derive(Clone, Debug, Default)]
pub struct ReachInfo {
    /// The answer predicates reachability starts from, name-sorted.
    pub roots: Vec<Symbol>,
    /// Predicates that (transitively) feed some root.
    pub reachable: BTreeSet<Symbol>,
    /// Defined *and referenced* predicates that never feed a root
    /// (GBC028). Disjoint from GBC024, which requires *unreferenced*.
    pub unreachable: Vec<Symbol>,
    /// Defined predicates that provably never hold a fact.
    pub empty: BTreeSet<Symbol>,
    /// Proper rules that provably never fire (GBC027).
    pub dead_rules: Vec<DeadRule>,
    /// Comparisons foldable at compile time (GBC031).
    pub const_comparisons: Vec<ConstComparison>,
}

/// Run both passes.
pub fn analyze(program: &Program) -> ReachInfo {
    let defined: BTreeSet<Symbol> =
        program.rules.iter().map(|r| r.head.pred).chain(program.fact_predicates()).collect();

    // Constant-foldable comparisons.
    let mut const_comparisons = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        for (li, lit) in rule.body.iter().enumerate() {
            let Literal::Compare { op, lhs, rhs } = lit else { continue };
            if let (Some(a), Some(b)) = (eval_const(lhs), eval_const(rhs)) {
                const_comparisons.push(ConstComparison {
                    rule: ri,
                    lit: li,
                    value: op.eval(a.cmp(&b)),
                });
            }
        }
    }
    let false_lit = |ri: usize| -> Option<usize> {
        const_comparisons.iter().find(|c| c.rule == ri && !c.value).map(|c| c.lit)
    };

    // Emptiness: least fixpoint over "this rule can support its head",
    // from the predicates that have facts.
    let mut non_empty: BTreeSet<Symbol> = program.fact_predicates().collect();
    loop {
        let mut changed = false;
        for (ri, rule) in program.rules.iter().enumerate() {
            if non_empty.contains(&rule.head.pred) || false_lit(ri).is_some() {
                continue;
            }
            let supported = rule
                .positive_atoms()
                .all(|a| !defined.contains(&a.pred) || non_empty.contains(&a.pred));
            if supported {
                non_empty.insert(rule.head.pred);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let empty: BTreeSet<Symbol> =
        defined.iter().filter(|p| !non_empty.contains(p)).copied().collect();

    // Dead rules.
    let mut dead_rules = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        if let Some(li) = false_lit(ri) {
            dead_rules.push(DeadRule {
                rule: ri,
                lit: Some(li),
                reason: "this comparison is always false".to_owned(),
            });
            continue;
        }
        let empty_atom = rule.body.iter().enumerate().find_map(|(li, lit)| match lit {
            Literal::Pos(a) if empty.contains(&a.pred) => Some((li, a.pred)),
            _ => None,
        });
        if let Some((li, pred)) = empty_atom {
            dead_rules.push(DeadRule {
                rule: ri,
                lit: Some(li),
                reason: format!("`{pred}` provably never holds a fact"),
            });
        }
    }

    // Reachability from the answer predicates.
    let meta_heads: BTreeSet<Symbol> = program
        .rules
        .iter()
        .filter(|r| r.body.iter().any(Literal::is_meta))
        .map(|r| r.head.pred)
        .collect();
    let roots: BTreeSet<Symbol> = if meta_heads.is_empty() { defined.clone() } else { meta_heads };
    let mut reachable = roots.clone();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if !reachable.contains(&rule.head.pred) {
                continue;
            }
            for lit in &rule.body {
                if let Literal::Pos(a) | Literal::Neg(a) = lit {
                    changed |= reachable.insert(a.pred);
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut referenced: BTreeSet<Symbol> = BTreeSet::new();
    for rule in &program.rules {
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                referenced.insert(a.pred);
            }
        }
    }
    let unreachable: Vec<Symbol> = defined
        .iter()
        .filter(|p| referenced.contains(p) && !reachable.contains(p))
        .copied()
        .collect();

    ReachInfo {
        roots: roots.into_iter().collect(),
        reachable,
        unreachable,
        empty,
        dead_rules,
        const_comparisons,
    }
}

/// Evaluate a ground expression, if it is one. Overflow and division
/// by zero yield `None` (the comparison is then not foldable).
fn eval_const(e: &Expr) -> Option<Value> {
    match e {
        Expr::Term(t) => t.as_value(),
        Expr::Binary(op, l, r) => {
            let a = eval_const(l)?.as_int()?;
            let b = eval_const(r)?.as_int()?;
            let v = match op {
                ArithOp::Add => a.checked_add(b)?,
                ArithOp::Sub => a.checked_sub(b)?,
                ArithOp::Mul => a.checked_mul(b)?,
                ArithOp::Div => a.checked_div(b)?,
                ArithOp::Mod => a.checked_rem(b)?,
                ArithOp::Max => a.max(b),
                ArithOp::Min => a.min(b),
            };
            Some(Value::Int(v))
        }
        Expr::Neg(e) => Some(Value::Int(eval_const(e)?.as_int()?.checked_neg()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbc_parser::parse_program;

    fn info(src: &str) -> ReachInfo {
        analyze(&parse_program(src).expect("parse"))
    }

    fn dead_rules(r: &ReachInfo) -> Vec<usize> {
        r.dead_rules.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn const_comparisons_fold_both_ways() {
        let r = info("p(1).\nq(X) <- p(X), 1 < 2.\nr(X) <- p(X), 2 < 1.\n");
        assert_eq!(r.const_comparisons.len(), 2);
        assert!(r.const_comparisons[0].value);
        assert!(!r.const_comparisons[1].value);
        let (c, d) = (&r.const_comparisons[0], &r.const_comparisons[1]);
        // Rule ids count rules only: the fact `p(1)` takes none.
        assert_eq!(((c.rule, c.lit), (d.rule, d.lit)), ((0, 1), (1, 1)));
    }

    #[test]
    fn const_false_comparison_kills_the_rule_and_empties_the_head() {
        let r = info("p(1).\nq(X) <- p(X), 2 < 1.\nout(X) <- q(X).\n");
        assert!(r.empty.contains(&Symbol::intern("q")), "{:?}", r.empty);
        // Both the folded rule and the one reading the empty `q` die.
        assert_eq!(dead_rules(&r), vec![0, 1]);
    }

    #[test]
    fn mutual_recursion_without_a_base_case_is_empty() {
        let r = info("a(X) <- b(X).\nb(X) <- a(X).\nseed(1).\nout(X) <- a(X), seed(X).\n");
        assert!(r.empty.contains(&Symbol::intern("a")));
        assert!(r.empty.contains(&Symbol::intern("b")));
        assert_eq!(dead_rules(&r), vec![0, 1, 2]);
    }

    #[test]
    fn external_predicates_are_assumed_populated() {
        let r = info("q(X) <- edb(X).\n");
        assert!(r.empty.is_empty(), "{:?}", r.empty);
        assert!(r.dead_rules.is_empty());
    }

    #[test]
    fn reachability_roots_are_meta_rule_heads() {
        let r = info(
            "src(1). src(2).\n\
             out(X, I) <- next(I), src(X), least(X, I).\n\
             helper(X) <- src(X), X > 1.\n\
             aux(X) <- helper(X).\n",
        );
        assert_eq!(r.roots, vec![Symbol::intern("out")]);
        assert!(r.reachable.contains(&Symbol::intern("src")));
        // `helper` is referenced (by `aux`) but never feeds `out`.
        assert_eq!(r.unreachable, vec![Symbol::intern("helper")]);
    }

    #[test]
    fn plain_programs_treat_every_head_as_an_answer() {
        let r = info("e(1, 2).\ntc(X, Y) <- e(X, Y).\n");
        assert!(r.unreachable.is_empty());
        assert!(r.reachable.contains(&Symbol::intern("tc")));
    }
}
