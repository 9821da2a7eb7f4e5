//! Terms and arithmetic expressions appearing in rule bodies and heads.

use std::fmt;

use crate::symbol::Symbol;
use crate::value::Value;

/// A rule-local variable identifier. Names are kept in the owning
/// [`crate::rule::Rule`]'s `var_names` table; identifiers are dense
/// indices into it so the engine can use flat `Vec`-backed binding
/// frames instead of hash maps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into a binding frame.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_v{}", self.0)
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A term: variable, ground value, or compound term over sub-terms.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable.
    Var(VarId),
    /// A ground value (constants, integers, `nil`, ground functor terms).
    Const(Value),
    /// A compound term with at least one variable underneath, e.g. the
    /// Huffman head term `t(X, Y)`.
    Func(Symbol, Vec<Term>),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(id: u32) -> Term {
        Term::Var(VarId(id))
    }

    /// Shorthand for an integer constant.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// Shorthand for a symbolic constant.
    pub fn sym(s: &str) -> Term {
        Term::Const(Value::sym(s))
    }

    /// True if no variables occur in the term.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Const(_) => true,
            Term::Func(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// If ground, the corresponding [`Value`].
    pub fn as_value(&self) -> Option<Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(v) => Some(v.clone()),
            Term::Func(f, args) => {
                let vals: Option<Vec<Value>> = args.iter().map(Term::as_value).collect();
                vals.map(|v| Value::Func(*f, v.into()))
            }
        }
    }

    /// [`Term::as_value`], consuming the term (no clone of a constant).
    pub fn into_value(self) -> Option<Value> {
        match self {
            Term::Const(v) => Some(v),
            t => t.as_value(),
        }
    }

    /// Append every variable occurring in the term to `out` (with
    /// repetitions, in left-to-right order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::Const(_) => {}
            Term::Func(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// The set-like list of variables in the term (first occurrence order).
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.dedup_in_order();
        out
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{a:?}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// An arithmetic expression over terms, as used in comparison and
/// assignment goals: `I = I1 + 1`, `C = C1 + C2`, `I = max(J, K)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A bare term.
    Term(Term),
    /// Binary arithmetic.
    Binary(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary negation, `-E`.
    Neg(Box<Expr>),
}

/// Binary arithmetic operators (plus the paper's `max`/`min` built-ins,
/// which Example 6 uses as `I = max(J, K)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Max,
    Min,
}

impl Expr {
    /// A bare-term expression.
    pub fn term(t: Term) -> Expr {
        Expr::Term(t)
    }

    /// A bare-variable expression.
    pub fn var(id: u32) -> Expr {
        Expr::Term(Term::var(id))
    }

    /// An integer-constant expression.
    pub fn int(i: i64) -> Expr {
        Expr::Term(Term::int(i))
    }

    /// Binary arithmetic node.
    pub fn binary(op: ArithOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// If the expression is a single bare term, a reference to it.
    pub fn as_bare_term(&self) -> Option<&Term> {
        match self {
            Expr::Term(t) => Some(t),
            _ => None,
        }
    }

    /// Append every variable occurring in the expression to `out`.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Term(t) => t.collect_vars(out),
            Expr::Binary(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Expr::Neg(e) => e.collect_vars(out),
        }
    }

    /// The set-like list of variables (first-occurrence order).
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.dedup_in_order();
        out
    }

    /// True if the expression contains arithmetic (i.e. is not a bare term).
    pub fn has_arith(&self) -> bool {
        !matches!(self, Expr::Term(_))
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t:?}"),
            Expr::Binary(op, l, r) => write!(f, "({l:?} {op:?} {r:?})"),
            Expr::Neg(e) => write!(f, "(-{e:?})"),
        }
    }
}

/// Order-preserving dedup for small vectors of variables. A trait so the
/// helper reads naturally at call sites; the lists here are tiny (rule
/// arity), so the O(n²) scan beats hashing.
trait DedupInOrder {
    fn dedup_in_order(&mut self);
}

impl DedupInOrder for Vec<VarId> {
    fn dedup_in_order(&mut self) {
        let mut seen = Vec::with_capacity(self.len());
        self.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(*v);
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_term_converts_to_value() {
        let t = Term::Func(Symbol::intern("t"), vec![Term::sym("a"), Term::int(3)]);
        assert!(t.is_ground());
        assert_eq!(t.as_value().unwrap(), Value::func("t", vec![Value::sym("a"), Value::int(3)]));
    }

    #[test]
    fn non_ground_term_has_no_value() {
        let t = Term::Func(Symbol::intern("t"), vec![Term::var(0)]);
        assert!(!t.is_ground());
        assert!(t.as_value().is_none());
    }

    #[test]
    fn vars_dedup_in_first_occurrence_order() {
        // t(X, Y, X)
        let t = Term::Func(Symbol::intern("t"), vec![Term::var(1), Term::var(0), Term::var(1)]);
        assert_eq!(t.vars(), vec![VarId(1), VarId(0)]);
    }

    #[test]
    fn expr_vars_traverse_arithmetic() {
        // I1 + max(J, 1)
        let e = Expr::binary(
            ArithOp::Add,
            Expr::var(2),
            Expr::binary(ArithOp::Max, Expr::var(5), Expr::int(1)),
        );
        assert_eq!(e.vars(), vec![VarId(2), VarId(5)]);
        assert!(e.has_arith());
        assert!(e.as_bare_term().is_none());
    }
}
