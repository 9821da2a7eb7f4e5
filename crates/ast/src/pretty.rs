//! Pretty-printing in the paper's surface syntax.
//!
//! The printed form parses back with `gbc-parser` (round-trip tested
//! there): `prm(X,Y,C,I) <- next(I), new_g(X,Y,C,J), J < I,
//! least(C,(I)), choice((Y),(X)).`

use std::fmt;

use crate::literal::{Atom, CmpOp, Literal};
use crate::program::{Clause, Program};
use crate::rule::Rule;
use crate::term::{ArithOp, Expr, Term};

/// Borrowing wrapper that prints a [`Term`] with surface variable names
/// taken from the owning rule.
struct TermWith<'a> {
    term: &'a Term,
    names: &'a [String],
}

impl fmt::Display for TermWith<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            Term::Var(v) => match self.names.get(v.index()) {
                Some(n) => f.write_str(n),
                None => write!(f, "{v}"),
            },
            Term::Const(c) => write!(f, "{c}"),
            Term::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", TermWith { term: a, names: self.names })?;
                }
                f.write_str(")")
            }
        }
    }
}

struct ExprWith<'a> {
    expr: &'a Expr,
    names: &'a [String],
}

impl fmt::Display for ExprWith<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.expr {
            Expr::Term(t) => write!(f, "{}", TermWith { term: t, names: self.names }),
            Expr::Binary(op, l, r) => {
                let (lw, rw) = (
                    ExprWith { expr: l, names: self.names },
                    ExprWith { expr: r, names: self.names },
                );
                match op {
                    ArithOp::Add => write!(f, "({lw} + {rw})"),
                    ArithOp::Sub => write!(f, "({lw} - {rw})"),
                    ArithOp::Mul => write!(f, "({lw} * {rw})"),
                    ArithOp::Div => write!(f, "({lw} / {rw})"),
                    ArithOp::Mod => write!(f, "({lw} mod {rw})"),
                    ArithOp::Max => write!(f, "max({lw},{rw})"),
                    ArithOp::Min => write!(f, "min({lw},{rw})"),
                }
            }
            Expr::Neg(e) => write!(f, "(-{})", ExprWith { expr: e, names: self.names }),
        }
    }
}

fn fmt_tuple(f: &mut fmt::Formatter<'_>, ts: &[Term], names: &[String]) -> fmt::Result {
    f.write_str("(")?;
    for (i, t) in ts.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        write!(f, "{}", TermWith { term: t, names })?;
    }
    f.write_str(")")
}

fn fmt_atom(f: &mut fmt::Formatter<'_>, a: &Atom, names: &[String]) -> fmt::Result {
    write!(f, "{}", a.pred)?;
    if !a.args.is_empty() {
        fmt_tuple(f, &a.args, names)?;
    }
    Ok(())
}

fn fmt_literal(f: &mut fmt::Formatter<'_>, l: &Literal, names: &[String]) -> fmt::Result {
    match l {
        Literal::Pos(a) => fmt_atom(f, a, names),
        Literal::Neg(a) => {
            f.write_str("not ")?;
            fmt_atom(f, a, names)
        }
        Literal::Compare { op, lhs, rhs } => {
            let opstr = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            write!(
                f,
                "{} {} {}",
                ExprWith { expr: lhs, names },
                opstr,
                ExprWith { expr: rhs, names }
            )
        }
        Literal::Choice { left, right } => {
            f.write_str("choice(")?;
            fmt_tuple(f, left, names)?;
            f.write_str(",")?;
            fmt_tuple(f, right, names)?;
            f.write_str(")")
        }
        Literal::Least { cost, group } | Literal::Most { cost, group } => {
            let kw = if matches!(l, Literal::Least { .. }) { "least" } else { "most" };
            write!(f, "{kw}({}", TermWith { term: cost, names })?;
            if !group.is_empty() {
                f.write_str(",")?;
                fmt_tuple(f, group, names)?;
            }
            f.write_str(")")
        }
        Literal::Next { var } => match names.get(var.index()) {
            Some(n) => write!(f, "next({n})"),
            None => write!(f, "next({var})"),
        },
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_atom(f, &self.head, &self.var_names)?;
        if !self.body.is_empty() {
            f.write_str(" <- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_literal(f, l, &self.var_names)?;
            }
        }
        f.write_str(".")
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_atom(f, self, &[])
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Program {
    /// One clause per line, in [`Program::clauses`] order: reparsing
    /// the text gives an equal program.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.clauses() {
            match c {
                Clause::Rule(r) => writeln!(f, "{r}")?,
                Clause::Facts(g) => {
                    for (row, _) in g.rows() {
                        f.write_str(g.pred().as_str())?;
                        if !row.is_empty() {
                            f.write_str("(")?;
                            for (i, v) in row.iter().enumerate() {
                                if i > 0 {
                                    f.write_str(",")?;
                                }
                                write!(f, "{v}")?;
                            }
                            f.write_str(")")?;
                        }
                        f.write_str(".\n")?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarId;

    #[test]
    fn rule_prints_in_paper_syntax() {
        // prm(X,Y,C,I) <- next(I), new_g(X,Y,C,J), J < I, least(C,(I)), choice((Y),(X)).
        let names: Vec<String> = ["X", "Y", "C", "I", "J"].iter().map(|s| s.to_string()).collect();
        let r = Rule::new(
            Atom::new("prm", vec![Term::var(0), Term::var(1), Term::var(2), Term::var(3)]),
            vec![
                Literal::Next { var: VarId(3) },
                Literal::pos("new_g", vec![Term::var(0), Term::var(1), Term::var(2), Term::var(4)]),
                Literal::cmp(CmpOp::Lt, Expr::var(4), Expr::var(3)),
                Literal::Least { cost: Term::var(2), group: vec![Term::var(3)] },
                Literal::Choice { left: vec![Term::var(1)], right: vec![Term::var(0)] },
            ],
            names,
        );
        assert_eq!(
            r.to_string(),
            "prm(X,Y,C,I) <- next(I), new_g(X,Y,C,J), J < I, least(C,(I)), choice((Y),(X))."
        );
    }

    #[test]
    fn fact_prints_without_arrow() {
        let r = Rule::fact(Atom::new("g", vec![Term::sym("a"), Term::sym("b"), Term::int(3)]));
        assert_eq!(r.to_string(), "g(a,b,3).");
    }

    #[test]
    fn zero_arity_atom_prints_bare() {
        let r = Rule::fact(Atom::new("done", vec![]));
        assert_eq!(r.to_string(), "done.");
    }

    #[test]
    fn negation_and_arith_print() {
        let names: Vec<String> = ["X", "I", "J"].iter().map(|s| s.to_string()).collect();
        let r = Rule::new(
            Atom::new("p", vec![Term::var(0), Term::var(1)]),
            vec![
                Literal::pos("q", vec![Term::var(0), Term::var(2)]),
                Literal::neg("r", vec![Term::var(0)]),
                Literal::cmp(
                    CmpOp::Eq,
                    Expr::var(1),
                    Expr::binary(ArithOp::Max, Expr::var(2), Expr::int(0)),
                ),
            ],
            names,
        );
        assert_eq!(r.to_string(), "p(X,I) <- q(X,J), not r(X), I = max(J,0).");
    }
}
