//! Recursive-descent parser producing `gbc-ast` values.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use gbc_ast::term::{ArithOp, Expr};
use gbc_ast::{Atom, CmpOp, FactTable, Literal, Program, Rule, Symbol, Term, VarId};
use gbc_ast::{Diagnostic, LiteralSpans, RuleSpans, Span};

use crate::lexer::{int_value, line_col, unescape, LexError, Lexer, Token, TokenKind};

/// Parse error with source position (1-based line/column plus the byte
/// span of the offending token, for snippet rendering).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub line: u32,
    pub col: u32,
    pub span: Span,
}

impl ParseError {
    /// Render as a `GBC001` diagnostic pointing at the offending token.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::error("GBC001", self.message.clone()).with_label(self.span, "here")
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        let span = e.span();
        ParseError { message: e.message, line: e.line, col: e.col, span }
    }
}

/// Parse a full program: ground facts go straight into its fact table,
/// everything else becomes a rule. Validation (safety, arities) is *not*
/// run here; call [`gbc_ast::Program::diagnostics`] for that.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src);
    let program = p.program();
    p.finish(program)
}

/// Parse a single clause (fact or rule) as a [`Rule`], e.g. for tests
/// and REPL-style use.
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let mut p = Parser::new(src);
    let rule = match p.clause() {
        Ok(_) if !p.at_eof() => Err(p.err_here("trailing input after clause")),
        Ok(Parsed::Rule(r)) => Ok(r),
        Ok(Parsed::Fact { pred, head }) => {
            let atom = Atom::new(pred, p.head_args.drain(..).collect());
            let spans = RuleSpans {
                span: Span::new(head.start, p.prev_end()),
                head,
                head_args: p.head_spans.drain(..).collect(),
                literals: Vec::new(),
            };
            Ok(Rule::fact(atom).with_spans(spans))
        }
        Err(e) => Err(e),
    };
    p.finish(rule)
}

/// One parsed clause. A ground fact's arguments are left in the
/// parser's head buffers, for the caller to move where they belong.
enum Parsed {
    Rule(Rule),
    Fact { pred: Symbol, head: Span },
}

/// How deeply terms and expressions may nest (functor arguments,
/// parentheses, unary minus, `max`/`min` arguments). The descent is
/// recursive, so without a cap a deep enough input — well within any
/// request body limit — overflows the stack, which aborts the process.
/// The shipped programs nest at most a few levels.
pub const MAX_NESTING: usize = 256;

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token and, once asked for, the one after it: all
    /// the lookahead the grammar needs, so the token stream is never
    /// materialised.
    cur: Token,
    next: Option<Token>,
    /// Byte offset where the previously consumed token ended.
    prev_end: u32,
    /// Current term/expression nesting depth.
    depth: usize,
    /// Per-clause variable scope.
    var_names: Vec<String>,
    var_map: HashMap<&'a str, VarId>,
    anon: Vec<bool>,
    /// The arguments of the clause head and their spans, reused from
    /// clause to clause.
    head_args: Vec<Term>,
    head_spans: Vec<Span>,
    /// The last predicate name interned, reused while it repeats.
    last_pred: Option<(&'a str, Symbol)>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let eof = Token { kind: TokenKind::Eof, start: 0, end: 0 };
        let mut p = Parser {
            lexer: Lexer::new(src),
            cur: eof,
            next: None,
            prev_end: 0,
            depth: 0,
            var_names: Vec::new(),
            var_map: HashMap::new(),
            anon: Vec::new(),
            head_args: Vec::new(),
            head_spans: Vec::new(),
            last_pred: None,
        };
        p.cur = p.lexer.next_token();
        p
    }

    /// Every clause up to the end of the source.
    fn program(&mut self) -> Result<Program, ParseError> {
        let mut rules = Vec::new();
        let mut facts = FactTable::new();
        while !self.at_eof() {
            match self.clause()? {
                Parsed::Rule(r) => rules.push(r),
                Parsed::Fact { pred, head } => {
                    let args = self.head_args.drain(..).map(|t| t.into_value().expect("ground"));
                    facts.push(pred, args, head, rules.len());
                }
            }
        }
        Ok(Program { rules, facts: Arc::new(facts) })
    }

    /// The result of a parse. A lex error anywhere in the source wins
    /// over the parse's outcome — a parse that ended at a lex error saw
    /// an early `Eof` — so after a parse error the rest of the source
    /// is lexed for one.
    fn finish<T>(mut self, parsed: Result<T, ParseError>) -> Result<T, ParseError> {
        if parsed.is_err() {
            self.lexer.finish();
        }
        match self.lexer.error() {
            Some(e) => Err(e.clone().into()),
            None => parsed,
        }
    }

    /// Parse with `f` one nesting level deeper, failing at the current
    /// token past [`MAX_NESTING`] levels, before anything deeper is
    /// built.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err_here(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> TokenKind {
        self.cur.kind
    }

    /// The kind of the token after the current one.
    fn peek2(&mut self) -> TokenKind {
        self.next.get_or_insert_with(|| self.lexer.next_token()).kind
    }

    /// The current token's text.
    fn cur_text(&self) -> &'a str {
        self.cur.text(self.lexer.src())
    }

    /// Consume and return the current token; at `Eof`, stay there.
    /// Inlined with the lexer's `next_token`, so that a token passes
    /// from the lexer to the grammar in registers, not through memory.
    #[inline(always)]
    fn bump(&mut self) -> Token {
        let t = self.cur;
        if t.kind == TokenKind::Eof {
            return t;
        }
        self.cur = match self.next.take() {
            Some(next) => next,
            None => self.lexer.next_token(),
        };
        self.prev_end = t.end;
        t
    }

    /// Token `t`'s text.
    fn text(&self, t: Token) -> &'a str {
        t.text(self.lexer.src())
    }

    /// How an error message names token `t`.
    fn describe(&self, t: Token) -> String {
        t.describe(self.lexer.src())
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    /// Byte offset where the current token starts.
    fn tok_start(&self) -> u32 {
        self.cur.start
    }

    /// Byte offset where the previously consumed token ended.
    fn prev_end(&self) -> u32 {
        self.prev_end
    }

    /// An error at the current token.
    #[cold]
    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        self.err_at(self.cur, msg)
    }

    /// An error at token `t`, already consumed or current; its line and
    /// column are counted here, from the token's byte offset.
    #[cold]
    fn err_at(&self, t: Token, msg: impl Into<String>) -> ParseError {
        let span = t.span();
        let (line, col) = line_col(self.lexer.src(), span.start);
        ParseError { message: msg.into(), line, col, span }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kind}, found {}", self.describe(self.cur))))
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    // ---- variable scope --------------------------------------------------

    fn begin_clause(&mut self) {
        self.var_names.clear();
        self.var_map.clear();
        self.anon.clear();
    }

    fn var(&mut self, name: &'a str) -> VarId {
        if name == "_" {
            let id = VarId(self.var_names.len() as u32);
            self.var_names.push("_".to_owned());
            self.anon.push(true);
            return id;
        }
        if let Some(&v) = self.var_map.get(name) {
            return v;
        }
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_owned());
        self.var_map.insert(name, id);
        self.anon.push(false);
        id
    }

    /// Rename anonymous variables so every variable in the clause has a
    /// distinct surface name (`_`, `_2`, `_3`, …), dodging collisions
    /// with user-written names. Keeps the printed form reparsable with
    /// identical semantics.
    fn finalize_var_names(&mut self) -> Vec<String> {
        let mut names = std::mem::take(&mut self.var_names);
        if !self.anon.contains(&true) {
            return names;
        }
        let taken: std::collections::HashSet<String> =
            names.iter().zip(&self.anon).filter(|(_, &a)| !a).map(|(n, _)| n.clone()).collect();
        let mut candidates = std::iter::once("_".to_owned())
            .chain((2usize..).map(|k| format!("_{k}")))
            .filter(|c| !taken.contains(c));
        for (i, is_anon) in self.anon.iter().enumerate() {
            if *is_anon {
                names[i] = candidates.next().expect("infinite candidate stream");
            }
        }
        names
    }

    // ---- grammar ---------------------------------------------------------

    /// The interned symbol for predicate name `name`.
    fn pred_symbol(&mut self, name: &'a str) -> Symbol {
        match self.last_pred {
            Some((last, sym)) if last == name => sym,
            _ => {
                let sym = Symbol::intern(name);
                self.last_pred = Some((name, sym));
                sym
            }
        }
    }

    /// A clause. The head parses into the reused head buffers; a head
    /// with no variable followed by `.` is a ground fact, and no `Rule`
    /// is built for it.
    fn clause(&mut self) -> Result<Parsed, ParseError> {
        self.begin_clause();
        let rule_start = self.tok_start();
        let (pred, head_span) = self.atom_args()?;
        if self.var_names.is_empty() && self.eat(TokenKind::Dot) {
            return Ok(Parsed::Fact { pred, head: head_span });
        }
        let head = Atom::new(pred, self.head_args.drain(..).collect());
        let head_args = self.head_spans.drain(..).collect();
        let mut body = Vec::new();
        let mut literals = Vec::new();
        if self.eat(TokenKind::Arrow) {
            loop {
                let (lit, spans) = self.literal()?;
                body.push(lit);
                literals.push(spans);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::Dot)?;
        let span = Span::new(rule_start, self.prev_end());
        let var_names = self.finalize_var_names();
        Ok(Parsed::Rule(Rule::new(head, body, var_names).with_spans(RuleSpans {
            span,
            head: head_span,
            head_args,
            literals,
        })))
    }

    /// An atom's predicate and span; its arguments and their spans go
    /// to the (cleared) head buffers.
    fn atom_args(&mut self) -> Result<(Symbol, Span), ParseError> {
        self.head_args.clear();
        self.head_spans.clear();
        let start = self.tok_start();
        let t = self.bump();
        if t.kind != TokenKind::Ident {
            let found = self.describe(t);
            return Err(self.err_at(t, format!("expected predicate name, found {found}")));
        }
        let name = self.text(t);
        let pred = self.pred_symbol(name);
        if self.eat(TokenKind::LParen) && !self.eat(TokenKind::RParen) {
            loop {
                let start = self.tok_start();
                // An integer, the commonest fact argument, is built in
                // place: a `Term` returned from `term` reaches the
                // vector through a copy in memory.
                if self.peek() == TokenKind::Int {
                    let t = self.bump();
                    self.head_args.push(Term::int(int_value(self.lexer.src(), t)));
                } else {
                    let t = self.term()?;
                    self.head_args.push(t);
                }
                self.head_spans.push(Span::new(start, self.prev_end()));
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok((pred, Span::new(start, self.prev_end())))
    }

    /// A body atom with its span and the spans of its top-level arguments.
    fn atom(&mut self) -> Result<(Atom, Span, Vec<Span>), ParseError> {
        let (pred, span) = self.atom_args()?;
        let args = self.head_args.drain(..).collect();
        Ok((Atom::new(pred, args), span, self.head_spans.drain(..).collect()))
    }

    fn literal(&mut self) -> Result<(Literal, LiteralSpans), ParseError> {
        let start = self.tok_start();
        if self.eat(TokenKind::Not) {
            let (a, _, arg_spans) = self.atom()?;
            let span = Span::new(start, self.prev_end());
            return Ok((Literal::Neg(a), LiteralSpans { span, args: arg_spans }));
        }
        // Keyword goals: only when the identifier is immediately applied.
        if self.peek() == TokenKind::Ident && self.peek2() == TokenKind::LParen {
            match self.cur_text() {
                "choice" => return self.choice_goal(start),
                "least" => return self.extremum_goal(true, start),
                "most" => return self.extremum_goal(false, start),
                "next" => return self.next_goal(start),
                _ => {}
            }
        }
        // Positive-atom fast path: an applied identifier directly
        // followed by `,` or `.` is a plain atom, parsed through
        // `atom()` so its argument spans are recorded. When an operator
        // follows instead, the atom re-enters the expression grammar as
        // a functor term (`t(X, Y) = Z`, `f(X) + 1 < C`).
        let lhs = if self.peek() == TokenKind::Ident
            && !matches!(self.cur_text(), "max" | "min" | "nil")
            && self.peek2() == TokenKind::LParen
        {
            let (a, span, arg_spans) = self.atom()?;
            if matches!(self.peek(), TokenKind::Comma | TokenKind::Dot) {
                return Ok((Literal::Pos(a), LiteralSpans { span, args: arg_spans }));
            }
            self.expr_from(Expr::Term(Term::Func(a.pred, a.args)))?
        } else {
            self.expr()?
        };
        let lhs_span = Span::new(start, self.prev_end());
        let op = match self.peek() {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs_start = self.tok_start();
            let rhs = self.expr()?;
            let rhs_span = Span::new(rhs_start, self.prev_end());
            let span = Span::new(start, self.prev_end());
            return Ok((
                Literal::Compare { op, lhs, rhs },
                LiteralSpans { span, args: vec![lhs_span, rhs_span] },
            ));
        }
        // Bare expression must be an atom.
        let atom = match lhs {
            Expr::Term(Term::Func(pred, args)) => Atom { pred, args },
            Expr::Term(Term::Const(gbc_ast::Value::Sym(pred))) => Atom { pred, args: Vec::new() },
            Expr::Term(Term::Const(gbc_ast::Value::Func(pred, args))) => {
                Atom { pred, args: args.iter().cloned().map(Term::Const).collect() }
            }
            _ => return Err(self.err_here("expected an atom or a comparison")),
        };
        Ok((Literal::Pos(atom), LiteralSpans { span: lhs_span, args: Vec::new() }))
    }

    fn choice_goal(&mut self, start: u32) -> Result<(Literal, LiteralSpans), ParseError> {
        self.bump(); // `choice`
        self.expect(TokenKind::LParen)?;
        let (left, mut args) = self.term_tuple()?;
        self.expect(TokenKind::Comma)?;
        let (right, right_spans) = self.term_tuple()?;
        args.extend(right_spans);
        self.expect(TokenKind::RParen)?;
        let span = Span::new(start, self.prev_end());
        Ok((Literal::Choice { left, right }, LiteralSpans { span, args }))
    }

    fn extremum_goal(
        &mut self,
        least: bool,
        start: u32,
    ) -> Result<(Literal, LiteralSpans), ParseError> {
        self.bump(); // `least` / `most`
        self.expect(TokenKind::LParen)?;
        let (cost, cost_span) = self.term_spanned()?;
        let mut args = vec![cost_span];
        let group = if self.eat(TokenKind::Comma) {
            let (g, gs) = self.term_tuple()?;
            args.extend(gs);
            g
        } else {
            Vec::new()
        };
        self.expect(TokenKind::RParen)?;
        let span = Span::new(start, self.prev_end());
        let lit =
            if least { Literal::Least { cost, group } } else { Literal::Most { cost, group } };
        Ok((lit, LiteralSpans { span, args }))
    }

    fn next_goal(&mut self, start: u32) -> Result<(Literal, LiteralSpans), ParseError> {
        self.bump(); // `next`
        self.expect(TokenKind::LParen)?;
        let var_start = self.tok_start();
        let t = self.bump();
        if t.kind != TokenKind::Var {
            let found = self.describe(t);
            return Err(self.err_at(t, format!("next(…) takes a single variable, found {found}")));
        }
        let var = self.var(self.text(t));
        let var_span = Span::new(var_start, self.prev_end());
        self.expect(TokenKind::RParen)?;
        let span = Span::new(start, self.prev_end());
        Ok((Literal::Next { var }, LiteralSpans { span, args: vec![var_span] }))
    }

    /// A term or a parenthesised term tuple; `()` is the empty tuple.
    /// Returns per-element spans alongside the terms.
    fn term_tuple(&mut self) -> Result<(Vec<Term>, Vec<Span>), ParseError> {
        if self.eat(TokenKind::LParen) {
            let mut ts = Vec::new();
            let mut spans = Vec::new();
            if !self.eat(TokenKind::RParen) {
                loop {
                    let (t, s) = self.term_spanned()?;
                    ts.push(t);
                    spans.push(s);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
            Ok((ts, spans))
        } else {
            let (t, s) = self.term_spanned()?;
            Ok((vec![t], vec![s]))
        }
    }

    /// A term with the byte span it occupies.
    fn term_spanned(&mut self) -> Result<(Term, Span), ParseError> {
        let start = self.tok_start();
        let t = self.term()?;
        Ok((t, Span::new(start, self.prev_end())))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let t = self.bump();
        match t.kind {
            TokenKind::Var => Ok(Term::Var(self.var(self.text(t)))),
            TokenKind::Int => Ok(Term::int(int_value(self.lexer.src(), t))),
            TokenKind::Minus => {
                let n = self.bump();
                if n.kind != TokenKind::Int {
                    let found = self.describe(n);
                    return Err(
                        self.err_at(n, format!("expected integer after `-`, found {found}"))
                    );
                }
                Ok(Term::int(-int_value(self.lexer.src(), n)))
            }
            TokenKind::Str => {
                let quoted = self.text(t);
                let raw = &quoted[1..quoted.len() - 1];
                Ok(Term::Const(gbc_ast::Value::str(&unescape(raw))))
            }
            TokenKind::Ident if self.text(t) == "nil" => Ok(Term::Const(gbc_ast::Value::Nil)),
            TokenKind::Ident => {
                let name = self.text(t);
                if self.eat(TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(TokenKind::RParen) {
                        loop {
                            args.push(self.nested(Parser::term)?);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(TokenKind::RParen)?;
                    }
                    Ok(Term::Func(Symbol::intern(name), args))
                } else {
                    Ok(Term::sym(name))
                }
            }
            _ => Err(self.err_at(t, format!("expected a term, found {}", self.describe(t)))),
        }
    }

    // Expressions: standard precedence climbing.

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.mul_expr()?;
        self.expr_from_mul(first)
    }

    /// Continue the additive grammar from an already-parsed primary
    /// (used by the positive-atom fast path in [`Parser::literal`]).
    fn expr_from(&mut self, first: Expr) -> Result<Expr, ParseError> {
        let first = self.mul_expr_from(first)?;
        self.expr_from_mul(first)
    }

    fn expr_from_mul(&mut self, mut lhs: Expr) -> Result<Expr, ParseError> {
        loop {
            let op = match self.peek() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.unary_expr()?;
        self.mul_expr_from(first)
    }

    fn mul_expr_from(&mut self, mut lhs: Expr) -> Result<Expr, ParseError> {
        loop {
            let op = match self.peek() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                TokenKind::Ident if self.cur_text() == "mod" => ArithOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), TokenKind::Minus) {
            // `-3` lexes as Minus Int and is folded; `-X` becomes Neg.
            self.bump();
            let e = self.nested(Parser::unary_expr)?;
            if let Expr::Term(Term::Const(gbc_ast::Value::Int(i))) = e {
                return Ok(Expr::int(-i));
            }
            return Ok(Expr::Neg(Box::new(e)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        // max/min built-ins.
        if self.peek() == TokenKind::Ident {
            let name = self.cur_text();
            let is_builtin = matches!(name, "max" | "min") && self.peek2() == TokenKind::LParen;
            if is_builtin {
                let op = if name == "max" { ArithOp::Max } else { ArithOp::Min };
                self.bump();
                self.expect(TokenKind::LParen)?;
                let a = self.nested(Parser::expr)?;
                self.expect(TokenKind::Comma)?;
                let b = self.nested(Parser::expr)?;
                self.expect(TokenKind::RParen)?;
                return Ok(Expr::binary(op, a, b));
            }
        }
        if self.eat(TokenKind::LParen) {
            let e = self.nested(Parser::expr)?;
            self.expect(TokenKind::RParen)?;
            return Ok(e);
        }
        Ok(Expr::Term(self.term()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p(f(f(…f(a)…))).` with `depth` functors.
    fn nested_fact(depth: usize) -> String {
        format!("p({}a{}).", "f(".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_at_max_nesting() {
        assert!(parse_program(&nested_fact(MAX_NESTING)).is_ok());
        let e = parse_program(&nested_fact(MAX_NESTING + 1)).unwrap_err();
        assert!(e.message.contains("nesting deeper than 256"), "{e}");
        // The error points at the first token past the cap.
        assert_eq!(e.span.start as usize, 2 + 2 * (MAX_NESTING + 1));
        for deep in [
            format!("q(X) <- p(X), X = {}1{}.", "(".repeat(300), ")".repeat(300)),
            format!("q(X) <- p(X), X = {}1.", "-".repeat(300)),
            format!("q(X) <- p(X), X = {}1{}.", "max(1, ".repeat(300), ")".repeat(300)),
        ] {
            let e = parse_program(&deep).unwrap_err();
            assert!(e.message.contains("nesting deeper"), "{e}");
        }
    }

    /// The parser lexes on demand, but a lex error anywhere still wins
    /// over a parse error earlier in the source.
    #[test]
    fn a_later_lex_error_wins_over_an_earlier_parse_error() {
        let e = parse_program("p(a b).\nq(!).").unwrap_err();
        assert_eq!((e.message.as_str(), e.line, e.col), ("expected `=` after `!`", 2, 4));
        let e = parse_program("p(a b).\nq(c).").unwrap_err();
        assert_eq!((e.line, e.col), (1, 5), "{e}");
        let e = parse_rule("p(a). q(#).").unwrap_err();
        assert!(e.message.contains("unexpected character `#`"), "{e}");
    }

    /// A term nested 200 000 deep — a 600 KB program, inside the
    /// `gbc serve` body limit — is refused with an error on a default
    /// 2 MiB thread instead of overflowing its stack.
    #[test]
    fn a_very_deep_term_is_an_error_not_a_stack_overflow() {
        let text = nested_fact(200_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_program(&text).map(|_| ()))
            .unwrap()
            .join()
            .expect("the parse must not overflow the stack");
        assert_eq!(parsed.unwrap_err().to_diagnostic().code, "GBC001");
    }

    #[test]
    fn parses_a_fact() {
        let r = parse_rule("takes(andy, engl, 4).").unwrap();
        assert!(r.is_fact());
        assert_eq!(r.to_string(), "takes(andy,engl,4).");
    }

    #[test]
    fn parses_example_1_choice_rule() {
        let r = parse_rule("a_st(St, Crs) <- takes(St, Crs), choice(Crs, St), choice(St, Crs).")
            .unwrap();
        assert!(r.has_choice());
        assert_eq!(r.body.len(), 3);
        assert!(matches!(&r.body[1], Literal::Choice { left, right }
            if left.len() == 1 && right.len() == 1));
    }

    #[test]
    fn parses_prim_next_rule() {
        let r = parse_rule(
            "prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, I), choice(Y, X).",
        )
        .unwrap();
        assert!(r.has_next());
        assert!(r.has_extrema());
        assert!(r.has_choice());
        assert_eq!(r.head.arity(), 4);
    }

    #[test]
    fn parses_empty_tuple_choice() {
        let r = parse_rule("tsp(X, Y, C, 1) <- least_arcs(X, Y, C), choice((), (X, Y)).").unwrap();
        match &r.body[1] {
            Literal::Choice { left, right } => {
                assert!(left.is_empty());
                assert_eq!(right.len(), 2);
            }
            other => panic!("expected choice, got {other:?}", other = other.vars()),
        }
    }

    #[test]
    fn parses_arithmetic_assignment() {
        let r = parse_rule("p(I) <- q(J), I = J + 1.").unwrap();
        assert!(matches!(&r.body[1], Literal::Compare { op: CmpOp::Eq, .. }));
    }

    #[test]
    fn parses_max_builtin() {
        let r = parse_rule("p(I) <- q(J), q(K), I = max(J, K).").unwrap();
        let Literal::Compare { rhs, .. } = &r.body[2] else {
            panic!("expected comparison");
        };
        assert!(rhs.has_arith());
    }

    #[test]
    fn parses_negation_and_functor_terms() {
        let r = parse_rule("subtree(X, I) <- h(t(X, _), _, I).").unwrap();
        assert_eq!(r.body.len(), 1);
        let Literal::Pos(a) = &r.body[0] else { panic!() };
        assert!(matches!(&a.args[0], Term::Func(f, args) if f.as_str() == "t" && args.len() == 2));

        let r2 = parse_rule("p(X) <- q(X), not r(X).").unwrap();
        assert!(r2.has_negation());
    }

    #[test]
    fn anonymous_vars_are_fresh() {
        let r = parse_rule("new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).").unwrap();
        // prm's first and third args must be distinct variables.
        let Literal::Pos(a) = &r.body[0] else { panic!() };
        let (Term::Var(v1), Term::Var(v3)) = (&a.args[0], &a.args[2]) else { panic!() };
        assert_ne!(v1, v3);
    }

    #[test]
    fn nil_parses_as_value() {
        let r = parse_rule("st(nil, a, 0, 0).").unwrap();
        assert_eq!(r.head.args[0], Term::Const(gbc_ast::Value::Nil));
    }

    #[test]
    fn zero_arity_atoms() {
        let r = parse_rule("done <- finished.").unwrap();
        assert_eq!(r.head.arity(), 0);
        let Literal::Pos(a) = &r.body[0] else { panic!() };
        assert_eq!(a.arity(), 0);
    }

    #[test]
    fn program_with_comments() {
        let p = parse_program(
            "% Prim exit rule\nprm(nil, a, 0, 0).\n% recursive rule follows\nnew_g(X,Y,C,J) <- prm(_, X, _, J), g(X,Y,C).\n",
        )
        .unwrap();
        assert_eq!((p.rules.len(), p.facts.len()), (1, 1));
        assert!(p.diagnostics().is_empty());
    }

    #[test]
    fn error_reports_position() {
        let e = parse_rule("p(X) <- q(X)").unwrap_err();
        assert!(e.message.contains("expected `.`"), "{}", e.message);
    }

    #[test]
    fn rejects_next_with_nonvariable() {
        assert!(parse_rule("p(X, 1) <- next(1), q(X).").is_err());
    }

    #[test]
    fn negative_integers_in_facts_and_exprs() {
        let r = parse_rule("g(a, b, -5).").unwrap();
        assert_eq!(r.head.args[2], Term::int(-5));
        let r2 = parse_rule("p(X) <- q(X, C), C > -2.").unwrap();
        assert!(matches!(&r2.body[1], Literal::Compare { .. }));
    }

    #[test]
    fn least_group_forms() {
        // least(C) — empty group
        let r1 = parse_rule("p(X, C) <- q(X, C), least(C).").unwrap();
        let Literal::Least { group, .. } = &r1.body[1] else { panic!() };
        assert!(group.is_empty());
        // least(C, I) — singleton group, bare
        let r2 = parse_rule("p(X, C, I) <- q(X, C, I), least(C, I).").unwrap();
        let Literal::Least { group, .. } = &r2.body[1] else { panic!() };
        assert_eq!(group.len(), 1);
        // least(C, (X, I)) — tuple group
        let r3 = parse_rule("p(X, C, I) <- q(X, C, I), least(C, (X, I)).").unwrap();
        let Literal::Least { group, .. } = &r3.body[1] else { panic!() };
        assert_eq!(group.len(), 2);
        // least(G, ()) — explicit empty group
        let r4 = parse_rule("p(X, G) <- q(X, G), least(G, ()).").unwrap();
        let Literal::Least { group, .. } = &r4.body[1] else { panic!() };
        assert!(group.is_empty());
    }

    #[test]
    fn most_parses_like_least() {
        let r = parse_rule("last_comp(X, J, I) <- comp(X, J, I1), I1 <= I, most(J, X).").unwrap();
        assert!(matches!(&r.body[2], Literal::Most { .. }));
    }

    fn snip(src: &str, span: gbc_ast::Span) -> &str {
        &src[span.start as usize..span.end as usize]
    }

    #[test]
    fn rule_spans_point_into_source() {
        let src =
            "prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, I), choice(Y, X).";
        let r = parse_rule(src).unwrap();
        let rs = r.spans.as_ref().expect("parsed rules carry spans");
        assert_eq!(snip(src, rs.span), src);
        assert_eq!(snip(src, rs.head), "prm(X, Y, C, I)");
        assert_eq!(snip(src, rs.head_arg(0)), "X");
        assert_eq!(snip(src, rs.head_arg(3)), "I");
        assert_eq!(snip(src, rs.literal(0)), "next(I)");
        assert_eq!(snip(src, rs.literal_arg(0, 0)), "I");
        assert_eq!(snip(src, rs.literal(1)), "new_g(X, Y, C, J)");
        assert_eq!(snip(src, rs.literal_arg(1, 3)), "J");
        assert_eq!(snip(src, rs.literal(2)), "J < I");
        assert_eq!(snip(src, rs.literal_arg(2, 0)), "J");
        assert_eq!(snip(src, rs.literal_arg(2, 1)), "I");
        assert_eq!(snip(src, rs.literal(3)), "least(C, I)");
        assert_eq!(snip(src, rs.literal_arg(3, 1)), "I");
        assert_eq!(snip(src, rs.literal(4)), "choice(Y, X)");
        assert_eq!(snip(src, rs.literal_arg(4, 1)), "X");
    }

    #[test]
    fn negated_literal_span_includes_not() {
        let src = "p(X) <- q(X), not r(X, Y).";
        let r = parse_rule(src).unwrap();
        let rs = r.spans.as_ref().unwrap();
        assert_eq!(snip(src, rs.literal(1)), "not r(X, Y)");
        assert_eq!(snip(src, rs.literal_arg(1, 1)), "Y");
    }

    #[test]
    fn functor_lhs_comparison_still_parses() {
        // The positive-atom fast path must hand `t(X, Y)` back to the
        // expression grammar when an operator follows.
        let r = parse_rule("p(X, Y, Z) <- q(X, Y, Z), t(X, Y) = Z.").unwrap();
        assert!(matches!(&r.body[1], Literal::Compare { op: CmpOp::Eq, .. }));
        let src = "p(X, C) <- q(X, C), f(X) + 1 < C.";
        let r2 = parse_rule(src).unwrap();
        assert!(matches!(&r2.body[1], Literal::Compare { op: CmpOp::Lt, .. }));
        let rs = r2.spans.as_ref().unwrap();
        assert_eq!(snip(src, rs.literal(1)), "f(X) + 1 < C");
        assert_eq!(snip(src, rs.literal_arg(1, 0)), "f(X) + 1");
        assert_eq!(snip(src, rs.literal_arg(1, 1)), "C");
    }

    #[test]
    fn spans_ignored_by_rule_equality() {
        let a = parse_rule("p(X) <- q(X).").unwrap();
        let mut b = parse_rule("p(X) <- q(X).").unwrap();
        b.spans = None;
        assert_eq!(a, b);
    }

    #[test]
    fn parse_error_carries_span() {
        let src = "p(X) <- q(X)";
        let e = parse_rule(src).unwrap_err();
        // Points at EOF (offset 12).
        assert_eq!(e.span.start, 12);
    }

    #[test]
    fn multi_rule_spans_use_global_offsets() {
        let src = "p(a).\nq(X) <- p(X).\n";
        let p = parse_program(src).unwrap();
        let rs = p.rules[0].spans.as_ref().unwrap();
        assert_eq!(snip(src, rs.span), "q(X) <- p(X).");
        assert_eq!(snip(src, rs.head), "q(X)");
        let (_, _, fact) = p.facts().next().unwrap();
        assert_eq!(snip(src, fact), "p(a)");
    }
}
