//! Hand-rolled lexer. Tracks line/column for diagnostics.

use std::fmt;

/// Token kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Lowercase-initial identifier: predicate name, symbolic constant,
    /// or one of the keyword goals (the parser decides).
    Ident(String),
    /// Uppercase- or `_`-initial identifier: variable. A bare `_` is the
    /// anonymous variable.
    Var(String),
    /// Integer literal (unsigned; unary minus handled in the parser).
    Int(i64),
    /// Double-quoted string literal (escapes: `\"`, `\\`, `\n`).
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    /// `<-` or `:-`
    Arrow,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    /// `not`, `~` or `¬`
    Not,
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Var(s) => write!(f, "variable `{s}`"),
            TokenKind::Int(i) => write!(f, "integer `{i}`"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Dot => f.write_str("`.`"),
            TokenKind::Arrow => f.write_str("`<-`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Ne => f.write_str("`!=`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::Not => f.write_str("`not`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source position: 1-based line and column, plus the
/// half-open byte range `[start, end)` it occupies in the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
    pub col: u32,
    pub start: u32,
    pub end: u32,
}

impl Token {
    /// The token's source span.
    pub fn span(&self) -> gbc_ast::Span {
        gbc_ast::Span::new(self.start, self.end)
    }
}

/// Lexical error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    pub message: String,
    pub line: u32,
    pub col: u32,
    /// Byte offset of the offending character.
    pub offset: u32,
}

impl LexError {
    /// The error's source span (one character wide).
    pub fn span(&self) -> gbc_ast::Span {
        gbc_ast::Span::new(self.offset, self.offset + 1)
    }
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LexError {}

/// The lexer: yields one token at a time, so the parser holds a single
/// token of lookahead rather than the whole token stream.
pub(crate) struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
    /// Byte offset of the next character.
    offset: u32,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { chars: src.chars().peekable(), line: 1, col: 1, offset: 0 }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        match c {
            Some('\n') => {
                self.line += 1;
                self.col = 1;
                self.offset += 1;
            }
            Some(c) => {
                self.col += 1;
                self.offset += c.len_utf8() as u32;
            }
            None => {}
        }
        c
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError { message: message.into(), line: self.line, col: self.col, offset: self.offset }
    }

    /// The next token, skipping whitespace and comments; at the end of
    /// the source, [`TokenKind::Eof`] (again on every later call).
    pub(crate) fn next_token(&mut self) -> Result<Token, LexError> {
        loop {
            let (line, col, start) = (self.line, self.col, self.offset);
            let Some(c) = self.peek() else {
                return Ok(Token { kind: TokenKind::Eof, line, col, start, end: start });
            };
            let kind = match c {
                ' ' | '\t' | '\r' | '\n' => {
                    self.bump();
                    continue;
                }
                '%' => {
                    while let Some(c2) = self.bump() {
                        if c2 == '\n' {
                            break;
                        }
                    }
                    continue;
                }
                _ => self.token_kind(c)?,
            };
            return Ok(Token { kind, line, col, start, end: self.offset });
        }
    }

    /// Lex the token starting with `c` (not whitespace or a comment).
    fn token_kind(&mut self, c: char) -> Result<TokenKind, LexError> {
        self.bump();
        let kind = match c {
            '(' => TokenKind::LParen,
            ')' => TokenKind::RParen,
            ',' => TokenKind::Comma,
            '.' => TokenKind::Dot,
            '+' => TokenKind::Plus,
            '*' => TokenKind::Star,
            '/' => TokenKind::Slash,
            '~' | '¬' => TokenKind::Not,
            '-' => TokenKind::Minus,
            '=' => TokenKind::Eq,
            '!' => {
                if self.peek() != Some('=') {
                    return Err(self.error("expected `=` after `!`"));
                }
                self.bump();
                TokenKind::Ne
            }
            '<' => {
                let kind = match self.peek() {
                    Some('-') => TokenKind::Arrow,
                    Some('=') => TokenKind::Le,
                    Some('>') => TokenKind::Ne,
                    _ => return Ok(TokenKind::Lt),
                };
                self.bump();
                kind
            }
            '>' => {
                if self.peek() != Some('=') {
                    return Ok(TokenKind::Gt);
                }
                self.bump();
                TokenKind::Ge
            }
            ':' => {
                if self.peek() != Some('-') {
                    return Err(self.error("expected `-` after `:`"));
                }
                self.bump();
                TokenKind::Arrow
            }
            '"' => {
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.error("unterminated string literal")),
                        Some('"') => break,
                        Some('\\') => match self.bump() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            other => {
                                return Err(self.error(format!("unsupported escape `\\{other:?}`")))
                            }
                        },
                        Some(c2) => s.push(c2),
                    }
                }
                TokenKind::Str(s)
            }
            c if c.is_ascii_digit() => {
                let mut n = i64::from(c.to_digit(10).expect("a digit"));
                while let Some(d) = self.peek() {
                    let Some(dv) = d.to_digit(10) else { break };
                    self.bump();
                    n = match n.checked_mul(10).and_then(|m| m.checked_add(dv as i64)) {
                        Some(v) => v,
                        None => return Err(self.error("integer literal overflows i64")),
                    };
                }
                TokenKind::Int(n)
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::from(c);
                while let Some(d) = self.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if s == "not" {
                    TokenKind::Not
                } else if s.starts_with(|c: char| c.is_uppercase() || c == '_') {
                    TokenKind::Var(s)
                } else {
                    TokenKind::Ident(s)
                }
            }
            other => {
                // Point at the character itself, which is not a newline.
                let message = format!("unexpected character `{other}`");
                let (col, offset) = (self.col - 1, self.offset - other.len_utf8() as u32);
                return Err(LexError { message, line: self.line, col, offset });
            }
        };
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokenize `src` in full; the final token is always `Eof`.
    fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
        let mut lx = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let t = lx.next_token()?;
            let eof = t.kind == TokenKind::Eof;
            tokens.push(t);
            if eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_fact() {
        assert_eq!(
            kinds("g(a, b, 3)."),
            vec![
                TokenKind::Ident("g".into()),
                TokenKind::LParen,
                TokenKind::Ident("a".into()),
                TokenKind::Comma,
                TokenKind::Ident("b".into()),
                TokenKind::Comma,
                TokenKind::Int(3),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_arrows_and_comparisons() {
        assert_eq!(
            kinds("<- :- <= >= < > = != <>"),
            vec![
                TokenKind::Arrow,
                TokenKind::Arrow,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn variables_vs_identifiers() {
        assert_eq!(
            kinds("Crs takes _ _x I1"),
            vec![
                TokenKind::Var("Crs".into()),
                TokenKind::Ident("takes".into()),
                TokenKind::Var("_".into()),
                TokenKind::Var("_x".into()),
                TokenKind::Var("I1".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = tokenize("% header\np(X).\n").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("p".into()));
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[0].col, 1);
    }

    #[test]
    fn negation_spellings() {
        assert_eq!(
            kinds("not p ~p ¬p"),
            vec![
                TokenKind::Not,
                TokenKind::Ident("p".into()),
                TokenKind::Not,
                TokenKind::Ident("p".into()),
                TokenKind::Not,
                TokenKind::Ident("p".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(
            kinds(r#""hi \"there\"\n""#),
            vec![TokenKind::Str("hi \"there\"\n".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(tokenize("99999999999999999999").is_err());
    }

    #[test]
    fn stray_bang_is_an_error() {
        assert!(tokenize("p ! q").is_err());
    }

    #[test]
    fn positions_point_at_token_start() {
        let toks = tokenize("p(Xy)").unwrap();
        // `Xy` starts at column 3.
        assert_eq!(toks[2].kind, TokenKind::Var("Xy".into()));
        assert_eq!((toks[2].line, toks[2].col), (1, 3));
    }

    #[test]
    fn spans_cover_token_bytes() {
        let toks = tokenize("p(Xy, 12)").unwrap();
        // p ( Xy , 12 )
        assert_eq!((toks[0].start, toks[0].end), (0, 1));
        assert_eq!((toks[2].start, toks[2].end), (2, 4));
        assert_eq!((toks[4].start, toks[4].end), (6, 8));
        assert_eq!((toks[5].start, toks[5].end), (8, 9));
        let eof = toks.last().unwrap();
        assert_eq!((eof.start, eof.end), (9, 9));
    }

    #[test]
    fn spans_skip_comments_and_whitespace() {
        let src = "% hdr\n  p(X).";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("p".into()));
        assert_eq!(&src[toks[0].start as usize..toks[0].end as usize], "p");
        assert_eq!(&src[toks[2].start as usize..toks[2].end as usize], "X");
    }

    #[test]
    fn lex_error_carries_offset() {
        let err = tokenize("p ! q").unwrap_err();
        // `!` is bumped before the failed `=` check, so the error points
        // just past it; the span is still inside the source.
        assert!(err.offset >= 2 && err.offset <= 3);
    }
}
