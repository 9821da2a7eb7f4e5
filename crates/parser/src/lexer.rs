//! Hand-rolled lexer. Tracks line/column for diagnostics.
//!
//! Identifier and variable tokens borrow their text from the source, so
//! lexing a fact of integers and symbols allocates nothing.

use std::fmt;

/// Token kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind<'a> {
    /// Lowercase-initial identifier: predicate name, symbolic constant,
    /// or one of the keyword goals (the parser decides).
    Ident(&'a str),
    /// Uppercase- or `_`-initial identifier: variable. A bare `_` is the
    /// anonymous variable.
    Var(&'a str),
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

impl fmt::Display for TokenKind<'_> {
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
pub(crate) struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub line: u32,
    pub col: u32,
    pub start: u32,
    pub end: u32,
}

impl Token<'_> {
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
    src: &'a str,
    line: u32,
    col: u32,
    /// Byte offset of the next character.
    offset: u32,
}

/// Does `c` continue an identifier?
fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { src, line: 1, col: 1, offset: 0 }
    }

    fn peek(&self) -> Option<char> {
        let b = *self.src.as_bytes().get(self.offset as usize)?;
        if b.is_ascii() {
            Some(b as char)
        } else {
            self.src[self.offset as usize..].chars().next()
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.offset += c.len_utf8() as u32;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consume characters while `f` holds.
    fn bump_while(&mut self, f: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&f) {
            self.bump();
        }
    }

    /// Consume the ASCII bytes `f` accepts (none of them a newline),
    /// up to the first it rejects or a non-ASCII byte. Returns the
    /// offset reached.
    fn bump_ascii_while(&mut self, f: impl Fn(u8) -> bool) -> usize {
        let start = self.offset as usize;
        let bytes = &self.src.as_bytes()[start..];
        let len = bytes.iter().take_while(|&&b| b.is_ascii() && f(b)).count();
        self.col += len as u32;
        self.offset += len as u32;
        start + len
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError { message: message.into(), line: self.line, col: self.col, offset: self.offset }
    }

    /// The next token, skipping whitespace and comments; at the end of
    /// the source, [`TokenKind::Eof`] (again on every later call).
    pub(crate) fn next_token(&mut self) -> Result<Token<'a>, LexError> {
        loop {
            let (line, col, start) = (self.line, self.col, self.offset);
            let Some(c) = self.peek() else {
                return Ok(Token { kind: TokenKind::Eof, line, col, start, end: start });
            };
            let kind = match c {
                ' ' | '\t' | '\r' => {
                    self.bump_ascii_while(|b| matches!(b, b' ' | b'\t' | b'\r'));
                    continue;
                }
                '\n' => {
                    self.bump();
                    continue;
                }
                '%' => {
                    self.bump_while(|c| c != '\n');
                    continue;
                }
                _ => self.token_kind(c)?,
            };
            return Ok(Token { kind, line, col, start, end: self.offset });
        }
    }

    /// Lex the token starting with `c` (not whitespace or a comment).
    fn token_kind(&mut self, c: char) -> Result<TokenKind<'a>, LexError> {
        let start = self.offset as usize;
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
                let mut n = i64::from(c as u8 - b'0');
                while let Some(d) = self.src.as_bytes().get(self.offset as usize).copied() {
                    if !d.is_ascii_digit() {
                        break;
                    }
                    self.offset += 1;
                    self.col += 1;
                    n = match n.checked_mul(10).and_then(|m| m.checked_add(i64::from(d - b'0'))) {
                        Some(v) => v,
                        None => return Err(self.error("integer literal overflows i64")),
                    };
                }
                TokenKind::Int(n)
            }
            c if c.is_alphabetic() || c == '_' => {
                let end = self.bump_ascii_while(|b| b.is_ascii_alphanumeric() || b == b'_');
                if self.src.as_bytes().get(end).is_some_and(|b| !b.is_ascii()) {
                    self.bump_while(ident_char);
                }
                let s = &self.src[start..self.offset as usize];
                if s == "not" {
                    TokenKind::Not
                } else if c.is_uppercase() || c == '_' {
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
    fn tokenize(src: &str) -> Result<Vec<Token<'_>>, LexError> {
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

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_fact() {
        assert_eq!(
            kinds("g(a, b, 3)."),
            vec![
                TokenKind::Ident("g"),
                TokenKind::LParen,
                TokenKind::Ident("a"),
                TokenKind::Comma,
                TokenKind::Ident("b"),
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
                TokenKind::Var("Crs"),
                TokenKind::Ident("takes"),
                TokenKind::Var("_"),
                TokenKind::Var("_x"),
                TokenKind::Var("I1"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = tokenize("% header\np(X).\n").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("p"));
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[0].col, 1);
    }

    #[test]
    fn negation_spellings() {
        assert_eq!(
            kinds("not p ~p ¬p"),
            vec![
                TokenKind::Not,
                TokenKind::Ident("p"),
                TokenKind::Not,
                TokenKind::Ident("p"),
                TokenKind::Not,
                TokenKind::Ident("p"),
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
        assert_eq!(toks[2].kind, TokenKind::Var("Xy"));
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
        assert_eq!(toks[0].kind, TokenKind::Ident("p"));
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
