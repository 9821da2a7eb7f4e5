//! Hand-rolled lexer.
//!
//! A token is its kind and the byte range it occupies: twelve bytes,
//! passed around in registers. Its text is that range of the source,
//! read by the parser when it needs a name or a value; nothing is
//! counted per character. Line and column are worked out from a byte
//! offset only when an error is built ([`line_col`]).
//!
//! A string literal's escapes are checked here and decoded by the
//! parser ([`unescape`]); an integer literal's digits are checked here
//! and read again by the parser ([`int_value`]).

use std::borrow::Cow;
use std::fmt;

/// Token kinds. An identifier's, variable's or literal's text is its
/// token's byte range ([`Token::text`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Lowercase-initial identifier: predicate name, symbolic constant,
    /// or one of the keyword goals (the parser decides).
    Ident,
    /// Uppercase- or `_`-initial identifier: variable. A bare `_` is the
    /// anonymous variable.
    Var,
    /// Integer literal: digits that fit an `i64` (unary minus is handled
    /// in the parser).
    Int,
    /// Double-quoted string literal, quotes included, whose escapes
    /// (`\"`, `\\`, `\n`) the lexer has checked.
    Str,
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
        f.write_str(match self {
            TokenKind::Ident => "identifier",
            TokenKind::Var => "variable",
            TokenKind::Int => "integer",
            TokenKind::Str => "string",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::Comma => "`,`",
            TokenKind::Dot => "`.`",
            TokenKind::Arrow => "`<-`",
            TokenKind::Eq => "`=`",
            TokenKind::Ne => "`!=`",
            TokenKind::Lt => "`<`",
            TokenKind::Le => "`<=`",
            TokenKind::Gt => "`>`",
            TokenKind::Ge => "`>=`",
            TokenKind::Plus => "`+`",
            TokenKind::Minus => "`-`",
            TokenKind::Star => "`*`",
            TokenKind::Slash => "`/`",
            TokenKind::Not => "`not`",
            TokenKind::Eof => "end of input",
        })
    }
}

/// The value of a string literal's raw text (between the quotes), as
/// the lexer checked it: `\"`, `\\` and `\n` are the only escapes.
pub(crate) fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut s = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            s.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => s.push('\n'),
            Some(e) => s.push(e),
            None => {}
        }
    }
    Cow::Owned(s)
}

/// The 1-based line and column of byte `offset` of `src`, a character
/// boundary: each `\n` starts a line, and every other character — a
/// tab, a `\r`, a non-ASCII character — is one column.
pub(crate) fn line_col(src: &str, offset: u32) -> (u32, u32) {
    let before = &src[..offset as usize];
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let line = 1 + before.bytes().filter(|&b| b == b'\n').count();
    let col = 1 + before[line_start..].chars().count();
    (line as u32, col as u32)
}

/// The eight source bytes from `at`, read little-endian (the first
/// byte lowest), when there are eight.
fn word_at(src: &str, at: usize) -> Option<u64> {
    let bytes = src.as_bytes().get(at..at + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
}

/// How many of a word's bytes, from the first, are ASCII digits.
fn digit_run(word: u64) -> usize {
    const LANES: u64 = 0x0101_0101_0101_0101;
    // The high bit of each byte that is no digit: b - '0' wraps below
    // '0', and b + 0x46 reaches 0x80 above '9'. A borrow or carry can
    // cross only out of a byte that is no digit, so the first such
    // byte is always flagged.
    let others =
        (word.wrapping_sub(0x30 * LANES) | word.wrapping_add(0x46 * LANES)) & (0x80 * LANES);
    (others.trailing_zeros() / 8) as usize
}

/// The value of a word's first `len` bytes, ASCII digits, `len < 8`.
fn short_value(word: u64, len: usize) -> i64 {
    const LANES: u64 = 0x0101_0101_0101_0101;
    // Shift the digit values to the top, zero bytes below them standing
    // for leading zeros, and fold pairs of lanes: 8 one-digit lanes,
    // then 4 two-digit, 2 four-digit and 1 eight-digit value.
    let v = word.wrapping_sub(0x30 * LANES) << (8 * (8 - len));
    let v = v.wrapping_mul(10 << 8 | 1) >> 8;
    let v = (v & 0x00FF_00FF_00FF_00FF).wrapping_mul(100 << 16 | 1) >> 16;
    let v = (v & 0x0000_FFFF_0000_FFFF).wrapping_mul(10_000 << 32 | 1) >> 32;
    v as i64
}

/// The value of the integer token `t` of `src`, whose digits the lexer
/// checked to fit an `i64`.
pub(crate) fn int_value(src: &str, t: Token) -> i64 {
    let (start, end) = (t.start as usize, t.end as usize);
    match word_at(src, start) {
        Some(word) if end - start < 8 => short_value(word, end - start),
        _ => src.as_bytes()[start..end].iter().fold(0, |n, &d| n * 10 + i64::from(d - b'0')),
    }
}

/// A token: its kind and the half-open byte range `[start, end)` it
/// occupies in the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub start: u32,
    pub end: u32,
}

impl Token {
    /// The token's source span.
    pub fn span(self) -> gbc_ast::Span {
        gbc_ast::Span::new(self.start, self.end)
    }

    /// The token's text in `src`.
    pub fn text(self, src: &str) -> &str {
        &src[self.start as usize..self.end as usize]
    }

    /// How an error message names the token: by its text or value where
    /// it has one, else by its kind.
    pub fn describe(self, src: &str) -> String {
        let text = self.text(src);
        match self.kind {
            TokenKind::Ident => format!("identifier `{text}`"),
            TokenKind::Var => format!("variable `{text}`"),
            TokenKind::Int => format!("integer `{}`", int_value(src, self)),
            TokenKind::Str => format!("string {:?}", unescape(&text[1..text.len() - 1])),
            kind => kind.to_string(),
        }
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
    /// Byte offset just past it: `offset` itself at the end of the
    /// source, so the span never leaves it.
    pub end: u32,
}

impl LexError {
    /// An error at byte `offset` of `src`, a character boundary.
    fn new(src: &str, offset: u32, message: impl Into<String>) -> LexError {
        let (line, col) = line_col(src, offset);
        let rest = src.get(offset as usize..).unwrap_or_default();
        let width = rest.chars().next().map_or(0, char::len_utf8);
        LexError { message: message.into(), line, col, offset, end: offset + width as u32 }
    }

    /// The error's source span: the whole offending character, or the
    /// empty span at the end of the source.
    pub fn span(&self) -> gbc_ast::Span {
        gbc_ast::Span::new(self.offset, self.end)
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
///
/// The first lex error ends the token stream: the lexer keeps the error
/// ([`Lexer::error`]) and yields [`TokenKind::Eof`] from there on.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next character.
    offset: u32,
    error: Option<LexError>,
}

/// Does `c` continue an identifier?
fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Up to this many digits, an integer literal cannot overflow `i64`.
const SAFE_DIGITS: usize = 18;

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { src, offset: 0, error: None }
    }

    /// The source being lexed.
    pub(crate) fn src(&self) -> &'a str {
        self.src
    }

    /// The lex error that ended the token stream, if one did.
    pub(crate) fn error(&self) -> Option<&LexError> {
        self.error.as_ref()
    }

    /// Lex to the end of the source, for a lex error after the point
    /// a parse stopped.
    pub(crate) fn finish(&mut self) {
        while self.next_token().kind != TokenKind::Eof {}
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
        Some(c)
    }

    /// Consume characters while `f` holds.
    fn bump_while(&mut self, f: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&f) {
            self.bump();
        }
    }

    /// Consume the ASCII bytes `f` accepts, up to the first it rejects
    /// or a non-ASCII byte. Returns the offset reached.
    fn bump_ascii_while(&mut self, f: impl Fn(u8) -> bool) -> usize {
        let start = self.offset as usize;
        let bytes = &self.src.as_bytes()[start..];
        let len = bytes.iter().take_while(|&&b| b.is_ascii() && f(b)).count();
        self.offset += len as u32;
        start + len
    }

    /// Consume byte `b` if it comes next.
    fn eat_byte(&mut self, b: u8) -> bool {
        let hit = self.src.as_bytes().get(self.offset as usize) == Some(&b);
        self.offset += u32::from(hit);
        hit
    }

    /// Record the error at byte `offset` and end the token stream.
    #[cold]
    fn fail(&mut self, offset: u32, message: impl Into<String>) -> TokenKind {
        self.error = Some(LexError::new(self.src, offset, message));
        self.offset = self.src.len() as u32;
        TokenKind::Eof
    }

    /// [`Lexer::fail`] at the next character.
    fn fail_here(&mut self, message: impl Into<String>) -> TokenKind {
        self.fail(self.offset, message)
    }

    /// The next token, skipping whitespace and comments; at the end of
    /// the source or a lex error, [`TokenKind::Eof`] (again on every
    /// later call). Inlined into the parser's `bump`; the token bodies
    /// are lexed out of line.
    #[inline]
    pub(crate) fn next_token(&mut self) -> Token {
        let bytes = self.src.as_bytes();
        let mut at = self.offset as usize;
        loop {
            match bytes.get(at) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => at += 1,
                // A newline byte is never part of a longer character.
                Some(b'%') => {
                    at =
                        bytes[at..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| at + i)
                }
                _ => break,
            }
        }
        self.offset = at as u32;
        let start = self.offset;
        let kind = match bytes.get(at) {
            None => TokenKind::Eof,
            Some(&b) if b.is_ascii() => {
                self.offset += 1;
                self.ascii_token(b)
            }
            Some(_) => self.unicode_token(),
        };
        Token { kind, start, end: self.offset }
    }

    /// Lex the rest of the token that starts with the ASCII byte `b`,
    /// just consumed (not whitespace or a comment).
    fn ascii_token(&mut self, b: u8) -> TokenKind {
        let start = self.offset - 1;
        match b {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b'+' => TokenKind::Plus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'~' => TokenKind::Not,
            b'-' => TokenKind::Minus,
            b'=' => TokenKind::Eq,
            b'!' if self.eat_byte(b'=') => TokenKind::Ne,
            b'!' => self.fail_here("expected `=` after `!`"),
            b'<' if self.eat_byte(b'-') => TokenKind::Arrow,
            b'<' if self.eat_byte(b'=') => TokenKind::Le,
            b'<' if self.eat_byte(b'>') => TokenKind::Ne,
            b'<' => TokenKind::Lt,
            b'>' if self.eat_byte(b'=') => TokenKind::Ge,
            b'>' => TokenKind::Gt,
            b':' if self.eat_byte(b'-') => TokenKind::Arrow,
            b':' => self.fail_here("expected `-` after `:`"),
            b'"' => self.string(),
            b'0'..=b'9' => self.integer(start as usize),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                self.word(start as usize, b.is_ascii_uppercase() || b == b'_')
            }
            other => self.fail(start, format!("unexpected character `{}`", other as char)),
        }
    }

    /// Lex the token that starts with a non-ASCII character.
    fn unicode_token(&mut self) -> TokenKind {
        let start = self.offset;
        match self.bump().expect("a character follows") {
            '¬' => TokenKind::Not,
            c if c.is_alphabetic() => self.word(start as usize, c.is_uppercase()),
            other => self.fail(start, format!("unexpected character `{other}`")),
        }
    }

    /// The rest of the identifier or variable (`var`) that starts at
    /// byte `start`, its first character consumed.
    fn word(&mut self, start: usize, var: bool) -> TokenKind {
        let end = self.bump_ascii_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        if self.src.as_bytes().get(end).is_some_and(|b| !b.is_ascii()) {
            self.bump_while(ident_char);
        }
        if &self.src[start..self.offset as usize] == "not" {
            TokenKind::Not
        } else if var {
            TokenKind::Var
        } else {
            TokenKind::Ident
        }
    }

    /// The rest of the integer literal whose first digit, at byte
    /// `start`, was just consumed.
    ///
    /// A literal of fewer than eight digits, with eight bytes of source
    /// from its start, is measured eight bytes at a time. Only a
    /// literal longer than [`SAFE_DIGITS`] can overflow: each digit
    /// after those is checked, and the error points just past the digit
    /// that overflows.
    fn integer(&mut self, start: usize) -> TokenKind {
        let run = word_at(self.src, start).map_or(8, digit_run);
        if run < 8 {
            self.offset = (start + run) as u32;
            return TokenKind::Int;
        }
        let end = self.bump_ascii_while(|b| b.is_ascii_digit());
        let digits = &self.src.as_bytes()[start..end];
        if digits.len() > SAFE_DIGITS {
            let (safe, rest) = digits.split_at(SAFE_DIGITS);
            let mut n = safe.iter().fold(0i64, |n, &d| n * 10 + i64::from(d - b'0'));
            for (i, &d) in rest.iter().enumerate() {
                match n.checked_mul(10).and_then(|m| m.checked_add(i64::from(d - b'0'))) {
                    Some(v) => n = v,
                    None => {
                        let past = start + SAFE_DIGITS + i + 1;
                        return self.fail(past as u32, "integer literal overflows i64");
                    }
                }
            }
        }
        TokenKind::Int
    }

    /// The rest of the string literal whose opening quote was just
    /// consumed: its escapes are checked, not decoded.
    fn string(&mut self) -> TokenKind {
        loop {
            let at = self.offset;
            match self.bump() {
                None => return self.fail_here("unterminated string literal"),
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('"' | '\\' | 'n') => {}
                    // Pointed at the backslash; a character that does not
                    // print, a line break above all, is named by its
                    // escape, so the message stays on one line.
                    Some(c) => {
                        let named: String = c.escape_debug().collect();
                        let message = if named.chars().eq([c]) {
                            format!("unsupported escape `\\{c}`")
                        } else {
                            format!("unsupported escape: `\\` followed by `{named}`")
                        };
                        return self.fail(at, message);
                    }
                    None => return self.fail_here("unterminated string literal"),
                },
                Some(_) => {}
            }
        }
        TokenKind::Str
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
            let t = lx.next_token();
            if let Some(e) = lx.error() {
                return Err(e.clone());
            }
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

    /// Each token's kind and text.
    fn lexed(src: &str) -> Vec<(TokenKind, &str)> {
        tokenize(src).unwrap().into_iter().map(|t| (t.kind, t.text(src))).collect()
    }

    #[test]
    fn lexes_a_fact() {
        use TokenKind::*;
        assert_eq!(
            lexed("g(a, b, 3)."),
            vec![
                (Ident, "g"),
                (LParen, "("),
                (Ident, "a"),
                (Comma, ","),
                (Ident, "b"),
                (Comma, ","),
                (Int, "3"),
                (RParen, ")"),
                (Dot, "."),
                (Eof, ""),
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
        use TokenKind::*;
        assert_eq!(
            lexed("Crs takes _ _x I1"),
            vec![(Var, "Crs"), (Ident, "takes"), (Var, "_"), (Var, "_x"), (Var, "I1"), (Eof, "")]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let src = "% header\np(X).\n";
        let toks = tokenize(src).unwrap();
        assert_eq!((toks[0].kind, toks[0].text(src)), (TokenKind::Ident, "p"));
        assert_eq!(line_col(src, toks[0].start), (2, 1));
    }

    #[test]
    fn negation_spellings() {
        use TokenKind::*;
        assert_eq!(
            lexed("not p ~p ¬p"),
            vec![
                (Not, "not"),
                (Ident, "p"),
                (Not, "~"),
                (Ident, "p"),
                (Not, "¬"),
                (Ident, "p"),
                (Eof, "")
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        let src = r#""hi \"there\"\n""#;
        assert_eq!(lexed(src), vec![(TokenKind::Str, src), (TokenKind::Eof, "")]);
        assert_eq!(unescape(r#"hi \"there\"\n"#), "hi \"there\"\n");
        let t = tokenize(src).unwrap()[0];
        assert_eq!(t.describe(src), r#"string "hi \"there\"\n""#);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(tokenize("\"oops").is_err());
    }

    /// Short literals are measured and read eight bytes at a time,
    /// longer ones and those near the end of the source digit by digit:
    /// both agree with `str::parse`, whatever follows the digits.
    #[test]
    fn integers_of_every_length_lex_to_their_value() {
        for len in 1..=19 {
            let digits: String = (0..len).map(|i| char::from(b'1' + (i % 9) as u8)).collect();
            let want: i64 = digits.parse().unwrap();
            for tail in ["", ")", ",1).\n", "é", "x9", "/", "¬"] {
                let src = format!("{digits}{tail}");
                let t = tokenize(&src).unwrap_or_else(|e| panic!("{src:?}: {e}"))[0];
                assert_eq!(
                    (t.kind, t.end, int_value(&src, t)),
                    (TokenKind::Int, len, want),
                    "{src:?}"
                );
            }
        }
        let src = "0 007 9223372036854775807";
        let toks = tokenize(src).unwrap();
        let values: Vec<i64> = toks[..3].iter().map(|&t| int_value(src, t)).collect();
        assert_eq!(values, [0, 7, i64::MAX]);
        assert_eq!(toks[1].describe(src), "integer `7`");
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
        let src = "p(Xy)";
        let toks = tokenize(src).unwrap();
        // `Xy` starts at column 3.
        assert_eq!((toks[2].kind, toks[2].text(src)), (TokenKind::Var, "Xy"));
        assert_eq!(line_col(src, toks[2].start), (1, 3));
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
        assert_eq!(toks[0].kind, TokenKind::Ident);
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
