//! A minimal JSON value model with a correct writer and reader — no
//! serde.
//!
//! Only what `--stats-json` and the bench tooling need: objects,
//! arrays, strings (with full escaping), integers, floats, booleans and
//! null. Floats render via the shortest round-trip `{}` formatting;
//! non-finite floats render as `null` (JSON has no NaN/Infinity). The
//! reader ([`Json::parse`]) is a recursive-descent parser over the same
//! model, used by `experiments --compare` to re-read the bench
//! trajectory it wrote.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object constructor from `&str` keys.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Parse a JSON document. Numbers without a fraction or exponent
    /// parse as `Int`/`UInt` (so counters survive a round trip with
    /// their integer identity intact); anything else becomes `Float`.
    ///
    /// Containers may nest at most [`MAX_PARSE_DEPTH`] levels deep.
    /// The parser is recursive-descent, so an adversarial document like
    /// `[[[[…` would otherwise translate directly into unbounded native
    /// stack growth; past the limit it returns a structured error
    /// instead. Every document the workspace itself writes nests a
    /// handful of levels, so the bound is unobservable in normal use —
    /// it exists for untrusted input (`gbc serve` request bodies).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Look up a field of an object by key (None on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, when it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

/// Deepest container nesting [`Json::parse`] accepts. Each level of an
/// array or object costs one recursion frame, so this caps native stack
/// use at a few tens of kilobytes — far below any thread's stack — no
/// matter what a client sends.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Recursive-descent JSON reader over a string, scanned as bytes.
struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes; `pos` indexes both.
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, checked against [`MAX_PARSE_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Enter one container level, failing once the document nests
    /// deeper than [`MAX_PARSE_DEPTH`]. Callers pair it with a
    /// `self.depth -= 1` on exit.
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            // Surrogate pairs arrive as two \u escapes.
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err("unpaired surrogate".into());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            // hex4 leaves pos past the digits; undo the
                            // generic advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of unescaped bytes up to the next `"`
                    // or `\` in one go. Both are ASCII, so the run ends
                    // on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let end = self.pos + len.unwrap_or(rest.len());
                    out.push_str(self.text.get(self.pos..end).ok_or("string splits a char")?);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(digits, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(if i >= 0 { Json::UInt(i as u64) } else { Json::Int(i) });
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::UInt(u) => write!(f, "{u}"),
            Json::Float(x) if x.is_finite() => {
                // `{}` prints integral floats without a dot; add one so
                // the value stays typed as a float on re-parse.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    write_escaped(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-3).to_string(), "-3");
        assert_eq!(Json::UInt(18446744073709551615).to_string(), "18446744073709551615");
        assert_eq!(Json::Float(1.5).to_string(), "1.5");
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\te\u{1}".into()).to_string(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn compound_values_render_compactly() {
        let j = Json::obj(vec![
            ("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("s", Json::Str("hi".into())),
        ]);
        assert_eq!(j.to_string(), r#"{"xs":[1,2],"s":"hi"}"#);
    }

    #[test]
    fn pretty_printing_indents() {
        let j = Json::obj(vec![("a", Json::Arr(vec![Json::Int(1)]))]);
        assert_eq!(j.pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty_mode() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn parse_round_trips_the_writer_output() {
        let j = Json::obj(vec![
            ("label", Json::Str("ci-quick \"q\"\n".into())),
            ("count", Json::UInt(18446744073709551615)),
            ("delta", Json::Int(-3)),
            ("secs", Json::Float(0.125)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("empty", Json::Obj(vec![]))])),
        ]);
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parse_keeps_integers_integral() {
        // Counters written as integers must re-read as integers, not
        // floats — `--compare` does exact equality on them.
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1e2").unwrap(), Json::Float(100.0));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(Json::parse(r#""a\"b\\c\ndAé""#).unwrap(), Json::Str("a\"b\\c\ndAé".into()));
        // \u escapes: BMP scalar and a surrogate pair for U+1D11E.
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".into()));
        assert_eq!(Json::parse("\"\\uD834\\uDD1E\"").unwrap(), Json::Str("\u{1D11E}".into()));
        // Raw multi-byte UTF-8 passes through unescaped.
        assert_eq!(Json::parse("\"𝄞\"").unwrap(), Json::Str("\u{1D11E}".into()));
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn unescaped_runs_and_escapes_interleave() {
        // Multi-byte scalars on both sides of escapes, a surrogate pair
        // between two raw runs, and a run ending at the closing quote.
        let text = "\"é\\u00e9𝄞\\uD834\\uDD1E中文\\n\\\"x\"";
        assert_eq!(Json::parse(text).unwrap(), Json::Str("éé𝄞\u{1D11E}中文\n\"x".into()));
        let long = "ü€".repeat(10_000);
        assert_eq!(Json::parse(&format!("\"{long}\"")).unwrap(), Json::Str(long));
        assert!(Json::parse("\"é").is_err(), "unterminated after a raw run");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    /// `depth` levels of nested arrays: `[[…[0]…]]`.
    fn nested_arrays(depth: usize) -> String {
        format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn parse_accepts_nesting_up_to_the_depth_limit() {
        let doc = nested_arrays(MAX_PARSE_DEPTH);
        let mut v = Json::parse(&doc).expect("exactly MAX_PARSE_DEPTH levels must parse");
        for _ in 0..MAX_PARSE_DEPTH {
            let Json::Arr(items) = v else { panic!("expected an array") };
            v = items.into_iter().next().expect("one item per level");
        }
        assert_eq!(v, Json::UInt(0));
        // Mixed containers count object and array levels alike.
        let mixed = format!(
            "{}{}1{}{}",
            "{\"k\":".repeat(60),
            "[".repeat(60),
            "]".repeat(60),
            "}".repeat(60)
        );
        assert!(Json::parse(&mixed).is_ok(), "120 mixed levels are within the limit");
    }

    #[test]
    fn parse_rejects_nesting_past_the_depth_limit_with_a_structured_error() {
        // One level past the limit: a structured error, not a stack
        // overflow — this is the `gbc serve` adversarial-body guard.
        let err = Json::parse(&nested_arrays(MAX_PARSE_DEPTH + 1))
            .expect_err("past-limit nesting must fail");
        assert!(err.contains("nesting deeper than"), "unexpected error: {err}");
        assert!(err.contains(&MAX_PARSE_DEPTH.to_string()), "limit missing from: {err}");
        // Depth is what fails, not length: a very LONG but FLAT document
        // of the same size parses fine.
        let flat = format!("[{}0]", "0,".repeat(2 * MAX_PARSE_DEPTH));
        assert!(Json::parse(&flat).is_ok(), "flat documents are unaffected by the depth limit");
        // An adversarial body far past the limit still fails cleanly.
        assert!(Json::parse(&nested_arrays(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn depth_resets_between_sibling_containers() {
        // Siblings at the same level must not accumulate depth: the
        // counter is nesting depth, not container count.
        let doc = format!(
            "[{},{},{}]",
            nested_arrays(MAX_PARSE_DEPTH - 1),
            nested_arrays(MAX_PARSE_DEPTH - 1),
            nested_arrays(MAX_PARSE_DEPTH - 1)
        );
        assert!(Json::parse(&doc).is_ok(), "siblings each get the full depth budget");
    }

    #[test]
    fn accessors_navigate_objects() {
        let j = Json::obj(vec![
            ("n", Json::UInt(5)),
            ("x", Json::Float(1.5)),
            ("s", Json::Str("hi".into())),
            ("xs", Json::Arr(vec![Json::UInt(1)])),
        ]);
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(5.0));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(j.get("xs").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }
}
