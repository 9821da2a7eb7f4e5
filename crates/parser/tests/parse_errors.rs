//! Parse and lex errors: no input panics the parser, and every error
//! names the line and column of the byte it points at.
//!
//! Seeded-loop style, like `prop_facts.rs`: the nine shipped programs,
//! their graph file and generated fact texts are mutated — byte flips,
//! truncation, inserted non-ASCII characters, tabs, `\r\n` line ends,
//! deep nesting, an integer one past `i64::MAX` — and each result must
//! parse or fail cleanly. A table then pins the exact position and
//! message of errors on lines where bytes and characters differ.

use gbc_ast::{SourceMap, Span};
use gbc_parser::{parse_program, ParseError};
use gbc_telemetry::rng::Rng;

const SHIPPED: [&str; 10] = [
    include_str!("../../../programs/assignment.dl"),
    include_str!("../../../programs/huffman.dl"),
    include_str!("../../../programs/kruskal.dl"),
    include_str!("../../../programs/matching.dl"),
    include_str!("../../../programs/prim.dl"),
    include_str!("../../../programs/scheduling.dl"),
    include_str!("../../../programs/sort.dl"),
    include_str!("../../../programs/spanning.dl"),
    include_str!("../../../programs/tsp.dl"),
    include_str!("../../../programs/graph_small.dl"),
];

/// Pieces spliced into sources: non-ASCII characters (one is the `¬`
/// token), whitespace the lexer skips, and tokens that open errors.
const INSERTS: [&str; 16] = [
    "é",
    "¬",
    "€",
    "Ж",
    "𝔸",
    "\u{FFFD}",
    "\t",
    "\r\n",
    "\"",
    "\\",
    "9223372036854775808",
    "-9223372036854775808",
    "%",
    "!",
    ":",
    "(",
];

/// A text of ground facts over a few predicates.
fn fact_text(rng: &mut Rng) -> String {
    let mut text = String::new();
    for _ in 0..1 + rng.below_usize(12) {
        let args: Vec<String> = (0..rng.below_usize(4))
            .map(|_| match rng.below(5) {
                0 => rng.range_i64(-1_000_000, 1_000_000).to_string(),
                1 => "nil".to_owned(),
                2 => ["a", "node_7", "ünï"][rng.below_usize(3)].to_owned(),
                3 => ["\"\"", "\"s p\"", "\"q\\\"t\"", "\"a\\\\b\\nc\""][rng.below_usize(4)]
                    .to_owned(),
                _ => format!("f({}, t(1))", rng.range_i64(-5, 5)),
            })
            .collect();
        let pred = ["g", "p", "e"][rng.below_usize(3)];
        if args.is_empty() {
            text.push_str(&format!("{pred}.\n"));
        } else {
            text.push_str(&format!("{pred}({}).\n", args.join(", ")));
        }
    }
    text
}

/// A character boundary of `s`, uniformly among its bytes' positions.
fn boundary(rng: &mut Rng, s: &str) -> usize {
    let mut at = rng.below_usize(s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One to three random edits of `src`.
fn mutate(rng: &mut Rng, src: &str) -> String {
    let mut s = src.to_owned();
    for _ in 0..1 + rng.below_usize(3) {
        match rng.below(6) {
            0 => {
                // Byte flip; an invalid UTF-8 result decodes lossily,
                // which inserts U+FFFD, one more non-ASCII character.
                let mut bytes = s.into_bytes();
                if !bytes.is_empty() {
                    let i = rng.below_usize(bytes.len());
                    bytes[i] ^= 1 << rng.below(8);
                }
                s = String::from_utf8_lossy(&bytes).into_owned();
            }
            1 => {
                let at = boundary(rng, &s);
                s.truncate(at);
            }
            2 => {
                let at = boundary(rng, &s);
                s.insert_str(at, INSERTS[rng.below_usize(INSERTS.len())]);
            }
            3 => s = s.replace('\n', "\r\n"),
            4 => {
                // Deep nesting, around the parser's cap.
                let depth = 250 + rng.below_usize(20);
                let (open, close) =
                    [("f(", ")"), ("(", ")"), ("-", ""), ("max(1, ", ")")][rng.below_usize(4)];
                let at = boundary(rng, &s);
                let nest = format!("{}1{}", open.repeat(depth), close.repeat(depth));
                s.insert_str(at, &nest);
            }
            _ => {
                let at = boundary(rng, &s);
                s.insert(at, ['\t', ' ', '\n', '.', ',', ')', 'X'][rng.below_usize(7)]);
            }
        }
    }
    s
}

/// The 1-based line and column of byte `offset`: each `\n` starts a
/// line, and every other character — a tab, a `\r`, a non-ASCII
/// character — is one column.
fn line_col(src: &str, offset: usize) -> (u32, u32) {
    let before = &src[..offset];
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let line = 1 + before.matches('\n').count() as u32;
    (line, 1 + before[line_start..].chars().count() as u32)
}

/// An error must span whole characters inside the source, name its
/// first byte's line and column, and render as a diagnostic.
fn check_error(src: &str, e: &ParseError) {
    let Span { start, end } = e.span;
    let (start, end) = (start as usize, end as usize);
    // The span lies inside the source, on character boundaries, so a
    // diagnostic can slice the source by it.
    assert!(src.get(start..end).is_some(), "span {start}..{end} of {}: {e}", src.len());
    assert_eq!((e.line, e.col), line_col(src, start), "{e}");
    let rendered = e.to_diagnostic().render(&SourceMap::single("fuzz.dl", src));
    assert!(rendered.contains("GBC001"), "{rendered}");
}

#[test]
fn mutated_sources_parse_or_fail_cleanly() {
    let mut rng = Rng::new(0x5EED_F022);
    let mut errors = 0;
    for case in 0..3000 {
        let base = if case % 2 == 0 {
            SHIPPED[rng.below_usize(SHIPPED.len())].to_owned()
        } else {
            fact_text(&mut rng)
        };
        let src = mutate(&mut rng, &base);
        match std::panic::catch_unwind(|| parse_program(&src)) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => {
                errors += 1;
                check_error(&src, &e);
            }
            Err(_) => panic!("case {case}: parse_program panicked on\n{src:?}"),
        }
    }
    // The mutations must actually reach the error paths.
    assert!(errors > 1000, "only {errors} of 3000 mutated sources failed to parse");
}

/// `(source, rendered error, span)`: lex and parse errors on lines
/// holding non-ASCII identifiers, `¬`, tabs and CRLF line ends, and on
/// a last line with no newline.
const POSITIONS: [(&str, &str, (u32, u32)); 19] = [
    ("p(é, ö) q.", "parse error at 1:9: expected `.`, found identifier `q`", (10, 11)),
    (
        "q(X) <- p(X), ¬ r(X), ¬ 5.",
        "parse error at 1:25: expected predicate name, found integer `5`",
        (26, 27),
    ),
    ("\tp(a).\n\tq(\t#).", "parse error at 2:5: unexpected character `#`", (11, 12)),
    (
        "p(a).\r\nq(b).\r\nr(c) d.\r\n",
        "parse error at 3:6: expected `.`, found identifier `d`",
        (19, 20),
    ),
    ("p(a).\r\n\r!", "parse error at 2:3: expected `=` after `!`", (9, 9)),
    ("p(a).\nq(b)", "parse error at 2:5: expected `.`, found end of input", (10, 10)),
    ("p(a).\nq(\"ab", "parse error at 2:6: unterminated string literal", (11, 11)),
    ("p(a).\nq(€).", "parse error at 2:3: unexpected character `€`", (8, 11)),
    ("p(\"a\\tb\").", "parse error at 1:5: unsupported escape `\\t`", (4, 5)),
    ("p(\"a\\\nb\").", "parse error at 1:5: unsupported escape: `\\` followed by `\\n`", (4, 5)),
    ("p(\"a\\", "parse error at 1:6: unterminated string literal", (5, 5)),
    ("p(\"a\\\n", "parse error at 1:5: unsupported escape: `\\` followed by `\\n`", (4, 5)),
    ("p(9223372036854775808).", "parse error at 1:22: integer literal overflows i64", (21, 22)),
    ("p(\"a\nb\") q.", "parse error at 2:5: expected `.`, found identifier `q`", (9, 10)),
    ("p(a) \"x\\\"y\".", "parse error at 1:6: expected `.`, found string \"x\\\"y\"", (5, 11)),
    ("p(Ä) <- q(Ä), Ä < .", "parse error at 1:19: expected a term, found `.`", (21, 22)),
    ("p(a).\r\n\tq(ß,\t¬).", "parse error at 2:7: expected a term, found `not`", (14, 16)),
    ("p(ünï) :", "parse error at 1:9: expected `-` after `:`", (10, 10)),
    ("née(X) <- p(X), X = (((1).", "parse error at 1:26: expected `)`, found `.`", (26, 27)),
];

#[test]
fn error_positions_count_characters_not_bytes() {
    for (src, want, (start, end)) in POSITIONS {
        let e = parse_program(src).expect_err(src);
        assert_eq!(e.to_string(), want, "{src:?}");
        assert_eq!((e.span.start, e.span.end), (start, end), "{src:?}");
        check_error(src, &e);
    }
}
