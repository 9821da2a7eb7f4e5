//! Compiler-grade diagnostics: stable error codes, severities, labeled
//! spans, and a rustc-style source-snippet renderer.
//!
//! Every static check in the pipeline (parser, AST validation, the
//! Section 4 stage-stratification analysis, the semantic lint pass)
//! reports through this type, so `gbc check` can point at the exact
//! offending literal and name the violated paper condition.
//!
//! # Error-code registry
//!
//! | code   | severity | meaning |
//! |--------|----------|---------|
//! | GBC001 | error    | syntax error (lexer or parser) |
//! | GBC002 | error    | predicate used with inconsistent arities |
//! | GBC003 | error    | unsafe (non-range-restricted) variable |
//! | GBC004 | error    | fact with a non-ground head |
//! | GBC005 | error    | `next(I)` stage variable not a bare head argument exactly once |
//! | GBC006 | error    | more than one `next` goal in a rule |
//! | GBC010 | error    | negation/extrema through recursion (unstratified) |
//! | GBC011 | warning  | predicate inferred with conflicting stage positions |
//! | GBC012 | warning  | stage-clique predicate has no stage argument |
//! | GBC013 | warning  | predicate defined by both next and flat recursive rules |
//! | GBC014 | warning  | next rule has no head stage variable |
//! | GBC015 | warning  | next-rule body stage variable not provably `<` the head stage |
//! | GBC016 | warning  | next-rule extremum group is neither empty nor the stage variable |
//! | GBC017 | warning  | flat-rule body stage variable not provably `≤`/`<` the head stage |
//! | GBC018 | warning  | flat rule applies an extremum over clique predicates |
//! | GBC020 | warning  | flat rules are recursive: alternation defeated (`Q^∞` needed) |
//! | GBC021 | warning  | `choice` argument is not a variable |
//! | GBC022 | warning  | stage variable used as an extremum cost |
//! | GBC023 | warning  | extremum group variable does not appear in the rule head |
//! | GBC024 | warning  | dead predicate: defined by plain rules, never used |
//! | GBC025 | warning  | singleton variable (occurs once; use `_`) |
//! | GBC026 | warning  | type conflict at an interpreted position (comparison/arithmetic) |
//! | GBC027 | warning  | dead rule: body is provably unsatisfiable |
//! | GBC028 | warning  | unreachable predicate: never feeds a program answer |
//! | GBC029 | warning  | head term at a stage position has a non-`Int` type |
//! | GBC030 | warning  | extremum cost column inferred as non-`Int` (no fast heap) |
//! | GBC031 | warning  | constant-foldable comparison (always true or always false) |
//! | GBC032 | note     | next rule eligible for the bindings-free feed fast path |
//!
//! Codes GBC011–GBC018 are warnings, not errors: a program that fails
//! stage stratification is still evaluable by the generic choice
//! fixpoint (Theorem 1 holds outside the greedy class); the diagnostics
//! explain why the Section 6 executor will not be used. GBC026–GBC031
//! come from the whole-program type/reachability analysis (`gbc
//! analyze`); GBC032 is a note — purely informational, never counted
//! against `--deny-warnings`.

use std::fmt;

use crate::span::{SourceMap, Span};

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Purely informational (e.g. a fast path the planner will take);
    /// never counted by `--deny-warnings`.
    Note,
    /// Advisory; execution proceeds (possibly on a fallback path).
    Warning,
    /// The program is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => f.write_str("note"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A labeled span inside a diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Label {
    /// What the label points at.
    pub span: Span,
    /// Short message rendered next to the underline.
    pub message: String,
    /// Primary labels are underlined with `^`, secondary with `-`.
    pub primary: bool,
}

/// A single diagnostic: stable code, severity, primary message, labeled
/// spans, and free-form notes/help lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from the GBC0xx registry (see module docs).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Headline message.
    pub message: String,
    /// Labeled spans; the first primary label is the diagnostic's anchor.
    pub labels: Vec<Label>,
    /// `= note:` lines (background: which paper condition is violated).
    pub notes: Vec<String>,
    /// `= help:` lines (what to change).
    pub helps: Vec<String>,
}

impl Diagnostic {
    /// New error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
            helps: Vec::new(),
        }
    }

    /// New warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(code, message) }
    }

    /// New note diagnostic (informational only).
    pub fn note(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic { severity: Severity::Note, ..Diagnostic::error(code, message) }
    }

    /// Attach the primary label.
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Diagnostic {
        self.labels.push(Label { span, message: message.into(), primary: true });
        self
    }

    /// Attach a secondary label.
    pub fn with_secondary(mut self, span: Span, message: impl Into<String>) -> Diagnostic {
        self.labels.push(Label { span, message: message.into(), primary: false });
        self
    }

    /// Attach a `= note:` line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Attach a `= help:` line.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.helps.push(help.into());
        self
    }

    /// The span of the first primary label (the diagnostic's anchor).
    pub fn primary_span(&self) -> Option<Span> {
        self.labels.iter().find(|l| l.primary).or(self.labels.first()).map(|l| l.span)
    }

    /// Render the diagnostic as a rustc-style snippet block.
    pub fn render(&self, sm: &SourceMap) -> String {
        let mut out = String::new();
        out.push_str(&format!("{self}\n"));

        // Gutter width: widest line number among rendered labels.
        let locs: Vec<_> = self
            .labels
            .iter()
            .filter(|l| !l.span.is_dummy())
            .filter_map(|l| sm.locate(l.span.start).map(|loc| (l, loc)))
            .collect();
        let gutter = locs.iter().map(|(_, loc)| loc.line.to_string().len()).max().unwrap_or(1);
        let pad = " ".repeat(gutter);

        let mut last_rendered: Option<(String, u32)> = None;
        for (i, (label, loc)) in locs.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("{pad}--> {}:{}:{}\n", loc.file, loc.line, loc.col));
                out.push_str(&format!("{pad} |\n"));
            }
            // Re-print the source line unless the previous label already did.
            let key = (loc.file.clone(), loc.line);
            if last_rendered.as_ref() != Some(&key) {
                if i > 0 {
                    out.push_str(&format!("{pad} |\n"));
                    if last_rendered.as_ref().map(|(f, _)| f) != Some(&loc.file) {
                        out.push_str(&format!("{pad}--> {}:{}:{}\n", loc.file, loc.line, loc.col));
                        out.push_str(&format!("{pad} |\n"));
                    }
                }
                out.push_str(&format!("{:>gutter$} | {}\n", loc.line, loc.line_text));
                last_rendered = Some(key);
            }
            // Underline, clamped to the rendered line.
            let width = (label.span.end.saturating_sub(label.span.start) as usize)
                .min(loc.line_text.len().saturating_sub((loc.col as usize).saturating_sub(1)))
                .max(1);
            let mark = if label.primary { "^" } else { "-" };
            out.push_str(&format!(
                "{pad} | {}{}{}{}\n",
                " ".repeat((loc.col as usize).saturating_sub(1)),
                mark.repeat(width),
                if label.message.is_empty() { "" } else { " " },
                label.message,
            ));
        }
        if !locs.is_empty() && (!self.notes.is_empty() || !self.helps.is_empty()) {
            out.push_str(&format!("{pad} |\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("{pad} = note: {n}\n"));
        }
        for h in &self.helps {
            out.push_str(&format!("{pad} = help: {h}\n"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    /// The headline: `severity[code]: message`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Render a batch of diagnostics (sorted by primary span, errors and
/// warnings interleaved in source order), separated by blank lines.
pub fn render_all(diags: &[Diagnostic], sm: &SourceMap) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| d.primary_span().map(|s| s.start).unwrap_or(u32::MAX));
    let mut out = String::new();
    for (i, d) in sorted.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&d.render(sm));
    }
    out
}

/// Count of errors in a batch.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.severity == Severity::Error).count()
}

/// Count of warnings in a batch.
pub fn warning_count(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.severity == Severity::Warning).count()
}

/// Count of notes in a batch.
pub fn note_count(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.severity == Severity::Note).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_single_label_snippet() {
        let sm = SourceMap::single("t.dl", "p(X) <- q(X), r(Y).\n");
        let d = Diagnostic::error("GBC003", "unsafe variable `Y`")
            .with_label(Span::new(16, 17), "only occurrence")
            .with_note("every variable must be bound by a positive body atom");
        let r = d.render(&sm);
        assert!(r.contains("error[GBC003]: unsafe variable `Y`"), "{r}");
        assert!(r.contains("--> t.dl:1:17"), "{r}");
        assert!(r.contains("1 | p(X) <- q(X), r(Y)."), "{r}");
        assert!(r.contains("^ only occurrence"), "{r}");
        assert!(r.contains("= note: every variable"), "{r}");
    }

    #[test]
    fn secondary_labels_use_dashes_and_share_lines() {
        let sm = SourceMap::single("t.dl", "p(X, I) <- next(I), q(X, J).\n");
        let d = Diagnostic::warning("GBC015", "missing stage guard")
            .with_label(Span::new(20, 27), "stage variable `J` bound here")
            .with_secondary(Span::new(11, 18), "new stage minted here");
        let r = d.render(&sm);
        assert!(r.contains("^^^^^^^ stage variable `J` bound here"), "{r}");
        assert!(r.contains("------- new stage minted here"), "{r}");
        // The source line renders once, not per label.
        assert_eq!(r.matches("p(X, I) <- next(I)").count(), 1, "{r}");
    }

    #[test]
    fn render_all_sorts_by_span() {
        let sm = SourceMap::single("t.dl", "a(x).\nb(y).\n");
        let d1 = Diagnostic::warning("GBC025", "later").with_label(Span::new(6, 7), "");
        let d2 = Diagnostic::error("GBC002", "earlier").with_label(Span::new(0, 1), "");
        let all = render_all(&[d1, d2], &sm);
        let first = all.find("earlier").unwrap();
        let second = all.find("later").unwrap();
        assert!(first < second, "{all}");
        assert_eq!(error_count(&[Diagnostic::error("GBC002", "x")]), 1);
        assert_eq!(warning_count(&[Diagnostic::warning("GBC025", "x")]), 1);
    }

    #[test]
    fn dummy_spans_render_without_snippets() {
        let sm = SourceMap::single("t.dl", "p(x).\n");
        let d = Diagnostic::error("GBC010", "whole-program condition")
            .with_note("no location for this one");
        let r = d.render(&sm);
        assert!(r.contains("error[GBC010]: whole-program condition"), "{r}");
        assert!(r.contains("= note: no location"), "{r}");
        assert!(!r.contains("-->"), "{r}");
    }
}
