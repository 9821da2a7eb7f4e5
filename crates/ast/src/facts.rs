//! The fact table: a program's ground facts, kept as flat rows of
//! values per predicate instead of as body-less [`Rule`](crate::Rule)s.
//!
//! The parser writes each ground fact straight into the table, and
//! `gbc-core` encodes the table once, when the program is compiled.
//! Analyses and evaluators therefore walk only the program's rules;
//! the table remembers just enough of the source to keep diagnostics
//! where they were: each fact's span, and where each predicate's first
//! fact stood among the rules.

use std::collections::HashMap;

use crate::span::Span;
use crate::symbol::Symbol;
use crate::value::Value;

/// Cells per chunk of a group, at most: a chunk's cells stay below
/// the allocator's 128 KiB threshold for a fresh mapping.
const CHUNK_CELLS: usize = 4096;

/// Consecutive facts of a group, [`FactGroup::chunk_rows`] of them in
/// every chunk but the last.
#[derive(Clone)]
struct Chunk {
    /// Row-major cells, `arity` per fact.
    cells: Vec<Value>,
    /// One span per fact (the head atom's; dummy when built in code).
    spans: Vec<Span>,
}

/// The facts of one predicate at one arity, in source order.
#[derive(Clone)]
pub struct FactGroup {
    pred: Symbol,
    arity: usize,
    /// How many rules precede the group's first fact: where the group
    /// sits among the rules in source order.
    rules_before: usize,
    /// The facts, a chunk at a time: a large group grows by a chunk, so
    /// its facts are never copied into a buffer twice their size.
    chunks: Vec<Chunk>,
    len: usize,
}

impl FactGroup {
    /// The predicate.
    pub fn pred(&self) -> Symbol {
        self.pred
    }

    /// The number of arguments of every fact in the group.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// How many of the program's rules precede the group's first fact.
    pub fn rules_before(&self) -> usize {
        self.rules_before
    }

    /// The number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the group holds no fact (never, once built).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Facts per chunk.
    fn chunk_rows(&self) -> usize {
        (CHUNK_CELLS / self.arity.max(1)).max(1)
    }

    /// Every fact's arguments, row-major: `arity` cells per fact, in
    /// source order, as slices of whole facts (empty for arity 0).
    pub fn chunks(&self) -> impl Iterator<Item = &[Value]> {
        self.chunks.iter().map(|c| c.cells.as_slice())
    }

    /// Fact `i`'s arguments.
    pub fn row(&self, i: usize) -> &[Value] {
        let (rows, arity) = (self.chunk_rows(), self.arity);
        &self.chunks[i / rows].cells[i % rows * arity..][..arity]
    }

    /// Each fact's arguments and span, in source order.
    pub fn rows(&self) -> impl Iterator<Item = (&[Value], Span)> {
        let arity = self.arity;
        self.chunks.iter().flat_map(move |c| {
            c.spans.iter().enumerate().map(move |(j, &span)| (&c.cells[j * arity..][..arity], span))
        })
    }

    /// The span of the group's first fact.
    pub fn first_span(&self) -> Span {
        self.chunks[0].spans[0]
    }
}

/// A program's ground facts, grouped by predicate and arity in order of
/// first appearance. Two arities of one predicate make two groups, so
/// arity checks still see every use.
#[derive(Clone, Default)]
pub struct FactTable {
    groups: Vec<FactGroup>,
    /// `(pred, arity)` → index into `groups`.
    index: HashMap<(Symbol, usize), usize>,
    len: usize,
}

impl FactTable {
    /// An empty table.
    pub fn new() -> FactTable {
        FactTable::default()
    }

    /// Append the fact `pred(args)`, found at `span` after
    /// `rules_before` rules of its program.
    pub fn push(
        &mut self,
        pred: Symbol,
        args: impl ExactSizeIterator<Item = Value>,
        span: Span,
        rules_before: usize,
    ) {
        let arity = args.len();
        let gi = match self.groups.last() {
            // Facts of one predicate usually come in a run.
            Some(g) if g.pred == pred && g.arity == arity => self.groups.len() - 1,
            _ => *self.index.entry((pred, arity)).or_insert_with(|| {
                self.groups.push(FactGroup {
                    pred,
                    arity,
                    rules_before,
                    chunks: Vec::new(),
                    len: 0,
                });
                self.groups.len() - 1
            }),
        };
        let g = &mut self.groups[gi];
        if g.len % g.chunk_rows() == 0 {
            // A group's first chunk grows as needed; a group past it
            // fills whole chunks, which are sized exactly.
            let rows = if g.chunks.is_empty() { 0 } else { g.chunk_rows() };
            g.chunks.push(Chunk {
                cells: Vec::with_capacity(rows * arity),
                spans: Vec::with_capacity(rows),
            });
        }
        let chunk = g.chunks.last_mut().expect("a chunk with room");
        chunk.cells.extend(args);
        chunk.spans.push(span);
        g.len += 1;
        self.len += 1;
    }

    /// The groups, in order of first appearance.
    pub fn groups(&self) -> &[FactGroup] {
        &self.groups
    }

    /// The number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no fact.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every fact as `(pred, args, span)`: group by group, each in
    /// source order.
    pub fn rows(&self) -> impl Iterator<Item = (Symbol, &[Value], Span)> {
        self.groups.iter().flat_map(|g| g.rows().map(move |(row, span)| (g.pred, row, span)))
    }
}

impl PartialEq for FactTable {
    /// Equal facts in equal groups at equal places among the rules;
    /// spans are ignored, like [`Rule`](crate::Rule)'s.
    fn eq(&self, other: &FactTable) -> bool {
        self.len == other.len
            && self.groups.len() == other.groups.len()
            && self.groups.iter().zip(&other.groups).all(|(a, b)| {
                (a.pred, a.arity, a.rules_before) == (b.pred, b.arity, b.rules_before)
                    && a.chunks().eq(b.chunks())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(t: &mut FactTable, pred: &str, args: Vec<Value>, rules_before: usize) {
        t.push(Symbol::intern(pred), args.into_iter(), Span::dummy(), rules_before);
    }

    #[test]
    fn groups_by_predicate_and_arity_in_first_appearance_order() {
        let mut t = FactTable::new();
        push(&mut t, "g", vec![Value::int(1), Value::int(2)], 0);
        push(&mut t, "h", vec![], 1);
        push(&mut t, "g", vec![Value::int(3), Value::int(4)], 2);
        push(&mut t, "g", vec![Value::int(5)], 2);
        let shape: Vec<_> =
            t.groups().iter().map(|g| (g.pred().as_str(), g.arity(), g.len())).collect();
        assert_eq!(shape, vec![("g", 2, 2), ("h", 0, 1), ("g", 1, 1)]);
        assert_eq!(t.groups()[0].row(1), &[Value::int(3), Value::int(4)]);
        assert_eq!(t.groups()[2].rules_before(), 2);
        assert_eq!(t.len(), 4);
        // Zero-arity facts still count as rows.
        assert_eq!(t.rows().filter(|(_, row, _)| row.is_empty()).count(), 1);
    }

    #[test]
    fn large_groups_keep_their_rows_across_chunks() {
        let mut t = FactTable::new();
        let n = 3 * CHUNK_CELLS;
        for i in 0..n as i64 {
            push(&mut t, "g", vec![Value::int(i), Value::int(-i), Value::int(2 * i)], 0);
        }
        let g = &t.groups()[0];
        assert_eq!(g.len(), n);
        assert!(g.chunks().all(|c| c.len() % 3 == 0 && c.len() <= CHUNK_CELLS));
        let cells: Vec<&Value> = g.chunks().flatten().collect();
        assert_eq!(cells.len(), 3 * n);
        assert_eq!(cells[3 * 1365], &Value::int(1365));
        assert_eq!(g.rows().count(), n);
        for (i, (row, _)) in g.rows().enumerate() {
            assert_eq!(row, g.row(i));
            let i = i as i64;
            assert_eq!(row, &[Value::int(i), Value::int(-i), Value::int(2 * i)]);
        }
        // Zero-arity facts are chunked by their spans alone.
        let mut t = FactTable::new();
        for _ in 0..n {
            push(&mut t, "done", vec![], 0);
        }
        assert_eq!((t.groups()[0].len(), t.rows().count()), (n, n));
        assert!(t.groups()[0].chunks().all(|c| c.is_empty()));
    }
}
