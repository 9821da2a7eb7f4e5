//! The value dictionary: every [`Value`] the engine ever stores is
//! interned to a dense `u32` id, and relations/indexes/heaps operate
//! on ids until an output boundary decodes them back.
//!
//! Design (DESIGN.md §11):
//!
//! - **Global, append-only.** Ids are assigned once, in first-intern
//!   order, and never recycled. The id → value side is a chunked
//!   array of `OnceLock` slots (geometrically sized chunks, so lookup
//!   is two shifts and two indexed loads), which makes [`decode_ref`]
//!   lock-free: readers never contend with writers.
//! - **Deterministic within an evaluation.** An evaluation runs on one
//!   thread, so the ids it mints follow its own first-intern order.
//!   Concurrent `gbc serve` requests may interleave their interning;
//!   no result depends on id magnitude (see the ordering contract).
//! - **Functor terms stay flat.** Interning `t(X, Y)` first interns
//!   `X` and `Y`, then records their ids alongside the entry, so
//!   [`func_parts`] destructures a functor without leaving id space.
//! - **Ordering contract.** [`cmp_ids`] orders ids by their *decoded*
//!   [`Value`] ordering (`Nil < Int < Sym < Str < Func`, then
//!   value-wise) — id magnitude is meaningless. Encoded cost keys in
//!   the (R,Q,L) heap use exactly this comparator, so heap behaviour
//!   is byte-identical to the pre-columnar row representation.
//! - **Exhaustion panics.** [`encode`] asserts that it never assigns
//!   the [`DICT_MISS`] sentinel, so the table holds at most
//!   `u32::MAX` ids and the next new value panics with
//!   [`DictionaryFull`]'s message. No realistic workload reaches that
//!   ceiling before it exhausts memory; making a long-lived server
//!   survive it is ROADMAP item 6.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use gbc_ast::{Symbol, Value};

use crate::fx::FxBuildHasher;
use crate::tuple::Row;

/// Sentinel for "this value has never been interned". Never a valid
/// id: the global table refuses to assign it. A lookup key containing
/// `DICT_MISS` matches no stored row (stored rows only hold real ids),
/// which is exactly the semantics a probe for an unseen constant needs.
pub const DICT_MISS: u32 = u32::MAX;

/// One interned value plus, for functor terms, the pre-interned ids of
/// its arguments (so destructuring stays in id space).
struct Entry {
    value: Value,
    func_args: Option<Box<[u32]>>,
}

/// Chunked id → entry storage: chunk `c` holds `BASE << c` slots, so
/// 21 chunks cover the full u32 range while keeping early lookups in
/// one small always-hot array.
const BASE: u32 = 4096;
const NUM_CHUNKS: usize = 21;

struct Slots {
    chunks: [OnceLock<Box<[OnceLock<&'static Entry>]>>; NUM_CHUNKS],
}

impl Slots {
    const fn new() -> Slots {
        // OnceLock::new() is const, but array-of-const-init needs the
        // inline-const repeat form.
        Slots { chunks: [const { OnceLock::new() }; NUM_CHUNKS] }
    }

    /// (chunk index, offset within chunk) for an id.
    fn locate(id: u32) -> (usize, usize) {
        let k = (id / BASE) + 1;
        let c = (31 - k.leading_zeros()) as usize;
        let start = (BASE as u64) * ((1u64 << c) - 1);
        (c, (id as u64 - start) as usize)
    }

    fn chunk(&self, c: usize) -> &[OnceLock<&'static Entry>] {
        self.chunks[c].get_or_init(|| {
            let len = (BASE as usize) << c;
            let mut v = Vec::with_capacity(len);
            v.resize_with(len, OnceLock::new);
            v.into_boxed_slice()
        })
    }

    fn get(&self, id: u32) -> Option<&'static Entry> {
        let (c, off) = Slots::locate(id);
        // A never-initialised chunk means the id was never assigned.
        self.chunks[c].get().and_then(|ch| ch[off].get().copied())
    }

    fn set(&self, id: u32, entry: &'static Entry) {
        let (c, off) = Slots::locate(id);
        self.chunk(c)[off].set(entry).unwrap_or_else(|_| panic!("dictionary id {id} set twice"));
    }
}

static SLOTS: Slots = Slots::new();

/// value → id map. Keys borrow the leaked entry's `Value`, so probes
/// take `&Value` without cloning (`Borrow<Value> for &'static Value`).
static MAP: OnceLock<RwLock<HashMap<&'static Value, u32, FxBuildHasher>>> = OnceLock::new();

fn map() -> &'static RwLock<HashMap<&'static Value, u32, FxBuildHasher>> {
    MAP.get_or_init(|| RwLock::new(HashMap::default()))
}

// Interning-overhead counters (satellite: `dictionary` block in
// `--stats-json`). Deliberately *not* part of `gbc-telemetry`'s
// `Metrics`/`Snapshot`: the dictionary is process-global, so its
// counters accumulate across runs in one process, and folding them
// into per-run snapshots would break run-to-run equality contracts
// (tests/analysis_equivalence.rs). The CLI reports them as a
// before/after delta instead.
static ENTRIES: AtomicU64 = AtomicU64::new(0);
static ENCODE_HITS: AtomicU64 = AtomicU64::new(0);
static DECODE_CALLS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the dictionary counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DictStats {
    /// Distinct values interned so far (dense id count).
    pub dict_entries: u64,
    /// Encode probes answered by an existing entry.
    pub encode_hits: u64,
    /// Boundary decodes that cloned a value back out.
    pub decode_calls: u64,
}

impl DictStats {
    /// Counter movement between two snapshots (`self` later).
    pub fn since(&self, earlier: &DictStats) -> DictStats {
        DictStats {
            dict_entries: self.dict_entries - earlier.dict_entries,
            encode_hits: self.encode_hits - earlier.encode_hits,
            decode_calls: self.decode_calls - earlier.decode_calls,
        }
    }
}

/// Current global counter values.
pub fn dict_stats() -> DictStats {
    DictStats {
        dict_entries: ENTRIES.load(Ordering::Relaxed),
        encode_hits: ENCODE_HITS.load(Ordering::Relaxed),
        decode_calls: DECODE_CALLS.load(Ordering::Relaxed),
    }
}

/// Intern `v`, returning its dense id (assigning one on first sight).
/// Functor arguments are interned first, depth-first, so every id a
/// stored functor references is itself valid.
pub fn encode(v: &Value) -> u32 {
    if let Some(id) = lookup(v) {
        return id;
    }
    // Intern functor arguments *outside* the write lock (recursion
    // would deadlock under it), then re-check under the lock.
    let func_args: Option<Box<[u32]>> = match v {
        Value::Func(_, args) => Some(args.iter().map(encode).collect()),
        _ => None,
    };
    let mut m = map().write().expect("dictionary poisoned");
    if let Some(&id) = m.get(v) {
        // Raced with another interning thread; count it as a hit.
        ENCODE_HITS.fetch_add(1, Ordering::Relaxed);
        return id;
    }
    let id = m.len() as u32;
    assert!(id != DICT_MISS, "{}", DictionaryFull { limit: DICT_MISS });
    let entry: &'static Entry = Box::leak(Box::new(Entry { value: v.clone(), func_args }));
    SLOTS.set(id, entry);
    m.insert(&entry.value, id);
    ENTRIES.fetch_add(1, Ordering::Relaxed);
    id
}

/// [`encode`] every value of `vals` onto the end of `out`, in order.
/// The values already interned resolve under a single read lock, so a
/// row of known values costs one lock instead of one per cell.
pub fn encode_into(vals: &[Value], out: &mut Vec<u32>) {
    let start = out.len();
    {
        let m = map().read().expect("dictionary poisoned");
        out.extend(vals.iter().map(|v| m.get(v).copied().unwrap_or(DICT_MISS)));
    }
    let fresh = &mut out[start..];
    let misses = fresh.iter().filter(|&&id| id == DICT_MISS).count();
    ENCODE_HITS.fetch_add((vals.len() - misses) as u64, Ordering::Relaxed);
    if misses > 0 {
        for (id, v) in fresh.iter_mut().zip(vals) {
            if *id == DICT_MISS {
                *id = encode(v);
            }
        }
    }
}

/// Lookup-only probe: the id if `v` was ever interned, else
/// [`DICT_MISS`]. Never assigns an id, so it is safe on any thread.
pub fn try_encode(v: &Value) -> u32 {
    lookup(v).unwrap_or(DICT_MISS)
}

fn lookup(v: &Value) -> Option<u32> {
    let id = *map().read().expect("dictionary poisoned").get(v)?;
    ENCODE_HITS.fetch_add(1, Ordering::Relaxed);
    Some(id)
}

/// Borrow the interned value for `id`. Lock-free; panics on an id the
/// dictionary never assigned (such ids cannot appear in any relation).
pub fn decode_ref(id: u32) -> &'static Value {
    &SLOTS.get(id).unwrap_or_else(|| panic!("decode of unassigned dictionary id {id}")).value
}

/// Clone the value for `id` back out — the counted boundary decode.
pub fn decode(id: u32) -> Value {
    DECODE_CALLS.fetch_add(1, Ordering::Relaxed);
    decode_ref(id).clone()
}

/// Count `n` boundary decodes served by [`decode_ref`] borrows: an
/// output path that prints values in place still reports one
/// `decode_calls` per printed cell, as [`decode_row`] would.
pub fn count_decodes(n: u64) {
    DECODE_CALLS.fetch_add(n, Ordering::Relaxed);
}

/// Functor destructuring in id space: `Some((name, arg_ids))` when
/// `id` is a `Func`, `None` otherwise.
pub fn func_parts(id: u32) -> Option<(Symbol, &'static [u32])> {
    let entry = SLOTS.get(id)?;
    match (&entry.value, &entry.func_args) {
        (Value::Func(name, _), Some(args)) => Some((*name, args)),
        _ => None,
    }
}

/// Order two ids by their decoded values. Equal ids short-circuit
/// without touching the slot array (interning guarantees id equality
/// ⇔ value equality).
pub fn cmp_ids(a: u32, b: u32) -> std::cmp::Ordering {
    if a == b {
        std::cmp::Ordering::Equal
    } else {
        decode_ref(a).cmp(decode_ref(b))
    }
}

/// Lexicographic row ordering under [`cmp_ids`] — exactly the `Ord`
/// of the pre-columnar `[Value]` slices.
pub fn cmp_id_rows(a: &[u32], b: &[u32]) -> std::cmp::Ordering {
    for (&x, &y) in a.iter().zip(b.iter()) {
        match cmp_ids(x, y) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// Encode a full row of values.
pub fn encode_row(values: &[Value]) -> Vec<u32> {
    values.iter().map(encode).collect()
}

/// Decode a full id row to a boundary [`Row`]. One counted decode per
/// cell.
pub fn decode_row(ids: &[u32]) -> Row {
    DECODE_CALLS.fetch_add(ids.len() as u64, Ordering::Relaxed);
    Row::new(ids.iter().map(|&id| decode_ref(id).clone()).collect())
}

/// The dictionary's id space is full: the message [`encode`] panics
/// with when it would have to assign the [`DICT_MISS`] sentinel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DictionaryFull {
    /// The id limit that was reached.
    pub limit: u32,
}

impl std::fmt::Display for DictionaryFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "value dictionary full: {} id(s) exhausted", self.limit)
    }
}

impl std::error::Error for DictionaryFull {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Nil,
            Value::int(0),
            Value::int(-7),
            Value::int(i64::MAX),
            Value::sym("a"),
            Value::sym("zebra"),
            Value::Str(Arc::from("hello world")),
            Value::Func(Symbol::intern("t"), Arc::from(vec![Value::int(1), Value::sym("x")])),
            // Nested Huffman-style tree: t(t(1, 2), t(3, nil)).
            Value::Func(
                Symbol::intern("t"),
                Arc::from(vec![
                    Value::Func(Symbol::intern("t"), Arc::from(vec![Value::int(1), Value::int(2)])),
                    Value::Func(Symbol::intern("t"), Arc::from(vec![Value::int(3), Value::Nil])),
                ]),
            ),
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        for v in sample_values() {
            let id = encode(&v);
            assert_eq!(encode(&v), id, "second encode must be stable");
            assert_eq!(*decode_ref(id), v);
            assert_eq!(decode(id), v);
            assert_eq!(try_encode(&v), id);
        }
    }

    #[test]
    fn ids_are_value_identity() {
        let a = encode(&Value::int(999_001));
        let b = encode(&Value::int(999_002));
        assert_ne!(a, b);
        assert_eq!(encode(&Value::int(999_001)), a);
    }

    #[test]
    fn func_parts_destructure_in_id_space() {
        let x = Value::int(41);
        let y = Value::sym("leaf");
        let t = Value::Func(Symbol::intern("t"), Arc::from(vec![x.clone(), y.clone()]));
        let id = encode(&t);
        let (name, args) = func_parts(id).expect("functor entry");
        assert_eq!(name, Symbol::intern("t"));
        assert_eq!(args, &[encode(&x), encode(&y)]);
        assert_eq!(func_parts(encode(&x)), None, "non-functors have no parts");
    }

    #[test]
    fn cmp_ids_follows_value_order() {
        let vals = sample_values();
        for a in &vals {
            for b in &vals {
                assert_eq!(cmp_ids(encode(a), encode(b)), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cmp_id_rows_matches_slice_order() {
        let r1 = encode_row(&[Value::int(1), Value::int(2)]);
        let r2 = encode_row(&[Value::int(1), Value::int(3)]);
        let r3 = encode_row(&[Value::int(1)]);
        assert_eq!(cmp_id_rows(&r1, &r2), std::cmp::Ordering::Less);
        assert_eq!(cmp_id_rows(&r2, &r1), std::cmp::Ordering::Greater);
        assert_eq!(cmp_id_rows(&r3, &r1), std::cmp::Ordering::Less, "prefix sorts first");
        assert_eq!(cmp_id_rows(&r1, &r1), std::cmp::Ordering::Equal);
    }

    #[test]
    fn try_encode_misses_unseen_values() {
        assert_eq!(try_encode(&Value::sym("never-interned-sentinel-xyzzy")), DICT_MISS);
    }

    #[test]
    fn row_round_trip() {
        let vals = vec![Value::sym("edge"), Value::int(3), Value::Nil];
        let ids = encode_row(&vals);
        assert_eq!(&decode_row(&ids)[..], vals.as_slice());
    }

    #[test]
    fn stats_move_monotonically() {
        let before = dict_stats();
        let v = Value::sym("stats-probe-value");
        encode(&v);
        encode(&v);
        decode(encode(&v));
        let after = dict_stats();
        let delta = after.since(&before);
        assert!(delta.dict_entries >= 1);
        assert!(delta.encode_hits >= 2);
        assert!(delta.decode_calls >= 1);
    }

    #[test]
    fn chunk_locate_covers_boundaries() {
        for id in [0, 1, BASE - 1, BASE, 3 * BASE - 1, 3 * BASE, 7 * BASE - 1, 1_000_000] {
            let (c, off) = Slots::locate(id);
            assert!(c < NUM_CHUNKS);
            assert!(off < (BASE as usize) << c, "id {id} → chunk {c} off {off}");
        }
    }
}
