//! Differential tests for the shared id-tuple table: under seeded
//! random mixes of finds, inserts and reserves, an [`IdTable`] whose
//! keys live in a flat arena must agree with an `FxHashMap` model, and
//! number its entries densely in insertion order.
//!
//! The cases cover keys of arity 0–4, dense ids (small, clashing in
//! their low bits) and sparse ids (anywhere below [`DICT_MISS`]), and
//! enough entries to double the table several times, with reserves
//! both inside and past its capacity.
//!
//! Seeded-loop style: each test draws a fixed number of random cases
//! from the in-tree deterministic PRNG, so failures reproduce exactly.

use gbc_storage::idtable::IdTable;
use gbc_storage::{FxHashMap, DICT_MISS};
use gbc_telemetry::rng::Rng;

/// An [`IdTable`] over keys of one arity, stored in a flat arena the
/// way the storage owners store theirs.
struct Arena {
    arity: usize,
    keys: Vec<u32>,
    table: IdTable,
}

impl Arena {
    fn key(&self, e: u32) -> &[u32] {
        &self.keys[e as usize * self.arity..][..self.arity]
    }

    fn find(&self, key: &[u32]) -> Option<u32> {
        self.table.find(key.iter().copied(), |e| self.key(e) == key).ok()
    }

    /// The entry of `key`, inserted when new.
    fn insert(&mut self, key: &[u32]) -> u32 {
        let at = match self.table.find(key.iter().copied(), |e| self.key(e) == key) {
            Ok(e) => return e,
            Err(at) => at,
        };
        self.keys.extend_from_slice(key);
        let (keys, arity) = (&self.keys, self.arity);
        self.table.insert(at, move |e| keys[e as usize * arity..][..arity].iter().copied())
    }

    fn reserve(&mut self, additional: usize) {
        let (keys, arity) = (&self.keys, self.arity);
        self.table
            .reserve(additional, move |e| keys[e as usize * arity..][..arity].iter().copied());
    }
}

/// A random id: dense (small, so keys share low bits and probes
/// collide) or sparse (any real id).
fn id(rng: &mut Rng, dense: bool) -> u32 {
    if dense {
        rng.below(64) as u32
    } else {
        rng.below(u64::from(DICT_MISS)) as u32
    }
}

#[test]
fn finds_inserts_and_reserves_agree_with_a_hash_map() {
    let mut rng = Rng::new(0x1D7A_B1E5);
    for case in 0..200 {
        let arity = case % 5;
        let dense = rng.bool();
        let mut arena = Arena { arity, keys: Vec::new(), table: IdTable::default() };
        let mut model: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        // Previously inserted keys, for finds that must hit.
        let mut seen: Vec<Vec<u32>> = Vec::new();
        let mut doublings = 0;
        let mut capacity = arena.table.capacity();
        for step in 0..1 + rng.below_usize(1_500) {
            match rng.below(10) {
                0..=5 => {
                    let key: Vec<u32> = (0..arity).map(|_| id(&mut rng, dense)).collect();
                    let next = model.len() as u32;
                    let want = *model.entry(key.clone()).or_insert(next);
                    if want == next {
                        seen.push(key.clone());
                    }
                    assert_eq!(arena.insert(&key), want, "case {case} step {step}: insert {key:?}");
                }
                6..=8 => {
                    let key = if !seen.is_empty() && rng.bool() {
                        seen[rng.below_usize(seen.len())].clone()
                    } else {
                        (0..arity).map(|_| id(&mut rng, dense)).collect()
                    };
                    let want = model.get(&key).copied();
                    assert_eq!(arena.find(&key), want, "case {case} step {step}: find {key:?}");
                }
                _ => {
                    // Sometimes within the current capacity (a no-op),
                    // sometimes past it; bounded by the entry count, so
                    // the table stays a small multiple of its entries.
                    let additional = rng.below_usize(2 * arena.table.len().max(8));
                    arena.reserve(additional);
                    assert!(arena.table.capacity() >= arena.table.len() + additional);
                }
            }
            assert_eq!(arena.table.len(), model.len(), "case {case} step {step}");
            if arena.table.capacity() > capacity {
                doublings += 1;
                capacity = arena.table.capacity();
            }
        }
        // Dense, insertion-ordered entry numbers: entry `e` holds the
        // `e`-th new key, and every key finds its own entry.
        assert_eq!(arena.keys.len(), model.len() * arity);
        for (e, key) in seen.iter().enumerate() {
            assert_eq!(arena.key(e as u32), &key[..], "case {case}");
            assert_eq!(arena.find(key), Some(e as u32), "case {case}");
        }
        if arity > 0 && seen.len() > 500 {
            assert!(doublings >= 3, "case {case}: only {doublings} doublings");
        }
    }
}

#[test]
fn the_empty_key_is_one_entry() {
    let mut arena = Arena { arity: 0, keys: Vec::new(), table: IdTable::default() };
    assert_eq!(arena.find(&[]), None);
    assert_eq!(arena.insert(&[]), 0);
    assert_eq!(arena.insert(&[]), 0);
    arena.reserve(1_000);
    assert_eq!((arena.find(&[]), arena.table.len()), (Some(0), 1));
}
