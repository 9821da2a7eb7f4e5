//! The one hash table behind every id-tuple lookup in this crate:
//! relation dedup, join indices, the (R,Q,L) class table and the
//! choice-FD memos.
//!
//! An [`IdTable`] maps a tuple of `u32` ids to a dense **entry number**
//! (`0, 1, 2, …` in insertion order), and stores only those numbers.
//! Each owner keeps its keys where they already live, and passes an
//! equality test to a probe and a way to read an entry's key back to a
//! growth. The table owns the policy: the Fx hash of the ids, the home
//! slot in its low bits (Fx multiplies by an odd constant, so dense ids
//! spread), linear probing, power-of-two sizing and doubling past 7/8
//! full. Entries are never removed, and a probe allocates nothing.
//!
//! A [`Chain`] walks a list threaded through a `next`-link vector: an
//! index key's postings, or an FD memo entry's queued classes.

use std::hash::Hasher;

use crate::fx::FxHasher;

/// An empty slot, and the end of a [`Chain`].
pub const NONE: u32 = u32::MAX;

/// The size of a table's first slot vector.
const MIN_SLOTS: usize = 8;

/// An open-addressed map from id tuples to dense entry numbers. See the
/// module docs.
#[derive(Clone, Debug, Default)]
pub struct IdTable {
    /// Entry numbers, or [`NONE`]; empty until the first insert.
    slots: Vec<u32>,
    len: usize,
}

/// The empty slot where a missing key goes, as found by
/// [`IdTable::find`]; valid until the table next changes.
#[derive(Clone, Copy, Debug)]
pub struct Vacant(usize);

fn hash(key: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = FxHasher::default();
    for id in key {
        h.write_u32(id);
    }
    h.finish()
}

impl IdTable {
    /// The number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry was inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many entries the table holds before it grows.
    pub fn capacity(&self) -> usize {
        self.slots.len() / 8 * 7
    }

    /// The entry whose key is `key`, or the slot where it would go.
    /// `is_key(e)` tells whether entry `e`'s key equals `key`.
    #[inline]
    pub fn find(
        &self,
        key: impl IntoIterator<Item = u32>,
        mut is_key: impl FnMut(u32) -> bool,
    ) -> Result<u32, Vacant> {
        if self.slots.is_empty() {
            return Err(Vacant(0));
        }
        let mask = self.slots.len() - 1;
        let mut i = hash(key) as usize & mask;
        loop {
            match self.slots[i] {
                NONE => return Err(Vacant(i)),
                e if is_key(e) => return Ok(e),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Add the next entry, numbered [`IdTable::len`], at `at`, which the
    /// [`IdTable::find`] that missed its key returned. The owner must
    /// already hold the key: `key_of(e)` reads entry `e`'s key, this
    /// one's included, when the insert grows the table.
    pub fn insert<K: IntoIterator<Item = u32>>(
        &mut self,
        at: Vacant,
        key_of: impl FnMut(u32) -> K,
    ) -> u32 {
        let entry = self.len as u32;
        assert!(entry < NONE, "more than 2^32 - 1 entries");
        self.len += 1;
        if self.len > self.capacity() {
            self.rebuild((self.slots.len() * 2).max(MIN_SLOTS), key_of);
        } else {
            self.slots[at.0] = entry;
        }
        entry
    }

    /// Make room for `additional` more entries, so inserting them grows
    /// nothing; `key_of` as for [`IdTable::insert`].
    pub fn reserve<K: IntoIterator<Item = u32>>(
        &mut self,
        additional: usize,
        key_of: impl FnMut(u32) -> K,
    ) {
        let need = self.len + additional;
        let mut slots = self.slots.len().max(MIN_SLOTS);
        while need > slots / 8 * 7 {
            slots *= 2;
        }
        if slots > self.slots.len() {
            self.rebuild(slots, key_of);
        }
    }

    /// Re-place every entry in a table of `slots` slots.
    fn rebuild<K: IntoIterator<Item = u32>>(
        &mut self,
        slots: usize,
        mut key_of: impl FnMut(u32) -> K,
    ) {
        self.slots.clear();
        self.slots.resize(slots, NONE);
        let mask = slots - 1;
        for e in 0..self.len as u32 {
            let mut i = hash(key_of(e)) as usize & mask;
            while self.slots[i] != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = e;
        }
    }
}

/// The items of one list threaded through a `next`-link vector, from
/// its head to the first [`NONE`] link.
#[derive(Clone, Debug)]
pub struct Chain<'a> {
    links: &'a [u32],
    next: u32,
}

impl<'a> Chain<'a> {
    /// The list starting at `head` ([`NONE`] for an empty one), where
    /// `links[i]` is the item after item `i`.
    pub fn new(links: &'a [u32], head: u32) -> Chain<'a> {
        Chain { links, next: head }
    }
}

impl Iterator for Chain<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let item = self.next;
        if item == NONE {
            return None;
        }
        self.next = self.links[item as usize];
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set of one-id keys stored in `keys`, entry `e` holding
    /// `keys[e]`.
    fn insert(table: &mut IdTable, keys: &mut Vec<u32>, key: u32) -> u32 {
        match table.find([key], |e| keys[e as usize] == key) {
            Ok(e) => e,
            Err(at) => {
                keys.push(key);
                let keys = &*keys;
                table.insert(at, |e| [keys[e as usize]])
            }
        }
    }

    #[test]
    fn entries_number_keys_in_insertion_order() {
        let (mut table, mut keys) = (IdTable::default(), Vec::new());
        assert!(table.find([5], |_| unreachable!()).is_err(), "an empty table probes nothing");
        assert_eq!(insert(&mut table, &mut keys, 40), 0);
        assert_eq!(insert(&mut table, &mut keys, 7), 1);
        assert_eq!(insert(&mut table, &mut keys, 40), 0);
        assert_eq!((table.len(), table.capacity()), (2, 7));
    }

    #[test]
    fn reserve_sizes_the_table_once() {
        let (mut table, mut keys) = (IdTable::default(), Vec::new());
        table.reserve(100, |e| [keys[e as usize]]);
        let capacity = table.capacity();
        assert!(capacity >= 100);
        for k in 0..100 {
            insert(&mut table, &mut keys, k * 3);
        }
        assert_eq!(table.capacity(), capacity);
        // Reserving what already fits rebuilds nothing.
        table.reserve(capacity - 100, |_| -> [u32; 1] { unreachable!() });
    }

    #[test]
    fn chains_walk_their_links() {
        let links = [2, NONE, NONE];
        assert_eq!(Chain::new(&links, 0).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(Chain::new(&links, NONE).count(), 0);
    }
}
