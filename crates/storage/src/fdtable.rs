//! The memo of one choice goal's functional dependency, in id space.
//!
//! A goal `choice((X̄), (Ȳ))` admits a candidate only when no earlier
//! commit bound the same left ids `X̄` to different right ids `Ȳ`
//! (the paper's `diffChoice`). An [`FdTable`] holds the committed
//! pairs: left and right ids live in two flat arenas, one entry per
//! distinct left tuple, found through an [`IdTable`] keyed by the left
//! arena. A probe or a commit allocates nothing; the arenas and the
//! table only grow, amortised.
//!
//! Each entry also heads a **chain** of (R,Q,L) congruence classes
//! whose left tuple it is, linked in when the class is created
//! ([`FdTable::link`]). The first commit of a left tuple returns its
//! chain: the queued candidates that commit may block for good, which
//! the executor retires from `Q_r` at once instead of popping them
//! later. The links are one `u32` per class, held in one vector.

use crate::idtable::{Chain, IdTable, Vacant, NONE};

/// The committed pairs of one choice goal, plus the chains of queued
/// classes per left tuple. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct FdTable {
    left_arity: usize,
    right_arity: usize,
    /// Entry `e`'s left ids: `lefts[e * left_arity..][..left_arity]`.
    lefts: Vec<u32>,
    /// The entries, keyed by their left ids.
    table: IdTable,
    /// Entry `e`'s committed right ids, meaningful once `committed[e]`.
    rights: Vec<u32>,
    committed: Vec<bool>,
    /// The first class of entry `e`'s chain, or [`NONE`].
    heads: Vec<u32>,
    /// The class after class `c` in its chain, or [`NONE`].
    links: Vec<u32>,
}

impl FdTable {
    /// An empty table for a goal with `left_arity` left and
    /// `right_arity` right terms.
    pub fn new(left_arity: usize, right_arity: usize) -> FdTable {
        FdTable { left_arity, right_arity, ..FdTable::default() }
    }

    /// The right ids committed for `left`, if any.
    pub fn get(&self, left: &[u32]) -> Option<&[u32]> {
        let e = self.find(left).ok()? as usize;
        self.committed[e].then(|| self.right_of(e))
    }

    /// Commit `left → right`. The first commit of `left` returns the
    /// classes linked under it, most recent first; a later commit of
    /// `left`, which must carry the same right ids, returns an empty
    /// chain.
    pub fn commit(&mut self, left: &[u32], right: &[u32]) -> Chain<'_> {
        assert_eq!(right.len(), self.right_arity, "right arity");
        let e = self.entry(left);
        let head = if self.committed[e] {
            debug_assert_eq!(self.right_of(e), right, "an FD commits one right tuple per left");
            NONE
        } else {
            self.committed[e] = true;
            self.rights[e * self.right_arity..][..self.right_arity].copy_from_slice(right);
            self.heads[e]
        };
        Chain::new(&self.links, head)
    }

    /// Link `class`, the newest congruence class, into the chain of its
    /// left tuple `left`. Classes are linked in creation order, each
    /// once.
    pub fn link(&mut self, class: u32, left: &[u32]) {
        assert_eq!(class as usize, self.links.len(), "classes link in creation order");
        let e = self.entry(left);
        self.links.push(self.heads[e]);
        self.heads[e] = class;
    }

    /// Make room for `additional` more class links.
    pub fn reserve_links(&mut self, additional: usize) {
        self.links.reserve(additional);
    }

    fn right_of(&self, e: usize) -> &[u32] {
        &self.rights[e * self.right_arity..][..self.right_arity]
    }

    fn find(&self, left: &[u32]) -> Result<u32, Vacant> {
        let (lefts, arity) = (&self.lefts, self.left_arity);
        self.table.find(left.iter().copied(), |e| {
            lefts[e as usize * arity..].iter().zip(left).all(|(a, b)| a == b)
        })
    }

    /// `left`'s entry, created uncommitted and with an empty chain when
    /// the tuple is new.
    fn entry(&mut self, left: &[u32]) -> usize {
        assert_eq!(left.len(), self.left_arity, "left arity");
        let at = match self.find(left) {
            Ok(e) => return e as usize,
            Err(at) => at,
        };
        self.lefts.extend_from_slice(left);
        self.rights.resize(self.rights.len() + self.right_arity, 0);
        self.committed.push(false);
        self.heads.push(NONE);
        let (lefts, arity) = (&self.lefts, self.left_arity);
        self.table.insert(at, move |e| lefts[e as usize * arity..][..arity].iter().copied())
            as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_are_found_by_their_left_ids() {
        let mut fd = FdTable::new(2, 1);
        assert_eq!(fd.get(&[1, 2]), None);
        assert_eq!(fd.commit(&[1, 2], &[7]).count(), 0);
        assert_eq!(fd.get(&[1, 2]), Some(&[7][..]));
        assert_eq!(fd.get(&[2, 1]), None);
        // Re-committing the same pair changes nothing.
        assert_eq!(fd.commit(&[1, 2], &[7]).count(), 0);
        assert_eq!(fd.get(&[1, 2]), Some(&[7][..]));
    }

    #[test]
    fn the_first_commit_returns_the_chain_once() {
        let mut fd = FdTable::new(1, 1);
        fd.link(0, &[5]);
        fd.link(1, &[6]);
        fd.link(2, &[5]);
        // A linked but uncommitted tuple is not a commit.
        assert_eq!(fd.get(&[5]), None);
        assert_eq!(fd.commit(&[5], &[9]).collect::<Vec<_>>(), vec![2, 0]);
        assert_eq!(fd.commit(&[5], &[9]).count(), 0, "a chain is walked at most once");
        assert_eq!(fd.commit(&[6], &[9]).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn growth_keeps_every_entry_and_chain() {
        let mut fd = FdTable::new(1, 2);
        for class in 0..2_000u32 {
            fd.link(class, &[class % 700]);
        }
        for k in 0..700u32 {
            let chain: Vec<u32> = fd.commit(&[k], &[k, k + 1]).collect();
            let want: Vec<u32> = (0..2_000).filter(|c| c % 700 == k).rev().collect();
            assert_eq!(chain, want);
        }
        for k in 0..700u32 {
            assert_eq!(fd.get(&[k]), Some(&[k, k + 1][..]));
        }
    }

    #[test]
    fn empty_tuples_are_one_key() {
        // `choice((), (X))`: every candidate shares the empty left tuple.
        let mut fd = FdTable::new(0, 1);
        assert_eq!(fd.get(&[]), None);
        fd.commit(&[], &[3]);
        assert_eq!(fd.get(&[]), Some(&[3][..]));
        // A set: no right terms.
        let mut set = FdTable::new(2, 0);
        set.commit(&[1, 2], &[]);
        assert!(set.get(&[1, 2]).is_some() && set.get(&[2, 1]).is_none());
    }
}
