//! Binding frames: variable assignments during rule-body matching.

use gbc_ast::{Value, VarId};
use gbc_storage::dictionary::decode_ref;
use gbc_storage::DICT_MISS;

/// A flat binding frame indexed by [`VarId`]. Bind/unbind pairs follow a
/// trail discipline inside the matcher, so the frame is reused across
/// the whole enumeration of a rule body without allocation churn.
///
/// A variable is bound either by its dictionary id
/// ([`Bindings::bind_encoded`] — the id-space matcher always does) or by
/// value ([`Bindings::bind`], e.g. arithmetic assignments). An id-bound
/// slot decodes nothing when bound: [`Bindings::get`] borrows its value
/// from the dictionary on access. Scans read [`Bindings::id_of`] to
/// build index keys and compare repeated variables as plain `u32`s; a
/// value-bound slot reports [`DICT_MISS`] and falls back to value
/// comparison. Equality of frames is defined over the **values** only:
/// whether a binder happened to know an id is bookkeeping, not content.
#[derive(Clone, Debug, Default, Eq)]
pub struct Bindings {
    slots: Vec<Option<Value>>,
    ids: Vec<u32>,
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.len() as u32).all(|i| self.get(VarId(i)) == other.get(VarId(i)))
    }
}

impl Bindings {
    /// A frame with room for `n` variables, all unbound.
    pub fn new(n: usize) -> Bindings {
        Bindings { slots: vec![None; n], ids: vec![DICT_MISS; n] }
    }

    /// The value bound to `v`, if any.
    pub fn get(&self, v: VarId) -> Option<&Value> {
        match self.id_of(v) {
            DICT_MISS => self.slots.get(v.index()).and_then(Option::as_ref),
            id => Some(decode_ref(id)),
        }
    }

    /// The dictionary id bound to `v`, or [`DICT_MISS`] when `v` is
    /// unbound or was bound without a known id.
    pub fn id_of(&self, v: VarId) -> u32 {
        self.ids.get(v.index()).copied().unwrap_or(DICT_MISS)
    }

    /// True when `v` is bound.
    pub fn is_bound(&self, v: VarId) -> bool {
        self.id_of(v) != DICT_MISS || self.slots.get(v.index()).is_some_and(Option::is_some)
    }

    /// Bind `v` to `val` (id unknown).
    ///
    /// # Panics
    /// Debug-asserts that `v` was unbound — the matcher must check-and-
    /// compare rather than rebind.
    pub fn bind(&mut self, v: VarId, val: Value) {
        debug_assert!(!self.is_bound(v), "rebinding {v:?}");
        self.slots[v.index()] = Some(val);
    }

    /// Bind `v` to the value whose dictionary id is `id`.
    ///
    /// # Panics
    /// Debug-asserts that `v` was unbound, like [`Bindings::bind`].
    pub fn bind_encoded(&mut self, v: VarId, id: u32) {
        debug_assert!(!self.is_bound(v), "rebinding {v:?}");
        self.ids[v.index()] = id;
    }

    /// Remove the binding of `v` (trail rollback).
    pub fn unbind(&mut self, v: VarId) {
        self.slots[v.index()] = None;
        self.ids[v.index()] = DICT_MISS;
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no variables exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Snapshot of the current assignment (for collecting match results).
    pub fn snapshot(&self) -> Vec<Option<Value>> {
        (0..self.len() as u32).map(|i| self.get(VarId(i)).cloned()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_get_unbind() {
        let mut b = Bindings::new(3);
        assert!(!b.is_bound(VarId(1)));
        b.bind(VarId(1), Value::int(42));
        assert_eq!(b.get(VarId(1)), Some(&Value::int(42)));
        assert_eq!(b.id_of(VarId(1)), DICT_MISS, "value-level bind carries no id");
        b.unbind(VarId(1));
        assert!(!b.is_bound(VarId(1)));
    }

    #[test]
    fn bind_encoded_carries_the_id() {
        let mut b = Bindings::new(2);
        let v = Value::int(7);
        let id = gbc_storage::dictionary::encode(&v);
        b.bind_encoded(VarId(0), id);
        assert_eq!(b.get(VarId(0)), Some(&v));
        assert_eq!(b.id_of(VarId(0)), id);
        b.unbind(VarId(0));
        assert_eq!(b.id_of(VarId(0)), DICT_MISS);
    }

    #[test]
    fn equality_ignores_id_knowledge() {
        let v = Value::int(9);
        let id = gbc_storage::dictionary::encode(&v);
        let mut a = Bindings::new(1);
        let mut b = Bindings::new(1);
        a.bind(VarId(0), v.clone());
        b.bind_encoded(VarId(0), id);
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_get_is_none() {
        let b = Bindings::new(1);
        assert_eq!(b.get(VarId(9)), None);
        assert_eq!(b.id_of(VarId(9)), DICT_MISS);
    }

    #[test]
    #[should_panic(expected = "rebinding")]
    #[cfg(debug_assertions)]
    fn rebinding_panics_in_debug() {
        let mut b = Bindings::new(1);
        b.bind(VarId(0), Value::int(1));
        b.bind(VarId(0), Value::int(2));
    }
}
