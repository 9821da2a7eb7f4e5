//! Interned symbols.
//!
//! Predicate names, constants like `a` or `engl`, and function symbols
//! (the Huffman tree constructor `t`) are interned once per process and
//! compared as `u32`s thereafter. Interned strings are leaked — the
//! interner lives for the lifetime of the process, which is the usual
//! trade-off for compiler-style workloads. The id → string side is an
//! append-only array of write-once slots, so [`Symbol::as_str`] takes
//! no lock; only [`Symbol::intern`] locks, to look up or add a string.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, hash and compare.
///
/// Equality is by interner id; [`Ord`] is by the *resolved string* so
/// that orderings are independent of interning order (important for
/// deterministic tie-breaking in the greedy executor).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// Chunked id → string storage: chunk `c` holds `BASE << c` slots, so
/// 25 chunks cover the whole `u32` range. A slot is written once, before
/// its id is handed out, and read without a lock.
const BASE: u32 = 256;
const NUM_CHUNKS: usize = 25;

struct Slots {
    chunks: [OnceLock<Box<[OnceLock<&'static str>]>>; NUM_CHUNKS],
}

impl Slots {
    /// (chunk index, offset within chunk) for an id.
    fn locate(id: u32) -> (usize, usize) {
        let k = (id / BASE) + 1;
        let c = (31 - k.leading_zeros()) as usize;
        let start = (BASE as u64) * ((1u64 << c) - 1);
        (c, (id as u64 - start) as usize)
    }

    fn slot(&self, id: u32) -> &OnceLock<&'static str> {
        let (c, off) = Slots::locate(id);
        let chunk = self.chunks[c]
            .get_or_init(|| (0..(BASE as usize) << c).map(|_| OnceLock::new()).collect());
        &chunk[off]
    }
}

static SLOTS: Slots = Slots { chunks: [const { OnceLock::new() }; NUM_CHUNKS] };

/// string → id, the write side; taken only by [`Symbol::intern`].
fn interner() -> &'static Mutex<HashMap<&'static str, u32>> {
    static MAP: OnceLock<Mutex<HashMap<&'static str, u32>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Symbol {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        let mut map = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(map.len()).expect("interner overflow");
        SLOTS.slot(id).set(leaked).expect("a fresh symbol id");
        map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. Lock-free.
    pub fn as_str(self) -> &'static str {
        SLOTS.slot(self.0).get().expect("an interned symbol")
    }

    /// The raw interner id. Exposed for dense-map keying in the engine.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("prm");
        let b = Symbol::intern("prm");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "prm");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(Symbol::intern("least"), Symbol::intern("most"));
    }

    #[test]
    fn ordering_is_lexicographic_not_by_id() {
        // Intern in reverse lexicographic order; Ord must still be by string.
        let z = Symbol::intern("zzz_order_probe");
        let a = Symbol::intern("aaa_order_probe");
        assert!(a < z);
    }

    #[test]
    fn strings_read_back_across_chunk_boundaries() {
        // 2 000 fresh symbols span chunks 0–2 (256, 512, 1 024 slots).
        let names: Vec<String> = (0..2000).map(|i| format!("chunk_probe_{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(s.as_str(), n);
            assert_eq!(Symbol::intern(n), *s);
        }
        assert_eq!(Slots::locate(BASE - 1), (0, BASE as usize - 1));
        assert_eq!(Slots::locate(BASE), (1, 0));
        assert_eq!(Slots::locate(3 * BASE), (2, 0));
        assert_eq!(Slots::locate(u32::MAX).0, NUM_CHUNKS - 1);
    }

    #[test]
    fn concurrent_interning_and_reading_agree() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for i in 0..600 {
                        // Threads share half their names, so they race
                        // on the same strings as well as on fresh ids.
                        let name = format!("race_probe_{}_{i}", if i % 2 == 0 { 0 } else { t });
                        let s = Symbol::intern(&name);
                        assert_eq!(s.as_str(), name);
                        seen.push((s, name));
                    }
                    seen
                })
            })
            .collect();
        let all: Vec<(Symbol, String)> =
            handles.into_iter().flat_map(|h| h.join().expect("no panic")).collect();
        for (s, name) in &all {
            assert_eq!(s.as_str(), name);
            assert_eq!(Symbol::intern(name), *s);
        }
    }

    #[test]
    fn display_shows_the_string() {
        assert_eq!(Symbol::intern("takes").to_string(), "takes");
    }
}
