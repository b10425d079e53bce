//! String interning for the log data model.
//!
//! At paper volume the dataset repeats the same few thousand strings
//! (user agents, ASNs, sitenames, URI paths) across hundreds of
//! thousands of rows. [`StringInterner`] stores each distinct string
//! once and hands out a stable 4-byte [`Sym`] id; [`crate::table`]
//! builds the compact row representation on top of it.
//!
//! Ids are assigned in first-intern order, so an interner filled by a
//! deterministic producer is itself deterministic — a property the
//! parallel generator's shard-merge relies on. The lookup is an
//! open-addressed table of ids keyed by the [`crate::hash`] Fx hash,
//! which is fast rather than collision-resistant: a log crafted to
//! collide slows interning down but cannot change an id.

use std::hash::BuildHasher;
use std::num::NonZeroU32;

use crate::hash::FxBuildHasher;

/// An interned string id. 4 bytes, with a niche: `Option<Sym>` is also
/// 4 bytes, which keeps [`crate::table::RecordRow`] at 48 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(NonZeroU32);

impl Sym {
    /// The dense index of this symbol in its interner (0-based).
    pub fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    pub(crate) fn from_index(index: usize) -> Sym {
        let raw = u32::try_from(index + 1).expect("interner overflow: > u32::MAX - 1 strings");
        Sym(NonZeroU32::new(raw).expect("index + 1 is nonzero"))
    }
}

/// A deduplicating string table with stable, dense [`Sym`] ids.
///
/// Each distinct string is stored once, in id order, beside its cached
/// 64-bit Fx hash. Lookup probes `slots`, an open-addressed
/// power-of-two table of `index + 1` values (0 marks an empty slot)
/// kept at most half full: linear probing from the slot the hash picks,
/// comparing cached hashes before strings. Growing it rehashes from the
/// cached hashes, never from the strings.
#[derive(Debug, Clone, Default)]
pub struct StringInterner {
    strings: Vec<String>,
    /// `hashes[i]` is the Fx hash of `strings[i]`.
    hashes: Vec<u64>,
    /// Open-addressed slot table: 0 = empty, else a dense index + 1.
    slots: Vec<u32>,
}

impl StringInterner {
    /// An empty interner.
    pub fn new() -> StringInterner {
        StringInterner::default()
    }

    /// An empty interner with room for `n` distinct strings.
    pub fn with_capacity(n: usize) -> StringInterner {
        StringInterner {
            strings: Vec::with_capacity(n),
            hashes: Vec::with_capacity(n),
            slots: vec![0; slots_for(n)],
        }
    }

    fn hash_of(s: &str) -> u64 {
        FxBuildHasher::default().hash_one(s)
    }

    /// The slot holding `s` (`Ok`), or the empty slot where it belongs
    /// (`Err`). The table must have at least one empty slot.
    fn probe(&self, s: &str, hash: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                0 => return Err(at),
                raw => {
                    let i = raw as usize - 1;
                    if self.hashes[i] == hash && self.strings[i] == s {
                        return Ok(i);
                    }
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Intern `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> Sym {
        if 2 * (self.strings.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = Self::hash_of(s);
        match self.probe(s, hash) {
            Ok(i) => Sym::from_index(i),
            Err(at) => {
                let sym = Sym::from_index(self.strings.len());
                self.slots[at] = sym.0.get();
                self.strings.push(s.to_string());
                self.hashes.push(hash);
                sym
            }
        }
    }

    /// Double the slot table (or make the first one) and re-seat every
    /// id from its cached hash.
    fn grow(&mut self) {
        let size = slots_for(self.strings.len() + 1);
        let mask = size - 1;
        let mut slots = vec![0u32; size];
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & mask;
            while slots[at] != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = Sym::from_index(i).0.get();
        }
        self.slots = slots;
    }

    /// The id of `s`, if it has been interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(s, Self::hash_of(s)).ok().map(Sym::from_index)
    }

    /// The string behind an id.
    ///
    /// # Panics
    /// If `sym` did not come from this interner (or one it was cloned
    /// from) — symbol ids are only meaningful relative to their table.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// All (id, string) pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.iter_from(0)
    }

    /// The (id, string) pairs from dense index `start` on, in id order —
    /// what a consumer that classifies symbols as the interner grows has
    /// not seen yet. Starts in O(1), unlike `iter().skip(start)`.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = (Sym, &str)> {
        let tail = self.strings.get(start..).unwrap_or_default();
        tail.iter().enumerate().map(move |(i, s)| (Sym::from_index(start + i), s.as_str()))
    }

    /// Approximate heap footprint in bytes (for memory reporting).
    pub fn heap_bytes(&self) -> usize {
        let strings: usize =
            self.strings.iter().map(|s| s.capacity() + std::mem::size_of::<String>()).sum();
        strings
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// The smallest power-of-two slot count that holds `n` ids at most
/// half full (0 for none).
fn slots_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (2 * n).next_power_of_two()
    }
}

/// A map from the symbols of one interner onto another symbol space,
/// filled on first sight: the source interner may keep growing, and
/// each of its symbols is resolved and assigned exactly once.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymMap {
    /// Source symbol index → assigned symbol.
    targets: Vec<Option<Sym>>,
}

impl SymMap {
    /// An empty map.
    pub(crate) fn new() -> SymMap {
        SymMap::default()
    }

    /// The symbol assigned to `sym`, calling `assign` on its first sight.
    pub(crate) fn map(&mut self, sym: Sym, assign: impl FnOnce() -> Sym) -> Sym {
        let i = sym.index();
        if i >= self.targets.len() {
            self.targets.resize(i + 1, None);
        }
        *self.targets[i].get_or_insert_with(assign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_resolves() {
        let mut i = StringInterner::new();
        let a = i.intern("GPTBot/1.0");
        let b = i.intern("ClaudeBot/1.0");
        let a2 = i.intern("GPTBot/1.0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "GPTBot/1.0");
        assert_eq!(i.resolve(b), "ClaudeBot/1.0");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn ids_are_insertion_ordered_and_dense() {
        let mut i = StringInterner::new();
        for (n, s) in ["a", "b", "c"].into_iter().enumerate() {
            assert_eq!(i.intern(s).index(), n);
        }
        let collected: Vec<(usize, &str)> = i.iter().map(|(sym, s)| (sym.index(), s)).collect();
        assert_eq!(collected, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn iter_from_yields_the_tail_with_its_ids() {
        let mut i = StringInterner::new();
        for s in ["a", "b", "c"] {
            i.intern(s);
        }
        let tail: Vec<(usize, &str)> = i.iter_from(1).map(|(sym, s)| (sym.index(), s)).collect();
        assert_eq!(tail, vec![(1, "b"), (2, "c")]);
        assert_eq!(i.iter_from(3).count(), 0);
        assert_eq!(i.iter_from(7).count(), 0, "past the end is empty, not a panic");
    }

    #[test]
    fn get_without_interning() {
        let mut i = StringInterner::new();
        assert_eq!(i.get("x"), None);
        let x = i.intern("x");
        assert_eq!(i.get("x"), Some(x));
        assert_eq!(i.get("y"), None);
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let mut i = StringInterner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.intern(""), e);
    }

    #[test]
    fn sym_map_assigns_once_on_first_sight() {
        let mut source = StringInterner::new();
        let mut target = StringInterner::new();
        target.intern("pre-existing");
        let mut map = SymMap::new();
        let b = source.intern("b");
        let a = source.intern("a");
        let mut calls = 0;
        let mut remap = |sym: Sym, source: &StringInterner| {
            map.map(sym, || {
                calls += 1;
                target.intern(source.resolve(sym))
            })
        };
        let a2 = remap(a, &source);
        let b2 = remap(b, &source);
        assert_eq!(remap(a, &source), a2);
        let c = source.intern("c");
        let c2 = remap(c, &source);
        assert_eq!(calls, 3);
        assert_eq!([a2.index(), b2.index(), c2.index()], [1, 2, 3]);
    }

    #[test]
    fn option_sym_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Option<Sym>>(), 4);
    }

    #[test]
    fn determinism_across_instances() {
        let mut a = StringInterner::new();
        let mut b = StringInterner::new();
        for s in ["x", "y", "x", "z"] {
            assert_eq!(a.intern(s), b.intern(s));
        }
    }
}
