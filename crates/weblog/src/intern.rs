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
//! parallel generator's shard-merge relies on.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::num::NonZeroU32;

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

/// Deterministic SipHash build (seeded with fixed keys): interner
/// behaviour must not vary between processes or runs.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// A deduplicating string table with stable, dense [`Sym`] ids.
///
/// Lookup is a hash map from string hash to candidate ids, so each
/// distinct string is stored exactly once (in the id-indexed vector).
#[derive(Debug, Clone, Default)]
pub struct StringInterner {
    strings: Vec<String>,
    /// string hash → ids of strings with that hash (collision chain).
    buckets: HashMap<u64, Vec<Sym>, FixedState>,
    hasher: FixedState,
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
            buckets: HashMap::with_capacity_and_hasher(n, FixedState::default()),
            hasher: FixedState::default(),
        }
    }

    fn hash_of(&self, s: &str) -> u64 {
        self.hasher.hash_one(s)
    }

    /// Intern `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> Sym {
        let hash = self.hash_of(s);
        let bucket = self.buckets.entry(hash).or_default();
        for &sym in bucket.iter() {
            if self.strings[sym.index()] == s {
                return sym;
            }
        }
        let sym = Sym::from_index(self.strings.len());
        self.strings.push(s.to_string());
        bucket.push(sym);
        sym
    }

    /// The id of `s`, if it has been interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        let bucket = self.buckets.get(&self.hash_of(s))?;
        bucket.iter().copied().find(|&sym| self.strings[sym.index()] == s)
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
        let buckets: usize = self
            .buckets
            .values()
            .map(|v| std::mem::size_of::<u64>() + v.capacity() * std::mem::size_of::<Sym>())
            .sum();
        strings + buckets
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
