//! Byte-level field writers shared by the text encoders
//! ([`crate::codec`] CSV and [`crate::jsonl`] JSON Lines): integers in
//! decimal and fixed-width hex without going through `fmt`, and
//! [`SymBytes`], a per-[`Sym`] cache of a string field's escaped bytes.
//! Timestamps go through [`crate::time::Iso8601Writer`].

use crate::intern::{StringInterner, Sym};

/// Encoders hand their output to the writer in blocks of at least this
/// many bytes, not one `write_all` per line.
pub(crate) const BLOCK_BYTES: usize = 64 << 10;

/// Append `v` in decimal, zero-padded to at least `min_width` digits.
pub(crate) fn push_decimal(out: &mut Vec<u8>, mut v: u64, min_width: usize) {
    let mut buf = [b'0'; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[start.min(buf.len() - min_width)..]);
}

/// Append `v` as 16 lowercase hex digits (`{:016x}`).
pub(crate) fn push_hex16(out: &mut Vec<u8>, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, digit) in buf.iter_mut().enumerate() {
        *digit = HEX[((v >> (60 - 4 * i)) & 0xF) as usize];
    }
    out.extend_from_slice(&buf);
}

/// The escaped bytes of every symbol seen so far, in one arena.
///
/// A symbol's entry is filled the first time it is written and reused
/// afterwards, so each distinct string is escaped once per encoder. The
/// cache is keyed by symbol index: an encoder must always be handed the
/// same interner, which may grow between calls but never renumber (the
/// [`crate::sink::RowSink`] contract).
#[derive(Debug, Clone)]
pub(crate) struct SymBytes {
    /// Symbol index → `arena[start..end]`; `start == usize::MAX` = unseen.
    spans: Vec<(usize, usize)>,
    arena: Vec<u8>,
    escape: fn(&str, &mut Vec<u8>),
}

impl SymBytes {
    const UNSEEN: (usize, usize) = (usize::MAX, 0);

    /// An empty cache filling entries with `escape`.
    pub(crate) fn new(escape: fn(&str, &mut Vec<u8>)) -> SymBytes {
        SymBytes { spans: Vec::new(), arena: Vec::new(), escape }
    }

    /// Append the escaped bytes of `sym` (resolved in `strings`).
    pub(crate) fn push(&mut self, out: &mut Vec<u8>, sym: Sym, strings: &StringInterner) {
        let i = sym.index();
        if i >= self.spans.len() {
            self.spans.resize(strings.len().max(i + 1), Self::UNSEEN);
        }
        let mut span = self.spans[i];
        if span == Self::UNSEEN {
            let start = self.arena.len();
            (self.escape)(strings.resolve(sym), &mut self.arena);
            span = (start, self.arena.len());
            self.spans[i] = span;
        }
        out.extend_from_slice(&self.arena[span.0..span.1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_matches_fmt() {
        for (v, width) in
            [(0u64, 0usize), (0, 4), (7, 2), (42, 2), (2025, 4), (99, 4), (u64::MAX, 1)]
        {
            let mut out = Vec::new();
            push_decimal(&mut out, v, width);
            assert_eq!(String::from_utf8(out).unwrap(), format!("{v:0width$}"));
        }
    }

    #[test]
    fn hex_matches_fmt() {
        for v in [0u64, 0xABCD, 0xDEAD_BEEF, u64::MAX, 1 << 63] {
            let mut out = Vec::new();
            push_hex16(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), format!("{v:016x}"));
        }
    }

    #[test]
    fn sym_bytes_escape_once_and_follow_a_growing_interner() {
        fn upper(s: &str, out: &mut Vec<u8>) {
            out.extend_from_slice(s.to_ascii_uppercase().as_bytes());
        }
        let mut strings = StringInterner::new();
        let a = strings.intern("a");
        let mut cache = SymBytes::new(upper);
        let mut out = Vec::new();
        cache.push(&mut out, a, &strings);
        let b = strings.intern("bc");
        cache.push(&mut out, b, &strings);
        cache.push(&mut out, a, &strings);
        assert_eq!(out, b"ABCA");
        assert_eq!(cache.arena, b"ABC", "each symbol is escaped once");
    }
}
