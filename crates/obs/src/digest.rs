//! SHA-256 in safe Rust (FIPS 180-4), and [`Fingerprint`], a fast
//! 128-bit content fingerprint.
//!
//! The manifest's `manifest_digest` and the benchmark's artifacts use
//! SHA-256. Run outputs are fingerprinted instead: the CLI feeds every
//! byte it writes through a [`Fingerprint`] on the writer's critical
//! path, where SHA-256 cost more than the runs it described. The
//! fingerprint tells outputs apart; it is not a cryptographic hash.

const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // Block still partial and input exhausted; falling
                // through would clobber buf_len with the (empty)
                // remainder length.
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // update() above never pads the length word in, so buf_len is
        // exactly 56 here; append the big-endian bit count manually.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Finish and return lowercase hex.
    pub fn finalize_hex(self) -> String {
        to_hex(&self.finalize())
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// SHA-256 of `data` as lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize_hex()
}

/// Lowercase hex of `bytes`.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{b:02x}"));
    }
    out
}

/// The keys of [`Fingerprint`]: the first hex digits of π's fraction
/// in 64-bit words, low bit set. Lane `i` keys its low word with key
/// `2i` and starts from key `2i + 1`; the finish mixes with keys 8–11
/// and 0.
const FP_KEYS: [u64; 12] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7345,
    0xa409_3822_299f_31d1,
    0x082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6d,
    0xc0ac_29b7_c97c_50dd,
    0x3f84_d5b5_b547_0917,
    0x9216_d5d9_8979_fb1b,
    0xd131_0ba6_98df_b5ad,
    0x2ffd_72db_d01a_dfb7,
    0xb8e1_afed_6a26_7e97,
];

/// Bytes per [`Fingerprint`] block: four lanes of 16 bytes.
const FP_BLOCK: usize = 64;

/// The 64×64→128-bit product of `a` and `b`, folded to 64 bits.
fn fold_mul(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// An incremental 128-bit content fingerprint of a byte stream.
///
/// Four independent lanes each take 16 bytes of every 64-byte block
/// with one 64×64→128-bit multiply, chained through the lane's state so
/// the order of blocks matters. A partial block is buffered, so the
/// value depends only on the bytes, not on how writes split them; the
/// finish mixes in the length. Not a cryptographic hash: it tells
/// outputs apart, and an adversary could forge a collision.
#[derive(Clone)]
pub struct Fingerprint {
    lanes: [u64; 4],
    buf: [u8; FP_BLOCK],
    buf_len: usize,
    total_len: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// The fingerprint of the empty stream.
    pub fn new() -> Fingerprint {
        Fingerprint {
            lanes: [FP_KEYS[1], FP_KEYS[3], FP_KEYS[5], FP_KEYS[7]],
            buf: [0; FP_BLOCK],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb whole blocks (`blocks.len()` is a multiple of the block
    /// size), the lanes held in registers.
    fn blocks(lanes: &mut [u64; 4], blocks: &[u8]) {
        let [mut a, mut b, mut c, mut d] = *lanes;
        for block in blocks.chunks_exact(FP_BLOCK) {
            let w = |i: usize| le64(&block[8 * i..8 * i + 8]);
            a = fold_mul(w(0) ^ FP_KEYS[0], w(1) ^ a);
            b = fold_mul(w(2) ^ FP_KEYS[2], w(3) ^ b);
            c = fold_mul(w(4) ^ FP_KEYS[4], w(5) ^ c);
            d = fold_mul(w(6) ^ FP_KEYS[6], w(7) ^ d);
        }
        *lanes = [a, b, c, d];
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (FP_BLOCK - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < FP_BLOCK {
                return;
            }
            Fingerprint::blocks(&mut self.lanes, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % FP_BLOCK;
        Fingerprint::blocks(&mut self.lanes, &data[..whole]);
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Bytes absorbed so far.
    pub fn bytes(&self) -> u64 {
        self.total_len
    }

    /// The 128-bit fingerprint of everything absorbed so far.
    pub fn finish(&self) -> u128 {
        let mut lanes = self.lanes;
        if self.buf_len > 0 {
            let mut last = [0u8; FP_BLOCK];
            last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            Fingerprint::blocks(&mut lanes, &last);
        }
        let [a, b, c, d] = lanes;
        let x = fold_mul(a ^ FP_KEYS[8], b ^ self.total_len);
        let y = fold_mul(c ^ FP_KEYS[9], d ^ self.total_len.rotate_left(32));
        let lo = fold_mul(x ^ FP_KEYS[10], y ^ FP_KEYS[11]);
        let hi = fold_mul(y ^ lo, x ^ FP_KEYS[0]);
        (u128::from(hi) << 64) | u128::from(lo)
    }

    /// [`Fingerprint::finish`] as `fp128:` and 32 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("fp128:{:032x}", self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // NIST FIPS 180-4 / RFC 6234 vectors.
    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            sha256_hex(&[0x61u8; 1_000_000]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256_hex(&data);
        for chunk in [1usize, 3, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize_hex(), oneshot, "chunk size {chunk}");
        }
    }

    /// Known answers, computed by an independent Python transcription of
    /// the lanes, keys and finish.
    #[test]
    fn fingerprint_known_answers() {
        let hex = |data: &[u8]| {
            let mut f = Fingerprint::new();
            f.update(data);
            f.hex()
        };
        let million = vec![0x61u8; 1_000_000];
        assert_eq!(hex(b""), "fp128:d74513cc292a375e105f105b39a03ec6");
        assert_eq!(hex(b"abc"), "fp128:de28f0941b90352c1b411e72ba139a25");
        assert_eq!(hex(&million[..64]), "fp128:73e8652b3ff0f300476440ca6aa02193");
        assert_eq!(hex(&million), "fp128:4b972e36e5af4f24ded2432bd44c76cb");
    }

    #[test]
    fn fingerprint_tells_near_streams_apart() {
        let fp = |data: &[u8]| {
            let mut f = Fingerprint::new();
            f.update(data);
            f.finish()
        };
        let base: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(fp(&base)));
        // Zero padding, one flipped bit anywhere, and swapped blocks.
        let mut padded = base.clone();
        padded.push(0);
        assert!(seen.insert(fp(&padded)));
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert!(seen.insert(fp(&flipped)), "bit flip at {i}");
        }
        let mut swapped = base.clone();
        swapped[..64].copy_from_slice(&base[64..128]);
        swapped[64..128].copy_from_slice(&base[..64]);
        assert!(seen.insert(fp(&swapped)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The fingerprint depends on the bytes only, not on where the
        /// writes split them.
        #[test]
        fn fingerprint_ignores_split_points(
            data in prop::collection::vec(any::<u8>(), 0..400),
            cuts in prop::collection::vec(0usize..400, 0..8),
        ) {
            let mut whole = Fingerprint::new();
            whole.update(&data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut split = Fingerprint::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                split.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(split.bytes(), data.len() as u64);
            prop_assert_eq!(split.finish(), whole.finish());
        }
    }
}
