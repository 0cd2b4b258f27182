//! BLAKE2b (RFC 7693), unkeyed, one-shot.
//!
//! The digest that binds a record's body to its header (`body_hash`). Every
//! served body byte is hashed once by the reader, so this is the read path's
//! bulk hash; names, header hashes and hash pointers stay on SHA-256
//! ([`crate::sha2`]). On 64-bit cores BLAKE2b runs about three times faster
//! than SHA-256 in portable code, and BLAKE2b-256 keeps SHA-256's 128-bit
//! collision resistance.
//!
//! No heap, no lookup tables: the compression function is twelve rounds
//! unrolled over the sixteen-word state, with the message schedule (σ)
//! resolved at compile time.

/// Output size of [`blake2b256`] in bytes.
pub const BLAKE2B_256_LEN: usize = 32;

const BLOCK: usize = 128;

/// The initialisation vector (RFC 7693 §2.6; SHA-512's IV).
const IV: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// The message schedule σ (RFC 7693 §2.7); round `r` uses `SIGMA[r % 10]`.
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// BLAKE2b-256 of `data`: the record body digest.
pub fn blake2b256(data: &[u8]) -> [u8; BLAKE2B_256_LEN] {
    blake2b::<BLAKE2B_256_LEN>(data)
}

/// Unkeyed BLAKE2b of `data` with an `N`-byte output, 1 ≤ `N` ≤ 64.
pub fn blake2b<const N: usize>(data: &[u8]) -> [u8; N] {
    const { assert!(N >= 1 && N <= 64, "BLAKE2b output is 1 to 64 bytes") };
    let mut h = IV;
    // Parameter block word 0: digest length, key length 0, fanout 1, depth 1.
    h[0] ^= 0x0101_0000 ^ N as u64;

    // Every block but the last is full and not final; the last one (empty
    // for empty input, zero-padded when short) carries the final flag.
    let full = data.len().saturating_sub(1) / BLOCK;
    let (blocks, _) = data.as_chunks::<BLOCK>();
    let mut t: u128 = 0;
    for block in blocks.iter().take(full) {
        t += BLOCK as u128;
        compress(&mut h, block, t, false);
    }
    let tail = &data[full * BLOCK..];
    let mut last = [0u8; BLOCK];
    last[..tail.len()].copy_from_slice(tail);
    t += tail.len() as u128;
    compress(&mut h, &last, t, true);

    let mut bytes = [0u8; 64];
    for (out, word) in bytes.as_chunks_mut::<8>().0.iter_mut().zip(h) {
        *out = word.to_le_bytes();
    }
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[..N]);
    out
}

/// The mixing function G (RFC 7693 §3.1) on four state words.
macro_rules! g {
    ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal, $x:expr, $y:expr) => {
        $v[$a] = $v[$a].wrapping_add($v[$b]).wrapping_add($x);
        $v[$d] = ($v[$d] ^ $v[$a]).rotate_right(32);
        $v[$c] = $v[$c].wrapping_add($v[$d]);
        $v[$b] = ($v[$b] ^ $v[$c]).rotate_right(24);
        $v[$a] = $v[$a].wrapping_add($v[$b]).wrapping_add($y);
        $v[$d] = ($v[$d] ^ $v[$a]).rotate_right(16);
        $v[$c] = $v[$c].wrapping_add($v[$d]);
        $v[$b] = ($v[$b] ^ $v[$c]).rotate_right(63);
    };
}

/// One round: G on the four columns, then on the four diagonals.
macro_rules! round {
    ($v:ident, $m:ident, $r:literal) => {
        let s = &SIGMA[$r % 10];
        g!($v, 0, 4, 8, 12, $m[s[0]], $m[s[1]]);
        g!($v, 1, 5, 9, 13, $m[s[2]], $m[s[3]]);
        g!($v, 2, 6, 10, 14, $m[s[4]], $m[s[5]]);
        g!($v, 3, 7, 11, 15, $m[s[6]], $m[s[7]]);
        g!($v, 0, 5, 10, 15, $m[s[8]], $m[s[9]]);
        g!($v, 1, 6, 11, 12, $m[s[10]], $m[s[11]]);
        g!($v, 2, 7, 8, 13, $m[s[12]], $m[s[13]]);
        g!($v, 3, 4, 9, 14, $m[s[14]], $m[s[15]]);
    };
}

/// The compression function F (RFC 7693 §3.2): folds one block into `h`,
/// `t` bytes having been hashed through the end of it.
#[inline(always)]
fn compress(h: &mut [u64; 8], block: &[u8; BLOCK], t: u128, last: bool) {
    let mut m = [0u64; 16];
    for (w, bytes) in m.iter_mut().zip(block.as_chunks::<8>().0) {
        *w = u64::from_le_bytes(*bytes);
    }
    let mut v = [0u64; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    v[12] ^= t as u64;
    v[13] ^= (t >> 64) as u64;
    if last {
        v[14] = !v[14];
    }
    round!(v, m, 0);
    round!(v, m, 1);
    round!(v, m, 2);
    round!(v, m, 3);
    round!(v, m, 4);
    round!(v, m, 5);
    round!(v, m, 6);
    round!(v, m, 7);
    round!(v, m, 8);
    round!(v, m, 9);
    round!(v, m, 10);
    round!(v, m, 11);
    for i in 0..8 {
        h[i] ^= v[i] ^ v[i + 8];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    /// The fixed input pattern of the committed vectors: byte `i` is
    /// `(7i + 3) mod 251`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 7 + 3) % 251) as u8).collect()
    }

    /// BLAKE2b-256 of [`pattern`] at each length, generated offline with
    ///
    /// ```text
    /// python3 -c "import hashlib;[print(n,hashlib.blake2b(bytes((i*7+3)%251 for i in range(n)),digest_size=32).hexdigest()) for n in (0,1,127,128,129,255,256,4096,1<<20)]"
    /// ```
    const VECTORS: [(usize, &str); 9] = [
        (0, "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8"),
        (1, "e88bd757ad5b9bedf372d8d3f0cf6c962a469db61a265f6418e1ffed86da29ec"),
        (127, "7eb3d4fe699cedc52282a1c091627822fe7790ef178af8269c0261d367931246"),
        (128, "6afdad1409d770bce274b62a69123c97c86ffb40ce9708f3ff9ae4cbba8ba080"),
        (129, "69e98b10112e4b7ae396bfbddaee75cc5fe6a9dc1fffc2b11e7c0fc48de04ae5"),
        (255, "79133c6c55eafb6dd1aa1d75fe1622b86492ce7093b81ba85f29205f6d3a7a78"),
        (256, "fabff1fa6173588d4cecdeade31b3237760d62664249e44f621deba4b94367ad"),
        (4096, "d97c769d98e643044ef43a317bbb70dbc68625aaa7ef8674837a83ae822b3bfd"),
        (1 << 20, "6856218b770a694963373f539a34eaf6a3551c51c6fbc1c52a36a9f5e9dc6d11"),
    ];

    #[test]
    fn blake2b256_matches_the_offline_vectors() {
        for (len, want) in VECTORS {
            assert_eq!(hex::encode(&blake2b256(&pattern(len))), want, "length {len}");
        }
    }

    #[test]
    fn rfc7693_appendix_a_blake2b_512_abc() {
        assert_eq!(
            hex::encode(&blake2b::<64>(b"abc")),
            "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1\
             7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"
                .replace(char::is_whitespace, "")
        );
    }

    /// A streaming BLAKE2b-256 that buffers input and holds back a full
    /// block until more arrives: the textbook formulation the one-shot's
    /// block arithmetic must agree with, however the input is split.
    struct Streaming {
        h: [u64; 8],
        t: u128,
        buf: Vec<u8>,
    }

    impl Streaming {
        fn new() -> Self {
            let mut h = IV;
            h[0] ^= 0x0101_0000 ^ BLAKE2B_256_LEN as u64;
            Streaming { h, t: 0, buf: Vec::new() }
        }

        fn update(&mut self, data: &[u8]) {
            for &b in data {
                if self.buf.len() == BLOCK {
                    self.t += BLOCK as u128;
                    compress(&mut self.h, self.buf[..].try_into().unwrap(), self.t, false);
                    self.buf.clear();
                }
                self.buf.push(b);
            }
        }

        fn finalize(mut self) -> [u8; 32] {
            self.t += self.buf.len() as u128;
            self.buf.resize(BLOCK, 0);
            compress(&mut self.h, self.buf[..].try_into().unwrap(), self.t, true);
            let mut out = [0u8; 32];
            for (o, w) in out.chunks_mut(8).zip(self.h) {
                o.copy_from_slice(&w.to_le_bytes());
            }
            out
        }
    }

    proptest! {
        #[test]
        fn one_shot_is_split_invariant_across_block_boundaries(
            data in proptest::collection::vec(any::<u8>(), 100..700),
            cuts in proptest::collection::vec(0usize..700, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut s = Streaming::new();
            let mut from = 0;
            for cut in cuts {
                s.update(&data[from..cut]);
                from = cut;
            }
            s.update(&data[from..]);
            prop_assert_eq!(s.finalize(), blake2b256(&data));
        }
    }
}
