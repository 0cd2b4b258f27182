//! CRC-32 (IEEE 802.3 polynomial) for segment-entry framing.
//!
//! Detects torn writes and bit rot in the on-disk log; it is *not* a
//! security mechanism (records are independently signature-verified).
//!
//! Every append and every cold read of the serving path checksums a whole
//! entry, so the loop is slicing-by-8: eight table lookups fold eight input
//! bytes per step instead of one.

const POLY: u32 = 0xEDB88320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// One byte into the running (pre-inversion) CRC.
fn step(crc: u32, byte: u8) -> u32 {
    TABLES[0][((crc ^ byte as u32) & 0xff) as usize] ^ (crc >> 8)
}

/// Incremental CRC-32: feed discontiguous pieces (e.g. an entry header and
/// its body) without concatenating them first.
#[derive(Clone, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh computation.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Crc32 {
        Crc32(0xFFFFFFFF)
    }

    /// Folds `data` into the running CRC.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = step(crc, b);
        }
        self.0 = crc;
    }

    /// The CRC of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time definition: the oracle for the sliced loop.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFFFFFF, |crc, b| step(crc, *b))
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        // Long enough to run the eight-byte loop and leave a remainder.
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414FA339);
    }

    #[test]
    fn detects_change() {
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut c = Crc32::new();
        c.update(b"123");
        c.update(b"");
        c.update(b"456789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    proptest! {
        /// Any data, starting at any alignment, fed in any split of
        /// `update` calls, checksums to the bytewise definition.
        #[test]
        fn sliced_update_matches_the_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            skip in 0usize..9,
            cuts in proptest::collection::vec(0usize..600, 0..6),
        ) {
            let data = &data[skip.min(data.len())..];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                c.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(c.finish(), crc32_bytewise(data));
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }
}
