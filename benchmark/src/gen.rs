//! The seeded input generator.
//!
//! Everything the cluster sees — identities, capsule keys, record bodies,
//! read positions — is a pure function of `--seed`, so two runs with the
//! same seed issue the same requests and every check can regenerate the
//! bytes it expects instead of remembering them.

/// SplitMix64: small, fast, and good enough to make inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for (`seed`, `domain`, `index`).
    pub fn stream(seed: u64, domain: &str, index: u64) -> Rng {
        // FNV-1a over the domain keeps streams of different purposes apart.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in domain.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h.rotate_left(17) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (the tiny modulo bias is irrelevant here).
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    pub fn seed32(&mut self) -> [u8; 32] {
        let mut s = [0u8; 32];
        self.fill(&mut s);
        s
    }
}

/// A 32-byte identity seed for (`seed`, `role`, `index`).
pub fn identity(seed: u64, role: &str, index: u64) -> [u8; 32] {
    Rng::stream(seed, role, index).seed32()
}

/// The body of record `seq` of capsule number `capsule`.
pub fn body(seed: u64, capsule: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    Rng::stream(seed ^ capsule.rotate_left(40), "body", seq).fill(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        assert_eq!(body(7, 0, 3, 100), body(7, 0, 3, 100));
        assert_ne!(body(7, 0, 3, 100), body(7, 0, 4, 100));
        assert_ne!(body(7, 0, 3, 100), body(7, 1, 3, 100));
        assert_ne!(body(7, 0, 3, 100), body(8, 0, 3, 100));
        assert_ne!(identity(7, "owner", 0), identity(7, "writer", 0));
        let mut r = Rng::stream(1, "pos", 0);
        for _ in 0..1000 {
            assert!((5..=9).contains(&r.between(5, 9)));
        }
    }
}
