//! Ed25519 signatures (RFC 8032).
//!
//! The paper specifies EC signatures for writer/owner/server identity
//! ("'signatures' refer to ECDSA ... because of smaller key sizes", §V). We
//! substitute deterministic Ed25519 — same key sizes and role, no per-
//! signature nonce to mismanage; see DESIGN.md.

use crate::edwards::Point;
use crate::scalar::Scalar;
use crate::sha2::Sha512;

/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a secret seed in bytes.
pub const SEED_LEN: usize = 32;

/// An Ed25519 signing key (seed + cached expanded state).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    scalar: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

/// An Ed25519 verification (public) key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct VerifyingKey {
    compressed: [u8; 32],
}

/// A detached Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", crate::hex::encode(&self.compressed[..6]))
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({}…)", crate::hex::encode(&self.0[..6]))
    }
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(public: {:?})", self.public)
    }
}

fn clamp(mut h: [u8; 32]) -> [u8; 32] {
    h[0] &= 248;
    h[31] &= 127;
    h[31] |= 64;
    h
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        let h = crate::sha2::sha512(seed);
        let mut lo = [0u8; 32];
        lo.copy_from_slice(&h[..32]);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        let clamped = clamp(lo);
        // The clamped scalar is < 2^255 but may exceed ℓ; reduce for group math.
        let scalar = Scalar::from_bytes_mod_order(&clamped);
        let public_point = Point::mul_base(&scalar);
        let public = VerifyingKey { compressed: public_point.compress() };
        SigningKey { seed: *seed, scalar, prefix, public }
    }

    /// Generates a fresh random signing key.
    pub fn generate<R: rand::RngCore + rand::CryptoRng>(rng: &mut R) -> SigningKey {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        SigningKey::from_seed(&seed)
    }

    /// Returns the seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Returns the verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix).update(msg);
        let r = Scalar::from_bytes_mod_order_wide(&h.finalize());
        let r_point = Point::mul_base(&r);
        let r_enc = r_point.compress();

        let mut h = Sha512::new();
        h.update(&r_enc).update(&self.public.compressed).update(msg);
        let k = Scalar::from_bytes_mod_order_wide(&h.finalize());

        let s = r.add(k.mul(self.scalar));
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_enc);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

impl VerifyingKey {
    /// Parses a compressed public key; `None` if not a valid curve point.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<VerifyingKey> {
        Point::decompress(bytes)?;
        Some(VerifyingKey { compressed: *bytes })
    }

    /// Returns the 32-byte compressed encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.compressed
    }

    /// Verifies a signature over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let r_enc: [u8; 32] = sig.0[..32].try_into().unwrap();
        let s_enc: [u8; 32] = sig.0[32..].try_into().unwrap();
        // Reject non-canonical s (signature malleability).
        let s = match Scalar::from_canonical_bytes(&s_enc) {
            Some(s) => s,
            None => return false,
        };
        let a = match Point::decompress(&self.compressed) {
            Some(a) => a,
            None => return false,
        };
        let r = match Point::decompress(&r_enc) {
            Some(r) => r,
            None => return false,
        };
        let mut h = Sha512::new();
        h.update(&r_enc).update(&self.compressed).update(msg);
        let k = Scalar::from_bytes_mod_order_wide(&h.finalize());
        // Check s·B == R + k·A  ⇔  s·B - k·A == R
        let check = Point::double_scalar_mul_basepoint(&s, &k, &a.neg());
        check == r
    }
}

impl Signature {
    /// Parses a 64-byte signature.
    pub fn from_bytes(b: &[u8]) -> Option<Signature> {
        let arr: [u8; 64] = b.try_into().ok()?;
        Some(Signature(arr))
    }

    /// Returns the raw bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let seed = hex::decode_array::<32>(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(&key.verifying_key().to_bytes()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = key.sign(b"");
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
                .replace(char::is_whitespace, "")
        );
        assert!(key.verifying_key().verify(b"", &sig));
    }

    // RFC 8032 §7.1 TEST 2 (one-byte message 0x72).
    #[test]
    fn rfc8032_test2() {
        let seed = hex::decode_array::<32>(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(&key.verifying_key().to_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = key.sign(&[0x72]);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
                .replace(char::is_whitespace, "")
        );
        assert!(key.verifying_key().verify(&[0x72], &sig));
    }

    #[test]
    fn sign_verify_roundtrip_random() {
        let mut rng = rand::thread_rng();
        for i in 0..8 {
            let key = SigningKey::generate(&mut rng);
            let msg = vec![i as u8; i * 13 + 1];
            let sig = key.sign(&msg);
            assert!(key.verifying_key().verify(&msg, &sig));
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let sig = key.sign(b"hello world");
        assert!(!key.verifying_key().verify(b"hello worle", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let mut sig = key.sign(b"hello").to_bytes();
        sig[10] ^= 0x40;
        let sig = Signature::from_bytes(&sig).unwrap();
        assert!(!key.verifying_key().verify(b"hello", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = SigningKey::from_seed(&[1u8; 32]);
        let k2 = SigningKey::from_seed(&[2u8; 32]);
        let sig = k1.sign(b"msg");
        assert!(!k2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn high_s_rejected() {
        // Adding ℓ to s makes the signature non-canonical; verification must
        // reject it even though the group equation would still hold.
        use crate::scalar::L;
        let key = SigningKey::from_seed(&[9u8; 32]);
        let sig = key.sign(b"malleability");
        let mut s = [0u64; 4];
        for i in 0..4 {
            s[i] = u64::from_le_bytes(sig.0[32 + i * 8..40 + i * 8].try_into().unwrap());
        }
        // s + L (s < L so no overflow past 2^256 since L < 2^253)
        let mut carry = 0u128;
        let mut s_plus = [0u64; 4];
        for i in 0..4 {
            let v = s[i] as u128 + L[i] as u128 + carry;
            s_plus[i] = v as u64;
            carry = v >> 64;
        }
        let mut forged = sig.0;
        for i in 0..4 {
            forged[32 + i * 8..40 + i * 8].copy_from_slice(&s_plus[i].to_le_bytes());
        }
        assert!(!key.verifying_key().verify(b"malleability", &Signature(forged)));
    }

    /// Verification as it ran before the table-driven kernels: the same
    /// checks, with the bit-by-bit Straus loop for the group equation.
    fn oracle_verify(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
        let (r_enc, s_enc) = (sig[..32].try_into().unwrap(), sig[32..].try_into().unwrap());
        let (Some(s), Some(a), Some(r)) =
            (Scalar::from_canonical_bytes(s_enc), Point::decompress(key), Point::decompress(r_enc))
        else {
            return false;
        };
        let k = challenge(r_enc, key, msg);
        Point::double_scalar_mul_bitwise(&s, &k, &a.neg()) == r
    }

    fn challenge(r_enc: &[u8; 32], key: &[u8; 32], msg: &[u8]) -> Scalar {
        let mut h = Sha512::new();
        h.update(r_enc).update(key).update(msg);
        Scalar::from_bytes_mod_order_wide(&h.finalize())
    }

    /// Runs both verifiers on raw bytes (no key parsing on the way in),
    /// asserts they agree, and returns the verdict.
    fn both_verify(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
        let new = VerifyingKey { compressed: *key }.verify(msg, &Signature(*sig));
        assert_eq!(new, oracle_verify(key, msg, sig), "key {}", hex::encode(key));
        new
    }

    /// The signature (R, s) with s = r + k·a, k hashed over `r_enc`.
    fn forge(r_enc: [u8; 32], r: Scalar, a: Scalar, key: &[u8; 32], msg: &[u8]) -> [u8; 64] {
        let s = r.add(challenge(&r_enc, key, msg).mul(a));
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_enc);
        sig[32..].copy_from_slice(&s.to_bytes());
        sig
    }

    #[test]
    fn verify_accepts_and_rejects_exactly_what_the_bitwise_check_did() {
        use crate::field::Fe;
        use crate::scalar::L;
        let key = SigningKey::from_seed(&[11u8; 32]);
        let pk = key.verifying_key().to_bytes();
        let sig = key.sign(b"pinned").0;
        assert!(both_verify(&pk, b"pinned", &sig));
        assert!(!both_verify(&pk, b"pinnee", &sig));
        let mut flipped_r = sig;
        flipped_r[3] ^= 0x01;
        assert!(!both_verify(&pk, b"pinned", &flipped_r));
        let r_point = Point::decompress(&sig[..32].try_into().unwrap()).unwrap();
        let mut moved_r = sig;
        moved_r[..32].copy_from_slice(&r_point.add(&Point::base()).compress());
        assert!(!both_verify(&pk, b"pinned", &moved_r));

        // s + ℓ: the same group equation, a non-canonical s.
        let s = Scalar::from_canonical_bytes(&sig[32..].try_into().unwrap()).unwrap();
        let mut s_plus_l = sig;
        let mut carry = 0u128;
        for (i, limb) in s.0.iter().enumerate() {
            let v = *limb as u128 + L[i] as u128 + carry;
            s_plus_l[32 + 8 * i..40 + 8 * i].copy_from_slice(&(v as u64).to_le_bytes());
            carry = v >> 64;
        }
        assert!(!both_verify(&pk, b"pinned", &s_plus_l));

        // Encodings of the identity (y = 1), of the order-2 point (y = −1),
        // of y = p + 1 (the identity, non-canonical) and "−0" (the identity
        // with the sign bit set).
        let identity = Point::identity().compress();
        let order2 = (Fe::ZERO - Fe::ONE).to_bytes();
        let mut y_p_plus_1 = order2;
        y_p_plus_1[0] += 2;
        let mut minus_zero = identity;
        minus_zero[31] |= 0x80;
        let r = Scalar::from_u64(31337);
        let r_b = Point::mul_base(&r);
        let zero = Scalar::ZERO;

        // The identity as A: s = r with R = r·B holds for every message; the
        // same signature under "−0" or y = p + 1 is refused.
        for key in [identity, minus_zero, y_p_plus_1] {
            let sig = forge(r_b.compress(), r, zero, &key, b"any");
            assert_eq!(both_verify(&key, b"any", &sig), key == identity);
        }

        // R as the identity with s = k·a holds; the same R as y = p + 1 or
        // "−0" is refused; an order-4 or order-8 R never equals s·B − k·A.
        let a = Scalar::from_u64(5);
        let pk5 = Point::mul_base(&a).compress();
        for r_enc in [identity, minus_zero, y_p_plus_1] {
            let sig = forge(r_enc, zero, a, &pk5, b"m");
            assert_eq!(both_verify(&pk5, b"m", &sig), r_enc == identity);
        }
        let order4 = Point::decompress(&[0u8; 32]).unwrap();
        for t in [order4, crate::edwards::tests::order8_point()] {
            let sig = forge(r_b.add(&t).compress(), r, a, &pk5, b"m");
            assert!(!both_verify(&pk5, b"m", &sig));
        }

        // The order-2 point T2 as A: s·B − k·A == R holds iff k is even.
        // A = a·B + T2 with R = r·B + T2: holds iff k is odd. Both outcomes
        // must occur, and the two verifiers must agree on each.
        let t2 = Point::decompress(&order2).unwrap();
        let mixed = Point::mul_base(&a).add(&t2).compress();
        let mut seen = [[false; 2]; 2];
        for i in 0u8..32 {
            let msg = [i; 3];
            let v = both_verify(&order2, &msg, &forge(r_b.compress(), r, zero, &order2, &msg));
            seen[0][usize::from(v)] = true;
            let sig = forge(r_b.add(&t2).compress(), r, a, &mixed, &msg);
            seen[1][usize::from(both_verify(&mixed, &msg, &sig))] = true;
        }
        assert_eq!(seen, [[true; 2]; 2]);
    }

    #[test]
    fn deterministic_signatures() {
        let key = SigningKey::from_seed(&[42u8; 32]);
        assert_eq!(key.sign(b"x").to_bytes().to_vec(), key.sign(b"x").to_bytes().to_vec());
    }
}
