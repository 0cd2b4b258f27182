//! X25519 Diffie-Hellman (RFC 7748).
//!
//! Used to establish the per-flow shared key between clients and
//! DataCapsule-servers, which is then expanded via HKDF into HMAC session
//! keys (paper §V, "Secure Responses": "a client and a DataCapsule-server
//! dynamically establish a [shared key] in parallel with actual
//! request/response").

use crate::edwards::Point;
use crate::field::Fe;
use crate::scalar::Scalar;

/// Length of public keys and shared secrets in bytes.
pub const KEY_LEN: usize = 32;

/// Clamps a 32-byte scalar per RFC 7748.
fn clamp_scalar(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: scalar multiplication on the Montgomery u-line.
pub fn x25519(scalar: &[u8; 32], u_point: &[u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(*scalar);
    let x1 = Fe::from_bytes(u_point); // masks bit 255 per RFC 7748

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let a24 = Fe::from_u64(121665);

    let mut swap = 0u64;
    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2 + z2;
        let aa = a.square();
        let b = x2 - z2;
        let bb = b.square();
        let e = aa - bb;
        let c = x3 + z3;
        let d = x3 - z3;
        let da = d * a;
        let cb = c * b;
        x3 = (da + cb).square();
        z3 = x1 * (da - cb).square();
        x2 = aa * bb;
        z2 = e * (aa + a24 * e);
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);

    (x2 * z2.invert()).to_bytes()
}

/// Computes the public key for a secret scalar (scalar · base point 9).
///
/// u = 9 is the image of the Ed25519 base point B under the birational map
/// u = (1 + y)/(1 − y), and both generate the subgroup of order ℓ, so the
/// key is the u-coordinate of (k mod ℓ)·B, taken from the base table.
pub fn public_key(secret: &[u8; 32]) -> [u8; 32] {
    let k = Scalar::from_bytes_mod_order(&clamp_scalar(*secret));
    let p = Point::mul_base(&k);
    // (1 + y)/(1 − y) = (Z + Y)/(Z − Y)
    ((p.z + p.y) * (p.z - p.y).invert()).to_bytes()
}

/// An ephemeral X25519 key pair.
#[derive(Clone)]
pub struct EphemeralKeyPair {
    secret: [u8; 32],
    public: [u8; 32],
}

impl EphemeralKeyPair {
    /// Generates a fresh key pair.
    pub fn generate<R: rand::RngCore + rand::CryptoRng>(rng: &mut R) -> Self {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        let public = public_key(&secret);
        EphemeralKeyPair { secret, public }
    }

    /// Deterministic construction from a seed (tests, simulation).
    pub fn from_secret(secret: [u8; 32]) -> Self {
        let public = public_key(&secret);
        EphemeralKeyPair { secret, public }
    }

    /// The public half.
    pub fn public(&self) -> &[u8; 32] {
        &self.public
    }

    /// Computes the shared secret with a peer's public key. Returns `None`
    /// for a degenerate (all-zero) result, which indicates a small-order
    /// peer point.
    pub fn diffie_hellman(&self, peer_public: &[u8; 32]) -> Option<[u8; 32]> {
        let shared = x25519(&self.secret, peer_public);
        if crate::ct::is_zero(&shared) {
            None
        } else {
            Some(shared)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 7748 §6.1 Diffie-Hellman test vectors.
    #[test]
    fn rfc7748_dh() {
        let a = hex::decode_array::<32>(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        )
        .unwrap();
        let b = hex::decode_array::<32>(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        )
        .unwrap();
        let a_pub = public_key(&a);
        let b_pub = public_key(&b);
        assert_eq!(
            hex::encode(&a_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&b_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = x25519(&a, &b_pub);
        let shared_b = x25519(&b, &a_pub);
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex::encode(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn keypair_agreement() {
        let a = EphemeralKeyPair::from_secret([1u8; 32]);
        let b = EphemeralKeyPair::from_secret([2u8; 32]);
        let s1 = a.diffie_hellman(b.public()).unwrap();
        let s2 = b.diffie_hellman(a.public()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn small_order_point_rejected() {
        let a = EphemeralKeyPair::from_secret([3u8; 32]);
        // u = 0 is a small-order point; shared secret is all zero.
        assert!(a.diffie_hellman(&[0u8; 32]).is_none());
        // u = 1 also has small order.
        let mut one = [0u8; 32];
        one[0] = 1;
        assert!(a.diffie_hellman(&one).is_none());
    }

    #[test]
    fn public_key_matches_the_ladder_on_nine() {
        let mut nine = [0u8; 32];
        nine[0] = 9;
        let edges = crate::edwards::tests::edge_scalars();
        let mut secrets: Vec<[u8; 32]> = edges.iter().map(|k| k.to_bytes()).collect();
        secrets.push([0xffu8; 32]);
        for i in 0u32..2000 {
            let mut secret = [0u8; 32];
            secret.copy_from_slice(&crate::sha2::sha512(&i.to_le_bytes())[..32]);
            secrets.push(secret);
        }
        for secret in &secrets {
            assert_eq!(public_key(secret), x25519(secret, &nine), "secret {}", hex::encode(secret));
        }
    }

    #[test]
    fn different_peers_different_secrets() {
        let a = EphemeralKeyPair::from_secret([4u8; 32]);
        let b = EphemeralKeyPair::from_secret([5u8; 32]);
        let c = EphemeralKeyPair::from_secret([6u8; 32]);
        assert_ne!(a.diffie_hellman(b.public()).unwrap(), a.diffie_hellman(c.public()).unwrap());
    }
}

#[cfg(test)]
mod iterated_tests {
    use super::*;
    use crate::hex;

    /// RFC 7748 §5.2 iterated test: k = u = 9, then k, u = X25519(k, u), k.
    #[test]
    fn rfc7748_iterated() {
        let mut k = [0u8; 32];
        k[0] = 9;
        let mut u = k;
        // 1 iteration.
        let r = x25519(&k, &u);
        u = k;
        k = r;
        assert_eq!(
            hex::encode(&k),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
        // Up to 1000 iterations.
        for _ in 1..1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        assert_eq!(
            hex::encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }
}
