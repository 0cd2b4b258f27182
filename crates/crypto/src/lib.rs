//! # gdp-crypto
//!
//! Cryptographic primitives for the Global Data Plane, implemented from
//! scratch for this reproduction (the build environment provides no crypto
//! crates):
//!
//! * [`sha2`] — SHA-256 / SHA-512 (all GDP names are SHA-256 hashes).
//! * [`blake2b`] — BLAKE2b-256, the record body digest (the read path
//!   hashes every served body byte with it).
//! * [`hmac`] — HMAC-SHA256 (steady-state secure responses).
//! * [`hkdf`] — HKDF-SHA256 (per-flow and per-capsule key derivation).
//! * [`x25519`] — Diffie-Hellman for flow-key establishment.
//! * [`ed25519`] — signatures (substituting for the paper's ECDSA; see
//!   DESIGN.md) for writers, owners, servers, routers, and organizations.
//! * [`aead`] — ChaCha20-Poly1305 for record-body confidentiality.
//! * [`ct`], [`hex`] — constant-time comparison and hex utilities.
//!
//! ## Security caveat
//!
//! These implementations pass the relevant RFC test vectors and are suitable
//! for research and reproduction, but they have not been audited. Do not
//! use for production secrets. On timing:
//!
//! * Base-point multiplication by a secret scalar (key derivation, the
//!   signing nonce, X25519 public keys) is table-driven: every table lookup
//!   reads a whole row and keeps one entry by mask, so the scalar chooses
//!   no branch and no address. The X25519 ladder swaps by mask, and field
//!   inversion runs a fixed addition chain.
//! * Signature verification is variable-time (wNAF recoding and
//!   digit-dependent additions); every input to it is public.
//! * Scalar arithmetic modulo ℓ ([`scalar`]) branches on its values
//!   (conditional subtraction of ℓ), secret ones included.

#![forbid(unsafe_code)]
// Reference-style crypto code indexes fixed-size limb arrays directly and
// names scalar/field ops after their mathematical operations.
#![allow(clippy::needless_range_loop)]

pub mod aead;
pub mod blake2b;
pub mod ct;
pub mod ed25519;
pub mod edwards;
pub mod field;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod scalar;
pub mod sha2;
pub mod x25519;

pub use blake2b::blake2b256;
pub use ed25519::{Signature, SigningKey, VerifyingKey};
pub use sha2::{sha256, sha512, Sha256, Sha512};

/// Fills `buf` with cryptographically secure random bytes from the OS.
pub fn random_bytes(buf: &mut [u8]) {
    use rand::RngCore;
    rand::rngs::OsRng.fill_bytes(buf);
}

/// Returns a fresh random 32-byte array.
pub fn random_array32() -> [u8; 32] {
    let mut out = [0u8; 32];
    random_bytes(&mut out);
    out
}
