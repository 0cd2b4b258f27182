//! Error types for DataCapsule operations.

use gdp_wire::{DecodeError, Name};

/// Errors raised while building, ingesting, or verifying DataCapsule state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CapsuleError {
    /// A signature did not verify against the expected key.
    BadSignature(&'static str),
    /// Metadata was internally inconsistent (missing keys, bad key bytes).
    BadMetadata(&'static str),
    /// A record violated a structural invariant (seq/pointer mismatch).
    BadRecord(&'static str),
    /// The record's capsule name does not match this capsule.
    WrongCapsule { expected: Name, got: Name },
    /// A record referenced by hash is not present locally.
    MissingRecord(crate::record::RecordHash),
    /// A requested sequence number has no locally known record.
    MissingSeq(u64),
    /// A proof failed verification.
    BadProof(&'static str),
    /// A proof would take more bytes than its builder's budget allows.
    ProofTooLarge,
    /// Decoding failed.
    Decode(DecodeError),
    /// A cryptographic payload operation failed (e.g. AEAD open).
    Crypto(&'static str),
    /// The operation requires single-writer mode but a branch exists.
    Branched,
    /// Appending is not possible because local state is behind (hole).
    Hole { first_missing_seq: u64 },
}

impl std::fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapsuleError::BadSignature(w) => write!(f, "bad signature: {w}"),
            CapsuleError::BadMetadata(w) => write!(f, "bad metadata: {w}"),
            CapsuleError::BadRecord(w) => write!(f, "bad record: {w}"),
            CapsuleError::WrongCapsule { expected, got } => {
                write!(f, "record for capsule {got} given to capsule {expected}")
            }
            CapsuleError::MissingRecord(h) => write!(f, "missing record {h}"),
            CapsuleError::MissingSeq(s) => write!(f, "no record at seq {s}"),
            CapsuleError::BadProof(w) => write!(f, "bad proof: {w}"),
            CapsuleError::ProofTooLarge => write!(f, "proof exceeds its byte budget"),
            CapsuleError::Decode(e) => write!(f, "decode error: {e}"),
            CapsuleError::Crypto(w) => write!(f, "crypto failure: {w}"),
            CapsuleError::Branched => write!(f, "capsule has divergent branches"),
            CapsuleError::Hole { first_missing_seq } => {
                write!(f, "hole in capsule starting at seq {first_missing_seq}")
            }
        }
    }
}

impl std::error::Error for CapsuleError {}

impl From<DecodeError> for CapsuleError {
    fn from(e: DecodeError) -> Self {
        CapsuleError::Decode(e)
    }
}
