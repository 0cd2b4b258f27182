//! # gdp-capsule
//!
//! The DataCapsule: the paper's primary contribution. "A DataCapsule is a
//! single-writer, append-only data structure stored on a distributed
//! infrastructure and identified by a unique flat name. This flat name
//! serves as a cryptographic trust anchor for verifying everything related
//! to the DataCapsule." (paper §V)
//!
//! * [`metadata`] — owner-signed key-value metadata; its hash is the name.
//! * [`record`] — hash-linked immutable records and writer heartbeats;
//!   [`body_digest`] (BLAKE2b-256) binds each body to its header.
//! * [`strategy`] — configurable extra hash-pointer policies (chain,
//!   skip-list, checkpoint, stream).
//! * [`capsule`] — the verified record DAG: ingest, holes, branches, CRDT
//!   merge, history verification. One [`Chain`], linking on addresses
//!   alone and generic over what it keeps of each verified record:
//!   [`DataCapsule`] keeps the whole [`Record`], [`CapsuleIndex`] one
//!   integer, the record's wire bound (what a storage server holds beside
//!   the store that has the records).
//! * [`proof`] — membership and range proofs against a heartbeat; a proof
//!   path is walked through a record lookup, so a chain that keeps no
//!   headers builds one from its store.
//! * [`encryption`] — end-to-end body confidentiality via read keys.
//! * [`writer`] — the Strict/Quasi Single-Writer append state machine.

#![forbid(unsafe_code)]

pub mod capsule;
pub mod encryption;
pub mod entangle;
pub mod error;
pub mod metadata;
pub mod proof;
pub mod record;
pub mod strategy;
pub mod writer;

pub use capsule::{CapsuleIndex, Chain, DataCapsule, IngestOutcome, Retained, Verified};
pub use encryption::ReadKey;
pub use entangle::{EntanglementBody, OrderingProof};
pub use error::CapsuleError;
pub use metadata::{CapsuleMetadata, MetadataBuilder};
pub use proof::{MembershipProof, RangeProof};
pub use record::{body_digest, Heartbeat, Pointer, Record, RecordHash, RecordHeader};
pub use strategy::PointerStrategy;
pub use writer::{CapsuleWriter, WriterMode};
