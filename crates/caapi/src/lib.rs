//! # gdp-caapi
//!
//! Common Access APIs: richer interfaces layered on DataCapsules
//! (paper §V-B). "Because DataCapsule serves as the ground truth, the
//! benefit of integrity, confidentiality, and access control are easily
//! carried over to such interfaces."
//!
//! * [`fs`] — the TensorFlow-plugin-style filesystem (directory capsule +
//!   one capsule per file, chunked, versioned).
//! * [`kv`] — mutable key-value store over an op log with checkpoints.
//! * [`timeseries`] — sensor-style series with range queries and
//!   aggregation.
//! * [`commit`] — multi-writer support via a Paxos commit service
//!   (§V-A option (a)).
//! * [`aggregate`] — multi-writer support via subscription merge
//!   (§V-A option (b)).
//!
//! All CAAPIs run over any [`CapsuleAccess`] backend: in-process capsules
//! or the full simulated network stack (`gdp-sim`'s `GdpWorld`).

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod backend;
pub mod commit;
pub mod encrypted;
pub mod fs;
pub mod kv;
pub mod stream;
pub mod timeseries;

pub use aggregate::{Aggregator, MergedRecord};
pub use backend::{new_capsule_spec, CaapiError, CapsuleAccess, LocalBackend};
pub use commit::{Acceptor, CommitService, PaxosError, Proposer, Submission};
pub use encrypted::EncryptedBackend;
pub use fs::GdpFs;
pub use kv::GdpKv;
pub use stream::{GdpStream, Message};
pub use timeseries::{Aggregates, GdpTimeSeries, Sample};
