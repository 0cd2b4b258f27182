//! # gdp-server
//!
//! The DataCapsule-server: verifies and stores records, answers reads with
//! authenticated responses, implements the paper's durability modes
//! (§VI-B), replicates leaderlessly with anti-entropy hole healing (§V-A),
//! and pushes pub-sub events (§V). The [`proto`] module defines the whole
//! client↔server and server↔server data-plane protocol.
//!
//! A server is storage, not a cache: per hosted capsule it keeps a
//! [`gdp_capsule::CapsuleIndex`] — heads, links, pending bookkeeping, an
//! address and a wire bound per record — and every record, header and
//! signature included, lives only in the capsule's stream of the node's
//! one [`gdp_store::SegLog`], which the server owns; it flushes that log
//! once per tick and releases acks against its one durable epoch. A record is indexed only once the store accepted it; a
//! read is index → store → encode, proof hops and the head a heartbeat
//! comes from included, and a record the store cannot return is a typed
//! error, counted and traced.

#![forbid(unsafe_code)]

mod ledger;
pub mod proto;
pub mod server;

pub use proto::{AckMode, DataMsg, ErrorCode, ReadResult, ReadTarget, ResponseAuth};
pub use server::DataCapsuleServer;
