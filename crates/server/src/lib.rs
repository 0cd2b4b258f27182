//! # gdp-server
//!
//! The DataCapsule-server: verifies and stores records, answers reads with
//! authenticated responses, implements the paper's durability modes
//! (§VI-B), replicates leaderlessly with anti-entropy hole healing (§V-A),
//! and pushes pub-sub events (§V). The [`proto`] module defines the whole
//! client↔server and server↔server data-plane protocol.

#![forbid(unsafe_code)]

mod ledger;
pub mod proto;
pub mod server;

pub use proto::{AckMode, DataMsg, ErrorCode, ReadResult, ReadTarget, ResponseAuth};
pub use server::DataCapsuleServer;
