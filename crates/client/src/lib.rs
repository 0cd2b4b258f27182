//! # gdp-client
//!
//! The verifying GDP client: single-writer appends with durability modes,
//! reads with end-to-end proof verification, pub-sub subscriptions, and
//! flow-key sessions — everything the paper's threat model (§IV-C) demands
//! a client check so that "trust lives in data rather than in
//! infrastructure" (§V).

#![forbid(unsafe_code)]

pub mod client;

pub use client::{ClientEvent, GdpClient, RequestKind, VerifiedRead, DEFAULT_REQUEST_TIMEOUT_US};
