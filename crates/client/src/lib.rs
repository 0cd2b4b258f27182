//! # gdp-client
//!
//! The verifying GDP client: single-writer appends with durability modes,
//! reads with end-to-end proof verification, pub-sub subscriptions, and
//! flow-key sessions — everything the paper's threat model (§IV-C) demands
//! a client check so that "trust lives in data rather than in
//! infrastructure" (§V). [`client`] is the sans-I/O protocol core;
//! [`ops`] is the one driver on top of it — attach, session, append and
//! read with their retry and recovery rules — that every transport pumps.

#![forbid(unsafe_code)]

pub mod client;
pub mod ops;

pub use client::{ClientEvent, GdpClient, RequestKind, VerifiedRead, DEFAULT_REQUEST_TIMEOUT_US};
