//! # gdp-node
//!
//! The deployable GDP node: glue between the sans-I/O protocol cores
//! (gdp-router, gdp-server) and the real-socket TCP transport, plus the
//! `gdpd` daemon binary and [`ClusterClient`], the blocking TCP pump of
//! the client driver in `gdp_client::ops` (the retry and recovery policy
//! itself lives there, shared with the simulator).
//!
//! A node is configured with a small text file ([`NodeConfig`]) selecting
//! a role — `router`, `storage`, or `both` — a listen address, a
//! deterministic identity, peers to dial, and (for storage roles) the
//! DataCapsules to serve. Three `gdpd` processes on loopback form a
//! complete GDP cluster: clients establish sessions, append signed
//! records, and perform verified reads with membership proofs over real
//! sockets, and reads fail over to a surviving replica when a storage
//! process dies (see `tests/live_cluster.rs`).

#![forbid(unsafe_code)]

pub mod client_io;
pub mod config;
pub mod ingress;
pub mod node;
pub mod runtime;

pub use client_io::{ClientError, ClusterClient};
pub use config::{ConfigError, HostSpec, NodeConfig, Role};
pub use ingress::IngressQueue;
pub use node::{request_path, start, NodeError, NodeHandle, FOREVER};
pub use runtime::{build_cores_with_obs, NodeOutbox, NodeRuntime};
