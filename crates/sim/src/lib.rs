//! # gdp-sim
//!
//! Scenario assembly and evaluation support: complete simulated GDP
//! deployments ([`world::GdpWorld`]) that CAAPIs run over unmodified, the
//! S3-like / SSHFS-like baseline models for the paper's case study
//! ([`baselines`]), and deterministic workload generators ([`workload`]).
//!
//! Deterministic chaos testing lives in [`cluster`] + [`check`]: the
//! *production* node runtimes (router, DataCapsule servers with
//! segmented-log stores, verifying client) on the seeded
//! `gdp_net::simnet` fabric, with fault injection and post-recovery
//! invariant checks (see `tests/chaos.rs` and DESIGN.md, "Simulation
//! architecture").

#![forbid(unsafe_code)]

pub mod baselines;
pub mod check;
pub mod cluster;
pub mod workload;
pub mod world;

pub use baselines::{BaselineWorld, BlobServer};
pub use check::check_invariants;
pub use cluster::SimCluster;
pub use gdp_net::simnet::{FaultSpec, SimAddr, SimEndpoint, SimNetError, SimStats};
pub use world::{GdpWorld, Placement, FOREVER};
