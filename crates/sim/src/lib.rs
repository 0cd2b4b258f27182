//! # gdp-sim
//!
//! Simulated deployments and evaluation support. [`cluster`] assembles
//! the *production* node runtimes (routers in a hierarchy, DataCapsule
//! servers on memory or segmented-log stores, verifying clients) on the
//! seeded `gdp_net::simnet` fabric: [`SimCluster`] is the world and its
//! fault injection, [`GdpWorld`] the paper's §IX placements that CAAPIs
//! run over unmodified. [`check`] holds the chaos invariants (see
//! `tests/chaos.rs` and DESIGN.md, "Simulation architecture"),
//! [`baselines`] the S3-like / SSHFS-like models for the paper's case
//! study, [`workload`] deterministic workload generators.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod check;
pub mod cluster;
pub mod workload;

pub use baselines::BaselineWorld;
pub use check::check_invariants;
pub use cluster::{GdpWorld, HostCpu, Placement, SimCluster, FOREVER};
pub use gdp_net::simnet::{FaultSpec, LinkSpec, SimAddr, SimEndpoint};
