//! The repo's end-to-end benchmark: see `README.md` and `/BENCHMARK.json`.

pub mod cli;
pub mod gen;
pub mod report;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;
