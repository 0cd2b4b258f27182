//! # gdp-bench
//!
//! Benchmark harness reproducing the paper's evaluation artifacts. The
//! `report` binary regenerates each figure/table as a text series and
//! times the real CPU-bound costs (see DESIGN.md, "Per-experiment index").

#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig6;
pub mod fig8;
pub mod overload;
pub mod storebench;
pub mod table;

pub use table::Table;
