//! # gdp-store
//!
//! Storage for DataCapsule-servers.
//!
//! One storage engine: [`SegLog`], one segmented log per node with a
//! logical stream per capsule, each with an in-memory index that stays
//! resident while the log is open, group-commit (one fsync per batch of
//! appends across all capsules), and checkpointed bounded recovery that
//! decodes the checkpoint once at open. The log is a plain value that the
//! server mounting it owns. It is append-only — a sealed segment
//! is never rewritten or deleted, because nothing in a DataCapsule
//! supersedes a record. The paper's prototype keeps one SQLite database
//! per capsule (§VIII); a node hosting very many capsules cannot afford a
//! file and an fsync per capsule, so this one multiplexes them.
//! [`FsyncPolicy`] says when an append becomes durable.
//!
//! The log reaches files only through [`io`], one file layer with two
//! file systems: the OS, and [`io::MemFs`], an in-memory twin that models
//! what a crash keeps and can fail any operation on a schedule.
//! [`StorageEngine`] opens the log a server mounts: under a directory, or
//! on a fresh `MemFs`. Its [`CapsuleStore`] handles share one log behind a
//! lock, for callers outside a server.

#![forbid(unsafe_code)]

pub mod crc;
pub mod engine;
pub mod io;
pub mod policy;
pub mod seglog;
pub mod store;

pub use engine::{Backing, StorageEngine};
pub use policy::{AppendAck, FsyncPolicy};
pub use seglog::{
    RecoveryStats, SegConfig, SegLog, CKPT_MAGIC, RECOVERY_CHUNK, SEG_MAGIC as SEGLOG_MAGIC,
};
pub use store::{CapsuleStore, StoreError};
