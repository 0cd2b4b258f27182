//! Multi-capsule storage engine: opens the log a DataCapsule-server
//! mounts.
//!
//! Hosted capsules live in one shared segmented log for the whole node:
//! on disk when gdpd has a `data_dir`, else on a fresh [`MemFs`]. The
//! engine also carries the node's [`FsyncPolicy`]. [`StorageEngine::log`]
//! opens that log once; the server mounts it, holds one stream of it per
//! hosted capsule and flushes it once per tick.

use crate::io::{Dir, MemFs};
use crate::policy::FsyncPolicy;
use crate::seglog::{SegConfig, SegLog};
use crate::store::{CapsuleStore, StoreError};
use gdp_obs::Scope;
use gdp_wire::Name;
use parking_lot::Mutex;
use std::path::PathBuf;

/// Backing medium for a [`StorageEngine`]'s one segmented log.
#[derive(Clone, Debug)]
pub enum Backing {
    /// A fresh [`MemFs`] (simulations, tests). Its syncs cost nothing, so
    /// the policy defaults to [`FsyncPolicy::Always`]: every ack is
    /// durable at return.
    Memory,
    /// This directory; the policy defaults to
    /// [`FsyncPolicy::DEFAULT_BATCH`].
    Segmented(PathBuf),
}

/// The node's store: opens the node's one [`SegLog`] once.
pub struct StorageEngine {
    backing: Backing,
    /// Set by [`StorageEngine::with_policy`]; else the backing's default.
    policy: Option<FsyncPolicy>,
    seg: Mutex<Option<SegLog>>,
    obs: Scope,
}

impl StorageEngine {
    /// Creates an engine with the given backing (private metric registry).
    pub fn new(backing: Backing) -> StorageEngine {
        StorageEngine::with_obs(backing, gdp_obs::Metrics::new().scope("store"))
    }

    /// Creates an engine registering store metrics under `scope`.
    pub fn with_obs(backing: Backing, scope: Scope) -> StorageEngine {
        StorageEngine { backing, policy: None, seg: Mutex::new(None), obs: scope }
    }

    /// Sets the durability policy (default: see [`Backing`]).
    pub fn with_policy(mut self, policy: FsyncPolicy) -> StorageEngine {
        self.policy = Some(policy);
        self
    }

    /// The node's one log, opened (and recovered) by the first call; every
    /// call returns a handle to that same log.
    pub fn log(&self) -> Result<SegLog, StoreError> {
        let mut seg = self.seg.lock();
        if let Some(log) = &*seg {
            return Ok(log.clone());
        }
        let (dir, policy) = match &self.backing {
            Backing::Memory => (Dir::from(&MemFs::new()), FsyncPolicy::Always),
            Backing::Segmented(path) => (Dir::from(path), FsyncPolicy::DEFAULT_BATCH),
        };
        let cfg = SegConfig { policy: self.policy.unwrap_or(policy), ..SegConfig::default() };
        // gdp-lint: allow(LK02) -- once-cell init: the `seg` guard deliberately serializes concurrent first-openers so exactly one runs recovery on the shared directory; steady state takes the early-return arm
        let log = SegLog::open_with(dir, cfg, &self.obs)?;
        *seg = Some(log.clone());
        Ok(log)
    }

    /// An owned store for `capsule`: its stream of [`StorageEngine::log`].
    pub fn open_boxed(&self, capsule: &Name) -> Result<Box<dyn CapsuleStore>, StoreError> {
        Ok(Box::new(self.log()?.handle(*capsule)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_capsule::{MetadataBuilder, Record, RecordHash};
    use gdp_crypto::SigningKey;

    /// A memory engine acks durable at return unless a policy is set:
    /// what a node without a `data_dir` relies on (a server's default log
    /// is this engine's).
    #[test]
    fn memory_engine_acks_durable_at_return_unless_a_policy_is_set() {
        use crate::AppendAck;
        let writer = SigningKey::from_seed(&[2u8; 32]);
        let meta = MetadataBuilder::new().writer(&writer.verifying_key()).sign(&writer);
        let anchor = RecordHash::anchor(&meta.name());
        let r = Record::create(&meta.name(), &writer, 1, 0, anchor, vec![], b"r".to_vec());
        let batch = FsyncPolicy::DEFAULT_BATCH;
        for (engine, durable) in [
            (StorageEngine::new(Backing::Memory), true),
            (StorageEngine::new(Backing::Memory).with_policy(batch), false),
        ] {
            let mut store = engine.open_boxed(&meta.name()).unwrap();
            store.put_metadata(&meta).unwrap();
            assert_eq!(store.append_acked(&r).unwrap() == AppendAck::Durable, durable);
        }
    }

    #[test]
    fn segmented_engine_shares_one_log_and_persists() {
        let dir = std::env::temp_dir().join(format!("gdp-engine-seg-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let owner = SigningKey::from_seed(&[1u8; 32]);
        let writer = SigningKey::from_seed(&[2u8; 32]);
        let m1 = MetadataBuilder::new()
            .writer(&writer.verifying_key())
            .set_str("description", "one")
            .sign(&owner);
        let m2 = MetadataBuilder::new()
            .writer(&writer.verifying_key())
            .set_str("description", "two")
            .sign(&owner);
        {
            let engine = StorageEngine::new(Backing::Segmented(dir.clone()));
            let mut s1 = engine.open_boxed(&m1.name()).unwrap();
            let mut s2 = engine.open_boxed(&m2.name()).unwrap();
            s1.put_metadata(&m1).unwrap();
            s2.put_metadata(&m2).unwrap();
            let r = Record::create(
                &m1.name(),
                &writer,
                1,
                0,
                RecordHash::anchor(&m1.name()),
                vec![],
                b"only in one".to_vec(),
            );
            s1.append_acked(&r).unwrap();
            s1.flush(10_000_000).unwrap();
            assert_eq!(s1.len(), 1);
            assert_eq!(s2.len(), 0);
            let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap()).collect();
            assert_eq!(files.len(), 1, "both capsules share one log: {files:?}");
        }
        let engine = StorageEngine::new(Backing::Segmented(dir.clone()));
        let s1 = engine.open_boxed(&m1.name()).unwrap();
        assert_eq!(s1.len(), 1);
        assert_eq!(s1.metadata().unwrap(), m1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
