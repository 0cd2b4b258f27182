//! Multi-capsule storage engine: opens the log a DataCapsule-server
//! mounts.
//!
//! Hosted capsules live in one segmented log for the whole node: on disk
//! when gdpd has a `data_dir`, else on a fresh [`MemFs`]. The engine also
//! carries the node's [`FsyncPolicy`]. [`StorageEngine::log`] consumes the
//! engine and opens that log once; the server mounts it, owns it, and
//! flushes it once per tick. [`StorageEngine::open_boxed`] is for callers
//! outside a server: it shares one lazily opened log between its handles.

use crate::io::{Dir, MemFs};
use crate::policy::FsyncPolicy;
use crate::seglog::{SegConfig, SegLog};
use crate::store::{CapsuleStore, SharedStream, StoreError};
use gdp_obs::Scope;
use gdp_wire::Name;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;

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

/// The node's store: opens the node's one [`SegLog`].
pub struct StorageEngine {
    backing: Backing,
    /// Set by [`StorageEngine::with_policy`]; else the backing's default.
    policy: Option<FsyncPolicy>,
    /// The log every [`StorageEngine::open_boxed`] handle shares, opened
    /// by the first call.
    shared: Mutex<Option<Arc<Mutex<SegLog>>>>,
    obs: Scope,
}

impl StorageEngine {
    /// Creates an engine with the given backing (private metric registry).
    pub fn new(backing: Backing) -> StorageEngine {
        StorageEngine::with_obs(backing, gdp_obs::Metrics::new().scope("store"))
    }

    /// Creates an engine registering store metrics under `scope`.
    pub fn with_obs(backing: Backing, scope: Scope) -> StorageEngine {
        StorageEngine { backing, policy: None, shared: Mutex::new(None), obs: scope }
    }

    /// Sets the durability policy (default: see [`Backing`]).
    pub fn with_policy(mut self, policy: FsyncPolicy) -> StorageEngine {
        self.policy = Some(policy);
        self
    }

    /// Opens (and recovers) the node's one log. The engine is consumed, so
    /// a node cannot open its directory twice.
    pub fn log(self) -> Result<SegLog, StoreError> {
        self.open_log()
    }

    fn open_log(&self) -> Result<SegLog, StoreError> {
        let (dir, policy) = match &self.backing {
            Backing::Memory => (Dir::from(&MemFs::new()), FsyncPolicy::Always),
            Backing::Segmented(path) => (Dir::from(path), FsyncPolicy::DEFAULT_BATCH),
        };
        let cfg = SegConfig { policy: self.policy.unwrap_or(policy), ..SegConfig::default() };
        SegLog::open(dir, cfg, &self.obs)
    }

    /// A store for `capsule`: its stream of one log that every handle from
    /// this engine shares, opened by the first call.
    pub fn open_boxed(&self, capsule: &Name) -> Result<Box<dyn CapsuleStore>, StoreError> {
        let mut shared = self.shared.lock();
        let log = match &*shared {
            Some(log) => log.clone(),
            None => {
                // gdp-lint: allow(LK02) -- once-cell init: the `shared` guard deliberately serializes concurrent first-openers so exactly one runs recovery on the directory; later calls take the clone arm
                let log = Arc::new(Mutex::new(self.open_log()?));
                shared.insert(log).clone()
            }
        };
        Ok(Box::new(SharedStream { log, capsule: *capsule }))
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
            let mut log = engine.log().unwrap();
            log.put_metadata(&meta.name(), &meta).unwrap();
            assert_eq!(log.append(&meta.name(), &r).unwrap() == AppendAck::Durable, durable);
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
            let mut log = StorageEngine::new(Backing::Segmented(dir.clone())).log().unwrap();
            log.put_metadata(&m1.name(), &m1).unwrap();
            log.put_metadata(&m2.name(), &m2).unwrap();
            let r = Record::create(
                &m1.name(),
                &writer,
                1,
                0,
                RecordHash::anchor(&m1.name()),
                vec![],
                b"only in one".to_vec(),
            );
            log.append(&m1.name(), &r).unwrap();
            log.maintain(10_000_000).unwrap();
            assert_eq!(log.len(&m1.name()), 1);
            assert_eq!(log.len(&m2.name()), 0);
            let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap()).collect();
            assert_eq!(files.len(), 1, "both capsules share one log: {files:?}");
        }
        let log = StorageEngine::new(Backing::Segmented(dir.clone())).log().unwrap();
        assert_eq!(log.len(&m1.name()), 1);
        assert_eq!(log.metadata(&m1.name()).unwrap(), m1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
