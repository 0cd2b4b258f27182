//! Multi-capsule storage engine: what a DataCapsule-server mounts.
//!
//! Hosted capsules live in one shared segmented log for the whole node
//! (`seglog`, when gdpd has a `data_dir`) or in memory. The engine also
//! carries the node's [`FsyncPolicy`].

use crate::policy::FsyncPolicy;
use crate::seglog::{SegConfig, SegLog};
use crate::store::{CapsuleStore, MemStore, StoreError};
use gdp_obs::Scope;
use gdp_wire::Name;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Backing medium for a [`StorageEngine`].
#[derive(Clone, Debug)]
pub enum Backing {
    /// Everything in memory (simulations, tests).
    Memory,
    /// One shared segmented log for all capsules under this directory.
    Segmented(PathBuf),
}

/// A shared handle to one capsule's store.
pub type SharedStore = Arc<Mutex<Box<dyn CapsuleStore>>>;

/// A thread-safe collection of per-capsule stores.
pub struct StorageEngine {
    backing: Backing,
    policy: FsyncPolicy,
    read_cache_bytes: Option<usize>,
    max_open_segments: Option<usize>,
    stores: Mutex<HashMap<Name, SharedStore>>,
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
        StorageEngine {
            backing,
            policy: FsyncPolicy::DEFAULT_BATCH,
            read_cache_bytes: None,
            max_open_segments: None,
            stores: Mutex::new(HashMap::new()),
            seg: Mutex::new(None),
            obs: scope,
        }
    }

    /// Sets the durability policy (default: [`FsyncPolicy::DEFAULT_BATCH`]).
    pub fn with_policy(mut self, policy: FsyncPolicy) -> StorageEngine {
        self.policy = policy;
        self
    }

    /// Tunes the segmented engine's read path (block-cache byte budget,
    /// pooled-fd cap); `None` keeps the [`SegConfig`] defaults. Ignored
    /// by the memory backing.
    pub fn with_seg_tuning(
        mut self,
        read_cache_bytes: Option<usize>,
        max_open_segments: Option<usize>,
    ) -> StorageEngine {
        self.read_cache_bytes = read_cache_bytes;
        self.max_open_segments = max_open_segments;
        self
    }

    /// In-memory engine.
    pub fn in_memory() -> StorageEngine {
        StorageEngine::new(Backing::Memory)
    }

    /// Builds one capsule's store on the configured backing. Shared-log
    /// handles all view the same underlying [`SegLog`].
    fn build(&self, capsule: &Name) -> Result<Box<dyn CapsuleStore>, StoreError> {
        Ok(match &self.backing {
            Backing::Memory => Box::new(MemStore::new()),
            Backing::Segmented(dir) => {
                let mut seg = self.seg.lock();
                let log = match &*seg {
                    Some(log) => log.clone(),
                    None => {
                        let defaults = SegConfig::default();
                        let cfg = SegConfig {
                            policy: self.policy,
                            read_cache_bytes: self
                                .read_cache_bytes
                                .unwrap_or(defaults.read_cache_bytes),
                            max_open_segments: self
                                .max_open_segments
                                .unwrap_or(defaults.max_open_segments),
                            ..defaults
                        };
                        // gdp-lint: allow(LK02) -- once-cell init: the `seg` guard deliberately serializes concurrent first-openers so exactly one runs recovery on the shared directory; steady state takes the Some(..) fast arm
                        let log = SegLog::open_with(dir, cfg, &self.obs)?;
                        *seg = Some(log.clone());
                        log
                    }
                };
                Box::new(log.handle(*capsule))
            }
        })
    }

    /// Opens an owned (non-shared) store for `capsule` — what a server
    /// core mounts per hosted capsule. Shared-log handles still converge
    /// on the node's one log.
    pub fn open_boxed(&self, capsule: &Name) -> Result<Box<dyn CapsuleStore>, StoreError> {
        self.build(capsule)
    }

    /// Opens (creating if needed) the shared-handle store for `capsule`.
    pub fn open(&self, capsule: &Name) -> Result<SharedStore, StoreError> {
        if let Some(s) = self.stores.lock().get(capsule) {
            return Ok(Arc::clone(s));
        }
        // Build outside the `stores` lock: the first segmented build
        // recovers the log from disk, and `stores` sits on the lookup
        // path of every request. Two threads may race to build the same capsule; the
        // first inserter wins and the loser adopts its store, so handle
        // sharing is preserved.
        let built = self.build(capsule)?;
        let mut stores = self.stores.lock();
        Ok(match stores.entry(*capsule) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(v) => Arc::clone(v.insert(Arc::new(Mutex::new(built)))),
        })
    }

    /// The node's shared segmented log, if that backing is in use and has
    /// been opened (maintenance, introspection).
    pub fn seg_log(&self) -> Option<SegLog> {
        self.seg.lock().clone()
    }

    /// Names of all capsules with an open shared-handle store.
    pub fn hosted(&self) -> Vec<Name> {
        self.stores.lock().keys().copied().collect()
    }

    /// True if a store exists for `capsule` (open in this engine).
    pub fn hosts(&self, capsule: &Name) -> bool {
        self.stores.lock().contains_key(capsule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_capsule::{MetadataBuilder, Record, RecordHash};
    use gdp_crypto::SigningKey;

    #[test]
    fn memory_engine_isolates_capsules() {
        let engine = StorageEngine::in_memory();
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
        let s1 = engine.open(&m1.name()).unwrap();
        let s2 = engine.open(&m2.name()).unwrap();
        s1.lock().put_metadata(&m1).unwrap();
        s2.lock().put_metadata(&m2).unwrap();
        let r = Record::create(
            &m1.name(),
            &writer,
            1,
            0,
            RecordHash::anchor(&m1.name()),
            vec![],
            b"only in one".to_vec(),
        );
        s1.lock().append(&r).unwrap();
        assert_eq!(s1.lock().len(), 1);
        assert_eq!(s2.lock().len(), 0);
        assert_eq!(engine.hosted().len(), 2);
        assert!(engine.hosts(&m1.name()));
    }

    #[test]
    fn same_capsule_shares_store() {
        let engine = StorageEngine::in_memory();
        let n = Name::from_content(b"cap");
        let a = engine.open(&n).unwrap();
        let b = engine.open(&n).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
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
            s1.append(&r).unwrap();
            s1.flush(10_000_000).unwrap();
            assert_eq!(s1.len(), 1);
            assert_eq!(s2.len(), 0);
            let log = engine.seg_log().unwrap();
            assert_eq!(log.stream_count(), 2, "both capsules share one log");
            assert_eq!(log.segment_ids().len(), 1);
        }
        let engine = StorageEngine::new(Backing::Segmented(dir.clone()));
        let s1 = engine.open_boxed(&m1.name()).unwrap();
        assert_eq!(s1.len(), 1);
        assert_eq!(s1.metadata().unwrap(), m1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
