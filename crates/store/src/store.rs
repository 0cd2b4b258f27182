//! Store errors, and the one shared handle onto the node's log.
//!
//! The paper's prototype keeps "each DataCapsule ... in its own separate
//! SQLite database" so servers "respond to random reads efficiently"
//! (§VIII). Here every hosted capsule is a stream of the node's one
//! [`SegLog`], keyed by record address — the hash-pointer `(seq, header
//! hash)` — and the server that mounts the log owns it outright.
//!
//! [`CapsuleStore`] is what is left for callers outside a server: one
//! capsule's stream of a log that every handle from the same
//! [`StorageEngine`](crate::StorageEngine) shares. Its one implementation
//! holds the log behind a mutex, and that lock owns the log: appends,
//! reads and flushes run their file I/O under it, by design. A caller
//! that shares a log across threads shares it through this lock; the
//! product path (a server on its event-loop thread) never takes it. This
//! module is therefore not on gdp-lint LK02's list of modules where I/O
//! under a lock is flagged, and `seglog/mod.rs` is.

use crate::policy::AppendAck;
use crate::seglog::SegLog;
use gdp_capsule::{CapsuleError, Record};
use gdp_wire::Name;
use parking_lot::Mutex;
use std::sync::Arc;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Stored bytes failed to decode or failed CRC.
    Corrupt(String),
    /// Capsule-level validation failed.
    Capsule(CapsuleError),
    /// The store has no metadata yet.
    NoMetadata,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt(w) => write!(f, "corrupt store: {w}"),
            StoreError::Capsule(e) => write!(f, "capsule error: {e}"),
            StoreError::NoMetadata => write!(f, "store has no metadata"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CapsuleError> for StoreError {
    fn from(e: CapsuleError) -> Self {
        StoreError::Capsule(e)
    }
}

/// One capsule's stream of a shared log, as
/// [`StorageEngine::open_boxed`](crate::StorageEngine::open_boxed) hands
/// it out. Verification policy lives in `gdp-server`.
pub trait CapsuleStore: Send {
    /// [`SegLog::append`] on this stream.
    fn append_acked(&mut self, record: &Record) -> Result<AppendAck, StoreError>;

    /// [`SegLog::get_by_seq`] on this stream.
    fn get_by_seq(&self, seq: u64) -> Result<Option<Record>, StoreError>;

    /// [`SegLog::maintain`] on the whole shared log; returns its durable
    /// epoch.
    fn flush(&mut self, now_us: u64) -> Result<u64, StoreError>;
}

/// The [`CapsuleStore`] over a log shared behind its I/O-owning lock.
pub(crate) struct SharedStream {
    pub(crate) log: Arc<Mutex<SegLog>>,
    pub(crate) capsule: Name,
}

impl CapsuleStore for SharedStream {
    fn append_acked(&mut self, record: &Record) -> Result<AppendAck, StoreError> {
        self.log.lock().append(&self.capsule, record)
    }

    fn get_by_seq(&self, seq: u64) -> Result<Option<Record>, StoreError> {
        self.log.lock().get_by_seq(&self.capsule, seq)
    }

    fn flush(&mut self, now_us: u64) -> Result<u64, StoreError> {
        self.log.lock().maintain(now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemFs;
    use crate::{FsyncPolicy, SegConfig};
    use gdp_capsule::{CapsuleMetadata, MetadataBuilder, Record, RecordHash};
    use gdp_crypto::SigningKey;

    /// A log on a fresh in-memory file system.
    fn fresh_log() -> SegLog {
        let cfg = SegConfig { policy: FsyncPolicy::Always, ..SegConfig::default() };
        SegLog::open(&MemFs::new(), cfg, &gdp_obs::Scope::default()).unwrap()
    }

    fn setup() -> (CapsuleMetadata, Vec<Record>) {
        let owner = SigningKey::from_seed(&[1u8; 32]);
        let writer = SigningKey::from_seed(&[2u8; 32]);
        let meta = MetadataBuilder::new().writer(&writer.verifying_key()).sign(&owner);
        let name = meta.name();
        let mut prev = RecordHash::anchor(&name);
        let mut records = Vec::new();
        for seq in 1..=5u64 {
            let r = Record::create(&name, &writer, seq, seq, prev, vec![], vec![seq as u8; 8]);
            prev = r.hash();
            records.push(r);
        }
        (meta, records)
    }

    #[test]
    fn roundtrip() {
        let (meta, records) = setup();
        let (mut s, name) = (fresh_log(), meta.name());
        assert!(matches!(s.metadata(&name), Err(StoreError::NoMetadata)));
        s.put_metadata(&name, &meta).unwrap();
        assert_eq!(s.metadata(&name).unwrap(), meta);
        for r in &records {
            s.append(&name, r).unwrap();
        }
        assert_eq!(s.len(&name), 5);
        assert_eq!(s.latest_seq(&name), 5);
        assert_eq!(s.get_by_seq(&name, 3).unwrap().unwrap(), records[2]);
        assert_eq!(s.get(&name, &records[0].pointer()).unwrap().unwrap(), records[0]);
        assert_eq!(s.range(&name, 2, 4).unwrap().len(), 3);
        assert!(s.get_by_seq(&name, 99).unwrap().is_none());
    }

    #[test]
    fn idempotent_append() {
        let (meta, records) = setup();
        let (mut s, name) = (fresh_log(), meta.name());
        s.put_metadata(&name, &meta).unwrap();
        assert_eq!(s.append(&name, &records[0]).unwrap(), AppendAck::Durable);
        assert_eq!(s.append(&name, &records[0]).unwrap(), AppendAck::Durable);
        assert_eq!(s.len(&name), 1);
    }

    #[test]
    fn metadata_first_write_wins() {
        let (meta, _) = setup();
        let owner2 = SigningKey::from_seed(&[9u8; 32]);
        let meta2 = MetadataBuilder::new().writer(&owner2.verifying_key()).sign(&owner2);
        let (mut s, name) = (fresh_log(), meta.name());
        s.put_metadata(&name, &meta).unwrap();
        s.put_metadata(&name, &meta2).unwrap();
        assert_eq!(s.metadata(&name).unwrap(), meta);
    }
}
