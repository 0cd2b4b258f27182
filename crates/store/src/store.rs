//! Per-capsule record stores.
//!
//! The paper's prototype keeps "each DataCapsule ... in its own separate
//! SQLite database" so servers "respond to random reads efficiently"
//! (§VIII). The equivalent here is the [`CapsuleStore`] interface, which
//! one type implements: `SegStore`, a per-capsule stream of the node's
//! shared segmented log with CRC framing and crash-recovery scan, on disk
//! or on an in-memory file system (`seglog`, `io`). It keys records by
//! their address, the hash-pointer `(seq, header hash)`, in one ordered
//! map. A hosted capsule's store is the only place its records
//! live — headers, signatures and bodies: the server beside it keeps an
//! address and a wire bound per record and reads every record it serves,
//! proof hops and heartbeats included, through these reads.

use crate::policy::AppendAck;
use gdp_capsule::{CapsuleError, CapsuleMetadata, Pointer, Record};

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

/// Durable storage for one capsule's metadata and records.
///
/// Stores are deliberately dumb: they persist what they are given and answer
/// random reads. Verification policy lives in `gdp-server`.
#[allow(clippy::len_without_is_empty, reason = "no caller asks a store whether it is empty")]
pub trait CapsuleStore: Send {
    /// Persists capsule metadata (idempotent; first write wins).
    fn put_metadata(&mut self, metadata: &CapsuleMetadata) -> Result<(), StoreError>;

    /// Reads the capsule metadata.
    fn metadata(&self) -> Result<CapsuleMetadata, StoreError>;

    /// Random read by sequence number (first match in address order on
    /// branches).
    fn get_by_seq(&self, seq: u64) -> Result<Option<Record>, StoreError>;

    /// Random read by address: `None` unless a record with exactly that
    /// seq and hash is stored.
    fn get(&self, at: &Pointer) -> Result<Option<Record>, StoreError>;

    /// Highest stored sequence number (0 when empty).
    fn latest_seq(&self) -> u64;

    /// Number of stored records.
    fn len(&self) -> usize;

    /// Records in `[from, to]` in address order: every record at a seq,
    /// branches included, for `range(seq, seq)`.
    fn range(&self, from: u64, to: u64) -> Result<Vec<Record>, StoreError>;

    /// Addresses of every stored record, in address (seq) order.
    fn pointers(&self) -> Vec<Pointer>;

    /// Persists a record and reports whether it is already durable or
    /// waiting on a group-commit fsync. Idempotent: a duplicate append
    /// returns the *current* durability of the stored record, so a retried
    /// append is never acked before its covering fsync either. Under
    /// `fsync = always` it is durable at return; under group commit it is
    /// [`AppendAck::Pending`] with the covering durability epoch.
    fn append_acked(&mut self, record: &Record) -> Result<AppendAck, StoreError>;

    /// Drives group-commit: writes and fsyncs any batched appends whose
    /// flush window has elapsed at `now_us`, then returns the durable
    /// epoch (acks pending an epoch `<=` the returned value may be
    /// released). `now_us` is caller time (sim or wall) in microseconds.
    fn flush(&mut self, now_us: u64) -> Result<u64, StoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemFs;
    use crate::{FsyncPolicy, SegConfig, SegLog};
    use gdp_capsule::{MetadataBuilder, Record, RecordHash};
    use gdp_crypto::SigningKey;

    /// A stream of a log on a fresh in-memory file system.
    fn store_for(meta: &CapsuleMetadata) -> impl CapsuleStore {
        let cfg = SegConfig { policy: FsyncPolicy::Always, ..SegConfig::default() };
        SegLog::open(&MemFs::new(), cfg).unwrap().handle(meta.name())
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
        let mut s = store_for(&meta);
        assert!(matches!(s.metadata(), Err(StoreError::NoMetadata)));
        s.put_metadata(&meta).unwrap();
        assert_eq!(s.metadata().unwrap(), meta);
        for r in &records {
            s.append_acked(r).unwrap();
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.latest_seq(), 5);
        assert_eq!(s.get_by_seq(3).unwrap().unwrap(), records[2]);
        assert_eq!(s.get(&records[0].pointer()).unwrap().unwrap(), records[0]);
        assert_eq!(s.range(2, 4).unwrap().len(), 3);
        assert!(s.get_by_seq(99).unwrap().is_none());
    }

    #[test]
    fn idempotent_append() {
        let (meta, records) = setup();
        let mut s = store_for(&meta);
        s.put_metadata(&meta).unwrap();
        assert_eq!(s.append_acked(&records[0]).unwrap(), AppendAck::Durable);
        assert_eq!(s.append_acked(&records[0]).unwrap(), AppendAck::Durable);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn metadata_first_write_wins() {
        let (meta, _) = setup();
        let owner2 = SigningKey::from_seed(&[9u8; 32]);
        let meta2 = MetadataBuilder::new().writer(&owner2.verifying_key()).sign(&owner2);
        let mut s = store_for(&meta);
        s.put_metadata(&meta).unwrap();
        s.put_metadata(&meta2).unwrap();
        assert_eq!(s.metadata().unwrap(), meta);
    }
}
