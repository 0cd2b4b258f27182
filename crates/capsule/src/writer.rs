//! The single-writer append state machine.
//!
//! Paper §V-A: "this design translates to the writer performing two
//! additional tasks: (a) keep some local state, which at the very least
//! includes the hash of the most recent record (potentially in non-volatile
//! memory to recover after writer failures), and any additional hashes the
//! writer might need in near future; and (b) ensure that the durability
//! requirements for the DataCapsule are met."
//!
//! [`CapsuleWriter`] implements (a); durability (b) lives in `gdp-client`
//! where acknowledgments from DataCapsule-servers are tracked.

use crate::encryption::ReadKey;
use crate::error::CapsuleError;
use crate::metadata::CapsuleMetadata;
use crate::record::{Heartbeat, Pointer, Record, RecordHash};
use crate::strategy::PointerStrategy;
use gdp_crypto::SigningKey;
use gdp_wire::Name;
use std::collections::BTreeMap;

/// Writer operating mode (paper §VI-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriterMode {
    /// Strict Single-Writer: state is durable; appends always extend the
    /// newest record, so the capsule stays a chain and readers get
    /// sequential consistency.
    Strict,
    /// Quasi-Single-Writer: occasional concurrent writers or a writer that
    /// lost its local state. Appends may fork a branch; readers get strong
    /// eventual consistency.
    Quasi,
}

/// Local writer state for one capsule: produces signed records with the
/// strategy's hash-pointers.
#[derive(Clone, Debug)]
pub struct CapsuleWriter {
    capsule: Name,
    key: SigningKey,
    strategy: PointerStrategy,
    mode: WriterMode,
    read_key: Option<ReadKey>,
    next_seq: u64,
    prev: RecordHash,
    /// Hashes of past records the strategy may still reference.
    cache: BTreeMap<u64, RecordHash>,
}

impl CapsuleWriter {
    /// Creates a writer positioned at the start of an empty capsule.
    /// Errors if `key` is not the writer key declared in the metadata.
    pub fn new(
        metadata: &CapsuleMetadata,
        key: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<CapsuleWriter, CapsuleError> {
        if metadata.writer_key()? != key.verifying_key() {
            return Err(CapsuleError::BadMetadata("key is not the declared writer"));
        }
        let capsule = metadata.name();
        Ok(CapsuleWriter {
            capsule,
            key,
            strategy,
            mode: WriterMode::Strict,
            read_key: None,
            next_seq: 1,
            prev: RecordHash::anchor(&capsule),
            cache: BTreeMap::new(),
        })
    }

    /// Switches the writer mode.
    pub fn with_mode(mut self, mode: WriterMode) -> CapsuleWriter {
        self.mode = mode;
        self
    }

    /// Enables body encryption with a read key.
    pub fn with_read_key(mut self, key: ReadKey) -> CapsuleWriter {
        self.read_key = Some(key);
        self
    }

    /// The capsule this writer appends to.
    pub fn capsule(&self) -> Name {
        self.capsule
    }

    /// Sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Hash of the most recent record (the state that must be durable in
    /// SSW mode).
    pub fn head(&self) -> RecordHash {
        self.prev
    }

    /// The active pointer strategy.
    pub fn strategy(&self) -> &PointerStrategy {
        &self.strategy
    }

    /// Appends a new record with `body` (sealed first when a read key is
    /// set) and returns it for transmission to DataCapsule-servers.
    pub fn append(&mut self, body: &[u8], timestamp_micros: u64) -> Result<Record, CapsuleError> {
        let seq = self.next_seq;
        let stored_body = match &self.read_key {
            Some(k) => k.seal(&self.capsule, seq, body),
            None => body.to_vec(),
        };
        let extra: Vec<Pointer> = self
            .strategy
            .extra_targets(seq)
            .into_iter()
            .filter_map(|target| {
                self.cache.get(&target).map(|hash| Pointer { seq: target, hash: *hash })
            })
            .collect();
        let record = Record::create(
            &self.capsule,
            &self.key,
            seq,
            timestamp_micros,
            self.prev,
            extra,
            stored_body,
        );
        self.advance(&record);
        Ok(record)
    }

    fn advance(&mut self, record: &Record) {
        let hash = record.hash();
        self.cache.insert(record.header.seq, hash);
        self.prev = hash;
        self.next_seq = record.header.seq + 1;
        self.prune_cache();
    }

    /// Drops cached hashes the strategy can never reference again.
    fn prune_cache(&mut self) {
        let current = self.next_seq;
        let strategy = self.strategy.clone();
        self.cache.retain(|&seq, _| {
            if seq + 1 >= current {
                return true; // the head itself
            }
            match &strategy {
                PointerStrategy::Chain => false,
                PointerStrategy::SkipList => {
                    let v = seq.trailing_zeros();
                    v >= 1 && seq + (1u64 << v) >= current
                }
                PointerStrategy::Checkpoint { interval } => {
                    let interval = (*interval).max(2);
                    seq.is_multiple_of(interval) && seq + interval >= current.saturating_sub(1)
                }
                PointerStrategy::Stream { lags } => {
                    let max_lag = lags.iter().copied().max().unwrap_or(1);
                    seq + max_lag >= current
                }
            }
        });
    }

    /// Number of cached past hashes (the writer's working-state size; an
    /// ablation in `gdp-bench` tracks this per strategy).
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }

    /// Issues a standalone signed heartbeat for the current head.
    pub fn heartbeat(&self) -> Option<Heartbeat> {
        if self.next_seq == 1 {
            return None;
        }
        Some(Heartbeat::sign(&self.capsule, &self.key, self.next_seq - 1, self.prev))
    }

    /// Recovers writer state from a known head record (e.g. read back from
    /// a DataCapsule-server after a crash). In SSW mode this requires the
    /// record to verify; the cache is rebuilt lazily, so immediately
    /// following appends may carry fewer extra pointers than the strategy
    /// ideally would — which the generalized validation permits.
    pub fn resume_from_head(&mut self, head: &Record) -> Result<(), CapsuleError> {
        head.verify(&self.capsule, &self.key.verifying_key())?;
        self.prev = head.hash();
        self.next_seq = head.header.seq + 1;
        self.cache.clear();
        self.cache.insert(head.header.seq, head.hash());
        // Reuse the head's own pointers as cache seed.
        for p in &head.header.extra {
            self.cache.insert(p.seq, p.hash);
        }
        Ok(())
    }

    /// QSW-mode recovery when the true head is unknown: restart from a
    /// possibly stale record, accepting that a branch may be created
    /// (paper §VI-C). Errors in strict mode.
    pub fn resume_possibly_stale(&mut self, stale_head: &Record) -> Result<(), CapsuleError> {
        if self.mode != WriterMode::Quasi {
            return Err(CapsuleError::BadRecord("stale resume requires quasi-single-writer mode"));
        }
        self.resume_from_head(stale_head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::DataCapsule;
    use crate::metadata::MetadataBuilder;

    fn owner() -> SigningKey {
        SigningKey::from_seed(&[1u8; 32])
    }
    fn writer_key() -> SigningKey {
        SigningKey::from_seed(&[2u8; 32])
    }

    fn setup(strategy: PointerStrategy) -> (DataCapsule, CapsuleWriter) {
        let meta = MetadataBuilder::new()
            .writer(&writer_key().verifying_key())
            .set_str("description", "writer test")
            .sign(&owner());
        let capsule = DataCapsule::new(meta.clone()).unwrap();
        let w = CapsuleWriter::new(&meta, writer_key(), strategy).unwrap();
        (capsule, w)
    }

    #[test]
    fn wrong_key_rejected_at_construction() {
        let meta = MetadataBuilder::new().writer(&writer_key().verifying_key()).sign(&owner());
        let evil = SigningKey::from_seed(&[66u8; 32]);
        assert!(CapsuleWriter::new(&meta, evil, PointerStrategy::Chain).is_err());
    }

    #[test]
    fn appends_ingest_cleanly() {
        let (mut c, mut w) = setup(PointerStrategy::Chain);
        for i in 0..20u64 {
            let r = w.append(format!("item {i}").as_bytes(), i).unwrap();
            c.ingest(r).unwrap();
        }
        assert_eq!((c.len(), c.latest_seq()), (20, 20));
        assert_eq!(c.single_head().unwrap().unwrap().header.seq, 20);
    }

    #[test]
    fn skiplist_pointers_present() {
        let (mut c, mut w) = setup(PointerStrategy::SkipList);
        let mut records = Vec::new();
        for i in 0..64u64 {
            let r = w.append(b"x", i).unwrap();
            records.push(r.clone());
            c.ingest(r).unwrap();
        }
        // Record 16 should carry pointers to 14, 12, 8.
        let r16 = &records[15];
        let ptr_seqs: Vec<u64> = r16.header.extra.iter().map(|p| p.seq).collect();
        assert_eq!(ptr_seqs, vec![14, 12, 8]);
    }

    #[test]
    fn chain_cache_stays_tiny() {
        let (_, mut w) = setup(PointerStrategy::Chain);
        for i in 0..1000u64 {
            w.append(b"x", i).unwrap();
        }
        assert!(w.cache_size() <= 2, "cache {} should be tiny", w.cache_size());
    }

    #[test]
    fn skiplist_cache_stays_logarithmic() {
        let (_, mut w) = setup(PointerStrategy::SkipList);
        for i in 0..4096u64 {
            w.append(b"x", i).unwrap();
        }
        assert!(w.cache_size() <= 32, "skip-list cache should be O(log n), got {}", w.cache_size());
    }

    #[test]
    fn heartbeat_matches_head() {
        let (mut c, mut w) = setup(PointerStrategy::Chain);
        assert!(w.heartbeat().is_none());
        for i in 0..5u64 {
            let r = w.append(b"x", i).unwrap();
            c.ingest(r).unwrap();
        }
        let hb = w.heartbeat().unwrap();
        assert_eq!(hb.seq, 5);
        c.verify_history(&hb).unwrap();
    }

    #[test]
    fn encrypted_bodies() {
        let key = ReadKey::from_bytes([9u8; 32]);
        let meta =
            MetadataBuilder::new().writer(&writer_key().verifying_key()).encrypted().sign(&owner());
        let mut c = DataCapsule::new(meta.clone()).unwrap();
        let mut w = CapsuleWriter::new(&meta, writer_key(), PointerStrategy::Chain)
            .unwrap()
            .with_read_key(key.clone());
        let r = w.append(b"top secret", 1).unwrap();
        assert_ne!(r.body, b"top secret".to_vec());
        c.ingest(r.clone()).unwrap();
        let plain = key.open(&c.name(), r.header.seq, &r.body).unwrap();
        assert_eq!(plain, b"top secret");
    }

    #[test]
    fn resume_from_head_continues_chain() {
        let (mut c, mut w) = setup(PointerStrategy::Chain);
        let mut last = None;
        for i in 0..5u64 {
            let r = w.append(b"x", i).unwrap();
            c.ingest(r.clone()).unwrap();
            last = Some(r);
        }
        // Simulate a crash: fresh writer resumes from the stored head.
        let meta = c.metadata().clone();
        let mut w2 = CapsuleWriter::new(&meta, writer_key(), PointerStrategy::Chain).unwrap();
        w2.resume_from_head(&last.unwrap()).unwrap();
        assert_eq!(w2.next_seq(), 6);
        let r6 = w2.append(b"after crash", 6).unwrap();
        assert_eq!(c.ingest(r6).unwrap(), crate::capsule::IngestOutcome::Linked);
        assert_eq!((c.len(), c.latest_seq()), (6, 6));
    }

    #[test]
    fn stale_resume_creates_branch_only_in_qsw() {
        let (mut c, mut w) = setup(PointerStrategy::Chain);
        let mut records = Vec::new();
        for i in 0..5u64 {
            let r = w.append(b"x", i).unwrap();
            c.ingest(r.clone()).unwrap();
            records.push(r);
        }
        let meta = c.metadata().clone();
        // Strict mode refuses.
        let mut strict = CapsuleWriter::new(&meta, writer_key(), PointerStrategy::Chain).unwrap();
        assert!(strict.resume_possibly_stale(&records[2]).is_err());
        // QSW mode allows and forks.
        let mut qsw = CapsuleWriter::new(&meta, writer_key(), PointerStrategy::Chain)
            .unwrap()
            .with_mode(WriterMode::Quasi);
        qsw.resume_possibly_stale(&records[2]).unwrap();
        let fork = qsw.append(b"fork", 99).unwrap();
        c.ingest(fork).unwrap();
        assert_eq!(c.heads().len(), 2);
        assert_eq!(c.get_by_seq(4).len(), 2);
    }
}
