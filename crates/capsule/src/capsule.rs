//! The DataCapsule: a verified record DAG.
//!
//! This structure is shared by writers (building new records), servers
//! (ingesting and replicating), and readers (verifying). It is a grow-only
//! set of signature-verified records keyed by their address, the
//! hash-pointer `(seq, header hash)` that names them — which makes it a
//! state-based CRDT: merge is set union, so "a DataCapsule meets the
//! definition of a Conflict-Free Replicated Data Type" (paper §V-A).
//!
//! * In **Strict Single-Writer (SSW)** mode the records form one hash chain
//!   and readers observe sequential consistency.
//! * In **Quasi-Single-Writer (QSW)** mode concurrent writers may create
//!   *branches* (two records whose `prev` point at the same record); readers
//!   then observe strong eventual consistency (paper §VI-C).
//! * Records whose `prev` is not (yet) present are *holes* (paper §VI-B);
//!   they are tracked as pending until the missing ancestors arrive.
//!
//! The verify → link → pending logic exists once, in [`Chain`], generic
//! over what it keeps of each verified record: a [`DataCapsule`] keeps the
//! whole [`Record`]; a [`CapsuleIndex`] keeps one integer, the record's
//! wire bound. A chain links on addresses alone — a record's seq is in its
//! address, and a parked record's `prev` is the key it waits under — so
//! the index's owner (a storage server) reads every header, signature and
//! body back from its store. Which one a chain is is its type, decided
//! where it is declared, never a flag read at run time.

use crate::error::CapsuleError;
use crate::metadata::CapsuleMetadata;
use crate::record::{Heartbeat, Pointer, Record, RecordHash};
use gdp_crypto::VerifyingKey;
use gdp_wire::Name;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Result of offering a record to a capsule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Record verified and linked into the DAG.
    Linked,
    /// Record verified but its `prev` ancestor is missing; buffered as
    /// pending (a hole exists).
    Pending,
    /// Record was already present (idempotent).
    Duplicate,
}

/// What a [`Chain`] keeps of each verified record: made from the whole
/// record once it has verified, and from then on the only form the chain
/// holds.
pub trait Retained {
    /// The kept form of a verified record.
    fn retain(record: Record) -> Self;

    /// The record's [`Record::wire_bound`]: what sizing an answer needs
    /// before any record is read.
    fn wire_bound(&self) -> u64;
}

impl Retained for Record {
    fn retain(record: Record) -> Record {
        record
    }
    fn wire_bound(&self) -> u64 {
        Record::wire_bound(self)
    }
}

impl Retained for u64 {
    fn retain(record: Record) -> u64 {
        record.wire_bound()
    }
    fn wire_bound(&self) -> u64 {
        *self
    }
}

/// A verified, body-retaining DataCapsule: what writers, readers and the
/// CAAPI backends hold.
pub type DataCapsule = Chain<Record>;

/// A verified DataCapsule that keeps each record's address and wire bound
/// only: what a storage server holds in memory beside the store that has
/// the records.
pub type CapsuleIndex = Chain<u64>;

/// A record that passed a chain's full verification (structure, body hash,
/// writer signature) and is not part of it yet. Only [`Chain::verify`]
/// makes one, so [`Chain::admit`] cannot be handed an unverified record;
/// the gap between the two calls is where a server persists the record.
#[derive(Debug)]
pub struct Verified {
    capsule: Name,
    at: Pointer,
    record: Record,
}

impl Verified {
    /// The verified record.
    pub fn record(&self) -> &Record {
        &self.record
    }
}

/// A verified collection of records for one capsule, keeping an `E` per
/// record (see [`DataCapsule`] and [`CapsuleIndex`]).
#[derive(Clone, Debug)]
pub struct Chain<E> {
    metadata: CapsuleMetadata,
    name: Name,
    writer_key: VerifyingKey,
    /// All linked (fully connected to the anchor) records by address: in
    /// seq order, more than one per seq only on QSW branches.
    records: BTreeMap<Pointer, E>,
    /// Linked records that no linked record points to.
    heads: HashSet<Pointer>,
    /// Verified records waiting for a missing ancestor, keyed by the
    /// ancestor hash they need: their `prev`.
    pending: HashMap<RecordHash, Vec<(Pointer, E)>>,
    /// Addresses of records buffered in `pending` (for duplicate
    /// detection).
    pending_at: HashSet<Pointer>,
}

impl<E: Retained> Chain<E> {
    /// Creates an empty capsule from verified metadata.
    pub fn new(metadata: CapsuleMetadata) -> Result<Chain<E>, CapsuleError> {
        metadata.verify()?;
        let name = metadata.name();
        let writer_key = metadata.writer_key()?;
        Ok(Chain {
            metadata,
            name,
            writer_key,
            records: BTreeMap::new(),
            heads: HashSet::new(),
            pending: HashMap::new(),
            pending_at: HashSet::new(),
        })
    }

    /// The capsule's flat name.
    pub fn name(&self) -> Name {
        self.name
    }

    /// The immutable metadata.
    pub fn metadata(&self) -> &CapsuleMetadata {
        &self.metadata
    }

    /// The single writer's verification key.
    pub fn writer_key(&self) -> &VerifyingKey {
        &self.writer_key
    }

    /// Number of linked records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are linked.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of verified-but-unlinked records (waiting on holes).
    pub fn pending_len(&self) -> usize {
        self.pending_at.len()
    }

    /// Addresses of missing ancestors currently blocking pending records —
    /// the targets an anti-entropy pass should fetch: each waiting
    /// record's `prev` at the seq before its own. Sorted: the list goes on
    /// the wire as is, and a seeded run must replay byte for byte.
    pub fn missing_ancestors(&self) -> Vec<Pointer> {
        let mut missing: Vec<Pointer> = self
            .pending
            .iter()
            .flat_map(|(&hash, waiting)| {
                waiting.iter().map(move |(at, _)| Pointer { seq: at.seq.saturating_sub(1), hash })
            })
            .collect();
        missing.sort_unstable();
        missing.dedup();
        missing
    }

    /// Addresses of the current heads (linked records with no linked
    /// successor). SSW capsules have exactly one head; QSW branches
    /// produce several. Newest first; heads at one seq in hash order.
    pub fn heads(&self) -> Vec<Pointer> {
        let mut out: Vec<Pointer> = self.heads.iter().copied().collect();
        out.sort_by_key(|h| (std::cmp::Reverse(h.seq), h.hash));
        out
    }

    /// The unique head in SSW mode, or `Err(Branched)` when diverged.
    pub fn single_head(&self) -> Result<Option<&E>, CapsuleError> {
        match self.heads()[..] {
            [] => Ok(None),
            [head] => Ok(self.get(&head)),
            _ => Err(CapsuleError::Branched),
        }
    }

    /// Highest linked sequence number.
    pub fn latest_seq(&self) -> u64 {
        self.records.keys().next_back().map_or(0, |at| at.seq)
    }

    /// Looks up a linked record by its address.
    pub fn get(&self, at: &Pointer) -> Option<&E> {
        self.records.get(at)
    }

    /// True when the record is held, linked or pending.
    pub fn contains(&self, at: &Pointer) -> bool {
        self.records.contains_key(at) || self.pending_at.contains(at)
    }

    /// Looks up linked records at a sequence number (more than one only on
    /// QSW branches).
    pub fn get_by_seq(&self, seq: u64) -> Vec<&E> {
        self.range(seq, seq)
    }

    /// The single record at `seq`, or an error when absent/ambiguous.
    pub fn get_one(&self, seq: u64) -> Result<&E, CapsuleError> {
        let rs = self.get_by_seq(seq);
        match rs.len() {
            0 => Err(CapsuleError::MissingSeq(seq)),
            1 => Ok(rs[0]),
            _ => Err(CapsuleError::Branched),
        }
    }

    /// Linked records in a seq range (inclusive) in SSW order, each with
    /// its address, lazily. An empty or inverted range yields nothing.
    pub fn iter_range(&self, from: u64, to: u64) -> impl Iterator<Item = (&Pointer, &E)> {
        // `BTreeMap::range` panics on an inverted range.
        let span = (from <= to).then(|| Pointer::span(from, to));
        span.into_iter().flat_map(|span| self.records.range(span))
    }

    /// Returns records in a seq range (inclusive), SSW order. An empty or
    /// inverted range yields no records.
    pub fn range(&self, from: u64, to: u64) -> Vec<&E> {
        self.iter_range(from, to).map(|(_, e)| e).collect()
    }

    /// Verifies and inserts a record. Verification is complete — signature,
    /// body hash, structure, and (when the ancestor is present) pointer
    /// linkage — so an untrusted server's tampering is caught here.
    pub fn ingest(&mut self, record: Record) -> Result<IngestOutcome, CapsuleError> {
        match self.verify(record)? {
            Some(verified) => Ok(self.admit(verified)),
            None => Ok(IngestOutcome::Duplicate),
        }
    }

    /// The first half of [`Chain::ingest`]: the complete verification,
    /// without inserting. `None` when the record is already held. A server
    /// persists the record between this and [`Chain::admit`], so that it
    /// never indexes what its store refused.
    pub fn verify(&self, record: Record) -> Result<Option<Verified>, CapsuleError> {
        let at = record.pointer();
        if self.contains(&at) {
            return Ok(None);
        }
        record.verify_hashed(&self.name, &self.writer_key, &at.hash)?;
        Ok(Some(Verified { capsule: self.name, at, record }))
    }

    /// The second half of [`Chain::ingest`]: links a verified record, or
    /// parks it until its missing ancestor arrives.
    ///
    /// # Panics
    /// When `verified` came from another capsule's [`Chain::verify`].
    pub fn admit(&mut self, verified: Verified) -> IngestOutcome {
        let Verified { capsule, at, record } = verified;
        assert_eq!(capsule, self.name, "record verified against another capsule");
        if self.contains(&at) {
            return IngestOutcome::Duplicate;
        }
        let prev = record.header.prev;
        let entry = E::retain(record);
        if self.can_link(at, prev) {
            self.link(at, prev, entry);
            IngestOutcome::Linked
        } else {
            self.pending_at.insert(at);
            self.pending.entry(prev).or_default().push((at, entry));
            IngestOutcome::Pending
        }
    }

    /// True when `prev` is linked at the seq before `at`'s (the anchor,
    /// for seq 1).
    fn can_link(&self, at: Pointer, prev: RecordHash) -> bool {
        if at.seq == 1 {
            return prev == RecordHash::anchor(&self.name);
        }
        self.records.contains_key(&Pointer { seq: at.seq - 1, hash: prev })
    }

    fn link(&mut self, at: Pointer, prev: RecordHash, entry: E) {
        // Linking may unblock pending descendants (hole healing), which
        // may unblock theirs: a worklist, so a long healed run costs no
        // stack.
        let mut ready = vec![(at, prev, entry)];
        while let Some((at, prev, entry)) = ready.pop() {
            self.heads.remove(&Pointer { seq: at.seq - 1, hash: prev });
            self.heads.insert(at);
            self.records.insert(at, entry);
            for (waiting_at, waiting) in
                self.pending.remove(&at.hash).unwrap_or_default().into_iter().rev()
            {
                self.pending_at.remove(&waiting_at);
                // Ancestor present but seq relation wrong: it can never
                // link, so it is dropped.
                if self.can_link(waiting_at, at.hash) {
                    ready.push((waiting_at, at.hash, waiting));
                }
            }
        }
    }

    /// Iterates all linked records in seq order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.records.values()
    }
}

impl DataCapsule {
    /// Verifies the full history ending at `head` against a heartbeat:
    /// walks prev-pointers back to the anchor, checking hashes and seq
    /// decrements. This is the "verify the entire history of DataCapsule up
    /// to a specific point in time against a specific heartbeat" operation
    /// (paper §V).
    pub fn verify_history(&self, heartbeat: &Heartbeat) -> Result<(), CapsuleError> {
        if heartbeat.capsule != self.name {
            return Err(CapsuleError::WrongCapsule { expected: self.name, got: heartbeat.capsule });
        }
        heartbeat.verify(&self.writer_key)?;
        // Each step looks `prev` up at the seq before, so the seqs
        // decrement along the chain by construction.
        let mut at = Pointer { seq: heartbeat.seq, hash: heartbeat.head };
        loop {
            let header = &self.get(&at).ok_or(CapsuleError::MissingRecord(at.hash))?.header;
            if at.seq == 1 {
                if header.prev != RecordHash::anchor(&self.name) {
                    return Err(CapsuleError::BadRecord("chain does not anchor at metadata"));
                }
                return Ok(());
            }
            at = Pointer { seq: at.seq - 1, hash: header.prev };
        }
    }

    /// A signed heartbeat for the current unique head (SSW mode), extracted
    /// from the head record itself.
    pub fn head_heartbeat(&self) -> Result<Option<Heartbeat>, CapsuleError> {
        Ok(self.single_head()?.map(|head| Heartbeat::from_record(&self.name, head)))
    }

    /// Merges all linked and pending records from `other` (CRDT join).
    /// Returns how many new records became linked.
    pub fn merge(&mut self, other: &DataCapsule) -> Result<usize, CapsuleError> {
        if other.name != self.name {
            return Err(CapsuleError::WrongCapsule { expected: self.name, got: other.name });
        }
        let before = self.records.len();
        // Ingest in seq order so most records link immediately.
        let pending = other.pending.values().flatten().map(|(_, r)| r);
        let mut all: Vec<&Record> = other.records.values().chain(pending).collect();
        all.sort_by_key(|r| r.header.seq);
        for r in all {
            self.ingest(r.clone())?;
        }
        Ok(self.records.len() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::MetadataBuilder;
    use gdp_crypto::SigningKey;

    fn owner() -> SigningKey {
        SigningKey::from_seed(&[1u8; 32])
    }
    fn writer() -> SigningKey {
        SigningKey::from_seed(&[2u8; 32])
    }

    fn fresh() -> DataCapsule {
        let meta = MetadataBuilder::new()
            .writer(&writer().verifying_key())
            .set_str("description", "test")
            .sign(&owner());
        DataCapsule::new(meta).unwrap()
    }

    fn make_record(c: &DataCapsule, seq: u64, prev: RecordHash, body: &[u8]) -> Record {
        Record::create(&c.name(), &writer(), seq, seq * 10, prev, vec![], body.to_vec())
    }

    fn chain(c: &mut DataCapsule, n: u64) -> Vec<Record> {
        let mut prev = RecordHash::anchor(&c.name());
        let mut out = Vec::new();
        for seq in 1..=n {
            let r = make_record(c, seq, prev, format!("body {seq}").as_bytes());
            prev = r.hash();
            assert_eq!(c.ingest(r.clone()).unwrap(), IngestOutcome::Linked);
            out.push(r);
        }
        out
    }

    #[test]
    fn ingest_chain() {
        let mut c = fresh();
        chain(&mut c, 10);
        assert_eq!(c.len(), 10);
        assert_eq!(c.latest_seq(), 10);
        assert_eq!(c.heads().len(), 1);
        assert_eq!(c.single_head().unwrap().unwrap().header.seq, 10);
    }

    #[test]
    fn duplicate_is_idempotent() {
        let mut c = fresh();
        let rs = chain(&mut c, 3);
        assert_eq!(c.ingest(rs[1].clone()).unwrap(), IngestOutcome::Duplicate);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn out_of_order_ingest_heals() {
        let mut c = fresh();
        let anchor = RecordHash::anchor(&c.name());
        let r1 = make_record(&c, 1, anchor, b"1");
        let r2 = make_record(&c, 2, r1.hash(), b"2");
        let r3 = make_record(&c, 3, r2.hash(), b"3");
        assert_eq!(c.ingest(r3.clone()).unwrap(), IngestOutcome::Pending);
        assert_eq!(c.ingest(r2.clone()).unwrap(), IngestOutcome::Pending);
        assert_eq!(c.len(), 0);
        assert_eq!(c.pending_len(), 2);
        assert_eq!(c.ingest(r1).unwrap(), IngestOutcome::Linked);
        // Linking r1 must cascade to r2 and r3.
        assert_eq!(c.len(), 3);
        assert_eq!(c.pending_len(), 0);
        assert_eq!(c.latest_seq(), 3);
    }

    #[test]
    fn hole_detection() {
        let mut c = fresh();
        let anchor = RecordHash::anchor(&c.name());
        let r1 = make_record(&c, 1, anchor, b"1");
        let r2 = make_record(&c, 2, r1.hash(), b"2");
        let r3 = make_record(&c, 3, r2.hash(), b"3");
        c.ingest(r1).unwrap();
        c.ingest(r3).unwrap();
        assert_eq!((c.latest_seq(), c.pending_len()), (1, 1));
        assert_eq!(c.missing_ancestors(), vec![r2.pointer()]);
        c.ingest(r2).unwrap();
        assert_eq!((c.latest_seq(), c.len(), c.pending_len()), (3, 3, 0));
        assert!(c.missing_ancestors().is_empty());
    }

    /// A parked record whose claimed seq does not follow its ancestor's is
    /// dropped when that ancestor links: it can never link itself.
    #[test]
    fn a_parked_record_whose_seq_skips_its_ancestor_is_dropped_when_the_ancestor_links() {
        let mut c = fresh();
        let anchor = RecordHash::anchor(&c.name());
        let r1 = make_record(&c, 1, anchor, b"1");
        let skips = make_record(&c, 3, r1.hash(), b"claims seq 3 on top of seq 1");
        assert_eq!(c.ingest(skips.clone()).unwrap(), IngestOutcome::Pending);
        assert_eq!(c.missing_ancestors(), vec![Pointer { seq: 2, hash: r1.hash() }]);
        assert_eq!(c.ingest(r1).unwrap(), IngestOutcome::Linked);
        assert_eq!((c.len(), c.pending_len(), c.latest_seq()), (1, 0, 1));
        assert!(!c.contains(&skips.pointer()));
        assert!(c.missing_ancestors().is_empty());
    }

    #[test]
    fn branch_creates_two_heads() {
        let mut c = fresh();
        let rs = chain(&mut c, 2);
        // A concurrent writer (QSW) also appends at seq 3 on top of seq 2.
        let a = make_record(&c, 3, rs[1].hash(), b"branch a");
        let b = make_record(&c, 3, rs[1].hash(), b"branch b");
        c.ingest(a).unwrap();
        c.ingest(b).unwrap();
        assert_eq!(c.heads().len(), 2);
        assert!(matches!(c.single_head(), Err(CapsuleError::Branched)));
        assert_eq!(c.get_by_seq(3).len(), 2);
    }

    #[test]
    fn tampered_record_rejected() {
        let mut c = fresh();
        let anchor = RecordHash::anchor(&c.name());
        let mut r1 = make_record(&c, 1, anchor, b"1");
        r1.body = b"tampered".to_vec().into();
        assert!(c.ingest(r1).is_err());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn record_from_wrong_writer_rejected() {
        let mut c = fresh();
        let anchor = RecordHash::anchor(&c.name());
        let evil = SigningKey::from_seed(&[66u8; 32]);
        let r = Record::create(&c.name(), &evil, 1, 0, anchor, vec![], b"evil".to_vec());
        assert!(matches!(c.ingest(r), Err(CapsuleError::BadSignature(_))));
    }

    #[test]
    fn merge_is_union() {
        let mut a = fresh();
        let rs = chain(&mut a, 6);
        let mut b = fresh();
        // b has a prefix plus holes.
        b.ingest(rs[0].clone()).unwrap();
        b.ingest(rs[1].clone()).unwrap();
        b.ingest(rs[4].clone()).unwrap(); // pending
        let added = b.merge(&a).unwrap();
        assert_eq!(added, 4);
        assert_eq!((b.len(), b.pending_len(), b.latest_seq()), (6, 0, 6));
    }

    #[test]
    fn merge_commutative() {
        let mut a = fresh();
        let rs = chain(&mut a, 5);
        let mut x = fresh();
        let mut y = fresh();
        x.ingest(rs[0].clone()).unwrap();
        x.ingest(rs[1].clone()).unwrap();
        y.ingest(rs[3].clone()).unwrap();
        y.ingest(rs[4].clone()).unwrap();
        let mut xy = x.clone();
        xy.merge(&y).unwrap();
        let mut yx = y.clone();
        yx.merge(&x).unwrap();
        assert_eq!(xy.len(), yx.len());
        assert_eq!(xy.heads(), yx.heads());
    }

    #[test]
    fn merge_rejects_foreign_capsule() {
        let mut a = fresh();
        let other_meta = MetadataBuilder::new()
            .writer(&writer().verifying_key())
            .set_str("description", "other")
            .sign(&owner());
        let b = DataCapsule::new(other_meta).unwrap();
        assert!(matches!(a.merge(&b), Err(CapsuleError::WrongCapsule { .. })));
    }

    #[test]
    fn verify_history_ok() {
        let mut c = fresh();
        chain(&mut c, 20);
        let hb = c.head_heartbeat().unwrap().unwrap();
        c.verify_history(&hb).unwrap();
    }

    #[test]
    fn verify_history_detects_missing_link() {
        let mut c = fresh();
        let anchor = RecordHash::anchor(&c.name());
        let r1 = make_record(&c, 1, anchor, b"1");
        let r2 = make_record(&c, 2, r1.hash(), b"2");
        c.ingest(r1.clone()).unwrap();
        c.ingest(r2.clone()).unwrap();
        // Heartbeat for a record chain we only partially hold.
        let r3 = make_record(&c, 3, r2.hash(), b"3");
        let hb = Heartbeat::from_record(&c.name(), &r3);
        assert!(matches!(c.verify_history(&hb), Err(CapsuleError::MissingRecord(_))));
    }

    #[test]
    fn verify_history_rejects_forged_heartbeat() {
        let mut c = fresh();
        chain(&mut c, 3);
        let mut hb = c.head_heartbeat().unwrap().unwrap();
        hb.seq = 2; // break the signed binding
        assert!(c.verify_history(&hb).is_err());
    }

    #[test]
    fn range_and_iter() {
        let mut c = fresh();
        chain(&mut c, 10);
        let r = c.range(3, 6);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0].header.seq, 3);
        assert_eq!(c.iter().count(), 10);
    }

    /// The same records in the same (scrambled) order: an index goes
    /// through the same linked / pending / duplicate states as the
    /// capsule, ends with the same heads, and keeps one integer per
    /// record, its wire bound.
    #[test]
    fn an_index_links_exactly_like_the_capsule_and_keeps_one_integer_per_record() {
        let mut full = fresh();
        let rs = chain(&mut fresh(), 9);
        let fork = make_record(&full, 5, rs[3].hash(), b"fork");
        let mut index = CapsuleIndex::new(full.metadata().clone()).unwrap();
        let order = [2, 0, 0, 8, 7, 1, 3, 4, 6, 5];
        for r in order.iter().map(|i| &rs[*i]).chain([&fork, &fork]) {
            assert_eq!(index.ingest(r.clone()).unwrap(), full.ingest(r.clone()).unwrap());
            assert_eq!((index.len(), index.pending_len()), (full.len(), full.pending_len()));
            assert_eq!(index.missing_ancestors(), full.missing_ancestors());
            assert!(index.missing_ancestors().is_sorted(), "a wire-visible list in map order");
        }
        assert_eq!(index.heads(), full.heads());
        assert_eq!(index.heads().len(), 2);
        let linked = |c: &Chain<_>| c.iter_range(0, u64::MAX).map(|(at, _)| *at).collect();
        let addresses: Vec<Pointer> = linked(&index);
        assert_eq!(addresses, full.iter().map(Record::pointer).collect::<Vec<_>>());
        let bounds: Vec<u64> = index.iter().copied().collect();
        assert_eq!(bounds, full.iter().map(Record::wire_bound).collect::<Vec<_>>());
        assert_eq!(std::mem::size_of_val(index.get_one(9).unwrap()), 8);
    }

    /// `verify` holds nothing; `admit` is the other half of `ingest`.
    #[test]
    fn verify_then_admit_is_ingest() {
        let mut c = fresh();
        let anchor = RecordHash::anchor(&c.name());
        let r1 = make_record(&c, 1, anchor, b"1");
        let r2 = make_record(&c, 2, r1.hash(), b"2");
        let v2 = c.verify(r2.clone()).unwrap().expect("fresh");
        assert_eq!(v2.record(), &r2);
        assert_eq!((c.len(), c.pending_len()), (0, 0), "verifying inserts nothing");
        assert!(!c.contains(&r2.pointer()));
        assert_eq!(c.admit(v2), IngestOutcome::Pending);
        assert!(c.contains(&r2.pointer()) && c.get(&r2.pointer()).is_none());
        assert!(c.verify(r2).unwrap().is_none(), "held, even if only pending");
        let v1 = c.verify(r1.clone()).unwrap().unwrap();
        let again = c.verify(r1).unwrap().unwrap();
        assert_eq!(c.admit(v1), IngestOutcome::Linked);
        assert_eq!(c.admit(again), IngestOutcome::Duplicate);
        assert_eq!((c.len(), c.pending_len()), (2, 0));
        let mut tampered = make_record(&c, 3, c.get_one(2).unwrap().hash(), b"3");
        tampered.body = b"tampered".to_vec().into();
        assert!(c.verify(tampered).is_err());
    }

    #[test]
    fn extra_pointers_allowed_by_ingest() {
        let mut c = fresh();
        let rs = chain(&mut c, 4);
        let r5 = Record::create(
            &c.name(),
            &writer(),
            5,
            0,
            rs[3].hash(),
            vec![Pointer { seq: 2, hash: rs[1].hash() }],
            b"five".to_vec(),
        );
        assert_eq!(c.ingest(r5).unwrap(), IngestOutcome::Linked);
    }
}
