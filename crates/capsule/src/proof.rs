//! Integrity proofs over the hash-pointer graph.
//!
//! Paper §V: "a reader can also get cryptographic proofs for specific
//! records from a DataCapsule in a similar way as the well-known Merkle hash
//! trees" and "Read queries can be verified against a particular state of
//! the data-structure, identified by the 'heartbeat'."
//!
//! A [`MembershipProof`] is a path of record *headers* from a heartbeat-
//! attested head down to the target record, each step following one of the
//! previous header's hash-pointers. A [`RangeProof`] exploits the hash-chain
//! self-verification of contiguous runs ("a range of records in a
//! linked-list design is self-verifying with respect to the newest record in
//! the range", §V-A). Verification is strategy-independent: any pointer the
//! writer chose to include is a valid step.

use crate::capsule::{Chain, DataCapsule, Retained};
use crate::error::CapsuleError;
use crate::record::{body_digest, Heartbeat, Pointer, Record, RecordHeader};
use gdp_crypto::{ct, VerifyingKey};
use gdp_wire::{Bytes, DecodeError, Decoder, Encoder, Name, Wire};

/// Proof that the record at `target_seq` is part of the history attested by
/// `heartbeat`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipProof {
    /// The writer-signed anchor state.
    pub heartbeat: Heartbeat,
    /// Headers from the heartbeat's head (first) to the target (last); each
    /// successive header is reached via a hash-pointer of its predecessor.
    pub path: Vec<RecordHeader>,
    /// The target record's body (verified against the last header's
    /// `body_hash`).
    pub body: Bytes,
}

impl MembershipProof {
    /// Builds the proof from the head attested by `heartbeat` down to
    /// `target_seq` (see [`MembershipProof::path`]) over the capsule's own
    /// records.
    pub fn build(
        capsule: &DataCapsule,
        heartbeat: &Heartbeat,
        target_seq: u64,
    ) -> Result<MembershipProof, CapsuleError> {
        MembershipProof::path(capsule, heartbeat, target_seq, u64::MAX, |at| {
            capsule.get(at).cloned().ok_or(CapsuleError::MissingRecord(at.hash))
        })
    }

    /// The proof from the head attested by `heartbeat` down to
    /// `target_seq`, along the descent the pointer strategies are built
    /// for — from each header, the pointer with the smallest seq not below
    /// the target (the farthest jump that does not overshoot) — so
    /// skip-list and checkpoint pointers shorten proofs automatically.
    /// Each hop must be linked in `capsule`; its record comes from `read`:
    /// the capsule's own for a [`DataCapsule`], the store's for a chain
    /// that keeps no headers. The target's is the last read.
    ///
    /// Each hop is charged its record's wire bound against `budget` bytes
    /// before it is read: a path that would pass it stops there with
    /// [`CapsuleError::ProofTooLarge`], so a descent reads at most the
    /// budget before it is refused.
    pub fn path<E: Retained, X: From<CapsuleError>>(
        capsule: &Chain<E>,
        heartbeat: &Heartbeat,
        target_seq: u64,
        budget: u64,
        mut read: impl FnMut(&Pointer) -> Result<Record, X>,
    ) -> Result<MembershipProof, X> {
        if target_seq > heartbeat.seq || target_seq == 0 {
            return Err(CapsuleError::MissingSeq(target_seq).into());
        }
        let mut at = Pointer { seq: heartbeat.seq, hash: heartbeat.head };
        let mut spent = 0u64;
        let mut path = Vec::new();
        loop {
            let bound = capsule.get(&at).ok_or(CapsuleError::MissingRecord(at.hash))?.wire_bound();
            spent = spent.saturating_add(bound);
            if spent > budget {
                return Err(CapsuleError::ProofTooLarge.into());
            }
            let Record { header, body, .. } = read(&at)?;
            if header.seq == target_seq {
                path.push(header);
                return Ok(MembershipProof { heartbeat: heartbeat.clone(), path, body });
            }
            // A pointer's seq is the writer's claim; one that lies names no
            // record at that address, or ends the descent below the target,
            // where no pointer qualifies.
            at = header
                .all_pointers()
                .filter(|p| p.seq >= target_seq)
                .min_by_key(|p| p.seq)
                .ok_or(CapsuleError::MissingSeq(target_seq))?;
            path.push(header);
        }
    }

    /// Verifies the proof with nothing but the capsule name and writer key —
    /// no other local state. Returns the proven record.
    pub fn verify(&self, capsule: &Name, writer: &VerifyingKey) -> Result<Record, CapsuleError> {
        if self.heartbeat.capsule != *capsule {
            return Err(CapsuleError::WrongCapsule {
                expected: *capsule,
                got: self.heartbeat.capsule,
            });
        }
        self.heartbeat.verify(writer)?;
        let first = self.path.first().ok_or(CapsuleError::BadProof("empty path"))?;
        if first.hash() != self.heartbeat.head || first.seq != self.heartbeat.seq {
            return Err(CapsuleError::BadProof("path does not start at heartbeat head"));
        }
        // Each hop must be justified by a hash-pointer in the previous header.
        for w in self.path.windows(2) {
            let (from, to) = (&w[0], &w[1]);
            let to = Pointer { seq: to.seq, hash: to.hash() };
            if !from.all_pointers().any(|p| p == to) {
                return Err(CapsuleError::BadProof("hop not justified by a hash-pointer"));
            }
        }
        let last = self.path.last().unwrap();
        if !ct::eq(&body_digest(&self.body), &last.body_hash) {
            return Err(CapsuleError::BadProof("body does not match proven header"));
        }
        last.validate_structure()?;
        Ok(Record {
            header: last.clone(),
            body: self.body.clone(),
            // The heartbeat signature attests the chain; the per-record
            // signature is not re-derivable from a proof, so embed the
            // heartbeat's signature when the target *is* the head, else a
            // placeholder that readers must not re-serve. Readers needing
            // the original record signature should fetch the full record.
            signature: self.heartbeat.signature,
        })
    }

    /// Proof length in hops (1 = target is the head itself).
    pub fn hops(&self) -> usize {
        self.path.len()
    }

    /// Serialized proof size in bytes.
    pub fn wire_size(&self) -> usize {
        self.to_wire().len()
    }
}

impl Wire for MembershipProof {
    fn encode(&self, enc: &mut Encoder) {
        self.heartbeat.encode(enc);
        enc.seq(&self.path, |e, h| h.encode(e));
        enc.bytes(&self.body);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let heartbeat = Heartbeat::decode(dec)?;
        let path = dec.seq(RecordHeader::decode)?;
        let body = Bytes::copy_from_slice(dec.bytes()?);
        Ok(MembershipProof { heartbeat, path, body })
    }
}

/// Proof for a contiguous range `[from_seq, to_seq]`: the full records plus
/// a membership proof connecting the newest record in the range to the
/// heartbeat head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeProof {
    /// Membership proof for the newest record of the range.
    pub newest: MembershipProof,
    /// The records `from_seq..to_seq-1` (the newest is carried by `newest`),
    /// oldest first.
    pub older: Vec<Record>,
}

impl RangeProof {
    /// Builds a proof for `[from_seq, to_seq]` against `heartbeat`.
    pub fn build(
        capsule: &DataCapsule,
        heartbeat: &Heartbeat,
        from_seq: u64,
        to_seq: u64,
    ) -> Result<RangeProof, CapsuleError> {
        if from_seq == 0 || from_seq > to_seq {
            return Err(CapsuleError::BadProof("invalid range"));
        }
        let newest = MembershipProof::build(capsule, heartbeat, to_seq)?;
        let mut older = Vec::new();
        for seq in from_seq..to_seq {
            older.push(capsule.get_one(seq)?.clone());
        }
        Ok(RangeProof { newest, older })
    }

    /// Verifies and returns the full record run, oldest first. One
    /// signature is checked, the heartbeat's: the run is authenticated by
    /// the hash chain back from the proven newest record, and each
    /// record's `signature` field is carried as received, unverified (the
    /// newest carries the heartbeat's).
    pub fn verify(
        &self,
        capsule: &Name,
        writer: &VerifyingKey,
    ) -> Result<Vec<Record>, CapsuleError> {
        let newest = self.newest.verify(capsule, writer)?;
        // Walk backward: each record's prev must be the hash of the one
        // before it, with decrementing seq (self-verifying chain).
        let mut expected_hash = newest.header.prev;
        let mut expected_seq = newest.header.seq.wrapping_sub(1);
        for rec in self.older.iter().rev() {
            if rec.header.seq != expected_seq {
                return Err(CapsuleError::BadProof("range seq mismatch"));
            }
            if rec.hash() != expected_hash {
                return Err(CapsuleError::BadProof("range hash-chain broken"));
            }
            rec.header.validate_structure()?;
            if !ct::eq(&body_digest(&rec.body), &rec.header.body_hash) {
                return Err(CapsuleError::BadProof("range body mismatch"));
            }
            expected_hash = rec.header.prev;
            expected_seq = expected_seq.wrapping_sub(1);
        }
        let mut out = self.older.clone();
        out.push(newest);
        Ok(out)
    }
}

impl Wire for RangeProof {
    fn encode(&self, enc: &mut Encoder) {
        self.newest.encode(enc);
        enc.seq(&self.older, |e, r| r.encode(e));
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let newest = MembershipProof::decode(dec)?;
        let older = dec.seq(Record::decode)?;
        Ok(RangeProof { newest, older })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::MetadataBuilder;
    use crate::record::RecordHash;
    use crate::strategy::PointerStrategy;
    use gdp_crypto::SigningKey;

    fn owner() -> SigningKey {
        SigningKey::from_seed(&[1u8; 32])
    }
    fn writer() -> SigningKey {
        SigningKey::from_seed(&[2u8; 32])
    }

    fn capsule_with(strategy: &PointerStrategy, n: u64) -> DataCapsule {
        let meta = MetadataBuilder::new()
            .writer(&writer().verifying_key())
            .set_str("description", "proof test")
            .sign(&owner());
        let mut c = DataCapsule::new(meta).unwrap();
        let mut prev = RecordHash::anchor(&c.name());
        let mut hash_by_seq: Vec<RecordHash> = vec![RecordHash::anchor(&c.name())];
        for seq in 1..=n {
            let extra = strategy
                .extra_targets(seq)
                .into_iter()
                .map(|s| Pointer { seq: s, hash: hash_by_seq[s as usize] })
                .collect();
            let r = Record::create(
                &c.name(),
                &writer(),
                seq,
                seq,
                prev,
                extra,
                format!("record {seq}").into_bytes(),
            );
            prev = r.hash();
            hash_by_seq.push(prev);
            c.ingest(r).unwrap();
        }
        c
    }

    #[test]
    fn membership_proof_chain() {
        let c = capsule_with(&PointerStrategy::Chain, 50);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let proof = MembershipProof::build(&c, &hb, 10).unwrap();
        // Chain: path is head..=target, 41 headers.
        assert_eq!(proof.hops(), 41);
        let rec = proof.verify(&c.name(), &writer().verifying_key()).unwrap();
        assert_eq!(rec.header.seq, 10);
        assert_eq!(rec.body, b"record 10");
    }

    #[test]
    fn membership_proof_skiplist_is_logarithmic() {
        let c = capsule_with(&PointerStrategy::SkipList, 512);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let proof = MembershipProof::build(&c, &hb, 1).unwrap();
        assert!(proof.hops() <= 20, "skip-list proof should be short, got {}", proof.hops());
        proof.verify(&c.name(), &writer().verifying_key()).unwrap();
    }

    #[test]
    fn proof_of_head_is_one_hop() {
        let c = capsule_with(&PointerStrategy::Chain, 5);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let proof = MembershipProof::build(&c, &hb, 5).unwrap();
        assert_eq!(proof.hops(), 1);
        proof.verify(&c.name(), &writer().verifying_key()).unwrap();
    }

    #[test]
    fn proof_rejects_tampered_body() {
        let c = capsule_with(&PointerStrategy::Chain, 5);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let mut proof = MembershipProof::build(&c, &hb, 3).unwrap();
        proof.body = b"forged".to_vec().into();
        assert!(proof.verify(&c.name(), &writer().verifying_key()).is_err());
    }

    #[test]
    fn proof_rejects_unjustified_hop() {
        let c = capsule_with(&PointerStrategy::Chain, 5);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let mut proof = MembershipProof::build(&c, &hb, 3).unwrap();
        // Remove a middle header: the hop is no longer justified.
        proof.path.remove(1);
        assert!(proof.verify(&c.name(), &writer().verifying_key()).is_err());
    }

    #[test]
    fn proof_rejects_wrong_writer() {
        let c = capsule_with(&PointerStrategy::Chain, 5);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let proof = MembershipProof::build(&c, &hb, 3).unwrap();
        let evil = SigningKey::from_seed(&[9u8; 32]);
        assert!(proof.verify(&c.name(), &evil.verifying_key()).is_err());
    }

    #[test]
    fn proof_wire_roundtrip() {
        let c = capsule_with(&PointerStrategy::SkipList, 64);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let proof = MembershipProof::build(&c, &hb, 7).unwrap();
        let rt = MembershipProof::from_wire(&proof.to_wire()).unwrap();
        assert_eq!(rt, proof);
        rt.verify(&c.name(), &writer().verifying_key()).unwrap();
    }

    #[test]
    fn range_proof_roundtrip() {
        let c = capsule_with(&PointerStrategy::Chain, 30);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let proof = RangeProof::build(&c, &hb, 10, 20).unwrap();
        let rt = RangeProof::from_wire(&proof.to_wire()).unwrap();
        let records = rt.verify(&c.name(), &writer().verifying_key()).unwrap();
        assert_eq!(records.len(), 11);
        assert_eq!(records[0].header.seq, 10);
        assert_eq!(records[10].header.seq, 20);
        assert_eq!(records[5].body, b"record 15");
    }

    #[test]
    fn range_proof_rejects_gap() {
        let c = capsule_with(&PointerStrategy::Chain, 10);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let mut proof = RangeProof::build(&c, &hb, 2, 8).unwrap();
        proof.older.remove(3);
        assert!(proof.verify(&c.name(), &writer().verifying_key()).is_err());
    }

    #[test]
    fn range_proof_rejects_reordering() {
        let c = capsule_with(&PointerStrategy::Chain, 10);
        let hb = c.head_heartbeat().unwrap().unwrap();
        let mut proof = RangeProof::build(&c, &hb, 2, 8).unwrap();
        proof.older.swap(1, 2);
        assert!(proof.verify(&c.name(), &writer().verifying_key()).is_err());
    }

    /// A writer-signed head can chain onto a record no server would ingest
    /// (extra pointers out of order): the run's one signature does not
    /// vouch for that record's structure, so the proof checks it.
    #[test]
    fn range_proof_rejects_malformed_older_header() {
        let c = capsule_with(&PointerStrategy::Chain, 3);
        let name = c.name();
        let r3 = c.get_one(3).unwrap();
        let r2 = c.get_one(2).unwrap();
        let ascending = vec![
            Pointer { seq: 1, hash: c.get_one(1).unwrap().hash() },
            Pointer { seq: 2, hash: r2.hash() },
        ];
        let bad = Record::create(&name, &writer(), 4, 4, r3.hash(), ascending, b"bad".to_vec());
        assert!(bad.header.validate_structure().is_err());
        let head = Record::create(&name, &writer(), 5, 5, bad.hash(), vec![], b"head".to_vec());
        let proof = RangeProof {
            newest: MembershipProof {
                heartbeat: Heartbeat::from_record(&name, &head),
                path: vec![head.header.clone()],
                body: head.body.clone(),
            },
            older: vec![r3.clone(), bad],
        };
        let err = proof.verify(&name, &writer().verifying_key()).unwrap_err();
        assert!(matches!(err, CapsuleError::BadRecord(_)), "{err:?}");
    }

    #[test]
    fn stale_heartbeat_still_proves_old_records() {
        // Time-shift property: a heartbeat from seq 10 proves records ≤ 10
        // even after the capsule has grown.
        let c = capsule_with(&PointerStrategy::Chain, 10);
        let hb10 = c.head_heartbeat().unwrap().unwrap();
        let c20 = capsule_with(&PointerStrategy::Chain, 20);
        let proof = MembershipProof::build(&c20, &hb10, 4).unwrap();
        let rec = proof.verify(&c20.name(), &writer().verifying_key()).unwrap();
        assert_eq!(rec.header.seq, 4);
    }
}
