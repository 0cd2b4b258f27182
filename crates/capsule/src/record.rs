//! Records: the immutable, hash-linked units of a DataCapsule.
//!
//! Paper §V: "Internally, a DataCapsule is an ordered collection of variable
//! sized immutable records linked together with hash-pointers. ... Each
//! update is associated with a signed 'heartbeat' generated by the writer;
//! such signature is over the most-recent record using a key known only to
//! the writer."
//!
//! A record's hash covers its *header* (seq, timestamp, pointers, body hash),
//! so integrity proofs can ship constant-size headers while bodies travel —
//! and are verified — separately.

use crate::error::CapsuleError;
use gdp_crypto::{ct, sha256, Signature, SigningKey, VerifyingKey};
use gdp_wire::{Bytes, DecodeError, Decoder, Encoder, Name, Wire};

/// Domain-separation tag for record-header hashes.
pub const RECORD_TAG: &str = "gdp/record-header/v1";
/// Domain-separation tag for writer heartbeat signatures.
pub const HEARTBEAT_TAG: &str = "gdp/heartbeat/v1";

/// Digest binding a record's body to its header (`RecordHeader::body_hash`):
/// BLAKE2b-256. Every served body byte is hashed with it once on the read
/// path, so it is the faster function; the header hash a pointer holds
/// stays SHA-256 ([`RecordHeader::hash`]).
pub fn body_digest(body: &[u8]) -> [u8; 32] {
    gdp_crypto::blake2b256(body)
}

/// The SHA-256 hash of a record header — a hash-pointer target.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordHash(pub [u8; 32]);

impl RecordHash {
    /// The hash-pointer target used by the first record: the capsule name
    /// itself, anchoring the chain in the metadata.
    pub fn anchor(capsule: &Name) -> RecordHash {
        RecordHash(capsule.0)
    }

    /// Hex prefix for logs.
    pub fn short(&self) -> String {
        gdp_crypto::hex::encode(&self.0[..4])
    }
}

impl std::fmt::Debug for RecordHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecordHash({})", self.short())
    }
}

impl std::fmt::Display for RecordHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short())
    }
}

/// A hash-pointer to a record: its seq and header hash. A header carries
/// extra ones to older records beside its implicit previous-record
/// pointer, and every record index is keyed by one — the record's address.
/// Ordered by seq first, so an ordered map keyed by pointers is also a
/// seq index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pointer {
    /// Sequence number of the referenced record.
    pub seq: u64,
    /// Header hash of the referenced record.
    pub hash: RecordHash,
}

impl Pointer {
    /// Every pointer with a seq in `from..=to`, as a range of an ordered
    /// map keyed by pointers. Like any inclusive range, it must not be
    /// inverted.
    pub fn span(from: u64, to: u64) -> std::ops::RangeInclusive<Pointer> {
        let first = Pointer { seq: from, hash: RecordHash([0; 32]) };
        let last = Pointer { seq: to, hash: RecordHash([0xFF; 32]) };
        first..=last
    }
}

/// The hashed portion of a record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordHeader {
    /// Position in the single-writer order. Record 1 follows the metadata.
    pub seq: u64,
    /// Writer-supplied timestamp, microseconds since the epoch.
    pub timestamp_micros: u64,
    /// Hash of the previous record's header (or the anchor for seq 1).
    pub prev: RecordHash,
    /// Additional hash-pointers chosen by the writer's strategy
    /// (paper §V: "a variable number of additional hash-pointers to past
    /// records for efficiency and fault-tolerance").
    pub extra: Vec<Pointer>,
    /// [`body_digest`] of the (possibly encrypted) body bytes.
    pub body_hash: [u8; 32],
    /// Body length in bytes.
    pub body_len: u32,
}

impl RecordHeader {
    /// Computes the record hash: SHA-256 over the tagged canonical encoding.
    pub fn hash(&self) -> RecordHash {
        let mut enc = Encoder::new();
        enc.string(RECORD_TAG);
        self.encode(&mut enc);
        RecordHash(sha256(&enc.finish()))
    }

    /// All hash-pointers (implicit prev first, then extras).
    pub fn all_pointers(&self) -> impl Iterator<Item = Pointer> + '_ {
        let prev = Pointer { seq: self.seq.saturating_sub(1), hash: self.prev };
        std::iter::once(prev).chain(self.extra.iter().copied())
    }

    /// An upper bound on the header's [`Wire`] encoding: two varints, prev,
    /// the pointer count, body hash and length stay under 98 bytes; each
    /// extra pointer is a varint and a hash.
    pub fn wire_bound(&self) -> u64 {
        98 + 42 * self.extra.len() as u64
    }

    /// Structural sanity: extras strictly descending and older than `seq`.
    pub fn validate_structure(&self) -> Result<(), CapsuleError> {
        if self.seq == 0 {
            return Err(CapsuleError::BadRecord("seq 0 is reserved for metadata"));
        }
        let mut bound = self.seq;
        for p in &self.extra {
            if p.seq >= bound {
                return Err(CapsuleError::BadRecord(
                    "extra pointers must be strictly descending and older than the record",
                ));
            }
            bound = p.seq;
        }
        Ok(())
    }
}

impl Wire for RecordHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.varint(self.seq);
        enc.varint(self.timestamp_micros);
        enc.raw(&self.prev.0);
        enc.seq(&self.extra, |e, p| {
            e.varint(p.seq);
            e.raw(&p.hash.0);
        });
        enc.raw(&self.body_hash);
        enc.u32(self.body_len);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let seq = dec.varint()?;
        let timestamp_micros = dec.varint()?;
        let prev = RecordHash(dec.array::<32>()?);
        let extra = dec.seq(|d| {
            let seq = d.varint()?;
            let hash = RecordHash(d.array::<32>()?);
            Ok(Pointer { seq, hash })
        })?;
        let body_hash = dec.array::<32>()?;
        let body_len = dec.u32()?;
        Ok(RecordHeader { seq, timestamp_micros, prev, extra, body_hash, body_len })
    }
}

/// A complete record: header, body, and the writer's heartbeat signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The hashed header.
    pub header: RecordHeader,
    /// The body bytes (ciphertext when the capsule is encrypted).
    /// Refcounted: cloning a record — or decoding one with
    /// [`Record::from_wire_bytes`] — shares the underlying buffer instead
    /// of copying it, so the storage read path can serve bodies as
    /// zero-copy slices of cached blocks.
    pub body: Bytes,
    /// Writer signature over `(HEARTBEAT_TAG, capsule, seq, header hash)` —
    /// the per-append heartbeat attesting the entire history up to here.
    pub signature: Signature,
}

fn heartbeat_message(capsule: &Name, seq: u64, hash: &RecordHash) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.string(HEARTBEAT_TAG);
    enc.name(capsule);
    enc.varint(seq);
    enc.raw(&hash.0);
    enc.finish()
}

impl Record {
    /// Builds and signs a record.
    pub fn create(
        capsule: &Name,
        writer: &SigningKey,
        seq: u64,
        timestamp_micros: u64,
        prev: RecordHash,
        extra: Vec<Pointer>,
        body: impl Into<Bytes>,
    ) -> Record {
        let body = body.into();
        let header = RecordHeader {
            seq,
            timestamp_micros,
            prev,
            extra,
            body_hash: body_digest(&body),
            body_len: body.len() as u32,
        };
        let hash = header.hash();
        let signature = writer.sign(&heartbeat_message(capsule, seq, &hash));
        Record { header, body, signature }
    }

    /// The record's hash (header hash).
    pub fn hash(&self) -> RecordHash {
        self.header.hash()
    }

    /// The record's address: what a hash-pointer to it holds.
    pub fn pointer(&self) -> Pointer {
        Pointer { seq: self.header.seq, hash: self.hash() }
    }

    /// An upper bound on the record's [`Wire`] encoding, from its header
    /// alone: the body's length prefix and the signature stay under 94
    /// bytes beside the header and the body.
    pub fn wire_bound(&self) -> u64 {
        self.header.wire_bound() + 94 + u64::from(self.header.body_len)
    }

    /// Verifies body integrity, structure, and the writer's signature for
    /// the given capsule. This is what a DataCapsule-server runs on every
    /// append: "write access control ... can be verified by
    /// DataCapsule-servers or anyone else" (paper §V).
    pub fn verify(&self, capsule: &Name, writer: &VerifyingKey) -> Result<(), CapsuleError> {
        self.verify_hashed(capsule, writer, &self.hash())
    }

    /// [`Record::verify`] for a caller that already computed `self.hash()`.
    pub(crate) fn verify_hashed(
        &self,
        capsule: &Name,
        writer: &VerifyingKey,
        hash: &RecordHash,
    ) -> Result<(), CapsuleError> {
        self.header.validate_structure()?;
        if !ct::eq(&body_digest(&self.body), &self.header.body_hash) {
            return Err(CapsuleError::BadRecord("body hash mismatch"));
        }
        if self.body.len() as u32 != self.header.body_len {
            return Err(CapsuleError::BadRecord("body length mismatch"));
        }
        let msg = heartbeat_message(capsule, self.header.seq, hash);
        if !writer.verify(&msg, &self.signature) {
            return Err(CapsuleError::BadSignature("record heartbeat"));
        }
        Ok(())
    }

    /// Decodes a record from a shared buffer *without copying the body*:
    /// the returned record's `body` is a refcounted slice of `bytes`.
    /// This is how the segmented store's block cache serves range reads
    /// with zero per-record allocation for the payload.
    pub fn from_wire_bytes(bytes: &Bytes) -> Result<Record, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let header = RecordHeader::decode(&mut dec)?;
        let raw = dec.bytes()?;
        let end = dec.position();
        let body = bytes.slice(end - raw.len(), end);
        let signature = Signature(dec.array::<64>()?);
        dec.expect_end()?;
        Ok(Record { header, body, signature })
    }
}

impl Wire for Record {
    fn encode(&self, enc: &mut Encoder) {
        self.header.encode(enc);
        enc.bytes(&self.body);
        enc.raw(&self.signature.to_bytes());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let header = RecordHeader::decode(dec)?;
        let body = Bytes::copy_from_slice(dec.bytes()?);
        let signature = Signature(dec.array::<64>()?);
        Ok(Record { header, body, signature })
    }
}

/// A standalone signed heartbeat: attests the capsule's newest state without
/// carrying data. Served to readers that ask "what is the latest?" and used
/// to anchor integrity proofs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// The capsule this heartbeat describes.
    pub capsule: Name,
    /// Sequence number of the newest record.
    pub seq: u64,
    /// Header hash of the newest record.
    pub head: RecordHash,
    /// Writer signature (same message format as per-record heartbeats).
    pub signature: Signature,
}

impl Heartbeat {
    /// Signs a heartbeat for the record identified by `(seq, head)`.
    pub fn sign(capsule: &Name, writer: &SigningKey, seq: u64, head: RecordHash) -> Heartbeat {
        let signature = writer.sign(&heartbeat_message(capsule, seq, &head));
        Heartbeat { capsule: *capsule, seq, head, signature }
    }

    /// Extracts the heartbeat carried by a record.
    pub fn from_record(capsule: &Name, record: &Record) -> Heartbeat {
        Heartbeat::from_header(capsule, &record.header, record.signature)
    }

    /// The heartbeat a record carries, from its header and signature alone.
    pub fn from_header(capsule: &Name, header: &RecordHeader, signature: Signature) -> Heartbeat {
        Heartbeat { capsule: *capsule, seq: header.seq, head: header.hash(), signature }
    }

    /// Verifies the writer's signature.
    pub fn verify(&self, writer: &VerifyingKey) -> Result<(), CapsuleError> {
        let msg = heartbeat_message(&self.capsule, self.seq, &self.head);
        if writer.verify(&msg, &self.signature) {
            Ok(())
        } else {
            Err(CapsuleError::BadSignature("heartbeat"))
        }
    }
}

impl Wire for Heartbeat {
    fn encode(&self, enc: &mut Encoder) {
        enc.name(&self.capsule);
        enc.varint(self.seq);
        enc.raw(&self.head.0);
        enc.raw(&self.signature.to_bytes());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let capsule = dec.name()?;
        let seq = dec.varint()?;
        let head = RecordHash(dec.array::<32>()?);
        let signature = Signature(dec.array::<64>()?);
        Ok(Heartbeat { capsule, seq, head, signature })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writer() -> SigningKey {
        SigningKey::from_seed(&[3u8; 32])
    }
    fn capsule() -> Name {
        Name::from_content(b"capsule")
    }

    fn record(seq: u64, prev: RecordHash, body: &[u8]) -> Record {
        Record::create(&capsule(), &writer(), seq, 1000 + seq, prev, vec![], body.to_vec())
    }

    #[test]
    fn create_and_verify() {
        let r = record(1, RecordHash::anchor(&capsule()), b"hello");
        r.verify(&capsule(), &writer().verifying_key()).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_capsule() {
        let r = record(1, RecordHash::anchor(&capsule()), b"hello");
        let other = Name::from_content(b"other");
        assert!(r.verify(&other, &writer().verifying_key()).is_err());
    }

    #[test]
    fn verify_rejects_wrong_writer() {
        let r = record(1, RecordHash::anchor(&capsule()), b"hello");
        let other = SigningKey::from_seed(&[9u8; 32]);
        assert!(r.verify(&capsule(), &other.verifying_key()).is_err());
    }

    #[test]
    fn verify_rejects_tampered_body() {
        let mut r = record(1, RecordHash::anchor(&capsule()), b"hello");
        let mut tampered = r.body.to_vec();
        tampered[0] ^= 1;
        r.body = tampered.into();
        assert!(matches!(
            r.verify(&capsule(), &writer().verifying_key()),
            Err(CapsuleError::BadRecord(_))
        ));
    }

    #[test]
    fn hash_changes_with_any_field() {
        let base = record(1, RecordHash::anchor(&capsule()), b"x");
        let h = base.hash();
        let different_body = record(1, RecordHash::anchor(&capsule()), b"y");
        assert_ne!(h, different_body.hash());
        let different_seq = record(2, RecordHash::anchor(&capsule()), b"x");
        assert_ne!(h, different_seq.hash());
    }

    #[test]
    fn extra_pointer_order_enforced() {
        let anchor = RecordHash::anchor(&capsule());
        let r1 = record(1, anchor, b"a");
        let r2 = record(2, r1.hash(), b"b");
        // Valid: pointer to seq 1 from seq 3.
        let good = Record::create(
            &capsule(),
            &writer(),
            3,
            0,
            r2.hash(),
            vec![Pointer { seq: 1, hash: r1.hash() }],
            b"c".to_vec(),
        );
        good.verify(&capsule(), &writer().verifying_key()).unwrap();
        // Invalid: pointer to its own seq.
        let bad = Record::create(
            &capsule(),
            &writer(),
            3,
            0,
            r2.hash(),
            vec![Pointer { seq: 3, hash: r1.hash() }],
            b"c".to_vec(),
        );
        assert!(bad.verify(&capsule(), &writer().verifying_key()).is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let anchor = RecordHash::anchor(&capsule());
        let r1 = record(1, anchor, b"a");
        let r = Record::create(
            &capsule(),
            &writer(),
            2,
            7,
            r1.hash(),
            vec![Pointer { seq: 1, hash: r1.hash() }],
            b"body".to_vec(),
        );
        let rt = Record::from_wire(&r.to_wire()).unwrap();
        assert_eq!(rt, r);
        rt.verify(&capsule(), &writer().verifying_key()).unwrap();
    }

    #[test]
    fn wire_bound_bounds_the_record_encoding() {
        let anchor = RecordHash::anchor(&capsule());
        let far = Pointer { seq: u64::MAX - 1, hash: anchor };
        let extra: Vec<Pointer> =
            (0..40).map(|i| Pointer { seq: far.seq - i, hash: anchor }).collect();
        for (extra, body) in [(vec![], vec![]), (extra, vec![7u8; 70_000])] {
            let r = Record::create(&capsule(), &writer(), u64::MAX, u64::MAX, anchor, extra, body);
            let encoded = r.to_wire().len() as u64;
            let bound = r.wire_bound();
            assert!(encoded <= bound && bound <= encoded + 192, "{encoded} vs {bound}");
        }
    }

    #[test]
    fn from_wire_bytes_borrows_the_body() {
        let r = record(1, RecordHash::anchor(&capsule()), b"shared body");
        let buf = Bytes::from_vec(r.to_wire());
        let rt = Record::from_wire_bytes(&buf).unwrap();
        assert_eq!(rt, r);
        assert!(rt.body.ref_count() > 1, "body must borrow from the shared buffer, not copy");
        rt.verify(&capsule(), &writer().verifying_key()).unwrap();
        // Trailing garbage still fails, exactly like `from_wire`.
        let mut bad = buf.to_vec();
        bad.push(0);
        assert!(Record::from_wire_bytes(&Bytes::from_vec(bad)).is_err());
    }

    #[test]
    fn heartbeat_roundtrip_and_verify() {
        let r = record(1, RecordHash::anchor(&capsule()), b"data");
        let hb = Heartbeat::from_record(&capsule(), &r);
        hb.verify(&writer().verifying_key()).unwrap();
        let rt = Heartbeat::from_wire(&hb.to_wire()).unwrap();
        assert_eq!(rt, hb);
        // Standalone signing produces the same signature message.
        let hb2 = Heartbeat::sign(&capsule(), &writer(), r.header.seq, r.hash());
        hb2.verify(&writer().verifying_key()).unwrap();
        assert_eq!(hb2.signature, hb.signature); // Ed25519 is deterministic
    }

    #[test]
    fn heartbeat_tamper_rejected() {
        let r = record(1, RecordHash::anchor(&capsule()), b"data");
        let mut hb = Heartbeat::from_record(&capsule(), &r);
        hb.seq = 2;
        assert!(hb.verify(&writer().verifying_key()).is_err());
    }

    #[test]
    fn seq_zero_rejected() {
        let r = Record::create(
            &capsule(),
            &writer(),
            0,
            0,
            RecordHash::anchor(&capsule()),
            vec![],
            b"".to_vec(),
        );
        assert!(r.verify(&capsule(), &writer().verifying_key()).is_err());
    }
}
