//! The body digest is BLAKE2b-256, and only that: a record whose header
//! commits to SHA-256(body) — the digest before the change — is refused by
//! every check that binds a body to its header, with the typed error each
//! check already had, even under a valid writer signature.

use gdp_capsule::{
    body_digest, CapsuleError, Heartbeat, MembershipProof, RangeProof, Record, RecordHash,
};
use gdp_crypto::{blake2b256, sha256, SigningKey};
use gdp_wire::Name;

fn writer() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

fn capsule() -> Name {
    Name::from_content(b"body digest test capsule")
}

/// A correctly signed record at `seq` after `prev` whose header commits to
/// SHA-256 of its body.
fn sha256_record(seq: u64, prev: RecordHash, body: &[u8]) -> Record {
    let mut record = Record::create(&capsule(), &writer(), seq, seq, prev, vec![], body.to_vec());
    record.header.body_hash = sha256(body);
    record.signature = Heartbeat::sign(&capsule(), &writer(), seq, record.hash()).signature;
    record
}

#[test]
fn a_new_record_commits_to_blake2b_256_of_its_body() {
    let body = b"one body digest".to_vec();
    let record = Record::create(
        &capsule(),
        &writer(),
        1,
        1,
        RecordHash::anchor(&capsule()),
        vec![],
        body.clone(),
    );
    assert_eq!(record.header.body_hash, blake2b256(&body));
    assert_eq!(body_digest(&body), blake2b256(&body));
    assert_ne!(record.header.body_hash, sha256(&body));
    record.verify(&capsule(), &writer().verifying_key()).unwrap();
}

#[test]
fn record_verify_refuses_a_sha256_body_hash() {
    let record = sha256_record(1, RecordHash::anchor(&capsule()), b"pre-change");
    assert_eq!(
        record.verify(&capsule(), &writer().verifying_key()),
        Err(CapsuleError::BadRecord("body hash mismatch"))
    );
}

#[test]
fn membership_proof_refuses_a_sha256_body_hash() {
    let record = sha256_record(1, RecordHash::anchor(&capsule()), b"pre-change");
    let proof = MembershipProof {
        heartbeat: Heartbeat::from_record(&capsule(), &record),
        path: vec![record.header.clone()],
        body: record.body.clone(),
    };
    // The heartbeat and the path are sound; only the body binding fails.
    proof.heartbeat.verify(&writer().verifying_key()).unwrap();
    assert_eq!(
        proof.verify(&capsule(), &writer().verifying_key()),
        Err(CapsuleError::BadProof("body does not match proven header"))
    );
}

#[test]
fn range_proof_refuses_a_sha256_body_hash_in_the_run() {
    let r1 = sha256_record(1, RecordHash::anchor(&capsule()), b"older, pre-change");
    let newest = Record::create(&capsule(), &writer(), 2, 2, r1.hash(), vec![], b"newest".to_vec());
    let proof = RangeProof {
        newest: MembershipProof {
            heartbeat: Heartbeat::from_record(&capsule(), &newest),
            path: vec![newest.header.clone()],
            body: newest.body.clone(),
        },
        older: vec![r1],
    };
    assert_eq!(
        proof.verify(&capsule(), &writer().verifying_key()),
        Err(CapsuleError::BadProof("range body mismatch"))
    );
}
