//! Property-based tests for DataCapsule invariants.
//!
//! These exercise the CRDT claim (paper §V-A: "a DataCapsule meets the
//! definition of a Conflict-Free Replicated Data Type") and the
//! strategy-independent proof guarantee ("Regardless of the hash-pointers
//! chosen by the writer, all invariants and proofs work with a generalized
//! validation scheme").

use gdp_capsule::{
    CapsuleWriter, DataCapsule, MembershipProof, MetadataBuilder, PointerStrategy, RangeProof,
    Record,
};
use gdp_crypto::SigningKey;
use proptest::prelude::*;

fn owner() -> SigningKey {
    SigningKey::from_seed(&[1u8; 32])
}
fn writer_key() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

fn build_chain(strategy: PointerStrategy, n: u64) -> (DataCapsule, Vec<Record>) {
    let meta = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "proptest")
        .sign(&owner());
    let mut capsule = DataCapsule::new(meta.clone()).unwrap();
    let mut writer = CapsuleWriter::new(&meta, writer_key(), strategy).unwrap();
    let mut records = Vec::new();
    for i in 0..n {
        let r = writer.append(format!("body-{i}").as_bytes(), i).unwrap();
        capsule.ingest(r.clone()).unwrap();
        records.push(r);
    }
    (capsule, records)
}

fn strategy_strategy() -> impl Strategy<Value = PointerStrategy> {
    prop_oneof![
        Just(PointerStrategy::Chain),
        Just(PointerStrategy::SkipList),
        (2u64..10).prop_map(|interval| PointerStrategy::Checkpoint { interval }),
        proptest::collection::vec(2u64..8, 1..3).prop_map(|lags| PointerStrategy::Stream { lags }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ingesting any permutation of a valid chain converges to the same
    /// state: same length, same head, contiguous, no pending records.
    #[test]
    fn ingest_order_does_not_matter(
        n in 1u64..24,
        seed in any::<u64>(),
    ) {
        let (reference, records) = build_chain(PointerStrategy::Chain, n);
        // Deterministic shuffle from the seed.
        let mut order: Vec<usize> = (0..records.len()).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut shuffled = DataCapsule::new(reference.metadata().clone()).unwrap();
        for idx in order {
            shuffled.ingest(records[idx].clone()).unwrap();
        }
        prop_assert_eq!(shuffled.len(), reference.len());
        prop_assert_eq!(shuffled.pending_len(), 0);
        prop_assert_eq!(shuffled.latest_seq(), n);
        let h1 = shuffled.heads();
        let h2 = reference.heads();
        prop_assert_eq!(h1, h2);
    }

    /// A record links only once its `prev` is linked at the seq before its
    /// own, so whatever subset of a history arrives, in whatever order, a
    /// fork included, the linked seqs are exactly `1..=latest_seq`: a
    /// capsule never holds a hole below its newest linked record, only
    /// records parked above it.
    #[test]
    fn linked_seqs_are_exactly_one_to_latest_under_any_ingest_order(
        strategy in strategy_strategy(),
        n in 2u64..24,
        mask in any::<u32>(),
        fork_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let (reference, mut records) = build_chain(strategy, n);
        let name = reference.name();
        let fork_at = ((fork_frac * (n - 1) as f64) as u64).clamp(1, n - 1);
        let on = records[fork_at as usize - 1].hash();
        let fork = Record::create(&name, &writer_key(), fork_at + 1, 0, on, vec![], b"fork".to_vec());
        records.push(fork);
        records.retain(|r| mask & (1 << (r.header.seq % 32)) != 0);
        let mut state = seed;
        for i in (1..records.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            records.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut capsule = DataCapsule::new(reference.metadata().clone()).unwrap();
        for r in &records {
            capsule.ingest(r.clone()).unwrap();
            let mut linked: Vec<u64> = capsule.iter().map(|r| r.header.seq).collect();
            linked.dedup();
            prop_assert_eq!(linked, (1..=capsule.latest_seq()).collect::<Vec<u64>>());
        }
        prop_assert_eq!(capsule.len() + capsule.pending_len(), records.len());
    }

    /// CRDT laws: merge is commutative and idempotent for arbitrary
    /// record subsets.
    #[test]
    fn merge_laws(
        n in 2u64..20,
        mask_a in any::<u32>(),
        mask_b in any::<u32>(),
    ) {
        let (_, records) = build_chain(PointerStrategy::Chain, n);
        let meta = MetadataBuilder::new()
            .writer(&writer_key().verifying_key())
            .set_str("description", "proptest")
            .sign(&owner());
        let subset = |mask: u32| {
            let mut c = DataCapsule::new(meta.clone()).unwrap();
            for (i, r) in records.iter().enumerate() {
                if mask & (1 << (i % 32)) != 0 {
                    c.ingest(r.clone()).unwrap();
                }
            }
            c
        };
        let a = subset(mask_a);
        let b = subset(mask_b);
        // Commutative.
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(ab.len(), ba.len());
        prop_assert_eq!(ab.pending_len(), ba.pending_len());
        // Idempotent.
        let mut aa = a.clone();
        let added = aa.merge(&a).unwrap();
        prop_assert_eq!(added, 0);
        prop_assert_eq!(aa.len(), a.len());
    }

    /// Membership proofs built under any pointer strategy verify, and prove
    /// the right record.
    #[test]
    fn proofs_verify_under_any_strategy(
        strategy in strategy_strategy(),
        n in 1u64..40,
        target_frac in 0.0f64..1.0,
    ) {
        let (capsule, _) = build_chain(strategy, n);
        let target = ((target_frac * (n - 1) as f64) as u64) + 1;
        let hb = capsule.head_heartbeat().unwrap().unwrap();
        let proof = MembershipProof::build(&capsule, &hb, target).unwrap();
        let rec = proof.verify(&capsule.name(), &writer_key().verifying_key()).unwrap();
        prop_assert_eq!(rec.header.seq, target);
        prop_assert_eq!(rec.body, format!("body-{}", target - 1).into_bytes());
    }

    /// Range proofs verify and return the full run in order.
    #[test]
    fn range_proofs_verify(
        strategy in strategy_strategy(),
        n in 2u64..30,
        a_frac in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
    ) {
        let (capsule, _) = build_chain(strategy, n);
        let x = ((a_frac * (n - 1) as f64) as u64) + 1;
        let y = ((b_frac * (n - 1) as f64) as u64) + 1;
        let (from, to) = (x.min(y), x.max(y));
        let hb = capsule.head_heartbeat().unwrap().unwrap();
        let proof = RangeProof::build(&capsule, &hb, from, to).unwrap();
        let records = proof.verify(&capsule.name(), &writer_key().verifying_key()).unwrap();
        prop_assert_eq!(records.len() as u64, to - from + 1);
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.header.seq, from + i as u64);
        }
    }

    /// A corrupted proof byte is either a decode error or a verification
    /// failure — never a silently accepted forgery.
    #[test]
    fn corrupted_proofs_never_verify_wrong(
        n in 2u64..16,
        flip_byte in any::<u8>(),
        pos_frac in 0.0f64..1.0,
    ) {
        use gdp_wire::Wire;
        let (capsule, _) = build_chain(PointerStrategy::Chain, n);
        let hb = capsule.head_heartbeat().unwrap().unwrap();
        let proof = MembershipProof::build(&capsule, &hb, 1).unwrap();
        let mut bytes = proof.to_wire();
        let pos = ((pos_frac * (bytes.len() - 1) as f64) as usize).min(bytes.len() - 1);
        if flip_byte == 0 {
            return Ok(()); // no-op flip
        }
        bytes[pos] ^= flip_byte;
        match MembershipProof::from_wire(&bytes) {
            Err(_) => {} // decode caught it
            Ok(p) => {
                match p.verify(&capsule.name(), &writer_key().verifying_key()) {
                    Err(_) => {} // verification caught it
                    Ok(rec) => {
                        // Only acceptable if the flip landed somewhere
                        // irrelevant — the proven record must still be the
                        // genuine one.
                        let genuine = capsule.get_one(1).unwrap();
                        prop_assert_eq!(rec.header.hash(), genuine.hash());
                        prop_assert_eq!(rec.body, genuine.body.clone());
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// QSW forking: random fork points produce a DAG that (a) converges to
    /// identical heads on every replica regardless of delivery order, and
    /// (b) reports exactly the expected branch structure.
    #[test]
    fn qsw_forks_converge(
        n in 3u64..12,
        fork_at_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use gdp_capsule::WriterMode;
        let meta = MetadataBuilder::new()
            .writer(&writer_key().verifying_key())
            .set_str("description", "proptest")
            .sign(&owner());
        let mut main_writer =
            CapsuleWriter::new(&meta, writer_key(), PointerStrategy::Chain).unwrap();
        let mut records = Vec::new();
        for i in 0..n {
            records.push(main_writer.append(format!("main-{i}").as_bytes(), i).unwrap());
        }
        // Fork from a random point with a QSW writer.
        let fork_at = ((fork_at_frac * (n - 1) as f64) as usize).min(records.len() - 1);
        let mut qsw = CapsuleWriter::new(&meta, writer_key(), PointerStrategy::Chain)
            .unwrap()
            .with_mode(WriterMode::Quasi);
        qsw.resume_possibly_stale(&records[fork_at]).unwrap();
        let fork_record = qsw.append(b"forked", 999).unwrap();
        records.push(fork_record.clone());

        // Deliver in two different shuffled orders to two replicas.
        let mut order: Vec<usize> = (0..records.len()).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut r1 = DataCapsule::new(meta.clone()).unwrap();
        let mut r2 = DataCapsule::new(meta.clone()).unwrap();
        for &i in &order {
            r1.ingest(records[i].clone()).unwrap();
        }
        for &i in order.iter().rev() {
            r2.ingest(records[i].clone()).unwrap();
        }
        let h1 = r1.heads();
        let h2 = r2.heads();
        prop_assert_eq!(&h1, &h2, "replicas must converge");
        // Fork from the true head produces 1 head (extends the chain at a
        // dup seq only if fork_at < n-1); otherwise 2 heads.
        let expected_heads = if fork_at == records.len() - 2 { 1 } else { 2 };
        prop_assert_eq!(h1.len(), expected_heads, "fork_at {}", fork_at);
        // The fork record sits at seq fork_at + 2 alongside the main one.
        if expected_heads == 2 {
            prop_assert_eq!(r1.get_by_seq(fork_at as u64 + 2).len(), 2);
        }
    }
}
