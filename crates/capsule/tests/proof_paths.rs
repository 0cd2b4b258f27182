//! Proof paths: the greedy descent `MembershipProof::path` takes against
//! the breadth-first search it replaced, kept here verbatim as the oracle.
//! BFS over every pointer with `seq ≥ target` finds a shortest path; the
//! descent takes, from each header, the farthest pointer that does not
//! overshoot. For every pointer strategy a writer can use — and for a
//! writer resumed from a head, whose next records carry fewer pointers
//! than the strategy would — the greedy path to every target must verify
//! and be as long as the oracle's (for `Stream` lags that are a divisor
//! chain; see [`descent_is_shortest`] for the others).

use gdp_capsule::{
    CapsuleError, CapsuleWriter, DataCapsule, Heartbeat, MembershipProof, MetadataBuilder, Pointer,
    PointerStrategy, RecordHeader,
};
use gdp_crypto::SigningKey;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

fn owner() -> SigningKey {
    SigningKey::from_seed(&[1u8; 32])
}
fn writer_key() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

/// The oracle: the BFS path builder, as `MembershipProof::path` had it.
fn bfs_path(
    capsule: &DataCapsule,
    heartbeat: &Heartbeat,
    target_seq: u64,
) -> Result<(Pointer, Vec<RecordHeader>), CapsuleError> {
    let head_hash = Pointer { seq: heartbeat.seq, hash: heartbeat.head };
    let head = capsule.get(&head_hash).ok_or(CapsuleError::MissingRecord(head_hash.hash))?;
    if target_seq > head.header.seq || target_seq == 0 {
        return Err(CapsuleError::MissingSeq(target_seq));
    }
    // BFS from head following pointers with seq >= target.
    let mut parent: HashMap<Pointer, Pointer> = HashMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(head_hash);
    let mut found: Option<Pointer> = None;
    while let Some(cur) = queue.pop_front() {
        let header = &capsule.get(&cur).ok_or(CapsuleError::MissingRecord(cur.hash))?.header;
        if header.seq == target_seq {
            found = Some(cur);
            break;
        }
        for p in header.all_pointers() {
            if p.seq >= target_seq && p.seq >= 1 && !parent.contains_key(&p) {
                parent.insert(p, cur);
                queue.push_back(p);
            }
        }
    }
    let target = found.ok_or(CapsuleError::MissingSeq(target_seq))?;
    // Reconstruct path target → head, then reverse.
    let mut hashes = vec![target];
    let mut cur = target;
    while cur != head_hash {
        cur = parent[&cur];
        hashes.push(cur);
    }
    hashes.reverse();
    let path: Vec<RecordHeader> = hashes
        .iter()
        .map(|h| capsule.get(h).map(|r| r.header.clone()))
        .collect::<Option<Vec<_>>>()
        .ok_or(CapsuleError::BadProof("record vanished during build"))?;
    Ok((target, path))
}

/// `n` records under `strategy`; from record `resume_after` on (if any)
/// they come from a second writer resumed from the head the first left.
fn build(strategy: &PointerStrategy, n: u64, resume_after: Option<u64>) -> DataCapsule {
    let meta = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "proof paths")
        .sign(&owner());
    let mut capsule = DataCapsule::new(meta.clone()).unwrap();
    let fresh = || CapsuleWriter::new(&meta, writer_key(), strategy.clone()).unwrap();
    let mut writer = fresh();
    for i in 0..n {
        if resume_after == Some(i) && i > 0 {
            let head = capsule.single_head().unwrap().unwrap().clone();
            writer = fresh();
            writer.resume_from_head(&head).unwrap();
        }
        capsule.ingest(writer.append(format!("body-{i}").as_bytes(), i).unwrap()).unwrap();
    }
    capsule
}

/// True when the descent is a shortest path by construction: the jumps a
/// strategy offers form a canonical coin system. Every strategy does but a
/// `Stream` whose lags (with the implicit 1) are not a divisor chain —
/// lags [4, 6] reach 8 back in two hops, 4 + 4, where the descent takes
/// 6 + 1 + 1. Such a path is longer, never wrong.
fn descent_is_shortest(strategy: &PointerStrategy) -> bool {
    let PointerStrategy::Stream { lags } = strategy else { return true };
    let mut chain: Vec<u64> = lags.clone();
    chain.push(1);
    chain.sort_unstable();
    chain.dedup();
    chain.windows(2).all(|w| w[1] % w[0] == 0)
}

/// The greedy descent over `capsule`'s records, as a store-backed chain
/// walks it, with the target's address.
fn descend(
    capsule: &DataCapsule,
    hb: &Heartbeat,
    target: u64,
) -> Result<(Pointer, MembershipProof), CapsuleError> {
    let read = |at: &Pointer| capsule.get(at).cloned().ok_or(CapsuleError::MissingRecord(at.hash));
    let proof = MembershipProof::path(capsule, hb, target, u64::MAX, read)?;
    let last = proof.path.last().ok_or(CapsuleError::BadProof("empty path"))?;
    Ok((Pointer { seq: last.seq, hash: last.hash() }, proof))
}

/// Every target of `capsule`: the greedy path ends at the target, its
/// proof verifies to the target's record, and — where the strategy makes
/// the descent a shortest path — it is as short as the oracle's.
fn check_every_target(
    capsule: &DataCapsule,
    strategy: &PointerStrategy,
    label: &str,
) -> Result<(), TestCaseError> {
    let hb = capsule.head_heartbeat().unwrap().unwrap();
    let key = writer_key().verifying_key();
    for target in 1..=hb.seq {
        let (hash, greedy) = descend(capsule, &hb, target).unwrap();
        let path = &greedy.path;
        let (oracle_hash, oracle) = bfs_path(capsule, &hb, target).unwrap();
        prop_assert_eq!(hash, oracle_hash, "{} target {}", label, target);
        prop_assert!(
            path.len() >= oracle.len(),
            "{} target {}: BFS is not shortest",
            label,
            target
        );
        if descent_is_shortest(strategy) {
            let hops = (path.len(), oracle.len());
            prop_assert_eq!(hops.0, hops.1, "{} target {}: greedy vs BFS hops", label, target);
        }
        let proof = MembershipProof::build(capsule, &hb, target).unwrap();
        prop_assert_eq!(&proof, &greedy);
        let record = proof.verify(&capsule.name(), &key).unwrap();
        prop_assert_eq!(record.header.seq, target);
        prop_assert_eq!(record.body, format!("body-{}", target - 1).into_bytes());
    }
    for beyond in [0, hb.seq + 1] {
        let greedy = descend(capsule, &hb, beyond).map(|(h, _)| h);
        prop_assert_eq!(greedy.ok(), bfs_path(capsule, &hb, beyond).map(|(h, _)| h).ok());
    }
    Ok(())
}

fn strategy_strategy() -> impl Strategy<Value = PointerStrategy> {
    prop_oneof![
        Just(PointerStrategy::Chain),
        Just(PointerStrategy::SkipList),
        (2u64..12).prop_map(|interval| PointerStrategy::Checkpoint { interval }),
        proptest::collection::vec(2u64..8, 1..3).prop_map(|lags| PointerStrategy::Stream { lags }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any strategy, any length, resumed mid-way or not: on every target
    /// the greedy path verifies and is as short as BFS's.
    #[test]
    fn greedy_paths_are_as_short_as_bfs_and_verify(
        strategy in strategy_strategy(),
        n in 1u64..120,
        resume in any::<bool>(),
        resume_frac in 0.0f64..1.0,
    ) {
        let resume_after = resume.then_some((resume_frac * n as f64) as u64);
        let capsule = build(&strategy, n, resume_after);
        let label = format!("{strategy:?} n={n} resume={resume_after:?}");
        check_every_target(&capsule, &strategy, &label)?;
    }
}

/// The same property at a length where skip-list proofs take many hops:
/// every target of a few hundred records per strategy.
#[test]
fn greedy_matches_bfs_on_every_target_of_long_capsules() {
    let cases = [
        (PointerStrategy::Chain, None),
        (PointerStrategy::SkipList, None),
        (PointerStrategy::SkipList, Some(333)),
        (PointerStrategy::Checkpoint { interval: 16 }, None),
        (PointerStrategy::Stream { lags: vec![2, 4] }, Some(100)),
    ];
    for (strategy, resume_after) in cases {
        let capsule = build(&strategy, 600, resume_after);
        check_every_target(&capsule, &strategy, &format!("{strategy:?} resume={resume_after:?}"))
            .unwrap();
    }
}
