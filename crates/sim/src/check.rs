//! Cluster invariant checks for seeded chaos runs.
//!
//! Called after a scenario has healed every partition, restarted every
//! crashed replica, and run long enough for anti-entropy to converge.
//! Every assertion message leads with `GDP_SIM_SEED=<n>` so a failing
//! sweep seed can be replayed exactly (see README, "Reproducing a
//! failure").

use crate::cluster::SimCluster;
use gdp_capsule::{Pointer, RecordHash};
use std::collections::BTreeMap;

/// Asserts the four chaos invariants on a recovered cluster:
///
/// 1. **Single-writer append-only consistency** — no replica holds more
///    than one record at any seq, and every held record is the one the
///    writer actually signed (no forks past the committed hash chain).
/// 2. **Acked-write durability** — every append the client saw
///    acknowledged survives on *every* replica (so it survived crashes,
///    partitions, and restarts).
/// 3. **Replica convergence** — after partitions heal, the replicas'
///    seq→hash maps are identical.
/// 4. **Read verifiability** — the client never accepted an unverifiable
///    response, and never saw a verification failure beyond the
///    honest-degradation whitelist (stale/partial state it correctly
///    rejected and retried).
pub fn check_invariants(cluster: &SimCluster) {
    let seed = cluster.seed();
    let replicas = cluster.storage_capsules();

    // 1. Fork-freedom against the writer's ground-truth chain.
    for (label, cap) in &replicas {
        for seq in 1..=cap.latest_seq() {
            let recs: Vec<&Pointer> = cap.iter_range(seq, seq).map(|(at, _)| at).collect();
            assert!(
                recs.len() <= 1,
                // gdp-lint: allow(SK01) -- GDP_SIM_SEED is the chaos-reproduction handle, deliberately printed so failures can be replayed; it is an RNG seed, not key material
                "GDP_SIM_SEED={seed}: invariant 1 (fork-freedom): replica {label} \
                 holds {} distinct records at seq {seq}",
                recs.len()
            );
            if let Some(r) = recs.first() {
                let expect = cluster.written_hash(seq).unwrap_or_else(|| {
                    panic!(
                        // gdp-lint: allow(SK01) -- GDP_SIM_SEED is the chaos-reproduction handle, deliberately printed so failures can be replayed; it is an RNG seed, not key material
                        "GDP_SIM_SEED={seed}: invariant 1: replica {label} holds seq {seq} \
                         which the writer never signed"
                    )
                });
                assert_eq!(
                    r.hash, expect,
                    // gdp-lint: allow(SK01) -- GDP_SIM_SEED is the chaos-reproduction handle, deliberately printed so failures can be replayed; it is an RNG seed, not key material
                    "GDP_SIM_SEED={seed}: invariant 1: replica {label} seq {seq} \
                     diverges from the writer chain"
                );
            }
        }
    }

    // 2. No acked write may be lost — and after convergence, every
    // replica must hold it.
    for (&seq, &hash) in cluster.acked() {
        for (label, cap) in &replicas {
            assert!(
                cap.get(&Pointer { seq, hash }).is_some(),
                // gdp-lint: allow(SK01) -- GDP_SIM_SEED is the chaos-reproduction handle, deliberately printed so failures can be replayed; it is an RNG seed, not key material
                "GDP_SIM_SEED={seed}: invariant 2 (durability): acked append seq {seq} \
                 missing from replica {label} after recovery"
            );
        }
    }

    // 3. Convergence: identical seq→hash maps across replicas.
    let views: Vec<(String, BTreeMap<u64, RecordHash>)> = replicas
        .iter()
        .map(|(label, cap)| {
            let map = cap.iter_range(0, u64::MAX).map(|(at, _)| (at.seq, at.hash)).collect();
            (label.clone(), map)
        })
        .collect();
    for pair in views.windows(2) {
        let (la, a) = &pair[0];
        let (lb, b) = &pair[1];
        assert_eq!(
            a, b,
            // gdp-lint: allow(SK01) -- GDP_SIM_SEED is the chaos-reproduction handle, deliberately printed so failures can be replayed; it is an RNG seed, not key material
            "GDP_SIM_SEED={seed}: invariant 3 (convergence): replicas {la} and {lb} \
             disagree after heal + anti-entropy"
        );
    }

    // 4. Every read the client accepted verified; nothing outside the
    // honest-degradation whitelist ever fired.
    let hard = cluster.hard_verification_failures();
    assert!(
        hard.is_empty(),
        // gdp-lint: allow(SK01) -- GDP_SIM_SEED is the chaos-reproduction handle, deliberately printed so failures can be replayed; it is an RNG seed, not key material
        "GDP_SIM_SEED={seed}: invariant 4 (verifiability): hard verification failures: {hard:?}"
    );
}
