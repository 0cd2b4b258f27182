//! The ack ledger: the one rule deciding "may this ack leave?".
//!
//! Durability is the writer's policy enforced over untrusted replicas
//! (paper §IV-B, §VI-B): an `AppendAck` vouches for the local copy *and*
//! for as many distinct replicas as the writer's `AckMode` asked for, and
//! a `ReplicateAck` vouches for this replica's copy. Both kinds of ack
//! are parked here until that is true, and fail at a deadline if it never
//! becomes true. The ledger does no I/O and knows no store: the server
//! feeds it four inputs ([`AckLedger::park`], [`AckLedger::replica_ack`],
//! [`AckLedger::durable`], [`AckLedger::expire`]) and turns the
//! [`Step`]s it returns into PDUs and counters (DESIGN.md, "Ack ledger").
//! Every hosted capsule lives in the node's one log under one group
//! commit, so durability is one node-wide epoch: the ledger keeps that
//! epoch and one list of parked acks, in arrival order.

// A discarded `Result` in the ack path is a discarded durability answer.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

use gdp_capsule::RecordHash;
use gdp_wire::Name;

/// Where a parked ack goes once released.
#[derive(Clone, Copy)]
pub(crate) enum AckTo {
    /// An `AppendAck` answering the client's request `request_seq`.
    Client { client: Name, request_seq: u64 },
    /// A `ReplicateAck` to the upstream server that forwarded the record.
    Upstream { peer: Name },
}

/// One ack waiting for its release condition:
/// `needed == 0 ∧ epoch ≤ the node's durable epoch`.
#[derive(Clone)]
pub(crate) struct Parked {
    pub(crate) capsule: Name,
    pub(crate) hash: RecordHash,
    pub(crate) record_seq: u64,
    pub(crate) to: AckTo,
    /// Copies vouched for: the parking server's own (so it starts at 1)
    /// plus one per counted replica ack.
    pub(crate) replicas: u32,
    /// Distinct replica acks still required; [`AckLedger::park`] clamps it
    /// to `unacked.len()`, so `All` is `u32::MAX`.
    pub(crate) needed: u32,
    /// Peers whose `ReplicateAck` can still count; each counts once.
    pub(crate) unacked: Vec<Name>,
    /// Local durability epoch still required (0: durable when parked).
    pub(crate) epoch: u64,
    pub(crate) deadline: u64,
}

/// What an input did to a parked ack. An ack that simply stays parked
/// produces no step.
pub(crate) enum Step {
    /// The release condition holds: send the ack.
    Release(Parked),
    /// The deadline passed first: fail a client ack, drop an upstream one.
    Fail(Parked),
    /// An ack now waits on nothing but its covering fsync; only
    /// [`AckLedger::durable`] (or its deadline) lets it out.
    Deferred,
}

/// Every parked ack, in arrival order, and the highest durable epoch the
/// node's log has reported.
#[derive(Clone, Default)]
pub(crate) struct AckLedger {
    durable: u64,
    parked: Vec<Parked>,
}

impl AckLedger {
    /// Parks `ack`, or releases it at once when nothing is outstanding.
    pub(crate) fn park(&mut self, mut ack: Parked) -> Vec<Step> {
        ack.needed = ack.needed.min(ack.unacked.len() as u32);
        if ack.needed == 0 && ack.epoch <= self.durable {
            return vec![Step::Release(ack)];
        }
        let waits = if ack.needed == 0 { vec![Step::Deferred] } else { Vec::new() };
        self.parked.push(ack);
        waits
    }

    /// Counts `peer`'s `ReplicateAck` toward every parked ack for
    /// `(capsule, hash)` that still waits on that peer. A peer outside the
    /// capsule's replica set, or one that already acked, moves nothing.
    pub(crate) fn replica_ack(&mut self, capsule: Name, hash: RecordHash, peer: Name) -> Vec<Step> {
        let complete: Vec<Parked> = self
            .parked
            .extract_if(.., |p| {
                if p.needed == 0 || p.hash != hash || p.capsule != capsule {
                    return false;
                }
                let Some(i) = p.unacked.iter().position(|n| *n == peer) else { return false };
                p.unacked.swap_remove(i);
                p.replicas += 1;
                p.needed -= 1;
                p.needed == 0
            })
            .collect();
        // Its last replica ack in, an ack is judged like a new `Local` one.
        complete.into_iter().flat_map(|p| self.park(p)).collect()
    }

    /// The node's log reports everything up to `epoch` fsynced.
    pub(crate) fn durable(&mut self, epoch: u64) -> Vec<Step> {
        if epoch <= self.durable {
            return Vec::new();
        }
        self.durable = epoch;
        self.parked
            .extract_if(.., |p| p.needed == 0 && p.epoch <= epoch)
            .map(Step::Release)
            .collect()
    }

    /// Fails every ack whose deadline is at or before `now`.
    pub(crate) fn expire(&mut self, now: u64) -> Vec<Step> {
        self.parked.extract_if(.., |p| now >= p.deadline).map(Step::Fail).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn name(tag: &str, i: usize) -> Name {
        Name::from_content(format!("{tag}{i}").as_bytes())
    }
    fn hash(i: usize) -> RecordHash {
        RecordHash(name("record", i).0)
    }
    /// Capsule `c` has `c + 1` replica peers: `peer0..=peer{c}`.
    fn peers(c: usize) -> Vec<Name> {
        (0..=c).map(|i| name("peer", i)).collect()
    }

    /// One ledger input, in the raw terms the server sees. `Park.id` rides
    /// in `Parked::record_seq`, which the ledger carries but never reads.
    #[derive(Clone, Debug)]
    enum Input {
        Park { id: u64, capsule: usize, hash: usize, k: u32, epoch: u64, deadline: u64 },
        ReplicaAck { capsule: usize, hash: usize, peer: usize },
        Durable { epoch: u64 },
        Expire { now: u64 },
    }

    /// What one input let out: `(id, replicas, had been deferred)` per release,
    /// ids failed, and how many acks became fsync-bound. Sorted: the rule
    /// says *which* acks leave, FIFO order is the implementation's.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Outcome {
        released: Vec<(u64, u32, bool)>,
        failed: Vec<u64>,
        deferred: usize,
    }

    /// The reference model — the rule, with no incremental state: an ack
    /// keeps the raw facts about it, and after every input every ack is
    /// re-judged. Released ⇔ (distinct acks from its capsule's peers ≥ k)
    /// ∧ (its epoch ≤ the node's durable epoch); failed ⇔ its deadline
    /// passes first.
    #[derive(Clone, Default)]
    struct Model {
        acks: Vec<ModelAck>,
        durable: u64,
    }

    #[derive(Clone)]
    struct ModelAck {
        id: u64,
        capsule: usize,
        hash: usize,
        k: usize,
        got: BTreeSet<usize>,
        epoch: u64,
        deadline: u64,
        deferred: bool,
    }

    impl Model {
        fn step(&mut self, input: &Input) -> Outcome {
            let mut out = Outcome::default();
            match *input {
                Input::Park { id, capsule, hash, k, epoch, deadline } => {
                    let k = (k as usize).min(peers(capsule).len());
                    let (got, deferred) = (BTreeSet::new(), false);
                    self.acks.push(ModelAck {
                        id,
                        capsule,
                        hash,
                        k,
                        got,
                        epoch,
                        deadline,
                        deferred,
                    });
                }
                Input::ReplicaAck { capsule, hash, peer } if peer < peers(capsule).len() => {
                    for a in self.acks.iter_mut().filter(|a| (a.capsule, a.hash) == (capsule, hash))
                    {
                        a.got.insert(peer);
                    }
                }
                Input::ReplicaAck { .. } => {}
                Input::Durable { epoch } => self.durable = self.durable.max(epoch),
                Input::Expire { now } => {
                    out.failed.extend(self.acks.iter().filter(|a| a.deadline <= now).map(|a| a.id));
                    self.acks.retain(|a| a.deadline > now);
                }
            }
            let durable = self.durable;
            self.acks.retain_mut(|a| {
                let quorum = a.got.len() >= a.k;
                let covered = a.epoch <= durable;
                if quorum && covered {
                    out.released.push((a.id, 1 + a.k as u32, a.deferred));
                } else if quorum && !a.deferred {
                    a.deferred = true;
                    out.deferred += 1;
                }
                !(quorum && covered)
            });
            out.released.sort_unstable();
            out.failed.sort_unstable();
            out
        }
    }

    /// Feeds `input` to the real ledger.
    fn apply(ledger: &mut AckLedger, input: &Input) -> Outcome {
        let steps: Vec<Step> = match *input {
            Input::Park { id, capsule, hash: h, k, epoch, deadline } => {
                // Odd ids park as upstream acks: the rule is the same.
                let to = if id % 2 == 1 {
                    AckTo::Upstream { peer: name("upstream", 0) }
                } else {
                    AckTo::Client { client: name("client", 0), request_seq: id }
                };
                ledger.park(Parked {
                    capsule: name("capsule", capsule),
                    hash: hash(h),
                    record_seq: id,
                    to,
                    replicas: 1,
                    needed: k,
                    unacked: peers(capsule),
                    epoch,
                    deadline,
                })
            }
            Input::ReplicaAck { capsule, hash: h, peer } => {
                ledger.replica_ack(name("capsule", capsule), hash(h), name("peer", peer))
            }
            Input::Durable { epoch } => ledger.durable(epoch),
            Input::Expire { now } => ledger.expire(now),
        };
        let mut out = Outcome::default();
        for step in steps {
            match step {
                // A release by a durable epoch is what counts `acks_released`;
                // it must pair with an earlier `Deferred` (`acks_deferred`).
                Step::Release(p) => out.released.push((
                    p.record_seq,
                    p.replicas,
                    matches!(input, Input::Durable { .. }),
                )),
                Step::Fail(p) => out.failed.push(p.record_seq),
                Step::Deferred => out.deferred += 1,
            }
        }
        out.released.sort_unstable();
        out.failed.sort_unstable();
        out
    }

    /// Liveness half of the rule: whatever is still parked leaves by its
    /// deadline, so the ledger drains and every park is accounted for.
    fn assert_drains(mut ledger: AckLedger, mut model: Model, parked: usize, left: usize) {
        let last = Input::Expire { now: u64::MAX };
        let (got, want) = (apply(&mut ledger, &last), model.step(&last));
        assert_eq!(got, want);
        assert!(ledger.parked.is_empty(), "an ack is parked forever");
        assert_eq!(left + got.failed.len(), parked, "every parked ack was released or failed");
    }

    fn input() -> impl Strategy<Value = Input> {
        prop_oneof![
            (0usize..3, 0usize..3, 0u32..5, 0u64..4, 1u64..8).prop_map(
                |(capsule, hash, k, epoch, deadline)| Input::Park {
                    id: 0,
                    capsule,
                    hash,
                    k,
                    epoch,
                    deadline
                }
            ),
            (0usize..3, 0usize..3, 0usize..4).prop_map(|(capsule, hash, peer)| Input::ReplicaAck {
                capsule,
                hash,
                peer
            }),
            (0u64..5).prop_map(|epoch| Input::Durable { epoch }),
            (0u64..8).prop_map(|now| Input::Expire { now }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any input sequence — stray peers, repeated acks, epochs going
        /// backwards, duplicate parks of one record — lets out of the
        /// ledger exactly what the reference model lets out, input by
        /// input, and leaves nothing parked past its deadline.
        #[test]
        fn ledger_matches_the_reference_model(mut inputs in proptest::collection::vec(input(), 0..40)) {
            let (mut ledger, mut model) = (AckLedger::default(), Model::default());
            let (mut parked, mut left) = (0, 0);
            for (i, input) in inputs.iter_mut().enumerate() {
                if let Input::Park { id, .. } = input {
                    *id = i as u64;
                    parked += 1;
                }
                let (got, want) = (apply(&mut ledger, input), model.step(input));
                prop_assert_eq!(&got, &want, "input {}: {:?}", i, input);
                left += got.released.len() + got.failed.len();
            }
            assert_drains(ledger, model, parked, left);
        }
    }

    /// Bounded exhaustive enumeration (ROADMAP 8b's first tenant): three
    /// appends behind the node's one group-commit log — `Local` to capsule 0
    /// (replica peer0; peer1's ack of it is a stray), `Quorum(1)` and `All`
    /// to capsule 1 (replicas peer0, peer1, so `All` waits on two distinct
    /// acks) — and *every* order, to depth `DEPTH`, of: append (a repeat is
    /// the duplicate/retry), replica ack (each record × each peer), epoch
    /// advance (an fsync, which releases across capsules), deadline.
    #[test]
    fn every_input_order_to_a_bounded_depth_matches_the_model() {
        const DEPTH: usize = 6;
        const TTL: u64 = 10;
        const MODES: [u32; 3] = [0, 1, u32::MAX];
        const CAPSULE: [usize; 3] = [0, 1, 1];
        #[derive(Clone, Default)]
        struct World {
            ledger: AckLedger,
            model: Model,
            /// The log: its durable epoch, and the epoch covering each
            /// record once appended.
            durable: u64,
            stored: [Option<u64>; 3],
            now: u64,
            next_id: u64,
            left: usize,
        }
        let alphabet: Vec<(usize, usize, usize)> = (0..3)
            .map(|r| (0, r, 0))
            .chain((0..3).flat_map(|r| (0..2).map(move |p| (1, r, p))))
            .chain([(2, 0, 0), (3, 0, 0)])
            .collect();

        fn explore(w: &World, depth: usize, alphabet: &[(usize, usize, usize)]) -> usize {
            if depth == 0 {
                assert_drains(w.ledger.clone(), w.model.clone(), w.next_id as usize, w.left);
                return 1;
            }
            let mut orders = 0;
            for &(kind, record, peer) in alphabet {
                let mut w = w.clone();
                let input = match kind {
                    0 => {
                        // What `append_acked` answers: the pending epoch for
                        // a record still buffered, durable (0) otherwise.
                        let at = *w.stored[record].get_or_insert(w.durable + 1);
                        let epoch = if at <= w.durable { 0 } else { at };
                        w.next_id += 1;
                        let id = w.next_id - 1;
                        let k = MODES[record];
                        Input::Park {
                            id,
                            capsule: CAPSULE[record],
                            hash: record,
                            k,
                            epoch,
                            deadline: w.now + TTL,
                        }
                    }
                    1 => Input::ReplicaAck { capsule: CAPSULE[record], hash: record, peer },
                    2 => {
                        w.durable += 1;
                        Input::Durable { epoch: w.durable }
                    }
                    _ => {
                        w.now += TTL;
                        Input::Expire { now: w.now }
                    }
                };
                let (got, want) = (apply(&mut w.ledger, &input), w.model.step(&input));
                assert_eq!(got, want, "after {input:?}");
                w.left += got.released.len() + got.failed.len();
                orders += explore(&w, depth - 1, alphabet);
            }
            orders
        }
        let orders = explore(&World::default(), DEPTH, &alphabet);
        println!(
            "ack ledger: {orders} input orders covered (depth {DEPTH}, {} inputs)",
            alphabet.len()
        );
        assert_eq!(orders, alphabet.len().pow(DEPTH as u32));
    }
}
