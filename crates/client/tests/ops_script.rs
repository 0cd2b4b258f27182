//! The client driver (`gdp_client::ops`) on a scripted port: a virtual
//! clock, a real router and a real DataCapsule-server wired back to back,
//! and a per-test script that decides the fate of every PDU travelling
//! toward the client — deliver, drop, delay, duplicate, or replace with a
//! forgery. No fabric, no sockets, no threads: each case pins one rule of
//! the policy at the instant it fires.

use gdp_capsule::{CapsuleMetadata, CapsuleWriter, MetadataBuilder, PointerStrategy};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_client::ops::{self, ClientError, Driver, Pump};
use gdp_client::{GdpClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_obs::Metrics;
use gdp_router::{AdvertiseMsg, Router};
use gdp_server::proto::{read_result_body, sign_response, NackCode};
use gdp_server::{AckMode, DataCapsuleServer, DataMsg, ReadResult, ReadTarget, ResponseAuth};
use gdp_wire::{Name, Pdu, PduType, Wire};

const FOREVER: u64 = 1 << 50;
const MS: u64 = 1_000;
const S: u64 = 1_000_000;
/// One-way delay of a PDU the script lets through untouched.
const HOP: u64 = MS;
/// How often the scripted pump runs the driver's timer work (the live
/// pump's socket poll; the simulator's is its 200 ms cluster tick).
const POLL: u64 = 50 * MS;
/// The router's neighbor id for the client.
const NID: usize = 7;

/// `(nth PDU the client sent, that PDU, one answer to it)` → what reaches
/// the client, as `(delay, pdu)` pairs.
type Fate = Box<dyn FnMut(usize, &Pdu, Pdu) -> Vec<(u64, Pdu)>>;

fn deliver(pdu: Pdu) -> Vec<(u64, Pdu)> {
    vec![(HOP, pdu)]
}

struct Script {
    driver: Driver,
    metrics: Metrics,
    now: u64,
    next_poll: u64,
    router: Router,
    server: DataCapsuleServer,
    server_id: PrincipalId,
    capsule: Name,
    inbound: Vec<(u64, Pdu)>,
    /// Everything the client sent, with its send time.
    sent: Vec<(u64, Pdu)>,
    fate: Fate,
}

fn owner() -> SigningKey {
    SigningKey::from_seed(&[1u8; 32])
}

fn writer_key() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

fn metadata() -> CapsuleMetadata {
    MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "scripted port")
        .sign(&owner())
}

fn chain_for(server: &PrincipalId, capsule: Name) -> ServingChain {
    ServingChain::direct(
        AdCert::issue(&owner(), capsule, server.name(), false, Scope::Global, FOREVER),
        server.principal().clone(),
    )
}

/// A client that is the capsule's writer, a router and one delegated
/// server, with the clock at `start`.
fn script(start: u64, fate: Fate) -> Script {
    let meta = metadata();
    let capsule = meta.name();
    let server_id = PrincipalId::from_seed(PrincipalKind::Server, &[3u8; 32], "scripted server");
    let mut server = DataCapsuleServer::new(server_id.clone(), &gdp_obs::Scope::default());
    server.host(meta.clone(), chain_for(&server_id, capsule), vec![]).unwrap();
    let router = Router::from_seed(&[5u8; 32], "scripted router");
    let metrics = Metrics::new();
    let mut core = GdpClient::from_seed_with_obs(&[4u8; 32], "scripted", &metrics.scope("client"));
    core.set_rng_seed(9);
    core.register_writer(&meta, writer_key(), PointerStrategy::Chain).unwrap();
    Script {
        driver: Driver::new(core, router.name(), FOREVER),
        metrics,
        now: start,
        next_poll: start + POLL,
        router,
        server,
        server_id,
        capsule,
        inbound: Vec::new(),
        sent: Vec::new(),
        fate,
    }
}

impl Pump for Script {
    fn driver(&mut self) -> &mut Driver {
        &mut self.driver
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn send(&mut self, pdu: Pdu) -> Result<(), ClientError> {
        let nth = self.sent.len();
        self.sent.push((self.now, pdu.clone()));
        let answers: Vec<Pdu> = if pdu.pdu_type == PduType::Advertise {
            let out = self.router.handle_pdu(self.now, NID, pdu.clone());
            out.into_iter().filter(|(to, _)| *to == NID).map(|(_, p)| p).collect()
        } else {
            self.server.handle_pdu(self.now, pdu.clone())
        };
        for answer in answers {
            for (delay, p) in (self.fate)(nth, &pdu, answer) {
                self.inbound.push((self.now + delay, p));
            }
        }
        Ok(())
    }

    fn wait(&mut self, until: u64) -> Result<bool, ClientError> {
        // Earliest arrival first; arrivals at one instant in send order.
        let arrival =
            self.inbound.iter().enumerate().min_by_key(|(i, (at, _))| (*at, *i)).map(|(i, _)| i);
        let arrives_at = arrival.map_or(u64::MAX, |i| self.inbound[i].0);
        let next = arrives_at.min(self.next_poll);
        if next > until.max(self.now) {
            let moved = self.now < until;
            self.now = self.now.max(until);
            return Ok(moved);
        }
        self.now = self.now.max(next);
        let out = if next == self.next_poll {
            self.next_poll += POLL;
            self.driver.tick(self.now)
        } else {
            let (_, pdu) = self.inbound.remove(arrival.expect("an arrival is due"));
            self.driver.on_pdu(self.now, pdu)
        };
        if let Some(pdu) = out {
            self.send(pdu)?;
        }
        Ok(true)
    }
}

impl Script {
    fn counter(&self, name: &str) -> u64 {
        self.metrics.counter_value("client", name)
    }

    /// Send times and PDUs of the data requests `pick` accepts.
    fn requests(&self, pick: impl Fn(&DataMsg) -> bool) -> Vec<(u64, Pdu)> {
        let data = self.sent.iter().filter(|(_, p)| p.pdu_type == PduType::Data);
        data.filter(|(_, p)| pick(&DataMsg::from_wire(&p.payload).unwrap())).cloned().collect()
    }

    fn hellos(&self) -> Vec<u64> {
        let adv = self.sent.iter().filter(|(_, p)| p.pdu_type == PduType::Advertise);
        adv.filter(|(_, p)| AdvertiseMsg::from_wire(&p.payload).unwrap() == AdvertiseMsg::Hello)
            .map(|(at, _)| *at)
            .collect()
    }
}

fn is_append(m: &DataMsg) -> bool {
    matches!(m, DataMsg::Append { .. })
}

fn is_read(m: &DataMsg) -> bool {
    matches!(m, DataMsg::Read { .. })
}

fn is_session_init(m: &DataMsg) -> bool {
    matches!(m, DataMsg::SessionInit { .. })
}

fn is_session_accept(p: &Pdu) -> bool {
    matches!(DataMsg::from_wire(&p.payload), Ok(DataMsg::SessionAccept { .. }))
}

/// The answer a server holding `signer`'s key gives read `request`:
/// `result`, correctly signed — what a lagging or lying *delegated*
/// replica can send, and what an undelegated one can only imitate.
fn signed_read_resp(
    (signer, chain): (&PrincipalId, ServingChain),
    request: &Pdu,
    result: ReadResult,
) -> Pdu {
    let signature =
        sign_response(signer.signing_key(), &request.dst, request.seq, &read_result_body(&result));
    let auth = ResponseAuth::Signed { server: signer.principal().clone(), chain, signature };
    Pdu {
        pdu_type: PduType::Data,
        src: signer.name(),
        dst: request.src,
        seq: request.seq,
        payload: DataMsg::ReadResp { result, auth }.to_wire().into(),
    }
}

/// (1) Seed 12 at unit level: the `SessionAccept` is lost, so the server
/// MACs every answer under a key the client never learned. The append's
/// first attempt dies on "MAC response without session"; the driver
/// re-keys, re-sends, and the operation completes.
#[test]
fn lost_session_accept_is_recovered_by_rekeying() {
    let mut lost = false;
    let mut s = script(
        0,
        Box::new(move |_, _, answer| {
            if is_session_accept(&answer) && !std::mem::replace(&mut lost, true) {
                return Vec::new();
            }
            deliver(answer)
        }),
    );
    let capsule = s.capsule;
    let half_open = ops::session(&mut s, capsule, S);
    assert!(matches!(half_open, Err(ClientError::Timeout("session"))), "{half_open:?}");

    let seq = ops::append(&mut s, capsule, b"poisoned at first", AckMode::Local, 10 * S);
    assert_eq!(seq.unwrap(), 1);
    assert!(s.driver.core.has_session(&capsule), "the re-key must have completed");
    assert_eq!(s.requests(is_session_init).len(), 2, "one lost handshake, one re-key");
    assert_eq!(s.requests(is_append).len(), 2);
    assert_eq!(s.counter("verify_failures"), 1);
    assert_eq!(s.counter("requests_retried"), 1);
    assert!(s.driver.hard_failures().is_empty(), "{:?}", s.driver.hard_failures());
}

/// (2) Seed 747: the client re-keyed while an ack MAC'd under the
/// *previous* flow key was still in flight. It lands inside the next
/// operation, is classed as the recoverable no-session failure — never a
/// hard one — and that operation completes.
#[test]
fn answer_under_the_previous_flow_key_is_benign_epoch_skew() {
    let mut s = script(
        0,
        Box::new(|_, request, answer| {
            match DataMsg::from_wire(&request.payload).unwrap() {
                // The ack outlives its operation (1 s window) and the re-key.
                DataMsg::Append { .. } => vec![(2_500 * MS, answer)],
                // The read's own answer arrives after the stale ack.
                DataMsg::Read { .. } => vec![(1_800 * MS, answer)],
                _ => deliver(answer),
            }
        }),
    );
    let capsule = s.capsule;
    ops::session(&mut s, capsule, 10 * S).expect("first key");
    let unacked = ops::append(&mut s, capsule, b"slow ack", AckMode::Local, S);
    assert!(matches!(unacked, Err(ClientError::Timeout("append ack"))), "{unacked:?}");
    ops::session(&mut s, capsule, 10 * S).expect("re-key");

    let read = ops::read(&mut s, capsule, ReadTarget::Latest, 10 * S).expect("read completes");
    assert!(matches!(read, VerifiedRead::Latest(r, _) if r.body == b"slow ack"));
    assert_eq!(s.counter("verify_failures"), 1, "the stale ack must have landed mid-read");
    assert_eq!(s.counter("requests_retried"), 0);
    assert!(s.driver.hard_failures().is_empty(), "{:?}", s.driver.hard_failures());
}

/// (3) Seed 160: a rejected attach is re-armed but *not* re-Helloed on
/// the spot; the next Hello goes out at the 300 ms cadence and the second
/// offer attaches.
#[test]
fn rejected_attach_rehellos_at_the_cadence_and_attaches_on_the_second_offer() {
    let router = Router::from_seed(&[5u8; 32], "scripted router").name();
    let mut refused = false;
    let mut s = script(
        0,
        Box::new(move |_, request, answer| {
            let accepted = matches!(
                AdvertiseMsg::from_wire(&answer.payload),
                Ok(AdvertiseMsg::Accepted { .. })
            );
            if accepted && !std::mem::replace(&mut refused, true) {
                let no = AdvertiseMsg::Rejected { reason: "first offer refused".into() };
                let pdu = Pdu { payload: no.to_wire().into(), ..answer };
                assert_eq!((pdu.src, pdu.dst), (router, request.src));
                return deliver(pdu);
            }
            deliver(answer)
        }),
    );
    ops::attach(&mut s, 10 * S).expect("second offer attaches");
    let rejected_at = 3 * HOP; // Hello, challenge, Attach, then the answer
    let hellos = s.hellos();
    assert_eq!(hellos.len(), 2, "exactly one re-Hello: {hellos:?}");
    assert_eq!(hellos[0], 0);
    let cadence = rejected_at + 300 * MS..=rejected_at + 300 * MS + POLL;
    assert!(cadence.contains(&hellos[1]), "re-Hello at {} µs, not on the cadence", hellos[1]);
}

/// (3, continued) When every offer is refused, the window closes with
/// the router's *last* rejection, not a bare timeout.
#[test]
fn attach_window_closes_with_the_last_rejection() {
    let mut refusals = 0;
    let mut s = script(
        0,
        Box::new(move |_, _, answer| {
            if matches!(AdvertiseMsg::from_wire(&answer.payload), Ok(AdvertiseMsg::Accepted { .. }))
            {
                refusals += 1;
                let no = AdvertiseMsg::Rejected { reason: format!("refusal #{refusals}") };
                return deliver(Pdu { payload: no.to_wire().into(), ..answer });
            }
            deliver(answer)
        }),
    );
    let gave_up = ops::attach(&mut s, S);
    // 1 s of window at one offer per ≥ 300 ms: the third is the last.
    assert!(
        matches!(&gave_up, Err(ClientError::AttachRejected(r)) if r == "refusal #3"),
        "{gave_up:?}"
    );
    assert_eq!(s.now, S);
}

/// (4) The honest degradations — a lagging replica, a partial range —
/// are rejected, logged, counted as a retry, and the read is re-issued
/// after the slice and the pause; none of them is fatal.
#[test]
fn honest_degradations_are_retried_and_counted() {
    // A second chain from the same writer key: its seq-2 record verifies
    // on its own but does not chain onto the real seq-1 record.
    let mut fork = CapsuleWriter::new(&metadata(), writer_key(), PointerStrategy::Chain).unwrap();
    fork.append(b"another first", 0).unwrap();
    let unchained = fork.append(b"another second", 0).unwrap();

    for reason in ["stale replica state", "range not contiguous", "range does not chain"] {
        let mut s = script(0, Box::new(|_, _, answer| deliver(answer)));
        let capsule = s.capsule;
        ops::append(&mut s, capsule, b"one", AckMode::Local, S).unwrap();
        let lagging = match ops::read(&mut s, capsule, ReadTarget::Latest, S).unwrap() {
            VerifiedRead::Latest(record, heartbeat) => ReadResult::Latest(record, heartbeat),
            other => panic!("{other:?}"),
        };
        ops::append(&mut s, capsule, b"two", AckMode::Local, S).unwrap();
        ops::append(&mut s, capsule, b"three", AckMode::Local, S).unwrap();
        ops::read(&mut s, capsule, ReadTarget::Latest, S).unwrap();
        let mut record = |seq| s.server.stored_record(&capsule, seq).unwrap().unwrap();
        let (target, degraded) = match reason {
            "stale replica state" => (ReadTarget::Latest, lagging),
            "range not contiguous" => {
                (ReadTarget::Range(1, 3), ReadResult::Records(vec![record(1), record(3)]))
            }
            _ => (ReadTarget::Range(1, 2), ReadResult::Records(vec![record(1), unchained.clone()])),
        };
        // The delegated replica itself sends the degraded answer, once.
        let (replica, mut degraded) = (s.server_id.clone(), Some(degraded));
        s.fate = Box::new(move |_, request, answer| match degraded.take() {
            Some(result) => {
                let delegation = chain_for(&replica, request.dst);
                deliver(signed_read_resp((&replica, delegation), request, result))
            }
            None => deliver(answer),
        });
        let (reads_before, t0) = (s.requests(is_read).len(), s.now);

        let read = ops::read(&mut s, capsule, target, 10 * S);
        assert!(read.is_ok(), "{reason} must be retried, got {read:?}");
        let reads = &s.requests(is_read)[reads_before..];
        assert_eq!(reads.len(), 2, "{reason}: one degraded attempt, one good one");
        assert_eq!(reads[1].0, t0 + 2 * S + 50 * MS, "{reason}: re-issue after slice + pause");
        assert_ne!(reads[0].1.seq, reads[1].1.seq, "{reason}: each attempt is a fresh request");
        assert_eq!(s.counter("verify_failures"), 1, "{reason} was not what the client saw");
        assert_eq!(s.counter("requests_retried"), 1, "{reason}");
        assert!(s.driver.hard_failures().is_empty(), "{reason}: {:?}", s.driver.hard_failures());
    }
}

/// (5) A reason outside the honest list is evidence of tampering: the
/// operation fails with that reason the first time, nothing is retried.
#[test]
fn any_other_verification_failure_is_fatal_the_first_time() {
    let rogue = PrincipalId::from_seed(PrincipalKind::Server, &[88u8; 32], "rogue");
    let mut s = script(0, Box::new(|_, _, answer| deliver(answer)));
    let capsule = s.capsule;
    ops::append(&mut s, capsule, b"genuine", AckMode::Local, S).unwrap();
    let genuine = s.server.stored_record(&capsule, 1).unwrap().unwrap();
    // An undelegated server answers first, under a delegation it issued
    // to itself; the real answer follows and must not matter.
    s.fate = Box::new(move |_, request, answer| {
        let adcert = AdCert::issue(
            rogue.signing_key(),
            capsule,
            rogue.name(),
            false,
            Scope::Global,
            FOREVER,
        );
        let self_issued = ServingChain::direct(adcert, rogue.principal().clone());
        let result = ReadResult::Record(genuine.clone());
        vec![(HOP, signed_read_resp((&rogue, self_issued), request, result)), (2 * HOP, answer)]
    });
    let read = ops::read(&mut s, capsule, ReadTarget::One(1), 10 * S);
    assert!(
        matches!(read, Err(ClientError::Verification("serving chain invalid"))),
        "a forged answer must fail the read hard, got {read:?}"
    );
    assert_eq!(s.requests(is_read).len(), 1, "a hard failure is not retried");
    assert_eq!(s.driver.hard_failures(), ["serving chain invalid"]);
    assert_eq!(s.counter("requests_retried"), 0);
}

/// (6) One clock: a `Nack{retry_after_us: 50_000}` received at t = 3 s
/// arms the back-off from 3 s, so the re-issue — due at 3.02 s when the
/// attempt's slice runs out — waits until at least 3.05 s. (Stamped with
/// a literal 0, the back-off would read ≈ 0.05 s and gate nothing.)
#[test]
fn nack_backoff_is_measured_on_the_pumps_clock() {
    let start = 1_020 * MS;
    let mut shed = false;
    let mut s = script(
        start,
        Box::new(move |_, request, answer| {
            if std::mem::replace(&mut shed, true) {
                return deliver(answer);
            }
            let nack = DataMsg::Nack { code: NackCode::Busy, retry_after_us: 50_000 };
            let pdu = Pdu { payload: nack.to_wire().into(), ..answer };
            assert_eq!(pdu.seq, request.seq);
            vec![(3 * S - start, pdu)]
        }),
    );
    let capsule = s.capsule;
    let seq = ops::append(&mut s, capsule, b"shed once", AckMode::Local, 10 * S);
    assert_eq!(seq.unwrap(), 1);
    let appends = s.requests(is_append);
    assert_eq!(appends.len(), 2);
    assert_eq!(appends[0].0, start);
    // retry_after + jitter in [0, retry_after / 2], counted from 3 s.
    let window = 3 * S + 50 * MS..=3 * S + 75 * MS;
    assert!(window.contains(&appends[1].0), "re-issued at {} µs", appends[1].0);
    assert_eq!(s.counter("nacks_received"), 1);
}

/// (7) An append retry re-sends the byte-identical signed record under a
/// fresh request seq, one slice after the first attempt, and is counted.
#[test]
fn append_retry_resends_the_same_signed_record_under_a_fresh_seq() {
    let mut lost = false;
    let mut s = script(
        0,
        Box::new(
            move |_, _, answer| {
                if std::mem::replace(&mut lost, true) {
                    deliver(answer)
                } else {
                    Vec::new()
                }
            },
        ),
    );
    let capsule = s.capsule;
    let seq = ops::append(&mut s, capsule, b"acked the second time", AckMode::Local, 10 * S);
    assert_eq!(seq.unwrap(), 1);
    let appends = s.requests(is_append);
    assert_eq!(appends.len(), 2);
    assert_eq!(appends[1].0 - appends[0].0, 2 * S, "re-issued when the slice ran out");
    assert_ne!(appends[0].1.seq, appends[1].1.seq, "a fresh request seq");
    assert_eq!(appends[0].1.payload, appends[1].1.payload, "the same signed record, byte for byte");
    assert_eq!(s.counter("requests_retried"), 1);
    assert_eq!(s.counter("acked_writes"), 1);
}

/// (8) When nothing ever answers, the window closes with a typed timeout
/// exactly at the deadline, and — the pump having run the deadline sweep
/// all along — no pending request outlives the operation.
#[test]
fn exhausted_window_is_a_typed_timeout_and_leaks_no_pending_request() {
    let mut s = script(0, Box::new(|_, _, _| Vec::new()));
    let capsule = s.capsule;
    // Requests expire inside their own attempt's slice.
    s.driver.core.set_request_timeout(S);
    let read = ops::read(&mut s, capsule, ReadTarget::Latest, 6 * S);
    assert!(matches!(read, Err(ClientError::Timeout("read result"))), "{read:?}");
    assert_eq!(s.now, 6 * S);
    // Attempts at 0, 2.05 s and 4.1 s, each swept a second after the
    // first poll that saw it.
    assert_eq!(s.requests(is_read).len(), 3);
    assert_eq!(s.counter("requests_retried"), 2);
    assert_eq!(s.counter("requests_timed_out"), 3);
    assert_eq!(s.driver.core.pending_len(), 0);
}

/// (9) A late answer to a read given up on is that read's answer: it
/// verifies against that read's target, and the next read — asking for
/// something else — ignores it and settles on its own answer.
#[test]
fn a_late_answer_to_an_earlier_read_does_not_settle_the_next_one() {
    let mut reads = 0;
    let mut s = script(
        0,
        Box::new(move |_, request, answer| {
            if !is_read(&DataMsg::from_wire(&request.payload).unwrap()) {
                return deliver(answer);
            }
            // The first answer outlives its read's 1 s window and lands
            // inside the next read's attempt, ahead of that read's own.
            reads += 1;
            vec![(if reads == 1 { 1_500 * MS } else { 1_800 * MS }, answer)]
        }),
    );
    let capsule = s.capsule;
    ops::append(&mut s, capsule, b"one", AckMode::Local, S).unwrap();
    ops::append(&mut s, capsule, b"two", AckMode::Local, S).unwrap();
    let given_up = ops::read(&mut s, capsule, ReadTarget::One(1), S);
    assert!(matches!(given_up, Err(ClientError::Timeout("read result"))), "{given_up:?}");

    let read = ops::read(&mut s, capsule, ReadTarget::One(2), 10 * S).expect("read completes");
    assert!(matches!(&read, VerifiedRead::Record(r) if r.body == b"two"), "{read:?}");
    assert_eq!(s.counter("reads_ok"), 2, "the late answer verified, as the answer to One(1)");
    assert_eq!(s.requests(is_read).len(), 2, "the second read's first attempt settled it");
}
