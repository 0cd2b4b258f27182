//! The GDP client: writers, readers, and subscribers.
//!
//! Clients are where trust decisions happen: "Clients use digital
//! signatures and encryption as the fundamental tools to enable trust in
//! data rather than in infrastructure" (paper §V). Every response is
//! authenticated (signature or flow-key HMAC) and every record/proof is
//! re-verified against the capsule's writer key before the application
//! sees it. Stale replicas are detected by heartbeat monotonicity,
//! yielding the sequential-consistency reader semantics of §VI-C.
//!
//! Like the server, the client is sans-I/O: methods build request PDUs and
//! `handle_pdu` turns responses into [`ClientEvent`]s.

// Non-test matches on wire enums (`Pdu`, `PduType`, `DataMsg`) name every variant: a
// new variant is a compile error here, not silent message loss behind a `_ =>`.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use gdp_capsule::{CapsuleMetadata, CapsuleWriter, Heartbeat, PointerStrategy, Record};
use gdp_cert::{Principal, PrincipalId, PrincipalKind};
use gdp_crypto::x25519::EphemeralKeyPair;
use gdp_crypto::{ct, hkdf, SigningKey, VerifyingKey};
use gdp_obs::{Counter, Scope};
use gdp_server::proto::{
    append_ack_body, event_body, mac_response, read_result_body, response_transcript,
    session_transcript, AckMode, DataMsg, ErrorCode, NackCode, ReadResult, ReadTarget,
    ResponseAuth,
};
use gdp_wire::{Name, Pdu, PduType, Wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Default lifetime of a pending request before
/// [`GdpClient::sweep_timeouts`] expires it (µs).
pub const DEFAULT_REQUEST_TIMEOUT_US: u64 = 10_000_000;

/// A verified read result delivered to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifiedRead {
    /// One verified record.
    Record(Record),
    /// A verified contiguous run, oldest first. Answered as a range proof,
    /// the run is authenticated by the hash chain from one heartbeat, and
    /// each record's `signature` field is not: re-serve such a record as
    /// signed only after [`Record::verify`].
    Records(Vec<Record>),
    /// The newest record plus its heartbeat.
    Latest(Record, Heartbeat),
    /// A record proven against a heartbeat (by membership proof).
    Proven(Record),
    /// A bare heartbeat (freshness answer).
    Heartbeat(Heartbeat),
}

/// Events produced by [`GdpClient::handle_pdu`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// A flow key is established with a delegated server.
    SessionReady {
        /// The capsule the session is for.
        capsule: Name,
        /// The server's name.
        server: Name,
    },
    /// An append was acknowledged durable.
    AppendAcked {
        /// The capsule.
        capsule: Name,
        /// Sequence number of the acked record.
        seq: u64,
        /// Replica count reported by the server.
        replicas: u32,
    },
    /// A verified read result.
    ReadOk {
        /// The capsule.
        capsule: Name,
        /// Request seq this answers.
        request_seq: u64,
        /// The verified payload.
        result: VerifiedRead,
    },
    /// A verified subscription event (pub-sub delivery).
    SubEvent {
        /// The capsule.
        capsule: Name,
        /// The new record.
        record: Record,
    },
    /// The server reported an error.
    ServerError {
        /// The capsule.
        capsule: Name,
        /// Error code.
        code: ErrorCode,
        /// Detail string (untrusted).
        detail: String,
    },
    /// A response failed client-side verification and was dropped. The
    /// detection the threat model promises: "a client can detect such
    /// deviations" (§IV-C).
    VerificationFailed {
        /// The capsule.
        capsule: Name,
        /// Why.
        reason: &'static str,
    },
    /// The network reported the destination unreachable.
    Unreachable {
        /// The name that could not be routed.
        name: Name,
    },
    /// The server shed the request with `Nack{Busy}`. The client armed
    /// its per-capsule backoff; [`crate::ops`] issues nothing for this
    /// capsule before `not_before`. The pending entry survives — a Nack
    /// is unauthenticated and must never cancel a request.
    Backpressure {
        /// The capsule whose request was shed.
        capsule: Name,
        /// Request seq the Nack answered.
        request_seq: u64,
        /// Earliest µs timestamp at which a retry may be issued
        /// (`now + retry_after + jitter`).
        not_before: u64,
    },
    /// A pending request expired without an authenticated response (the
    /// response was lost, or never sent). The pending entry is dropped;
    /// [`crate::ops`] re-issues — an append as the same signed record
    /// under a fresh request seq.
    Timeout {
        /// The capsule the request addressed.
        capsule: Name,
        /// Request seq that expired.
        request_seq: u64,
        /// What kind of request it was.
        kind: RequestKind,
    },
}

/// The kind of an outstanding request (reported by [`ClientEvent::Timeout`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// A read, subscribe, or metadata push.
    Read,
    /// An append.
    Append,
    /// A session-establishment handshake.
    Session,
}

struct TrackedCapsule {
    metadata: CapsuleMetadata,
    writer_key: VerifyingKey,
    owner_key: VerifyingKey,
    /// Highest verified seq observed (stale-replica detection).
    latest_seen: u64,
}

struct Flow {
    eph: EphemeralKeyPair,
    key: Option<[u8; 32]>,
    /// The server the key was agreed with (set together with `key`).
    /// Requests are anycast by capsule name, so a *different* delegated
    /// replica may answer a later request; its MACs are not verifiable
    /// under this key and must be treated as "no session", not corruption.
    server: Option<Name>,
}

struct Pending {
    capsule: Name,
    kind: RequestKind,
    /// What a read asked for: its answer must be that, not merely valid.
    read: Option<ReadTarget>,
    /// Stamped by the first [`GdpClient::sweep_timeouts`] call after
    /// issuance (the sans-I/O request builders take no clock); expiry is
    /// measured from that stamp.
    issued_at: Option<u64>,
}

/// Cached per-client metric handles (see DESIGN.md, "Observability").
#[derive(Clone, Debug)]
struct ClientObs {
    requests_issued: Counter,
    acked_writes: Counter,
    reads_ok: Counter,
    sessions_ready: Counter,
    sub_events: Counter,
    requests_timed_out: Counter,
    requests_retried: Counter,
    verify_failures: Counter,
    server_errors: Counter,
    unreachable: Counter,
    nacks_received: Counter,
}

impl ClientObs {
    fn new(scope: &Scope) -> ClientObs {
        ClientObs {
            requests_issued: scope.counter("requests_issued"),
            acked_writes: scope.counter("acked_writes"),
            reads_ok: scope.counter("reads_ok"),
            sessions_ready: scope.counter("sessions_ready"),
            sub_events: scope.counter("sub_events"),
            requests_timed_out: scope.counter("requests_timed_out"),
            requests_retried: scope.counter("requests_retried"),
            verify_failures: scope.counter("verify_failures"),
            server_errors: scope.counter("server_errors"),
            unreachable: scope.counter("unreachable"),
            nacks_received: scope.counter("nacks_received"),
        }
    }
}

/// Checks that a verified run answers `Range(a, b)`: it starts at `a` (seq
/// 1 at the earliest) and ends at `b`, or short of `b` only at `head`, the
/// seq of the heartbeat anchoring it — a run with no heartbeat never.
fn answers_range(
    run: &[Record],
    (a, b): (u64, u64),
    head: Option<u64>,
) -> Result<(), &'static str> {
    let (Some(first), Some(last)) = (run.first(), run.last()) else {
        return Err("range does not start where asked");
    };
    if first.header.seq != a.max(1) {
        return Err("range does not start where asked");
    }
    let end = last.header.seq;
    if end != b && !(end < b && head == Some(end)) {
        return Err("range does not end where asked");
    }
    Ok(())
}

/// The client endpoint.
pub struct GdpClient {
    id: PrincipalId,
    next_seq: u64,
    /// Ordered so [`GdpClient::capsule_for_event`] resolution never
    /// depends on map iteration order (deterministic replay).
    capsules: BTreeMap<Name, TrackedCapsule>,
    flows: HashMap<Name, Flow>,
    writers: HashMap<Name, CapsuleWriter>,
    /// Ordered so [`GdpClient::sweep_timeouts`] expires deterministically.
    pending: BTreeMap<u64, Pending>,
    /// Per-capsule Nack backoff: earliest µs timestamp a retry may be
    /// issued. Ordered for deterministic replay.
    backoff: BTreeMap<Name, u64>,
    /// Pending-request lifetime before the sweep expires it (µs).
    request_timeout: u64,
    obs: ClientObs,
    /// Session-ephemeral-key generator. Entropy-seeded by default;
    /// [`GdpClient::set_rng_seed`] makes handshakes replayable.
    rng: StdRng,
}

impl GdpClient {
    /// Creates a client whose identity derives from `seed` and `label`,
    /// with a private metric registry.
    pub fn from_seed(seed: &[u8; 32], label: &str) -> GdpClient {
        GdpClient::from_seed_with_obs(seed, label, &gdp_obs::Metrics::new().scope("client"))
    }

    /// [`GdpClient::from_seed`] registering its metrics under `scope`.
    pub fn from_seed_with_obs(seed: &[u8; 32], label: &str, scope: &Scope) -> GdpClient {
        GdpClient {
            id: PrincipalId::from_seed(PrincipalKind::Client, seed, label),
            next_seq: 1,
            capsules: BTreeMap::new(),
            flows: HashMap::new(),
            writers: HashMap::new(),
            pending: BTreeMap::new(),
            backoff: BTreeMap::new(),
            request_timeout: DEFAULT_REQUEST_TIMEOUT_US,
            obs: ClientObs::new(scope),
            rng: StdRng::from_entropy(),
        }
    }

    /// Replaces the ephemeral-key generator with a deterministic one, so
    /// simulated runs replay bit-for-bit. Never call this in production:
    /// session keys become a function of the seed.
    pub fn set_rng_seed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Overrides the pending-request timeout (µs).
    pub fn set_request_timeout(&mut self, us: u64) {
        self.request_timeout = us;
    }

    /// Number of requests awaiting a response.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Counts a driver-level retry (re-issue of a request that went
    /// unanswered) in the client's `requests_retried` metric.
    pub(crate) fn mark_retry(&self) {
        self.obs.requests_retried.inc();
    }

    /// Earliest µs timestamp at which a request for `capsule` may be
    /// issued (0 when no Nack backoff is armed). Issuing straight into an
    /// overloaded server is the retry storm the Nack exists to prevent.
    pub(crate) fn retry_not_before(&self, capsule: &Name) -> u64 {
        self.backoff.get(capsule).copied().unwrap_or(0)
    }

    /// Deadline sweep: expires pending requests older than the request
    /// timeout, yielding a [`ClientEvent::Timeout`] per casualty. Requests
    /// not yet stamped are stamped with `now` (the builders take no
    /// clock), so expiry is measured between consecutive sweeps. Call this
    /// from the same loop that pumps `handle_pdu` — without it, a response
    /// lost in transit leaks the pending entry forever.
    pub fn sweep_timeouts(&mut self, now: u64) -> Vec<ClientEvent> {
        let mut expired = Vec::new();
        for (&seq, p) in self.pending.iter_mut() {
            match p.issued_at {
                None => p.issued_at = Some(now),
                Some(t) if now.saturating_sub(t) >= self.request_timeout => expired.push(seq),
                Some(_) => {}
            }
        }
        let mut events = Vec::new();
        for seq in expired {
            let p = self.pending.remove(&seq).expect("expired seq is pending");
            self.obs.requests_timed_out.inc();
            events.push(ClientEvent::Timeout {
                capsule: p.capsule,
                request_seq: seq,
                kind: p.kind,
            });
        }
        events
    }

    /// The client's flat name (where responses are routed).
    pub fn name(&self) -> Name {
        self.id.name()
    }

    /// The client's principal id (for attach handshakes).
    pub fn principal_id(&self) -> &PrincipalId {
        &self.id
    }

    /// Registers a capsule the client will talk to. The metadata is the
    /// trust anchor: its hash must equal the capsule name, and it carries
    /// the writer/owner keys used for all verification.
    pub fn track_capsule(&mut self, metadata: &CapsuleMetadata) -> Result<(), &'static str> {
        metadata.verify().map_err(|_| "metadata signature invalid")?;
        let writer_key = metadata.writer_key().map_err(|_| "no writer key")?;
        let owner_key = metadata.owner_key().map_err(|_| "no owner key")?;
        self.capsules.insert(
            metadata.name(),
            TrackedCapsule { metadata: metadata.clone(), writer_key, owner_key, latest_seen: 0 },
        );
        Ok(())
    }

    /// Attaches writer state for a capsule (this client is the single
    /// writer). `key` must match the metadata's writer key.
    pub fn register_writer(
        &mut self,
        metadata: &CapsuleMetadata,
        key: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<(), &'static str> {
        self.track_capsule(metadata)?;
        let writer = CapsuleWriter::new(metadata, key, strategy)
            .map_err(|_| "key is not the declared writer")?;
        self.writers.insert(metadata.name(), writer);
        Ok(())
    }

    /// Direct access to a registered writer (e.g. to resume after crash).
    pub fn writer_mut(&mut self, capsule: &Name) -> Option<&mut CapsuleWriter> {
        self.writers.get_mut(capsule)
    }

    fn fresh_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn request(&mut self, capsule: Name, kind: RequestKind, msg: &DataMsg) -> Pdu {
        let seq = self.fresh_seq();
        let read = if let DataMsg::Read { target } = msg { Some(*target) } else { None };
        self.pending.insert(seq, Pending { capsule, kind, read, issued_at: None });
        self.obs.requests_issued.inc();
        Pdu {
            pdu_type: PduType::Data,
            src: self.name(),
            dst: capsule,
            seq,
            payload: msg.to_wire().into(),
        }
    }

    /// Builds a session-establishment request for a capsule.
    pub fn session_init(&mut self, capsule: Name) -> Pdu {
        let eph = EphemeralKeyPair::generate(&mut self.rng);
        let client_eph = *eph.public();
        self.flows.insert(capsule, Flow { eph, key: None, server: None });
        self.request(capsule, RequestKind::Session, &DataMsg::SessionInit { client_eph })
    }

    /// True once a flow key exists for the capsule.
    pub fn has_session(&self, capsule: &Name) -> bool {
        self.flows.get(capsule).map(|f| f.key.is_some()).unwrap_or(false)
    }

    /// Builds an append request: signs a new record via the registered
    /// writer and wraps it with the durability mode.
    pub fn append(
        &mut self,
        capsule: Name,
        body: &[u8],
        timestamp_micros: u64,
        ack_mode: AckMode,
    ) -> Result<(Pdu, Record), &'static str> {
        let writer = self.writers.get_mut(&capsule).ok_or("no writer registered")?;
        let record = writer.append(body, timestamp_micros).map_err(|_| "append failed")?;
        let pdu = self.request(
            capsule,
            RequestKind::Append,
            &DataMsg::Append { record: record.clone(), ack_mode },
        );
        Ok((pdu, record))
    }

    /// Re-wraps an already-signed record in a fresh append request — the
    /// re-issue path of an unanswered append (appends are idempotent
    /// server-side, so re-sending a signed record is safe).
    pub(crate) fn append_record(
        &mut self,
        capsule: Name,
        record: Record,
        ack_mode: AckMode,
    ) -> Pdu {
        self.request(capsule, RequestKind::Append, &DataMsg::Append { record, ack_mode })
    }

    /// Builds a read request.
    pub fn read(&mut self, capsule: Name, target: ReadTarget) -> Pdu {
        self.request(capsule, RequestKind::Read, &DataMsg::Read { target })
    }

    /// Builds a subscribe request.
    pub fn subscribe(&mut self, capsule: Name, from_seq: u64) -> Pdu {
        self.request(capsule, RequestKind::Read, &DataMsg::Subscribe { from_seq })
    }

    /// Builds the metadata-push used when creating a capsule on a server.
    pub fn put_metadata(&mut self, capsule: Name) -> Option<Pdu> {
        let meta = self.capsules.get(&capsule)?.metadata.clone();
        Some(self.request(capsule, RequestKind::Read, &DataMsg::PutMetadata { metadata: meta }))
    }

    // ---- response handling ------------------------------------------------

    /// Verifies a response's authentication against the transcript.
    fn check_auth(
        &self,
        capsule: &Name,
        request_seq: u64,
        body: &[u8],
        auth: &ResponseAuth,
        now: u64,
    ) -> Result<(), &'static str> {
        match auth {
            ResponseAuth::Signed { server, chain, signature } => {
                let tracked = self.capsules.get(capsule).ok_or("untracked capsule")?;
                chain.verify(&tracked.owner_key, now).map_err(|_| "serving chain invalid")?;
                if chain.server().name() != server.name() {
                    return Err("chain does not end at responder");
                }
                if chain.adcert.capsule != *capsule {
                    return Err("chain is for a different capsule");
                }
                let transcript = response_transcript(capsule, request_seq, body);
                if server.verify(&transcript, signature) {
                    Ok(())
                } else {
                    Err("response signature invalid")
                }
            }
            ResponseAuth::Mac { server, epoch, tag } => {
                // The key must exist, belong to the responding replica
                // (anycast routing may hand the request to a different
                // delegated server than the session peer), *and* be the
                // same key epoch: after a re-key, responses MAC'd under
                // the previous key can still be in flight, and a key the
                // client no longer holds is a disagreement to recover
                // from, not evidence of tampering.
                let flow = self
                    .flows
                    .get(capsule)
                    .filter(|f| f.server == Some(*server))
                    .filter(|f| f.eph.public()[..8] == epoch[..])
                    .and_then(|f| f.key.as_ref())
                    .ok_or("MAC response without session")?;
                let expect = mac_response(flow, capsule, request_seq, body);
                if ct::eq(&expect, tag) {
                    Ok(())
                } else {
                    Err("response MAC invalid")
                }
            }
        }
    }

    /// Verifies a read answer against the writer key *and* against what was
    /// asked: a valid answer to another question — a proof of seq 7 for
    /// `ProofOf(5)`, a shorter run for `Range(a, b)` — is an omission no
    /// signature shows.
    fn verify_read(
        &mut self,
        capsule: &Name,
        asked: Option<ReadTarget>,
        result: ReadResult,
    ) -> Result<VerifiedRead, &'static str> {
        const NOT_ASKED: &str = "answer is not to what was asked";
        let tracked = self.capsules.get_mut(capsule).ok_or("untracked capsule")?;
        let wk = tracked.writer_key;
        let asked = asked.ok_or(NOT_ASKED)?;
        match result {
            ReadResult::Record(r) => {
                let ReadTarget::One(s) = asked else { return Err(NOT_ASKED) };
                r.verify(capsule, &wk).map_err(|_| "record verification failed")?;
                if r.header.seq != s {
                    return Err("record is for another seq");
                }
                Ok(VerifiedRead::Record(r))
            }
            ReadResult::Records(rs) => {
                let ReadTarget::Range(a, b) = asked else { return Err(NOT_ASKED) };
                for r in &rs {
                    r.verify(capsule, &wk).map_err(|_| "record verification failed")?;
                }
                // A range answer must be strictly contiguous and chained:
                // anything else lets a malicious server reorder or omit
                // records while each record still verifies individually.
                for w in rs.windows(2) {
                    if w[1].header.seq != w[0].header.seq + 1 {
                        return Err("range not contiguous");
                    }
                    if w[1].header.prev != w[0].hash() {
                        return Err("range does not chain");
                    }
                }
                // No heartbeat anchors this run, so nothing shows where the
                // capsule ends: it must be the whole run asked for.
                answers_range(&rs, (a, b), None)?;
                Ok(VerifiedRead::Records(rs))
            }
            ReadResult::Latest(r, hb) => {
                let ReadTarget::Latest = asked else { return Err(NOT_ASKED) };
                r.verify(capsule, &wk).map_err(|_| "record verification failed")?;
                hb.verify(&wk).map_err(|_| "heartbeat invalid")?;
                if hb.head != r.hash() || hb.seq != r.header.seq {
                    return Err("heartbeat does not match record");
                }
                if hb.seq < tracked.latest_seen {
                    // A replica served state older than what we've already
                    // verified: sequential consistency says discard (§VI-C).
                    return Err("stale replica state");
                }
                tracked.latest_seen = hb.seq;
                Ok(VerifiedRead::Latest(r, hb))
            }
            ReadResult::Proof(p) => {
                let ReadTarget::ProofOf(s) = asked else { return Err(NOT_ASKED) };
                let record = p.verify(capsule, &wk).map_err(|_| "membership proof invalid")?;
                if record.header.seq != s {
                    return Err("proof is for another seq");
                }
                tracked.latest_seen = tracked.latest_seen.max(p.heartbeat.seq);
                Ok(VerifiedRead::Proven(record))
            }
            ReadResult::RangeProofResult(p) => {
                let ReadTarget::Range(a, b) = asked else { return Err(NOT_ASKED) };
                let records = p.verify(capsule, &wk).map_err(|_| "range proof invalid")?;
                let hb = &p.newest.heartbeat;
                answers_range(&records, (a, b), Some(hb.seq))?;
                // A run cut short at its heartbeat says "the capsule ends
                // here"; from a heartbeat older than one already seen, that
                // is a lagging (or lying) replica's claim.
                let short = records.last().is_some_and(|r| r.header.seq < b);
                if short && hb.seq < tracked.latest_seen {
                    return Err("stale replica state");
                }
                tracked.latest_seen = tracked.latest_seen.max(hb.seq);
                Ok(VerifiedRead::Records(records))
            }
            ReadResult::HeartbeatOnly(hb) => {
                let ReadTarget::HeartbeatOnly = asked else { return Err(NOT_ASKED) };
                hb.verify(&wk).map_err(|_| "heartbeat invalid")?;
                if hb.seq < tracked.latest_seen {
                    return Err("stale replica state");
                }
                tracked.latest_seen = hb.seq;
                Ok(VerifiedRead::Heartbeat(hb))
            }
        }
    }

    /// Processes an inbound PDU, yielding zero or more events.
    pub fn handle_pdu(&mut self, now: u64, pdu: Pdu) -> Vec<ClientEvent> {
        if pdu.pdu_type == PduType::Error {
            // Router-generated unreachable notice; payload = the dest name.
            let name = pdu.payload.as_slice().try_into().map(Name).unwrap_or(Name::ZERO);
            self.obs.unreachable.inc();
            return vec![ClientEvent::Unreachable { name }];
        }
        if pdu.pdu_type != PduType::Data {
            return Vec::new();
        }
        let Ok(msg) = DataMsg::from_wire(&pdu.payload) else {
            return Vec::new();
        };
        match msg {
            DataMsg::SessionAccept { server_eph, client_eph, server, chain, signature } => self
                .on_session_accept(now, pdu.seq, server_eph, client_eph, server, chain, signature),
            DataMsg::AppendAck { seq, hash, replicas, auth } => {
                // The pending entry is consumed only once a response
                // *authenticates*: an unverifiable (or forged) ack must not
                // cancel the request, or a retransmit's genuine ack would be
                // ignored forever afterwards.
                let Some(capsule) = self.pending.get(&pdu.seq).map(|p| p.capsule) else {
                    return Vec::new();
                };
                let body = append_ack_body(seq, &hash, replicas);
                match self.check_auth(&capsule, pdu.seq, &body, &auth, now) {
                    Ok(()) => {
                        self.pending.remove(&pdu.seq);
                        self.obs.acked_writes.inc();
                        vec![ClientEvent::AppendAcked { capsule, seq, replicas }]
                    }
                    Err(reason) => {
                        self.obs.verify_failures.inc();
                        vec![ClientEvent::VerificationFailed { capsule, reason }]
                    }
                }
            }
            DataMsg::ReadResp { result, auth } => {
                let Some((capsule, asked)) =
                    self.pending.get(&pdu.seq).map(|p| (p.capsule, p.read))
                else {
                    return Vec::new();
                };
                // The authentication covers the answer's commitment, every
                // byte but the bodies; `verify_read` binds each body to its
                // authenticated header's `body_hash`.
                let body = read_result_body(&result);
                if let Err(reason) = self.check_auth(&capsule, pdu.seq, &body, &auth, now) {
                    self.obs.verify_failures.inc();
                    return vec![ClientEvent::VerificationFailed { capsule, reason }];
                }
                self.pending.remove(&pdu.seq);
                match self.verify_read(&capsule, asked, result) {
                    Ok(result) => {
                        self.obs.reads_ok.inc();
                        vec![ClientEvent::ReadOk { capsule, request_seq: pdu.seq, result }]
                    }
                    Err(reason) => {
                        self.obs.verify_failures.inc();
                        vec![ClientEvent::VerificationFailed { capsule, reason }]
                    }
                }
            }
            DataMsg::Event { record, auth } => {
                // Events carry request_seq 0 by convention.
                let capsule = match self.capsule_for_event(&record) {
                    Some(c) => c,
                    None => return Vec::new(),
                };
                let body = event_body(&record);
                if let Err(reason) = self.check_auth(&capsule, 0, &body, &auth, now) {
                    self.obs.verify_failures.inc();
                    return vec![ClientEvent::VerificationFailed { capsule, reason }];
                }
                let tracked = self.capsules.get_mut(&capsule).unwrap();
                if record.verify(&capsule, &tracked.writer_key).is_err() {
                    self.obs.verify_failures.inc();
                    return vec![ClientEvent::VerificationFailed {
                        capsule,
                        reason: "event record invalid",
                    }];
                }
                tracked.latest_seen = tracked.latest_seen.max(record.header.seq);
                self.obs.sub_events.inc();
                vec![ClientEvent::SubEvent { capsule, record }]
            }
            DataMsg::ErrResp { code, detail } => {
                // Error responses are unauthenticated, so they also must not
                // cancel the pending request (spoofable).
                let capsule = self.pending.get(&pdu.seq).map(|p| p.capsule).unwrap_or(Name::ZERO);
                self.obs.server_errors.inc();
                vec![ClientEvent::ServerError { capsule, code, detail }]
            }
            DataMsg::Nack { code: NackCode::Busy, retry_after_us } => {
                // Unauthenticated, like ErrResp: never consumes the pending
                // request. It only arms the per-capsule backoff, so the
                // worst a spoofed Nack can do is delay one retry. Jitter is
                // drawn from the client's seeded rng — deterministic under
                // simulation, decorrelated across real clients, so a flash
                // crowd doesn't retry in lockstep when the hint expires.
                let Some(capsule) = self.pending.get(&pdu.seq).map(|p| p.capsule) else {
                    return Vec::new();
                };
                self.obs.nacks_received.inc();
                let jitter = self.rng.gen_range(0..=retry_after_us / 2);
                let not_before = now.saturating_add(retry_after_us).saturating_add(jitter);
                let slot = self.backoff.entry(capsule).or_insert(0);
                *slot = (*slot).max(not_before);
                vec![ClientEvent::Backpressure { capsule, request_seq: pdu.seq, not_before: *slot }]
            }
            // Request-plane messages: clients never receive these; a
            // correct server does not send them. Named explicitly -- not
            // `_` -- so a future DataMsg variant forces a decision here
            // instead of being silently dropped.
            DataMsg::SessionInit { .. }
            | DataMsg::PutMetadata { .. }
            | DataMsg::Host { .. }
            | DataMsg::HostAck { .. }
            | DataMsg::Append { .. }
            | DataMsg::Read { .. }
            | DataMsg::Subscribe { .. }
            | DataMsg::Replicate { .. }
            | DataMsg::ReplicateAck { .. }
            | DataMsg::SyncRequest { .. }
            | DataMsg::SyncResponse { .. } => Vec::new(),
        }
    }

    fn capsule_for_event(&self, record: &Record) -> Option<Name> {
        // Events don't carry the capsule name explicitly; identify the
        // capsule by which tracked writer key verifies the record.
        self.capsules
            .iter()
            .find(|(name, t)| record.verify(name, &t.writer_key).is_ok())
            .map(|(name, _)| *name)
    }

    fn on_session_accept(
        &mut self,
        now: u64,
        request_seq: u64,
        server_eph: [u8; 32],
        client_eph: [u8; 32],
        server: Principal,
        chain: gdp_cert::ServingChain,
        signature: gdp_crypto::Signature,
    ) -> Vec<ClientEvent> {
        let Some(capsule) = self.pending.get(&request_seq).map(|p| p.capsule) else {
            return Vec::new();
        };
        let Some(tracked) = self.capsules.get(&capsule) else {
            return Vec::new();
        };
        // The chain proves the responder is a delegated server for this
        // capsule; the signature binds the DH to that identity (anti-MITM).
        if chain.verify(&tracked.owner_key, now).is_err()
            || chain.server().name() != server.name()
            || chain.adcert.capsule != capsule
        {
            self.obs.verify_failures.inc();
            return vec![ClientEvent::VerificationFailed {
                capsule,
                reason: "session chain invalid",
            }];
        }
        let transcript = session_transcript(&capsule, &client_eph, &server_eph);
        if !server.verify(&transcript, &signature) {
            self.obs.verify_failures.inc();
            return vec![ClientEvent::VerificationFailed {
                capsule,
                reason: "session signature invalid",
            }];
        }
        let Some(flow) = self.flows.get_mut(&capsule) else {
            return Vec::new();
        };
        if *flow.eph.public() != client_eph {
            self.obs.verify_failures.inc();
            return vec![ClientEvent::VerificationFailed {
                capsule,
                reason: "session echoes wrong ephemeral",
            }];
        }
        let Some(shared) = flow.eph.diffie_hellman(&server_eph) else {
            self.obs.verify_failures.inc();
            return vec![ClientEvent::VerificationFailed {
                capsule,
                reason: "degenerate server ephemeral",
            }];
        };
        flow.key = Some(hkdf::derive_key32(capsule.as_bytes(), &shared, b"gdp/flow-key/v1"));
        flow.server = Some(server.name());
        self.pending.remove(&request_seq);
        self.obs.sessions_ready.inc();
        vec![ClientEvent::SessionReady { capsule, server: server.name() }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_capsule::{MetadataBuilder, RangeProof};
    use gdp_cert::{AdCert, Scope, ServingChain};
    use gdp_server::{AckMode, DataCapsuleServer, ReadTarget};

    const FOREVER: u64 = 1 << 50;

    fn owner() -> SigningKey {
        SigningKey::from_seed(&[1u8; 32])
    }
    fn wkey() -> SigningKey {
        SigningKey::from_seed(&[2u8; 32])
    }

    /// Client + server wired back to back (every client request PDU is fed
    /// straight into the server; responses straight back).
    struct Loop {
        client: GdpClient,
        server: DataCapsuleServer,
        sid: gdp_cert::PrincipalId,
        capsule: Name,
    }

    fn looped() -> Loop {
        let sid = gdp_cert::PrincipalId::from_seed(
            gdp_cert::PrincipalKind::Server,
            &[3u8; 32],
            "loop server",
        );
        let mut server = DataCapsuleServer::new(sid.clone());
        let meta = MetadataBuilder::new()
            .writer(&wkey().verifying_key())
            .set_str("description", "loopback")
            .sign(&owner());
        let chain = ServingChain::direct(
            AdCert::issue(&owner(), meta.name(), sid.name(), false, Scope::Global, FOREVER),
            sid.principal().clone(),
        );
        server.host(meta.clone(), chain, vec![]).unwrap();
        let mut client = GdpClient::from_seed(&[4u8; 32], "loop client");
        client.register_writer(&meta, wkey(), PointerStrategy::Chain).unwrap();
        Loop { client, server, sid, capsule: meta.name() }
    }

    impl Loop {
        fn roundtrip(&mut self, pdu: Pdu) -> Vec<ClientEvent> {
            let mut events = Vec::new();
            for resp in self.server.handle_pdu(0, pdu) {
                events.extend(self.client.handle_pdu(0, resp));
            }
            events
        }

        /// Appends `n` records (seqs continue from the last).
        fn append_n(&mut self, n: u64) {
            for i in 0..n {
                let (pdu, _) =
                    self.client.append(self.capsule, &[i as u8], i, AckMode::Local).unwrap();
                assert!(matches!(self.roundtrip(pdu)[0], ClientEvent::AppendAcked { .. }));
            }
        }

        /// What the server answers `target` with right now.
        fn served(&mut self, target: ReadTarget) -> ReadResult {
            let ask =
                Pdu::data(self.client.name(), self.capsule, 0, DataMsg::Read { target }.to_wire());
            match DataMsg::from_wire(&self.server.handle_pdu(0, ask)[0].payload).unwrap() {
                DataMsg::ReadResp { result, .. } => result,
                other => panic!("{target:?} answered {other:?}"),
            }
        }

        /// Asks `target`; the delegated server, correctly signing, answers
        /// `result` instead of what it would have.
        fn ask_answered(&mut self, target: ReadTarget, result: ReadResult) -> Vec<ClientEvent> {
            let request = self.client.read(self.capsule, target);
            let body = read_result_body(&result);
            let signature = gdp_server::proto::sign_response(
                self.sid.signing_key(),
                &self.capsule,
                request.seq,
                &body,
            );
            let auth = ResponseAuth::Signed {
                server: self.sid.principal().clone(),
                chain: self.server.advert_entries()[0].chain.clone(),
                signature,
            };
            let answer = DataMsg::ReadResp { result, auth }.to_wire();
            self.client
                .handle_pdu(0, Pdu::data(self.sid.name(), self.client.name(), request.seq, answer))
        }
    }

    fn rejected(events: &[ClientEvent]) -> &'static str {
        match events {
            [ClientEvent::VerificationFailed { reason, .. }] => reason,
            other => panic!("expected one rejection, got {other:?}"),
        }
    }

    /// Regression: a `Nack{Busy}` must arm a jittered backoff instead of
    /// letting the driver retry immediately (the pre-backoff client had no
    /// retry gate at all: a zero `retry_not_before` right after a Nack was
    /// the hot-loop bug this pins). The Nack must also never consume the
    /// pending request — it is unauthenticated, exactly like `ErrResp`.
    #[test]
    fn nack_arms_jittered_backoff_without_cancelling_pending() {
        const RETRY_AFTER: u64 = 50_000;
        let run = |seed: u64| {
            let mut l = looped();
            l.client.set_rng_seed(seed);
            // Budget of 1 per tick: the first append lands, the second is
            // shed with a Nack by the real server code path.
            l.server.set_overload_policy(1, RETRY_AFTER);
            let (pdu, _) = l.client.append(l.capsule, b"first", 0, AckMode::Local).unwrap();
            let events = l.roundtrip(pdu);
            assert!(matches!(events[0], ClientEvent::AppendAcked { .. }), "{events:?}");
            let (pdu, _) = l.client.append(l.capsule, b"second", 1, AckMode::Local).unwrap();
            let before = l.client.pending_len();
            let events = l.roundtrip(pdu);
            let ClientEvent::Backpressure { capsule, not_before, .. } = events[0] else {
                panic!("shed append must surface Backpressure, got {events:?}");
            };
            assert_eq!(capsule, l.capsule);
            // Pending survives: an unauthenticated Nack cancels nothing.
            assert_eq!(l.client.pending_len(), before);
            // The hot-loop gate: the event's deadline is the one the
            // driver consults before issuing.
            assert_eq!(l.client.retry_not_before(&l.capsule), not_before);
            // Backoff = retry_after + jitter in [0, retry_after/2].
            assert!(
                (RETRY_AFTER..=RETRY_AFTER + RETRY_AFTER / 2).contains(&not_before),
                "not_before {not_before} outside the jitter window"
            );
            not_before
        };
        // Jitter is seeded: same seed replays identically, different seeds
        // decorrelate (so a flash crowd does not retry in lockstep).
        assert_eq!(run(7), run(7), "same seed must replay the same backoff");
        let spread: std::collections::BTreeSet<u64> = (0..8).map(run).collect();
        assert!(spread.len() > 1, "jitter must vary across seeds: {spread:?}");
    }

    #[test]
    fn append_read_subscribe_loop() {
        let mut l = looped();
        // Appends with signed-response auth (no session yet).
        for i in 0..3u64 {
            let (pdu, _) =
                l.client.append(l.capsule, format!("v{i}").as_bytes(), i, AckMode::Local).unwrap();
            let events = l.roundtrip(pdu);
            assert!(matches!(events[0], ClientEvent::AppendAcked { .. }), "{events:?}");
        }
        // Reads of every target verify.
        let pdu = l.client.read(l.capsule, ReadTarget::Range(1, 3));
        let events = l.roundtrip(pdu);
        match &events[0] {
            ClientEvent::ReadOk { result: VerifiedRead::Records(rs), .. } => {
                assert_eq!(rs.len(), 3)
            }
            other => panic!("{other:?}"),
        }
        let pdu = l.client.read(l.capsule, ReadTarget::ProofOf(2));
        let events = l.roundtrip(pdu);
        assert!(matches!(events[0], ClientEvent::ReadOk { result: VerifiedRead::Proven(_), .. }));
        let pdu = l.client.read(l.capsule, ReadTarget::HeartbeatOnly);
        let events = l.roundtrip(pdu);
        assert!(matches!(
            events[0],
            ClientEvent::ReadOk { result: VerifiedRead::Heartbeat(_), .. }
        ));
    }

    #[test]
    fn session_end_to_end_loop() {
        let mut l = looped();
        let pdu = l.client.session_init(l.capsule);
        let events = l.roundtrip(pdu);
        assert!(matches!(events[0], ClientEvent::SessionReady { .. }), "{events:?}");
        assert!(l.client.has_session(&l.capsule));
        // Post-session responses are MAC'd and still verify.
        let (pdu, _) = l.client.append(l.capsule, b"hmac path", 9, AckMode::Local).unwrap();
        let events = l.roundtrip(pdu);
        assert!(matches!(events[0], ClientEvent::AppendAcked { .. }), "{events:?}");
    }

    #[test]
    fn server_error_surfaces() {
        let mut l = looped();
        let pdu = l.client.read(l.capsule, ReadTarget::One(42));
        let events = l.roundtrip(pdu);
        assert!(matches!(
            events[0],
            ClientEvent::ServerError { code: gdp_server::ErrorCode::NotFound, .. }
        ));
    }

    #[test]
    fn subscription_events_verify_in_client() {
        let mut l = looped();
        let sub = l.client.subscribe(l.capsule, 0);
        // No records yet: subscribing returns nothing.
        assert!(l.roundtrip(sub).is_empty());
        // New appends trigger Event PDUs to the subscriber (same client).
        let (pdu, _) = l.client.append(l.capsule, b"published", 1, AckMode::Local).unwrap();
        let events = l.roundtrip(pdu);
        let got_event = events.iter().any(
            |e| matches!(e, ClientEvent::SubEvent { record, .. } if record.body == b"published"),
        );
        assert!(got_event, "{events:?}");
    }

    #[test]
    fn unknown_response_seq_ignored() {
        let mut l = looped();
        let (pdu, _) = l.client.append(l.capsule, b"x", 0, AckMode::Local).unwrap();
        let mut responses = l.server.handle_pdu(0, pdu);
        let mut resp = responses.remove(0);
        resp.seq = 9999; // response to a request we never made
        assert!(l.client.handle_pdu(0, resp).is_empty());
    }

    #[test]
    fn error_pdu_reports_unreachable() {
        let mut l = looped();
        let ghost = Name::from_content(b"ghost");
        let err = Pdu {
            pdu_type: PduType::Error,
            src: Name::from_content(b"router"),
            dst: l.client.name(),
            seq: 1,
            payload: ghost.0.to_vec().into(),
        };
        let events = l.client.handle_pdu(0, err);
        assert_eq!(events, vec![ClientEvent::Unreachable { name: ghost }]);
    }

    /// Regression (client timeouts): a request whose response is lost must
    /// not leak pending state forever — the deadline sweep expires it,
    /// surfaces a [`ClientEvent::Timeout`], and counts it. A late response
    /// to the expired seq is then ignored, and re-issuing the same signed
    /// record through `append_record` still acks.
    #[test]
    fn pending_requests_expire_and_can_be_reissued() {
        let metrics = gdp_obs::Metrics::new();
        let sid = gdp_cert::PrincipalId::from_seed(
            gdp_cert::PrincipalKind::Server,
            &[3u8; 32],
            "loop server",
        );
        let mut server = DataCapsuleServer::new(sid.clone());
        let meta = MetadataBuilder::new().writer(&wkey().verifying_key()).sign(&owner());
        let chain = ServingChain::direct(
            AdCert::issue(&owner(), meta.name(), sid.name(), false, Scope::Global, FOREVER),
            sid.principal().clone(),
        );
        server.host(meta.clone(), chain, vec![]).unwrap();
        let mut client = GdpClient::from_seed_with_obs(&[4u8; 32], "c", &metrics.scope("client"));
        client.register_writer(&meta, wkey(), PointerStrategy::Chain).unwrap();
        let capsule = meta.name();

        let (pdu, record) = client.append(capsule, b"lost in transit", 0, AckMode::Local).unwrap();
        let lost_seq = pdu.seq;
        assert_eq!(client.pending_len(), 1);

        // First sweep stamps; one timeout later the request expires.
        assert!(client.sweep_timeouts(1_000).is_empty());
        assert!(client.sweep_timeouts(1_000 + DEFAULT_REQUEST_TIMEOUT_US - 1).is_empty());
        let events = client.sweep_timeouts(1_000 + DEFAULT_REQUEST_TIMEOUT_US);
        assert_eq!(
            events,
            vec![ClientEvent::Timeout {
                capsule,
                request_seq: lost_seq,
                kind: RequestKind::Append
            }]
        );
        assert_eq!(client.pending_len(), 0);
        assert_eq!(metrics.counter_value("client", "requests_timed_out"), 1);

        // The "lost" response finally arrives: no pending entry, ignored.
        for resp in server.handle_pdu(0, pdu) {
            assert!(client.handle_pdu(0, resp).is_empty());
        }

        // Re-issue the already-signed record under a fresh request seq.
        let retry = client.append_record(capsule, record, AckMode::Local);
        assert_ne!(retry.seq, lost_seq);
        let mut acked = false;
        for resp in server.handle_pdu(0, retry) {
            for ev in client.handle_pdu(0, resp) {
                acked |= matches!(ev, ClientEvent::AppendAcked { .. });
            }
        }
        assert!(acked);
        assert_eq!(metrics.counter_value("client", "acked_writes"), 1);
        assert_eq!(metrics.counter_value("client", "requests_issued"), 2);
    }

    #[test]
    fn untracked_capsule_cannot_be_written() {
        let mut client = GdpClient::from_seed(&[5u8; 32], "c");
        let ghost = Name::from_content(b"ghost");
        assert!(client.append(ghost, b"x", 0, AckMode::Local).is_err());
        // Registering with the wrong key also fails.
        let meta = MetadataBuilder::new().writer(&wkey().verifying_key()).sign(&owner());
        let not_writer = SigningKey::from_seed(&[66u8; 32]);
        assert!(client.register_writer(&meta, not_writer, PointerStrategy::Chain).is_err());
    }

    /// A proof of another seq is a valid proof of the wrong thing.
    #[test]
    fn a_read_answer_must_be_for_the_seq_asked() {
        let mut l = looped();
        l.append_n(5);
        let proof_of_4 = l.served(ReadTarget::ProofOf(4));
        assert_eq!(
            rejected(&l.ask_answered(ReadTarget::ProofOf(2), proof_of_4)),
            "proof is for another seq"
        );
        let record_4 = l.served(ReadTarget::One(4));
        assert_eq!(
            rejected(&l.ask_answered(ReadTarget::One(3), record_4.clone())),
            "record is for another seq"
        );
        // The right answer to another kind of question is no answer either.
        let asked = ReadTarget::ProofOf(4);
        assert_eq!(rejected(&l.ask_answered(asked, record_4)), "answer is not to what was asked");
    }

    /// A range answer starts where asked: a run from 2 for `Range(1, 5)`
    /// verifies on its own, and omits record 1.
    #[test]
    fn a_range_must_start_where_asked() {
        let mut l = looped();
        l.append_n(5);
        let signed = |l: &mut Loop, s| match l.served(ReadTarget::One(s)) {
            ReadResult::Record(r) => r,
            other => panic!("{other:?}"),
        };
        let bare: Vec<Record> = (2..=5).map(|s| signed(&mut l, s)).collect();
        let events = l.ask_answered(ReadTarget::Range(1, 5), ReadResult::Records(bare));
        assert_eq!(rejected(&events), "range does not start where asked");
        let from_2 = l.served(ReadTarget::Range(2, 5));
        assert!(matches!(from_2, ReadResult::RangeProofResult(_)));
        let events = l.ask_answered(ReadTarget::Range(1, 5), from_2);
        assert_eq!(rejected(&events), "range does not start where asked");
    }

    /// A run may stop short of `b` only at the head of the heartbeat
    /// anchoring it; a run cut elsewhere — or any short run with no
    /// heartbeat — is a truncation. (A run that ends at its own heartbeat
    /// is the capsule as a replica at that seq shows it: refused once a
    /// newer heartbeat was seen, below.)
    #[test]
    fn a_range_may_stop_short_only_at_its_heartbeat() {
        let mut l = looped();
        l.append_n(5);
        let ReadResult::Proof(to_3) = l.served(ReadTarget::ProofOf(3)) else { panic!() };
        let ReadResult::RangeProofResult(run) = l.served(ReadTarget::Range(1, 3)) else { panic!() };
        assert_eq!(to_3.heartbeat.seq, 5);
        let cut = RangeProof { newest: to_3, older: run.older };
        let events = l.ask_answered(ReadTarget::Range(1, 5), ReadResult::RangeProofResult(cut));
        assert_eq!(rejected(&events), "range does not end where asked");
        let ReadResult::RangeProofResult(p) = l.served(ReadTarget::Range(1, 5)) else { panic!() };
        let mut records = p.verify(&l.capsule, &wkey().verifying_key()).unwrap();
        records.truncate(3);
        let events = l.ask_answered(ReadTarget::Range(1, 5), ReadResult::Records(records));
        assert_eq!(rejected(&events), "range does not end where asked");
        // Asking past the head: the run ends at the heartbeat, accepted.
        let pdu = l.client.read(l.capsule, ReadTarget::Range(1, 9));
        match &l.roundtrip(pdu)[..] {
            [ClientEvent::ReadOk { result: VerifiedRead::Records(rs), .. }] => {
                assert_eq!(rs.len(), 5)
            }
            other => panic!("{other:?}"),
        }
    }

    /// A run cut short at an old heartbeat's head claims the capsule ends
    /// there; once a newer heartbeat was seen, that is stale state.
    #[test]
    fn a_range_cut_short_by_an_older_heartbeat_is_stale() {
        let mut l = looped();
        l.append_n(3);
        let old = l.served(ReadTarget::Range(1, 10));
        l.append_n(2);
        let pdu = l.client.read(l.capsule, ReadTarget::HeartbeatOnly);
        assert!(matches!(l.roundtrip(pdu)[0], ClientEvent::ReadOk { .. }));
        let events = l.ask_answered(ReadTarget::Range(1, 10), old.clone());
        assert_eq!(rejected(&events), "stale replica state");
        // The same old proof answers a range it covers whole: time shift.
        let ReadResult::RangeProofResult(mut p) = old else { panic!() };
        p.older.remove(0);
        let events = l.ask_answered(ReadTarget::Range(2, 3), ReadResult::RangeProofResult(p));
        assert!(matches!(events[..], [ClientEvent::ReadOk { .. }]), "{events:?}");
    }

    /// A range proof's heartbeat advances `latest_seen` like a membership
    /// proof's: a later answer from behind it is stale.
    #[test]
    fn a_range_proof_advances_latest_seen() {
        let mut l = looped();
        l.append_n(5);
        let stale = l.served(ReadTarget::Latest);
        l.append_n(1);
        // Past the head: the run, and its heartbeat, reach seq 6.
        let pdu = l.client.read(l.capsule, ReadTarget::Range(1, 9));
        assert!(matches!(l.roundtrip(pdu)[..], [ClientEvent::ReadOk { .. }]));
        assert_eq!(rejected(&l.ask_answered(ReadTarget::Latest, stale)), "stale replica state");
    }
}
