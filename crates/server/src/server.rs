//! The DataCapsule-server state machine.
//!
//! "The task of DataCapsule-servers is to make information durable and
//! available to the appropriate readers while maintaining the integrity of
//! data" (paper §IV-B). This server:
//!
//! * verifies every record against the capsule's writer key before storing
//!   it (the threat model assumes *other* servers may not);
//! * keeps per hosted capsule a [`CapsuleIndex`] — heads, links, pending
//!   bookkeeping, an address and a wire bound per record — and the records
//!   themselves, headers and signatures included, only in the capsule's
//!   stream of the node's one [`SegLog`], which the server owns: a node's
//!   capacity is its disk;
//! * makes them durable with that log's one group commit: [`tick`] flushes
//!   the log once and releases every ack, whatever its capsule, that the
//!   node's durable epoch now covers;
//! * answers reads with records, ranges, proofs, and heartbeats — index →
//!   store → encode, proof hops and heartbeats read through the store like
//!   bodies — authenticated by signature or per-flow HMAC (§V "Secure
//!   Responses");
//! * implements the durability modes of §VI-B (local ack, quorum, all);
//! * replicates leaderlessly: appends are forwarded to peer replicas "as
//!   is ... in arbitrary order" and holes heal via anti-entropy (§V-A);
//! * pushes subscription events (the pub-sub access mode, §V).
//!
//! Like the router, it is sans-I/O: `handle_pdu` maps one inbound PDU to
//! outbound PDUs, so it runs identically on the simulator or threads.
//!
//! [`tick`]: DataCapsuleServer::tick

// Non-test matches on wire enums (`Pdu`, `PduType`, `DataMsg`) name every variant: a
// new variant is a compile error here, not silent message loss behind a `_ =>`.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
// A discarded store `Result` is a discarded durability answer: each of the
// silent-durability bugs found in this file began as a `let _ =`.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

use crate::ledger::{AckLedger, AckTo, Parked, Step};
use crate::proto::{
    append_ack_body, event_body, mac_response, read_result_body, session_transcript, sign_response,
    AckMode, DataMsg, ErrorCode, NackCode, ReadResult, ReadTarget, ResponseAuth,
};
use gdp_capsule::{
    CapsuleError, CapsuleIndex, CapsuleMetadata, Heartbeat, IngestOutcome, MembershipProof,
    Pointer, RangeProof, Record,
};
use gdp_cert::{CapsuleAdvert, PrincipalId, PrincipalKind, ServingChain};
use gdp_crypto::x25519::EphemeralKeyPair;
use gdp_crypto::{hkdf, Signature};
use gdp_obs::{Counter, Scope as ObsScope};
use gdp_store::{AppendAck, Backing, SegLog, StorageEngine, StoreError};
use gdp_wire::{Name, Pdu, PduType, Wire, MAX_PAYLOAD};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

/// Cached observability handles: resolved once at construction so the
/// request paths only bump atomics.
struct ServerObs {
    scope: ObsScope,
    session_inits: Counter,
    sessions_established: Counter,
    appends_committed: Counter,
    appends_rejected: Counter,
    reads_served: Counter,
    events_pushed: Counter,
    replicated_in: Counter,
    replicated_out: Counter,
    sync_served: Counter,
    verify_failures: Counter,
    durability_timeouts: Counter,
    acks_deferred: Counter,
    acks_released: Counter,
    appends_shed: Counter,
    requests_undecodable: Counter,
    recovery_records_skipped: Counter,
    sync_store_failures: Counter,
    flush_failures: Counter,
    read_store_failures: Counter,
    reads_refused_oversize: Counter,
}

impl ServerObs {
    fn new(scope: &ObsScope) -> ServerObs {
        ServerObs {
            session_inits: scope.counter("session_inits"),
            sessions_established: scope.counter("sessions_established"),
            appends_committed: scope.counter("appends_committed"),
            appends_rejected: scope.counter("appends_rejected"),
            reads_served: scope.counter("reads_served"),
            events_pushed: scope.counter("events_pushed"),
            replicated_in: scope.counter("replicated_in"),
            replicated_out: scope.counter("replicated_out"),
            sync_served: scope.counter("sync_served"),
            verify_failures: scope.counter("verify_failures"),
            durability_timeouts: scope.counter("durability_timeouts"),
            acks_deferred: scope.counter("acks_deferred"),
            acks_released: scope.counter("acks_released"),
            appends_shed: scope.counter("appends_shed"),
            requests_undecodable: scope.counter("requests_undecodable"),
            recovery_records_skipped: scope.counter("recovery_records_skipped"),
            sync_store_failures: scope.counter("sync_store_failures"),
            flush_failures: scope.counter("flush_failures"),
            read_store_failures: scope.counter("read_store_failures"),
            reads_refused_oversize: scope.counter("reads_refused_oversize"),
            scope: scope.clone(),
        }
    }

    fn trace(&self, at_us: u64, event: &str, fields: &[(&str, String)]) {
        self.scope.trace(at_us, event, fields);
    }
}

/// Bytes a `ReadResp` may spend on records or a proof: a frame's payload
/// less room for the response authentication (a signed one carries the
/// serving chain).
const MAX_ANSWER_BYTES: u64 = (MAX_PAYLOAD - 64 * 1024) as u64;

/// True when records of these wire bounds together fit one `ReadResp`;
/// stops at the first record past the budget, however long the range.
fn fits_one_answer<'a>(mut bounds: impl Iterator<Item = &'a u64>) -> bool {
    let sum = bounds.try_fold(0u64, |sum, bound| {
        sum.checked_add(*bound).filter(|sum| *sum <= MAX_ANSWER_BYTES)
    });
    sum.is_some()
}

/// A hosted capsule. Its records live only in its stream of the server's
/// log: every record served — a proof hop or a heartbeat's head included —
/// is read back from there by the `stored*` methods.
struct Hosted {
    /// What linking and sizing need of every record: heads, links, pending
    /// bookkeeping, an address and a wire bound. No header, no body.
    index: CapsuleIndex,
    chain: ServingChain,
    peers: Vec<Name>,
    subscribers: Vec<Name>,
}

impl Hosted {
    /// The whole record behind an index entry, read by the entry's key.
    fn stored(&self, log: &mut SegLog, at: &Pointer) -> Result<Record, StoreError> {
        let found = log.get(&self.index.name(), at)?;
        found.ok_or_else(|| StoreError::Corrupt("indexed record missing from store".to_string()))
    }

    /// The whole record linked at `seq`; `None` when no single record is.
    fn stored_at(&self, log: &mut SegLog, seq: u64) -> Option<Result<Record, StoreError>> {
        let mut linked = self.index.iter_range(seq, seq);
        match (linked.next(), linked.next()) {
            (Some((at, _)), None) => Some(self.stored(log, at)),
            _ => None,
        }
    }

    /// The unique head's whole record and the heartbeat it carries;
    /// `None` when there is no unique head.
    fn stored_head(&self, log: &mut SegLog) -> Option<Result<(Heartbeat, Record), StoreError>> {
        let [head] = self.index.heads()[..] else { return None };
        Some(self.stored(log, &head).map(|r| (Heartbeat::from_record(&self.index.name(), &r), r)))
    }

    /// The whole linked records of `[from, to]` in index order, each with
    /// its address. One sequential pull when the store's records are the
    /// linked ones — always, short of a record parked behind a hole in the
    /// span; otherwise, or when the pull fails, record by record, so one
    /// unreadable entry costs one entry.
    fn stored_range(
        &self,
        log: &mut SegLog,
        from: u64,
        to: u64,
    ) -> Vec<(Pointer, Result<Record, StoreError>)> {
        let wanted: Vec<Pointer> = self.index.iter_range(from, to).map(|(at, _)| *at).collect();
        if wanted.is_empty() {
            return Vec::new();
        }
        if let Ok(run) = log.range(&self.index.name(), from, to) {
            if run.len() == wanted.len()
                && run.iter().zip(&wanted).all(|(r, at)| r.pointer() == *at)
            {
                return wanted.into_iter().zip(run.into_iter().map(Ok)).collect();
            }
        }
        wanted.into_iter().map(|at| (at, self.stored(log, &at))).collect()
    }
}

/// An established client flow: the key plus the handshake inputs that
/// produced it, so a retransmitted `SessionInit` can be answered
/// idempotently (same server ephemeral, same key, same accept) instead of
/// silently re-keying — a re-key on a duplicate leaves the client holding
/// the first key while the server MACs with the second (found by seed 36
/// of the chaos sweep).
struct FlowSession {
    client_eph: [u8; 32],
    server_eph: [u8; 32],
    key: [u8; 32],
}

/// A DataCapsule-server.
pub struct DataCapsuleServer {
    id: PrincipalId,
    /// Ordered by capsule name so anti-entropy fan-out and advertisement
    /// catalogs are iteration-order independent (deterministic replay).
    hosted: BTreeMap<Name, Hosted>,
    /// Flow keys per `(client, capsule)`: the key is derived with the
    /// capsule name and the client keeps one flow per capsule, so two
    /// capsules on this server are two sessions even for one client.
    sessions: HashMap<(Name, Name), FlowSession>,
    /// Every ack not yet allowed to leave (DESIGN.md, "Ack ledger").
    ledger: AckLedger,
    /// The node's one log, owned here: each hosted capsule's records live
    /// in its stream, and [`DataCapsuleServer::tick`] flushes it.
    log: SegLog,
    /// Cached metric handles (shared registry when built `with_obs`).
    obs: ServerObs,
    /// How long an ack may stay parked — waiting for replica acks or its
    /// covering fsync — before the append fails (µs).
    pub durability_timeout: u64,
    /// Appends accepted per tick before the server sheds with
    /// `Nack{Busy}`; 0 disables shedding (the default).
    append_budget: u64,
    /// Appends accepted since the last [`DataCapsuleServer::tick`].
    appends_this_tick: u64,
    /// The backoff hint carried in `Nack{Busy}` responses (µs).
    retry_after_us: u64,
    readvertise: bool,
    /// Anti-entropy rounds so far: each [`DataCapsuleServer::tick`] asks
    /// the next peer of a capsule, whatever the tick's time.
    sync_rounds: usize,
    /// Session-ephemeral-key generator. Entropy-seeded by default;
    /// [`DataCapsuleServer::set_rng_seed`] makes handshakes replayable.
    rng: StdRng,
}

impl DataCapsuleServer {
    /// Creates a server with the given identity, registering its metrics
    /// under `obs` — the scope a node hands out from its shared per-node
    /// [`gdp_obs::Metrics`], or `&ObsScope::default()` for a private one.
    pub fn new(id: PrincipalId, obs: &ObsScope) -> DataCapsuleServer {
        assert_eq!(id.principal().kind, PrincipalKind::Server);
        DataCapsuleServer {
            id,
            hosted: BTreeMap::new(),
            sessions: HashMap::new(),
            ledger: AckLedger::default(),
            // A fresh `MemFs` nobody else holds has no fault scheduled.
            log: StorageEngine::new(Backing::Memory).log().expect("a fresh MemFs opens"),
            obs: ServerObs::new(obs),
            durability_timeout: 10_000_000,
            append_budget: 0,
            appends_this_tick: 0,
            retry_after_us: 50_000,
            readvertise: false,
            sync_rounds: 0,
            rng: StdRng::from_entropy(),
        }
    }

    /// Replaces the ephemeral-key generator with a deterministic one, so
    /// simulated runs replay bit-for-bit. Never call this in production:
    /// session keys become a function of the seed.
    pub fn set_rng_seed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Enables load shedding: at most `append_budget` appends are accepted
    /// per [`DataCapsuleServer::tick`] interval; the excess is answered
    /// with `Nack{Busy, retry_after_us}` (a cheap, unauthenticated hint —
    /// the client treats it like `ErrResp` and never retires a pending
    /// request on it, so a forged Nack can at worst delay one retry).
    /// `append_budget == 0` disables shedding.
    pub fn set_overload_policy(&mut self, append_budget: u64, retry_after_us: u64) {
        self.append_budget = append_budget;
        self.retry_after_us = retry_after_us;
    }

    /// The server's flat name.
    pub fn name(&self) -> Name {
        self.id.name()
    }

    /// The server's public identity.
    pub fn principal(&self) -> &gdp_cert::Principal {
        self.id.principal()
    }

    /// The server's principal id (for attach handshakes).
    pub fn principal_id(&self) -> &PrincipalId {
        &self.id
    }

    /// Mounts the node's log, which the server then owns: every later
    /// [`DataCapsuleServer::host`] — from the config or from a wire `Host`
    /// request — keeps the capsule's records in its stream, and
    /// [`DataCapsuleServer::tick`] flushes it. The default is a log on an
    /// in-memory file system under `fsync = always`. The ack ledger starts
    /// over: its durable epoch was the old log's.
    ///
    /// # Panics
    ///
    /// If a capsule is already hosted: its stream is in the old log, which
    /// no tick would flush again.
    pub fn mount(&mut self, log: SegLog) {
        assert!(self.hosted.is_empty(), "mount the node's log before hosting a capsule");
        self.log = log;
        self.ledger = AckLedger::default();
    }

    /// The mounted log, for tests and benches that drive or inspect it
    /// beside the server.
    pub fn log_mut(&mut self) -> &mut SegLog {
        &mut self.log
    }

    /// Starts hosting a capsule on its stream of the node's log, replaying
    /// whatever the stream already holds. `chain` must be a delegation
    /// ending at this server; `peers` are the other delegated replicas.
    pub fn host(
        &mut self,
        metadata: CapsuleMetadata,
        chain: ServingChain,
        peers: Vec<Name>,
    ) -> Result<(), StoreError> {
        if chain.server().name() != self.name() {
            return Err(CapsuleError::BadMetadata("chain does not end at this server").into());
        }
        let name = metadata.name();
        let mut index = CapsuleIndex::new(metadata.clone())?;
        self.log.put_metadata(&name, &metadata)?;
        // Recover any records already in the store (restart path): each is
        // read back whole and fully verified, and only its address and
        // wire bound are kept. A seq the store cannot read back (rot in a
        // sealed segment) or whose record no longer verifies becomes a
        // hole for anti-entropy to refill — counted and traced, never
        // silent.
        let latest = self.log.latest_seq(&name);
        for seq in 1..=latest {
            let mut error = None;
            match self.log.range(&name, seq, seq) {
                Ok(records) => {
                    for r in records {
                        if let Err(e) = index.ingest(r) {
                            error.get_or_insert(e.to_string());
                        }
                    }
                }
                Err(e) => error = Some(e.to_string()),
            }
            if let Some(error) = error {
                self.obs.recovery_records_skipped.inc();
                self.obs.trace(
                    0,
                    "recovery_skipped",
                    &[("capsule", name.to_hex()), ("seq", seq.to_string()), ("error", error)],
                );
            }
        }
        self.hosted.insert(name, Hosted { index, chain, peers, subscribers: Vec::new() });
        Ok(())
    }

    /// True when a Host request arrived since the last advertisement —
    /// the node adapter re-runs the secure-advertisement handshake.
    pub fn needs_readvertise(&mut self) -> bool {
        std::mem::take(&mut self.readvertise)
    }

    /// Names of hosted capsules.
    pub fn hosted_names(&self) -> Vec<Name> {
        self.hosted.keys().copied().collect()
    }

    /// Read access to a hosted capsule's verified state: heads, links and
    /// pending bookkeeping over an address and a wire bound per record.
    /// Whole records come from [`DataCapsuleServer::stored_record`].
    pub fn capsule(&self, name: &Name) -> Option<&CapsuleIndex> {
        self.hosted.get(name).map(|h| &h.index)
    }

    /// The whole record linked at `seq` of a hosted capsule, read back
    /// from the log exactly as a `Read` is served. `None` when the capsule
    /// is not hosted or `seq` holds no single linked record.
    pub fn stored_record(&mut self, name: &Name, seq: u64) -> Result<Option<Record>, StoreError> {
        let Some(hosted) = self.hosted.get(name) else { return Ok(None) };
        hosted.stored_at(&mut self.log, seq).transpose()
    }

    /// Builds the advertisement entries for all hosted capsules (for the
    /// secure-advertisement handshake).
    pub fn advert_entries(&self) -> Vec<CapsuleAdvert> {
        self.hosted
            .values()
            .map(|h| CapsuleAdvert { metadata: h.index.metadata().clone(), chain: h.chain.clone() })
            .collect()
    }

    fn data_pdu(&self, dst: Name, seq: u64, msg: &DataMsg) -> Pdu {
        Pdu { pdu_type: PduType::Data, src: self.name(), dst, seq, payload: msg.to_wire().into() }
    }

    fn err_pdu(&self, dst: Name, seq: u64, code: ErrorCode, detail: &str) -> Pdu {
        self.data_pdu(dst, seq, &DataMsg::ErrResp { code, detail: detail.to_string() })
    }

    fn auth_for(
        &self,
        capsule: &Name,
        client: &Name,
        request_seq: u64,
        body: &[u8],
    ) -> ResponseAuth {
        match self.sessions.get(&(*client, *capsule)) {
            Some(session) => ResponseAuth::Mac {
                server: self.id.name(),
                epoch: session.client_eph[..8].try_into().expect("8-byte epoch"),
                tag: mac_response(&session.key, capsule, request_seq, body),
            },
            None => {
                let chain = self.hosted[capsule].chain.clone();
                ResponseAuth::Signed {
                    server: self.id.principal().clone(),
                    chain,
                    signature: sign_response(self.id.signing_key(), capsule, request_seq, body),
                }
            }
        }
    }

    /// The `AppendAck` or `ReplicateAck` a released ledger entry stands for.
    fn ack_pdu(&self, ack: &Parked) -> Pdu {
        match ack.to {
            AckTo::Client { client, request_seq } => {
                let body = append_ack_body(ack.record_seq, &ack.hash, ack.replicas);
                let auth = self.auth_for(&ack.capsule, &client, request_seq, &body);
                let msg = DataMsg::AppendAck {
                    seq: ack.record_seq,
                    hash: ack.hash,
                    replicas: ack.replicas,
                    auth,
                };
                self.data_pdu(client, request_seq, &msg)
            }
            AckTo::Upstream { peer } => self.data_pdu(
                peer,
                0,
                &DataMsg::ReplicateAck { capsule: ack.capsule, hash: ack.hash },
            ),
        }
    }

    /// Turns what the ledger decided into PDUs (appended to `out`),
    /// counters and traces.
    fn settle(&mut self, now: u64, steps: Vec<Step>, mut out: Vec<Pdu>) -> Vec<Pdu> {
        for step in steps {
            match step {
                Step::Deferred => self.obs.acks_deferred.inc(),
                Step::Release(ack) => out.push(self.ack_pdu(&ack)),
                Step::Fail(ack) => {
                    // Only a client is told: the upstream server keeps its
                    // own deadline for the record.
                    let AckTo::Client { client, request_seq } = ack.to else { continue };
                    self.obs.durability_timeouts.inc();
                    self.obs.trace(
                        now,
                        "durability_timeout",
                        &[("capsule", ack.capsule.to_hex()), ("seq", ack.record_seq.to_string())],
                    );
                    out.push(self.err_pdu(
                        client,
                        request_seq,
                        ErrorCode::DurabilityTimeout,
                        "replica acks or fsync not in time",
                    ));
                }
            }
        }
        out
    }

    /// Pushes `record` to each of `subs`.
    fn push_events(&self, capsule: &Name, subs: &[Name], record: &Record, out: &mut Vec<Pdu>) {
        let body = event_body(record);
        for sub in subs {
            let auth = self.auth_for(capsule, sub, 0, &body);
            out.push(self.data_pdu(*sub, 0, &DataMsg::Event { record: record.clone(), auth }));
            self.obs.events_pushed.inc();
        }
    }

    /// Main entry point. `pdu.dst` is either a hosted capsule name
    /// (client requests) or this server's own name (peer replication).
    pub fn handle_pdu(&mut self, now: u64, pdu: Pdu) -> Vec<Pdu> {
        if pdu.pdu_type != PduType::Data {
            return Vec::new();
        }
        let msg = match DataMsg::from_wire(&pdu.payload) {
            Ok(m) => m,
            Err(_) => {
                // Counted so byzantine-flood accounting can balance every
                // garbage frame a hostile peer lands on a server.
                self.obs.requests_undecodable.inc();
                return vec![self.err_pdu(pdu.src, pdu.seq, ErrorCode::BadRequest, "undecodable")];
            }
        };
        let client = pdu.src;
        let seq = pdu.seq;
        match msg {
            DataMsg::SessionInit { client_eph } => {
                self.on_session_init(pdu.dst, client, seq, client_eph)
            }
            DataMsg::PutMetadata { metadata } => {
                self.on_put_metadata(pdu.dst, client, seq, metadata)
            }
            DataMsg::Append { record, ack_mode } => {
                self.on_append(now, pdu.dst, client, seq, record, ack_mode)
            }
            DataMsg::Read { target } => self.on_read(now, pdu.dst, client, seq, target),
            DataMsg::Subscribe { from_seq } => {
                self.on_subscribe(now, pdu.dst, client, seq, from_seq)
            }
            DataMsg::Host { metadata, chain, peers } => {
                self.on_host(now, client, seq, metadata, chain, peers)
            }
            DataMsg::Replicate { capsule, record } => {
                self.on_record(now, capsule, record, AckTo::Upstream { peer: client }, 0)
            }
            DataMsg::ReplicateAck { capsule, hash } => {
                let steps = self.ledger.replica_ack(capsule, hash, client);
                self.settle(now, steps, Vec::new())
            }
            DataMsg::SyncRequest { capsule, have_seq, missing } => {
                self.on_sync_request(now, capsule, client, have_seq, missing)
            }
            DataMsg::SyncResponse { capsule, records } => {
                self.on_sync_response(now, capsule, records)
            }
            // Server-originated messages arriving at a server are ignored.
            DataMsg::HostAck { .. }
            | DataMsg::SessionAccept { .. }
            | DataMsg::AppendAck { .. }
            | DataMsg::ReadResp { .. }
            | DataMsg::Event { .. }
            | DataMsg::ErrResp { .. }
            | DataMsg::Nack { .. } => Vec::new(),
        }
    }

    fn on_session_init(
        &mut self,
        capsule: Name,
        client: Name,
        seq: u64,
        client_eph: [u8; 32],
    ) -> Vec<Pdu> {
        self.obs.session_inits.inc();
        if !self.hosted.contains_key(&capsule) {
            return vec![self.err_pdu(client, seq, ErrorCode::NotServing, "unknown capsule")];
        }
        // Idempotence: a retransmitted or fabric-duplicated init for the
        // ephemeral we already answered must reproduce the *same* accept.
        // Generating a fresh server ephemeral here would replace the key
        // while the client (which processes only the first accept) keeps
        // the old one — poisoning every MAC'd response thereafter.
        let server_eph = match self.sessions.get(&(client, capsule)) {
            Some(s) if s.client_eph == client_eph => s.server_eph,
            _ => {
                let eph = EphemeralKeyPair::generate(&mut self.rng);
                let Some(shared) = eph.diffie_hellman(&client_eph) else {
                    return vec![self.err_pdu(
                        client,
                        seq,
                        ErrorCode::BadRequest,
                        "degenerate key",
                    )];
                };
                let key = hkdf::derive_key32(capsule.as_bytes(), &shared, b"gdp/flow-key/v1");
                let server_eph = *eph.public();
                let session = FlowSession { client_eph, server_eph, key };
                self.sessions.insert((client, capsule), session);
                self.obs.sessions_established.inc();
                server_eph
            }
        };
        let transcript = session_transcript(&capsule, &client_eph, &server_eph);
        let signature: Signature = self.id.signing_key().sign(&transcript);
        let chain = self.hosted[&capsule].chain.clone();
        let msg = DataMsg::SessionAccept {
            server_eph,
            client_eph,
            server: self.id.principal().clone(),
            chain,
            signature,
        };
        vec![self.data_pdu(client, seq, &msg)]
    }

    fn on_put_metadata(
        &mut self,
        capsule: Name,
        client: Name,
        seq: u64,
        metadata: CapsuleMetadata,
    ) -> Vec<Pdu> {
        // Metadata for an already-hosted capsule is idempotent; metadata
        // for an unknown capsule is accepted only if it hashes to the
        // destination name (the server may then be delegated separately).
        let hosted = self.hosted.contains_key(&capsule);
        match hosted.then(|| self.log.put_metadata(&capsule, &metadata)) {
            Some(Ok(())) => Vec::new(),
            Some(Err(_)) => {
                vec![self.err_pdu(client, seq, ErrorCode::BadRequest, "storage failure")]
            }
            None => {
                vec![self.err_pdu(client, seq, ErrorCode::NotServing, "host() this capsule first")]
            }
        }
    }

    fn on_host(
        &mut self,
        now: u64,
        owner_client: Name,
        seq: u64,
        metadata: CapsuleMetadata,
        chain: ServingChain,
        peers: Vec<Name>,
    ) -> Vec<Pdu> {
        // Verify the delegation before accepting: the chain must come from
        // the capsule's owner and end at this server.
        let capsule = metadata.name();
        let Ok(owner_key) = metadata.owner_key() else {
            return vec![self.err_pdu(owner_client, seq, ErrorCode::BadRequest, "no owner key")];
        };
        if metadata.verify().is_err()
            || chain.verify(&owner_key, now).is_err()
            || chain.adcert.capsule != capsule
            || chain.server().name() != self.name()
        {
            self.obs.verify_failures.inc();
            self.obs.trace(now, "host_rejected", &[("capsule", capsule.to_hex())]);
            return vec![self.err_pdu(
                owner_client,
                seq,
                ErrorCode::VerificationFailed,
                "invalid hosting delegation",
            )];
        }
        if !self.hosted.contains_key(&capsule) {
            if self.host(metadata, chain, peers).is_err() {
                return vec![self.err_pdu(owner_client, seq, ErrorCode::BadRequest, "host failed")];
            }
            self.readvertise = true;
        }
        vec![self.data_pdu(owner_client, seq, &DataMsg::HostAck { capsule })]
    }

    fn on_append(
        &mut self,
        now: u64,
        capsule_name: Name,
        client: Name,
        seq: u64,
        record: Record,
        ack_mode: AckMode,
    ) -> Vec<Pdu> {
        // Shed before any verification or storage work: under overload the
        // cheapest outcome must be the common one. The Nack is a hint, not
        // an authenticated failure — the client keeps the request pending
        // and retries after `retry_after_us` plus jitter.
        if self.append_budget > 0 && self.appends_this_tick >= self.append_budget {
            self.obs.appends_shed.inc();
            return vec![self.data_pdu(
                client,
                seq,
                &DataMsg::Nack { code: NackCode::Busy, retry_after_us: self.retry_after_us },
            )];
        }
        self.appends_this_tick += 1;
        let needed = match ack_mode {
            AckMode::Local => 0,
            AckMode::Quorum(n) => n,
            AckMode::All => u32::MAX,
        };
        let to = AckTo::Client { client, request_seq: seq };
        self.on_record(now, capsule_name, record, to, needed)
    }

    /// The one path a record takes into a hosted capsule, fresh or
    /// duplicate, from a client (`Append`: forwarded on to the peers, acked
    /// under *this* request's ack mode — so a retry is never acked on the
    /// local copy alone) or from an upstream replica (`Replicate`, which
    /// waits for the covering fsync exactly like a client ack, because a
    /// `ReplicateAck` may count toward a client's quorum): verify, persist,
    /// index, forward, push to subscribers, park the ack. In that order —
    /// the index names only records the store accepted, because the store
    /// is where their bodies are served from.
    fn on_record(
        &mut self,
        now: u64,
        capsule_name: Name,
        record: Record,
        to: AckTo,
        needed: u32,
    ) -> Vec<Pdu> {
        let from_client = matches!(to, AckTo::Client { .. });
        let Some(hosted) = self.hosted.get_mut(&capsule_name) else {
            return self.refuse(to, ErrorCode::NotServing, "unknown capsule");
        };
        // `None`: already held, so verified when it first arrived.
        let verified = match hosted.index.verify(record.clone()) {
            Ok(verified) => verified,
            Err(e) => {
                // Never ack unverifiable data.
                self.obs.verify_failures.inc();
                if from_client {
                    self.obs.appends_rejected.inc();
                    self.obs.trace(
                        now,
                        "append_rejected",
                        &[("capsule", capsule_name.to_hex()), ("reason", e.to_string())],
                    );
                }
                return self.refuse(to, ErrorCode::VerificationFailed, &e.to_string());
            }
        };
        // For a duplicate the store re-reports the stored copy's
        // durability. Never ack — or index — what the store failed to
        // persist.
        let epoch = match self.log.append(&capsule_name, &record) {
            Ok(AppendAck::Durable) => 0,
            Ok(AppendAck::Pending(epoch)) => epoch,
            Err(_) => return self.refuse(to, ErrorCode::BadRequest, "storage failure"),
        };
        let fresh = verified.is_some_and(|v| hosted.index.admit(v) != IngestOutcome::Duplicate);
        let peers = if from_client { hosted.peers.clone() } else { Vec::new() };
        let subscribers = if fresh { hosted.subscribers.clone() } else { Vec::new() };
        let mut out = Vec::new();
        // Forward to peer replicas (leaderless: any order, idempotent — a
        // replica re-acks a duplicate through its own ledger).
        for peer in &peers {
            let msg = DataMsg::Replicate { capsule: capsule_name, record: record.clone() };
            out.push(self.data_pdu(*peer, 0, &msg));
            self.obs.replicated_out.inc();
        }
        if fresh {
            let committed =
                if from_client { &self.obs.appends_committed } else { &self.obs.replicated_in };
            committed.inc();
            self.push_events(&capsule_name, &subscribers, &record, &mut out);
        }
        let parked = self.ledger.park(Parked {
            capsule: capsule_name,
            hash: record.hash(),
            record_seq: record.header.seq,
            to,
            replicas: 1,
            needed,
            unacked: peers,
            epoch,
            deadline: now + self.durability_timeout,
        });
        self.settle(now, parked, out)
    }

    /// Answers a request that cannot be served; an upstream replica is
    /// told nothing (its own deadline covers the record).
    fn refuse(&self, to: AckTo, code: ErrorCode, detail: &str) -> Vec<Pdu> {
        match to {
            AckTo::Client { client, request_seq } => {
                vec![self.err_pdu(client, request_seq, code, detail)]
            }
            AckTo::Upstream { .. } => Vec::new(),
        }
    }

    /// Counts and traces a body the store could not return (I/O error, CRC
    /// rot): the index entry stays — the record exists, this node cannot
    /// read it until a restart turns it into a hole anti-entropy refills.
    fn note_unreadable(&self, now: u64, capsule: &Name, record_seq: u64, error: &StoreError) {
        self.obs.read_store_failures.inc();
        self.obs.trace(
            now,
            "read_store_failed",
            &[
                ("capsule", capsule.to_hex()),
                ("seq", record_seq.to_string()),
                ("error", error.to_string()),
            ],
        );
    }

    fn on_read(
        &mut self,
        now: u64,
        capsule_name: Name,
        client: Name,
        seq: u64,
        target: ReadTarget,
    ) -> Vec<Pdu> {
        let Some(hosted) = self.hosted.get(&capsule_name) else {
            return vec![self.err_pdu(client, seq, ErrorCode::NotServing, "unknown capsule")];
        };
        self.obs.reads_served.inc();
        let index = &hosted.index;
        let log = &mut self.log;
        // A typed answer, never a panic and never an empty body.
        let unreadable = |this: &Self, record_seq: u64, error: StoreError| {
            this.note_unreadable(now, &capsule_name, record_seq, &error);
            vec![this.err_pdu(client, seq, ErrorCode::NotFound, "stored record unreadable")]
        };
        let result = match target {
            ReadTarget::One(s) => match hosted.stored_at(log, s) {
                Some(Ok(r)) => ReadResult::Record(r),
                Some(Err(e)) => return unreadable(self, s, e),
                None => return vec![self.err_pdu(client, seq, ErrorCode::NotFound, "no such seq")],
            },
            ReadTarget::Range(a, b) => {
                // The index knows every body length: an answer that cannot
                // fit a frame is refused before the store is touched.
                if !fits_one_answer(index.iter_range(a, b).map(|(_, bound)| bound)) {
                    self.obs.reads_refused_oversize.inc();
                    return vec![self.err_pdu(
                        client,
                        seq,
                        ErrorCode::BadRequest,
                        "range exceeds one answer",
                    )];
                }
                let mut records = Vec::new();
                for (at, stored) in hosted.stored_range(log, a, b) {
                    match stored {
                        Ok(r) => records.push(r),
                        Err(e) => return unreadable(self, at.seq, e),
                    }
                }
                // One signature for the run, its newest record's own — every
                // record signature is a heartbeat — and the hash chain back
                // (`RangeProof`): the answer and its check are the same
                // however far the run is from the head. Under a single head
                // every linked seq holds one record, on the head's chain; a
                // branched capsule is answered record by record.
                let single_head = matches!(index.single_head(), Ok(Some(_)));
                match records.pop() {
                    None => {
                        return vec![self.err_pdu(client, seq, ErrorCode::NotFound, "empty range")]
                    }
                    Some(newest) if single_head => {
                        let heartbeat = Heartbeat::from_record(&capsule_name, &newest);
                        let path = vec![newest.header];
                        let newest = MembershipProof { heartbeat, path, body: newest.body };
                        ReadResult::RangeProofResult(RangeProof { newest, older: records })
                    }
                    Some(newest) => {
                        records.push(newest);
                        ReadResult::Records(records)
                    }
                }
            }
            ReadTarget::Latest => {
                // A branched capsule serves its preferred head.
                let Some(head) = index.heads().into_iter().next() else {
                    return vec![self.err_pdu(client, seq, ErrorCode::Empty, "no records")];
                };
                match hosted.stored(log, &head) {
                    Ok(r) => {
                        let hb = Heartbeat::from_record(&capsule_name, &r);
                        ReadResult::Latest(r, hb)
                    }
                    Err(e) => return unreadable(self, head.seq, e),
                }
            }
            ReadTarget::ProofOf(s) => {
                let (hb, head) = match hosted.stored_head(log) {
                    Some(Ok(found)) => found,
                    Some(Err(e)) => return unreadable(self, index.latest_seq(), e),
                    None => return vec![self.err_pdu(client, seq, ErrorCode::Empty, "no head")],
                };
                // The descent starts at the head just read, and each hop
                // is charged its record's wire bound before it is read: a
                // proof reads at most one answer's worth of store bytes.
                let (mut head, mut at_seq) = (Some(head), hb.seq);
                let found = MembershipProof::path(index, &hb, s, MAX_ANSWER_BYTES, |at| {
                    at_seq = at.seq;
                    head.take().map_or_else(|| hosted.stored(log, at), Ok)
                });
                match found {
                    Ok(proof) => ReadResult::Proof(proof),
                    Err(StoreError::Capsule(CapsuleError::ProofTooLarge)) => {
                        self.obs.reads_refused_oversize.inc();
                        return vec![self.err_pdu(
                            client,
                            seq,
                            ErrorCode::BadRequest,
                            "proof exceeds one answer",
                        )];
                    }
                    Err(StoreError::Capsule(_)) => {
                        return vec![self.err_pdu(client, seq, ErrorCode::NotFound, "no proof")]
                    }
                    Err(e) => return unreadable(self, at_seq, e),
                }
            }
            ReadTarget::HeartbeatOnly => match hosted.stored_head(log) {
                Some(Ok((hb, _))) => ReadResult::HeartbeatOnly(hb),
                Some(Err(e)) => return unreadable(self, index.latest_seq(), e),
                None => return vec![self.err_pdu(client, seq, ErrorCode::Empty, "no records")],
            },
        };
        let body = read_result_body(&result);
        let auth = self.auth_for(&capsule_name, &client, seq, &body);
        vec![self.data_pdu(client, seq, &DataMsg::ReadResp { result, auth })]
    }

    fn on_subscribe(
        &mut self,
        now: u64,
        capsule_name: Name,
        client: Name,
        seq: u64,
        from_seq: u64,
    ) -> Vec<Pdu> {
        let Some(hosted) = self.hosted.get_mut(&capsule_name) else {
            return vec![self.err_pdu(client, seq, ErrorCode::NotServing, "unknown capsule")];
        };
        if !hosted.subscribers.contains(&client) {
            hosted.subscribers.push(client);
        }
        // Replay history the subscriber asked for (secure replay / time
        // shift, paper §V), then live events flow from appends. A record
        // the store cannot return is left out, counted and traced.
        let replay = hosted.stored_range(
            &mut self.log,
            from_seq.saturating_add(1),
            hosted.index.latest_seq(),
        );
        let mut out = Vec::new();
        for (at, stored) in replay {
            match stored {
                Ok(record) => self.push_events(&capsule_name, &[client], &record, &mut out),
                Err(e) => self.note_unreadable(now, &capsule_name, at.seq, &e),
            }
        }
        out
    }

    fn on_sync_request(
        &mut self,
        now: u64,
        capsule_name: Name,
        peer: Name,
        have_seq: u64,
        missing: Vec<Pointer>,
    ) -> Vec<Pdu> {
        let Some(hosted) = self.hosted.get(&capsule_name) else {
            return Vec::new();
        };
        // The named missing records this replica has linked, then
        // everything newer than the peer's contiguous prefix, each once, in
        // address order: a named record is also in the newer run when the
        // peer is behind it. What the store cannot return is left out,
        // counted and traced: the peer asks again, or another replica
        // answers.
        let log = &mut self.log;
        let named = missing.iter().filter(|at| hosted.index.get(at).is_some());
        let mut found: Vec<(Pointer, Result<Record, StoreError>)> =
            named.map(|at| (*at, hosted.stored(log, at))).collect();
        let newer = have_seq.saturating_add(1);
        found.extend(hosted.stored_range(log, newer, hosted.index.latest_seq()));
        found.sort_by_key(|(at, _)| *at);
        found.dedup_by_key(|(at, _)| *at);
        let mut records = Vec::new();
        for (at, stored) in found {
            match stored {
                Ok(r) => records.push(r),
                Err(e) => self.note_unreadable(now, &capsule_name, at.seq, &e),
            }
        }
        if records.is_empty() {
            return Vec::new();
        }
        self.obs.sync_served.add(records.len() as u64);
        vec![self.data_pdu(peer, 0, &DataMsg::SyncResponse { capsule: capsule_name, records })]
    }

    fn on_sync_response(&mut self, now: u64, capsule_name: Name, records: Vec<Record>) -> Vec<Pdu> {
        let Some(hosted) = self.hosted.get_mut(&capsule_name) else {
            return Vec::new();
        };
        let mut sorted = records;
        sorted.sort_by_key(|r| r.header.seq);
        for record in sorted {
            // Same order as `on_record`: verify, persist, index.
            let verified = match hosted.index.verify(record) {
                Ok(Some(verified)) => verified,
                Ok(None) => continue,
                Err(_) => {
                    self.obs.verify_failures.inc();
                    continue;
                }
            };
            // A record the store refused is not indexed either — counted
            // and traced, never silent; the next anti-entropy pass or a
            // Replicate/Append of it tries again.
            if let Err(e) = self.log.append(&capsule_name, verified.record()) {
                self.obs.sync_store_failures.inc();
                self.obs.trace(
                    now,
                    "sync_store_failed",
                    &[
                        ("capsule", capsule_name.to_hex()),
                        ("seq", verified.record().header.seq.to_string()),
                        ("error", e.to_string()),
                    ],
                );
                continue;
            }
            hosted.index.admit(verified);
            self.obs.replicated_in.inc();
        }
        Vec::new()
    }

    /// Periodic maintenance: flushes the node's log (group commit) and
    /// releases acks whose covering fsync landed, fails acks parked past
    /// their deadline, and asks a peer of each replicated capsule for what
    /// is newer than its latest linked seq and for its missing ancestors.
    pub fn tick(&mut self, now: u64) -> Vec<Pdu> {
        // A new tick opens a fresh append budget (see set_overload_policy).
        self.appends_this_tick = 0;
        // Drive the log's group commit (the due-ness check is the log's)
        // and tell the ledger what it has fsynced. A failed flush is the
        // node's, counted and traced once; acks it leaves uncovered fail
        // at their deadline below instead of waiting forever.
        let epoch = match self.log.maintain(now) {
            Ok(epoch) => epoch,
            Err(e) => {
                self.obs.flush_failures.inc();
                self.obs.trace(now, "flush_failed", &[("error", e.to_string())]);
                self.log.durable_epoch()
            }
        };
        let mut steps = self.ledger.durable(epoch);
        // What a durable epoch lets out had waited on nothing else.
        self.obs.acks_released.add(steps.len() as u64);
        steps.extend(self.ledger.expire(now));
        let mut out = self.settle(now, steps, Vec::new());
        // Anti-entropy. A record links only on top of its linked `prev`,
        // so the linked seqs are exactly `1..=latest_seq`: everything past
        // it and the ancestors parked records wait on is all there is to
        // ask for.
        for (name, h) in &self.hosted {
            if h.peers.is_empty() {
                continue;
            }
            // Ask one peer, the next one each round.
            let peer = h.peers[self.sync_rounds % h.peers.len()];
            let msg = DataMsg::SyncRequest {
                capsule: *name,
                have_seq: h.index.latest_seq(),
                missing: h.index.missing_ancestors(),
            };
            out.push(self.data_pdu(peer, 0, &msg));
        }
        self.sync_rounds = self.sync_rounds.wrapping_add(1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_capsule::{CapsuleWriter, MetadataBuilder, PointerStrategy};
    use gdp_cert::{AdCert, Scope};
    use gdp_store::io::{Fault, MemFs, Op};
    use gdp_store::{FsyncPolicy, SegConfig, SegLog};
    use gdp_wire::PduType;

    const FOREVER: u64 = 1 << 50;

    fn owner() -> gdp_crypto::SigningKey {
        gdp_crypto::SigningKey::from_seed(&[1u8; 32])
    }
    fn wkey() -> gdp_crypto::SigningKey {
        gdp_crypto::SigningKey::from_seed(&[2u8; 32])
    }

    struct Rig {
        server: DataCapsuleServer,
        /// The registry the server counts into (scope `server`).
        metrics: gdp_obs::Metrics,
        capsule: Name,
        writer: CapsuleWriter,
        client: Name,
        seq: u64,
    }

    fn rig() -> Rig {
        rig_with_peers(vec![])
    }

    fn rig_with_peers(peers: Vec<Name>) -> Rig {
        rig_on(peers, log_on(&MemFs::new(), FsyncPolicy::Always))
    }

    /// A log of its own on `fs`, where a test injects its store faults.
    fn log_on(fs: &MemFs, policy: FsyncPolicy) -> SegLog {
        SegLog::open(fs, SegConfig { policy, ..SegConfig::default() }, &ObsScope::default())
            .unwrap()
    }

    /// Fails every `op` on `fs` from now until `fs.heal()`.
    fn fail_every(fs: &MemFs, op: Op) {
        let from = fs.ops(Some(op));
        fs.fail(Some(op), from..u64::MAX, Fault::Eio);
    }

    fn server_id() -> PrincipalId {
        PrincipalId::from_seed(gdp_cert::PrincipalKind::Server, &[3u8; 32], "s")
    }

    /// The capsule every rig hosts.
    fn unit_meta() -> CapsuleMetadata {
        MetadataBuilder::new()
            .writer(&wkey().verifying_key())
            .set_str("description", "unit")
            .sign(&owner())
    }

    fn unit_chain(id: &PrincipalId, meta: &CapsuleMetadata) -> ServingChain {
        ServingChain::direct(
            AdCert::issue(&owner(), meta.name(), id.name(), false, Scope::Global, FOREVER),
            id.principal().clone(),
        )
    }

    /// A server that mounts `log` and hosts the unit capsule on it.
    fn rig_on(peers: Vec<Name>, log: SegLog) -> Rig {
        let id = server_id();
        let metrics = gdp_obs::Metrics::new();
        let mut server = DataCapsuleServer::new(id.clone(), &metrics.scope("server"));
        server.mount(log);
        let meta = unit_meta();
        server.host(meta.clone(), unit_chain(&id, &meta), peers).unwrap();
        let writer = CapsuleWriter::new(&meta, wkey(), PointerStrategy::Chain).unwrap();
        Rig {
            server,
            metrics,
            capsule: meta.name(),
            writer,
            client: Name::from_content(b"client"),
            seq: 0,
        }
    }

    fn counted(rig: &Rig, name: &str) -> u64 {
        rig.metrics.counter_value("server", name)
    }

    fn request(rig: &mut Rig, msg: &DataMsg) -> Vec<Pdu> {
        request_to(rig, rig.capsule, msg)
    }

    /// A client request to `capsule`, numbered after every earlier one.
    fn request_to(rig: &mut Rig, capsule: Name, msg: &DataMsg) -> Vec<Pdu> {
        rig.seq += 1;
        let pdu = Pdu {
            pdu_type: PduType::Data,
            src: rig.client,
            dst: capsule,
            seq: rig.seq,
            payload: msg.to_wire().into(),
        };
        rig.server.handle_pdu(0, pdu)
    }

    /// Hosts a second capsule, same writer key, on the rig's server and
    /// so on its log; returns its name and a writer for it.
    fn host_second(rig: &mut Rig) -> (Name, CapsuleWriter) {
        let meta = MetadataBuilder::new()
            .writer(&wkey().verifying_key())
            .set_str("description", "second")
            .sign(&owner());
        rig.server.host(meta.clone(), unit_chain(&server_id(), &meta), vec![]).unwrap();
        (meta.name(), CapsuleWriter::new(&meta, wkey(), PointerStrategy::Chain).unwrap())
    }

    fn msg_of(pdu: &Pdu) -> DataMsg {
        DataMsg::from_wire(&pdu.payload).unwrap()
    }

    /// A PDU from a peer server (not the rig's client).
    fn from_peer(rig: &Rig, peer: Name, msg: &DataMsg) -> Pdu {
        Pdu {
            pdu_type: PduType::Data,
            src: peer,
            dst: rig.server.name(),
            seq: 0,
            payload: msg.to_wire().into(),
        }
    }

    #[test]
    fn append_then_read_targets() {
        let mut rig = rig();
        for i in 0..5u64 {
            let record = rig.writer.append(format!("r{i}").as_bytes(), i).unwrap();
            let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
            assert!(matches!(msg_of(&out[0]), DataMsg::AppendAck { replicas: 1, .. }));
        }
        // One
        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::One(3) });
        match msg_of(&out[0]) {
            DataMsg::ReadResp { result: ReadResult::Record(r), .. } => {
                assert_eq!(r.body, b"r2")
            }
            other => panic!("{other:?}"),
        }
        // Range: one proof anchored at the run's newest record
        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::Range(2, 4) });
        match msg_of(&out[0]) {
            DataMsg::ReadResp { result: ReadResult::RangeProofResult(p), .. } => {
                assert_eq!((p.newest.heartbeat.seq, p.newest.hops()), (4, 1));
                let rs = p.verify(&rig.capsule, &wkey().verifying_key()).unwrap();
                let seqs: Vec<u64> = rs.iter().map(|r| r.header.seq).collect();
                assert_eq!(seqs, [2, 3, 4]);
            }
            other => panic!("{other:?}"),
        }
        // Latest + heartbeat
        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::Latest });
        match msg_of(&out[0]) {
            DataMsg::ReadResp { result: ReadResult::Latest(r, hb), .. } => {
                assert_eq!(r.header.seq, 5);
                assert_eq!(hb.seq, 5);
                hb.verify(&wkey().verifying_key()).unwrap();
            }
            other => panic!("{other:?}"),
        }
        // Proof
        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::ProofOf(1) });
        match msg_of(&out[0]) {
            DataMsg::ReadResp { result: ReadResult::Proof(p), .. } => {
                p.verify(&rig.capsule, &wkey().verifying_key()).unwrap();
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(counted(&rig, "appends_committed"), 5);
        assert_eq!(counted(&rig, "reads_served"), 4);
    }

    /// A range far behind the head is answered as it was at the head: its
    /// anchor is its newest record's own signature, not a path down from
    /// the current heartbeat, which on a `Chain` capsule would carry one
    /// header per record in between.
    #[test]
    fn a_range_answer_does_not_grow_with_its_distance_from_the_head() {
        let mut rig = rig();
        let mut answers = Vec::new();
        for head in [32u64, 2_000] {
            while rig.writer.next_seq() <= head {
                let record = rig.writer.append(b"r", 0).unwrap();
                let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
                assert!(matches!(msg_of(&out[0]), DataMsg::AppendAck { .. }));
            }
            let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::Range(1, 32) });
            match msg_of(&out[0]) {
                DataMsg::ReadResp { result: ReadResult::RangeProofResult(p), .. } => {
                    answers.push(p)
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[1].newest.hops(), 1);
        assert_eq!(answers[1].verify(&rig.capsule, &wkey().verifying_key()).unwrap().len(), 32);
    }

    #[test]
    fn overload_sheds_appends_with_nack_and_budget_resets_on_tick() {
        let mut rig = rig();
        rig.server.set_overload_policy(2, 75_000);
        let records: Vec<Record> =
            (0..5u64).map(|i| rig.writer.append(format!("r{i}").as_bytes(), i).unwrap()).collect();
        let mut acked = 0u64;
        let mut nacked = 0u64;
        for record in records.iter().take(5).cloned() {
            let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
            match msg_of(&out[0]) {
                DataMsg::AppendAck { .. } => acked += 1,
                DataMsg::Nack { code: NackCode::Busy, retry_after_us } => {
                    assert_eq!(retry_after_us, 75_000, "nack must carry the configured hint");
                    nacked += 1;
                }
                other => panic!("unexpected response under overload: {other:?}"),
            }
        }
        assert_eq!(acked, 2, "budget of 2 admits exactly 2 appends per tick");
        assert_eq!(nacked, 3, "excess appends must be shed, not dropped silently");
        assert_eq!(
            counted(&rig, "appends_committed") + counted(&rig, "appends_shed"),
            5,
            "conservation"
        );
        // A tick opens a fresh budget: the shed records can now land.
        let _ = rig.server.tick(1_000);
        for record in records.iter().skip(2).take(2).cloned() {
            let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
            assert!(matches!(msg_of(&out[0]), DataMsg::AppendAck { .. }));
        }
        assert_eq!(counted(&rig, "appends_committed"), 4);
    }

    /// Every fresh append the server receives for a hosted capsule lands
    /// in exactly one of three registry counters.
    #[test]
    fn append_outcomes_conserve_in_the_registry() {
        let mut rig = rig();
        rig.server.set_overload_policy(3, 75_000);
        let good: Vec<Record> =
            (0..5u64).map(|i| rig.writer.append(format!("r{i}").as_bytes(), i).unwrap()).collect();
        let mut tampered = good[4].clone();
        tampered.body = b"tampered".to_vec().into();
        // Two commits, one rejection (which spends budget too), then two
        // sheds; after the tick opens a fresh budget, one more commit.
        let first_tick =
            [good[0].clone(), good[1].clone(), tampered, good[2].clone(), good[3].clone()];
        let received = first_tick.len() as u64 + 1;
        for record in first_tick {
            request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        }
        let _ = rig.server.tick(1_000);
        let record = good[2].clone();
        request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        let (committed, rejected, shed) = (
            counted(&rig, "appends_committed"),
            counted(&rig, "appends_rejected"),
            counted(&rig, "appends_shed"),
        );
        assert_eq!((committed, rejected, shed), (3, 1, 2));
        assert_eq!(committed + rejected + shed, received);
    }

    #[test]
    fn undecodable_request_is_counted() {
        let mut rig = rig();
        let pdu = Pdu {
            pdu_type: PduType::Data,
            src: rig.client,
            dst: rig.capsule,
            seq: 1,
            payload: vec![0xFF, 0xFF, 0xFF].into(),
        };
        let out = rig.server.handle_pdu(0, pdu);
        assert!(matches!(msg_of(&out[0]), DataMsg::ErrResp { code: ErrorCode::BadRequest, .. }));
        assert_eq!(counted(&rig, "requests_undecodable"), 1);
    }

    #[test]
    fn bad_record_rejected_and_counted() {
        let mut rig = rig();
        let mut record = rig.writer.append(b"good", 0).unwrap();
        record.body = b"tampered".to_vec().into();
        let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        assert!(matches!(
            msg_of(&out[0]),
            DataMsg::ErrResp { code: ErrorCode::VerificationFailed, .. }
        ));
        assert_eq!(counted(&rig, "appends_rejected"), 1);
    }

    /// A record from before the body digest became BLAKE2b-256 — its
    /// header commits to SHA-256(body), under a valid writer signature —
    /// is refused like any other body mismatch, and counted.
    #[test]
    fn sha256_body_hash_append_is_refused_and_counted() {
        let mut rig = rig();
        let mut record = rig.writer.append(b"pre-change", 0).unwrap();
        record.header.body_hash = gdp_crypto::sha256(&record.body);
        let hash = record.hash();
        record.signature =
            gdp_capsule::Heartbeat::sign(&rig.capsule, &wkey(), record.header.seq, hash).signature;
        let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        match msg_of(&out[0]) {
            DataMsg::ErrResp { code: ErrorCode::VerificationFailed, detail } => {
                assert!(detail.contains("body hash mismatch"), "{detail}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(counted(&rig, "appends_rejected"), 1);
        assert_eq!(counted(&rig, "appends_committed"), 0);
    }

    #[test]
    fn read_errors() {
        let mut rig = rig();
        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::One(9) });
        assert!(matches!(msg_of(&out[0]), DataMsg::ErrResp { code: ErrorCode::NotFound, .. }));
        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::Latest });
        assert!(matches!(msg_of(&out[0]), DataMsg::ErrResp { code: ErrorCode::Empty, .. }));
        // Unknown capsule
        rig.capsule = Name::from_content(b"ghost");
        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::Latest });
        assert!(matches!(msg_of(&out[0]), DataMsg::ErrResp { code: ErrorCode::NotServing, .. }));
    }

    #[test]
    fn duplicate_append_is_idempotent() {
        let mut rig = rig();
        let record = rig.writer.append(b"once", 0).unwrap();
        let out1 = request(
            &mut rig,
            &DataMsg::Append { record: record.clone(), ack_mode: AckMode::Local },
        );
        let out2 = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        assert!(matches!(msg_of(&out1[0]), DataMsg::AppendAck { .. }));
        assert!(matches!(msg_of(&out2[0]), DataMsg::AppendAck { .. }));
        assert_eq!(rig.server.capsule(&rig.capsule).unwrap().len(), 1);
        assert_eq!(counted(&rig, "appends_committed"), 1);
    }

    #[test]
    fn quorum_append_waits_for_replica_acks() {
        let peer = Name::from_content(b"peer server");
        let mut rig = rig_with_peers(vec![peer]);
        let record = rig.writer.append(b"replicated", 0).unwrap();
        let hash = record.hash();
        let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Quorum(1) });
        // A Replicate goes to the peer, but no client ack yet.
        assert!(out
            .iter()
            .any(|p| p.dst == peer && matches!(msg_of(p), DataMsg::Replicate { .. })));
        assert!(!out.iter().any(|p| matches!(msg_of(p), DataMsg::AppendAck { .. })));
        // Peer ack arrives → client ack with replicas=2.
        let ack_pdu = Pdu {
            pdu_type: PduType::Data,
            src: peer,
            dst: rig.server.name(),
            seq: 0,
            payload: DataMsg::ReplicateAck { capsule: rig.capsule, hash }.to_wire().into(),
        };
        let out = rig.server.handle_pdu(1, ack_pdu);
        match msg_of(&out[0]) {
            DataMsg::AppendAck { replicas, .. } => assert_eq!(replicas, 2),
            other => panic!("{other:?}"),
        }
    }

    /// A record that arrives ahead of its predecessor is stored but parked
    /// (`IngestOutcome::Pending`): the capsule does not index it by hash,
    /// so the quorum path must get its durability from the store alone.
    #[test]
    fn quorum_append_parked_behind_a_hole_is_acked_on_replica_ack() {
        let peer = Name::from_content(b"peer server");
        let mut rig = rig_with_peers(vec![peer]);
        let _withheld = rig.writer.append(b"first", 0).unwrap();
        let record = rig.writer.append(b"second", 1).unwrap();
        let hash = record.hash();
        let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Quorum(1) });
        assert!(!out.iter().any(|p| matches!(msg_of(p), DataMsg::AppendAck { .. })));
        let parked = rig.server.capsule(&rig.capsule).unwrap();
        assert_eq!((parked.len(), parked.pending_len()), (0, 1), "seq 2 must wait on the hole");

        let ack = from_peer(&rig, peer, &DataMsg::ReplicateAck { capsule: rig.capsule, hash });
        let out = rig.server.handle_pdu(1, ack);
        assert!(
            matches!(msg_of(&out[0]), DataMsg::AppendAck { seq: 2, replicas: 2, .. }),
            "quorum reached on a stored record must ack, got {:?}",
            msg_of(&out[0])
        );
    }

    fn append_acks(out: &[Pdu]) -> Vec<(u64, u32)> {
        out.iter()
            .filter_map(|p| match msg_of(p) {
                DataMsg::AppendAck { replicas, .. } => Some((p.seq, replicas)),
                _ => None,
            })
            .collect()
    }

    /// Regression (hole i): the duplicate arm acked a retried append on
    /// local durability alone, whatever ack mode the retry asked for.
    #[test]
    fn retransmitted_quorum_append_is_acked_only_by_the_replica_ack() {
        let peer = Name::from_content(b"peer server");
        let mut rig = rig_with_peers(vec![peer]);
        let record = rig.writer.append(b"retried", 0).unwrap();
        let hash = record.hash();
        let append = DataMsg::Append { record, ack_mode: AckMode::Quorum(1) };
        for _ in 0..2 {
            let out = request(&mut rig, &append);
            assert!(append_acks(&out).is_empty(), "no quorum yet: {out:?}");
            assert!(
                out.iter().any(|p| p.dst == peer && matches!(msg_of(p), DataMsg::Replicate { .. })),
                "a retry re-forwards, so a replica that lost the first copy still acks"
            );
        }
        let ack = from_peer(&rig, peer, &DataMsg::ReplicateAck { capsule: rig.capsule, hash });
        let out = rig.server.handle_pdu(1, ack.clone());
        assert_eq!(append_acks(&out), vec![(1, 2), (2, 2)], "one ack per request seq");
        assert!(rig.server.handle_pdu(2, ack).is_empty(), "nothing left to release");
        assert_eq!(counted(&rig, "appends_committed"), 1);
    }

    /// Regression (hole iv): replica acks were counted, not attributed, so
    /// one peer acking twice (or a duplicating fabric) met `Quorum(2)`.
    #[test]
    fn quorum_counts_distinct_peers_not_replica_acks() {
        let (p1, p2) = (Name::from_content(b"peer one"), Name::from_content(b"peer two"));
        let mut rig = rig_with_peers(vec![p1, p2]);
        let record = rig.writer.append(b"two of two", 0).unwrap();
        let hash = record.hash();
        request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Quorum(2) });
        let ack = DataMsg::ReplicateAck { capsule: rig.capsule, hash };
        let stranger = Name::from_content(b"not a replica");
        for from in [p1, p1, stranger] {
            let out = rig.server.handle_pdu(1, from_peer(&rig, from, &ack));
            assert!(out.is_empty(), "{from:?} must not complete the quorum: {out:?}");
        }
        let out = rig.server.handle_pdu(2, from_peer(&rig, p2, &ack));
        assert_eq!(append_acks(&out), vec![(1, 3)]);
    }

    /// Regression (hole ii): `tick` discarded the flush result and only
    /// quorum waits had a deadline, so an fsync-parked ack hung forever.
    #[test]
    fn failed_flush_is_counted_traced_and_fails_the_parked_ack_at_its_deadline() {
        let fs = MemFs::new();
        let mut rig = rig_on(vec![], log_on(&fs, FsyncPolicy::Batch { interval_us: 5_000 }));
        rig.server.durability_timeout = 20_000;

        let record = rig.writer.append(b"never fsynced", 0).unwrap();
        let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        assert!(out.is_empty(), "parked behind the group commit: {out:?}");
        assert_eq!(counted(&rig, "acks_deferred"), 1);

        fail_every(&fs, Op::Sync);
        assert!(rig.server.tick(10_000).is_empty(), "neither acked nor failed yet");
        assert_eq!(counted(&rig, "flush_failures"), 1);
        let events = rig.metrics.drain_trace();
        let failed: Vec<_> = events.iter().filter(|e| e.event == "flush_failed").collect();
        assert_eq!(failed.len(), 1);
        let field = |k: &str| failed[0].fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert!(field("error").is_some_and(|e| e.contains("injected")), "{:?}", failed[0]);

        let out = rig.server.tick(20_000);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].dst, out[0].seq), (rig.client, 1));
        assert!(matches!(
            msg_of(&out[0]),
            DataMsg::ErrResp { code: ErrorCode::DurabilityTimeout, .. }
        ));
        assert_eq!(counted(&rig, "durability_timeouts"), 1);
        assert_eq!(counted(&rig, "acks_released"), 0);
        // The failed request is gone: a healthy flush releases nothing.
        fs.heal();
        assert!(rig.server.tick(30_000).is_empty());
    }

    /// Regression: `tick` ran the node's one flush once per hosted capsule,
    /// so a failed group commit was counted and traced once per capsule,
    /// each trace naming a capsule, one of them with no bytes in the batch.
    #[test]
    fn a_failed_node_flush_is_counted_and_traced_once_whatever_the_capsules() {
        let fs = MemFs::new();
        let mut rig = rig_on(vec![], log_on(&fs, FsyncPolicy::Always));
        let (other, mut writer) = host_second(&mut rig);
        fail_every(&fs, Op::Sync);
        // Refused, its entry stays buffered for the next flush to retry.
        let record = writer.append(b"refused", 0).unwrap();
        let out =
            request_to(&mut rig, other, &DataMsg::Append { record, ack_mode: AckMode::Local });
        assert!(matches!(msg_of(&out[0]), DataMsg::ErrResp { code: ErrorCode::BadRequest, .. }));

        rig.server.tick(1_000);
        assert_eq!(counted(&rig, "flush_failures"), 1);
        let events = rig.metrics.drain_trace();
        let failed: Vec<_> = events.iter().filter(|e| e.event == "flush_failed").collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        // The flush is the node's: its trace names no capsule.
        let fields: Vec<&str> = failed[0].fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(fields, ["error"]);
    }

    /// One tick flushes the node's log once, and the epoch it reaches
    /// releases every ack it covers, whatever the capsule, in the order
    /// the acks were parked.
    #[test]
    fn one_tick_releases_acks_across_capsules_in_arrival_order() {
        let store = gdp_obs::Metrics::new();
        let cfg =
            SegConfig { policy: FsyncPolicy::Batch { interval_us: 5_000 }, ..SegConfig::default() };
        let log = SegLog::open(&MemFs::new(), cfg, &store.scope("store")).unwrap();
        let mut rig = rig_on(vec![], log);
        let (other, mut other_writer) = host_second(&mut rig);
        // The later name parks first, so arrival order is not name order.
        let mut appends = vec![
            (rig.capsule, rig.writer.append(b"unit", 0).unwrap()),
            (other, other_writer.append(b"second", 0).unwrap()),
        ];
        if rig.capsule < other {
            appends.reverse();
        }
        for (capsule, record) in appends {
            let out = request_to(
                &mut rig,
                capsule,
                &DataMsg::Append { record, ack_mode: AckMode::Local },
            );
            assert!(out.is_empty(), "parked behind the group commit: {out:?}");
        }
        assert_eq!(counted(&rig, "acks_deferred"), 2);
        let fsyncs = store.counter_value("store", "fsyncs");

        // The window anchors at the metadata flushes, logical time 0.
        assert!(rig.server.tick(2_000).is_empty(), "released before the window elapsed");
        let out = rig.server.tick(6_000);
        let acked: Vec<(Name, u64)> = out
            .iter()
            .filter(|p| matches!(msg_of(p), DataMsg::AppendAck { .. }))
            .map(|p| (p.dst, p.seq))
            .collect();
        assert_eq!(acked, vec![(rig.client, 1), (rig.client, 2)], "{out:?}");
        assert_eq!(counted(&rig, "acks_released"), 2);
        assert_eq!(store.counter_value("store", "fsyncs"), fsyncs + 1);
    }

    /// A hosted capsule's stream is in the mounted log, so a second mount
    /// would leave it where no tick flushes: refused.
    #[test]
    #[should_panic(expected = "before hosting")]
    fn mounting_a_log_after_hosting_is_refused() {
        let mut rig = rig_on(vec![], log_on(&MemFs::new(), FsyncPolicy::Always));
        rig.server.mount(log_on(&MemFs::new(), FsyncPolicy::Always));
    }

    /// Regression: both metadata writes discarded the store's answer.
    #[test]
    fn metadata_store_failures_are_answered_not_discarded() {
        let fs = MemFs::new();
        let mut rig = rig_on(vec![], log_on(&fs, FsyncPolicy::Always));
        fail_every(&fs, Op::Write);
        // Once a flush has failed the log cannot vouch for what it
        // buffered: repeating the metadata retries the flush.
        let record = rig.writer.append(b"refused", 0).unwrap();
        request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        let out = request(&mut rig, &DataMsg::PutMetadata { metadata: unit_meta() });
        assert!(matches!(msg_of(&out[0]), DataMsg::ErrResp { code: ErrorCode::BadRequest, .. }));

        // A store that cannot persist the metadata gets no capsule mounted.
        let fs = MemFs::new();
        let id = server_id();
        let mut server = DataCapsuleServer::new(id.clone(), &ObsScope::default());
        server.mount(log_on(&fs, FsyncPolicy::Always));
        fail_every(&fs, Op::Write);
        let meta = unit_meta();
        let err = server.host(meta.clone(), unit_chain(&id, &meta), vec![]).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(server.hosted_names().is_empty());
    }

    /// Regression: anti-entropy discarded the store's answer; and a record
    /// the store refused was indexed all the same, so this replica named —
    /// to readers and to the next anti-entropy pass — a body nobody held.
    #[test]
    fn sync_response_store_failure_is_counted_traced_and_repaired_by_replicate() {
        let peer = Name::from_content(b"peer server");
        let fs = MemFs::new();
        let mut rig = rig_on(vec![peer], log_on(&fs, FsyncPolicy::Always));
        let record = rig.writer.append(b"synced", 0).unwrap();
        let hash = record.hash();

        fail_every(&fs, Op::Write);
        let sync = DataMsg::SyncResponse { capsule: rig.capsule, records: vec![record.clone()] };
        let sync = from_peer(&rig, peer, &sync);
        assert!(rig.server.handle_pdu(7, sync).is_empty());
        assert_eq!(counted(&rig, "sync_store_failures"), 1);
        assert_eq!(counted(&rig, "replicated_in"), 0, "nothing the store refused is indexed");
        let index = rig.server.capsule(&rig.capsule).unwrap();
        assert_eq!((index.len(), index.pending_len()), (0, 0));
        let events = rig.metrics.drain_trace();
        let failed: Vec<_> = events.iter().filter(|e| e.event == "sync_store_failed").collect();
        assert_eq!(failed.len(), 1);
        let field = |k: &str| failed[0].fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(field("capsule"), Some(rig.capsule.to_hex()));
        assert_eq!(field("seq"), Some("1".to_string()));
        assert!(field("error").is_some_and(|e| e.contains("injected")), "{:?}", failed[0]);

        // Still failing: a Replicate of the same record must not be acked.
        let replicate = DataMsg::Replicate { capsule: rig.capsule, record };
        let out = rig.server.handle_pdu(8, from_peer(&rig, peer, &replicate));
        assert!(out.is_empty(), "never ack what the store failed to persist: {out:?}");

        // Store healthy again: the same Replicate persists, then acks.
        fs.heal();
        let out = rig.server.handle_pdu(9, from_peer(&rig, peer, &replicate));
        assert!(out.iter().any(|p| p.dst == peer
            && matches!(msg_of(p), DataMsg::ReplicateAck { hash: h, .. } if h == hash)));
        let read = request(&mut rig, &DataMsg::Read { target: ReadTarget::One(1) });
        assert!(matches!(msg_of(&read[0]), DataMsg::ReadResp { .. }));
        assert_eq!(counted(&rig, "sync_store_failures"), 1, "the repair is not a failure");
        assert_eq!(counted(&rig, "replicated_in"), 1);
    }

    /// Regression: `on_record` linked the record before `append_acked`, so
    /// an append the store refused was answered with an error and then
    /// served — to readers, subscribers and anti-entropy — until the next
    /// restart, when it vanished.
    #[test]
    fn append_the_store_refuses_is_not_indexed_and_a_retry_is_acked_and_served() {
        let fs = MemFs::new();
        let mut rig = rig_on(vec![], log_on(&fs, FsyncPolicy::Always));
        let first = rig.writer.append(b"stored", 0).unwrap();
        let append = DataMsg::Append { record: first, ack_mode: AckMode::Local };
        assert!(matches!(msg_of(&request(&mut rig, &append)[0]), DataMsg::AppendAck { .. }));
        request(&mut rig, &DataMsg::Subscribe { from_seq: 1 });

        let refused = rig.writer.append(b"refused, then retried", 1).unwrap();
        let append = DataMsg::Append { record: refused.clone(), ack_mode: AckMode::Local };
        fail_every(&fs, Op::Write);
        let out = request(&mut rig, &append);
        assert_eq!(out.len(), 1, "no event for a record the store refused: {out:?}");
        assert!(matches!(msg_of(&out[0]), DataMsg::ErrResp { code: ErrorCode::BadRequest, .. }));

        let read = |rig: &mut Rig, target| msg_of(&request(rig, &DataMsg::Read { target })[0]);
        assert!(matches!(
            read(&mut rig, ReadTarget::One(2)),
            DataMsg::ErrResp { code: ErrorCode::NotFound, .. }
        ));
        match read(&mut rig, ReadTarget::Latest) {
            DataMsg::ReadResp { result: ReadResult::Latest(r, hb), .. } => {
                assert_eq!((r.header.seq, hb.seq), (1, 1), "the head must not advance");
            }
            other => panic!("{other:?}"),
        }
        match read(&mut rig, ReadTarget::HeartbeatOnly) {
            DataMsg::ReadResp { result: ReadResult::HeartbeatOnly(hb), .. } => {
                assert_eq!(hb.seq, 1, "the heartbeat must not advance");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(counted(&rig, "appends_committed"), 1);

        // The writer retries against a healthy store: acked, pushed, served.
        fs.heal();
        let out = request(&mut rig, &append);
        assert!(out.iter().any(|p| matches!(msg_of(p), DataMsg::AppendAck { seq: 2, .. })));
        assert!(out.iter().any(|p| matches!(msg_of(p), DataMsg::Event { .. })));
        match read(&mut rig, ReadTarget::One(2)) {
            DataMsg::ReadResp { result: ReadResult::Record(r), .. } => assert_eq!(r, refused),
            other => panic!("{other:?}"),
        }
        assert_eq!(counted(&rig, "appends_committed"), 2);
    }

    #[test]
    fn replicate_of_a_fresh_record_the_store_rejects_is_not_acked() {
        let peer = Name::from_content(b"peer server");
        let fs = MemFs::new();
        let mut rig = rig_on(vec![peer], log_on(&fs, FsyncPolicy::Always));
        let record = rig.writer.append(b"unstorable", 0).unwrap();
        fail_every(&fs, Op::Write);
        let replicate = DataMsg::Replicate { capsule: rig.capsule, record };
        let out = rig.server.handle_pdu(1, from_peer(&rig, peer, &replicate));
        assert!(out.is_empty(), "no ReplicateAck (and no events) for an unstored record: {out:?}");
        assert_eq!(counted(&rig, "replicated_in"), 0);
    }

    #[test]
    fn durability_timeout_fails_pending() {
        let peer = Name::from_content(b"dead peer");
        let mut rig = rig_with_peers(vec![peer]);
        rig.server.durability_timeout = 1_000;
        let record = rig.writer.append(b"doomed", 0).unwrap();
        request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::All });
        // Tick past the deadline: the client gets a DurabilityTimeout.
        let out = rig.server.tick(10_000);
        assert!(out.iter().any(|p| p.dst == rig.client
            && matches!(msg_of(p), DataMsg::ErrResp { code: ErrorCode::DurabilityTimeout, .. })));
    }

    #[test]
    fn subscribe_replays_then_streams() {
        let mut rig = rig();
        let r1 = rig.writer.append(b"old", 0).unwrap();
        request(&mut rig, &DataMsg::Append { record: r1, ack_mode: AckMode::Local });
        // Subscribe from 0: the existing record is replayed.
        let out = request(&mut rig, &DataMsg::Subscribe { from_seq: 0 });
        assert_eq!(out.len(), 1);
        assert!(matches!(msg_of(&out[0]), DataMsg::Event { .. }));
        // New appends generate live events (ack + event).
        let r2 = rig.writer.append(b"new", 1).unwrap();
        let out = request(&mut rig, &DataMsg::Append { record: r2, ack_mode: AckMode::Local });
        let events = out.iter().filter(|p| matches!(msg_of(p), DataMsg::Event { .. })).count();
        assert_eq!(events, 1);
        assert_eq!(counted(&rig, "events_pushed"), 2);
    }

    /// A named record is served by its address: its hash under another
    /// seq names nothing.
    #[test]
    fn sync_request_serves_missing_and_newer() {
        let mut rig = rig();
        let mut first = None;
        for i in 0..4u64 {
            let r = rig.writer.append(&[i as u8], i).unwrap();
            first.get_or_insert(r.pointer());
            request(&mut rig, &DataMsg::Append { record: r, ack_mode: AckMode::Local });
        }
        let first = first.unwrap();
        let peer = Name::from_content(b"lagging peer");
        let wrong_seq = Pointer { seq: 2, ..first };
        for (missing, want) in [(first, vec![1, 3, 4]), (wrong_seq, vec![3, 4])] {
            let ask =
                DataMsg::SyncRequest { capsule: rig.capsule, have_seq: 2, missing: vec![missing] };
            let out = rig.server.handle_pdu(0, from_peer(&rig, peer, &ask));
            match msg_of(&out[0]) {
                // Records 3, 4 (newer than have_seq), and the named one if
                // it is held at that address.
                DataMsg::SyncResponse { records, .. } => {
                    let seqs: Vec<u64> = records.iter().map(|r| r.header.seq).collect();
                    assert_eq!(seqs, want, "{missing:?}");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// Regression: a `ProofOf` descends one header per record on a capsule
    /// whose pointers all jump below the target, and the path was built and
    /// sent whole — an answer larger than a frame. It is now counted as it
    /// is built and refused, typed, at the answer budget; the session keeps
    /// serving proofs that fit.
    #[test]
    fn a_proof_longer_than_one_answer_is_refused_and_the_flow_lives_on() {
        let mut rig = rig();
        let name = rig.capsule;
        let (target, extras) = (640u64, 620u64);
        let mut hashes = vec![gdp_capsule::RecordHash::anchor(&name)];
        // Every header past the target points at the `extras` records
        // below it: ~21 KB of pointers, none of which the descent can use.
        // Appended until the headers from the head down to the target
        // take more than a frame.
        let (mut head, mut path_bytes) = (0u64, 0usize);
        while path_bytes <= MAX_PAYLOAD {
            head += 1;
            let extra = if head > target {
                (1..=extras).rev().map(|s| Pointer { seq: s, hash: hashes[s as usize] }).collect()
            } else {
                Vec::new()
            };
            let prev = hashes[head as usize - 1];
            let record = Record::create(&name, &wkey(), head, 0, prev, extra, vec![7u8; 8]);
            if head >= target {
                path_bytes += record.header.to_wire().len();
            }
            hashes.push(record.hash());
            let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
            assert!(matches!(msg_of(&out[0]), DataMsg::AppendAck { .. }));
        }
        assert!(head < 3_000, "a few thousand records at most: {head}");

        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::ProofOf(target) });
        assert_eq!(out.len(), 1);
        assert!(out[0].payload.len() < 1024, "refused, not built: {} bytes", out[0].payload.len());
        assert!(matches!(
            msg_of(&out[0]),
            DataMsg::ErrResp { code: ErrorCode::BadRequest, detail } if detail == "proof exceeds one answer"
        ));
        assert_eq!(counted(&rig, "reads_refused_oversize"), 1);

        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::ProofOf(head - 1) });
        match msg_of(&out[0]) {
            DataMsg::ReadResp { result: ReadResult::Proof(p), .. } => {
                let proven = p.verify(&rig.capsule, &wkey().verifying_key()).unwrap();
                assert_eq!((proven.header.seq, p.hops()), (head - 1, 2));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(counted(&rig, "reads_refused_oversize"), 1);
    }

    /// A `ProofOf` hop is charged its record, not its header: on a Chain
    /// capsule of large records whose headers all fit one answer, a proof
    /// of the first record is refused, typed, after reading at most one
    /// answer's worth of records, and a proof that fits is still served.
    #[test]
    fn a_proof_is_charged_its_hops_records_and_reads_at_most_one_answer() {
        let fs = MemFs::new();
        let mut rig = rig_on(vec![], log_on(&fs, FsyncPolicy::Always));
        let (mut head, mut record_bytes, mut header_bytes) = (0u64, 0u64, 0u64);
        while record_bytes <= MAX_ANSWER_BYTES {
            let record = rig.writer.append(&[7u8; 17 * 1024], head).unwrap();
            head += 1;
            record_bytes += record.to_wire().len() as u64;
            header_bytes += record.header.to_wire().len() as u64;
            let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
            assert!(matches!(msg_of(&out[0]), DataMsg::AppendAck { .. }));
        }
        assert!(header_bytes < MAX_ANSWER_BYTES / 100, "{head} headers fit one answer");

        // Entry frames included: every byte the proof pulls off the file.
        let read_before = fs.read_bytes();
        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::ProofOf(1) });
        assert!(matches!(
            msg_of(&out[0]),
            DataMsg::ErrResp { code: ErrorCode::BadRequest, detail } if detail == "proof exceeds one answer"
        ));
        assert_eq!(counted(&rig, "reads_refused_oversize"), 1);
        let read = fs.read_bytes() - read_before;
        assert!(read > MAX_ANSWER_BYTES / 2 && read <= MAX_ANSWER_BYTES, "{read} bytes read");

        let out = request(&mut rig, &DataMsg::Read { target: ReadTarget::ProofOf(head - 1) });
        match msg_of(&out[0]) {
            DataMsg::ReadResp { result: ReadResult::Proof(p), .. } => {
                let proven = p.verify(&rig.capsule, &wkey().verifying_key()).unwrap();
                assert_eq!((proven.header.seq, p.hops()), (head - 1, 2));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(counted(&rig, "reads_refused_oversize"), 1);
    }

    /// Regression: a tick asked `peers[(now / 1000) % len]`, so on a 200 ms
    /// tick grid a capsule with two peers asked the first one every time,
    /// even while it was down. Each tick now asks the next peer.
    #[test]
    fn anti_entropy_asks_each_peer_in_turn_whatever_the_tick_time() {
        let peers = vec![Name::from_content(b"peer a"), Name::from_content(b"peer b")];
        let mut rig = rig_with_peers(peers.clone());
        let mut asked = Vec::new();
        for now in [200_000, 400_000] {
            for pdu in rig.server.tick(now) {
                assert!(matches!(msg_of(&pdu), DataMsg::SyncRequest { .. }));
                asked.push(pdu.dst);
            }
        }
        assert_eq!(asked, peers);
    }

    /// Regression: a sync answer was sorted by seq alone before dropping
    /// adjacent duplicates, so on a fork a named head whose hash sorts
    /// after its sibling's was sent twice. Each record is answered once,
    /// in address order.
    #[test]
    fn sync_request_answers_each_record_of_a_fork_once() {
        let mut rig = rig();
        let mut linked = Vec::new();
        for i in 0..3u64 {
            let record = rig.writer.append(&[i as u8], i).unwrap();
            linked.push(record.clone());
            request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        }
        let prev = linked[1].hash();
        let fork = Record::create(&rig.capsule, &wkey(), 3, 9, prev, vec![], b"fork".to_vec());
        request(&mut rig, &DataMsg::Append { record: fork.clone(), ack_mode: AckMode::Local });
        let mut heads = vec![linked[2].pointer(), fork.pointer()];
        heads.sort_unstable();
        assert_eq!(rig.server.capsule(&rig.capsule).unwrap().heads(), heads);

        let ask =
            DataMsg::SyncRequest { capsule: rig.capsule, have_seq: 2, missing: vec![heads[1]] };
        let out = rig.server.handle_pdu(0, from_peer(&rig, Name::from_content(b"peer"), &ask));
        match msg_of(&out[0]) {
            DataMsg::SyncResponse { records, .. } => {
                assert_eq!(records.iter().map(Record::pointer).collect::<Vec<_>>(), heads);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn host_message_requires_valid_delegation() {
        let mut rig = rig();
        let other_meta = MetadataBuilder::new()
            .writer(&wkey().verifying_key())
            .set_str("description", "second capsule")
            .sign(&owner());
        // Forged chain: delegation to a different server.
        let stranger = PrincipalId::from_seed(gdp_cert::PrincipalKind::Server, &[9u8; 32], "other");
        let bad_chain = ServingChain::direct(
            AdCert::issue(
                &owner(),
                other_meta.name(),
                stranger.name(),
                false,
                Scope::Global,
                FOREVER,
            ),
            stranger.principal().clone(),
        );
        let pdu = Pdu {
            pdu_type: PduType::Data,
            src: rig.client,
            dst: rig.server.name(),
            seq: 77,
            payload: DataMsg::Host {
                metadata: other_meta.clone(),
                chain: bad_chain,
                peers: vec![],
            }
            .to_wire()
            .into(),
        };
        let out = rig.server.handle_pdu(0, pdu);
        assert!(matches!(
            msg_of(&out[0]),
            DataMsg::ErrResp { code: ErrorCode::VerificationFailed, .. }
        ));
        assert!(!rig.server.hosted_names().contains(&other_meta.name()));
    }

    #[test]
    fn group_commit_store_defers_acks_until_fsync() {
        use gdp_store::{FsyncPolicy, SegConfig, SegLog};
        let dir = std::env::temp_dir().join(format!(
            "gdp-server-defer-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let id = PrincipalId::from_seed(gdp_cert::PrincipalKind::Server, &[3u8; 32], "s");
        let mut server = DataCapsuleServer::new(id.clone(), &ObsScope::default());
        let meta = MetadataBuilder::new()
            .writer(&wkey().verifying_key())
            .set_str("description", "deferred")
            .sign(&owner());
        let chain = ServingChain::direct(
            AdCert::issue(&owner(), meta.name(), id.name(), false, Scope::Global, FOREVER),
            id.principal().clone(),
        );
        let cfg =
            SegConfig { policy: FsyncPolicy::Batch { interval_us: 5_000 }, ..SegConfig::default() };
        server.mount(SegLog::open(&dir, cfg, &ObsScope::default()).unwrap());
        server.host(meta.clone(), chain, vec![]).unwrap();
        let mut writer = CapsuleWriter::new(&meta, wkey(), PointerStrategy::Chain).unwrap();
        let client = Name::from_content(b"client");

        let record = writer.append(b"batched", 0).unwrap();
        let pdu = Pdu {
            pdu_type: PduType::Data,
            src: client,
            dst: meta.name(),
            seq: 1,
            payload: DataMsg::Append { record, ack_mode: AckMode::Local }.to_wire().into(),
        };
        let out = server.handle_pdu(1_000, pdu);
        assert!(
            !out.iter().any(|p| matches!(msg_of(p), DataMsg::AppendAck { .. })),
            "ack must wait for the covering group-commit fsync"
        );
        // Before the batch window elapses the ack stays parked. (The
        // window anchors at the metadata flush, logical time 0.)
        let out = server.tick(2_000);
        assert!(!out.iter().any(|p| matches!(msg_of(p), DataMsg::AppendAck { .. })));
        // Once it elapses, tick flushes the store and releases the ack.
        let out = server.tick(6_000);
        assert!(
            out.iter().any(|p| p.dst == client && matches!(msg_of(p), DataMsg::AppendAck { .. })),
            "flush must release the deferred ack"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Regression: restart recovery used to drop store read errors, so a
    /// rotted sealed entry became a hole with no server-side signal.
    #[test]
    fn restart_recovery_counts_and_traces_a_record_the_store_cannot_read() {
        use gdp_store::{FsyncPolicy, SegConfig, SegLog};
        let dir =
            std::env::temp_dir().join(format!("gdp-server-rot-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = MetadataBuilder::new()
            .writer(&wkey().verifying_key())
            .set_str("description", "rotted")
            .sign(&owner());
        let cfg = SegConfig {
            policy: FsyncPolicy::Always,
            segment_max_bytes: 1_024,
            ..SegConfig::default()
        };
        let mut writer = CapsuleWriter::new(&meta, wkey(), PointerStrategy::Chain).unwrap();
        let records: Vec<Record> =
            (0..12u64).map(|i| writer.append(format!("r{i}").as_bytes(), i).unwrap()).collect();
        {
            let mut log = SegLog::open(&dir, cfg.clone(), &ObsScope::default()).unwrap();
            log.put_metadata(&meta.name(), &meta).unwrap();
            for (i, r) in records.iter().enumerate() {
                log.append(&meta.name(), r).unwrap();
                log.maintain(i as u64).unwrap(); // rotates (and checkpoints) full segments
            }
            assert!(log.segment_ids().len() >= 3, "fixture must seal segments");
        }
        // Rot the last entry of sealed segment 0: the checkpoint still
        // indexes it, so only reading it back can notice.
        let seg0 = dir.join(format!("{:010}.seg", 0));
        let mut bytes = std::fs::read(&seg0).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        std::fs::write(&seg0, &bytes).unwrap();

        let metrics = gdp_obs::Metrics::new();
        let id = PrincipalId::from_seed(gdp_cert::PrincipalKind::Server, &[3u8; 32], "s");
        let mut server = DataCapsuleServer::new(id.clone(), &metrics.scope("server"));
        let chain = ServingChain::direct(
            AdCert::issue(&owner(), meta.name(), id.name(), false, Scope::Global, FOREVER),
            id.principal().clone(),
        );
        server.mount(SegLog::open(&dir, cfg, &ObsScope::default()).unwrap());
        server.host(meta.clone(), chain, vec![]).unwrap();

        assert_eq!(metrics.counter_value("server", "recovery_records_skipped"), 1);
        // Every other record was ingested: the prefix before the rotted
        // one links, its successors wait on the hole for anti-entropy.
        let capsule = server.capsule(&meta.name()).unwrap();
        assert_eq!(capsule.len() + capsule.pending_len(), records.len() - 1);
        assert!(capsule.pending_len() > 0, "the rot must sit mid-chain");
        let skipped_seq = capsule.len() as u64 + 1;
        let events = metrics.drain_trace();
        let skipped: Vec<_> = events.iter().filter(|e| e.event == "recovery_skipped").collect();
        assert_eq!(skipped.len(), 1);
        let field =
            |k: &str| skipped[0].fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(field("capsule"), Some(meta.name().to_hex()));
        assert_eq!(field("seq"), Some(skipped_seq.to_string()));
        assert!(field("error").is_some_and(|e| e.contains("corrupt")), "{:?}", skipped[0]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn session_init_establishes_hmac_responses() {
        let mut rig = rig();
        let eph = gdp_crypto::x25519::EphemeralKeyPair::from_secret([7u8; 32]);
        let out = request(&mut rig, &DataMsg::SessionInit { client_eph: *eph.public() });
        let (server_eph, sig_ok) = match msg_of(&out[0]) {
            DataMsg::SessionAccept { server_eph, client_eph, server, signature, .. } => {
                let transcript = session_transcript(&rig.capsule, &client_eph, &server_eph);
                (server_eph, server.verify(&transcript, &signature))
            }
            other => panic!("{other:?}"),
        };
        assert!(sig_ok);
        // Subsequent responses use Mac auth with the same derived key.
        let shared = eph.diffie_hellman(&server_eph).unwrap();
        let flow = hkdf::derive_key32(rig.capsule.as_bytes(), &shared, b"gdp/flow-key/v1");
        let record = rig.writer.append(b"x", 0).unwrap();
        let (rseq, rhash) = (record.header.seq, record.hash());
        let out = request(&mut rig, &DataMsg::Append { record, ack_mode: AckMode::Local });
        match msg_of(&out[0]) {
            DataMsg::AppendAck { auth: crate::proto::ResponseAuth::Mac { tag, .. }, .. } => {
                let body = append_ack_body(rseq, &rhash, 1);
                let expect = mac_response(&flow, &rig.capsule, rig.seq, &body);
                assert_eq!(tag, expect, "server must MAC with the agreed flow key");
            }
            other => panic!("expected MAC-authenticated ack, got {other:?}"),
        }
    }

    /// One client, three capsules on one server, a session on two of them:
    /// each session keeps its own key and epoch (the second handshake must
    /// not replace the first), and the capsule without one is still signed.
    #[test]
    fn sessions_are_per_client_and_capsule() {
        let mut rig = rig();
        let mut metas = vec![rig.server.capsule(&rig.capsule).unwrap().metadata().clone()];
        for description in ["second", "third"] {
            let meta = MetadataBuilder::new()
                .writer(&wkey().verifying_key())
                .set_str("description", description)
                .sign(&owner());
            rig.server.host(meta.clone(), unit_chain(&server_id(), &meta), vec![]).unwrap();
            metas.push(meta);
        }
        let ask = |rig: &mut Rig, capsule: Name, msg: &DataMsg| {
            rig.capsule = capsule;
            msg_of(&request(rig, msg)[0])
        };
        let mut flows = Vec::new();
        for (meta, secret) in metas.iter().zip([[7u8; 32], [8u8; 32]]) {
            let eph = gdp_crypto::x25519::EphemeralKeyPair::from_secret(secret);
            let init = DataMsg::SessionInit { client_eph: *eph.public() };
            let DataMsg::SessionAccept { server_eph, .. } = ask(&mut rig, meta.name(), &init)
            else {
                panic!("expected SessionAccept");
            };
            let shared = eph.diffie_hellman(&server_eph).unwrap();
            let key = hkdf::derive_key32(meta.name().as_bytes(), &shared, b"gdp/flow-key/v1");
            flows.push((*eph.public(), key));
        }
        for (i, meta) in metas.iter().enumerate() {
            let capsule = meta.name();
            let mut writer = CapsuleWriter::new(meta, wkey(), PointerStrategy::Chain).unwrap();
            let record = writer.append(b"x", 0).unwrap();
            let body = append_ack_body(1, &record.hash(), 1);
            let append = DataMsg::Append { record, ack_mode: AckMode::Local };
            let DataMsg::AppendAck { auth, .. } = ask(&mut rig, capsule, &append) else {
                panic!("expected AppendAck");
            };
            match (auth, flows.get(i)) {
                (ResponseAuth::Mac { epoch, tag, .. }, Some((client_eph, key))) => {
                    assert_eq!(epoch[..], client_eph[..8], "epoch of this capsule's session");
                    assert_eq!(tag, mac_response(key, &capsule, rig.seq, &body));
                }
                (ResponseAuth::Signed { .. }, None) => {}
                (auth, _) => panic!("capsule {i} answered under the wrong flow: {auth:?}"),
            }
        }
    }
}
