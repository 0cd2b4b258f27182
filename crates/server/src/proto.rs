//! Data-plane protocol between clients and DataCapsule-servers (and
//! between replica servers).
//!
//! Requests are addressed to the *capsule name* (location independence:
//! "conversations with DataCapsules do not involve physical identifiers",
//! paper §I); routers anycast them to some delegated server. Responses are
//! addressed to the client's flat name and are authenticated either with
//! the server's signature or — once a flow key is established — an HMAC,
//! "achieving a steady state byte overhead roughly similar to TLS" (§V).

// Non-test matches on wire enums (`Pdu`, `PduType`, `DataMsg`) name every variant: a
// new variant is a compile error here, not silent message loss behind a `_ =>`.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use gdp_capsule::{
    CapsuleMetadata, Heartbeat, MembershipProof, Pointer, RangeProof, Record, RecordHash,
};
use gdp_cert::{Principal, ServingChain};
use gdp_crypto::hmac::hmac_sha256;
use gdp_crypto::{Signature, SigningKey};
use gdp_wire::{DecodeError, Decoder, Encoder, Name, Wire};

/// How many replica acknowledgments an append requires before the server
/// confirms it to the writer (paper §VI-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckMode {
    /// Ack after local durability only; replication happens in the
    /// background. Fastest; exposes a window where a server crash can
    /// leave a hole.
    Local,
    /// Ack after `n` additional replicas confirm (not counting the
    /// serving replica).
    Quorum(u32),
    /// Ack after every known replica confirms.
    All,
}

impl AckMode {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            AckMode::Local => {
                enc.u8(0);
            }
            AckMode::Quorum(n) => {
                enc.u8(1);
                enc.u32(*n);
            }
            AckMode::All => {
                enc.u8(2);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<AckMode, DecodeError> {
        Ok(match dec.u8()? {
            0 => AckMode::Local,
            1 => AckMode::Quorum(dec.u32()?),
            2 => AckMode::All,
            t => return Err(DecodeError::BadTag(t as u64)),
        })
    }
}

/// What a read request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadTarget {
    /// One record by sequence number (full record, no proof).
    One(u64),
    /// A contiguous range `[from, to]`, self-verifying against the newest.
    Range(u64, u64),
    /// The newest record plus its heartbeat.
    Latest,
    /// A membership proof for `seq` against the newest heartbeat.
    ProofOf(u64),
    /// Only the current heartbeat (freshness check).
    HeartbeatOnly,
}

impl ReadTarget {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ReadTarget::One(s) => {
                enc.u8(0);
                enc.varint(*s);
            }
            ReadTarget::Range(a, b) => {
                enc.u8(1);
                enc.varint(*a);
                enc.varint(*b);
            }
            ReadTarget::Latest => {
                enc.u8(2);
            }
            ReadTarget::ProofOf(s) => {
                enc.u8(3);
                enc.varint(*s);
            }
            ReadTarget::HeartbeatOnly => {
                enc.u8(4);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<ReadTarget, DecodeError> {
        Ok(match dec.u8()? {
            0 => ReadTarget::One(dec.varint()?),
            1 => ReadTarget::Range(dec.varint()?, dec.varint()?),
            2 => ReadTarget::Latest,
            3 => ReadTarget::ProofOf(dec.varint()?),
            4 => ReadTarget::HeartbeatOnly,
            t => return Err(DecodeError::BadTag(t as u64)),
        })
    }
}

/// A successful read's payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadResult {
    /// A bare record.
    Record(Record),
    /// Records of a range, oldest first.
    Records(Vec<Record>),
    /// Newest record plus heartbeat.
    Latest(Record, Heartbeat),
    /// A membership proof.
    Proof(MembershipProof),
    /// A range proof.
    RangeProofResult(RangeProof),
    /// Current heartbeat only.
    HeartbeatOnly(Heartbeat),
}

impl ReadResult {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ReadResult::Record(r) => {
                enc.u8(0);
                r.encode(enc);
            }
            ReadResult::Records(rs) => {
                enc.u8(1);
                enc.seq(rs, |e, r| r.encode(e));
            }
            ReadResult::Latest(r, hb) => {
                enc.u8(2);
                r.encode(enc);
                hb.encode(enc);
            }
            ReadResult::Proof(p) => {
                enc.u8(3);
                p.encode(enc);
            }
            ReadResult::RangeProofResult(p) => {
                enc.u8(4);
                p.encode(enc);
            }
            ReadResult::HeartbeatOnly(hb) => {
                enc.u8(5);
                hb.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<ReadResult, DecodeError> {
        Ok(match dec.u8()? {
            0 => ReadResult::Record(Record::decode(dec)?),
            1 => ReadResult::Records(dec.seq(Record::decode)?),
            2 => ReadResult::Latest(Record::decode(dec)?, Heartbeat::decode(dec)?),
            3 => ReadResult::Proof(MembershipProof::decode(dec)?),
            4 => ReadResult::RangeProofResult(RangeProof::decode(dec)?),
            5 => ReadResult::HeartbeatOnly(Heartbeat::decode(dec)?),
            t => return Err(DecodeError::BadTag(t as u64)),
        })
    }
}

/// Error codes returned by servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The capsule is not hosted here (stale route).
    NotServing = 0,
    /// The requested record does not exist (yet).
    NotFound = 1,
    /// The record failed verification (bad writer signature etc.).
    VerificationFailed = 2,
    /// Durability requirement could not be met in time.
    DurabilityTimeout = 3,
    /// Malformed request.
    BadRequest = 4,
    /// The capsule exists but has no records yet.
    Empty = 5,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            0 => ErrorCode::NotServing,
            1 => ErrorCode::NotFound,
            2 => ErrorCode::VerificationFailed,
            3 => ErrorCode::DurabilityTimeout,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Empty,
            _ => return None,
        })
    }
}

/// Why a server refused work it could otherwise have served (load
/// shedding, as opposed to [`ErrorCode`]'s "this request is wrong").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum NackCode {
    /// The server is overloaded; retry after the advised delay.
    Busy = 0,
}

impl NackCode {
    fn from_u8(v: u8) -> Option<NackCode> {
        Some(match v {
            0 => NackCode::Busy,
            _ => return None,
        })
    }
}

/// Authentication attached to a server response (paper §V "Secure
/// Responses"): a full signature at flow start, an HMAC at steady state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseAuth {
    /// Ed25519 signature by the server's key, plus the server principal
    /// and its serving chain so the client can verify end to end.
    Signed {
        /// The responding server.
        server: Principal,
        /// Proof the server is delegated for this capsule.
        chain: ServingChain,
        /// Signature over the response transcript.
        signature: Signature,
    },
    /// HMAC under the established flow key.
    Mac {
        /// Name of the responding server — selects which flow key the
        /// client must verify against. Requests are routed by *capsule*
        /// name, so any serving replica may answer; without this hint a
        /// response MAC'd by a replica other than the session peer is
        /// indistinguishable from a corrupted one. The hint itself needs
        /// no protection: the flow key is bound to the server identity at
        /// session establishment, so lying about it just fails the MAC.
        server: Name,
        /// Key epoch: the first 8 bytes of the client ephemeral that
        /// established the flow key. A client that re-keys can receive
        /// in-flight responses MAC'd under the *previous* key; the epoch
        /// lets it classify those as key disagreement (recoverable, retry)
        /// rather than tampering. Like `server`, it needs no protection —
        /// lying about it only changes which way verification fails.
        epoch: [u8; 8],
        /// HMAC-SHA256 over the response transcript.
        tag: [u8; 32],
    },
}

impl ResponseAuth {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ResponseAuth::Signed { server, chain, signature } => {
                enc.u8(0);
                server.encode(enc);
                chain.encode(enc);
                enc.raw(&signature.to_bytes());
            }
            ResponseAuth::Mac { server, epoch, tag } => {
                enc.u8(1);
                enc.name(server);
                enc.raw(epoch);
                enc.raw(tag);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<ResponseAuth, DecodeError> {
        Ok(match dec.u8()? {
            0 => ResponseAuth::Signed {
                server: Principal::decode(dec)?,
                chain: ServingChain::decode(dec)?,
                signature: Signature(dec.array::<64>()?),
            },
            1 => ResponseAuth::Mac {
                server: dec.name()?,
                epoch: dec.array::<8>()?,
                tag: dec.array::<32>()?,
            },
            t => return Err(DecodeError::BadTag(t as u64)),
        })
    }
}

/// Computes the transcript that response authentication covers.
pub fn response_transcript(capsule: &Name, request_seq: u64, body: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.string("gdp/response/v1");
    enc.name(capsule);
    enc.varint(request_seq);
    enc.bytes(body);
    enc.finish()
}

/// Signs a response transcript with the server key.
pub fn sign_response(key: &SigningKey, capsule: &Name, request_seq: u64, body: &[u8]) -> Signature {
    key.sign(&response_transcript(capsule, request_seq, body))
}

/// MACs a response transcript with a flow key.
pub fn mac_response(
    flow_key: &[u8; 32],
    capsule: &Name,
    request_seq: u64,
    body: &[u8],
) -> [u8; 32] {
    hmac_sha256(flow_key, &response_transcript(capsule, request_seq, body))
}

/// All data-plane messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataMsg {
    /// Client → capsule: establish a flow key (X25519 ephemeral).
    SessionInit {
        /// Client's ephemeral public key.
        client_eph: [u8; 32],
    },
    /// Server → client: flow accepted. The signature covers both ephemeral
    /// keys and binds them to the server identity (no MITM).
    SessionAccept {
        /// Server's ephemeral public key.
        server_eph: [u8; 32],
        /// Echo of the client's ephemeral key.
        client_eph: [u8; 32],
        /// The server principal.
        server: Principal,
        /// Proof the server is delegated for this capsule.
        chain: ServingChain,
        /// Signature over (tag, capsule, client_eph, server_eph).
        signature: Signature,
    },
    /// Client → capsule: push the signed metadata (creation / migration).
    PutMetadata {
        /// The capsule metadata.
        metadata: CapsuleMetadata,
    },
    /// Owner → server (addressed to the *server name*): start hosting a
    /// capsule. This is the §V creation flow: "(a) placing the signed
    /// metadata on appropriate DataCapsule-servers, and (b) creating a
    /// cryptographic delegation to specific servers".
    Host {
        /// The capsule metadata.
        metadata: CapsuleMetadata,
        /// Delegation chain ending at the receiving server.
        chain: ServingChain,
        /// Peer replicas for this capsule.
        peers: Vec<Name>,
    },
    /// Server → owner: hosting accepted and (re-)advertised.
    HostAck {
        /// The hosted capsule.
        capsule: Name,
    },
    /// Client → capsule: append a record.
    Append {
        /// The signed record.
        record: Record,
        /// Durability requirement.
        ack_mode: AckMode,
    },
    /// Server → client: append confirmed.
    AppendAck {
        /// Sequence number appended.
        seq: u64,
        /// Hash of the appended record.
        hash: RecordHash,
        /// Replicas known to hold the record (including this server).
        replicas: u32,
        /// Response authentication.
        auth: ResponseAuth,
    },
    /// Client → capsule: read.
    Read {
        /// What to read.
        target: ReadTarget,
    },
    /// Server → client: read succeeded.
    ReadResp {
        /// The payload.
        result: ReadResult,
        /// Response authentication.
        auth: ResponseAuth,
    },
    /// Client → capsule: subscribe to future records (pub-sub, §V).
    Subscribe {
        /// Deliver records with seq > this value (0 = everything new).
        from_seq: u64,
    },
    /// Server → client: a subscribed record arrived.
    Event {
        /// The new record.
        record: Record,
        /// Response authentication.
        auth: ResponseAuth,
    },
    /// Server → server: propagate a record to a peer replica. Addressed to
    /// the peer's own name, so the capsule is named explicitly.
    Replicate {
        /// The capsule the record belongs to.
        capsule: Name,
        /// The record.
        record: Record,
    },
    /// Server → server: confirm replication of a record.
    ReplicateAck {
        /// The capsule.
        capsule: Name,
        /// Hash confirmed durable at the peer.
        hash: RecordHash,
    },
    /// Server → server: anti-entropy offer/request.
    SyncRequest {
        /// The capsule to synchronize.
        capsule: Name,
        /// Highest seq the requester has linked (it holds every seq
        /// below it).
        have_seq: u64,
        /// The addresses of specific missing ancestors the requester
        /// wants: a record is sent only if it has that seq and hash.
        missing: Vec<Pointer>,
    },
    /// Server → server: anti-entropy payload.
    SyncResponse {
        /// The capsule.
        capsule: Name,
        /// Records the peer was missing.
        records: Vec<Record>,
    },
    /// Server → client: request failed.
    ErrResp {
        /// Machine-readable code.
        code: ErrorCode,
        /// Debug detail (not trusted).
        detail: String,
    },
    /// Server → client: request *shed*, not failed — the server is
    /// refusing load it could otherwise serve and advises when to retry.
    /// Like [`DataMsg::ErrResp`] this is unauthenticated (an overloaded
    /// server must not pay a signature per shed request), so clients
    /// treat it as advice only: it never consumes a pending request, and
    /// a spoofed Nack can at worst delay one retry by the jittered
    /// backoff, never cancel or corrupt it.
    Nack {
        /// Why the request was shed.
        code: NackCode,
        /// Advised minimum delay before re-issuing (µs). Clients add
        /// their own jitter on top so a synchronized storm cannot re-form
        /// on the retry edge.
        retry_after_us: u64,
    },
}

impl Wire for DataMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            DataMsg::SessionInit { client_eph } => {
                enc.u8(0);
                enc.raw(client_eph);
            }
            DataMsg::SessionAccept { server_eph, client_eph, server, chain, signature } => {
                enc.u8(1);
                enc.raw(server_eph);
                enc.raw(client_eph);
                server.encode(enc);
                chain.encode(enc);
                enc.raw(&signature.to_bytes());
            }
            DataMsg::PutMetadata { metadata } => {
                enc.u8(2);
                metadata.encode(enc);
            }
            DataMsg::Host { metadata, chain, peers } => {
                enc.u8(14);
                metadata.encode(enc);
                chain.encode(enc);
                enc.seq(peers, |e, p| {
                    e.name(p);
                });
            }
            DataMsg::HostAck { capsule } => {
                enc.u8(15);
                enc.name(capsule);
            }
            DataMsg::Append { record, ack_mode } => {
                enc.u8(3);
                record.encode(enc);
                ack_mode.encode(enc);
            }
            DataMsg::AppendAck { seq, hash, replicas, auth } => {
                enc.u8(4);
                enc.varint(*seq);
                enc.raw(&hash.0);
                enc.u32(*replicas);
                auth.encode(enc);
            }
            DataMsg::Read { target } => {
                enc.u8(5);
                target.encode(enc);
            }
            DataMsg::ReadResp { result, auth } => {
                enc.u8(6);
                result.encode(enc);
                auth.encode(enc);
            }
            DataMsg::Subscribe { from_seq } => {
                enc.u8(7);
                enc.varint(*from_seq);
            }
            DataMsg::Event { record, auth } => {
                enc.u8(8);
                record.encode(enc);
                auth.encode(enc);
            }
            DataMsg::Replicate { capsule, record } => {
                enc.u8(9);
                enc.name(capsule);
                record.encode(enc);
            }
            DataMsg::ReplicateAck { capsule, hash } => {
                enc.u8(10);
                enc.name(capsule);
                enc.raw(&hash.0);
            }
            DataMsg::SyncRequest { capsule, have_seq, missing } => {
                enc.u8(11);
                enc.name(capsule);
                enc.varint(*have_seq);
                enc.seq(missing, |e, p| {
                    e.varint(p.seq);
                    e.raw(&p.hash.0);
                });
            }
            DataMsg::SyncResponse { capsule, records } => {
                enc.u8(12);
                enc.name(capsule);
                enc.seq(records, |e, r| r.encode(e));
            }
            DataMsg::ErrResp { code, detail } => {
                enc.u8(13);
                enc.u8(*code as u8);
                enc.string(detail);
            }
            DataMsg::Nack { code, retry_after_us } => {
                enc.u8(16);
                enc.u8(*code as u8);
                enc.varint(*retry_after_us);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.u8()? {
            0 => DataMsg::SessionInit { client_eph: dec.array::<32>()? },
            1 => DataMsg::SessionAccept {
                server_eph: dec.array::<32>()?,
                client_eph: dec.array::<32>()?,
                server: Principal::decode(dec)?,
                chain: ServingChain::decode(dec)?,
                signature: Signature(dec.array::<64>()?),
            },
            2 => DataMsg::PutMetadata { metadata: CapsuleMetadata::decode(dec)? },
            3 => DataMsg::Append { record: Record::decode(dec)?, ack_mode: AckMode::decode(dec)? },
            4 => DataMsg::AppendAck {
                seq: dec.varint()?,
                hash: RecordHash(dec.array::<32>()?),
                replicas: dec.u32()?,
                auth: ResponseAuth::decode(dec)?,
            },
            5 => DataMsg::Read { target: ReadTarget::decode(dec)? },
            6 => DataMsg::ReadResp {
                result: ReadResult::decode(dec)?,
                auth: ResponseAuth::decode(dec)?,
            },
            7 => DataMsg::Subscribe { from_seq: dec.varint()? },
            8 => DataMsg::Event { record: Record::decode(dec)?, auth: ResponseAuth::decode(dec)? },
            9 => DataMsg::Replicate { capsule: dec.name()?, record: Record::decode(dec)? },
            10 => {
                DataMsg::ReplicateAck { capsule: dec.name()?, hash: RecordHash(dec.array::<32>()?) }
            }
            11 => DataMsg::SyncRequest {
                capsule: dec.name()?,
                have_seq: dec.varint()?,
                missing: dec.seq(|d| {
                    Ok(Pointer { seq: d.varint()?, hash: RecordHash(d.array::<32>()?) })
                })?,
            },
            12 => DataMsg::SyncResponse { capsule: dec.name()?, records: dec.seq(Record::decode)? },
            13 => DataMsg::ErrResp {
                code: ErrorCode::from_u8(dec.u8()?).ok_or(DecodeError::Invalid("error code"))?,
                detail: dec.string()?,
            },
            14 => DataMsg::Host {
                metadata: CapsuleMetadata::decode(dec)?,
                chain: ServingChain::decode(dec)?,
                peers: dec.seq(|d| d.name())?,
            },
            15 => DataMsg::HostAck { capsule: dec.name()? },
            16 => DataMsg::Nack {
                code: NackCode::from_u8(dec.u8()?).ok_or(DecodeError::Invalid("nack code"))?,
                retry_after_us: dec.varint()?,
            },
            t => return Err(DecodeError::BadTag(t as u64)),
        })
    }
}

/// Canonical auth-body for an AppendAck (what ResponseAuth covers).
pub fn append_ack_body(seq: u64, hash: &RecordHash, replicas: u32) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.varint(seq);
    enc.raw(&hash.0);
    enc.u32(replicas);
    enc.finish()
}

/// Canonical auth-body for a ReadResp.
pub fn read_result_body(result: &ReadResult) -> Vec<u8> {
    let mut enc = Encoder::new();
    result.encode(&mut enc);
    enc.finish()
}

/// Canonical auth-body for a subscription Event.
pub fn event_body(record: &Record) -> Vec<u8> {
    record.hash().0.to_vec()
}

/// The session-accept transcript signed by servers.
pub fn session_transcript(capsule: &Name, client_eph: &[u8; 32], server_eph: &[u8; 32]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.string("gdp/session/v1");
    enc.name(capsule);
    enc.raw(client_eph);
    enc.raw(server_eph);
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_capsule::{MetadataBuilder, Record, RecordHash};
    use gdp_cert::{PrincipalId, PrincipalKind};

    fn sample_record() -> (Name, Record) {
        let owner = SigningKey::from_seed(&[1u8; 32]);
        let writer = SigningKey::from_seed(&[2u8; 32]);
        let meta = MetadataBuilder::new().writer(&writer.verifying_key()).sign(&owner);
        let name = meta.name();
        let r =
            Record::create(&name, &writer, 1, 0, RecordHash::anchor(&name), vec![], b"x".to_vec());
        (name, r)
    }

    #[test]
    fn all_messages_roundtrip() {
        let (name, record) = sample_record();
        let server = PrincipalId::from_seed(PrincipalKind::Server, &[3u8; 32], "s");
        let msgs = vec![
            DataMsg::SessionInit { client_eph: [7u8; 32] },
            DataMsg::Append { record: record.clone(), ack_mode: AckMode::Quorum(2) },
            DataMsg::AppendAck {
                seq: 1,
                hash: record.hash(),
                replicas: 3,
                auth: ResponseAuth::Mac {
                    server: Name::from_content(b"s"),
                    epoch: [2u8; 8],
                    tag: [9u8; 32],
                },
            },
            DataMsg::Read { target: ReadTarget::Range(2, 9) },
            DataMsg::Subscribe { from_seq: 4 },
            DataMsg::Event {
                record: record.clone(),
                auth: ResponseAuth::Mac {
                    server: Name::from_content(b"s"),
                    epoch: [3u8; 8],
                    tag: [1u8; 32],
                },
            },
            DataMsg::Replicate { capsule: name, record: record.clone() },
            DataMsg::ReplicateAck { capsule: name, hash: record.hash() },
            DataMsg::SyncRequest {
                capsule: name,
                have_seq: 9,
                missing: vec![record.pointer(), Pointer { seq: u64::MAX, hash: record.hash() }],
            },
            DataMsg::SyncResponse { capsule: name, records: vec![record.clone()] },
            DataMsg::ErrResp { code: ErrorCode::NotFound, detail: "nope".to_string() },
            DataMsg::Nack { code: NackCode::Busy, retry_after_us: 250_000 },
        ];
        for m in msgs {
            assert_eq!(DataMsg::from_wire(&m.to_wire()).unwrap(), m, "roundtrip failed");
        }
        let _ = server;
    }

    #[test]
    fn response_auth_binds_transcript() {
        let key = SigningKey::from_seed(&[5u8; 32]);
        let capsule = Name::from_content(b"c");
        let sig = sign_response(&key, &capsule, 7, b"body");
        assert!(key.verifying_key().verify(&response_transcript(&capsule, 7, b"body"), &sig));
        // Different request seq → different transcript.
        assert!(!key.verifying_key().verify(&response_transcript(&capsule, 8, b"body"), &sig));
    }

    #[test]
    fn mac_response_differs_per_key() {
        let capsule = Name::from_content(b"c");
        let t1 = mac_response(&[1u8; 32], &capsule, 1, b"x");
        let t2 = mac_response(&[2u8; 32], &capsule, 1, b"x");
        assert_ne!(t1, t2);
    }

    #[test]
    fn ack_modes_roundtrip() {
        let (_, record) = sample_record();
        for mode in [AckMode::Local, AckMode::Quorum(5), AckMode::All] {
            let m = DataMsg::Append { record: record.clone(), ack_mode: mode };
            match DataMsg::from_wire(&m.to_wire()).unwrap() {
                DataMsg::Append { ack_mode, .. } => assert_eq!(ack_mode, mode),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn read_targets_roundtrip() {
        for t in [
            ReadTarget::One(3),
            ReadTarget::Range(1, 5),
            ReadTarget::Latest,
            ReadTarget::ProofOf(2),
            ReadTarget::HeartbeatOnly,
        ] {
            let m = DataMsg::Read { target: t };
            match DataMsg::from_wire(&m.to_wire()).unwrap() {
                DataMsg::Read { target } => assert_eq!(target, t),
                _ => panic!(),
            }
        }
    }
}
