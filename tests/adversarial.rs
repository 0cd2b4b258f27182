//! Threat-model tests (paper §IV-C): "any messages can be arbitrarily
//! delayed, replayed at a later time, tampered with during transit, or
//! sent to the wrong destination. Similarly, a DataCapsule-server can
//! attempt to tamper with individual records or the order of records" —
//! and in every case "a client can detect such deviations".

use gdp::capsule::{MetadataBuilder, PointerStrategy, RangeProof, Record, RecordHash};
use gdp::cert::{PrincipalId, ServingChain};
use gdp::client::{ClientEvent, VerifiedRead};
use gdp::crypto::SigningKey;
use gdp::server::{DataMsg, ReadResult, ReadTarget, ResponseAuth};
use gdp::sim::{GdpWorld, Placement};
use gdp::wire::{Name, Pdu, PduType, Wire};

fn writer_key() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

fn world_with_data(seed: u64, n: u64) -> (GdpWorld, Name) {
    let mut world = GdpWorld::new(seed, Placement::EdgeLan);
    let owner = world.owner.clone();
    let meta = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "adversarial")
        .sign(&owner);
    let capsule = world.provision_capsule(&meta, writer_key(), PointerStrategy::Chain).unwrap();
    use gdp::caapi::CapsuleAccess;
    for i in 0..n {
        world.append(&capsule, format!("record {i}").as_bytes()).unwrap();
    }
    (world, capsule)
}

/// Grabs the stored record at `seq` straight from the server (what an
/// attacker controlling the server can see and resend).
fn stored_record(world: &mut GdpWorld, capsule: &Name, seq: u64) -> Record {
    world.server(0).stored_record(capsule, seq).unwrap().unwrap()
}

/// The `ReadResp` a server holding `signer`'s key and `chain` can give
/// request `request_seq`: `result`, correctly signed with its own key.
fn signed_read_resp(
    world: &mut GdpWorld,
    capsule: &Name,
    (signer, chain): (&PrincipalId, ServingChain),
    request_seq: u64,
    result: ReadResult,
) -> Pdu {
    let body = gdp::server::proto::read_result_body(&result);
    let signature =
        gdp::server::proto::sign_response(signer.signing_key(), capsule, request_seq, &body);
    let auth = ResponseAuth::Signed { server: signer.principal().clone(), chain, signature };
    Pdu {
        pdu_type: PduType::Data,
        src: signer.name(),
        dst: world.client_name(),
        seq: request_seq,
        payload: DataMsg::ReadResp { result, auth }.to_wire().into(),
    }
}

/// The world's (delegated) server and its serving chain for the capsule.
fn real_server(world: &mut GdpWorld) -> (PrincipalId, ServingChain) {
    (world.servers[0].1.clone(), world.server(0).advert_entries()[0].chain.clone())
}

/// Replaying an old (validly signed) response to a *different* request is
/// detected: the auth transcript binds the request sequence number.
#[test]
fn response_replay_rejected() {
    let (mut world, capsule) = world_with_data(70, 3);

    // Legitimate read → capture the genuine response PDU by re-creating it
    // from the server (same auth the server would produce for request A).
    let pdu_a = world.client_mut().read(capsule, ReadTarget::One(1));
    let seq_a = pdu_a.seq;
    let responses = world.server(0).handle_pdu(0, pdu_a);
    let genuine = responses.into_iter().next().unwrap();
    assert_eq!(genuine.seq, seq_a);
    // Deliver it: accepted.
    let events = world.client_mut().handle_pdu(0, genuine.clone());
    assert!(matches!(events[0], ClientEvent::ReadOk { .. }));

    // The attacker replays the same response body for the client's NEXT
    // request (different request seq).
    let pdu_b = world.client_mut().read(capsule, ReadTarget::One(2));
    let mut replayed = genuine;
    replayed.seq = pdu_b.seq; // re-address the old answer to the new request
    let events = world.client_mut().handle_pdu(0, replayed);
    assert!(
        matches!(events[0], ClientEvent::VerificationFailed { .. }),
        "replayed response must fail transcript verification: {events:?}"
    );
}

/// A record validly signed for capsule A cannot be injected into capsule B
/// (insertion attack across capsules).
#[test]
fn cross_capsule_record_injection_rejected() {
    let owner = SigningKey::from_seed(&[1u8; 32]);
    let meta_a = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "capsule A")
        .sign(&owner);
    let meta_b = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "capsule B")
        .sign(&owner);
    let record_for_a = Record::create(
        &meta_a.name(),
        &writer_key(),
        1,
        0,
        RecordHash::anchor(&meta_a.name()),
        vec![],
        b"meant for A".to_vec(),
    );
    let mut capsule_b = gdp::capsule::DataCapsule::new(meta_b).unwrap();
    assert!(capsule_b.ingest(record_for_a).is_err());
}

/// A stale replica serving an older-but-valid "latest" state is detected
/// by heartbeat monotonicity (sequential consistency, §VI-C).
#[test]
fn stale_replica_detected() {
    let (mut world, capsule) = world_with_data(71, 5);

    // The client reads latest (seq 5) legitimately.
    use gdp::caapi::CapsuleAccess;
    assert_eq!(world.latest(&capsule).unwrap().unwrap().header.seq, 5);

    // A stale (or rolled-back) replica now serves seq 3 as "latest" — with
    // perfectly valid writer signatures.
    let old_record = stored_record(&mut world, &capsule, 3);
    let hb = gdp::capsule::Heartbeat::from_record(&capsule, &old_record);
    let pdu = world.client_mut().read(capsule, ReadTarget::Latest);
    let request_seq = pdu.seq;
    let result = ReadResult::Latest(old_record, hb);
    // The malicious server signs its response correctly with its own key.
    let (server, chain) = real_server(&mut world);
    let forged = signed_read_resp(&mut world, &capsule, (&server, chain), request_seq, result);
    let events = world.client_mut().handle_pdu(0, forged);
    assert!(
        matches!(events[0], ClientEvent::VerificationFailed { reason: "stale replica state", .. }),
        "stale state must be discarded: {events:?}"
    );
}

/// Serving a range with reordered records is detected by the chain check.
#[test]
fn reordered_range_rejected() {
    let (mut world, capsule) = world_with_data(72, 4);
    let r1 = stored_record(&mut world, &capsule, 1);
    let r2 = stored_record(&mut world, &capsule, 2);
    let r3 = stored_record(&mut world, &capsule, 3);

    let pdu = world.client_mut().read(capsule, ReadTarget::Range(1, 3));
    let request_seq = pdu.seq;
    // Malicious server swaps records 2 and 3 (both individually valid) and
    // mislabels them: change the order in the response.
    let result = ReadResult::Records(vec![r1, r3, r2]);
    let (server, chain) = real_server(&mut world);
    let forged = signed_read_resp(&mut world, &capsule, (&server, chain), request_seq, result);
    let events = world.client_mut().handle_pdu(0, forged);
    assert!(
        matches!(events[0], ClientEvent::VerificationFailed { .. }),
        "reordered range must be rejected: {events:?}"
    );
}

/// An unauthorized server (no delegation for this capsule) cannot produce
/// an acceptable signed response even with a valid signature of its own.
#[test]
fn undelegated_server_response_rejected() {
    let (mut world, capsule) = world_with_data(73, 2);
    let record = stored_record(&mut world, &capsule, 1);

    // A rogue server with NO AdCert chain for this capsule.
    let rogue = PrincipalId::from_seed(gdp::cert::PrincipalKind::Server, &[88u8; 32], "rogue");
    // It forges a chain by self-issuing the AdCert.
    let rogue_adcert = gdp::cert::AdCert::issue(
        rogue.signing_key(),
        capsule,
        rogue.name(),
        false,
        gdp::cert::Scope::Global,
        1 << 50,
    );
    let rogue_chain = ServingChain::direct(rogue_adcert, rogue.principal().clone());

    let pdu = world.client_mut().read(capsule, ReadTarget::One(1));
    let request_seq = pdu.seq;
    let result = ReadResult::Record(record);
    let forged = signed_read_resp(&mut world, &capsule, (&rogue, rogue_chain), request_seq, result);
    let events = world.client_mut().handle_pdu(0, forged);
    assert!(
        matches!(events[0], ClientEvent::VerificationFailed { .. }),
        "undelegated server must be rejected: {events:?}"
    );
}

/// A MITM cannot hijack session establishment: substituting its own
/// ephemeral key requires re-signing the transcript, which only a
/// delegated server's key can do acceptably.
#[test]
fn session_mitm_rejected() {
    let (mut world, capsule) = world_with_data(74, 1);
    let init = world.client_mut().session_init(capsule);
    let request_seq = init.seq;
    // Extract the client ephemeral from the init message.
    let DataMsg::SessionInit { client_eph } = DataMsg::from_wire(&init.payload).unwrap() else {
        panic!("expected SessionInit");
    };
    // MITM answers with its own ephemeral, posing as the real server but
    // signing with its own key.
    let mitm = SigningKey::from_seed(&[77u8; 32]);
    let mitm_eph = gdp::crypto::x25519::EphemeralKeyPair::from_secret([5u8; 32]);
    let transcript =
        gdp::server::proto::session_transcript(&capsule, &client_eph, mitm_eph.public());
    let server = world.server(0);
    let real_chain = server.advert_entries()[0].chain.clone();
    let real_principal = server.principal().clone();
    let msg = DataMsg::SessionAccept {
        server_eph: *mitm_eph.public(),
        client_eph,
        server: real_principal, // claims to be the real server
        chain: real_chain,
        signature: mitm.sign(&transcript), // but can't sign as it
    };
    let forged = Pdu {
        pdu_type: PduType::Data,
        src: world.servers[0].1.name(),
        dst: world.client_name(),
        seq: request_seq,
        payload: msg.to_wire().into(),
    };
    let events = world.client_mut().handle_pdu(0, forged);
    assert!(
        matches!(events[0], ClientEvent::VerificationFailed { .. }),
        "MITM session must be rejected: {events:?}"
    );
    assert!(!world.client_mut().has_session(&capsule));
}

/// Message loss does not corrupt anything: a lossy link drops requests,
/// the operation simply fails (or succeeds on retry) — never wrong data.
#[test]
fn lossy_network_never_yields_wrong_data() {
    use gdp::caapi::CapsuleAccess;
    let (mut world, capsule) = world_with_data(75, 10);
    // Make the client↔router link 40% lossy in both directions.
    let (router_node, _) = world.routers[0];
    let client_node = world.client_node;
    let lossy = gdp::sim::LinkSpec { latency_us: 200, bandwidth_bps: 1_000_000_000, loss: 0.4 };
    world.cluster.net.connect_directed(client_node, router_node, lossy);
    world.cluster.net.connect_directed(router_node, client_node, lossy);
    let mut ok = 0;
    let mut failed = 0;
    for seq in 1..=10u64 {
        match world.read(&capsule, seq) {
            Ok(r) => {
                assert_eq!(r.body, format!("record {}", seq - 1).into_bytes());
                ok += 1;
            }
            Err(_) => failed += 1,
        }
    }
    assert!(ok > 0, "some reads should get through");
    assert!(failed > 0, "with 40% loss some reads should fail");
}

/// A ~100-byte `Range(1, u64::MAX)` on a capsule larger than one frame
/// (`MAX_PAYLOAD`) used to make the server copy the whole capsule into a
/// PDU no transport would carry — the client saw silence. The index knows
/// every record's wire bound: the request is refused, typed, before a
/// single store read, and the flow keeps serving.
#[test]
fn hostile_range_is_refused_before_the_store_and_the_flow_lives_on() {
    let mut world = GdpWorld::new(78, Placement::EdgeLan);
    // Reboot the server onto a data_dir: bodies live in its segmented log.
    let dir = std::env::temp_dir().join(format!("gdp-adversarial-range-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    world.cluster.crash_storage(0);
    world.cluster.storage_config_mut(0).data_dir = Some(dir.clone());
    world.cluster.restart_storage(0);
    world.cluster.settle();
    assert!(world.cluster.storage_attached(0));

    let owner = world.owner.clone();
    let meta = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "larger than a frame")
        .sign(&owner);
    let capsule = world.provision_capsule(&meta, writer_key(), PointerStrategy::Chain).unwrap();
    use gdp::caapi::CapsuleAccess;
    const BODY: usize = 64 * 1024;
    let records = gdp::wire::MAX_PAYLOAD / BODY + 8;
    for chunk in 0..records / 8 {
        let bodies: Vec<Vec<u8>> = (0..8).map(|i| vec![(chunk * 8 + i) as u8; BODY]).collect();
        world.append_batch(&capsule, &bodies).unwrap();
    }

    let server = world.servers[0].0;
    let counted = |world: &GdpWorld, scope, name| {
        world.cluster.node_metrics(server).counter_value(scope, name)
    };
    let reads_before = counted(&world, "store", "reads_served_from_store");
    let pdu = world.client_mut().read(capsule, ReadTarget::Range(1, u64::MAX));
    let events = world.drive(pdu);
    assert!(
        matches!(
            &events[..],
            [ClientEvent::ServerError { code: gdp::server::ErrorCode::BadRequest, detail, .. }]
                if detail == "range exceeds one answer"
        ),
        "{events:?}"
    );
    assert_eq!(counted(&world, "server", "reads_refused_oversize"), 1);
    assert_eq!(counted(&world, "store", "reads_served_from_store"), reads_before);

    let pdu = world.client_mut().read(capsule, ReadTarget::Range(1, 32));
    let events = world.drive(pdu);
    match &events[..] {
        [ClientEvent::ReadOk { result: gdp::client::VerifiedRead::Records(rs), .. }] => {
            assert_eq!(rs.len(), 32);
            assert!(rs.iter().all(|r| r.body.len() == BODY));
        }
        other => panic!("the next range on the same flow must be served: {other:?}"),
    }
    assert_eq!(counted(&world, "store", "reads_served_from_store"), reads_before + 32);
    let _ = std::fs::remove_dir_all(dir);
}

// ---- the range answer a client verifies with one signature -------------

/// What the world's server answers `target` with right now.
fn served(world: &mut GdpWorld, capsule: &Name, target: ReadTarget) -> ReadResult {
    let ask = Pdu::data(world.client_name(), *capsule, 0, DataMsg::Read { target }.to_wire());
    match DataMsg::from_wire(&world.server(0).handle_pdu(0, ask)[0].payload).unwrap() {
        DataMsg::ReadResp { result, .. } => result,
        other => panic!("{target:?} answered {other:?}"),
    }
}

/// The server's range proof for `[a, b]`.
fn served_range(world: &mut GdpWorld, capsule: &Name, a: u64, b: u64) -> RangeProof {
    match served(world, capsule, ReadTarget::Range(a, b)) {
        ReadResult::RangeProofResult(p) => p,
        other => panic!("Range({a}, {b}) answered {other:?}"),
    }
}

/// The client asks `target`; the delegated server answers `result`,
/// correctly signed. Returns what the client made of it.
fn answered(
    world: &mut GdpWorld,
    capsule: &Name,
    target: ReadTarget,
    result: ReadResult,
) -> Vec<ClientEvent> {
    let request_seq = world.client_mut().read(*capsule, target).seq;
    let (server, chain) = real_server(world);
    let forged = signed_read_resp(world, capsule, (&server, chain), request_seq, result);
    world.client_mut().handle_pdu(0, forged)
}

/// The one reason the client rejected `result` as the answer to `target`.
fn rejection(
    world: &mut GdpWorld,
    capsule: &Name,
    target: ReadTarget,
    result: ReadResult,
) -> &'static str {
    match &answered(world, capsule, target, result)[..] {
        [ClientEvent::VerificationFailed { reason, .. }] => reason,
        other => panic!("{target:?}: the forged answer was not rejected: {other:?}"),
    }
}

/// After a rejected answer the flow still serves: a range over the real
/// network verifies to the writer's records.
fn flow_lives_on(world: &mut GdpWorld, capsule: &Name) {
    let pdu = world.client_mut().read(*capsule, ReadTarget::Range(2, 5));
    match &world.drive(pdu)[..] {
        [ClientEvent::ReadOk { result: VerifiedRead::Records(rs), .. }] => {
            let bodies: Vec<Vec<u8>> = rs.iter().map(|r| r.body.to_vec()).collect();
            let want: Vec<Vec<u8>> = (1..5).map(|i| format!("record {i}").into_bytes()).collect();
            assert_eq!(bodies, want);
        }
        other => panic!("the next range on the same flow must be served: {other:?}"),
    }
}

/// One forged record inside a range proof's run — its body, or the whole
/// record — breaks the hash chain from the one signed heartbeat.
#[test]
fn forged_middle_record_of_a_range_proof_rejected() {
    let (mut world, capsule) = world_with_data(90, 8);
    let genuine = served_range(&mut world, &capsule, 2, 6);
    assert_eq!(genuine.older.len(), 4);

    let mut forged_body = genuine.clone();
    forged_body.older[2].body = b"forged".to_vec().into();
    let result = ReadResult::RangeProofResult(forged_body);
    assert_eq!(
        rejection(&mut world, &capsule, ReadTarget::Range(2, 6), result),
        "range proof invalid"
    );

    // A substitute the writer really signed, at the same seq on the same
    // predecessor, verifies on its own; the next record does not name it.
    let mut substituted = genuine;
    let signed_elsewhere = Record::create(
        &capsule,
        &writer_key(),
        4,
        0,
        substituted.older[1].hash(),
        vec![],
        b"signed, but not this history".to_vec(),
    );
    substituted.older[2] = signed_elsewhere;
    let result = ReadResult::RangeProofResult(substituted);
    assert_eq!(
        rejection(&mut world, &capsule, ReadTarget::Range(2, 6), result),
        "range proof invalid"
    );
    flow_lives_on(&mut world, &capsule);
}

/// A run cut short of what was asked — not at its heartbeat's head — is
/// refused, whether the current heartbeat anchors it through a proof of
/// its last record or the same records come with no heartbeat at all. (A
/// run ending at its own heartbeat is a stale heartbeat's claim, below.)
#[test]
fn truncated_range_rejected() {
    let (mut world, capsule) = world_with_data(91, 8);
    let ReadResult::Proof(to_5) = served(&mut world, &capsule, ReadTarget::ProofOf(5)) else {
        panic!("ProofOf(5) is answered with a proof")
    };
    assert_eq!(to_5.heartbeat.seq, 8);
    let older = served_range(&mut world, &capsule, 2, 5).older;
    let result = ReadResult::RangeProofResult(RangeProof { newest: to_5, older });
    assert_eq!(
        rejection(&mut world, &capsule, ReadTarget::Range(2, 7), result),
        "range does not end where asked"
    );
    let from_3 = served_range(&mut world, &capsule, 3, 7);
    let result = ReadResult::RangeProofResult(from_3);
    assert_eq!(
        rejection(&mut world, &capsule, ReadTarget::Range(2, 7), result),
        "range does not start where asked"
    );
    let bare: Vec<Record> = (2..=5).map(|s| stored_record(&mut world, &capsule, s)).collect();
    let result = ReadResult::Records(bare);
    assert_eq!(
        rejection(&mut world, &capsule, ReadTarget::Range(2, 7), result),
        "range does not end where asked"
    );
    flow_lives_on(&mut world, &capsule);
}

/// Reordering a range proof's run breaks its chain.
#[test]
fn reordered_range_proof_rejected() {
    let (mut world, capsule) = world_with_data(92, 8);
    let mut reordered = served_range(&mut world, &capsule, 1, 6);
    reordered.older.swap(1, 2);
    let result = ReadResult::RangeProofResult(reordered);
    assert_eq!(
        rejection(&mut world, &capsule, ReadTarget::Range(1, 6), result),
        "range proof invalid"
    );
    flow_lives_on(&mut world, &capsule);
}

/// A replica that kept an old heartbeat can present "the capsule ends
/// here" with a valid proof. Once the client has seen a newer heartbeat,
/// that truncation is stale state, rejected; a range the old heartbeat
/// covers whole still verifies (time shift).
#[test]
fn stale_heartbeat_cannot_truncate_a_range() {
    use gdp::caapi::CapsuleAccess;
    let (mut world, capsule) = world_with_data(93, 5);
    let old = served_range(&mut world, &capsule, 1, 50);
    assert_eq!(old.newest.heartbeat.seq, 5);
    for i in 5..8 {
        world.append(&capsule, format!("record {i}").as_bytes()).unwrap();
    }
    assert_eq!(world.latest(&capsule).unwrap().unwrap().header.seq, 8);

    let result = ReadResult::RangeProofResult(old.clone());
    assert_eq!(
        rejection(&mut world, &capsule, ReadTarget::Range(1, 50), result),
        "stale replica state"
    );
    let old_whole = ReadResult::RangeProofResult(old);
    let events = answered(&mut world, &capsule, ReadTarget::Range(1, 5), old_whole);
    assert!(matches!(&events[..], [ClientEvent::ReadOk { .. }]), "{events:?}");
    flow_lives_on(&mut world, &capsule);
}

/// A valid proof of another seq is not an answer to `ProofOf(s)`.
#[test]
fn proof_of_the_wrong_seq_rejected() {
    let (mut world, capsule) = world_with_data(94, 8);
    let proof_of_3 = served(&mut world, &capsule, ReadTarget::ProofOf(3));
    assert!(matches!(proof_of_3, ReadResult::Proof(_)));
    let reason = rejection(&mut world, &capsule, ReadTarget::ProofOf(2), proof_of_3);
    assert_eq!(reason, "proof is for another seq");
    flow_lives_on(&mut world, &capsule);
}
