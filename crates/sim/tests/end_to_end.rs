//! Full-stack integration: client ↔ router hierarchy ↔ replicated
//! DataCapsule-servers, every node a `NodeRuntime` on the deterministic
//! fabric.

use gdp_capsule::{MetadataBuilder, PointerStrategy};
use gdp_client::{ClientEvent, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_server::{AckMode, ReadTarget};
use gdp_sim::GdpWorld;
use gdp_wire::Name;

fn writer_key() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

/// Two domains under a root; capsule replicated on one server per domain
/// (`servers[0]` in domain 1, `servers[1]` in domain 2); the writer-client
/// lives in domain 2.
fn build_world() -> (GdpWorld, Name, gdp_capsule::CapsuleMetadata) {
    let mut world = GdpWorld::hierarchy(11);
    let metadata = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "e2e capsule")
        .sign(&world.owner);
    let capsule =
        world.provision_capsule(&metadata, writer_key(), PointerStrategy::SkipList).unwrap();
    (world, capsule, metadata)
}

fn send_request(world: &mut GdpWorld, pdu: gdp_wire::Pdu) {
    world.cluster.send_from(world.client_node, pdu);
    world.cluster.run_for(2_000_000);
}

#[test]
fn append_replicates_and_reads_verify() {
    let (mut world, capsule, _) = build_world();

    // Append three records with quorum-1 durability.
    for i in 0..3u64 {
        let (pdu, _) = world
            .client_mut()
            .append(capsule, format!("entry {i}").as_bytes(), i, AckMode::Quorum(1))
            .unwrap();
        send_request(&mut world, pdu);
    }
    let events = world.cluster.take_events(world.client_node);
    let acks: Vec<_> =
        events.iter().filter(|e| matches!(e, ClientEvent::AppendAcked { .. })).collect();
    assert_eq!(acks.len(), 3, "events: {events:?}");
    if let ClientEvent::AppendAcked { replicas, .. } = acks[2] {
        assert!(*replicas >= 2, "quorum ack must report ≥2 replicas");
    }

    // Both replicas hold all three records (leaderless replication).
    for i in 0..2 {
        let c = world.server(i).capsule(&capsule).unwrap();
        assert_eq!((c.len(), c.latest_seq()), (3, 3));
    }

    // Read latest and a membership proof; both verify client-side.
    let pdu = world.client_mut().read(capsule, ReadTarget::Latest);
    send_request(&mut world, pdu);
    let pdu = world.client_mut().read(capsule, ReadTarget::ProofOf(1));
    send_request(&mut world, pdu);

    let events = world.cluster.take_events(world.client_node);
    let mut saw_latest = false;
    let mut saw_proof = false;
    for e in &events {
        match e {
            ClientEvent::ReadOk { result: VerifiedRead::Latest(r, hb), .. } => {
                assert_eq!(r.header.seq, 3);
                assert_eq!(hb.seq, 3);
                saw_latest = true;
            }
            ClientEvent::ReadOk { result: VerifiedRead::Proven(r), .. } => {
                assert_eq!(r.header.seq, 1);
                assert_eq!(r.body, b"entry 0");
                saw_proof = true;
            }
            ClientEvent::VerificationFailed { reason, .. } => {
                panic!("unexpected verification failure: {reason}");
            }
            _ => {}
        }
    }
    assert!(saw_latest && saw_proof, "events: {events:?}");
}

#[test]
fn session_upgrade_to_hmac() {
    let (mut world, capsule, _) = build_world();

    let pdu = world.client_mut().session_init(capsule);
    send_request(&mut world, pdu);
    let events = world.cluster.take_events(world.client_node);
    assert!(
        events.iter().any(|e| matches!(e, ClientEvent::SessionReady { .. })),
        "events: {events:?}"
    );
    assert!(world.client_mut().has_session(&capsule));

    // Subsequent appends are HMAC-authenticated and still verify.
    let (pdu, _) = world.client_mut().append(capsule, b"after session", 1, AckMode::Local).unwrap();
    send_request(&mut world, pdu);
    let events = world.cluster.take_events(world.client_node);
    assert!(
        events.iter().any(|e| matches!(e, ClientEvent::AppendAcked { .. })),
        "events: {events:?}"
    );
}

#[test]
fn subscription_delivers_live_events() {
    let (mut world, capsule, metadata) = build_world();

    // A second client (reader) in domain 1 subscribes.
    let reader_node = world.add_client(&[31u8; 32], "reader", 2);
    world.cluster.client_at(reader_node).track_capsule(&metadata).unwrap();
    let sub_pdu = world.cluster.client_at(reader_node).subscribe(capsule, 0);
    world.cluster.send_from(reader_node, sub_pdu);
    world.cluster.settle();

    // Writer appends; the reader (subscribed at the domain-1 replica) must
    // get the event after replication.
    let (pdu, _) = world.client_mut().append(capsule, b"published!", 7, AckMode::Local).unwrap();
    send_request(&mut world, pdu);

    let events = world.cluster.take_events(reader_node);
    let sub_events: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ClientEvent::SubEvent { record, .. } => Some(record.body.clone()),
            _ => None,
        })
        .collect();
    assert!(sub_events.iter().any(|b| b == b"published!"), "reader events: {events:?}");
}

#[test]
fn anti_entropy_heals_partition() {
    let (mut world, capsule, _) = build_world();

    // Partition server 1's domain from the root.
    let (root, r1) = (world.routers[1].0, world.routers[2].0);
    world.cluster.net.partition(root, r1);

    for i in 0..4u64 {
        let (pdu, _) = world
            .client_mut()
            .append(capsule, format!("during partition {i}").as_bytes(), i, AckMode::Local)
            .unwrap();
        send_request(&mut world, pdu);
    }
    // Server 2 has the records; server 1 does not.
    assert_eq!(world.server(1).capsule(&capsule).unwrap().len(), 4);
    assert_eq!(world.server(0).capsule(&capsule).unwrap().len(), 0);

    // Heal the partition; anti-entropy ticks must catch server 1 up.
    world.cluster.net.heal(root, r1);
    world.cluster.run_for(5_000_000);
    assert_eq!(
        world.server(0).capsule(&capsule).unwrap().len(),
        4,
        "anti-entropy should heal the lagging replica"
    );
}
