//! The sans-I/O state machines on real threads: a router node and a
//! storage node, each on its own event-loop thread behind a loopback
//! `TcpNet` socket (the wiring `gdpd` uses), while the main thread drives
//! a verifying client. Exercises cross-thread queueing and the socket
//! boundary through the `gdp` facade.

use gdp::capsule::{MetadataBuilder, PointerStrategy};
use gdp::cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp::client::VerifiedRead;
use gdp::crypto::SigningKey;
use gdp::node::{self, ClusterClient, HostSpec, NodeConfig, Role, FOREVER};
use gdp::router::Router;
use gdp::server::{AckMode, ReadTarget};

#[test]
fn full_stack_on_threads() {
    let owner = SigningKey::from_seed(&[1u8; 32]);
    let writer_key = SigningKey::from_seed(&[2u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&writer_key.verifying_key())
        .set_str("description", "threaded")
        .sign(&owner);
    let capsule = meta.name();

    let router_seed = [4u8; 32];
    let router_name = Router::from_seed(&router_seed, "threaded-router").name();
    let router_cfg = NodeConfig {
        role: Role::Router,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed: router_seed,
        label: "threaded-router".into(),
        peers: vec![],
        router: None,
        data_dir: None,
        fsync: None,
        stats_path: None,
        hosts: vec![],
        admission_rate: 0,
        admission_burst: 64,
    };
    let router = node::start(router_cfg.clone()).expect("start router");

    // The server identity a storage node derives from its config seed.
    let server_seed = [3u8; 32];
    let mut id_seed = server_seed;
    id_seed[0] ^= 0x5a;
    let server_id = PrincipalId::from_seed(PrincipalKind::Server, &id_seed, "threaded-srv");
    let chain = ServingChain::direct(
        AdCert::issue(&owner, capsule, server_id.name(), false, Scope::Global, FOREVER),
        server_id.principal().clone(),
    );
    let server = node::start(NodeConfig {
        role: Role::Storage,
        seed: server_seed,
        label: "threaded-srv".into(),
        peers: vec![router.local_addr()],
        router: Some(router_name),
        hosts: vec![HostSpec { metadata: meta.clone(), chain, peers: vec![] }],
        ..router_cfg
    })
    .expect("start storage node");

    let mut client =
        ClusterClient::connect(router.local_addr(), router_name, &[5u8; 32], "threaded-client")
            .expect("attach to router");
    client.track(&meta).unwrap();
    client.register_writer(&meta, writer_key, PointerStrategy::Chain).unwrap();

    // Twenty appends; the first may race the server's attach, which
    // `ClusterClient::append` rides out by resending the same record.
    const N: u64 = 20;
    for i in 0..N {
        let seq = client
            .append(capsule, format!("threaded {i}").as_bytes(), AckMode::Local)
            .expect("append acked");
        assert_eq!(seq, i + 1);
    }

    // Verified range read across threads.
    let VerifiedRead::Records(records) =
        client.read(capsule, ReadTarget::Range(1, N)).expect("range read")
    else {
        panic!("Range read did not return records");
    };
    assert_eq!(records.len() as u64, N);
    assert_eq!(records[0].body, b"threaded 0");
    assert_eq!(records[19].body, b"threaded 19");

    // A session handshake also works across threads.
    client.session(capsule).expect("session");
    assert!(client.core().has_session(&capsule));

    client.close();
    server.stop();
    router.stop();
}
