//! A live 3-node GDP cluster over real TCP sockets — the same wiring the
//! `gdpd` daemon uses, driven in-process so one binary shows the whole
//! flow: one GDP-router and two DataCapsule-server replicas on loopback,
//! a verifying client appending signed records with quorum durability,
//! reading them back with proofs, and failing over when a replica stops.
//!
//! Run with: `cargo run --example live_cluster`
//!
//! To run the same topology as three separate OS processes, see the
//! `gdpd` section of the README.

use gdp::capsule::{MetadataBuilder, PointerStrategy};
use gdp::cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp::client::VerifiedRead;
use gdp::crypto::SigningKey;
use gdp::node::{self, ClusterClient, HostSpec, NodeConfig, Role, FOREVER};
use gdp::router::Router;
use gdp::server::{AckMode, ReadTarget};

/// The server identity a storage node derives from its config seed.
fn server_identity(seed: [u8; 32], label: &str) -> PrincipalId {
    let mut s = seed;
    s[0] ^= 0x5a;
    PrincipalId::from_seed(PrincipalKind::Server, &s, label)
}

fn main() {
    // ---- Identities & the capsule's delegations (owner-side setup) ----
    let router_seed = [10u8; 32];
    let router_name = Router::from_seed(&router_seed, "edge-router").name();
    let s1 = server_identity([21u8; 32], "replica-1");
    let s2 = server_identity([22u8; 32], "replica-2");

    let owner = SigningKey::from_seed(&[31u8; 32]);
    let writer_key = SigningKey::from_seed(&[32u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&writer_key.verifying_key())
        .set_str("description", "live cluster demo")
        .sign(&owner);
    let capsule = meta.name();
    let chain_for = |srv: &PrincipalId| {
        ServingChain::direct(
            AdCert::issue(&owner, capsule, srv.name(), false, Scope::Global, FOREVER),
            srv.principal().clone(),
        )
    };

    // ---- The cluster: router first, then two storage replicas ---------
    let router = node::start(NodeConfig {
        role: Role::Router,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed: router_seed,
        label: "edge-router".into(),
        peers: vec![],
        router: None,
        data_dir: None,
        fsync: None,
        stats_path: None,
        hosts: vec![],
        admission_rate: 0,
        admission_burst: 64,
    })
    .expect("start router");
    println!("router     {} @ {}", router_name.to_hex(), router.local_addr());

    let storage = |seed: [u8; 32], label: &str, me: &PrincipalId, other: &PrincipalId| {
        node::start(NodeConfig {
            role: Role::Storage,
            listen: "127.0.0.1:0".parse().unwrap(),
            seed,
            label: label.into(),
            peers: vec![router.local_addr()],
            router: Some(router_name),
            data_dir: None, // in-memory stores for the demo
            fsync: None,
            stats_path: None,
            admission_rate: 0,
            admission_burst: 64,
            hosts: vec![HostSpec {
                metadata: meta.clone(),
                chain: chain_for(me),
                peers: vec![other.name()],
            }],
        })
        .expect("start storage node")
    };
    let replica1 = storage([21u8; 32], "replica-1", &s1, &s2);
    let replica2 = storage([22u8; 32], "replica-2", &s2, &s1);
    println!("replica-1  {} @ {}", s1.name().to_hex(), replica1.local_addr());
    println!("replica-2  {} @ {}", s2.name().to_hex(), replica2.local_addr());

    // ---- A verifying client over real sockets -------------------------
    let mut client = ClusterClient::connect(router.local_addr(), router_name, &[41u8; 32], "demo")
        .expect("attach to router");
    client.track(&meta).expect("track capsule");
    client.register_writer(&meta, writer_key, PointerStrategy::Chain).expect("register writer");

    client.session(capsule).expect("session");
    println!("client     session established");

    for i in 0..5u64 {
        let seq = client
            .append(capsule, format!("measurement {i}").as_bytes(), AckMode::Quorum(1))
            .expect("replicated append");
        println!("append     seq {seq} replicated to quorum");
    }

    let read = client.read(capsule, ReadTarget::Range(1, 5)).expect("range read");
    let VerifiedRead::Records(records) = read else { unreachable!() };
    println!("read       {} records, hash chain verified", records.len());

    let read = client.read(capsule, ReadTarget::ProofOf(2)).expect("proof read");
    let VerifiedRead::Proven(rec) = read else { unreachable!() };
    println!("proof      seq {} proven against newest heartbeat", rec.header.seq);

    // ---- Failover -----------------------------------------------------
    replica2.stop();
    println!("failover   replica-2 stopped");
    let seq = client.append(capsule, b"after failover", AckMode::Local).expect("append");
    let read = client.read(capsule, ReadTarget::Range(1, seq)).expect("read after failover");
    let VerifiedRead::Records(records) = read else { unreachable!() };
    println!(
        "failover   append + read served by survivor ({} records, last: {:?})",
        records.len(),
        String::from_utf8_lossy(&records.last().unwrap().body),
    );

    client.close();
    replica1.stop();
    router.stop();
    println!("done       cluster shut down cleanly");
}
