//! End-to-end acceptance test: a 3-node GDP cluster as real OS processes.
//!
//! Spawns three `gdpd` daemons on loopback — one router, two storage
//! replicas serving the same DataCapsule — then drives a verifying client
//! over real TCP sockets: session establishment, signed appends with
//! quorum durability (exercising server-to-server replication through the
//! router), verified range reads and membership proofs, and finally
//! replica failover: one storage process is killed and reads must succeed
//! from the survivor.

use gdp_capsule::{MetadataBuilder, PointerStrategy};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_client::VerifiedRead;
use gdp_crypto::SigningKey;
use gdp_net::tcp::{TcpNet, TcpNetConfig};
use gdp_node::{ClusterClient, HostSpec, NodeConfig, NodeError, Role, FOREVER};
use gdp_router::{AttachStep, Attacher, Router};
use gdp_server::{AckMode, DataMsg, ReadTarget};
use gdp_wire::{Name, Pdu, PduType, Wire};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A gdpd child process that is killed on drop (test panics must not
/// leak daemons).
struct Daemon {
    child: Child,
    listen: std::net::SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `gdpd <config>` and parses its status lines for the actual
/// listen address (configs use port 0).
fn spawn_gdpd(dir: &std::path::Path, name: &str, cfg: &NodeConfig) -> Daemon {
    let path = dir.join(format!("{name}.conf"));
    std::fs::write(&path, cfg.render()).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdpd"))
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn gdpd");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let listen = loop {
        let line =
            lines.next().expect("gdpd exited before printing status").expect("read gdpd stdout");
        if let Some(addr) = line.strip_prefix("gdpd listen ") {
            break addr.parse().expect("gdpd printed a bad listen addr");
        }
    };
    // Drain the remaining status lines in the background so the child
    // never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Daemon { child, listen }
}

/// The server identity a gdpd storage node derives from its config seed
/// (must match the derivation in `gdp_node::node::start`).
fn server_identity(seed: [u8; 32], label: &str) -> PrincipalId {
    let mut s = seed;
    s[0] ^= 0x5a;
    PrincipalId::from_seed(PrincipalKind::Server, &s, label)
}

#[test]
fn three_process_cluster_with_failover() {
    let dir = std::env::temp_dir().join(format!("gdp-live-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // --- Cluster identity plan (all deterministic from seeds) ---------
    let router_seed = [10u8; 32];
    let router_name = Router::from_seed(&router_seed, "r1").name();
    let s1 = server_identity([21u8; 32], "s1");
    let s2 = server_identity([22u8; 32], "s2");

    // The capsule and its delegations, issued by the owner out-of-band.
    let owner = SigningKey::from_seed(&[31u8; 32]);
    let writer_key = SigningKey::from_seed(&[32u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&writer_key.verifying_key())
        .set_str("description", "live-cluster e2e")
        .sign(&owner);
    let capsule = meta.name();
    let chain_for = |srv: &PrincipalId| {
        ServingChain::direct(
            AdCert::issue(&owner, capsule, srv.name(), false, Scope::Global, FOREVER),
            srv.principal().clone(),
        )
    };

    // --- Router first (storage configs need its live port) ------------
    let router = spawn_gdpd(
        &dir,
        "router",
        &NodeConfig {
            role: Role::Router,
            listen: "127.0.0.1:0".parse().unwrap(),
            seed: router_seed,
            label: "r1".into(),
            peers: vec![],
            router: None,
            data_dir: None,
            fsync: None,
            stats_path: None,
            hosts: vec![],
            admission_rate: 0,
            admission_burst: 64,
        },
    );

    let storage_cfg =
        |seed: [u8; 32], label: &str, me: &PrincipalId, other: &PrincipalId| NodeConfig {
            role: Role::Storage,
            listen: "127.0.0.1:0".parse().unwrap(),
            seed,
            label: label.into(),
            peers: vec![router.listen],
            router: Some(router_name),
            data_dir: Some(dir.join(label)),
            fsync: None,
            stats_path: None,
            admission_rate: 0,
            admission_burst: 64,
            hosts: vec![HostSpec {
                metadata: meta.clone(),
                chain: chain_for(me),
                peers: vec![other.name()],
            }],
        };
    let store1 = spawn_gdpd(&dir, "s1", &storage_cfg([21u8; 32], "s1", &s1, &s2));
    let store2 = spawn_gdpd(&dir, "s2", &storage_cfg([22u8; 32], "s2", &s2, &s1));

    // --- Client: session + replicated appends over real sockets -------
    let mut client = ClusterClient::connect(router.listen, router_name, &[41u8; 32], "cli")
        .expect("client attach");
    client.timeout = Duration::from_secs(20);
    client.track(&meta).expect("track");
    client.register_writer(&meta, writer_key, PointerStrategy::Chain).expect("register writer");

    client.session(capsule).expect("session establishment");
    assert!(client.core().has_session(&capsule));

    const N: u64 = 10;
    for i in 0..N {
        // Quorum(1): the serving replica must confirm replication to the
        // other storage process before acking.
        let seq = client
            .append(capsule, format!("record {i}").as_bytes(), AckMode::Quorum(1))
            .unwrap_or_else(|e| panic!("append {i}: {e}"));
        assert_eq!(seq, i + 1);
    }

    // Verified range read (self-verifying hash chain back to the anchor).
    let read = client.read(capsule, ReadTarget::Range(1, N)).expect("range read");
    let VerifiedRead::Records(records) = read else { panic!("wanted records, got {read:?}") };
    assert_eq!(records.len() as u64, N);
    assert_eq!(records[0].body, b"record 0");
    assert_eq!(records[N as usize - 1].body, format!("record {}", N - 1).as_bytes());

    // Membership proof for an interior record against the newest heartbeat.
    let read = client.read(capsule, ReadTarget::ProofOf(3)).expect("membership proof read");
    let VerifiedRead::Proven(rec) = read else { panic!("wanted proven record, got {read:?}") };
    assert_eq!(rec.header.seq, 3);
    assert_eq!(rec.body, b"record 2");

    // --- Failover: kill one replica, the cluster must keep serving ----
    drop(store2);
    // Appends keep working against the survivor (Local ack: with one
    // replica dead a replication quorum is no longer reachable).
    let seq = client
        .append(capsule, b"after failover", AckMode::Local)
        .expect("append after replica death");
    assert_eq!(seq, N + 1);

    let read = client.read(capsule, ReadTarget::Range(1, N + 1)).expect("read after replica death");
    let VerifiedRead::Records(records) = read else { panic!("wanted records, got {read:?}") };
    assert_eq!(records.len() as u64, N + 1);
    assert_eq!(records[N as usize].body, b"after failover");

    client.close();
    drop(store1);
    drop(router);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same wiring, but exercising the `both` role: a single process that
/// routes and stores, with a client attached over TCP. Given only a
/// `data_dir`, the node persists under `<data_dir>/seglog/` — and refuses
/// to start there at all next to logs of the removed file engine.
#[test]
fn single_both_node_serves_clients() {
    let dir = std::env::temp_dir().join(format!("gdp-live-both-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let seed = [50u8; 32];
    let router_name = Router::from_seed(&seed, "solo").name();
    let server = server_identity(seed, "solo");

    let owner = SigningKey::from_seed(&[51u8; 32]);
    let writer_key = SigningKey::from_seed(&[52u8; 32]);
    let meta = MetadataBuilder::new().writer(&writer_key.verifying_key()).sign(&owner);
    let capsule = meta.name();
    let chain = ServingChain::direct(
        AdCert::issue(&owner, capsule, server.name(), false, Scope::Global, FOREVER),
        server.principal().clone(),
    );

    let cfg = NodeConfig {
        role: Role::Both,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed,
        label: "solo".into(),
        peers: vec![],
        router: None,
        data_dir: Some(dir.join("data")),
        fsync: None,
        stats_path: None,
        admission_rate: 0,
        admission_burst: 64,
        hosts: vec![HostSpec { metadata: meta.clone(), chain, peers: vec![] }],
    };
    let node = spawn_gdpd(&dir, "solo", &cfg);

    let mut client =
        ClusterClient::connect(node.listen, router_name, &[53u8; 32], "cli2").expect("attach");
    client.track(&meta).expect("track");
    client.register_writer(&meta, writer_key, PointerStrategy::Chain).expect("writer");
    client.append(capsule, b"solo record", AckMode::Local).expect("append");
    let read = client.read(capsule, ReadTarget::Latest).expect("latest read");
    let VerifiedRead::Latest(rec, _) = read else { panic!("wanted latest, got {read:?}") };
    assert_eq!(rec.body, b"solo record");

    assert!(dir.join("data/seglog/0000000000.seg").exists(), "data_dir alone means seglog");

    client.close();
    drop(node);

    // Regression: a data_dir still holding a file-engine capsule log must
    // fail the start, not come up serving an empty seglog beside it.
    std::fs::remove_dir_all(dir.join("data/seglog")).unwrap();
    std::fs::write(dir.join("data").join(format!("{}.log", capsule.to_hex())), b"old").unwrap();
    match gdp_node::start(cfg) {
        Err(NodeError::Host(why)) => {
            assert!(why.contains(dir.join("data").to_str().unwrap()), "must name the dir: {why}")
        }
        Err(e) => panic!("expected NodeError::Host, got {e}"),
        Ok(_) => panic!("node started empty on top of file-engine logs"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a capsule mounted by a wire `Host` request went to an
/// in-memory store even on a node with a `data_dir`, so its appends were acked
/// "durable" from RAM and gone after a restart. It now lands in the node's
/// segmented log like a capsule named in the config.
#[test]
fn capsule_hosted_over_the_wire_survives_a_restart() {
    let dir = std::env::temp_dir().join(format!("gdp-live-wirehost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let seed = [60u8; 32];
    let router_name = Router::from_seed(&seed, "wire").name();
    let server = server_identity(seed, "wire");
    let owner = SigningKey::from_seed(&[61u8; 32]);
    let writer_key = SigningKey::from_seed(&[62u8; 32]);
    let meta = MetadataBuilder::new().writer(&writer_key.verifying_key()).sign(&owner);
    let capsule = meta.name();
    let chain = ServingChain::direct(
        AdCert::issue(&owner, capsule, server.name(), false, Scope::Global, FOREVER),
        server.principal().clone(),
    );
    let cfg = |hosts| NodeConfig {
        role: Role::Both,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed,
        label: "wire".into(),
        peers: vec![],
        router: None,
        data_dir: Some(dir.join("data")),
        fsync: None,
        stats_path: None,
        admission_rate: 0,
        admission_burst: 64,
        hosts,
    };

    // First life: the node hosts nothing until the owner asks it to.
    let node = gdp_node::start(cfg(vec![])).expect("start empty node");
    let owner_id = PrincipalId::from_seed(PrincipalKind::Client, &[63u8; 32], "owner");
    let net = TcpNet::bind_with("127.0.0.1:0".parse().unwrap(), TcpNetConfig::default()).unwrap();
    let mut attacher = Attacher::new(owner_id.clone(), router_name, Vec::new(), FOREVER);
    net.send(node.local_addr(), attacher.hello()).unwrap();
    let host = Pdu {
        pdu_type: PduType::Data,
        src: owner_id.name(),
        dst: server.name(),
        seq: 1,
        payload: DataMsg::Host { metadata: meta.clone(), chain: chain.clone(), peers: vec![] }
            .to_wire()
            .into(),
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        assert!(std::time::Instant::now() < deadline, "no HostAck from the node");
        let Some((_, pdu)) = net.recv_timeout(Duration::from_millis(50)).unwrap() else { continue };
        match attacher.on_pdu(&pdu) {
            AttachStep::Send(reply) => net.send(node.local_addr(), reply).unwrap(),
            AttachStep::Done(_) => net.send(node.local_addr(), host.clone()).unwrap(),
            AttachStep::Failed(why) => panic!("owner attach rejected: {why}"),
            AttachStep::Ignored => {
                if let Ok(DataMsg::HostAck { capsule: acked }) = DataMsg::from_wire(&pdu.payload) {
                    assert_eq!(acked, capsule);
                    break;
                }
            }
        }
    }
    net.shutdown();

    let mut client = ClusterClient::connect(node.local_addr(), router_name, &[64u8; 32], "w")
        .expect("writer attach");
    client.timeout = Duration::from_secs(20);
    client.track(&meta).expect("track");
    client.register_writer(&meta, writer_key, PointerStrategy::Chain).expect("writer");
    client.append(capsule, b"hosted over the wire", AckMode::Local).expect("acked append");
    client.close();
    node.stop();

    // Second life: the capsule is in the config; the acked record must be
    // on disk under the same data_dir.
    let node =
        gdp_node::start(cfg(vec![HostSpec { metadata: meta.clone(), chain, peers: vec![] }]))
            .expect("restart");
    let mut reader = ClusterClient::connect(node.local_addr(), router_name, &[65u8; 32], "r")
        .expect("reader attach");
    reader.track(&meta).expect("track");
    let read = reader.read(capsule, ReadTarget::Latest).expect("acked record after restart");
    let VerifiedRead::Latest(rec, _) = read else { panic!("wanted latest, got {read:?}") };
    assert_eq!(rec.body, b"hosted over the wire");
    reader.close();
    node.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Federation over real sockets: two leaf routing domains under a root.
/// A capsule hosted in domain B is written and read (with a verified
/// membership proof) by a client attached in domain A — every request
/// climbs A's default route to the root and descends the announced route
/// into B. Once a second replica attaches in A, anycast serves the client
/// from its own domain and the root carries none of it.
#[test]
fn two_domains_under_a_root_route_and_prefer_the_local_replica() {
    let dir = std::env::temp_dir().join(format!("gdp-live-domains-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `above`: the name and address of the router above this node.
    let cfg =
        |role, seed: u8, label: &str, above: Option<(Name, std::net::SocketAddr)>| NodeConfig {
            role,
            listen: "127.0.0.1:0".parse().unwrap(),
            seed: [seed; 32],
            label: label.into(),
            peers: above.iter().map(|(_, addr)| *addr).collect(),
            router: above.map(|(name, _)| name),
            data_dir: None,
            fsync: None,
            stats_path: None,
            hosts: vec![],
            admission_rate: 0,
            admission_burst: 64,
        };
    let start = |cfg| gdp_node::start(cfg).expect("start node");
    let above =
        |node: &gdp_node::NodeHandle| Some((node.router_name().unwrap(), node.local_addr()));

    let root = start(cfg(Role::Router, 70, "root", None));
    let a = start(cfg(Role::Router, 71, "domain-a", above(&root)));
    let b = start(cfg(Role::Router, 72, "domain-b", above(&root)));

    let owner = SigningKey::from_seed(&[73u8; 32]);
    let writer_key = SigningKey::from_seed(&[74u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&writer_key.verifying_key())
        .set_str("description", "federated")
        .sign(&owner);
    let capsule = meta.name();
    let (in_a, in_b) = (server_identity([75u8; 32], "s-a"), server_identity([76u8; 32], "s-b"));
    let replica = |seed, label: &str, me: &PrincipalId, other: &PrincipalId, domain| {
        let chain = ServingChain::direct(
            AdCert::issue(&owner, capsule, me.name(), false, Scope::Global, FOREVER),
            me.principal().clone(),
        );
        let host = HostSpec { metadata: meta.clone(), chain, peers: vec![other.name()] };
        let data_dir = Some(dir.join(label));
        NodeConfig { hosts: vec![host], data_dir, ..cfg(Role::Storage, seed, label, above(domain)) }
    };
    let store_b = start(replica(76, "s-b", &in_b, &in_a, &b));

    let mut client =
        ClusterClient::connect(a.local_addr(), a.router_name().unwrap(), &[77u8; 32], "c")
            .expect("attach in domain A");
    client.timeout = Duration::from_secs(20);
    client.register_writer(&meta, writer_key, PointerStrategy::SkipList).expect("writer");
    for i in 0..4u64 {
        let seq = client.append(capsule, format!("across {i}").as_bytes(), AckMode::Local);
        assert_eq!(seq.expect("append through the root"), i + 1);
    }
    let read = client.read(capsule, ReadTarget::ProofOf(2)).expect("proof through the root");
    let VerifiedRead::Proven(record) = read else { panic!("wanted a proof, got {read:?}") };
    assert_eq!(record.body, b"across 1");
    let counted =
        |node: &gdp_node::NodeHandle, scope, name| node.metrics().counter_value(scope, name);
    assert!(counted(&root, "router", "pdus_forwarded") >= 10, "the root carried the traffic");
    assert_eq!(counted(&store_b, "server", "reads_served"), 1);

    // A replica in the client's own domain: anti-entropy fills it through
    // the root, then anycast prefers it (distance 0 at A).
    let store_a = start(replica(75, "s-a", &in_a, &in_b, &a));
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while counted(&store_a, "server", "replicated_in") < 4 {
        assert!(std::time::Instant::now() < deadline, "the new replica never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The replicas' freshness probes cross the root once a tick, so sample
    // until a read falls between two of them: the read itself must not
    // move the root's frame counter.
    let mut reads = 0;
    let root_stayed_out = (0..10).any(|_| {
        let before = counted(&root, "net", "frames_decoded");
        let read = client.read(capsule, ReadTarget::ProofOf(3)).expect("local proof");
        assert!(matches!(read, VerifiedRead::Proven(r) if r.body == b"across 2"));
        reads += 1;
        counted(&root, "net", "frames_decoded") == before
    });
    assert!(root_stayed_out, "every read with a local replica still crossed the root");
    assert_eq!(counted(&store_a, "server", "reads_served"), reads, "the local replica answers");
    assert_eq!(counted(&store_b, "server", "reads_served"), 1, "the remote one is left alone");

    // Every body either replica sent — to the client, or to the other
    // replica's anti-entropy — came through its store's read lane.
    for node in [&store_a, &store_b] {
        let served = counted(node, "store", "reads_served_from_store");
        assert!(served > 0, "a storage node serves bodies from its store, not from RAM");
        let looked_up =
            counted(node, "store", "read_cache_hits") + counted(node, "store", "read_cache_misses");
        assert_eq!(looked_up, served, "every store read is a cache hit or a miss");
        assert_eq!(counted(node, "server", "read_store_failures"), 0);
    }

    client.close();
    for node in [store_a, store_b, a, b, root] {
        node.stop();
    }
    let _ = std::fs::remove_dir_all(dir);
}
