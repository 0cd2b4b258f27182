//! The sharded forwarding engine end-to-end: a router `gdpd` running with
//! `shards = 4` must carry a real client workload — session establishment,
//! signed appends, verified reads — with all data-plane PDUs flowing
//! through the shard workers, while the control plane (attach handshakes,
//! certificate verification) stays on the event-loop thread. The stats
//! dump must show the per-shard scopes and, after a repeat attach with an
//! identical advertisement, `verify_cache_hits > 0` on the control router.

use gdp_capsule::{MetadataBuilder, PointerStrategy};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_client::VerifiedRead;
use gdp_node::{node, request_path, ClusterClient, HostSpec, NodeConfig, Role, FOREVER};
use gdp_router::Router;
use gdp_server::{AckMode, ReadTarget};
use std::time::{Duration, Instant};

/// Every integer value of `"key": <n>` occurrences in a JSON dump.
fn counter_values(doc: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let digits: String = rest
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(v) = digits.parse() {
            out.push(v);
        }
    }
    out
}

#[test]
fn sharded_router_carries_cluster_traffic() {
    let dir = std::env::temp_dir().join(format!("gdp-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let stats = dir.join("router-stats.json");

    let router_seed = [60u8; 32];
    let router_name = Router::from_seed(&router_seed, "shard-r").name();
    let router = node::start(NodeConfig {
        role: Role::Router,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed: router_seed,
        label: "shard-r".into(),
        peers: vec![],
        router: None,
        data_dir: None,
        fsync: None,
        stats_path: Some(stats.clone()),
        hosts: vec![],
        shards: 4,
        admission_rate: 0,
        admission_burst: 64,
    })
    .expect("start sharded router");

    // One storage replica serving one capsule through the sharded router.
    let server = {
        let mut s = [61u8; 32];
        s[0] ^= 0x5a;
        PrincipalId::from_seed(PrincipalKind::Server, &s, "shard-s")
    };
    let owner = gdp_crypto::SigningKey::from_seed(&[62u8; 32]);
    let writer_key = gdp_crypto::SigningKey::from_seed(&[63u8; 32]);
    let meta = MetadataBuilder::new().writer(&writer_key.verifying_key()).sign(&owner);
    let capsule = meta.name();
    let storage = node::start(NodeConfig {
        role: Role::Storage,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed: [61u8; 32],
        label: "shard-s".into(),
        peers: vec![router.local_addr()],
        router: Some(router_name),
        data_dir: None,
        fsync: None,
        stats_path: None,
        hosts: vec![HostSpec {
            metadata: meta.clone(),
            chain: ServingChain::direct(
                AdCert::issue(&owner, capsule, server.name(), false, Scope::Global, FOREVER),
                server.principal().clone(),
            ),
            peers: vec![],
        }],
        shards: 1,
        admission_rate: 0,
        admission_burst: 64,
    })
    .expect("start storage node");

    // A full client workload: every Data PDU here crosses a shard worker.
    let mut client = ClusterClient::connect(router.local_addr(), router_name, &[64u8; 32], "cli")
        .expect("client attach");
    client.timeout = Duration::from_secs(20);
    client.track(&meta).expect("track");
    client.register_writer(&meta, writer_key, PointerStrategy::Chain).expect("register writer");
    const N: u64 = 8;
    for i in 0..N {
        let seq = client
            .append(capsule, format!("sharded record {i}").as_bytes(), AckMode::Local)
            .unwrap_or_else(|e| panic!("append {i}: {e}"));
        assert_eq!(seq, i + 1);
    }
    let read = client.read(capsule, ReadTarget::Range(1, N)).expect("range read");
    let VerifiedRead::Records(records) = read else { panic!("wanted records, got {read:?}") };
    assert_eq!(records.len() as u64, N);
    assert_eq!(records[0].body, b"sharded record 0");
    client.close();

    // Re-attach with the *same* deterministic identity: the advertisement
    // bytes are identical (Ed25519 is deterministic, catalog expiry is the
    // fixed FOREVER), so the control router's verification cache must hit.
    let mut again = ClusterClient::connect(router.local_addr(), router_name, &[64u8; 32], "cli")
        .expect("repeat client attach");
    again.timeout = Duration::from_secs(20);
    again.track(&meta).expect("track again");
    let read = again.read(capsule, ReadTarget::Latest).expect("read after re-attach");
    let VerifiedRead::Latest(rec, _) = read else { panic!("wanted latest, got {read:?}") };
    assert_eq!(rec.body, format!("sharded record {}", N - 1).as_bytes());
    again.close();

    // Steady-state stats dump via the trigger file.
    std::fs::write(request_path(&stats), b"").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while request_path(&stats).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let doc = std::fs::read_to_string(&stats).expect("stats dump written");
    gdp_obs::json::validate(&doc).expect("dump must be valid JSON");

    // The per-shard scopes registered (with their queue-depth gauges)…
    for i in 0..4 {
        assert!(doc.contains(&format!("\"router-shard{i}\":")), "missing shard scope {i}: {doc}");
    }
    assert!(doc.contains("\"queue_depth\":"), "missing shard queue_depth gauge: {doc}");
    // …the reader-side batch path actually carried traffic (data-plane
    // PDUs are classified on the TCP readers and handed to workers in
    // batches — `batches_dispatched` counts every handoff)…
    assert!(doc.contains("\"router-shards\":"), "missing shared shard scope: {doc}");
    let batches: u64 = counter_values(&doc, "batches_dispatched").iter().sum();
    assert!(batches > 0, "reader-side batching never dispatched: {doc}");
    // …the shard workers actually forwarded the data plane…
    let shard_forwarded: u64 = counter_values(&doc, "pdus_forwarded").iter().sum::<u64>()
        + counter_values(&doc, "pdus_delivered_local").iter().sum::<u64>();
    assert!(shard_forwarded > 0, "no PDU crossed a shard worker: {doc}");
    // …and the repeat attach hit the verification cache.
    let hits: u64 = counter_values(&doc, "verify_cache_hits").iter().sum();
    assert!(hits > 0, "verification cache never hit: {doc}");

    storage.stop();
    router.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
