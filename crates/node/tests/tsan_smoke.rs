//! ThreadSanitizer smoke suite — the concurrency hot spots under real
//! multi-threaded load. `scripts/verify.sh --tsan` builds this file with
//! `-Zsanitizer=thread` on nightly; it also runs as a normal tier-1
//! integration test, so the workload itself is race-checked continuously
//! even where TSan is unavailable.
//!
//! Coverage targets:
//! - the segmented store's sealed-read fast lane (BlockCache + FdPool,
//!   both owned by `LogInner`'s one mutex, fds handed out as `Arc<File>`)
//!   under concurrent writers and readers;
//! - a router carrying a live cluster workload (event-loop thread, net
//!   reader/writer threads).

use gdp_capsule::{MetadataBuilder, PointerStrategy, Record, RecordHash};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_client::VerifiedRead;
use gdp_crypto::SigningKey;
use gdp_node::{node, ClusterClient, HostSpec, NodeConfig, Role, FOREVER};
use gdp_router::Router;
use gdp_server::{AckMode, ReadTarget};
use gdp_store::{CapsuleStore, SegConfig, SegLog};
use std::time::Duration;

#[test]
fn store_read_fast_lane_under_concurrent_load() {
    let dir = std::env::temp_dir().join(format!("gdp-tsan-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let metrics = gdp_obs::Metrics::new();
    // A deliberately tiny block cache and fd pool so concurrent readers
    // continuously evict, refill, and reopen — the churn TSan watches.
    let cfg =
        SegConfig { read_cache_bytes: 16 * 1024, max_open_segments: 2, ..SegConfig::default() };
    let log = SegLog::open_with(&dir, cfg, &metrics.scope("store")).expect("open log");

    const WRITERS: usize = 4;
    const PER_PHASE: u64 = 16;
    let caps: Vec<_> = (0..WRITERS)
        .map(|w| {
            let owner = SigningKey::from_seed(&[10 + w as u8; 32]);
            let writer = SigningKey::from_seed(&[40 + w as u8; 32]);
            let meta = MetadataBuilder::new()
                .writer(&writer.verifying_key())
                .set_str("description", &format!("tsan-{w}"))
                .sign(&owner);
            (meta, writer)
        })
        .collect();

    // Two write phases with a rotation between them: the first phase's
    // records end up in a sealed segment, so phase-two readers cross the
    // BlockCache/FdPool path while writers still append.
    let mut prevs: Vec<RecordHash> = Vec::new();
    for phase in 0..2u64 {
        let handles: Vec<_> = caps
            .iter()
            .enumerate()
            .map(|(w, (meta, writer))| {
                let log = log.clone();
                let meta = meta.clone();
                let writer = writer.clone();
                let mut prev =
                    prevs.get(w).copied().unwrap_or_else(|| RecordHash::anchor(&meta.name()));
                std::thread::spawn(move || {
                    let mut store = log.handle(meta.name());
                    if phase == 0 {
                        store.put_metadata(&meta).expect("put metadata");
                    }
                    for i in 1..=PER_PHASE {
                        let seq = phase * PER_PHASE + i;
                        let r = Record::create(
                            &meta.name(),
                            &writer,
                            seq,
                            seq,
                            prev,
                            vec![],
                            vec![seq as u8; 700],
                        );
                        prev = r.hash();
                        store.append_acked(&r).expect("append");
                    }
                    store.flush(phase * 1_000_000 + 900_000).expect("flush");
                    prev
                })
            })
            .collect();
        prevs = handles.into_iter().map(|h| h.join().expect("writer thread")).collect();
        log.flush_now(phase * 1_000_000 + 990_000).expect("flush_now");
        log.rotate_now(phase * 1_000_000 + 999_000).expect("rotate_now");
    }

    // Concurrent readers over every capsule: cache hits, misses with
    // pooled-fd preads, evictions, and zero-copy `Bytes` refcounts all
    // exercised from four threads at once.
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let log = log.clone();
            let names: Vec<_> = caps.iter().map(|(m, _)| m.name()).collect();
            std::thread::spawn(move || {
                for round in 0..3 {
                    for name in &names {
                        let recs = log.handle(*name).range(1, 2 * PER_PHASE).expect("range read");
                        assert_eq!(recs.len() as u64, 2 * PER_PHASE, "reader {r} round {round}");
                        assert_eq!(recs[0].body.len(), 700);
                    }
                }
            })
        })
        .collect();
    for h in readers {
        h.join().expect("reader thread");
    }

    // The conservation law must survive the concurrency.
    let hits = metrics.counter_value("store", "read_cache_hits");
    let misses = metrics.counter_value("store", "read_cache_misses");
    let served = metrics.counter_value("store", "reads_served_from_store");
    assert_eq!(hits + misses, served, "read-path conservation law broke under threads");
    assert!(misses > 0, "sealed reads never crossed the block cache");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_carries_cluster_traffic_under_tsan() {
    let dir = std::env::temp_dir().join(format!("gdp-tsan-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let router_seed = [70u8; 32];
    let router_name = Router::from_seed(&router_seed, "tsan-r").name();
    let router = node::start(NodeConfig {
        role: Role::Router,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed: router_seed,
        label: "tsan-r".into(),
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

    // The node derives its server identity from the config seed with the
    // first byte XOR'd (distinct seed domain from the router half).
    let server = {
        let mut s = [71u8; 32];
        s[0] ^= 0x5a;
        PrincipalId::from_seed(PrincipalKind::Server, &s, "tsan-s")
    };
    let owner = SigningKey::from_seed(&[72u8; 32]);
    let writer_key = SigningKey::from_seed(&[73u8; 32]);
    let meta = MetadataBuilder::new().writer(&writer_key.verifying_key()).sign(&owner);
    let capsule = meta.name();
    let storage = node::start(NodeConfig {
        role: Role::Storage,
        listen: "127.0.0.1:0".parse().unwrap(),
        seed: [71u8; 32],
        label: "tsan-s".into(),
        peers: vec![router.local_addr()],
        router: Some(router_name),
        data_dir: Some(dir.clone()),
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
        admission_rate: 0,
        admission_burst: 64,
    })
    .expect("start storage node");

    // A live client workload: every data PDU crosses the router's event
    // loop, the egress writer threads, and the storage node's segmented
    // engine.
    let mut client = ClusterClient::connect(router.local_addr(), router_name, &[74u8; 32], "cli")
        .expect("client attach");
    client.timeout = Duration::from_secs(30);
    client.track(&meta).expect("track");
    client.register_writer(&meta, writer_key, PointerStrategy::Chain).expect("register writer");
    const N: u64 = 6;
    for i in 0..N {
        let seq = client
            .append(capsule, format!("tsan record {i}").as_bytes(), AckMode::Local)
            .unwrap_or_else(|e| panic!("append {i}: {e}"));
        assert_eq!(seq, i + 1);
    }
    let read = client.read(capsule, ReadTarget::Range(1, N)).expect("range read");
    let VerifiedRead::Records(records) = read else { panic!("wanted records, got {read:?}") };
    assert_eq!(records.len() as u64, N);
    client.close();

    storage.stop();
    router.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
