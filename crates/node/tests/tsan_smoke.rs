//! ThreadSanitizer smoke suite — the concurrency hot spots under real
//! multi-threaded load. `scripts/verify.sh --tsan` builds this file with
//! `-Zsanitizer=thread` on nightly; it also runs as a normal tier-1
//! integration test, so the workload itself is race-checked continuously
//! even where TSan is unavailable.
//!
//! Coverage targets:
//! - the segmented store's sealed-read fast lane (BlockCache + FdPool,
//!   owned by the one `SegLog`, fds handed out as `Arc<File>`) under
//!   concurrent writers and readers, through `StorageEngine::open_boxed`
//!   handles: the one way left to share a log between threads. The sealed
//!   data overflows the default block cache, so every reader evicts blocks
//!   that other readers still hold zero-copy `Bytes` slices of;
//! - a router carrying a live cluster workload (event-loop thread, net
//!   reader/writer threads).

use gdp_capsule::{MetadataBuilder, PointerStrategy, Record, RecordHash};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_client::VerifiedRead;
use gdp_crypto::SigningKey;
use gdp_node::{node, ClusterClient, HostSpec, NodeConfig, Role, FOREVER};
use gdp_router::Router;
use gdp_server::{AckMode, ReadTarget};
use gdp_store::{Backing, SegConfig, SegLog, StorageEngine};
use gdp_wire::Name;
use std::time::Duration;

#[test]
fn store_read_fast_lane_under_concurrent_load() {
    let dir = std::env::temp_dir().join(format!("gdp-tsan-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    const WRITERS: usize = 4;
    const PER_PHASE: u64 = 64;
    // Bodies fit inside one 64 KiB cache block, so a read hands out a
    // zero-copy slice of a cached block; phase one (4 x 64 x 20 KiB, about
    // 5 MiB) overflows the default 4 MiB block cache, so a pass over it
    // evicts blocks that other threads still hold slices of.
    const BODY: usize = 20 * 1024;
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
    let record = |writer: &SigningKey, name: &Name, seq: u64, prev: RecordHash| {
        Record::create(name, writer, seq, seq, prev, vec![], vec![seq as u8; BODY])
    };

    // Phase one, written and sealed before the engine opens the log, so
    // phase-two readers cross the BlockCache/FdPool path while writers
    // still append.
    let mut prevs: Vec<RecordHash> = Vec::new();
    {
        let mut log = SegLog::open(&dir, SegConfig::default(), &Default::default()).unwrap();
        for (meta, writer) in &caps {
            log.put_metadata(&meta.name(), meta).expect("put metadata");
            let mut prev = RecordHash::anchor(&meta.name());
            for seq in 1..=PER_PHASE {
                let r = record(writer, &meta.name(), seq, prev);
                prev = r.hash();
                log.append(&meta.name(), &r).expect("append");
            }
            prevs.push(prev);
        }
        log.rotate_now(999_000).expect("rotate_now");
    }

    let metrics = gdp_obs::Metrics::new();
    let engine = StorageEngine::with_obs(Backing::Segmented(dir.clone()), metrics.scope("store"));
    // Phase two: one writer per capsule, appending on top of phase one.
    let mut threads = Vec::new();
    for ((meta, writer), mut prev) in caps.iter().zip(prevs) {
        let mut store = engine.open_boxed(&meta.name()).expect("open store");
        let (name, writer) = (meta.name(), writer.clone());
        threads.push(std::thread::spawn(move || {
            for seq in PER_PHASE + 1..=2 * PER_PHASE {
                let r = record(&writer, &name, seq, prev);
                prev = r.hash();
                store.append_acked(&r).expect("append");
            }
            store.flush(1_900_000).expect("flush");
        }));
    }
    // Concurrent readers of every capsule's sealed phase one: cache hits,
    // misses with pooled-fd preads, evictions, and zero-copy `Bytes`
    // refcounts, from four threads at once. A reader keeps a whole
    // capsule's records before checking their bytes, so its slices outlive
    // the evictions of the blocks they point into.
    for r in 0..4 {
        let stores: Vec<_> =
            caps.iter().map(|(m, _)| engine.open_boxed(&m.name()).expect("open")).collect();
        threads.push(std::thread::spawn(move || {
            for round in 0..3 {
                for store in &stores {
                    let held: Vec<_> = (1..=PER_PHASE)
                        .map(|seq| {
                            let got = store.get_by_seq(seq).expect("read");
                            got.unwrap_or_else(|| panic!("reader {r} round {round} seq {seq}"))
                        })
                        .collect();
                    for (seq, got) in (1..=PER_PHASE).zip(&held) {
                        assert_eq!(got.body.len(), BODY);
                        assert!(got.body.iter().all(|&b| b == seq as u8), "seq {seq} bytes");
                    }
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("store thread");
    }
    // Every writer's phase two landed beside phase one.
    for (meta, _) in &caps {
        let store = engine.open_boxed(&meta.name()).expect("open store");
        for seq in 1..=2 * PER_PHASE {
            assert!(store.get_by_seq(seq).expect("read").is_some(), "seq {seq} lost");
        }
    }

    // The conservation law must survive the concurrency.
    let hits = metrics.counter_value("store", "read_cache_hits");
    let misses = metrics.counter_value("store", "read_cache_misses");
    let served = metrics.counter_value("store", "reads_served_from_store");
    assert_eq!(hits + misses, served, "read-path conservation law broke under threads");
    assert!(misses > 0, "sealed reads never crossed the block cache");
    let evictions = metrics.counter_value("store", "read_cache_evictions");
    assert!(evictions > 0, "sealed reads never overflowed the block cache");

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
