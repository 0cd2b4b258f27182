//! Failure-injection tests: crashes, restarts, partitions, and the
//! recovery paths the paper designs for (§V-A writer state recovery,
//! §VI-B holes and healing, §VI-C QSW branches).

use gdp::caapi::CapsuleAccess;
use gdp::capsule::{MetadataBuilder, PointerStrategy, WriterMode};
use gdp::cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp::crypto::SigningKey;
use gdp::server::DataCapsuleServer;
use gdp::sim::cluster::DETECT_US;
use gdp::sim::{GdpWorld, Placement, FOREVER};
use gdp::store::{Backing, FsyncPolicy, StorageEngine};

fn writer_key() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}

/// What a server with a `data_dir` mounts, with every append fsynced (and
/// so acked) at once: these tests kill the process without ticking it.
fn durable_engine(dir: &std::path::Path) -> StorageEngine {
    StorageEngine::new(Backing::Segmented(dir.to_path_buf())).with_policy(FsyncPolicy::Always)
}

/// Writer crash and resume (SSW): local state is rebuilt from the head
/// record read back from a server, and the chain continues seamlessly.
#[test]
fn writer_crash_resume_over_network() {
    let mut world = GdpWorld::new(81, Placement::EdgeLan);
    let owner = world.owner.clone();
    let meta = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "resume")
        .sign(&owner);
    let capsule = world.provision_capsule(&meta, writer_key(), PointerStrategy::Chain).unwrap();
    for i in 0..5u64 {
        world.append(&capsule, format!("pre-crash {i}").as_bytes()).unwrap();
    }

    // "Crash": forget writer state; read the head back from the network
    // and resume (paper §V-A: the writer keeps "the hash of the most
    // recent record ... to recover after writer failures" — here it lost
    // even that, and recovers it from a replica).
    let head = world.latest(&capsule).unwrap().unwrap();
    let w = world.client_mut().writer_mut(&capsule).unwrap();
    // Simulate fresh state by resuming from the fetched head.
    w.resume_from_head(&head).unwrap();
    assert_eq!(w.next_seq(), 6);

    world.append(&capsule, b"post-crash").unwrap();
    let all = world.read_range(&capsule, 1, 6).unwrap();
    assert_eq!(all.len(), 6);
    assert_eq!(all[5].body, b"post-crash");
}

/// Server restart with a disk-backed store: the capsule state (including
/// the verified DAG) is rebuilt from the segmented log on disk.
#[test]
fn server_restart_recovers_from_disk() {
    let dir = std::env::temp_dir().join(format!("gdp-restart-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let owner = SigningKey::from_seed(&[1u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "durable")
        .sign(&owner);
    let capsule_name = meta.name();
    let server_id = PrincipalId::from_seed(PrincipalKind::Server, &[40u8; 32], "persistent");
    let chain = ServingChain::direct(
        AdCert::issue(&owner, capsule_name, server_id.name(), false, Scope::Global, FOREVER),
        server_id.principal().clone(),
    );

    // First server lifetime: host on the segmented log, ingest records.
    {
        let mut server = DataCapsuleServer::new(server_id.clone(), &gdp::obs::Scope::default());
        server.mount(durable_engine(&dir).log().unwrap());
        // Move records in via the public protocol path.
        server.host(meta.clone(), chain.clone(), vec![]).unwrap();
        let mut writer =
            gdp::capsule::CapsuleWriter::new(&meta, writer_key(), PointerStrategy::Chain).unwrap();
        for i in 0..8u64 {
            let record = writer.append(format!("durable {i}").as_bytes(), i).unwrap();
            let pdu = gdp::wire::Pdu {
                pdu_type: gdp::wire::PduType::Data,
                src: gdp::wire::Name::from_content(b"test client"),
                dst: capsule_name,
                seq: i,
                payload: gdp::wire::Bytes::from_vec(gdp::wire::Wire::to_wire(
                    &gdp::server::DataMsg::Append { record, ack_mode: gdp::server::AckMode::Local },
                )),
            };
            let out = server.handle_pdu(0, pdu);
            assert!(!out.is_empty());
        }
        assert_eq!(server.capsule(&capsule_name).unwrap().len(), 8);
    } // server process "dies"

    // Second lifetime: a fresh server rebuilds from the same directory.
    let mut revived = DataCapsuleServer::new(server_id, &gdp::obs::Scope::default());
    revived.mount(durable_engine(&dir).log().unwrap());
    revived.host(meta, chain, vec![]).unwrap();
    let c = revived.capsule(&capsule_name).unwrap();
    assert_eq!(c.len(), 8, "all records recovered from the segment log");
    assert_eq!((c.latest_seq(), c.pending_len()), (8, 0));
    // The revived history verifies from the records it serves.
    let mut served = gdp::capsule::DataCapsule::new(c.metadata().clone()).unwrap();
    for seq in 1..=8u64 {
        served.ingest(revived.stored_record(&capsule_name, seq).unwrap().unwrap()).unwrap();
    }
    served.verify_history(&served.head_heartbeat().unwrap().unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

/// QSW: a writer that lost its head resumes from stale state, forking a
/// branch; replicas converge on the same branched DAG (strong eventual
/// consistency) and readers can see both heads.
#[test]
fn qsw_branch_converges_across_replicas() {
    let mut world = GdpWorld::hierarchy(82);
    let owner = world.owner.clone();
    let meta = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "qsw")
        .sign(&owner);
    let capsule = world.provision_capsule(&meta, writer_key(), PointerStrategy::Chain).unwrap();
    for i in 0..4u64 {
        world.append(&capsule, format!("main {i}").as_bytes()).unwrap();
    }
    world.cluster.settle();

    // The writer restarts from seq-2 state (lost newer local state) in
    // QSW mode and appends — forking at seq 3.
    let stale = world.read(&capsule, 2).unwrap();
    {
        let w = world.client_mut().writer_mut(&capsule).unwrap();
        let mut qsw = w.clone().with_mode(WriterMode::Quasi);
        qsw.resume_possibly_stale(&stale).unwrap();
        *w = qsw;
    }
    world.append(&capsule, b"branch!").unwrap();
    world.cluster.settle();

    // Both replicas converge to the same branched DAG.
    for i in 0..world.servers.len() {
        let c = world.server(i).capsule(&capsule).unwrap();
        assert_eq!(c.heads().len(), 2, "both replicas see the fork");
        assert_eq!(c.get_by_seq(3).len(), 2);
        assert_eq!(c.len(), 5);
    }
}

/// A torn write on disk (crash mid-append) loses at most the torn record;
/// everything before it survives and verifies.
#[test]
fn torn_disk_write_bounded_loss() {
    let dir = std::env::temp_dir().join(format!("gdp-torn-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let owner = SigningKey::from_seed(&[1u8; 32]);
    let meta = MetadataBuilder::new().writer(&writer_key().verifying_key()).sign(&owner);
    let name = meta.name();
    let path = dir.join("0000000000.seg"); // the log's first (active) segment
    {
        let mut log = durable_engine(&dir).log().unwrap();
        log.put_metadata(&name, &meta).unwrap();
        let mut writer =
            gdp::capsule::CapsuleWriter::new(&meta, writer_key(), PointerStrategy::Chain).unwrap();
        for i in 0..10u64 {
            log.append(&name, &writer.append(&[i as u8], i).unwrap()).unwrap();
        }
    }
    // Crash mid-write: truncate the file inside the last record.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 13]).unwrap();

    let mut log = durable_engine(&dir).log().unwrap();
    assert_eq!(log.len(&name), 9, "only the torn record is lost");
    // The surviving prefix forms a verifiable capsule.
    let mut capsule = gdp::capsule::DataCapsule::new(log.metadata(&name).unwrap()).unwrap();
    for seq in 1..=9u64 {
        capsule.ingest(log.get_by_seq(&name, seq).unwrap().unwrap()).unwrap();
    }
    assert_eq!((capsule.len(), capsule.latest_seq()), (9, 9));
    capsule.verify_history(&capsule.head_heartbeat().unwrap().unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

/// Router failover: when a domain's capsule replica vanishes, the FIB
/// falls back to the surviving replica across the hierarchy.
#[test]
fn replica_failover_read_path() {
    let mut world = GdpWorld::hierarchy(83);
    let owner = world.owner.clone();
    let meta = MetadataBuilder::new()
        .writer(&writer_key().verifying_key())
        .set_str("description", "failover")
        .sign(&owner);
    let capsule = world.provision_capsule(&meta, writer_key(), PointerStrategy::Chain).unwrap();
    world.append(&capsule, b"replicated payload").unwrap();
    world.cluster.settle();

    // Kill the local (domain-2) replica: the link goes down and the
    // router's transport reports the peer dead.
    let (local_srv, _) = world.servers[1];
    let (d2_router, _) = world.routers[0];
    world.cluster.partition(local_srv, d2_router);
    world.cluster.run_for(DETECT_US);

    // The read is transparently served by the domain-1 replica.
    let r = world.read(&capsule, 1).unwrap();
    assert_eq!(r.body, b"replicated payload");
}
