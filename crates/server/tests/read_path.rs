//! The server's read path — index → store → encode — against the
//! behaviour it replaced.
//!
//! A storage server keeps an address and a wire bound per record and reads
//! every record it serves through the capsule's store: bodies, proof hops
//! and the head a heartbeat comes from. The reference here is a plain
//! body-retaining [`DataCapsule`] fed the same records, answering exactly
//! as a server that mirrored every record in memory would: after every
//! step of a seeded script the two must agree byte for byte on every
//! other `ReadTarget`, the subscribe replay and the anti-entropy answer,
//! and on what a client verifies a `Range` answer to — the run and the
//! heartbeat anchoring it, the run's newest record's own under a single
//! head and none (a record-by-record answer) on a branched capsule — whether
//! the records sit in the group-commit buffer, in the active segment or
//! in sealed ones, linked, branched or parked behind a hole. The script's
//! cache is a few blocks, so most proof hops are read from disk.

use gdp_capsule::{
    CapsuleMetadata, CapsuleWriter, Chain, DataCapsule, Heartbeat, MembershipProof,
    MetadataBuilder, Pointer, PointerStrategy, Record, RecordHash, RecordHeader,
};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_crypto::SigningKey;
use gdp_obs::Metrics;
use gdp_server::{AckMode, DataCapsuleServer, DataMsg, ErrorCode, ReadResult, ReadTarget};
use gdp_store::{FsyncPolicy, SegConfig, SegLog, SEGLOG_MAGIC};
use gdp_wire::{Bytes, Name, Pdu, PduType, Wire};
use std::path::{Path, PathBuf};

const FOREVER: u64 = 1 << 50;

fn owner() -> SigningKey {
    SigningKey::from_seed(&[1u8; 32])
}
fn wkey() -> SigningKey {
    SigningKey::from_seed(&[2u8; 32])
}
fn server_id() -> PrincipalId {
    PrincipalId::from_seed(PrincipalKind::Server, &[3u8; 32], "s")
}
fn meta() -> CapsuleMetadata {
    MetadataBuilder::new()
        .writer(&wkey().verifying_key())
        .set_str("description", "read path")
        .sign(&owner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Segments of a few records and a cache of a few blocks: a short script
/// crosses every boundary the read lane has.
fn tiny_cfg(policy: FsyncPolicy) -> SegConfig {
    SegConfig {
        policy,
        segment_max_bytes: 2_048,
        read_cache_bytes: 2_048,
        read_block_bytes: 512,
        readahead_blocks: 2,
        ..SegConfig::default()
    }
}

/// A server hosting [`meta`] on a seglog under `dir`, and its registry.
fn mount(dir: &Path, cfg: SegConfig) -> (DataCapsuleServer, Metrics) {
    let metrics = Metrics::new();
    let log = SegLog::open(dir, cfg, &metrics.scope("store")).unwrap();
    let id = server_id();
    let mut server = DataCapsuleServer::new(id.clone(), &metrics.scope("server"));
    let meta = meta();
    let chain = ServingChain::direct(
        AdCert::issue(&owner(), meta.name(), id.name(), false, Scope::Global, FOREVER),
        id.principal().clone(),
    );
    server.mount(log);
    server.host(meta.clone(), chain, vec![]).unwrap();
    (server, metrics)
}

fn client() -> Name {
    Name::from_content(b"client")
}

fn pdu(dst: Name, seq: u64, msg: &DataMsg) -> Pdu {
    Pdu { pdu_type: PduType::Data, src: client(), dst, seq, payload: msg.to_wire().into() }
}

fn msg_of(pdu: &Pdu) -> DataMsg {
    DataMsg::from_wire(&pdu.payload).unwrap()
}

fn read(server: &mut DataCapsuleServer, target: ReadTarget) -> Result<ReadResult, ErrorCode> {
    let out = server.handle_pdu(0, pdu(meta().name(), 7, &DataMsg::Read { target }));
    assert_eq!(out.len(), 1, "{target:?}: {out:?}");
    match msg_of(&out[0]) {
        DataMsg::ReadResp { result, .. } => Ok(result),
        DataMsg::ErrResp { code, .. } => Err(code),
        other => panic!("{target:?}: {other:?}"),
    }
}

fn append(server: &mut DataCapsuleServer, now: u64, record: &Record) -> Vec<Pdu> {
    let msg = DataMsg::Append { record: record.clone(), ack_mode: AckMode::Local };
    server.handle_pdu(now, pdu(meta().name(), 1, &msg))
}

// ---- the reference: a server that keeps every record whole in memory ----

fn model_read(model: &DataCapsule, target: ReadTarget) -> Result<ReadResult, ErrorCode> {
    let name = model.name();
    match target {
        ReadTarget::One(s) => match model.get_one(s) {
            Ok(r) => Ok(ReadResult::Record(r.clone())),
            Err(_) => Err(ErrorCode::NotFound),
        },
        ReadTarget::Range(..) => panic!("a range is compared as the run it verifies to"),
        ReadTarget::Latest => match model.single_head() {
            Ok(Some(head)) => {
                Ok(ReadResult::Latest(head.clone(), Heartbeat::from_record(&name, head)))
            }
            Ok(None) => Err(ErrorCode::Empty),
            Err(_) => {
                let head = model.get(&model.heads()[0]).unwrap();
                Ok(ReadResult::Latest(head.clone(), Heartbeat::from_record(&name, head)))
            }
        },
        ReadTarget::ProofOf(s) => {
            let Ok(Some(hb)) = model.head_heartbeat() else { return Err(ErrorCode::Empty) };
            match MembershipProof::build(model, &hb, s) {
                Ok(p) => Ok(ReadResult::Proof(p)),
                Err(_) => Err(ErrorCode::NotFound),
            }
        }
        ReadTarget::HeartbeatOnly => match model.head_heartbeat() {
            Ok(Some(hb)) => Ok(ReadResult::HeartbeatOnly(hb)),
            _ => Err(ErrorCode::Empty),
        },
    }
}

/// A `Range` answer as a client accepts it: the run it verifies to, as
/// (header, body) — a `RangeProof` vouches for its older records through
/// the hash chain, not through their signature fields — and the heartbeat
/// anchoring it (`None` for a record-by-record answer).
type Run = (Vec<(RecordHeader, Bytes)>, Option<Heartbeat>);

fn pairs(records: Vec<Record>) -> Vec<(RecordHeader, Bytes)> {
    records.into_iter().map(|r| (r.header, r.body)).collect()
}

fn verified_run(result: ReadResult) -> Run {
    let (name, key) = (meta().name(), wkey().verifying_key());
    match result {
        ReadResult::RangeProofResult(p) => {
            (pairs(p.verify(&name, &key).unwrap()), Some(p.newest.heartbeat))
        }
        ReadResult::Records(rs) => {
            rs.iter().for_each(|r| r.verify(&name, &key).unwrap());
            (pairs(rs), None)
        }
        other => panic!("a range answered {other:?}"),
    }
}

/// The run `[a, b]` of the model, anchored at its newest record's own
/// heartbeat when the model has one head.
fn model_run(model: &DataCapsule, a: u64, b: u64) -> Result<Run, ErrorCode> {
    let records: Vec<Record> = model.range(a, b).into_iter().cloned().collect();
    let newest = records.last().ok_or(ErrorCode::NotFound)?;
    let single_head = matches!(model.single_head(), Ok(Some(_)));
    let anchor = single_head.then(|| Heartbeat::from_record(&model.name(), newest));
    Ok((pairs(records), anchor))
}

fn model_replay(model: &DataCapsule, from_seq: u64) -> Vec<Record> {
    model.range(from_seq.saturating_add(1), model.latest_seq()).into_iter().cloned().collect()
}

fn model_sync(model: &DataCapsule, have_seq: u64, missing: &[Pointer]) -> Vec<Record> {
    let mut records: Vec<Record> = missing.iter().filter_map(|p| model.get(p)).cloned().collect();
    let latest = model.latest_seq();
    if latest > have_seq {
        records.extend(model.range(have_seq + 1, latest).into_iter().cloned());
    }
    records.sort_by_key(Record::pointer);
    records.dedup_by_key(|r| r.pointer());
    records
}

/// Bytes a chain keeps in memory per record, beside its address.
fn entry_bytes<E>(_: &Chain<E>) -> usize {
    std::mem::size_of::<E>()
}

// ---- the comparison ------------------------------------------------------

/// Every answer the server gives, against the model's, at this instant.
fn assert_same_answers(
    server: &mut DataCapsuleServer,
    model: &DataCapsule,
    unlinked: &[Pointer],
    step: &str,
) {
    let name = model.name();
    let latest = model.latest_seq();
    let mut targets = vec![ReadTarget::Latest, ReadTarget::HeartbeatOnly];
    for s in 0..=latest + 1 {
        targets.push(ReadTarget::One(s));
        targets.push(ReadTarget::ProofOf(s));
    }
    for target in targets {
        assert_eq!(read(server, target), model_read(model, target), "{step}: {target:?}");
    }
    let third = latest / 3 + 1;
    for (a, b) in [(1, latest), (0, u64::MAX), (third, third + 3), (latest / 2, latest + 3), (5, 2)]
    {
        let served = read(server, ReadTarget::Range(a, b)).map(verified_run);
        assert_eq!(served, model_run(model, a, b), "{step}: Range({a}, {b})");
    }

    for from_seq in [0, latest / 2, latest, latest + 1] {
        let out = server.handle_pdu(0, pdu(name, 8, &DataMsg::Subscribe { from_seq }));
        let replayed: Vec<Record> = out
            .iter()
            .map(|p| match msg_of(p) {
                DataMsg::Event { record, .. } => record,
                other => panic!("{step}: subscribe({from_seq}) answered {other:?}"),
            })
            .collect();
        assert_eq!(replayed, model_replay(model, from_seq), "{step}: subscribe({from_seq})");
    }

    // Unlinked, unknown, linked, and a linked hash under the wrong seq.
    let mut missing: Vec<Pointer> = unlinked.to_vec();
    missing.push(Pointer { seq: 1, hash: RecordHash([0xEE; 32]) });
    missing.extend(model.get_by_seq(1).iter().map(|r| r.pointer()));
    missing.extend(model.get_by_seq(latest).iter().map(|r| r.pointer()));
    missing.extend(model.get_by_seq(1).iter().map(|r| Pointer { seq: 2, hash: r.hash() }));
    for have_seq in [0, latest / 2, latest] {
        let ask = DataMsg::SyncRequest { capsule: name, have_seq, missing: missing.clone() };
        let out = server.handle_pdu(0, pdu(server.name(), 0, &ask));
        let served = match out.first().map(msg_of) {
            Some(DataMsg::SyncResponse { records, .. }) => records,
            None => Vec::new(),
            other => panic!("{step}: sync({have_seq}) answered {other:?}"),
        };
        assert_eq!(served, model_sync(model, have_seq, &missing), "{step}: sync({have_seq})");
    }
}

/// A seeded script of in-order appends, appends ahead of a withheld record
/// (parked behind the hole until it is released), one QSW branch, flushes
/// and rotations — comparing every answer after every step.
fn run_script(seed: u64) {
    let dir = tmpdir(&format!("oracle-{seed}"));
    let policy = FsyncPolicy::Batch { interval_us: 5_000 };
    let (mut server, metrics) = mount(&dir, tiny_cfg(policy));
    let meta = meta();
    let mut model = DataCapsule::new(meta.clone()).unwrap();
    let mut writer = CapsuleWriter::new(&meta, wkey(), PointerStrategy::SkipList).unwrap();

    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut roll = |n: u64| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) % n
    };
    let mut now = 0u64;
    let mut held: Vec<Record> = Vec::new();
    let mut written: Vec<Pointer> = Vec::new();
    let mut branched = false;
    let (mut saw_pending, mut saw_buffered) = (false, false);
    let deliver = |server: &mut DataCapsuleServer, model: &mut DataCapsule, now, r: &Record| {
        append(server, now, r);
        model.ingest(r.clone()).unwrap();
    };

    for step in 0..60 {
        let what = match roll(20) {
            0..=9 => {
                let body = vec![step as u8; 40 + roll(200) as usize];
                let r = writer.append(&body, step).unwrap();
                written.push(r.pointer());
                deliver(&mut server, &mut model, now, &r);
                saw_buffered = true;
                "append"
            }
            10..=11 if held.is_empty() => {
                held.push(writer.append(b"withheld", step).unwrap());
                written.extend(held.iter().map(|r| r.pointer()));
                "withhold"
            }
            10..=12 if !held.is_empty() => {
                let r = held.remove(0);
                deliver(&mut server, &mut model, now, &r);
                "release"
            }
            13 if !branched && model.latest_seq() >= 3 => {
                // A second record on top of seq-1's: two heads from here.
                let at = model.latest_seq();
                let prev = model.get_one(at - 1).unwrap().hash();
                let fork = Record::create(
                    &meta.name(),
                    &wkey(),
                    at,
                    step,
                    prev,
                    vec![],
                    b"the other branch".to_vec(),
                );
                deliver(&mut server, &mut model, now, &fork);
                branched = true;
                "branch"
            }
            14 => {
                now += 1_000;
                server.log_mut().rotate_now(now).unwrap();
                "rotate"
            }
            _ => {
                now += 6_000;
                server.tick(now);
                "flush"
            }
        };
        saw_pending |= model.pending_len() > 0;
        let index = server.capsule(&meta.name()).unwrap();
        assert_eq!(
            (index.len(), index.pending_len(), entry_bytes(index)),
            (model.len(), model.pending_len(), 8),
            "seed {seed} step {step} ({what})"
        );
        // Withheld, or delivered and parked behind the hole: asked for by
        // address, neither may be served.
        let unlinked: Vec<Pointer> =
            written.iter().copied().filter(|p| model.get(p).is_none()).collect();
        assert_same_answers(
            &mut server,
            &model,
            &unlinked,
            &format!("seed {seed} step {step} ({what})"),
        );
    }
    for r in std::mem::take(&mut held) {
        deliver(&mut server, &mut model, now, &r);
    }
    assert_same_answers(&mut server, &model, &[], &format!("seed {seed} end"));

    // The script reached what it is for.
    assert!(saw_pending && saw_buffered && branched, "seed {seed}: script too tame");
    assert!(server.log_mut().segment_ids().len() >= 4, "seed {seed}: nothing sealed");
    let count = |name| metrics.counter_value("store", name);
    assert!(count("read_cache_misses") > 0, "seed {seed}: no sealed read left the cache");
    assert!(count("read_cache_evictions") > 0, "seed {seed}: the cache never filled");
    assert_eq!(
        count("read_cache_hits") + count("read_cache_misses"),
        count("reads_served_from_store")
    );
    assert_eq!(metrics.counter_value("server", "read_store_failures"), 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn index_plus_store_answers_exactly_like_a_body_retaining_capsule() {
    for seed in [1, 2, 3] {
        run_script(seed);
    }
}

// ---- rot under a live server ---------------------------------------------

/// The record entries of a segment file: the offset of each entry's body,
/// and the record in it.
fn record_entries(seg: &[u8]) -> Vec<(usize, Record)> {
    const ENTRY_HEADER: usize = 1 + 4 + 4 + 32;
    let mut off = SEGLOG_MAGIC.len();
    let mut entries = Vec::new();
    while off + ENTRY_HEADER <= seg.len() {
        let kind = seg[off];
        let len = u32::from_be_bytes(seg[off + 1..off + 5].try_into().unwrap()) as usize;
        let body = off + ENTRY_HEADER;
        if kind == 1 {
            entries.push((body, Record::from_wire(&seg[body..body + len]).unwrap()));
        }
        off = body + len;
    }
    entries
}

#[test]
fn rot_in_a_sealed_entry_is_a_typed_error_for_that_seq_only_and_a_refillable_hole_after_restart() {
    let dir = tmpdir("rot");
    let cfg = tiny_cfg(FsyncPolicy::Always);
    let (mut server, metrics) = mount(&dir, cfg.clone());
    let meta = meta();
    let mut writer = CapsuleWriter::new(&meta, wkey(), PointerStrategy::Chain).unwrap();
    let records: Vec<Record> =
        (0..24u64).map(|i| writer.append(&[i as u8; 100], i).unwrap()).collect();
    for (i, r) in records.iter().enumerate() {
        append(&mut server, i as u64, r);
        server.tick(i as u64); // rotates full segments
    }
    assert!(server.log_mut().segment_ids().len() >= 3, "fixture must seal segments");

    // Flip one byte inside the body of sealed segment 0's third record.
    let seg0 = dir.join(format!("{:010}.seg", 0));
    let mut bytes = std::fs::read(&seg0).unwrap();
    let (body_at, rotted) = record_entries(&bytes).swap_remove(2);
    let rotted = rotted.header.seq;
    bytes[body_at + 30] ^= 0x04;
    std::fs::write(&seg0, &bytes).unwrap();

    assert_eq!(read(&mut server, ReadTarget::One(rotted)), Err(ErrorCode::NotFound));
    assert_eq!(metrics.counter_value("server", "read_store_failures"), 1);
    assert!(metrics.counter_value("store", "crc_failures") >= 1);
    let events = metrics.drain_trace();
    let failed: Vec<_> = events.iter().filter(|e| e.event == "read_store_failed").collect();
    assert_eq!(failed.len(), 1, "{events:?}");
    let field = |k: &str| failed[0].fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
    assert_eq!(field("capsule"), Some(meta.name().to_hex()));
    assert_eq!(field("seq"), Some(rotted.to_string()));
    assert!(field("error").is_some_and(|e| e.contains("corrupt")), "{:?}", failed[0]);

    // Its neighbours, and everything that does not read the rotted entry,
    // are served.
    for seq in [rotted - 1, rotted + 1, 24] {
        let expect = ReadResult::Record(records[seq as usize - 1].clone());
        assert_eq!(read(&mut server, ReadTarget::One(seq)), Ok(expect));
    }
    assert!(matches!(read(&mut server, ReadTarget::Latest), Ok(ReadResult::Latest(..))));
    assert!(matches!(
        read(&mut server, ReadTarget::HeartbeatOnly),
        Ok(ReadResult::HeartbeatOnly(_))
    ));
    assert!(matches!(
        read(&mut server, ReadTarget::ProofOf(rotted + 1)),
        Ok(ReadResult::Proof(p)) if p.hops() == (24 - rotted) as usize
    ));
    // A Chain proof below it descends through it: typed, and counted.
    let failures = metrics.counter_value("server", "read_store_failures");
    for target in [rotted, 1] {
        assert_eq!(read(&mut server, ReadTarget::ProofOf(target)), Err(ErrorCode::NotFound));
    }
    assert_eq!(metrics.counter_value("server", "read_store_failures"), failures + 2);
    // A range over the rot is refused whole, typed; one beside it is served.
    assert_eq!(read(&mut server, ReadTarget::Range(1, 24)), Err(ErrorCode::NotFound));
    assert!(matches!(
        read(&mut server, ReadTarget::Range(rotted + 1, 24)),
        Ok(ReadResult::RangeProofResult(p)) if p.older.len() + 1 == (24 - rotted) as usize
    ));
    // Replay and anti-entropy leave the unreadable record out, counted.
    let before = metrics.counter_value("server", "read_store_failures");
    let out = server.handle_pdu(0, pdu(meta.name(), 9, &DataMsg::Subscribe { from_seq: 0 }));
    assert_eq!(out.len(), 23);
    assert_eq!(metrics.counter_value("server", "read_store_failures"), before + 1);
    drop(server);

    // A restart verifies every stored record: the rot becomes a hole.
    let (mut server, metrics) = mount(&dir, cfg);
    assert_eq!(metrics.counter_value("server", "recovery_records_skipped"), 1);
    let events = metrics.drain_trace();
    let skipped: Vec<_> = events.iter().filter(|e| e.event == "recovery_skipped").collect();
    assert_eq!(skipped.len(), 1);
    assert!(skipped[0].fields.contains(&("seq".to_string(), rotted.to_string())));
    let index = server.capsule(&meta.name()).unwrap();
    assert_eq!(index.len() as u64, rotted - 1);
    assert_eq!(index.pending_len() as u64, 24 - rotted);
    assert_eq!(read(&mut server, ReadTarget::One(rotted)), Err(ErrorCode::NotFound));
    assert_eq!(metrics.counter_value("server", "read_store_failures"), 0);

    // Anti-entropy refills the hole. The store forgot the entry it could
    // not read, so it writes the record again instead of deduplicating
    // against the rot: served now, and whole on disk for the next mount.
    let whole = records[rotted as usize - 1].clone();
    let refill = DataMsg::SyncResponse { capsule: meta.name(), records: vec![whole.clone()] };
    server.handle_pdu(0, pdu(server.name(), 0, &refill));
    let index = server.capsule(&meta.name()).unwrap();
    assert_eq!((index.len(), index.pending_len()), (24, 0));
    assert_eq!(read(&mut server, ReadTarget::One(rotted)), Ok(ReadResult::Record(whole)));
    server.tick(1_000_000);
    drop(server);
    let (mut server, metrics) = mount(&dir, tiny_cfg(FsyncPolicy::Always));
    assert_eq!(metrics.counter_value("server", "recovery_records_skipped"), 0);
    let served = read(&mut server, ReadTarget::Range(1, 24)).map(verified_run);
    let tip = Heartbeat::from_record(&meta.name(), &records[23]);
    assert_eq!(served, Ok((pairs(records), Some(tip))));
    let _ = std::fs::remove_dir_all(dir);
}

/// The head's entry rots: every answer anchored at the head — its
/// heartbeat, the latest record, any proof — is typed `NotFound` and
/// counted, while the records below it and ranges over them are served.
#[test]
fn rot_in_the_head_entry_is_a_typed_error_for_heartbeats_and_proofs_and_ranges_below_are_served() {
    let dir = tmpdir("head-rot");
    let (mut server, metrics) = mount(&dir, tiny_cfg(FsyncPolicy::Always));
    let meta = meta();
    let mut writer = CapsuleWriter::new(&meta, wkey(), PointerStrategy::Chain).unwrap();
    let records: Vec<Record> =
        (0..12u64).map(|i| writer.append(&[i as u8; 100], i).unwrap()).collect();
    for (i, r) in records.iter().enumerate() {
        append(&mut server, i as u64, r);
        server.tick(i as u64);
    }
    // Seal the head's segment, unread: its entry is read from disk next.
    server.log_mut().rotate_now(100).unwrap();
    let (seg, body_at) = server
        .log_mut()
        .segment_ids()
        .into_iter()
        .map(|id| dir.join(format!("{id:010}.seg")))
        .find_map(|seg| {
            let entries = record_entries(&std::fs::read(&seg).unwrap());
            let head = entries.into_iter().find(|(_, r)| r.header.seq == 12);
            head.map(|(body_at, _)| (seg, body_at))
        })
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[body_at + 30] ^= 0x04;
    std::fs::write(&seg, &bytes).unwrap();

    assert_eq!(read(&mut server, ReadTarget::HeartbeatOnly), Err(ErrorCode::NotFound));
    assert_eq!(metrics.counter_value("server", "read_store_failures"), 1);
    let events = metrics.drain_trace();
    let failed: Vec<_> = events.iter().filter(|e| e.event == "read_store_failed").collect();
    assert_eq!(failed.len(), 1, "{events:?}");
    assert!(failed[0].fields.contains(&("seq".to_string(), "12".to_string())));
    for target in [ReadTarget::Latest, ReadTarget::ProofOf(12), ReadTarget::ProofOf(3)] {
        assert_eq!(read(&mut server, target), Err(ErrorCode::NotFound), "{target:?}");
    }
    assert_eq!(metrics.counter_value("server", "read_store_failures"), 4);

    let below = ReadResult::Record(records[10].clone());
    assert_eq!(read(&mut server, ReadTarget::One(11)), Ok(below));
    let served = read(&mut server, ReadTarget::Range(1, 11)).map(verified_run);
    let tip = Heartbeat::from_record(&meta.name(), &records[10]);
    assert_eq!(served, Ok((pairs(records[..11].to_vec()), Some(tip))));
    assert_eq!(metrics.counter_value("server", "read_store_failures"), 4);
    let _ = std::fs::remove_dir_all(dir);
}

// ---- residency -----------------------------------------------------------

#[test]
fn a_server_keeps_no_body_bytes_after_appends_or_after_mount() {
    let dir = tmpdir("residency");
    let cfg = SegConfig { policy: FsyncPolicy::Always, ..SegConfig::default() };
    let meta = meta();
    let mut writer = CapsuleWriter::new(&meta, wkey(), PointerStrategy::SkipList).unwrap();
    let records: Vec<Record> =
        (0..48u64).map(|i| writer.append(&[i as u8; 4096], i).unwrap()).collect();
    {
        let (mut server, _) = mount(&dir, cfg.clone());
        // Seq 40 arrives last: 41..=48 wait behind the hole, parked.
        for r in records.iter().filter(|r| r.header.seq != 40) {
            append(&mut server, 0, r);
        }
        let index = server.capsule(&meta.name()).unwrap();
        assert_eq!((index.len(), index.pending_len()), (39, 8));
        assert_eq!(entry_bytes(index), 8, "linked and pending records keep one integer");
        assert_eq!(
            read(&mut server, ReadTarget::One(39)),
            Ok(ReadResult::Record(records[38].clone()))
        );
    }
    let (mut server, _) = mount(&dir, cfg);
    let index = server.capsule(&meta.name()).unwrap();
    assert_eq!((index.len(), index.pending_len()), (39, 8), "mount verified all 47");
    append(&mut server, 0, &records[39]);
    let index = server.capsule(&meta.name()).unwrap();
    assert_eq!((index.len(), index.pending_len(), entry_bytes(index)), (48, 0, 8));
    let tip = Heartbeat::from_record(&meta.name(), &records[47]);
    let served = read(&mut server, ReadTarget::Range(1, 48)).map(verified_run);
    assert_eq!(served, Ok((pairs(records), Some(tip))));
    let _ = std::fs::remove_dir_all(dir);
}
