//! Storage-engine benchmark: the shared segmented group-commit log,
//! measured **durably** — every append in the timed region is acked
//! durable (fsynced) before it counts. The engine batches every capsule's
//! appends into one segment write and one covering fsync, so the rate
//! should hold as the capsule count grows.
//!
//! Recovery is measured the way the engine bounds it: the log replays
//! only the checkpointed tail (asserted via
//! [`RecoveryStats::tail_entries`], not wall-clock).

use gdp_capsule::{
    body_digest, CapsuleWriter, MetadataBuilder, PointerStrategy, Record, RecordHash, RecordHeader,
};
use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
use gdp_crypto::x25519::EphemeralKeyPair;
use gdp_crypto::{Signature, SigningKey};
use gdp_server::{DataCapsuleServer, DataMsg, ReadResult, ReadTarget};
use gdp_store::{CapsuleStore, FsyncPolicy, RecoveryStats, SegConfig, SegLog};
use gdp_wire::{Bytes, Name, Pdu, Wire};
use std::path::Path;
use std::time::Instant;

/// Appends per covering flush in the segmented timed loop — the batch a
/// 5 ms group-commit window collects at the measured rates.
pub const GROUP_SIZE: usize = 64;

/// Workload the perf-smoke store floor is recorded at — and re-measured
/// at, so the comparison is like-for-like.
pub const FLOOR_CAPSULES: usize = 1_000;
/// Appends in the floor measurement.
pub const FLOOR_APPENDS: usize = 5_000;

/// Durable append measurement at one capsule count.
#[derive(Clone, Copy, Debug)]
pub struct AppendPoint {
    /// Logical streams the appends round-robin over.
    pub capsules: usize,
    /// Total appends in the timed region.
    pub appends: usize,
    /// Durably-acked appends per second over the whole timed region.
    pub per_sec: f64,
    /// 99th-percentile append→durable-ack latency (µs).
    pub p99_us: u64,
}

/// Crash-recovery measurement at one log size.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPoint {
    /// Records in the log before the simulated crash.
    pub records: u64,
    /// Records appended after the last checkpoint.
    pub tail: u64,
    /// Reopen time (replays only `tail`), µs.
    pub seg_us: u64,
    /// What the recovery actually did.
    pub seg_stats: RecoveryStats,
}

/// Pre-signs `total` records round-robin over `capsules` writer chains,
/// so signing cost never pollutes the timed append region. One writer
/// key serves every chain — the store layer never verifies signatures.
fn mk_workload(capsules: usize, total: usize) -> (Vec<Name>, Vec<Record>) {
    let writer = SigningKey::from_seed(&[0xBE; 32]);
    let names: Vec<Name> =
        (0..capsules).map(|i| Name::from_content(format!("bench-cap-{i}").as_bytes())).collect();
    let mut seqs = vec![0u64; capsules];
    let mut prevs: Vec<RecordHash> = names.iter().map(RecordHash::anchor).collect();
    let mut records = Vec::with_capacity(total);
    for i in 0..total {
        let c = i % capsules;
        seqs[c] += 1;
        let r = Record::create(
            &names[c],
            &writer,
            seqs[c],
            0,
            prevs[c],
            vec![],
            format!("store bench payload {i}").into_bytes(),
        );
        prevs[c] = r.hash();
        records.push(r);
    }
    (names, records)
}

fn p99(mut latencies: Vec<u64>) -> u64 {
    latencies.sort_unstable();
    if latencies.is_empty() {
        return 0;
    }
    latencies[(latencies.len() - 1) * 99 / 100]
}

/// Durably acked appends: they batch into the shared log and a covering
/// `flush_now` every [`GROUP_SIZE`] appends makes them durable; a
/// record's latency runs from its append to that flush. Returns
/// `(appends/s, p99 µs)`.
fn bench_seg(dir: &Path, names: &[Name], records: &[Record]) -> (f64, u64) {
    let scope = gdp_obs::Metrics::new().scope("store");
    let cfg = SegConfig { policy: FsyncPolicy::DEFAULT_BATCH, ..SegConfig::default() };
    let log = SegLog::open_with(dir.join("seg-engine"), cfg, &scope).expect("open seg log");
    let mut handles: Vec<_> = names.iter().map(|n| log.handle(*n)).collect();
    let mut lat = Vec::with_capacity(records.len());
    let mut pending: Vec<Instant> = Vec::with_capacity(GROUP_SIZE);
    let mut now_us = 0u64;
    let start = Instant::now();
    for (i, r) in records.iter().enumerate() {
        let c = i % names.len();
        pending.push(Instant::now());
        handles[c].append_acked(r).expect("append");
        if pending.len() >= GROUP_SIZE || i == records.len() - 1 {
            now_us += 5_000;
            log.flush_now(now_us).expect("flush");
            for t0 in pending.drain(..) {
                lat.push(t0.elapsed().as_micros() as u64);
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (records.len() as f64 / secs.max(1e-9), p99(lat))
}

/// Measures durable appends over a pre-signed workload in a fresh
/// subdirectory of `dir`.
pub fn append_point(dir: &Path, capsules: usize, appends: usize) -> AppendPoint {
    let (names, records) = mk_workload(capsules, appends);
    let (per_sec, p99_us) = bench_seg(dir, &names, &records);
    AppendPoint { capsules, appends, per_sec, p99_us }
}

/// Quick rate-only re-measurement (the perf-smoke probe).
pub fn seg_append_rate(dir: &Path, capsules: usize, appends: usize) -> f64 {
    append_point(dir, capsules, appends).per_sec
}

/// Builds a log of `records` entries with a checkpoint covering all but
/// the last `tail`, then measures its reopen (crash-recovery) time. The
/// bound is asserted structurally: recovery must replay exactly `tail`
/// entries and never fall back to a full scan.
pub fn recovery_point(dir: &Path, records: u64, tail: u64) -> RecoveryPoint {
    assert!(tail < records);
    let streams = 16usize;
    let (names, all) = mk_workload(streams, records as usize);

    // Checkpoint after `records - tail`, then the tail.
    let seg_dir = dir.join(format!("seg-recover-{records}"));
    let scope = gdp_obs::Metrics::new().scope("store");
    let cfg = SegConfig { policy: FsyncPolicy::DEFAULT_BATCH, ..SegConfig::default() };
    {
        let log = SegLog::open_with(&seg_dir, cfg.clone(), &scope).expect("open seg log");
        let mut handles: Vec<_> = names.iter().map(|n| log.handle(*n)).collect();
        let mut now_us = 0u64;
        for (i, r) in all.iter().enumerate() {
            handles[i % streams].append_acked(r).expect("append");
            if i as u64 + 1 == records - tail {
                now_us += 5_000;
                log.checkpoint_now(now_us).expect("checkpoint");
            }
        }
        now_us += 5_000;
        log.flush_now(now_us).expect("final flush");
    }
    let t0 = Instant::now();
    let log = SegLog::open_with(&seg_dir, cfg, &scope).expect("reopen seg log");
    let seg_us = t0.elapsed().as_micros() as u64;
    let seg_stats = log.recovery_stats();
    assert!(!seg_stats.full_scan, "recovery bench: checkpoint was not used");
    assert_eq!(
        seg_stats.tail_entries, tail,
        "recovery bench: replayed tail != appended tail (bounded recovery is broken)"
    );
    RecoveryPoint { records, tail, seg_us, seg_stats }
}

// ------------------------------------------------------------------ reads

/// Point-read sample cap per read point: strided across the capsule
/// space so neighbouring samples do not share cache blocks at large
/// counts, and small enough that the warm working set (one block per
/// sample) fits [`READ_CACHE_BYTES`].
const READ_SAMPLE: usize = 1_024;

/// Block-cache budget for the cached side of a read comparison: covers
/// the full strided sample (one 64 KiB block each) with headroom.
const READ_CACHE_BYTES: usize = 128 * 1024 * 1024;

/// Workload the perf-smoke read floor is recorded at — and re-measured
/// at, so the comparison is like-for-like.
pub const FLOOR_READ_CAPSULES: usize = 1_000;
/// Records per capsule in the read-floor workload.
pub const FLOOR_READ_RECORDS: usize = 8;

/// Read-path measurement at one capsule count.
#[derive(Clone, Copy, Debug)]
pub struct ReadPoint {
    /// Streams seeded into the log.
    pub capsules: usize,
    /// Records appended per stream.
    pub records_per_capsule: usize,
    /// Capsules in the strided point-read/range sample.
    pub sampled: usize,
    /// Point reads/s with the block cache disabled (every read is its
    /// own block fetch + entry CRC through the fd pool).
    pub uncached_point_per_sec: f64,
    /// Point reads/s on the second pass with the cache enabled.
    pub warm_point_per_sec: f64,
    /// Records/s returned by warm range scans over the sample.
    pub range_records_per_sec: f64,
    /// Fraction of warm range records whose body was a zero-copy slice
    /// of a cached block (block-spanning entries legitimately copy).
    pub zero_copy_fraction: f64,
    /// Sealed-segment `open(2)` calls the cached run performed.
    pub fd_opens: u64,
    /// Pooled fds resident when the run ended.
    pub open_fds: usize,
    /// The pool budget the run was configured with.
    pub max_open_segments: usize,
}

impl ReadPoint {
    /// Warm-over-uncached speedup on point reads/s.
    pub fn speedup(&self) -> f64 {
        self.warm_point_per_sec / self.uncached_point_per_sec
    }
}

/// Segmented config for the read benches. The largest points take bigger
/// segments with a deliberately tiny fd pool so the 1M run proves the
/// budget holds while sealed segments outnumber it.
fn read_cfg(capsules: usize, read_cache_bytes: usize) -> SegConfig {
    let defaults = SegConfig::default();
    let big = capsules >= 250_000;
    SegConfig {
        policy: FsyncPolicy::DEFAULT_BATCH,
        segment_max_bytes: if big { 48 * 1024 * 1024 } else { defaults.segment_max_bytes },
        max_open_segments: if big { 4 } else { defaults.max_open_segments },
        read_cache_bytes,
        ..defaults
    }
}

/// Builds a record without signing it (zeroed signature): the store
/// layer never verifies signatures, and at 1M capsules real ed25519
/// signing would dominate the open-loop seeding. Hashing stays honest,
/// so dedup and the by-hash index behave exactly as with signed records.
pub fn unsigned_record(capsule: &Name, seq: u64, body: Vec<u8>) -> Record {
    let header = RecordHeader {
        seq,
        timestamp_micros: 0,
        prev: RecordHash::anchor(capsule),
        extra: vec![],
        body_hash: body_digest(&body),
        body_len: body.len() as u32,
    };
    Record { header, body: Bytes::from_vec(body), signature: Signature([0u8; 64]) }
}

/// Open-loop seeder for the read benches: appends `per_capsule` records
/// for each of `capsules` streams, capsule by capsule (contiguous
/// per-stream layout on disk), never waiting for acks. Durability rides
/// the engine's byte-budget inline flushes plus a periodic `maintain`
/// that also drives rotation; a final rotation seals everything so the
/// read passes exercise the sealed-segment fast lane, and its
/// checkpoint bounds any later reopen. Returns the log and the names.
fn seed_capsules(
    dir: &Path,
    cfg: SegConfig,
    capsules: usize,
    per_capsule: usize,
) -> (SegLog, Vec<Name>) {
    let scope = gdp_obs::Metrics::new().scope("store");
    let log = SegLog::open_with(dir, cfg, &scope).expect("open seg log for seeding");
    let names: Vec<Name> =
        (0..capsules).map(|i| Name::from_content(format!("bench-cap-{i}").as_bytes())).collect();
    let mut now_us = 0u64;
    let mut appended = 0usize;
    for name in &names {
        let mut h = log.handle(*name);
        for seq in 1..=per_capsule as u64 {
            let body = format!("read bench payload {appended}").into_bytes();
            h.append_acked(&unsigned_record(name, seq, body)).expect("seed append");
            appended += 1;
            if appended.is_multiple_of(4096) {
                now_us += 5_000;
                log.maintain(now_us).expect("seed maintain");
            }
        }
    }
    now_us += 5_000;
    log.rotate_now(now_us).expect("seal for reads");
    (log, names)
}

/// Strided sample of up to [`READ_SAMPLE`] capsules: with the seeder's
/// capsule-contiguous layout, striding keeps large-count samples from
/// sharing blocks, so the uncached side is not accidentally amortized.
fn sample_names(names: &[Name]) -> Vec<Name> {
    let k = names.len().min(READ_SAMPLE);
    let step = (names.len() / k).max(1);
    (0..k).map(|i| names[i * step]).collect()
}

/// Times `reps` passes of one point read per sampled capsule.
fn point_pass(log: &SegLog, sample: &[Name], seq: u64, reps: usize) -> f64 {
    let handles: Vec<_> = sample.iter().map(|n| log.handle(*n)).collect();
    let start = Instant::now();
    for _ in 0..reps {
        for h in &handles {
            let r = h.get_by_seq(seq).expect("point read").expect("sampled record exists");
            std::hint::black_box(&r);
        }
    }
    (reps * sample.len()) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Seeds one log, then measures the sealed-read path both ways:
/// uncached point reads on the seeding log (cache disabled), then warm
/// point reads and a warm range scan on a cache-enabled reopen (the
/// reopen is checkpoint-bounded, not a full scan, even at 1M capsules).
/// Structural contracts are asserted inline: warm range records must
/// come back as zero-copy slices of cached blocks (≥95%; only
/// block-spanning entries copy) and the pooled-fd budget must hold.
pub fn read_comparison(dir: &Path, capsules: usize, per_capsule: usize) -> ReadPoint {
    let seq = per_capsule as u64;
    let (sample, uncached_point_per_sec) = {
        let (log, names) = seed_capsules(dir, read_cfg(capsules, 0), capsules, per_capsule);
        let sample = sample_names(&names);
        let reps = (20_000 / sample.len()).max(2);
        let rate = point_pass(&log, &sample, seq, reps);
        (sample, rate)
    };

    let cfg = read_cfg(capsules, READ_CACHE_BYTES);
    let max_open_segments = cfg.max_open_segments;
    let scope = gdp_obs::Metrics::new().scope("store");
    let log = SegLog::open_with(dir, cfg, &scope).expect("reopen seg log with cache");
    point_pass(&log, &sample, seq, 1); // fill
    let reps = (100_000 / sample.len()).max(4);
    let warm_point_per_sec = point_pass(&log, &sample, seq, reps);

    let handles: Vec<_> = sample.iter().map(|n| log.handle(*n)).collect();
    for h in &handles {
        h.range(1, seq).expect("range fill");
    }
    let (mut zero_copy, mut total) = (0usize, 0usize);
    let range_reps = (100_000 / (sample.len() * per_capsule)).max(2);
    let start = Instant::now();
    for _ in 0..range_reps {
        for h in &handles {
            for r in h.range(1, seq).expect("range read") {
                total += 1;
                if r.body.ref_count() > 1 {
                    zero_copy += 1;
                }
            }
        }
    }
    let range_records_per_sec = total as f64 / start.elapsed().as_secs_f64().max(1e-9);
    let zero_copy_fraction = zero_copy as f64 / total.max(1) as f64;
    assert!(
        zero_copy_fraction >= 0.95,
        "read bench: only {:.1}% of warm range records were zero-copy slices of cached blocks",
        zero_copy_fraction * 100.0
    );
    assert!(
        log.open_fds() <= max_open_segments,
        "read bench: {} pooled fds exceed the max_open_segments budget of {}",
        log.open_fds(),
        max_open_segments
    );
    ReadPoint {
        capsules,
        records_per_capsule: per_capsule,
        sampled: sample.len(),
        uncached_point_per_sec,
        warm_point_per_sec,
        range_records_per_sec,
        zero_copy_fraction,
        fd_opens: log.fd_opens(),
        open_fds: log.open_fds(),
        max_open_segments,
    }
}

/// Warm point-read rate at the floor workload (the perf-smoke probe):
/// seeds cache-enabled, seals, fills with one pass, times the rest.
pub fn seg_read_rate(dir: &Path, capsules: usize, per_capsule: usize) -> f64 {
    let (log, names) =
        seed_capsules(dir, read_cfg(capsules, READ_CACHE_BYTES), capsules, per_capsule);
    let sample = sample_names(&names);
    let seq = per_capsule as u64;
    point_pass(&log, &sample, seq, 1); // fill
    let reps = (100_000 / sample.len()).max(4);
    point_pass(&log, &sample, seq, reps)
}

// ----------------------------------------------------------------- served

/// Records in the served-read capsule: with [`SERVED_BODY_BYTES`] bodies,
/// 8× [`SERVED_CACHE_BYTES`] — the working-set-to-cache ratio of the
/// end-to-end read workloads, at a size a CI floor can afford to sign.
pub const SERVED_RECORDS: u64 = 1_024;
/// Body bytes per record of the served-read capsule.
pub const SERVED_BODY_BYTES: usize = 4_096;
/// Block-cache budget of the served-read host.
pub const SERVED_CACHE_BYTES: usize = 512 * 1024;
/// Records per served range scan.
pub const SERVED_SCAN_LEN: u64 = 32;

/// The path requests take, beside the raw store lane under it: reads
/// through `DataCapsuleServer::handle_pdu` (index → store → encode
/// → session MAC) on a seglog-backed host whose capsule is 8× its cache.
#[derive(Clone, Copy, Debug)]
pub struct ServedPoint {
    /// Records/s of `SegStore::range` over uniform 32-record spans.
    pub raw_range_records_per_sec: f64,
    /// Records/s of `Read Range` over the same spans, through the server.
    pub served_scan_records_per_sec: f64,
    /// `Read ProofOf` point reads/s at uniform seqs, through the server.
    pub served_proof_reads_per_sec: f64,
    /// Store reads per served scan (one per record when nothing is amiss).
    pub store_reads_per_scan: f64,
    /// Block-cache hit ratio over the served passes.
    pub cache_hit_ratio: f64,
}

impl ServedPoint {
    /// Served scan rate as a fraction of the raw range rate of the same
    /// run — what `perf-smoke` holds a floor on: adjacent measurements
    /// share the box's slow spells, so the ratio moves only when the
    /// server's share of the path does.
    pub fn scan_ratio(&self) -> f64 {
        self.served_scan_records_per_sec / self.raw_range_records_per_sec
    }
}

/// Seeds and mounts the served-read capsule under `dir`, then times raw
/// range scans, served range scans and served proof reads over one
/// seeded sequence of positions.
pub fn served_comparison(dir: &Path) -> ServedPoint {
    const FOREVER: u64 = 1 << 50;
    let owner = SigningKey::from_seed(&[0x61; 32]);
    let writer_key = SigningKey::from_seed(&[0x62; 32]);
    let sid = PrincipalId::from_seed(PrincipalKind::Server, &[0x63; 32], "served bench");
    let meta = MetadataBuilder::new()
        .writer(&writer_key.verifying_key())
        .set_str("description", "served read bench")
        .sign(&owner);
    let capsule = meta.name();

    let metrics = gdp_obs::Metrics::new();
    let cfg = SegConfig {
        segment_max_bytes: 1024 * 1024,
        read_cache_bytes: SERVED_CACHE_BYTES,
        ..SegConfig::default()
    };
    let log = SegLog::open_with(dir, cfg, &metrics.scope("store")).expect("open served log");
    let mut store = log.handle(capsule);
    let mut writer =
        CapsuleWriter::new(&meta, writer_key, PointerStrategy::SkipList).expect("served writer");
    for seq in 1..=SERVED_RECORDS {
        let record = writer.append(&vec![seq as u8; SERVED_BODY_BYTES], 0).expect("sign");
        store.append_acked(&record).expect("seed append");
        if seq % 16 == 0 {
            store.flush(seq * 5_000).expect("seed flush"); // rotates full segments
        }
    }

    // Mount verifies every stored record and keeps its address and wire bound.
    let mut server = DataCapsuleServer::new_with_obs(sid.clone(), &metrics.scope("server"));
    let chain = ServingChain::direct(
        AdCert::issue(&owner, capsule, sid.name(), false, Scope::Global, FOREVER),
        sid.principal().clone(),
    );
    server.mount(log);
    server.host(meta, chain, vec![]).expect("mount");
    let client = Name::from_content(b"served bench client");
    let mut request_seq = 0u64;
    let mut ask = |server: &mut DataCapsuleServer, msg: &DataMsg| {
        request_seq += 1;
        let out = server.handle_pdu(0, Pdu::data(client, capsule, request_seq, msg.to_wire()));
        DataMsg::from_wire(&out.first().expect("an answer").payload).expect("decodable answer")
    };
    // Steady-state responses are MAC'd, as in a client session.
    let eph = EphemeralKeyPair::from_secret([0x64; 32]);
    let accept = ask(&mut server, &DataMsg::SessionInit { client_eph: *eph.public() });
    assert!(matches!(accept, DataMsg::SessionAccept { .. }), "session: {accept:?}");

    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut uniform = |n: u64| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        1 + (rng >> 33) % n
    };
    let spans: Vec<u64> = (0..256).map(|_| uniform(SERVED_RECORDS - SERVED_SCAN_LEN + 1)).collect();
    let seqs: Vec<u64> = (0..2_048).map(|_| uniform(SERVED_RECORDS)).collect();

    let start = Instant::now();
    let mut raw_records = 0usize;
    for from in &spans {
        raw_records += store.range(*from, from + SERVED_SCAN_LEN - 1).expect("raw range").len();
    }
    let raw_range_records_per_sec = raw_records as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let counted = |name| metrics.counter_value("store", name);
    let (reads0, hits0) = (counted("reads_served_from_store"), counted("read_cache_hits"));
    let start = Instant::now();
    let mut served_records = 0usize;
    for from in &spans {
        let target = ReadTarget::Range(*from, from + SERVED_SCAN_LEN - 1);
        match ask(&mut server, &DataMsg::Read { target }) {
            DataMsg::ReadResp { result: ReadResult::RangeProofResult(p), .. } => {
                served_records += p.older.len() + 1
            }
            other => panic!("served scan answered {other:?}"),
        }
    }
    let served_scan_records_per_sec =
        served_records as f64 / start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(served_records, raw_records, "served scans must return what the store holds");
    let scan_reads = counted("reads_served_from_store") - reads0;

    let start = Instant::now();
    let mut hops = 0u64;
    for seq in &seqs {
        match ask(&mut server, &DataMsg::Read { target: ReadTarget::ProofOf(*seq) }) {
            DataMsg::ReadResp { result: ReadResult::Proof(p), .. } => {
                hops += p.hops() as u64;
                std::hint::black_box(&p);
            }
            other => panic!("served proof answered {other:?}"),
        }
    }
    let served_proof_reads_per_sec = seqs.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    let reads = counted("reads_served_from_store") - reads0;
    assert_eq!(reads, scan_reads + hops, "a proof reads one record per hop, the head's once");
    assert_eq!(metrics.counter_value("server", "read_store_failures"), 0);

    ServedPoint {
        raw_range_records_per_sec,
        served_scan_records_per_sec,
        served_proof_reads_per_sec,
        store_reads_per_scan: scan_reads as f64 / spans.len() as f64,
        cache_hit_ratio: (counted("read_cache_hits") - hits0) as f64 / reads.max(1) as f64,
    }
}
