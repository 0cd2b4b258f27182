//! Functional tests of the segmented shared-log engine: group-commit ack
//! semantics, rotation and checkpointed (bounded) recovery — the tentpole
//! behaviors of `SegLog`.

use gdp_capsule::{CapsuleMetadata, Record, RecordHash};
use gdp_crypto::SigningKey;
use gdp_obs::{Metrics, Scope};
use gdp_store::io::{Fault, MemFs, Op};
use gdp_store::{AppendAck, FsyncPolicy, SegConfig, SegLog, RECOVERY_CHUNK};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gdp-seg-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A capsule with `n` chained records (one shared writer key: signing is
/// the slow part, so fixtures keep key setup minimal).
fn capsule(tag: u8, n: u64) -> (CapsuleMetadata, Vec<Record>) {
    let owner = SigningKey::from_seed(&[tag; 32]);
    let writer = SigningKey::from_seed(&[0xEE; 32]);
    let meta = gdp_capsule::MetadataBuilder::new()
        .writer(&writer.verifying_key())
        .set_str("description", &format!("seg test capsule {tag}"))
        .sign(&owner);
    let name = meta.name();
    let mut prev = RecordHash::anchor(&name);
    let mut records = Vec::new();
    for seq in 1..=n {
        let r = Record::create(
            &name,
            &writer,
            seq,
            seq * 10,
            prev,
            vec![],
            format!("capsule {tag} record {seq}").into_bytes(),
        );
        prev = r.hash();
        records.push(r);
    }
    (meta, records)
}

fn batch_cfg() -> SegConfig {
    SegConfig { policy: FsyncPolicy::Batch { interval_us: 5_000 }, ..SegConfig::default() }
}

#[test]
fn multi_capsule_roundtrip_and_reopen() {
    let dir = tmpdir("roundtrip");
    let caps: Vec<_> = (1u8..=3).map(|t| capsule(t, 5)).collect();
    {
        let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
        // Interleave appends across capsules: they multiplex onto one log.
        for (m, _) in &caps {
            log.put_metadata(&m.name(), m).unwrap();
        }
        for i in 0..5 {
            for (m, rs) in &caps {
                log.append(&m.name(), &rs[i]).unwrap();
            }
        }
        log.flush_now(1_000_000).unwrap();
        assert_eq!(log.segment_ids(), vec![0], "small workload stays in one segment");
    }
    let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
    assert!(log.recovery_stats().full_scan, "no checkpoint yet: full scan expected");
    for (m, rs) in &caps {
        assert_eq!(log.metadata(&m.name()).unwrap(), *m);
        assert_eq!(log.len(&m.name()), 5);
        assert_eq!(log.latest_seq(&m.name()), 5);
        for r in rs {
            assert_eq!(log.get(&m.name(), &r.pointer()).unwrap().unwrap(), *r);
            assert_eq!(log.get_by_seq(&m.name(), r.header.seq).unwrap().unwrap(), *r);
        }
        let range = log.range(&m.name(), 2, 4).unwrap();
        assert_eq!(range, rs[1..4].to_vec());
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn group_commit_acks_only_after_covering_fsync() {
    let dir = tmpdir("ack");
    let metrics = Metrics::new();
    let mut log = SegLog::open(&dir, batch_cfg(), &metrics.scope("store")).unwrap();
    let (meta, records) = capsule(1, 3);
    log.put_metadata(&meta.name(), &meta).unwrap(); // metadata force-flushes (create acks)
    let epoch0 = log.durable_epoch();

    let ack = log.append(&meta.name(), &records[0]).unwrap();
    let AppendAck::Pending(epoch) = ack else { panic!("batched append acked durable: {ack:?}") };
    assert_eq!(epoch, epoch0 + 1, "buffered appends are covered by the next epoch");
    // A retried (duplicate) append must not ack ahead of the fsync.
    assert_eq!(log.append(&meta.name(), &records[0]).unwrap(), AppendAck::Pending(epoch));

    // Before the batch window elapses, maintenance must NOT fsync.
    let fsyncs_before = metrics.counter_value("store", "fsyncs");
    assert_eq!(log.maintain(1_000).unwrap(), epoch0, "window not elapsed: no new epoch");
    assert_eq!(metrics.counter_value("store", "fsyncs"), fsyncs_before);
    assert_eq!(log.append(&meta.name(), &records[0]).unwrap(), AppendAck::Pending(epoch));

    // Once the window elapses, one fsync covers the batch and the ack
    // epoch becomes durable.
    assert_eq!(log.maintain(10_000).unwrap(), epoch);
    assert_eq!(metrics.counter_value("store", "fsyncs"), fsyncs_before + 1);
    assert_eq!(log.append(&meta.name(), &records[0]).unwrap(), AppendAck::Durable);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn one_fsync_covers_appends_across_many_capsules() {
    let dir = tmpdir("batch");
    let metrics = Metrics::new();
    let mut log = SegLog::open(&dir, batch_cfg(), &metrics.scope("store")).unwrap();
    let caps: Vec<_> = (1u8..=8).map(|t| capsule(t, 2)).collect();
    for (m, _) in &caps {
        log.put_metadata(&m.name(), m).unwrap();
    }
    let fsyncs_before = metrics.counter_value("store", "fsyncs");
    for (m, rs) in &caps {
        for r in rs {
            assert!(matches!(log.append(&m.name(), r).unwrap(), AppendAck::Pending(_)));
        }
    }
    log.flush_now(1_000_000).unwrap();
    assert_eq!(
        metrics.counter_value("store", "fsyncs"),
        fsyncs_before + 1,
        "16 appends across 8 capsules must group-commit under a single fsync"
    );
    for (m, rs) in &caps {
        assert_eq!(log.append(&m.name(), &rs[1]).unwrap(), AppendAck::Durable);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn byte_budget_bounds_unacked_data() {
    let dir = tmpdir("budget");
    let cfg = SegConfig { flush_byte_budget: 1, ..batch_cfg() };
    let mut log = SegLog::open(&dir, cfg, &Scope::default()).unwrap();
    let (meta, records) = capsule(1, 2);
    log.put_metadata(&meta.name(), &meta).unwrap();
    // Budget of one byte: every batched append crosses it and forces an
    // inline group commit, so the ack comes back already durable.
    assert_eq!(log.append(&meta.name(), &records[0]).unwrap(), AppendAck::Durable);
    assert_eq!(log.append(&meta.name(), &records[1]).unwrap(), AppendAck::Durable);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn always_policy_acks_durable_immediately() {
    let dir = tmpdir("always");
    let cfg = SegConfig { policy: FsyncPolicy::Always, ..SegConfig::default() };
    let mut log = SegLog::open(&dir, cfg, &Scope::default()).unwrap();
    let (meta, records) = capsule(1, 1);
    log.put_metadata(&meta.name(), &meta).unwrap();
    assert_eq!(log.append(&meta.name(), &records[0]).unwrap(), AppendAck::Durable);
    let _ = std::fs::remove_dir_all(dir);
}

/// The crash contract: dropping the log without a flush loses exactly the
/// writes that were never acked durable — everything acked survives.
#[test]
fn crash_loses_exactly_the_unacked_tail() {
    let dir = tmpdir("crash");
    let (meta, records) = capsule(1, 8);
    {
        let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
        log.put_metadata(&meta.name(), &meta).unwrap();
        for r in &records[..5] {
            log.append(&meta.name(), r).unwrap();
        }
        log.flush_now(1_000_000).unwrap(); // acked durable
        for r in &records[5..] {
            assert!(matches!(log.append(&meta.name(), r).unwrap(), AppendAck::Pending(_)));
        }
        // Crash: the process state (group-commit buffer) evaporates.
    }
    let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
    assert_eq!(log.len(&meta.name()), 5, "acked records survive, unacked buffered tail is lost");
    for r in &records[..5] {
        assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap().unwrap(), *r);
    }
    for r in &records[5..] {
        assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap(), None);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Regression: a failed group-commit flush kept its batch, and the next
/// flush appended the batch again at the file's end — behind whatever the
/// failed attempt had left there. Every entry of the batch and every later
/// one then sat off the offset its index named: a read there failed its
/// CRC or returned another record whole, and a reopen stopped its scan
/// at the shifted bytes and truncated the acked retry away. A failed flush now cuts the segment back to the
/// durable end before the batch is written again.
fn failed_flush_then_healthy_flush_keeps_every_entry(inject: impl Fn(&MemFs)) {
    let fs = MemFs::new();
    let (meta, records) = capsule(1, 8);
    let mut log = SegLog::open(&fs, batch_cfg(), &Scope::default()).unwrap();
    log.put_metadata(&meta.name(), &meta).unwrap();
    log.append(&meta.name(), &records[0]).unwrap();
    log.flush_now(10_000).unwrap();
    for r in &records[1..5] {
        assert!(matches!(log.append(&meta.name(), r).unwrap(), AppendAck::Pending(_)));
    }
    inject(&fs);
    assert!(log.flush_now(20_000).is_err(), "the injected fault fails the flush");
    fs.heal();
    // Appends after the failure join the retried batch.
    let mut epoch = 0;
    for r in &records[5..] {
        let AppendAck::Pending(e) = log.append(&meta.name(), r).unwrap() else {
            panic!("not batched")
        };
        epoch = e;
    }
    assert!(log.flush_now(30_000).unwrap() >= epoch, "the healthy flush acks the retry");
    for r in &records {
        assert_eq!(
            log.get(&meta.name(), &r.pointer()).unwrap().as_ref(),
            Some(r),
            "seq {}",
            r.header.seq
        );
    }
    assert_eq!(log.range(&meta.name(), 1, 8).unwrap(), records);
    drop(log);

    fs.crash();
    let mut log = SegLog::open(&fs, batch_cfg(), &Scope::default()).unwrap();
    assert_eq!(log.metadata(&meta.name()).unwrap(), meta);
    assert_eq!(
        log.range(&meta.name(), 1, 8).unwrap(),
        records,
        "every acked entry survives the crash"
    );
}

#[test]
fn short_write_then_enospc_then_a_healthy_flush_keeps_every_entry() {
    failed_flush_then_healthy_flush_keeps_every_entry(|fs| {
        let w = fs.ops(Some(Op::Write));
        fs.fail(Some(Op::Write), w..w + 1, Fault::ShortWrite);
        fs.fail(Some(Op::Write), w + 1..w + 2, Fault::Enospc);
    });
}

#[test]
fn sync_eio_then_a_healthy_flush_keeps_every_entry() {
    failed_flush_then_healthy_flush_keeps_every_entry(|fs| {
        let s = fs.ops(Some(Op::Sync));
        fs.fail(Some(Op::Sync), s..s + 1, Fault::Eio);
    });
}

/// Regression: `put_metadata` recorded the metadata before its forced
/// flush, so a retry after a failed flush found it and answered `Ok` while
/// the entry was only buffered — a capsule hosted on metadata a crash
/// would take away. A retry now flushes.
#[test]
fn put_metadata_retried_after_a_failed_sync_is_durable() {
    let fs = MemFs::new();
    let (meta, _) = capsule(1, 0);
    let mut log = SegLog::open(&fs, batch_cfg(), &Scope::default()).unwrap();
    let s = fs.ops(Some(Op::Sync));
    fs.fail(Some(Op::Sync), s..s + 1, Fault::Eio);
    assert!(log.put_metadata(&meta.name(), &meta).is_err());
    log.put_metadata(&meta.name(), &meta).unwrap();
    drop(log);

    fs.crash();
    let log = SegLog::open(&fs, batch_cfg(), &Scope::default()).unwrap();
    assert_eq!(log.metadata(&meta.name()).unwrap(), meta);
}

/// Under `fsync = always` an append is durable at return or an error. A
/// retry of an append whose flush failed finds the record buffered and
/// flushes again instead of answering `Pending` for a flush that a policy
/// without a batch window never schedules.
#[test]
fn always_append_retried_after_a_failed_write_flushes_again() {
    let fs = MemFs::new();
    let (meta, records) = capsule(1, 1);
    let cfg = SegConfig { policy: FsyncPolicy::Always, ..SegConfig::default() };
    let mut log = SegLog::open(&fs, cfg.clone(), &Scope::default()).unwrap();
    log.put_metadata(&meta.name(), &meta).unwrap();
    let w = fs.ops(Some(Op::Write));
    fs.fail(Some(Op::Write), w..u64::MAX, Fault::Eio);
    assert!(log.append(&meta.name(), &records[0]).is_err());
    assert!(log.append(&meta.name(), &records[0]).is_err(), "the retry writes, and fails");
    fs.heal();
    assert_eq!(log.append(&meta.name(), &records[0]).unwrap(), AppendAck::Durable);
    drop(log);

    fs.crash();
    let mut log = SegLog::open(&fs, cfg, &Scope::default()).unwrap();
    assert_eq!(log.range(&meta.name(), 1, 1).unwrap(), records);
}

/// Regression: a rotation that failed after creating its segment file
/// left the file behind, and every later rotation failed creating it
/// again (`AlreadyExists`): the active segment grew without bound and
/// every maintenance pass reported a failure.
#[test]
fn a_rotation_that_failed_once_rotates_at_the_next_pass() {
    let fs = MemFs::new();
    let (meta, records) = capsule(1, 12);
    let cfg = SegConfig { segment_max_bytes: 1_024, ..batch_cfg() };
    let mut log = SegLog::open(&fs, cfg.clone(), &Scope::default()).unwrap();
    log.put_metadata(&meta.name(), &meta).unwrap();
    for r in &records {
        log.append(&meta.name(), r).unwrap();
    }
    // The new segment's magic fails to land.
    let w = fs.ops(Some(Op::Write)) + 1;
    fs.fail(Some(Op::Write), w..w + 1, Fault::Eio);
    assert!(log.maintain(10_000).is_err(), "the rotation fails after the flush");
    assert_eq!(log.segment_ids(), vec![0]);
    log.maintain(20_000).unwrap();
    assert_eq!(log.segment_ids(), vec![0, 1], "the next pass rotates");
    drop(log);

    fs.crash();
    let mut log = SegLog::open(&fs, cfg, &Scope::default()).unwrap();
    assert_eq!(log.range(&meta.name(), 1, 12).unwrap(), records);
}

#[test]
fn rotation_seals_segments_and_data_survives() {
    let dir = tmpdir("rotate");
    let cfg = SegConfig { segment_max_bytes: 2_048, ..batch_cfg() };
    let (meta, records) = capsule(1, 40);
    {
        let mut log = SegLog::open(&dir, cfg.clone(), &Scope::default()).unwrap();
        log.put_metadata(&meta.name(), &meta).unwrap();
        for (i, r) in records.iter().enumerate() {
            log.append(&meta.name(), r).unwrap();
            log.maintain((i as u64 + 1) * 10_000).unwrap(); // maintenance tick
        }
        assert!(log.segment_ids().len() >= 3, "workload must span segments");
        for r in &records {
            assert_eq!(
                log.get(&meta.name(), &r.pointer()).unwrap().unwrap(),
                *r,
                "read across segments"
            );
        }
    }
    let mut log = SegLog::open(&dir, cfg, &Scope::default()).unwrap();
    let stats = log.recovery_stats();
    assert!(!stats.full_scan, "rotation checkpoints: recovery must be tail-only");
    assert_eq!(log.len(&meta.name()), records.len());
    assert_eq!(log.metadata(&meta.name()).unwrap(), meta);
    for r in &records {
        assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap().unwrap(), *r);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Bounded recovery: replay work is proportional to writes since the last
/// checkpoint, not to log size.
#[test]
fn recovery_replays_only_the_tail_past_the_checkpoint() {
    let dir = tmpdir("bounded");
    let (meta, records) = capsule(1, 30);
    {
        let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
        log.put_metadata(&meta.name(), &meta).unwrap();
        for r in &records[..25] {
            log.append(&meta.name(), r).unwrap();
        }
        log.checkpoint_now(1_000_000).unwrap();
        for r in &records[25..] {
            log.append(&meta.name(), r).unwrap();
        }
        log.flush_now(2_000_000).unwrap();
    }
    let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
    let stats = log.recovery_stats();
    assert!(!stats.full_scan);
    assert_eq!(stats.tail_entries, 5, "only the 5 post-checkpoint records replay");
    assert_eq!(log.len(&meta.name()), 30);
    for r in &records {
        assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap().unwrap(), *r);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Recovery memory: a full scan of a segment much larger than one scan
/// chunk buffers a bounded window, never the whole segment — and a tear
/// landing past the first chunk still recovers the prefix before it.
#[test]
fn full_scan_recovery_is_streamed_in_bounded_chunks() {
    let dir = tmpdir("stream");
    // One-block readahead pins the scan chunk at its RECOVERY_CHUNK floor.
    let cfg = SegConfig { readahead_blocks: 1, ..batch_cfg() };
    let (meta, _) = capsule(1, 0);
    let writer = SigningKey::from_seed(&[0xEE; 32]);
    let name = meta.name();
    let count = 64u64;
    {
        let mut log = SegLog::open(&dir, cfg.clone(), &Scope::default()).unwrap();
        log.put_metadata(&name, &meta).unwrap();
        let mut prev = RecordHash::anchor(&name);
        for seq in 1..=count {
            let r = Record::create(&name, &writer, seq, seq, prev, vec![], vec![seq as u8; 8192]);
            prev = r.hash();
            log.append(&name, &r).unwrap();
        }
        log.flush_now(1_000_000).unwrap(); // durable, never checkpointed
    }
    let seg = dir.join(format!("{:010}.seg", 0));
    let log_len = std::fs::metadata(&seg).unwrap().len() as usize;
    assert!(log_len > 6 * RECOVERY_CHUNK, "fixture log too small to exercise streaming");
    let log = SegLog::open(&dir, cfg.clone(), &Scope::default()).unwrap();
    let stats = log.recovery_stats();
    assert!(stats.full_scan);
    assert_eq!(log.len(&name), count as usize);
    assert!(
        stats.peak_buffer <= 2 * RECOVERY_CHUNK,
        "recovery buffered {} bytes for a {log_len} byte log",
        stats.peak_buffer
    );
    drop(log);
    let full = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &full[..2 * RECOVERY_CHUNK + 17]).unwrap();
    let mut log = SegLog::open(&dir, cfg, &Scope::default()).unwrap();
    assert!(log.len(&name) > 0 && log.len(&name) < count as usize);
    for at in log.pointers(&name) {
        log.get(&name, &at).unwrap().unwrap();
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A tail merged at open lives only in memory until the next checkpoint,
/// which must cover it: after that checkpoint a reopen replays nothing,
/// and every record of the merged tail is still there.
#[test]
fn recovered_tail_survives_the_next_checkpoint_and_reopen() {
    let dir = tmpdir("tailsafe");
    let caps: Vec<_> = (1u8..=8).map(|t| capsule(t, 2)).collect();
    {
        let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
        for (m, rs) in &caps {
            log.put_metadata(&m.name(), m).unwrap();
            log.append(&m.name(), &rs[0]).unwrap();
        }
        log.checkpoint_now(1_000_000).unwrap();
        // Post-checkpoint tail: the second record of every stream.
        for (m, rs) in &caps {
            log.append(&m.name(), &rs[1]).unwrap();
        }
        // Flushed (durable) but past the checkpoint; then crash before
        // any further checkpoint.
        log.flush_now(2_000_000).unwrap();
    }
    {
        let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
        let stats = log.recovery_stats();
        assert!(!stats.full_scan, "checkpoint present: tail-only replay");
        assert_eq!(stats.tail_entries, caps.len() as u64);
        log.checkpoint_now(3_000_000).unwrap();
    }
    let mut log = SegLog::open(&dir, batch_cfg(), &Scope::default()).unwrap();
    let stats = log.recovery_stats();
    assert!(!stats.full_scan);
    assert_eq!(stats.tail_entries, 0, "the new checkpoint covers the merged tail");
    assert_eq!(log.stream_count(), caps.len());
    for (m, rs) in &caps {
        assert_eq!(log.metadata(&m.name()).unwrap(), *m);
        assert_eq!(log.latest_seq(&m.name()), 2, "tail record lost across the checkpoint");
        assert_eq!(log.len(&m.name()), 2);
        for r in rs {
            assert_eq!(log.get(&m.name(), &r.pointer()).unwrap().unwrap(), *r);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn warm_range_reads_are_zero_copy_and_conserve_cache_counters() {
    let dir = tmpdir("readcache");
    let metrics = Metrics::new();
    // Default 64 KiB blocks: the whole workload fits inside one block, so
    // every sealed-segment record body must be a slice of a cached block.
    let mut log = SegLog::open(&dir, batch_cfg(), &metrics.scope("store")).unwrap();
    let (meta, records) = capsule(1, 20);
    log.put_metadata(&meta.name(), &meta).unwrap();
    for r in &records {
        log.append(&meta.name(), r).unwrap();
    }
    // Seal segment 0: active-segment reads serve from the group-commit
    // buffer and never exercise the cache.
    log.rotate_now(1_000_000).unwrap();

    let cold = log.range(&meta.name(), 1, 20).unwrap();
    assert_eq!(cold.len(), 20);
    assert!(
        metrics.counter_value("store", "read_cache_misses") >= 1,
        "first pass over a sealed segment must miss at least once"
    );
    let misses_after_cold = metrics.counter_value("store", "read_cache_misses");

    let warm = log.range(&meta.name(), 1, 20).unwrap();
    assert_eq!(warm, records);
    assert_eq!(
        metrics.counter_value("store", "read_cache_misses"),
        misses_after_cold,
        "warm pass must be served entirely from the cache"
    );
    for r in &warm {
        assert!(
            r.body.ref_count() > 1,
            "warm record bodies must borrow the cached block, not copy it"
        );
    }

    // Conservation: every read served by the store is exactly one cache
    // hit or one cache miss (active-segment buffer reads count as hits).
    let hits = metrics.counter_value("store", "read_cache_hits");
    let misses = metrics.counter_value("store", "read_cache_misses");
    let served = metrics.counter_value("store", "reads_served_from_store");
    assert_eq!(hits + misses, served, "hit/miss accounting must conserve reads");
    assert!(served >= 40);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn active_segment_reads_count_as_cache_hits() {
    let dir = tmpdir("activehit");
    let metrics = Metrics::new();
    let mut log = SegLog::open(&dir, batch_cfg(), &metrics.scope("store")).unwrap();
    let (meta, records) = capsule(2, 5);
    log.put_metadata(&meta.name(), &meta).unwrap();
    for r in &records {
        log.append(&meta.name(), r).unwrap();
    }
    // No rotation: every read serves from the active group-commit buffer.
    for r in &records {
        assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap().unwrap(), *r);
    }
    let hits = metrics.counter_value("store", "read_cache_hits");
    let served = metrics.counter_value("store", "reads_served_from_store");
    assert_eq!(metrics.counter_value("store", "read_cache_misses"), 0);
    assert_eq!(hits, served);
    assert_eq!(served, 5);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fd_pool_bounds_open_segments_and_skips_reopen_when_warm() {
    let dir = tmpdir("fdpool");
    let metrics = Metrics::new();
    // Tiny segments force many sealed files; a zero-byte cache forces
    // every read through the fd pool (the regression this test pins is
    // the old one-File::open-per-read hot spot in `read_entry_at`).
    let cfg = SegConfig {
        segment_max_bytes: 1_024,
        read_cache_bytes: 0,
        max_open_segments: 2,
        ..batch_cfg()
    };
    let (meta, records) = capsule(3, 40);
    let mut log = SegLog::open(&dir, cfg, &metrics.scope("store")).unwrap();
    log.put_metadata(&meta.name(), &meta).unwrap();
    for (i, r) in records.iter().enumerate() {
        log.append(&meta.name(), r).unwrap();
        log.maintain((i as u64 + 1) * 10_000).unwrap();
    }
    let sealed = log.segment_ids().len() - 1;
    assert!(sealed >= 3, "workload must span several sealed segments");

    // Sweep every record twice: the pool may never exceed its cap.
    for _ in 0..2 {
        for r in &records {
            assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap().unwrap(), *r);
            assert!(log.open_fds() <= 2, "fd budget exceeded: {}", log.open_fds());
        }
    }
    assert_eq!(log.fd_opens(), metrics.counter_value("store", "segment_fd_opens"));

    // Repeated reads within one pooled segment must not reopen it: hammer
    // a single record and require the open count to stay flat.
    let before = log.fd_opens();
    for _ in 0..10 {
        let _ = log.get(&meta.name(), &records[0].pointer()).unwrap().unwrap();
    }
    assert!(
        log.fd_opens() <= before + 1,
        "warm reads of one segment reopened it {} times",
        log.fd_opens() - before
    );
    let _ = std::fs::remove_dir_all(dir);
}
