//! Corruption and crash-window torture tests for the segmented shared
//! log: torn tail writes on the active segment, every-byte bit flips
//! across segment *and* checkpoint files, a checkpoint that names a
//! missing segment, a CRC-clean checkpoint section that does not decode,
//! physical duplicates on disk, and a crash injected
//! mid-rotation. Every scenario must recover to a
//! consistent state — a served record is always bit-identical to an
//! appended one, damage surfaces as typed [`StoreError::Corrupt`] or a
//! clean truncation, and checkpoint damage of any kind degrades to a full
//! scan rather than losing reachable data.

use gdp_capsule::{CapsuleMetadata, Pointer, Record, RecordHash};
use gdp_crypto::SigningKey;
use gdp_obs::{Metrics, Scope};
use gdp_store::crc::Crc32;
use gdp_store::{FsyncPolicy, SegConfig, SegLog, StoreError, SEGLOG_MAGIC};
use gdp_wire::Name;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gdp-segcorrupt-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn capsule(tag: u8, n: u64) -> (CapsuleMetadata, Vec<Record>) {
    let owner = SigningKey::from_seed(&[tag; 32]);
    let writer = SigningKey::from_seed(&[0xEE; 32]);
    let meta = gdp_capsule::MetadataBuilder::new().writer(&writer.verifying_key()).sign(&owner);
    let name = meta.name();
    let mut prev = RecordHash::anchor(&name);
    let mut records = Vec::new();
    for seq in 1..=n {
        let r = Record::create(&name, &writer, seq, seq * 10, prev, vec![], vec![tag; 24]);
        prev = r.hash();
        records.push(r);
    }
    (meta, records)
}

fn small_seg_cfg() -> SegConfig {
    SegConfig {
        policy: FsyncPolicy::Batch { interval_us: 5_000 },
        segment_max_bytes: 1_024,
        ..SegConfig::default()
    }
}

/// Builds a multi-segment log with a checkpoint (from rotations) plus an
/// un-checkpointed flushed tail, then closes it.
fn seeded_log(dir: &Path, caps: &[(CapsuleMetadata, Vec<Record>)]) {
    let mut log = SegLog::open(dir, small_seg_cfg(), &Scope::default()).unwrap();
    let mut now = 0u64;
    for (m, _) in caps {
        log.put_metadata(&m.name(), m).unwrap();
    }
    let longest = caps.iter().map(|(_, rs)| rs.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (m, rs) in caps {
            if let Some(r) = rs.get(i) {
                log.append(&m.name(), r).unwrap();
            }
        }
        now += 10_000;
        log.maintain(now).unwrap(); // due flushes + rotations (+checkpoints)
    }
    log.flush_now(now + 10_000).unwrap(); // durable, but past the checkpoint
    assert!(log.segment_ids().len() >= 3, "fixture must span several segments");
}

/// Torn write on the active segment: garbage appended past the durable
/// tail (a crash mid-`write_all`) must be truncated away on recovery with
/// every durable record intact.
#[test]
fn torn_tail_on_active_segment_is_truncated() {
    let dir = tmpdir("torn");
    let caps = vec![capsule(1, 20)];
    seeded_log(&dir, &caps);

    let path = active_segment(&dir);
    let clean_len = std::fs::metadata(&path).unwrap().len();
    // Several torn shapes: short garbage, a partial entry header, a long
    // blob that could swallow a whole frame.
    for garbage in [&b"\x01\xFF"[..], &[0u8; 9][..], &[0xA5u8; 300][..]] {
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(clean_len as usize);
        bytes.extend_from_slice(garbage);
        std::fs::write(&path, &bytes).unwrap();

        let metrics = Metrics::new();
        let mut log = SegLog::open(&dir, small_seg_cfg(), &metrics.scope("store")).unwrap();
        assert_eq!(log.len(&caps[0].0.name()), 20, "torn tail must not cost durable records");
        for r in &caps[0].1 {
            assert_eq!(log.get(&caps[0].0.name(), &r.pointer()).unwrap().unwrap(), *r);
        }
        assert_eq!(metrics.counter_value("store", "recovery_truncations"), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "garbage must be truncated off the active segment"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The newest segment file of the log under `dir` (the active one).
fn active_segment(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .max()
        .unwrap()
}

/// Every possible truncation point of the active segment (a crash mid-
/// write at any byte, including inside the magic of a segment that was
/// just being created) must recover without panicking: sealed segments
/// keep every record, the survivors are bit-identical originals, and the
/// torn tail is gone from disk afterwards.
#[test]
fn every_truncation_point_of_the_active_segment_recovers_cleanly() {
    let dir = tmpdir("trunc");
    let caps = vec![capsule(1, 12)];
    seeded_log(&dir, &caps);
    let (meta, records) = &caps[0];
    let path = active_segment(&dir);
    let pristine = std::fs::read(&path).unwrap();
    assert!(pristine.len() > SEGLOG_MAGIC.len(), "fixture's active segment must hold entries");
    let ckpt = std::fs::read(dir.join("index.ckpt")).unwrap();

    let mut floor = 1; // the sealed segments alone hold records
    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        std::fs::write(dir.join("index.ckpt"), &ckpt).unwrap();
        let mut log = SegLog::open(&dir, small_seg_cfg(), &Scope::default())
            .unwrap_or_else(|e| panic!("cut at {cut} failed open: {e}"));
        let latest = log.latest_seq(&meta.name());
        assert_eq!(
            log.len(&meta.name()) as u64,
            latest,
            "cut at {cut}: survivors must be a prefix"
        );
        for r in &records[..latest as usize] {
            assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap().unwrap(), *r, "cut at {cut}");
        }
        assert!(latest >= floor, "cut at {cut}: a longer tail recovered fewer records");
        floor = latest;
        let on_disk = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(
            on_disk <= cut.max(SEGLOG_MAGIC.len()),
            "cut at {cut}: torn tail not truncated ({on_disk} bytes left)"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Appends one hand-framed entry (valid CRC) to a fresh log's segment 0.
fn log_with_forged_entry(dir: &Path, kind: u8, body: &[u8]) {
    drop(SegLog::open(dir, small_seg_cfg(), &Scope::default()).unwrap());
    let capsule = Name::from_content(b"forged");
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(&(body.len() as u32).to_be_bytes());
    crc.update(capsule.as_bytes());
    crc.update(body);
    let mut bytes = std::fs::read(active_segment(dir)).unwrap();
    bytes.push(kind);
    bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&crc.finish().to_be_bytes());
    bytes.extend_from_slice(capsule.as_bytes());
    bytes.extend_from_slice(body);
    std::fs::write(active_segment(dir), &bytes).unwrap();
}

/// A CRC-clean entry the engine cannot interpret — a body that is not a
/// decodable record (a buggy writer, or rot plus a colliding CRC), or an
/// unknown entry kind (format drift, stray writes) — must be a typed
/// error, not a panic and not an empty success.
#[test]
fn valid_crc_undecodable_entries_are_typed_corruption() {
    let undecodable: &[u8] = b"this is not a wire-encoded record at all";
    for (kind, body, detail) in [(1u8, undecodable, "record"), (7, b"x", "kind")] {
        let dir = tmpdir("forged");
        log_with_forged_entry(&dir, kind, body);
        match SegLog::open(&dir, small_seg_cfg(), &Scope::default()) {
            Err(StoreError::Corrupt(w)) => assert!(w.contains(detail), "unexpected detail: {w}"),
            Ok(_) => panic!("entry kind {kind} with an uninterpretable body accepted"),
            Err(e) => panic!("expected Corrupt, got: {e}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Flip every byte of every file the engine wrote — all segments and the
/// checkpoint — one at a time, and reopen. Checkpoint damage of any kind
/// must fall back to a full scan that recovers *everything*; segment
/// damage may cost records (that is what bit rot does) but must never
/// fabricate or silently alter one.
#[test]
fn every_byte_flip_across_segments_and_checkpoint_recovers_consistently() {
    let dir = tmpdir("flip");
    let caps = vec![capsule(1, 8), capsule(2, 8)];
    seeded_log(&dir, &caps);
    let originals: HashMap<Pointer, &Record> =
        caps.iter().flat_map(|(_, rs)| rs.iter().map(|r| (r.pointer(), r))).collect();

    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let n = p.file_name().unwrap().to_str().unwrap();
            n.ends_with(".seg") || n == "index.ckpt"
        })
        .collect();
    assert!(files.len() >= 4, "fixture should have several segments and a checkpoint");
    let pristine: Vec<Vec<u8>> = files.iter().map(|p| std::fs::read(p).unwrap()).collect();

    for (fi, path) in files.iter().enumerate() {
        let is_ckpt = path.file_name().unwrap() == "index.ckpt";
        for pos in 0..pristine[fi].len() {
            let mut mutated = pristine[fi].clone();
            mutated[pos] ^= 0xA5;
            std::fs::write(path, &mutated).unwrap();

            match SegLog::open(&dir, small_seg_cfg(), &Scope::default()) {
                Ok(mut log) => {
                    if is_ckpt {
                        assert!(
                            log.recovery_stats().full_scan,
                            "{path:?} flip at {pos}: damaged checkpoint must be discarded"
                        );
                    }
                    let mut served = 0usize;
                    for (m, _) in &caps {
                        for at in log.pointers(&m.name()) {
                            let Some(original) = originals.get(&at) else {
                                panic!("{path:?} flip at {pos} fabricated a record")
                            };
                            match log.get(&m.name(), &at) {
                                Ok(Some(r)) => {
                                    assert_eq!(
                                        &r, *original,
                                        "{path:?} flip at {pos} silently altered a record"
                                    );
                                    served += 1;
                                }
                                Ok(None) => {
                                    panic!("{path:?} flip at {pos}: indexed record vanished")
                                }
                                Err(StoreError::Corrupt(_)) => {} // typed rot on the read path
                                Err(e) => {
                                    panic!("{path:?} flip at {pos}: non-corruption error {e}")
                                }
                            }
                        }
                    }
                    if is_ckpt {
                        assert_eq!(
                            served,
                            originals.len(),
                            "{path:?} flip at {pos}: segments are intact, the full scan \
                             must recover every record"
                        );
                    }
                }
                Err(StoreError::Corrupt(_)) => {
                    assert!(!is_ckpt, "checkpoint damage must degrade, not fail the open");
                }
                Err(e) => panic!("{path:?} flip at {pos} produced non-corruption error: {e}"),
            }

            // Restore (recovery may also have truncated the file).
            std::fs::write(path, &pristine[fi]).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Two capsules of six records each. The checkpoint covers all of the
/// first and half of the second; the rest of the second is a flushed tail
/// past it.
fn log_with_tail_on_the_second_capsule(dir: &Path) -> Vec<(CapsuleMetadata, Vec<Record>)> {
    let caps = vec![capsule(1, 6), capsule(2, 6)];
    let mut log = SegLog::open(dir, small_seg_cfg(), &Scope::default()).unwrap();
    for ((m, rs), covered) in caps.iter().zip([6, 3]) {
        log.put_metadata(&m.name(), m).unwrap();
        for r in &rs[..covered] {
            log.append(&m.name(), r).unwrap();
        }
    }
    log.checkpoint_now(1_000_000).unwrap();
    let (m, rs) = &caps[1];
    for r in &rs[3..] {
        log.append(&m.name(), r).unwrap();
    }
    log.flush_now(2_000_000).unwrap();
    caps
}

/// Lowers the record count of `victim`'s checkpoint section by one and
/// re-seals the section CRC: every CRC in the file holds, but the section
/// no longer decodes (one record's bytes trail its last record).
fn make_section_undecodable(dir: &Path, victim: &Name) {
    let path = dir.join("index.ckpt");
    let mut bytes = std::fs::read(&path).unwrap();
    let be32 = |b: &[u8], at: usize| u32::from_be_bytes(b[at..at + 4].try_into().unwrap());
    // magic 8 ‖ pos 16 ‖ n_segs 4 ‖ segs ‖ n_streams 4 ‖ header crc 4
    let n_segs = be32(&bytes, 24) as usize;
    let n_streams = be32(&bytes, 28 + 8 * n_segs);
    let mut at = 28 + 8 * n_segs + 8;
    for _ in 0..n_streams {
        // name 32 ‖ payload_len 4 ‖ payload_crc 4 ‖ payload
        let payload_len = be32(&bytes, at + 32) as usize;
        let payload = at + 40;
        if bytes[at..at + 32] == victim.as_bytes()[..] {
            // payload := meta_len 4 ‖ meta ‖ n_records 4 ‖ records
            let count_at = payload + 4 + be32(&bytes, payload) as usize;
            let count = be32(&bytes, count_at) - 1;
            bytes[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
            let mut crc = Crc32::new();
            crc.update(&bytes[at..at + 36]);
            crc.update(&bytes[payload..payload + payload_len]);
            bytes[at + 36..payload].copy_from_slice(&crc.finish().to_be_bytes());
            std::fs::write(&path, &bytes).unwrap();
            return;
        }
        at = payload + payload_len;
    }
    panic!("the checkpoint has no section for the victim");
}

/// A CRC-clean checkpoint section that does not decode voids the whole
/// checkpoint: open full-scans (counted) and serves every record of every
/// capsule bit-identical, whether or not the damaged stream also has
/// entries past the checkpoint.
fn undecodable_section_degrades_to_a_full_scan(victim: usize) {
    let dir = tmpdir("undecodable");
    let caps = log_with_tail_on_the_second_capsule(&dir);
    make_section_undecodable(&dir, &caps[victim].0.name());

    let metrics = Metrics::new();
    let mut log = SegLog::open(&dir, small_seg_cfg(), &metrics.scope("store"))
        .unwrap_or_else(|e| panic!("checkpoint damage must degrade, not fail the open: {e}"));
    assert!(log.recovery_stats().full_scan, "an undecodable section voids the checkpoint");
    assert_eq!(metrics.counter_value("store", "recovery_full_scans"), 1);
    for (m, rs) in &caps {
        assert_eq!(log.metadata(&m.name()).unwrap(), *m);
        assert_eq!((log.len(&m.name()), log.latest_seq(&m.name())), (rs.len(), rs.len() as u64));
        let want: Vec<Pointer> = rs.iter().map(Record::pointer).collect();
        assert_eq!(log.pointers(&m.name()), want);
        for r in rs {
            assert_eq!(log.get_by_seq(&m.name(), r.header.seq).unwrap().as_ref(), Some(r));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn undecodable_checkpoint_section_without_a_tail_means_a_full_scan() {
    undecodable_section_degrades_to_a_full_scan(0);
}

#[test]
fn undecodable_checkpoint_section_with_a_tail_means_a_full_scan() {
    undecodable_section_degrades_to_a_full_scan(1);
}

/// The framed bytes (header + body) of every entry in a segment file.
fn entries_of(seg_bytes: &[u8]) -> Vec<&[u8]> {
    const ENTRY_HEADER: usize = 1 + 4 + 4 + 32;
    let mut out = Vec::new();
    let mut off = SEGLOG_MAGIC.len();
    while off < seg_bytes.len() {
        let len = u32::from_be_bytes(seg_bytes[off + 1..off + 5].try_into().unwrap()) as usize;
        out.push(&seg_bytes[off..off + ENTRY_HEADER + len]);
        off += ENTRY_HEADER + len;
    }
    out
}

/// A duplicate entry on disk is indexed once, first occurrence wins. The
/// engine never writes one (`append` dedups by hash first), but a log
/// written by a build that still compacted can hold the copies of an
/// interrupted compaction: here the metadata and first record of segment
/// 0 are spliced onto the active segment, as that crash left them. Both
/// recovery paths — checkpoint + tail replay, and the full scan — must
/// serve every record exactly once, from its original location.
#[test]
fn duplicate_entries_on_disk_are_indexed_once_first_occurrence_wins() {
    let dir = tmpdir("dup");
    let caps = vec![capsule(1, 20)];
    seeded_log(&dir, &caps);
    let (meta, records) = &caps[0];

    let seg0 = dir.join(format!("{:010}.seg", 0));
    let seg0_bytes = std::fs::read(&seg0).unwrap();
    let originals = entries_of(&seg0_bytes);
    let mut active = std::fs::read(active_segment(&dir)).unwrap();
    active.extend_from_slice(originals[0]); // metadata
    active.extend_from_slice(originals[1]); // record seq 1
    std::fs::write(active_segment(&dir), &active).unwrap();

    for full_scan in [false, true] {
        if full_scan {
            std::fs::remove_file(dir.join("index.ckpt")).unwrap();
        }
        let mut log = SegLog::open(&dir, small_seg_cfg(), &Scope::default()).unwrap();
        assert_eq!(log.recovery_stats().full_scan, full_scan);
        assert_eq!(log.len(&meta.name()), 20, "a duplicate must not be indexed twice");
        assert_eq!(log.metadata(&meta.name()).unwrap(), *meta);
        for r in records {
            assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap().unwrap(), *r);
            assert_eq!(log.range(&meta.name(), r.header.seq, r.header.seq).unwrap().len(), 1);
        }
    }

    // First occurrence wins: rot the original of record 1 in segment 0 and
    // the read must hit it (typed corruption) instead of being served from
    // the later copy.
    let mut log = SegLog::open(&dir, small_seg_cfg(), &Scope::default()).unwrap();
    let mut rotted = seg0_bytes.clone();
    let last_of_record_1 = SEGLOG_MAGIC.len() + originals[0].len() + originals[1].len() - 1;
    rotted[last_of_record_1] ^= 0x40;
    std::fs::write(&seg0, &rotted).unwrap();
    match log.get(&meta.name(), &records[0].pointer()) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("index must point at the first occurrence, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A checkpoint naming a missing sealed segment is rejected and recovery
/// full-scans: the checkpoint's index would otherwise serve locations
/// inside a file that no longer exists. What the surviving segments hold
/// is served bit-identically; what the lost file held is absent, not an
/// error.
#[test]
fn checkpoint_naming_a_missing_segment_falls_back_to_full_scan() {
    let dir = tmpdir("unlink");
    let caps = vec![capsule(1, 20)];
    seeded_log(&dir, &caps);
    let (meta, records) = &caps[0];

    // A middle segment: segment 0 carries the capsule metadata.
    let lost = dir.join(format!("{:010}.seg", 1));
    let lost_records = entries_of(&std::fs::read(&lost).unwrap()).len();
    assert!(lost_records > 0);
    std::fs::remove_file(&lost).unwrap();

    let mut log = SegLog::open(&dir, small_seg_cfg(), &Scope::default()).unwrap();
    assert!(
        log.recovery_stats().full_scan,
        "checkpoint referencing a deleted segment must be discarded"
    );
    assert_eq!(log.metadata(&meta.name()).unwrap(), *meta);
    assert_eq!(
        log.len(&meta.name()),
        20 - lost_records,
        "exactly the lost segment's records are gone"
    );
    for r in records {
        match log.get(&meta.name(), &r.pointer()).unwrap() {
            Some(got) => assert_eq!(got, *r),
            None => {
                assert!(log.range(&meta.name(), r.header.seq, r.header.seq).unwrap().is_empty())
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Crash mid-rotation: the next segment file was created (and the
/// directory fsynced) but the crash hit before the checkpoint moved.
/// Recovery adopts the new empty segment as active and keeps everything.
#[test]
fn crash_mid_rotation_with_fresh_empty_segment_recovers() {
    let dir = tmpdir("midrotate");
    let caps = vec![capsule(1, 20)];
    seeded_log(&dir, &caps);

    let max_id = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let n = e.unwrap().file_name();
            let n = n.to_str()?.strip_suffix(".seg")?.to_string();
            n.parse::<u64>().ok()
        })
        .max()
        .unwrap();
    // Simulate create_segment() having run right before the crash.
    let next = dir.join(format!("{:010}.seg", max_id + 1));
    std::fs::write(&next, SEGLOG_MAGIC).unwrap();

    let mut log = SegLog::open(&dir, small_seg_cfg(), &Scope::default()).unwrap();
    assert!(!log.recovery_stats().full_scan, "old checkpoint is still fully valid");
    assert_eq!(*log.segment_ids().last().unwrap(), max_id + 1, "empty segment becomes active");
    assert_eq!(log.len(&caps[0].0.name()), 20);
    for r in &caps[0].1 {
        assert_eq!(log.get(&caps[0].0.name(), &r.pointer()).unwrap().unwrap(), *r);
    }
    // And the log keeps accepting writes on the adopted segment.
    let (_, more) = capsule(1, 21);
    log.append(&caps[0].0.name(), &more[20]).unwrap();
    log.flush_now(5_000_000).unwrap();
    assert_eq!(log.len(&caps[0].0.name()), 21);
    let _ = std::fs::remove_dir_all(dir);
}

/// A crash mid-checkpoint leaves `index.ckpt.tmp`; the previous durable
/// checkpoint must still be honored and the stale tmp swept away.
#[test]
fn stale_checkpoint_tmp_is_ignored_and_removed() {
    let dir = tmpdir("tmp");
    let caps = vec![capsule(1, 20)];
    seeded_log(&dir, &caps);
    std::fs::write(dir.join("index.ckpt.tmp"), b"half-written garbage").unwrap();

    let log = SegLog::open(&dir, small_seg_cfg(), &Scope::default()).unwrap();
    assert!(!log.recovery_stats().full_scan, "the durable checkpoint still counts");
    assert!(!dir.join("index.ckpt.tmp").exists(), "stale tmp must be swept");
    assert_eq!(log.len(&caps[0].0.name()), 20);
    let _ = std::fs::remove_dir_all(dir);
}

/// Disk rot under a block the read cache already holds: warm reads keep
/// serving the bits that were CRC-verified at fill (sealed segments are
/// immutable, so the cached copy *is* the authentic data), and once the
/// cache refills from disk — here via a fresh open — the rot must surface
/// as typed corruption, never as stale or garbled record contents.
#[test]
fn rot_under_a_cached_block_surfaces_as_corrupt_after_refill() {
    let dir = tmpdir("cachedrot");
    let (meta, records) = capsule(1, 6);
    let cfg =
        SegConfig { policy: FsyncPolicy::Batch { interval_us: 5_000 }, ..SegConfig::default() };
    let metrics = Metrics::new();
    let mut log = SegLog::open(&dir, cfg.clone(), &metrics.scope("store")).unwrap();
    log.put_metadata(&meta.name(), &meta).unwrap();
    for r in &records {
        log.append(&meta.name(), r).unwrap();
    }
    // Seal segment 0 and warm the cache over it.
    log.rotate_now(1_000_000).unwrap();
    for r in &records {
        assert_eq!(log.get(&meta.name(), &r.pointer()).unwrap().unwrap(), *r);
    }

    // Flip a byte inside the last record's body on disk.
    let path = dir.join(format!("{:010}.seg", 0));
    let mut bytes = std::fs::read(&path).unwrap();
    let pos = bytes.len() - 20;
    bytes[pos] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    // The cached block still serves the verified original bits.
    let last = records.last().unwrap();
    assert_eq!(
        log.get(&meta.name(), &last.pointer()).unwrap().unwrap(),
        *last,
        "cached reads must keep serving the bits verified at fill"
    );
    assert_eq!(metrics.counter_value("store", "crc_failures"), 0);
    drop(log);

    // A fresh open starts with an empty cache: the refill re-verifies and
    // the rot becomes a typed Corrupt on exactly the damaged entry.
    let metrics = Metrics::new();
    let mut log = SegLog::open(&dir, cfg, &metrics.scope("store")).unwrap();
    match log.get(&meta.name(), &last.pointer()) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("rotted entry must read as typed corruption, got {other:?}"),
    }
    assert!(metrics.counter_value("store", "crc_failures") >= 1);
    for r in &records[..records.len() - 1] {
        assert_eq!(
            log.get(&meta.name(), &r.pointer()).unwrap().unwrap(),
            *r,
            "rot must cost only the damaged entry, not its block neighbors"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A rotten entry is not a stored record. The read that finds the rot
/// reports it, typed, once; from then on the stream no longer names the
/// entry, so re-appending the record (what anti-entropy does to a hole)
/// writes a good copy instead of being deduplicated against — and acked
/// on the durability of — the rotten one.
#[test]
fn a_rotten_entry_is_forgotten_so_a_reappend_writes_a_good_copy() {
    let dir = tmpdir("forget");
    let (meta, records) = capsule(7, 6);
    let metrics = Metrics::new();
    let cfg = SegConfig { policy: FsyncPolicy::Always, ..SegConfig::default() };
    let mut log = SegLog::open(&dir, cfg.clone(), &metrics.scope("store")).unwrap();
    log.put_metadata(&meta.name(), &meta).unwrap();
    for r in &records {
        log.append(&meta.name(), r).unwrap();
    }
    log.rotate_now(1_000).unwrap(); // seals segment 0, checkpoints it

    // Rot inside the last record's body on disk (nothing is cached yet).
    let path = dir.join(format!("{:010}.seg", 0));
    let mut bytes = std::fs::read(&path).unwrap();
    let pos = bytes.len() - 20;
    bytes[pos] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let last = records.last().unwrap();
    assert!(matches!(log.get(&meta.name(), &last.pointer()), Err(StoreError::Corrupt(_))));
    assert_eq!(metrics.counter_value("store", "crc_failures"), 1);
    assert_eq!(log.get(&meta.name(), &last.pointer()).unwrap(), None, "forgotten, not re-reported");
    assert_eq!((log.len(&meta.name()), log.latest_seq(&meta.name())), (5, 5));
    assert_eq!(log.range(&meta.name(), 1, 6).unwrap(), records[..5]);

    let appended = metrics.counter_value("store", "entries_appended");
    log.append(&meta.name(), last).unwrap();
    assert_eq!(metrics.counter_value("store", "entries_appended"), appended + 1);
    assert_eq!(log.get(&meta.name(), &last.pointer()).unwrap().as_ref(), Some(last));
    assert_eq!(log.range(&meta.name(), 1, 6).unwrap(), records);
    log.maintain(2_000).unwrap();
    drop(log);

    // Maintenance replaced the checkpoint that named the rotten entry: a
    // reopen indexes the good copy, not the rot before it.
    let mut log = SegLog::open(&dir, cfg, &Scope::default()).unwrap();
    assert_eq!(log.range(&meta.name(), 1, 6).unwrap(), records);
    let _ = std::fs::remove_dir_all(dir);
}
