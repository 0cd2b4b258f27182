//! Property tests for the storage engine: a [`SegLog`] stream must agree
//! with a reference model (a `BTreeMap` by address, [`Model`]) under
//! arbitrary operation sequences, and survive arbitrary tail truncation
//! and byte corruption.
//! Segments are tiny, so rotation, checkpointing and reopen all happen
//! inside the model property.

use gdp_capsule::{
    CapsuleMetadata, CapsuleWriter, MetadataBuilder, Pointer, PointerStrategy, Record, RecordHash,
};
use gdp_crypto::SigningKey;
use gdp_obs::{Metrics, Scope};
use gdp_store::{SegConfig, SegLog, StoreError};
use gdp_wire::Name;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn records(tag: u8, n: u64) -> (CapsuleMetadata, Vec<Record>) {
    let owner = SigningKey::from_seed(&[tag; 32]);
    let wk = SigningKey::from_seed(&[2u8; 32]);
    let meta = MetadataBuilder::new()
        .writer(&wk.verifying_key())
        .set_str("description", "store proptest")
        .sign(&owner);
    let mut writer = CapsuleWriter::new(&meta, wk, PointerStrategy::Chain).unwrap();
    let rs = (0..n).map(|i| writer.append(format!("body {i}").as_bytes(), i).unwrap()).collect();
    (meta, rs)
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gdp-store-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A couple of records per segment.
fn small_cfg() -> SegConfig {
    SegConfig { segment_max_bytes: 512, ..SegConfig::default() }
}

/// Writes `meta` + `rs` through a fresh log, one group commit (and, when
/// the segment is full, one rotation) per record, then closes it.
fn written_log(dir: &Path, meta: &CapsuleMetadata, rs: &[Record]) {
    let mut log = SegLog::open(dir, small_cfg(), &Scope::default()).unwrap();
    log.put_metadata(&meta.name(), meta).unwrap();
    for (i, r) in rs.iter().enumerate() {
        log.append(&meta.name(), r).unwrap();
        log.maintain((i as u64 + 1) * 10_000).unwrap();
    }
}

/// Segment files of the log under `dir`, ascending (last is the active).
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    segs
}

/// What one capsule's store must answer: its first metadata and every
/// distinct record by address.
#[derive(Default)]
struct Model {
    metadata: Option<CapsuleMetadata>,
    records: BTreeMap<Pointer, Record>,
}

impl Model {
    fn range(&self, from: u64, to: u64) -> Vec<Record> {
        self.records.range(Pointer::span(from, to)).map(|(_, r)| r.clone()).collect()
    }
}

fn assert_same(
    log: &mut SegLog,
    name: &Name,
    mem: &Model,
    query: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(log.len(name), mem.records.len());
    prop_assert_eq!(log.latest_seq(name), mem.records.keys().next_back().map_or(0, |at| at.seq));
    let first = mem.range(query, query).first().cloned();
    prop_assert_eq!(log.get_by_seq(name, query).unwrap(), first);
    prop_assert_eq!(log.range(name, query, query).unwrap(), mem.range(query, query));
    let lo = query.min(3);
    prop_assert_eq!(log.range(name, lo, query).unwrap(), mem.range(lo, query));
    let pointers = log.pointers(name);
    prop_assert_eq!(&pointers, &mem.records.keys().copied().collect::<Vec<_>>());
    for at in &pointers {
        let got = log.get(name, at).unwrap();
        prop_assert_eq!(&got, &mem.records.get(at).cloned());
        prop_assert_eq!(got.map(|r| r.pointer()), Some(*at));
        // A held hash under another seq, and a held seq under another
        // hash, name nothing.
        let wrong_seq = Pointer { seq: at.seq + 1, ..*at };
        let wrong_hash = Pointer { hash: RecordHash([0xAB; 32]), ..*at };
        for wrong in [wrong_seq, wrong_hash] {
            prop_assert_eq!(log.get(name, &wrong).unwrap(), None);
            prop_assert!(!mem.records.contains_key(&wrong));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SegLog streams and their models answer identically for any
    /// subset/order of appends across three capsules (duplicates
    /// included), any queried seq/range and every address, held or
    /// wrong by seq or by hash — before and after a reopen at an
    /// arbitrary point.
    #[test]
    fn seg_log_matches_memory_model(
        order in proptest::collection::vec((0usize..3, 0usize..12), 1..36),
        query in 0u64..14,
        reopen_at in 0usize..36,
    ) {
        let caps: Vec<_> = (1u8..=3).map(|tag| records(tag, 12)).collect();
        let dir = tmpdir();
        let metrics = Metrics::new();
        let open = || SegLog::open(&dir, small_cfg(), &metrics.scope("store")).unwrap();
        let counter = |name| metrics.counter_value("store", name);
        let mut log = open();
        let mut mems: Vec<Model> = caps.iter().map(|_| Model::default()).collect();

        // An untouched stream is an empty store.
        let first = caps[0].0.name();
        prop_assert!(log.len(&first) == 0 && log.latest_seq(&first) == 0);
        prop_assert!(matches!(log.metadata(&first), Err(StoreError::NoMetadata)));

        for ((meta, _), mem) in caps.iter().zip(&mut mems) {
            log.put_metadata(&meta.name(), meta).unwrap();
            mem.metadata.get_or_insert_with(|| meta.clone());
        }
        let mut now = 0u64;
        for (k, &(c, i)) in order.iter().enumerate() {
            let (meta, rs) = &caps[c];
            log.append(&meta.name(), &rs[i]).unwrap();
            mems[c].records.entry(rs[i].pointer()).or_insert_with(|| rs[i].clone());
            now += 10_000;
            // Group commit; rotating a full segment also checkpoints.
            log.maintain(now).unwrap();
            if k == reopen_at {
                drop(log);
                log = open();
            }
        }
        let matches_model = |log: &mut SegLog| -> Result<(), TestCaseError> {
            for ((meta, _), mem) in caps.iter().zip(&mems) {
                assert_same(log, &meta.name(), mem, query)?;
                prop_assert_eq!(Some(log.metadata(&meta.name()).unwrap()), mem.metadata.clone());
            }
            Ok(())
        };
        matches_model(&mut log)?;
        drop(log);
        let mut log = open();
        // Once a rotation has checkpointed, every reopen starts from it.
        prop_assert_eq!(log.recovery_stats().full_scan, counter("checkpoints_written") == 0);
        matches_model(&mut log)?;
        drop(log);

        // Duplicate appends are never rewritten: one entry per distinct
        // record plus one metadata entry per capsule. A segment's
        // directory entry is fsynced when it is created and the directory
        // once per checkpoint, never again on reopen.
        let distinct = order.iter().collect::<HashSet<_>>().len() as u64;
        let appended = counter("entries_appended");
        prop_assert_eq!(appended, distinct + caps.len() as u64);
        prop_assert_eq!(
            counter("dir_fsyncs"),
            1 + counter("segments_rotated") + counter("checkpoints_written")
        );

        // The invariant that makes compaction unnecessary: the log holds
        // no physical duplicates. Without the checkpoint, recovery scans
        // every entry on disk — exactly one per append that was written —
        // and the rebuilt indexes still match the model.
        std::fs::remove_file(dir.join("index.ckpt")).unwrap();
        let mut log = open();
        prop_assert!(log.recovery_stats().full_scan);
        prop_assert_eq!(log.recovery_stats().tail_entries, appended);
        matches_model(&mut log)?;
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Reopening after truncating any number of tail bytes off the active
    /// segment yields a clean prefix: never a panic, never a corrupt
    /// record served, and nothing in a sealed segment is lost.
    #[test]
    fn arbitrary_tail_truncation_recovers_prefix(
        n in 1u64..10,
        cut in 1usize..200,
    ) {
        let (meta, rs) = records(1, n);
        let dir = tmpdir();
        written_log(&dir, &meta, &rs);
        let segs = segment_files(&dir);
        let active = segs.last().unwrap();
        let bytes = std::fs::read(active).unwrap();
        let keep = bytes.len().saturating_sub(cut);
        std::fs::write(active, &bytes[..keep]).unwrap();

        let mut log = SegLog::open(&dir, small_cfg(), &Scope::default()).unwrap();
        // The survivors are exactly records 1..=latest, byte-identical.
        let latest = log.latest_seq(&meta.name());
        prop_assert_eq!(log.len(&meta.name()) as u64, latest);
        for seq in 1..=latest {
            prop_assert_eq!(&log.get_by_seq(&meta.name(), seq).unwrap().unwrap(), &rs[(seq - 1) as usize]);
        }
        // Only the active segment was cut: a record costs ~200 bytes on
        // disk, so at most `cut / 200 + 1` of them can be gone.
        prop_assert!(latest + (cut as u64 / 200) + 1 >= n);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// An arbitrary byte flip anywhere in any file of the log (segments
    /// or checkpoint) never causes a panic on reopen, and any record
    /// served still matches one of the originals.
    #[test]
    fn random_corruption_never_serves_garbage(
        file_frac in 0.0f64..1.0,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let (meta, rs) = records(1, 6);
        let dir = tmpdir();
        written_log(&dir, &meta, &rs);
        let mut files = segment_files(&dir);
        files.push(dir.join("index.ckpt"));
        let victim = &files[((files.len() - 1) as f64 * file_frac).round() as usize];
        let mut bytes = std::fs::read(victim).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        std::fs::write(victim, &bytes).unwrap();

        match SegLog::open(&dir, small_cfg(), &Scope::default()) {
            Ok(mut log) => {
                for seq in 1..=log.latest_seq(&meta.name()) {
                    match log.get_by_seq(&meta.name(), seq) {
                        Ok(Some(got)) => prop_assert!(
                            rs.contains(&got),
                            "served record must be one of the originals"
                        ),
                        Ok(None) | Err(StoreError::Corrupt(_)) => {}
                        Err(e) => prop_assert!(false, "non-corruption error: {}", e),
                    }
                }
            }
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "non-corruption error on open: {}", e),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
