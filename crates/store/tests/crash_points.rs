//! Crash-point enumeration: a fixed workload on an in-memory file system
//! ([`MemFs`]) is cut at every one of its K file operations. For each
//! k < K every operation from k on fails, then the machine crashes and
//! the log reopens. Whatever the cut, every acked write reads back
//! byte-identical, nothing that was never appended appears, and the open
//! answers `Ok` or a typed error — never a panic.

use gdp_capsule::{CapsuleMetadata, MetadataBuilder, Pointer, Record, RecordHash};
use gdp_crypto::SigningKey;
use gdp_obs::{Metrics, Scope};
use gdp_store::io::{Fault, MemFs};
use gdp_store::{AppendAck, FsyncPolicy, SegConfig, SegLog, StoreError};
use gdp_wire::Name;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Records per stream.
const N: u64 = 10;

fn cfg() -> SegConfig {
    // Sized so the workload seals exactly one segment.
    SegConfig {
        policy: FsyncPolicy::Batch { interval_us: 5_000 },
        segment_max_bytes: 2_500,
        ..SegConfig::default()
    }
}

/// Two capsules with `N` chained records each.
fn streams() -> Vec<(CapsuleMetadata, Vec<Record>)> {
    let writer = SigningKey::from_seed(&[0xEE; 32]);
    (1u8..=2)
        .map(|tag| {
            let meta = MetadataBuilder::new()
                .writer(&writer.verifying_key())
                .set_str("description", &format!("crash point stream {tag}"))
                .sign(&SigningKey::from_seed(&[tag; 32]));
            let mut prev = RecordHash::anchor(&meta.name());
            let records = (1..=N)
                .map(|seq| {
                    let body = vec![tag; 40 + seq as usize];
                    let r = Record::create(&meta.name(), &writer, seq, seq, prev, vec![], body);
                    prev = r.hash();
                    r
                })
                .collect();
            (meta, records)
        })
        .collect()
}

/// What the workload was told: metadata acked, records acked durable,
/// records acked pending an epoch, and the highest epoch a flush returned.
#[derive(Default)]
struct Acked {
    metadata: Vec<CapsuleMetadata>,
    durable: Vec<Record>,
    pending: Vec<(u64, Record)>,
    flushed: u64,
}

impl Acked {
    /// Every record the log has promised to keep.
    fn kept(&self) -> impl Iterator<Item = &Record> {
        let covered = self.pending.iter().filter(|(e, _)| *e <= self.flushed).map(|(_, r)| r);
        self.durable.iter().chain(covered)
    }
}

/// Two streams interleaved under `batch(5)`: a flush every second round,
/// one rotation (the small segment fills) and one explicit checkpoint.
/// Every error is swallowed: past the cut, operations fail.
fn workload(fs: &MemFs, metrics: &Metrics, streams: &[(CapsuleMetadata, Vec<Record>)]) -> Acked {
    let mut acked = Acked::default();
    let Ok(mut log) = SegLog::open(fs, cfg(), &metrics.scope("store")) else { return acked };
    for (meta, _) in streams {
        if log.put_metadata(&meta.name(), meta).is_ok() {
            acked.metadata.push(meta.clone());
        }
    }
    let mut now = 0;
    for i in 0..N as usize {
        for (meta, records) in streams {
            match log.append(&meta.name(), &records[i]) {
                Ok(AppendAck::Durable) => acked.durable.push(records[i].clone()),
                Ok(AppendAck::Pending(e)) => acked.pending.push((e, records[i].clone())),
                Err(_) => {}
            }
        }
        if i % 2 == 1 {
            now += 5_000;
            if let Ok(epoch) = log.maintain(now) {
                acked.flushed = acked.flushed.max(epoch);
            }
        }
        if i == 7 {
            let _ = log.checkpoint_now(now);
        }
    }
    acked
}

/// Crashes `fs`, reopens the log on it and checks the promises in
/// `acked`. `at` names the cut in failure messages.
fn check_after_crash(
    fs: &MemFs,
    streams: &[(CapsuleMetadata, Vec<Record>)],
    acked: &Acked,
    at: &str,
) {
    fs.heal();
    fs.crash();
    let opened = catch_unwind(AssertUnwindSafe(|| SegLog::open(fs, cfg(), &Scope::default())));
    let mut log = match opened {
        Ok(Ok(log)) => log,
        Ok(Err(e)) => {
            let promised = acked.kept().count() + acked.metadata.len();
            assert_eq!(promised, 0, "{at}: reopen failed ({e}) with {promised} writes acked");
            assert!(matches!(e, StoreError::Io(_) | StoreError::Corrupt(_)), "{at}: {e}");
            return;
        }
        Err(_) => panic!("{at}: reopen panicked"),
    };
    for meta in &acked.metadata {
        let got = log.metadata(&meta.name());
        assert_eq!(got.ok().as_ref(), Some(meta), "{at}: acked metadata lost");
    }
    // Which stream each record was appended to.
    let appended: BTreeMap<Pointer, (Name, &Record)> = streams
        .iter()
        .flat_map(|(m, rs)| rs.iter().map(move |r| (r.pointer(), (m.name(), r))))
        .collect();
    for (meta, _) in streams {
        for ptr in log.pointers(&meta.name()) {
            let got = log
                .get(&meta.name(), &ptr)
                .unwrap_or_else(|e| panic!("{at}: {ptr:?} unreadable: {e}"));
            let want = appended.get(&ptr).filter(|(name, _)| *name == meta.name());
            assert_eq!(got.as_ref(), want.map(|(_, r)| *r), "{at}: never appended");
        }
    }
    for r in acked.kept() {
        let got = log
            .get(&appended[&r.pointer()].0, &r.pointer())
            .unwrap_or_else(|e| panic!("{at}: acked read failed: {e}"));
        assert_eq!(got.as_ref(), Some(r), "{at}: acked record seq {} lost", r.header.seq);
    }
}

#[test]
fn every_crash_point_keeps_every_acked_write() {
    let started = std::time::Instant::now();
    let streams = streams();

    // The uncut run: count its operations and check its shape.
    let fs = MemFs::new();
    let metrics = Metrics::new();
    let acked = workload(&fs, &metrics, &streams);
    let k_ops = fs.ops(None);
    let counter = |name| metrics.counter_value("store", name);
    assert_eq!(counter("segments_rotated"), 1, "the workload seals one segment");
    assert_eq!(counter("checkpoints_written"), 2, "the rotation's and the explicit one");
    assert!(counter("group_commits") >= 4, "periodic flushes");
    assert_eq!(acked.kept().count(), 2 * N as usize, "uncut, every append is acked");
    check_after_crash(&fs, &streams, &acked, "uncut");

    for k in 0..k_ops {
        // Every operation from k on fails with EIO ...
        let fs = MemFs::new();
        fs.fail(None, k..u64::MAX, Fault::Eio);
        let acked = workload(&fs, &Metrics::new(), &streams);
        check_after_crash(&fs, &streams, &acked, &format!("EIO from op {k}"));

        // ... or op k is a short write, and every later one fails.
        let fs = MemFs::new();
        fs.fail(None, k..k + 1, Fault::ShortWrite);
        fs.fail(None, k + 1..u64::MAX, Fault::Eio);
        let acked = workload(&fs, &Metrics::new(), &streams);
        check_after_crash(&fs, &streams, &acked, &format!("short write at op {k}"));
    }
    eprintln!(
        "crash points: K = {k_ops} file operations, {} cuts checked in {:.2?}",
        2 * k_ops,
        started.elapsed()
    );
}
