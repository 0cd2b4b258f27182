//! Microbench for the storage engine's durable-append hot path: one
//! group-commit batch (64 appends + one covering fsync) on the shared
//! segmented log. The full capsule-count sweep with asserted floors
//! lives in `report store`; this isolates the per-call cost.

use criterion::{criterion_group, criterion_main, Criterion};
use gdp_bench::storebench::GROUP_SIZE;
use gdp_capsule::{Record, RecordHash};
use gdp_crypto::SigningKey;
use gdp_store::{CapsuleStore, SegConfig, SegLog};
use gdp_wire::Name;
use std::path::PathBuf;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-bench-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn store_engine(c: &mut Criterion) {
    let writer = SigningKey::from_seed(&[0xB5; 32]);
    let capsule = Name::from_content(b"bench-store-engine");
    let mut group = c.benchmark_group("store/durable_append");
    group.sample_size(20);

    let dir = bench_dir("seg");
    let scope = gdp_obs::Metrics::new().scope("store");
    let log = SegLog::open_with(&dir, SegConfig::default(), &scope).expect("open seg log");
    let mut handle = log.handle(capsule);
    let mut seq = 0u64;
    let mut prev = RecordHash::anchor(&capsule);
    let mut now_us = 0u64;
    group.bench_function("seg_group_commit_64", |b| {
        b.iter(|| {
            for _ in 0..GROUP_SIZE {
                seq += 1;
                let r = Record::create(&capsule, &writer, seq, 0, prev, vec![], vec![0xAB; 64]);
                prev = r.hash();
                handle.append_acked(&r).expect("append");
            }
            now_us += 5_000;
            log.flush_now(now_us).expect("flush");
        });
    });
    group.finish();
}

criterion_group!(benches, store_engine);
criterion_main!(benches);
