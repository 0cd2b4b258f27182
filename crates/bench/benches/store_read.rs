//! Microbench for the sealed-segment read fast lane: one warm point
//! read (block-cache hit, zero-copy body, CRC skipped via the verified
//! set) vs one uncached point read (cache disabled: a block fetch plus
//! an entry CRC per call), plus the warm 8-record range scan. The
//! capsule-count sweep with asserted floors lives in `report store`;
//! this isolates the per-call costs.

use criterion::{criterion_group, criterion_main, Criterion};
use gdp_bench::storebench;
use gdp_store::{CapsuleStore, FsyncPolicy, SegConfig};
use std::path::PathBuf;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-bench-read-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

const CAPSULES: usize = 256;
const PER_CAPSULE: u64 = 8;

fn cfg(read_cache_bytes: usize) -> SegConfig {
    SegConfig { policy: FsyncPolicy::DEFAULT_BATCH, read_cache_bytes, ..SegConfig::default() }
}

fn store_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/sealed_read");
    group.sample_size(20);

    let dir = bench_dir("warm");
    let (log, names) = storebench::seed_capsules(&dir, cfg(4 * 1024 * 1024), CAPSULES, 8);
    let handles: Vec<_> = names.iter().map(|n| log.handle(*n)).collect();
    for h in &handles {
        h.range(1, PER_CAPSULE).expect("warm fill");
    }
    let mut i = 0usize;
    group.bench_function("warm_point_read", |b| {
        b.iter(|| {
            i = (i + 1) % handles.len();
            handles[i].get_by_seq(PER_CAPSULE).expect("read").expect("record")
        });
    });
    let mut j = 0usize;
    group.bench_function("warm_range_8", |b| {
        b.iter(|| {
            j = (j + 1) % handles.len();
            handles[j].range(1, PER_CAPSULE).expect("range")
        });
    });

    let dir = bench_dir("uncached");
    let (log, names) = storebench::seed_capsules(&dir, cfg(0), CAPSULES, 8);
    let handles: Vec<_> = names.iter().map(|n| log.handle(*n)).collect();
    let mut k = 0usize;
    group.bench_function("uncached_point_read", |b| {
        b.iter(|| {
            k = (k + 1) % handles.len();
            handles[k].get_by_seq(PER_CAPSULE).expect("read").expect("record")
        });
    });
    group.finish();
}

criterion_group!(benches, store_reads);
criterion_main!(benches);
