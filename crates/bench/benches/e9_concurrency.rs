//! E9: data-plane concurrency.
//!
//! Three questions, one per group:
//! * point reads — does cached-read throughput scale with threads when
//!   the buffer pool is sharded, and stay flat under a single stripe
//!   (the seed's global-mutex shape)?
//! * scans — do concurrent full-scan sessions benefit from sharding?
//! * statements — does the plan cache drop repeated-statement latency?

use criterion::{criterion_group, criterion_main, Criterion};
use sbdms_bench::experiments::{
    e9_db, e9_point_read_throughput, e9_pool, e9_scan_throughput, e9_statement,
};

const PAGES: usize = 256;
const ROWS: usize = 2_000;

fn bench_point_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_point_reads");
    for shards in [1usize, 8] {
        let (pool, pages) = e9_pool(shards, PAGES);
        for threads in [1usize, 2, 4, 8] {
            group.bench_function(format!("{shards}-shard/{threads}-thread"), |b| {
                b.iter(|| {
                    std::hint::black_box(e9_point_read_throughput(&pool, &pages, threads, 200))
                })
            });
        }
    }
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_scans");
    group.sample_size(10);
    for shards in [1usize, 8] {
        let db = e9_db(ROWS, shards, true);
        for threads in [1usize, 4] {
            group.bench_function(format!("{shards}-shard/{threads}-session"), |b| {
                b.iter(|| std::hint::black_box(e9_scan_throughput(&db, threads, 2)))
            });
        }
    }
    group.finish();
}

fn bench_statements(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_statements");
    for (label, cached) in [("plan-cache-on", true), ("plan-cache-off", false)] {
        let db = e9_db(ROWS, 8, cached);
        let mut round = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                round += 1;
                e9_statement(&db, round)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_point_reads, bench_scans, bench_statements
}
criterion_main!(benches);
