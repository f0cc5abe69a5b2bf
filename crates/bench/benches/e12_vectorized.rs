//! E12: vectorized execution at full batches vs one row per batch.
//!
//! The engine runs the identical logical pipelines over identical
//! pre-materialised rows (page decoding is shared code and would dilute
//! the contrast) at `batch_rows = 1` (the baseline) and at the default
//! batch:
//! * scan→filter→aggregate — where per-batch dispatch dominates at one
//!   row per batch and the column kernels pay off at full batches;
//! * join→aggregate — the columnar open-addressing join feeding a
//!   global aggregate, in three key distributions (base ×64 dim,
//!   duplicate-heavy, high-NDV) plus a materialise-every-row variant
//!   where the row-major transpose dominates both batch sizes;
//! * the join's build/probe/gather phases in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use sbdms::access::exec::engine::VectorEngine;
use sbdms::access::exec::{hash_join_phases, BATCH_ROWS};
use sbdms_bench::experiments::{
    e12_dim, e12_dim_dup, e12_dim_highndv, e12_fact, e12_join, e12_join_highndv, e12_join_rows,
    e12_scan_filter_aggregate,
};

const ROWS: usize = 200_000;
const GROUPS: usize = 64;
const DUPS: usize = 8;

/// The baseline: the same engine at one row per batch.
fn row() -> VectorEngine {
    VectorEngine {
        batch_rows: 1,
        ..VectorEngine::default()
    }
}

fn bench_scan_filter_aggregate(c: &mut Criterion) {
    let fact = e12_fact(ROWS);
    let threshold = (ROWS / 2) as i64;
    let mut group = c.benchmark_group("e12_scan_filter_aggregate");
    group.sample_size(10);
    group.bench_function("batch_1", |b| {
        b.iter(|| {
            std::hint::black_box(e12_scan_filter_aggregate(
                &row(),
                fact.clone(),
                threshold,
            ))
        })
    });
    group.bench_function("batch_1024", |b| {
        b.iter(|| {
            std::hint::black_box(e12_scan_filter_aggregate(
                &VectorEngine::default(),
                fact.clone(),
                threshold,
            ))
        })
    });
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let fact = e12_fact(ROWS);
    let dim = e12_dim(GROUPS);
    let mut group = c.benchmark_group("e12_join");
    group.sample_size(10);
    group.bench_function("batch_1", |b| {
        b.iter(|| std::hint::black_box(e12_join(&row(), fact.clone(), dim.clone())))
    });
    group.bench_function("batch_1024", |b| {
        b.iter(|| {
            std::hint::black_box(e12_join(&VectorEngine::default(), fact.clone(), dim.clone()))
        })
    });
    group.finish();
}

fn bench_join_variants(c: &mut Criterion) {
    let fact = e12_fact(ROWS);
    let dup = e12_dim_dup(GROUPS, DUPS);
    let hi = e12_dim_highndv(ROWS);
    let dim = e12_dim(GROUPS);
    let mut group = c.benchmark_group("e12_join_variants");
    group.sample_size(10);
    group.bench_function("dup/batch_1", |b| {
        b.iter(|| std::hint::black_box(e12_join(&row(), fact.clone(), dup.clone())))
    });
    group.bench_function("dup/batch_1024", |b| {
        b.iter(|| {
            std::hint::black_box(e12_join(&VectorEngine::default(), fact.clone(), dup.clone()))
        })
    });
    group.bench_function("high_ndv/batch_1", |b| {
        b.iter(|| {
            std::hint::black_box(e12_join_highndv(&row(), fact.clone(), hi.clone()))
        })
    });
    group.bench_function("high_ndv/batch_1024", |b| {
        b.iter(|| {
            std::hint::black_box(e12_join_highndv(
                &VectorEngine::default(),
                fact.clone(),
                hi.clone(),
            ))
        })
    });
    group.bench_function("materialise_rows/batch_1", |b| {
        b.iter(|| {
            std::hint::black_box(e12_join_rows(&row(), fact.clone(), dim.clone()))
        })
    });
    group.bench_function("materialise_rows/batch_1024", |b| {
        b.iter(|| {
            std::hint::black_box(e12_join_rows(&VectorEngine::default(), fact.clone(), dim.clone()))
        })
    });
    group.finish();
}

fn bench_join_phases(c: &mut Criterion) {
    let fact = e12_fact(ROWS);
    let dim = e12_dim(GROUPS);
    let hi = e12_dim_highndv(ROWS);
    let mut group = c.benchmark_group("e12_join_phases");
    group.sample_size(10);
    // hash_join_phases reports per-phase durations; criterion times the
    // whole decomposed join so regressions in any phase surface here,
    // and the phase split itself is printed by the report binary.
    group.bench_function("base", |b| {
        b.iter(|| std::hint::black_box(hash_join_phases(&dim, &fact, 0, 1, BATCH_ROWS)))
    });
    group.bench_function("high_ndv", |b| {
        b.iter(|| std::hint::black_box(hash_join_phases(&hi, &fact, 0, 0, BATCH_ROWS)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scan_filter_aggregate,
    bench_join,
    bench_join_variants,
    bench_join_phases
);
criterion_main!(benches);
