//! Experiment T3-SPAN: the exact rational linear-algebra kernel behind the
//! Main Lemma — span-membership tests and matrix inversion over ℚ as the
//! dimension k (the number of basis components) grows.

use cqdet_bench::{linalg_workload, linalg_workload_seed, LINALG_SHAPES, SPAN_DIMENSIONS};
use cqdet_linalg::{span_contains, QMat, QVec, Rat};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// A deterministic pseudo-random small integer.
fn value(i: usize, j: usize) -> i64 {
    (((i * 31 + j * 17 + 7) % 11) as i64) - 3
}

fn vectors(k: usize, count: usize) -> Vec<QVec> {
    (0..count)
        .map(|c| QVec::from_i64s(&(0..k).map(|i| value(i, c)).collect::<Vec<_>>()))
        .collect()
}

fn bench_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/span-membership");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for &k in SPAN_DIMENSIONS {
        let vs = vectors(k, k / 2 + 1);
        // An in-span target (sum of the generators) and an out-of-span target.
        let mut target = QVec::zeros(k);
        for v in &vs {
            target = &target + v;
        }
        group.bench_with_input(
            BenchmarkId::new("in-span", k),
            &(vs.clone(), target),
            |b, (vs, t)| b.iter(|| span_contains(vs, t)),
        );
        let outside = QVec::from_i64s(&(0..k).map(|i| value(i, 997) + 1).collect::<Vec<_>>());
        group.bench_with_input(
            BenchmarkId::new("probe", k),
            &(vs, outside),
            |b, (vs, t)| b.iter(|| span_contains(vs, t)),
        );
    }
    group.finish();
}

fn bench_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/inverse");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for &k in SPAN_DIMENSIONS {
        // A nonsingular matrix: Vandermonde on distinct points.
        let points: Vec<Rat> = (0..k).map(|i| Rat::from_i64(i as i64 + 2)).collect();
        let m = QMat::vandermonde(&points);
        group.bench_with_input(BenchmarkId::from_parameter(k), &m, |b, m| {
            b.iter(|| m.inverse().is_some())
        });
    }
    group.finish();
}

/// `QMat::rank` on tall bignum matrices (the LINALG experiment; the
/// JSON-tracked twin lives in the `cqdet-bench` harness).
fn bench_big_entry_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/rank-bignum");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for &(k, n, bits) in LINALG_SHAPES {
        let m = QMat::from_cols(&linalg_workload(k, n, bits, linalg_workload_seed(bits)));
        group.bench_with_input(
            BenchmarkId::new("rank", format!("{k}x{n}-{bits}bit")),
            &m,
            |b, m| b.iter(|| m.rank()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_span, bench_inverse, bench_big_entry_rank);
criterion_main!(benches);
