//! Tidset intersection kernels at varied densities.
//!
//! Universe of 100k transactions; two random sets per density level,
//! intersected with the always-dense word loop, the forced-sparse
//! galloping kernel, the adaptive policy, and the bounded
//! (minsup-early-exit) path. The acceptance bar: adaptive beats
//! always-dense at ≤ 1% density with no regression at high density
//! (where it takes the same dense word loop). At intermediate density
//! adaptive pays a small one-time cost compressing a small result to
//! sparse — standalone that reads as overhead, but in the DFS it is
//! what makes the next level's intersections an order of magnitude
//! cheaper (see `bench-mining`'s end-to-end mine-dense/mine-adaptive).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_rules::{intersect_into, TidBuf, TidPolicy, TidSet};

const UNIVERSE: usize = 100_000;

/// Deterministic xorshift64* stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }
}

/// Roughly `approx` distinct sorted ids in `0..UNIVERSE`.
fn random_ids(approx: usize, seed: u64) -> Vec<u32> {
    let mut next = xorshift(seed);
    let mut ids = std::collections::BTreeSet::new();
    for _ in 0..approx {
        ids.insert((next() % UNIVERSE as u64) as u32);
    }
    ids.into_iter().collect()
}

fn bench_tidset(c: &mut Criterion) {
    // (label, per-mille density ×10): 0.05%, 0.5%, 5%, 50%.
    let densities: [(&str, usize); 4] = [
        ("0.05%", UNIVERSE / 2000),
        ("0.5%", UNIVERSE / 200),
        ("5%", UNIVERSE / 20),
        ("50%", UNIVERSE / 2),
    ];
    let mut group = c.benchmark_group("tidset");
    for (label, cardinality) in densities {
        let a_ids = random_ids(cardinality, 0x5eed_0001);
        let b_ids = random_ids(cardinality, 0x5eed_0002);
        for (policy, name) in [
            (TidPolicy::Dense, "dense"),
            (TidPolicy::Adaptive, "adaptive"),
            (TidPolicy::Sparse, "sparse"),
        ] {
            let a = TidSet::from_sorted_ids(a_ids.clone(), UNIVERSE, policy);
            let b = TidSet::from_sorted_ids(b_ids.clone(), UNIVERSE, policy);
            let mut out = TidBuf::new(UNIVERSE);
            group.bench_with_input(BenchmarkId::new(name, label), &(&a, &b), |bench, (a, b)| {
                bench.iter(|| {
                    intersect_into(a.view(), b.view(), &mut out, 0, black_box(policy)).unwrap()
                })
            });
        }
        // The minsup-early-exit path: a bound far above the expected
        // intersection cardinality abandons the loop almost immediately.
        let a = TidSet::from_sorted_ids(a_ids.clone(), UNIVERSE, TidPolicy::Adaptive);
        let b = TidSet::from_sorted_ids(b_ids.clone(), UNIVERSE, TidPolicy::Adaptive);
        let bound = (cardinality as u32).saturating_mul(2).max(16);
        let mut out = TidBuf::new(UNIVERSE);
        group.bench_with_input(
            BenchmarkId::new("bounded-exit", label),
            &(&a, &b),
            |bench, (a, b)| {
                bench.iter(|| {
                    intersect_into(
                        a.view(),
                        b.view(),
                        &mut out,
                        black_box(bound),
                        TidPolicy::Adaptive,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(20);
    targets = bench_tidset
}
criterion_main!(benches);
