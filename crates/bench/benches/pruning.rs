//! Recommender construction: dominance removal, covering tree, coverage
//! assignment, and the optimal cut (§4), on pre-mined rule sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_bench::bench_dataset;
use pm_rules::{MinerConfig, ProfitMode, RuleMiner, Support};
use profit_core::{CutConfig, RuleModel};

fn bench_pruning(c: &mut Criterion) {
    let data = bench_dataset(4000, 300, 7);
    let mined = RuleMiner::new(MinerConfig {
        min_support: Support::Fraction(0.005),
        max_body_len: 3,
        ..MinerConfig::default()
    })
    .mine(&data);
    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    for (label, prune) in [("cut-optimal", true), ("mpf-only", false)] {
        for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
            let id = format!("{label}/{mode:?}");
            group.bench_with_input(BenchmarkId::from_parameter(&id), &(), |b, _| {
                b.iter(|| {
                    RuleModel::build(
                        &mined,
                        &CutConfig {
                            profit_mode: mode,
                            prune,
                            ..CutConfig::default()
                        },
                    )
                })
            });
        }
    }
    group.finish();
}

/// The paper's operating point (the CLI `fit` defaults: minsup 0.1%,
/// max body 3, min-conf 0.5), where the §4.1 dominance scan and the
/// parent walk carry the build.
fn bench_paper_point(c: &mut Criterion) {
    // 1 000 items keep one build near 1.5 s on a 2-core VM (300 items:
    // ≈2.7 s).
    let data = bench_dataset(20_000, 1_000, 7);
    let mined = RuleMiner::new(MinerConfig {
        min_support: Support::Fraction(0.001),
        max_body_len: 3,
        min_confidence: Some(0.5),
        ..MinerConfig::default()
    })
    .mine(&data);
    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("paper-point"), &(), |b, _| {
        b.iter(|| RuleModel::build(&mined, &CutConfig::default()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(10);
    targets = bench_pruning, bench_paper_point
}
criterion_main!(benches);
