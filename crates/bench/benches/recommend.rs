//! Recommendation latency of the posting-list Matcher: per customer, and
//! one batch pass over every customer.

use criterion::{criterion_group, criterion_main, Criterion};
use pm_bench::bench_dataset;
use pm_rules::{MinerConfig, RuleMiner, Support};
use profit_core::{CutConfig, Matcher, Recommender, RuleModel};

fn bench_recommend(c: &mut Criterion) {
    let data = bench_dataset(4000, 300, 7);
    let mined = RuleMiner::new(MinerConfig {
        min_support: Support::Fraction(0.005),
        max_body_len: 3,
        ..MinerConfig::default()
    })
    .mine(&data);
    let model = RuleModel::build(&mined, &CutConfig::default());
    let matcher = Matcher::new(&model);
    let customers: Vec<_> = data
        .transactions()
        .iter()
        .take(256)
        .map(|t| t.non_target_sales().to_vec())
        .collect();
    let mut i = 0usize;
    c.bench_function("recommend/matcher", |b| {
        b.iter(|| {
            i = (i + 1) % customers.len();
            matcher.recommend(&customers[i])
        })
    });
    // Serving throughput: one full pass over every customer — the batch
    // loop `recommend --all` and the evaluation runner actually execute.
    c.bench_function("recommend/batch-matcher", |b| {
        b.iter(|| {
            customers
                .iter()
                .map(|c| matcher.recommend(c).item.0 as u64)
                .sum::<u64>()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(10);
    targets = bench_recommend
}
criterion_main!(benches);
