//! The indexed [`Matcher::recommend_top_k`] must return exactly what the
//! linear reference scan (`common::linear_top_k`) returns — same pairs,
//! same order, same rule indices — for every customer and every `k`,
//! across `ProfitMode` × `MoaMode` on randomized datasets, both on the
//! built model and on the same model round-tripped through
//! `save`/`load`, whose rule index is rebuilt on load. The targeted walk
//! (`recommend_top_k_where`) is held to the same standard per code class.

mod common;

use common::linear_top_k;
use pm_datagen::DatasetConfig;
use pm_rules::{MinerConfig, MoaMode, ProfitMode, RuleMiner, Support};
use pm_txn::{CodeId, ItemId, Sale, TargetFilter};
use profit_core::{CutConfig, Matcher, RuleModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn indexed_top_k_equals_linear_top_k(
        seed in 0u64..1_000_000,
        n_txn in 60usize..160,
        prune in proptest::bool::ANY,
    ) {
        let ds = DatasetConfig::dataset_i()
            .with_transactions(n_txn)
            .with_items(40)
            .generate(&mut StdRng::seed_from_u64(seed));
        let catalog = ds.catalog();
        let non_targets: Vec<ItemId> = (0..catalog.len() as u32)
            .map(ItemId)
            .filter(|&i| !catalog.item(i).is_target)
            .collect();

        let targets: Vec<TargetFilter> =
            (0..2).map(|c| TargetFilter::Codes(vec![CodeId(c)])).collect();

        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
                let mined = RuleMiner::new(MinerConfig {
                    min_support: Support::Fraction(0.04),
                    max_body_len: 3,
                    moa,
                    ..MinerConfig::default()
                })
                .mine(&ds);
                let model = RuleModel::build(
                    &mined,
                    &CutConfig {
                        profit_mode: mode,
                        prune,
                        ..CutConfig::default()
                    },
                );
                let loaded = RuleModel::load(model.save());
                let matcher = Matcher::new(&model);
                let reloaded = Matcher::new(&loaded);

                let check = |c: &[Sale]| -> Result<(), String> {
                    // The first `k` entries of the unbounded walk are the
                    // walk bounded at `k`: one reference scan per filter.
                    for t in std::iter::once(None).chain(targets.iter().map(Some)) {
                        let full = linear_top_k(&model, c, usize::MAX, t);
                        for k in [0usize, 1, 2, 3, 5, 10, 100] {
                            let want = &full[..k.min(full.len())];
                            let (got, got_reloaded) = match t {
                                None => (
                                    matcher.recommend_top_k(c, k),
                                    reloaded.recommend_top_k(c, k),
                                ),
                                Some(t) => (
                                    matcher.recommend_top_k_where(c, k, t),
                                    reloaded.recommend_top_k_where(c, k, t),
                                ),
                            };
                            prop_assert_eq!(got.as_slice(), want);
                            prop_assert_eq!(got_reloaded.as_slice(), want);
                        }
                    }
                    // k = 1 must also agree with the single-answer path.
                    let one = matcher.recommend_top_k(c, 1);
                    prop_assert_eq!(one.len(), 1);
                    prop_assert_eq!(one[0].rule_index, Some(matcher.rule_for(c)));
                    Ok(())
                };

                // Real customers: every training transaction's non-target
                // side.
                for t in ds.transactions() {
                    check(t.non_target_sales())?;
                }

                // Synthetic customers: random sales the model may never
                // have seen together, plus the empty customer.
                let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
                for _ in 0..20 {
                    let len = rng.gen_range(0usize..4);
                    let c: Vec<Sale> = (0..len)
                        .map(|_| {
                            let item = non_targets[rng.gen_range(0..non_targets.len())];
                            let code = rng.gen_range(0..catalog.item(item).codes.len() as u16);
                            Sale::new(item, CodeId(code), rng.gen_range(1u32..4))
                        })
                        .collect();
                    check(&c)?;
                }
            }
        }
    }
}
