//! The indexed [`Matcher`] must select exactly the rule the linear MPF
//! scan selects, for every customer — across all `ProfitMode` × `MoaMode`
//! combinations, on randomized datasets and randomized customers
//! (including customers assembled from sales the model never saw
//! together, and the empty customer) — both on the built model and on
//! the same model round-tripped through `save`/`load`, whose rule index
//! is rebuilt on load.

mod common;

use common::linear_rule;
use pm_datagen::DatasetConfig;
use pm_rules::{MinerConfig, MoaMode, ProfitMode, RuleMiner, Support};
use pm_txn::{CodeId, ItemId, Sale};
use profit_core::{CutConfig, Matcher, Recommender, RuleModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn matcher_equals_linear_scan_on_random_customers(
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
                    let want = linear_rule(&model, c);
                    prop_assert_eq!(matcher.rule_for(c), want);
                    prop_assert_eq!(reloaded.rule_for(c), want);
                    prop_assert_eq!(&matcher.recommend(c), &model.recommendation(want));
                    prop_assert_eq!(&reloaded.recommend(c), &model.recommendation(want));
                    Ok(())
                };

                // Real customers: every training transaction's non-target
                // side.
                for t in ds.transactions() {
                    check(t.non_target_sales())?;
                }

                // Synthetic customers: random sales the model may never
                // have seen together, random codes/quantities, plus the
                // empty customer (default-rule path).
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
