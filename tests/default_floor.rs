//! The default-dominance floor (`MinerConfig::prune_default_dominated`,
//! on in the CLI and the benchmark) must never change a model: it may
//! drop only rules that the default rule `∅ → g` outranks under both
//! profit modes (§3.2 rank, §4.1 dominance). Each check mines with the
//! floor off and on and compares the built models with
//! [`common::compare_floor`].
//!
//! The seeds replay two ways the floor once drifted from that
//! definition. Seeds 52 and 64 hold rules that tie the default rule's
//! `Prof_re` and win on support. In the targeted cells, a target makes
//! the default rule the best *in-target* head, which the floor must
//! follow. The datasets are the family of `targeted_equivalence.rs`.

mod common;

use pm_datagen::DatasetConfig;
use pm_rules::{MinerConfig, RuleMiner, Support, TidPolicy};
use pm_txn::{CodeId, TargetFilter, TransactionSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(seed: u64) -> TransactionSet {
    let n_txns = [12, 16, 24, 30][(seed % 4) as usize];
    let n_items = [4, 5, 6][(seed % 3) as usize];
    DatasetConfig::tiny(n_txns, n_items, 3).generate(&mut StdRng::seed_from_u64(0x7A26 ^ seed))
}

/// Mine `seed`'s dataset with the floor off and on, under `target`,
/// across thread counts and tidset policies, and compare the models.
fn check(seed: u64, target: Option<TargetFilter>) {
    let data = dataset(seed);
    let cfg = |floor: bool| MinerConfig {
        min_support: Support::Count(1 + (seed % 3) as u32),
        max_body_len: 2,
        prune_default_dominated: floor,
        ..MinerConfig::default()
    };
    for threads in [1usize, 4] {
        for policy in [TidPolicy::Dense, TidPolicy::Adaptive] {
            let mine = |floor: bool| {
                RuleMiner::new(cfg(floor))
                    .with_threads(threads)
                    .with_tidset(policy)
                    .with_target(target.clone())
                    .mine(&data)
            };
            if let Err(e) = common::compare_floor(&mine(false), &mine(true)) {
                panic!("seed {seed} target {target:?} threads {threads} {policy:?}: {e}");
            }
        }
    }
}

/// Rules whose `Prof_re` equals the default rule's and whose support is
/// larger outrank it, so the floor must keep them.
#[test]
fn floor_keeps_rules_that_tie_the_default_and_win_on_support() {
    for seed in [52, 64] {
        check(seed, None);
    }
}

/// A targeted fit's floor is its own default rule, the best in-target
/// head, not the best head overall. Seed 1 under `codes:0`: a global
/// floor leaves only the default rule, where the floor-off model keeps
/// ten rules.
#[test]
fn floor_targeted_follows_the_in_target_default() {
    check(1, Some(TargetFilter::Codes(vec![CodeId(0)])));
    for seed in 0..12 {
        let first_target = dataset(seed).catalog().target_items()[0];
        for t in [
            TargetFilter::Items(vec![first_target]),
            TargetFilter::Codes(vec![CodeId(0)]),
            TargetFilter::Codes(vec![CodeId(1)]),
        ] {
            check(seed, Some(t));
        }
    }
}
