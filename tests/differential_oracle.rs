//! Differential fuzzing of the optimized mining/serving stack against the
//! paper-literal `pm-oracle` reference implementation.
//!
//! Every dataset is tiny (≤ ~30 transactions, ≤ 8 items, 2–4 codes) so the
//! oracle's brute-force enumeration stays fast in debug builds, and every
//! dataset is seeded so failures replay exactly. On divergence the harness
//! greedily shrinks the dataset and prints a replayable catalog/sales CSV
//! pair (see README, "Replaying a counterexample").

mod common;

use pm_datagen::{DatasetConfig, HierarchyConfig};
use pm_txn::TransactionSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministically derive a tiny dataset and minsup from a seed, varying
/// size, item count, code count and (on every third seed) a one-level
/// concept hierarchy.
fn tiny_dataset(seed: u64) -> (TransactionSet, u32) {
    let n_txns = [8, 12, 16, 20, 24, 30][(seed % 6) as usize];
    let n_items = [3, 4, 5, 6, 8][(seed % 5) as usize];
    let n_prices = [2, 3, 4][(seed % 3) as usize];
    let mut cfg = DatasetConfig::tiny(n_txns, n_items, n_prices);
    if seed % 3 == 2 {
        cfg = cfg.with_hierarchy(HierarchyConfig {
            branching: 2,
            levels: 1,
        });
    }
    let data = cfg.generate(&mut StdRng::seed_from_u64(0xD1FF_0000 ^ seed));
    let minsup = 1 + (seed % 3) as u32;
    (data, minsup)
}

fn check(seed: u64, max_body_len: usize) {
    let (data, minsup) = tiny_dataset(seed);
    if let Err(msg) = common::compare_dataset(&data, minsup, max_body_len) {
        common::report_divergence(&data, minsup, max_body_len, &format!("seed {seed}: {msg}"));
    }
}

/// The acceptance sweep: 50 seeded datasets, each through the full
/// `MoaMode × QuantityModel × TidPolicy × {1,4} threads × ProfitMode`
/// matrix, compared rule-for-rule, rank-for-rank and per-customer.
#[test]
fn differential_fifty_seeded_datasets() {
    for seed in 0..50 {
        check(seed, 2);
    }
}

/// A smaller subset at body length 3, exercising deeper DFS extension and
/// the multi-item related-pair pruning on both sides.
#[test]
fn differential_body_len_three() {
    for seed in [2, 7, 11, 23, 41] {
        check(seed, 3);
    }
}

fn check_workloads(seed: u64, max_body_len: usize) {
    let (data, minsup) = tiny_dataset(seed);
    if let Err(msg) = common::compare_workloads(&data, minsup, max_body_len) {
        common::report_divergence_under(
            &data,
            &|ds| common::compare_workloads(ds, minsup, max_body_len),
            minsup,
            max_body_len,
            &format!("seed {seed}: {msg}"),
        );
    }
}

/// The PR-9 workload axes — targeted mining (item and code-class
/// filters), per-item profit floors (alone and overriding a scalar
/// floor), and top-N assortments — against the oracle over seeded tiny
/// datasets, across `TidPolicy × {1,4} threads × PrunePolicy`.
#[test]
fn workload_differential_twenty_seeded_datasets() {
    for seed in 0..20 {
        check_workloads(seed, 2);
    }
}

/// Workload axes at body length 3: deeper DFS under head-domain
/// restriction and per-head floors.
#[test]
fn workload_body_len_three() {
    for seed in [2, 7, 11] {
        check_workloads(seed, 3);
    }
}

/// A tiny dataset under a two-level concept hierarchy, so that closures
/// carry concept chains and reach past depth 1 of the body trie.
fn deep_dataset(seed: u64) -> (TransactionSet, u32) {
    let n_txns = [12, 16, 20][(seed % 3) as usize];
    let n_items = [4, 6, 8][(seed % 3) as usize];
    let data = DatasetConfig::tiny(n_txns, n_items, 3)
        .with_hierarchy(HierarchyConfig {
            branching: 2,
            levels: 2,
        })
        .generate(&mut StdRng::seed_from_u64(0x7EEE_0000 ^ seed));
    (data, 1 + (seed % 2) as u32)
}

fn check_tree(data: &TransactionSet, minsup: u32, max_body_len: usize, what: &str) {
    let compare = |ds: &TransactionSet| common::compare_tree(ds, minsup, max_body_len);
    if let Err(msg) = compare(data) {
        common::report_divergence_under(
            data,
            &compare,
            minsup,
            max_body_len,
            &format!("{what}: {msg}"),
        );
    }
}

/// The §4.1 covering tree (dominance, parents, coverage) against the
/// oracle's pairwise tree over the seeded tiny datasets, across
/// `MoaMode × ProfitMode`.
#[test]
fn tree_differential_twenty_seeded_datasets() {
    for seed in 0..20 {
        let (data, minsup) = tiny_dataset(seed);
        check_tree(&data, minsup, 2, &format!("seed {seed}"));
    }
}

/// The tree axis at body length 3 on the sweep's deeper seeds.
#[test]
fn tree_differential_body_len_three() {
    for seed in [2, 7, 11, 23, 41] {
        let (data, minsup) = tiny_dataset(seed);
        check_tree(&data, minsup, 3, &format!("seed {seed}"));
    }
}

/// The tree axis under a two-level concept hierarchy at body length 3:
/// generalizers several ancestors away and bodies of several elements.
#[test]
fn tree_differential_two_level_hierarchy() {
    for seed in 0..6 {
        let (data, minsup) = deep_dataset(seed);
        check_tree(&data, minsup, 3, &format!("deep seed {seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized seeds beyond the fixed sweep. The vendored proptest shim
    /// does not shrink, so on failure `report_divergence` runs the manual
    /// greedy shrinker and prints the minimal replayable counterexample.
    #[test]
    fn differential_fuzz(seed in 0u64..1_000_000) {
        check(seed, 2);
    }
}
