//! Streaming refits are observable like cold fits: one
//! `IncrementalProfitMiner::update` records the miner's `mine.dfs` span,
//! the `incremental.anchors_remined` counter and the `miner.rules` gauge,
//! because cold and incremental fits mine through the same fan-out.
//!
//! The metrics registry is process-global, so this test has its binary
//! to itself: nothing else mines while it reads the registry.

use profit_mining::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `millis` of `phase` in a `pm_obs` registry dump, if recorded.
fn phase_millis(dump: &str, phase: &str) -> Option<f64> {
    let key = format!("{{\"phase\": \"{phase}\", \"millis\": ");
    let rest = &dump[dump.find(&key)? + key.len()..];
    rest[..rest.find('}')?].parse().ok()
}

#[test]
fn an_incremental_update_records_the_mining_spans_and_counters() {
    let ds = DatasetConfig::dataset_i()
        .with_transactions(400)
        .with_items(100)
        .generate(&mut StdRng::seed_from_u64(23));
    let mut inc = ProfitMiner::new(MinerConfig {
        min_support: Support::Fraction(0.03),
        max_body_len: 3,
        ..MinerConfig::default()
    })
    .into_incremental();
    let mut data = ds.subset(&(0..300).collect::<Vec<_>>());
    inc.fit(&data);
    data.extend_from(&ds.transactions()[300..]).unwrap();

    let registry = pm_obs::registry();
    registry.reset();
    let model = inc.update(&data);
    let dump = registry.dump_json();

    let dfs = phase_millis(&dump, "mine.dfs").unwrap_or(0.0);
    assert!(
        dfs > 0.0,
        "no mine.dfs time recorded by the update:\n{dump}"
    );
    assert!(
        pm_obs::counter("incremental.anchors_remined").get() > 0,
        "the delta re-mined no anchor:\n{dump}"
    );
    assert_eq!(
        pm_obs::gauge("miner.rules").get(),
        model.stats().mined_rules as i64,
        "miner.rules gauge:\n{dump}"
    );
}
