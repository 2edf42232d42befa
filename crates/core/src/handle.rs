//! An atomically swappable, shareable model slot for long-running
//! serving processes.
//!
//! `pm-serve` keeps one [`ModelHandle`] for the daemon's lifetime;
//! request workers take cheap [`Arc`] snapshots of the current model,
//! and a hot reload validates the replacement off the serving path and
//! then [`swap`](ModelHandle::swap)s it in. Workers detect the swap
//! through the monotonically increasing
//! [`generation`](ModelHandle::generation) counter (one relaxed atomic
//! load per request) and take fresh matcher scratch for the new model —
//! the rule index travels inside the [`RuleModel`], built when the model
//! was built or loaded. In-flight requests keep the snapshot they started
//! with, so a reload can never change an answer halfway through
//! computing it.

use crate::model::RuleModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A shared, swappable slot holding the currently served [`RuleModel`].
#[derive(Debug)]
pub struct ModelHandle {
    current: RwLock<Arc<RuleModel>>,
    generation: AtomicU64,
}

impl ModelHandle {
    /// Wrap `model` as generation 1.
    pub fn new(model: RuleModel) -> ModelHandle {
        ModelHandle {
            current: RwLock::new(Arc::new(model)),
            generation: AtomicU64::new(1),
        }
    }

    /// A snapshot of the current model. The returned [`Arc`] stays valid
    /// (and unchanged) across concurrent swaps.
    pub fn current(&self) -> Arc<RuleModel> {
        // The slot is only ever replaced wholesale, so a poisoned lock
        // still holds a complete Arc; recover it.
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// A consistent (generation, model) pair.
    ///
    /// [`current`](ModelHandle::current) and
    /// [`generation`](ModelHandle::generation) read the slot and the
    /// counter independently, so calling them back to back around a
    /// concurrent [`swap`](ModelHandle::swap) can pair generation N+1
    /// with the generation-N model (or vice versa). `snapshot` reads the
    /// counter while holding the slot's read lock; since `swap` bumps
    /// the counter while holding the write lock, the pair is always
    /// coherent. Status endpoints (`ping`/`stats`) that report both
    /// values must use this.
    pub fn snapshot(&self) -> (u64, Arc<RuleModel>) {
        let slot = self.current.read().unwrap_or_else(|e| e.into_inner());
        let gen = self.generation.load(Ordering::Acquire);
        (gen, Arc::clone(&slot))
    }

    /// The generation counter: starts at 1, increments on every
    /// [`swap`](ModelHandle::swap). Workers compare this against the
    /// generation of their cached snapshot to decide when to switch.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Atomically replace the served model, returning the new
    /// generation. The old model stays alive as long as any worker still
    /// holds its snapshot.
    pub fn swap(&self, model: RuleModel) -> u64 {
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        *slot = Arc::new(model);
        // Publish the new generation only after the slot holds the new
        // model, so a worker that observes the bump re-reads the slot
        // and can only get the new (or an even newer) model.
        self.generation.fetch_add(1, Ordering::Release) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CutConfig, ProfitMiner};
    use pm_rules::{MinerConfig, Support};
    use pm_txn::{
        Catalog, CodeId, Hierarchy, ItemDef, ItemId, Money, PromotionCode, Sale, Transaction,
        TransactionSet,
    };

    fn tiny_model(price_cents: i64) -> RuleModel {
        let mut cat = Catalog::new();
        cat.push(ItemDef {
            name: "a".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(100),
                Money::from_cents(50),
            )],
            is_target: false,
        });
        cat.push(ItemDef {
            name: "t".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(price_cents),
                Money::from_cents(100),
            )],
            is_target: true,
        });
        let txns: Vec<Transaction> = (0..8)
            .map(|_| {
                Transaction::new(
                    vec![Sale::new(ItemId(0), CodeId(0), 1)],
                    Sale::new(ItemId(1), CodeId(0), 1),
                )
            })
            .collect();
        let data = TransactionSet::new(cat, Hierarchy::flat(2), txns).unwrap();
        ProfitMiner::new(MinerConfig {
            min_support: Support::Count(2),
            ..MinerConfig::default()
        })
        .with_cut(CutConfig::default())
        .fit(&data)
    }

    #[test]
    fn swap_bumps_generation_and_replaces_model() {
        let handle = ModelHandle::new(tiny_model(500));
        assert_eq!(handle.generation(), 1);
        let before = handle.current();
        let g = handle.swap(tiny_model(900));
        assert_eq!(g, 2);
        assert_eq!(handle.generation(), 2);
        let after = handle.current();
        // The old snapshot is still alive and unchanged.
        assert_eq!(
            before.moa().catalog().code(ItemId(1), CodeId(0)).price,
            Money::from_cents(500)
        );
        assert_eq!(
            after.moa().catalog().code(ItemId(1), CodeId(0)).price,
            Money::from_cents(900)
        );
    }

    #[test]
    fn snapshot_pairs_generation_with_matching_model() {
        let handle = Arc::new(ModelHandle::new(tiny_model(500)));
        // Generation g serves price 500 when g is odd, 900 when even.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&handle);
                s.spawn(move || {
                    for _ in 0..500 {
                        let (gen, model) = h.snapshot();
                        let price = model.moa().catalog().code(ItemId(1), CodeId(0)).price;
                        let want = if gen % 2 == 1 { 500 } else { 900 };
                        assert_eq!(
                            price,
                            Money::from_cents(want),
                            "generation {gen} paired with wrong model"
                        );
                    }
                });
            }
            let h = Arc::clone(&handle);
            s.spawn(move || {
                for i in 0..50 {
                    // swap to gen i+2: even generations get 900.
                    h.swap(tiny_model(if i % 2 == 0 { 900 } else { 500 }));
                }
            });
        });
    }

    #[test]
    fn concurrent_readers_see_a_complete_model() {
        let handle = Arc::new(ModelHandle::new(tiny_model(500)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&handle);
                s.spawn(move || {
                    for _ in 0..200 {
                        let m = h.current();
                        // Every snapshot recommends coherently.
                        let rec = crate::model::Recommender::recommend(
                            &*m,
                            &[Sale::new(ItemId(0), CodeId(0), 1)],
                        );
                        assert_eq!(rec.item, ItemId(1));
                    }
                });
            }
            let h = Arc::clone(&handle);
            s.spawn(move || {
                for i in 0..50 {
                    h.swap(tiny_model(if i % 2 == 0 { 900 } else { 500 }));
                }
            });
        });
        assert_eq!(handle.generation(), 51);
    }
}
