//! Mined rules, their worth measures (§3.1, Definition 5) and the
//! most-profitable-first (MPF) rank order (Definition 6).
//!
//! `r` is ranked higher than `r'` by, in order:
//!
//! 1. larger recommendation profit `Prof_re`;
//! 2. larger support (generality);
//! 3. smaller body (simplicity);
//! 4. earlier generation (totality of order).
//!
//! Confidence is not a criterion — it is already factored into `Prof_re`
//! (and under [`ProfitMode::Confidence`] `Prof_re` *is* confidence).

use crate::extend::HeadId;
use crate::interner::GsId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Test-only fault injection for the differential oracle harness.
///
/// The harness must be able to prove it *would* catch a ranking bug; this
/// hook lets a test deliberately break the §3.2 tie-chain (swapping the
/// support and body-size criteria) without touching production code paths.
/// It is process-global — tests that enable it must run in their own
/// integration-test binary.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SWAP_SUPPORT_BODY_TIE: AtomicBool = AtomicBool::new(false);

    /// Enable or disable the swapped support/body-size tie-break.
    pub fn set_swap_support_body_tie(on: bool) {
        SWAP_SUPPORT_BODY_TIE.store(on, Ordering::Relaxed);
    }

    /// Whether the swapped tie-break is active.
    pub fn swap_support_body_tie() -> bool {
        SWAP_SUPPORT_BODY_TIE.load(Ordering::Relaxed)
    }
}

/// Which profit notion drives ranking and pruning.
///
/// The paper's `PROF` recommenders use the real generated profit
/// `p(r, t)`; the `CONF` baselines use the *binary* profit (`1` per hit),
/// which turns recommendation profit into plain confidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ProfitMode {
    /// Real dollars — `PROF±MOA`.
    #[default]
    Profit,
    /// Binary hit indicator — `CONF±MOA`.
    Confidence,
}

/// One mined rule `{g₁…g_k} → ⟨I, P⟩` with its observed statistics.
///
/// `hits` doubles as the rule's support count: a transaction supports the
/// rule exactly when its body matches the non-target sales *and* the head
/// generalizes the target sale — which is also the definition of a hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Body: sorted generalized-sale ids, none generalizing another.
    pub body: Vec<GsId>,
    /// Head: a `(target item, code)` pair id.
    pub head: HeadId,
    /// `N` — number of training transactions matched by the body.
    pub body_count: u32,
    /// Number of matched transactions whose target sale the head
    /// generalizes (= the rule's support count).
    pub hits: u32,
    /// `Prof_ru` — total generated profit `Σ_t p(r, t)` in dollars, under
    /// the miner's quantity model.
    pub profit: f64,
    /// Generation sequence number — the paper's final tie-breaker
    /// ("generated before").
    pub gen_index: u32,
}

impl Rule {
    /// Support count `|matched(G ∪ {g})|`.
    pub fn support_count(&self) -> u32 {
        self.hits
    }

    /// `Conf(G → g)` — hits over body matches.
    pub fn confidence(&self) -> f64 {
        if self.body_count == 0 {
            0.0
        } else {
            self.hits as f64 / self.body_count as f64
        }
    }

    /// `Prof_ru` under the given mode (real dollars, or hit count).
    pub fn rule_profit(&self, mode: ProfitMode) -> f64 {
        match mode {
            ProfitMode::Profit => self.profit,
            ProfitMode::Confidence => self.hits as f64,
        }
    }

    /// `Prof_re = Prof_ru / N` — profit per recommendation.
    pub fn recommendation_profit(&self, mode: ProfitMode) -> f64 {
        if self.body_count == 0 {
            0.0
        } else {
            self.rule_profit(mode) / self.body_count as f64
        }
    }

    /// Body length `|body(r)|`.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }
}

/// The MPF rank keys of one rule under one profit mode, in criterion
/// order. Built from a [`Rule`], or from the raw statistics of a rule
/// the miner has not materialized yet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankKey {
    /// `Prof_re` under the mode.
    pub(crate) prof_re: f64,
    /// Support count.
    pub(crate) support: u32,
    /// Body length.
    pub(crate) body_len: usize,
    /// Generation index.
    pub(crate) gen_index: u32,
}

impl RankKey {
    pub(crate) fn of(r: &Rule, mode: ProfitMode) -> Self {
        Self {
            prof_re: r.recommendation_profit(mode),
            support: r.support_count(),
            body_len: r.body_len(),
            gen_index: r.gen_index,
        }
    }

    /// `Ordering::Greater` means `self` is ranked **higher**.
    pub(crate) fn rank_cmp(&self, other: &Self) -> Ordering {
        let primary = self.prof_re.total_cmp(&other.prof_re);
        if test_hooks::swap_support_body_tie() {
            // Injected bug (tests only): simplicity before generality.
            return primary
                .then_with(|| other.body_len.cmp(&self.body_len))
                .then_with(|| self.support.cmp(&other.support))
                .then_with(|| other.gen_index.cmp(&self.gen_index));
        }
        primary
            // Generality: larger support ranks higher.
            .then_with(|| self.support.cmp(&other.support))
            // Simplicity: smaller body ranks higher.
            .then_with(|| other.body_len.cmp(&self.body_len))
            // Totality: earlier generation ranks higher.
            .then_with(|| other.gen_index.cmp(&self.gen_index))
    }
}

/// Compare two rules by MPF rank under `mode`.
/// `Ordering::Greater` means `a` is ranked **higher** than `b`.
pub fn mpf_cmp(a: &Rule, b: &Rule, mode: ProfitMode) -> Ordering {
    RankKey::of(a, mode).rank_cmp(&RankKey::of(b, mode))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> Rule {
        Rule {
            body: vec![GsId(1), GsId(4)],
            head: HeadId(0),
            body_count: 40,
            hits: 30,
            profit: 120.0,
            gen_index: 7,
        }
    }

    #[test]
    fn measures() {
        let r = rule();
        assert_eq!(r.support_count(), 30);
        assert!((r.confidence() - 0.75).abs() < 1e-12);
        assert_eq!(r.rule_profit(ProfitMode::Profit), 120.0);
        assert_eq!(r.rule_profit(ProfitMode::Confidence), 30.0);
        assert!((r.recommendation_profit(ProfitMode::Profit) - 3.0).abs() < 1e-12);
        // Binary recommendation profit is exactly confidence.
        assert!((r.recommendation_profit(ProfitMode::Confidence) - r.confidence()).abs() < 1e-12);
        assert_eq!(r.body_len(), 2);
    }

    #[test]
    fn zero_body_count_is_safe() {
        let mut r = rule();
        r.body_count = 0;
        assert_eq!(r.confidence(), 0.0);
        assert_eq!(r.recommendation_profit(ProfitMode::Profit), 0.0);
    }
}
