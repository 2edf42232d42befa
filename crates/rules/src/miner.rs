//! The vertical generalized-rule miner (§3.1).
//!
//! See the crate docs for the strategy. The enumeration is exhaustive: a
//! rule `{g₁…g_k} → h` with `k ≤ max_body_len` is emitted **iff** its
//! support count (= hit count) reaches the minimum support and its body
//! violates no generalization constraint — exactly the rule set the
//! paper's multi-level miner produces, modulo the optional confidence and
//! rule-profit thresholds.

use crate::extend::{pos_part, ExtendedData, HeadId};
use crate::interner::{GsId, GsInterner};
use crate::rule::{ProfitMode, RankKey, Rule};
use crate::tidset::{intersect_into, TidPolicy, TidScratch, TidSet, TidView};
use pm_txn::{
    CodeId, GenSale, Hierarchy, ItemId, Moa, QuantityModel, TargetFilter, TransactionSet,
};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A minimum-support threshold, as a fraction of the transactions or an
/// absolute count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Support {
    /// Fraction in `(0, 1]` of the transaction count.
    Fraction(f64),
    /// Absolute transaction count.
    Count(u32),
}

impl Support {
    /// Fraction constructor with validation.
    pub fn fraction(f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "support fraction must be in (0,1]");
        Support::Fraction(f)
    }

    /// Count constructor.
    pub fn count(c: u32) -> Self {
        assert!(c >= 1, "support count must be ≥ 1");
        Support::Count(c)
    }

    /// Resolve to an absolute count for `n` transactions: the smallest
    /// count covering the fraction, clamped to `[1, n]` (counts pass
    /// through, clamped to at least 1).
    ///
    /// The fraction product is computed with a relative tolerance before
    /// the ceiling: `0.003 * 1000` evaluates to `3.0000000000000004` in
    /// f64, and a naive ceiling would silently require 4 transactions
    /// where the paper's `minsup = 0.3%` means 3.
    pub fn to_count(&self, n: usize) -> u32 {
        match *self {
            Support::Fraction(f) => {
                let target = f * n as f64;
                // One part in 10¹² absorbs product rounding while staying
                // far below any intentional fractional part.
                let tol = target.abs() * 1e-12 + 1e-12;
                let c = (target - tol).ceil().max(1.0);
                let c = if c >= u32::MAX as f64 {
                    u32::MAX
                } else {
                    c as u32
                };
                c.min(n.max(1).min(u32::MAX as usize) as u32)
            }
            Support::Count(c) => c.max(1),
        }
    }
}

/// Whether `MOA(H)` generalization is applied (the paper's `±MOA` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MoaMode {
    /// Generalize promotion codes along favorability (`+MOA`).
    #[default]
    Enabled,
    /// Exact-code matching only (`−MOA`).
    Disabled,
}

/// Whether the DFS cuts subtrees with the anti-monotone profit/support
/// upper bound (see DESIGN.md §14). An execution detail like
/// [`TidPolicy`]: the bound only cuts subtrees that provably emit
/// nothing, so mined output is byte-identical at every setting.
/// Production mining always uses [`PrunePolicy::Upper`]; `Off` is
/// reachable only through [`RuleMiner::with_prune`], as the in-process
/// axis of the differential oracle and `mining_is_prune_policy_invariant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrunePolicy {
    /// Enumerate every frequent candidate body (the legacy behavior).
    Off,
    /// Cut DFS subtrees whose per-head hit counts and positive-part
    /// profit sums prove that no descendant body can pass the emission
    /// filters.
    #[default]
    Upper,
}

/// Miner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinerConfig {
    /// Minimum rule support (mandatory — it drives the Apriori pruning).
    pub min_support: Support,
    /// Maximum body length. The paper leaves bodies unbounded; 4 keeps the
    /// 100K-transaction sweeps tractable (see DESIGN.md §4).
    pub max_body_len: usize,
    /// `±MOA`.
    pub moa: MoaMode,
    /// Quantity estimation for `p(r, t)` (saving / buying MOA).
    pub quantity: QuantityModel,
    /// Optional minimum confidence.
    pub min_confidence: Option<f64>,
    /// Optional minimum rule profit (dollars).
    pub min_rule_profit: Option<f64>,
    /// Skip rules that the run's default rule outranks under both profit
    /// modes (by the §3.2 rank, against the in-target default rule of a
    /// targeted run) — they are dominated before the covering tree is
    /// ever built (§4.1), so every model, in either mode, is unchanged
    /// while MOA rule sets stay orders of magnitude smaller. Disable
    /// only to inspect the raw mined universe.
    pub prune_default_dominated: bool,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            min_support: Support::Fraction(0.001),
            max_body_len: 4,
            moa: MoaMode::Enabled,
            quantity: QuantityModel::Saving,
            min_confidence: None,
            min_rule_profit: None,
            prune_default_dominated: true,
        }
    }
}

/// The rule miner.
#[derive(Debug, Clone, Default)]
pub struct RuleMiner {
    config: MinerConfig,
    /// Worker threads for the mining fan-out: `0` = all cores, `1` =
    /// inline on the calling thread. Not part of [`MinerConfig`] —
    /// thread count is an execution detail, never a modeling choice,
    /// and the output is bit-identical at every setting.
    threads: usize,
    /// Tidset representation policy. Like `threads`, an execution detail
    /// kept out of [`MinerConfig`]: mined output is byte-identical under
    /// every policy, only the set-algebra kernels change.
    tidset: TidPolicy,
    /// Upper-bound pruning policy. A third execution detail: the bound
    /// only cuts subtrees that provably emit nothing, so mined output is
    /// byte-identical with pruning on or off.
    prune: PrunePolicy,
    /// Targeted mining (TargetUM-flavored): restrict the head domain to
    /// this filter. Mining with a target is byte-identical to mining
    /// without one and dropping every rule whose head falls outside it
    /// (gen indices renumbered); the DFS additionally prunes subtrees
    /// none of whose attainable heads are in the target. Kept out of
    /// [`MinerConfig`] (like the execution knobs, but for a different
    /// reason): the saved model embeds no `MinerConfig`, and keeping the
    /// config `Copy` matters to every call site that loops over
    /// configurations.
    target: Option<TargetFilter>,
    /// Per-item minimum rule-profit floors, generalizing the scalar
    /// `min_rule_profit`: a head on a listed item uses its entry as the
    /// `Prof_ru` admission floor instead of the scalar one.
    item_floors: Vec<(ItemId, f64)>,
}

impl RuleMiner {
    /// A miner with the given configuration, using all cores (see
    /// [`Self::with_threads`]).
    pub fn new(config: MinerConfig) -> Self {
        Self {
            config,
            threads: 0,
            tidset: TidPolicy::Adaptive,
            prune: PrunePolicy::Upper,
            target: None,
            item_floors: Vec::new(),
        }
    }

    /// Set the worker thread count of the anchor fan-out: `0` = all
    /// cores, `1` = the same jobs run inline on the calling thread.
    /// Mining output is guaranteed bit-identical across thread counts;
    /// the §3.2 generation-order tie-break is preserved by merging
    /// per-anchor rule buffers in anchor order and renumbering.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the tidset representation policy (default
    /// [`TidPolicy::Adaptive`]). Mining output is byte-identical under
    /// every policy.
    pub fn with_tidset(mut self, tidset: TidPolicy) -> Self {
        self.tidset = tidset;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The configured worker thread count (`0` = all cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured tidset policy.
    pub fn tidset(&self) -> TidPolicy {
        self.tidset
    }

    /// Set the upper-bound pruning policy (default
    /// [`PrunePolicy::Upper`]). Mining output is byte-identical under
    /// every policy.
    pub fn with_prune(mut self, prune: PrunePolicy) -> Self {
        self.prune = prune;
        self
    }

    /// The configured pruning policy.
    pub fn prune(&self) -> PrunePolicy {
        self.prune
    }

    /// Restrict mining to rule heads inside `target` (`None` clears the
    /// restriction). Mining with a target is byte-identical to mining
    /// without one and keeping only the in-target heads' rules, with
    /// generation indices renumbered; in-DFS it composes with the upper
    /// bound to skip subtrees with no attainable in-target head.
    pub fn with_target(mut self, target: Option<TargetFilter>) -> Self {
        self.target = target;
        self
    }

    /// The configured target filter.
    pub fn target(&self) -> Option<&TargetFilter> {
        self.target.as_ref()
    }

    /// Set per-item minimum rule-profit floors (dollars). A head whose
    /// item is listed uses its entry as the `Prof_ru` admission floor;
    /// unlisted items fall back to the scalar
    /// [`MinerConfig::min_rule_profit`] (or no floor at all).
    pub fn with_item_floors(mut self, floors: Vec<(ItemId, f64)>) -> Self {
        self.item_floors = floors;
        self
    }

    /// The configured per-item profit floors.
    pub fn item_floors(&self) -> &[(ItemId, f64)] {
        &self.item_floors
    }

    /// Mine `data`, producing rules plus the supporting structures the
    /// recommender builder needs.
    pub fn mine(&self, data: &TransactionSet) -> MinedRules {
        let moa = Moa::new(
            data.catalog_arc(),
            data.hierarchy_arc(),
            self.config.moa == MoaMode::Enabled,
        );
        let extended = {
            let _span = pm_obs::span("mine.extend");
            ExtendedData::build(data, &moa, self.config.quantity)
        };
        self.mine_extended(extended, moa)
    }

    /// Mine pre-extended data (lets callers reuse an extension). `moa`
    /// must be the view the extension was built with.
    pub fn mine_extended(&self, extended: ExtendedData, moa: Moa) -> MinedRules {
        let minsup = self.config.min_support.to_count(extended.n_transactions());
        let policy = self.tidset;
        let tidsets = {
            let _span = pm_obs::span("mine.tidsets");
            extended.tidsets(policy)
        };
        let sparse_n = tidsets.iter().filter(|t| t.is_sparse()).count() as u64;
        let dense_n = tidsets.len() as u64 - sparse_n;
        pm_obs::counter("miner.tidsets_sparse").add(sparse_n);
        pm_obs::counter("miner.tidsets_dense").add(dense_n);
        pm_obs::debug!(
            "mine.tidsets",
            total = tidsets.len(),
            sparse = sparse_n,
            dense = dense_n,
            policy = format!("{policy:?}")
        );
        let floor = self
            .config
            .prune_default_dominated
            .then(|| DefaultFloor::new(&extended, moa.hierarchy(), self.target.as_ref()))
            .flatten();
        let lattice = self.lattice(&extended, &tidsets, moa.hierarchy(), minsup);
        let anchors: Vec<usize> = (0..lattice.freq.len()).collect();
        let per_anchor = self.mine_anchors(&lattice, &anchors, floor);
        // Cold emission order: every anchor's level-1 rules, then every
        // anchor's deeper rules.
        let total = per_anchor.iter().map(|(l, d)| l.len() + d.len()).sum();
        let mut rules: Vec<Rule> = Vec::with_capacity(total);
        let mut deeper = Vec::with_capacity(per_anchor.len());
        for (level1, d) in per_anchor {
            rules.extend(level1);
            deeper.push(d);
        }
        for d in deeper {
            rules.extend(d);
        }
        number_rules(&mut rules);
        pm_obs::info!(
            "mine.done",
            rules = rules.len(),
            minsup = minsup,
            threads = pm_par::resolve(self.threads),
            freq_singletons = lattice.freq.len(),
            prune = self.prune == PrunePolicy::Upper
        );
        drop(lattice);
        MinedRules {
            config: self.config,
            min_support_count: minsup,
            rules,
            extended,
            tidsets,
            tid_policy: policy,
            moa,
            target: self.target.clone(),
        }
    }

    /// The search space of one mining run at support count `minsup`:
    /// the frequent singletons, their pair table and the per-head
    /// admission gates.
    pub(crate) fn lattice<'a>(
        &self,
        extended: &'a ExtendedData,
        tidsets: &'a [TidSet],
        hierarchy: &Hierarchy,
        minsup: u32,
    ) -> Lattice<'a> {
        let freq: Vec<GsId> = (0..extended.n_gs() as u32)
            .map(GsId)
            .filter(|g| tidsets[g.index()].count() >= minsup as usize)
            .collect();
        let pairs = (self.config.max_body_len >= 2 && freq.len() >= 2).then(|| {
            let _span = pm_obs::span("mine.generate");
            PairCounts::count_with_threads(extended, &freq, pm_par::resolve(self.threads))
        });
        let gates = HeadGates::resolve(
            self.target.as_ref(),
            &self.item_floors,
            self.config.min_rule_profit,
            &extended.heads,
            hierarchy,
        );
        Lattice {
            extended,
            tidsets,
            minsup,
            freq,
            pairs,
            gates,
        }
    }

    /// The mining fan-out: for each `anchors[i]` (an index into
    /// `lattice.freq`), the anchor's level-1 rule and its deeper DFS
    /// rules, returned in `anchors` order. One job per anchor runs on
    /// the configured worker threads (inline at one thread), each worker
    /// reusing one [`RuleEmitter`] and one intersection-scratch pool, so
    /// the DFS performs no per-node heap allocation. Anchor costs are
    /// heavily skewed, and pm-par's dynamic claiming absorbs that.
    ///
    /// Each job's output depends only on its anchor, so the result is
    /// bit-identical at every thread count, down to the f64 summation
    /// order inside each rule's statistics. Generation indices are local
    /// to each buffer; callers renumber the assembled list.
    pub(crate) fn mine_anchors(
        &self,
        lattice: &Lattice<'_>,
        anchors: &[usize],
        floor: Option<DefaultFloor>,
    ) -> Vec<(Vec<Rule>, Vec<Rule>)> {
        let _span = pm_obs::span("mine.dfs");
        let prune = self.prune == PrunePolicy::Upper;
        let new_state = || {
            (
                RuleEmitter::new(
                    lattice.extended,
                    &self.config,
                    &lattice.gates,
                    lattice.minsup,
                    floor,
                    prune,
                ),
                TidScratch::new(
                    lattice.extended.n_transactions(),
                    self.config.max_body_len.saturating_sub(1),
                ),
            )
        };
        let threads = pm_par::resolve(self.threads);
        pm_par::par_map_init(
            anchors.len(),
            threads,
            new_state,
            |(emitter, scratch), i| {
                let ai = anchors[i];
                let a = lattice.freq[ai];
                let ts = &lattice.tidsets[a.index()];
                emitter.emit(&[a], ts.view(), ts.count() as u32);
                let level1 = emitter.take_rules();
                self.extend_anchor(emitter, scratch, lattice, ai);
                (level1, emitter.take_rules())
            },
        )
    }

    /// Level-2 extension and deeper DFS for the single anchor
    /// `freq[ai]`, whose singleton rule the emitter has just emitted:
    /// builds the anchor's candidate list (pair-frequent, no
    /// generalization relation), emits every frequent pair, and recurses
    /// while `max_body_len` allows. Emission order within an anchor is
    /// fixed (candidates ascending, depth-first).
    fn extend_anchor(
        &self,
        emitter: &mut RuleEmitter<'_>,
        scratch: &mut TidScratch,
        lattice: &Lattice<'_>,
        ai: usize,
    ) {
        let Some(pairs) = &lattice.pairs else {
            return;
        };
        let (freq, tidsets, minsup) = (&lattice.freq, lattice.tidsets, lattice.minsup);
        let interner = &emitter.extended.interner;
        let a = freq[ai];
        let cands: Vec<usize> = (ai + 1..freq.len())
            .filter(|&bi| pairs.get(ai, bi) >= minsup && !interner.related(a, freq[bi]))
            .collect();
        if cands.is_empty() {
            return;
        }
        // Anchor-level cut: every body below this anchor has a tidset
        // contained in the anchor's, so the scan the singleton's emission
        // just made bounds all of them at once — an infeasible anchor
        // skips its entire pair loop without a single intersection.
        if emitter.prune && !emitter.subtree_viable(1) {
            return;
        }
        for (pos, &bi) in cands.iter().enumerate() {
            let b = freq[bi];
            // The pair table already proved this candidate frequent, so
            // the `minsup` bound can never trigger the early exit here.
            let count = intersect_into(
                tidsets[a.index()].view(),
                tidsets[b.index()].view(),
                scratch.pair_level(),
                minsup,
                self.tidset,
            )
            .expect("pair candidates are pair-frequent");
            debug_assert_eq!(count, pairs.get(ai, bi));
            let out_view = scratch.level(0).view();
            if matches!(out_view, TidView::Sparse(_)) != tidsets[a.index()].is_sparse() {
                emitter.switches += 1;
            }
            emitter.emit(&[a, b], out_view, count);
            if self.config.max_body_len >= 3 {
                if emitter.prune && !emitter.subtree_viable(2) {
                    continue;
                }
                let interner = &emitter.extended.interner;
                let deeper: Vec<usize> = cands[pos + 1..]
                    .iter()
                    .copied()
                    .filter(|&ci| pairs.get(bi, ci) >= minsup && !interner.related(b, freq[ci]))
                    .collect();
                self.dfs(
                    emitter,
                    scratch,
                    lattice,
                    pairs,
                    &mut vec![a, b],
                    1,
                    &deeper,
                );
            }
        }
    }

    /// Depth-first extension of `body` with the (pre-filtered) dense
    /// candidate indices `cands`. The parent tidset lives in the scratch
    /// buffer at `depth - 1` (the pair level is depth 0); each child
    /// intersection is written to the buffer at `depth` with the
    /// `minsup` early-exit bound, so infrequent children are abandoned
    /// mid-loop without materializing their tidsets.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        emitter: &mut RuleEmitter<'_>,
        scratch: &mut TidScratch,
        lattice: &Lattice<'_>,
        pairs: &PairCounts,
        body: &mut Vec<GsId>,
        depth: usize,
        cands: &[usize],
    ) {
        let (freq, tidsets, minsup) = (&lattice.freq, lattice.tidsets, lattice.minsup);
        for (pos, &ci) in cands.iter().enumerate() {
            let c = freq[ci];
            let (parent, out) = scratch.parent_and_out(depth);
            let parent_sparse = matches!(parent.view(), TidView::Sparse(_));
            let Some(count) = intersect_into(
                parent.view(),
                tidsets[c.index()].view(),
                out,
                minsup,
                self.tidset,
            ) else {
                emitter.pruned += 1;
                continue;
            };
            body.push(c);
            let out_view = scratch.level(depth).view();
            if matches!(out_view, TidView::Sparse(_)) != parent_sparse {
                emitter.switches += 1;
            }
            emitter.emit(body, out_view, count);
            if body.len() < self.config.max_body_len
                && (!emitter.prune || emitter.subtree_viable(body.len()))
            {
                let interner = &emitter.extended.interner;
                let deeper: Vec<usize> = cands[pos + 1..]
                    .iter()
                    .copied()
                    .filter(|&di| pairs.get(ci, di) >= minsup && !interner.related(c, freq[di]))
                    .collect();
                self.dfs(emitter, scratch, lattice, pairs, body, depth + 1, &deeper);
            }
            body.pop();
        }
    }
}

/// One mining run's search space (see [`RuleMiner::lattice`]).
pub(crate) struct Lattice<'a> {
    extended: &'a ExtendedData,
    tidsets: &'a [TidSet],
    minsup: u32,
    /// Frequent singletons at `minsup`, ascending `GsId`: the anchors.
    pub(crate) freq: Vec<GsId>,
    /// Pair counts over `freq`; `None` when no body reaches length 2.
    pairs: Option<PairCounts>,
    gates: HeadGates,
}

/// Assign generation indices over an assembled rule list — the §3.2
/// final tie-break — and publish its size.
pub(crate) fn number_rules(rules: &mut [Rule]) {
    for (i, r) in rules.iter_mut().enumerate() {
        r.gen_index = i as u32;
    }
    pm_obs::gauge("miner.rules").set(rules.len() as i64);
}

/// The default-dominance floor (§4.1). The default rule `∅ → g` is
/// more general than every mined rule, so a rule it outranks is
/// dominated and can never be a recommendation rule, at this or any
/// higher minimum support. The floor keeps a rule exactly when it
/// outranks the run's default rule — the one [`MinedRules::default_rule`]
/// returns, restricted to the target — under at least one profit mode,
/// by the MPF comparator itself: the rule set `pm-eval` builds both
/// modes from loses nothing, and no model changes. One predicate serves
/// emission, the DFS bound and incremental assembly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DefaultFloor {
    /// Rank keys of the default rule under [`FLOOR_MODES`].
    keys: [RankKey; 2],
}

/// The profit modes the floor serves, in [`DefaultFloor::keys`] order.
const FLOOR_MODES: [ProfitMode; 2] = [ProfitMode::Profit, ProfitMode::Confidence];

impl DefaultFloor {
    /// The floor of a run over `extended` under `target`; `None` when
    /// there are no heads (and so no rules).
    pub(crate) fn new(
        extended: &ExtendedData,
        hierarchy: &Hierarchy,
        target: Option<&TargetFilter>,
    ) -> Option<Self> {
        let key =
            |mode| default_rule(extended, hierarchy, target, mode).map(|d| RankKey::of(&d, mode));
        Some(Self {
            keys: [key(FLOOR_MODES[0])?, key(FLOOR_MODES[1])?],
        })
    }

    /// Does a rule with `Prof_re` `prof_re[m]` under `FLOOR_MODES[m]`,
    /// `hits` hits and a `body_len`-element body outrank the default
    /// rule under at least one mode? Given upper bounds on `Prof_re` and
    /// hits, it decides whether any rule within those bounds can.
    fn admits(&self, prof_re: [f64; 2], hits: u32, body_len: usize) -> bool {
        self.keys.iter().zip(prof_re).any(|(default, prof_re)| {
            let key = RankKey {
                prof_re,
                support: hits,
                body_len,
                // Mined rules are generated before the default rule.
                gen_index: 0,
            };
            key.rank_cmp(default) == Ordering::Greater
        })
    }

    /// [`Self::admits`] for a mined rule.
    pub(crate) fn admits_rule(&self, r: &Rule) -> bool {
        self.admits(
            FLOOR_MODES.map(|m| r.recommendation_profit(m)),
            r.hits,
            r.body_len(),
        )
    }
}

/// The default rule `∅ → g` of a run over `extended` under `mode` (see
/// [`MinedRules::default_rule`]); `None` when there are no heads.
fn default_rule(
    extended: &ExtendedData,
    hierarchy: &Hierarchy,
    target: Option<&TargetFilter>,
    mode: ProfitMode,
) -> Option<Rule> {
    let (hits, profit) = (&extended.head_hits, &extended.head_profit);
    let score = |i: usize| match mode {
        ProfitMode::Profit => profit[i],
        ProfitMode::Confidence => hits[i] as f64,
    };
    let h = extended.n_heads();
    let in_target: Vec<usize> = (0..h)
        .filter(|&i| {
            target.is_none_or(|t| {
                let (item, code) = extended.heads[i];
                t.matches(hierarchy, item, code)
            })
        })
        .collect();
    let domain: Vec<usize> = if in_target.is_empty() {
        (0..h).collect()
    } else {
        in_target
    };
    // total_cmp, not partial_cmp().expect(): a NaN profit (e.g. a
    // degenerate 0/0 somewhere upstream) must not panic the miner;
    // under the total order NaN sorts above +∞ on the `max_by` probe,
    // which still yields a deterministic head.
    let best = domain
        .into_iter()
        .max_by(|&a, &b| score(a).total_cmp(&score(b)))?;
    Some(Rule {
        body: Vec::new(),
        head: HeadId(best as u32),
        body_count: extended.n_transactions() as u32,
        hits: hits[best],
        profit: profit[best],
        gen_index: u32::MAX,
    })
}

/// Per-depth `mine.ub_pruned` counter names, indexed by the scanned
/// body's length (cuts at depth ≥ 4 share the last bucket).
const UB_DEPTH_NAMES: [&str; 4] = [
    "mine.ub_pruned.d1",
    "mine.ub_pruned.d2",
    "mine.ub_pruned.d3",
    "mine.ub_pruned.d4plus",
];

/// Test hooks for injected-bug sensitivity tests (see
/// `tests/differential_injected_target_bug.rs`). Not part of the public
/// API contract.
pub mod test_hooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When set, [`super::HeadGates::resolve`] deliberately mis-scopes
    /// the target filter by admitting the first out-of-target head — the
    /// differential suite must catch the leak.
    pub(crate) static MISSCOPE_TARGET: AtomicBool = AtomicBool::new(false);

    /// Enable/disable the mis-scoped-target bug injection.
    pub fn set_misscope_target(on: bool) {
        MISSCOPE_TARGET.store(on, Ordering::SeqCst);
    }

    /// Is the mis-scoped-target bug injection enabled?
    pub fn misscope_target() -> bool {
        MISSCOPE_TARGET.load(Ordering::SeqCst)
    }
}

/// Per-head admission gates: the target-filter mask plus the effective
/// per-head `Prof_ru` floor, resolved once per mining run from the
/// miner's [`TargetFilter`], per-item floors, and the scalar
/// [`MinerConfig::min_rule_profit`].
///
/// The scalar-only resolution (`floor = [mp; n_heads]`, `node_floor =
/// mp`, no mask) makes every emitter comparison bitwise identical to the
/// pre-gate code (`profit < mp`, `node_ub < mp`), so untargeted
/// scalar-floor runs are byte-for-byte unchanged.
struct HeadGates {
    /// Per-head admission mask; `None` admits every head.
    mask: Option<Vec<bool>>,
    /// Per-head `Prof_ru` floor; `None` when no scalar floor and no
    /// per-item floors are configured (heads without an applicable floor
    /// get `NEG_INFINITY`, which never filters).
    floor: Option<Vec<f64>>,
    /// Minimum floor over admitted heads — the only sound threshold for
    /// the transaction-level `node_ub` short-circuit, since the node cut
    /// must not fire while ANY admitted head could still pass its own
    /// floor. `None` when some admitted head is floorless (the cut would
    /// be unsound) or no floors exist at all; `+∞` when the mask admits
    /// nothing (every subtree is then correctly infeasible).
    node_floor: Option<f64>,
}

impl HeadGates {
    fn resolve(
        target: Option<&TargetFilter>,
        item_floors: &[(ItemId, f64)],
        scalar: Option<f64>,
        heads: &[(ItemId, CodeId)],
        hierarchy: &Hierarchy,
    ) -> Self {
        let mut mask = target.map(|t| {
            heads
                .iter()
                .map(|&(item, code)| t.matches(hierarchy, item, code))
                .collect::<Vec<bool>>()
        });
        if test_hooks::misscope_target() {
            // Injected bug: leak the first out-of-target head.
            if let Some(m) = &mut mask {
                if let Some(slot) = m.iter_mut().find(|a| !**a) {
                    *slot = true;
                }
            }
        }
        let floor = if scalar.is_none() && item_floors.is_empty() {
            None
        } else {
            Some(
                heads
                    .iter()
                    .map(|&(item, _)| {
                        item_floors
                            .iter()
                            .find(|(i, _)| *i == item)
                            .map(|&(_, f)| f)
                            .or(scalar)
                            .unwrap_or(f64::NEG_INFINITY)
                    })
                    .collect::<Vec<f64>>(),
            )
        };
        let node_floor = floor.as_ref().and_then(|floors| {
            let min = floors
                .iter()
                .enumerate()
                .filter(|&(hi, _)| mask.as_ref().is_none_or(|m| m[hi]))
                .fold(f64::INFINITY, |acc, (_, &f)| acc.min(f));
            (min > f64::NEG_INFINITY).then_some(min)
        });
        Self {
            mask,
            floor,
            node_floor,
        }
    }

    /// Is the head admitted by the target filter?
    #[inline]
    fn admits(&self, hi: usize) -> bool {
        match &self.mask {
            None => true,
            Some(m) => m[hi],
        }
    }

    /// The head's effective `Prof_ru` floor, if any floor is configured.
    #[inline]
    fn floor_of(&self, hi: usize) -> Option<f64> {
        self.floor.as_ref().map(|f| f[hi])
    }
}

/// Head accumulation + rule emission with a generation-stamp trick so the
/// dense per-head arrays are never cleared.
struct RuleEmitter<'a> {
    extended: &'a ExtendedData,
    config: &'a MinerConfig,
    /// Target mask + per-head profit floors (see [`HeadGates`]).
    gates: &'a HeadGates,
    minsup: u32,
    /// The default-dominance floor; `None` keeps every rule.
    floor: Option<DefaultFloor>,
    /// Upper-bound pruning on ([`PrunePolicy::Upper`]).
    prune: bool,
    /// Pruning needs a dedicated positive-part accumulator: some margin
    /// is negative or NaN, so `head_profit` is not its own positive
    /// part. When clear (the common case — `ExtendedData::
    /// nonneg_margins`), the scan loop stays byte-for-byte the unpruned
    /// one and `viable` reads `head_profit` directly.
    track_pos: bool,
    /// Pruning needs the transaction-level margin bound: a
    /// `min_rule_profit` filter is configured, which is the only
    /// consumer of [`Self::node_ub`].
    track_ub: bool,
    stamp: u32,
    head_stamp: Vec<u32>,
    head_hits: Vec<u32>,
    head_profit: Vec<f64>,
    /// Positive-part profit sums per head (same stamp discipline as
    /// `head_profit`; only maintained when `prune`). For any descendant
    /// body its per-head profit sum cannot exceed this, even at the f64
    /// bit level: the descendant sums a subsequence of term-wise smaller
    /// values, and round-to-nearest accumulation of nonnegative terms is
    /// monotone in both.
    head_pos: Vec<f64>,
    /// Σ `txn_max_margin` over the last scanned tidset (only when
    /// `prune`): the transaction-level TWU-style bound dominating every
    /// head's `head_pos`.
    node_ub: f64,
    touched: Vec<HeadId>,
    rules: Vec<Rule>,
    /// Candidates abandoned by the `minsup` early exit in the DFS.
    /// Accumulated locally (one plain add per pruned candidate) and
    /// flushed to the global `miner.candidates_pruned` counter when the
    /// emitter drops, so the hot loop never touches an atomic.
    pruned: u64,
    /// Tidset representation changes (dense↔sparse) between a parent
    /// tidset and the intersection written from it; flushed to
    /// `miner.tidset_switches` on drop.
    switches: u64,
    /// Upper-bound viability evaluations; flushed to
    /// `mine.ub_evaluated` on drop.
    ub_evaluated: u64,
    /// Subtrees cut by the upper bound; flushed to `mine.ub_pruned`
    /// (total) and `mine.ub_pruned.d*` (per scanned-body depth) on drop.
    ub_pruned: u64,
    ub_pruned_depth: [u64; UB_DEPTH_NAMES.len()],
}

impl Drop for RuleEmitter<'_> {
    // The flush must run on every exit path — including a worker whose
    // DFS terminated early because the anchor cut pruned its entire
    // subtree — so it lives in Drop.
    fn drop(&mut self) {
        if self.pruned != 0 {
            pm_obs::counter("miner.candidates_pruned").add(self.pruned);
        }
        if self.switches != 0 {
            pm_obs::counter("miner.tidset_switches").add(self.switches);
        }
        if self.ub_evaluated != 0 {
            pm_obs::counter("mine.ub_evaluated").add(self.ub_evaluated);
        }
        if self.ub_pruned != 0 {
            pm_obs::counter("mine.ub_pruned").add(self.ub_pruned);
        }
        for (d, &c) in self.ub_pruned_depth.iter().enumerate() {
            if c != 0 {
                pm_obs::counter(UB_DEPTH_NAMES[d]).add(c);
            }
        }
    }
}

impl<'a> RuleEmitter<'a> {
    fn new(
        extended: &'a ExtendedData,
        config: &'a MinerConfig,
        gates: &'a HeadGates,
        minsup: u32,
        floor: Option<DefaultFloor>,
        prune: bool,
    ) -> Self {
        let h = extended.n_heads();
        let track_pos = prune && !extended.nonneg_margins;
        let track_ub = prune && gates.node_floor.is_some();
        Self {
            extended,
            config,
            gates,
            minsup,
            floor,
            prune,
            track_pos,
            track_ub,
            stamp: 0,
            head_stamp: vec![0; h],
            head_hits: vec![0; h],
            head_profit: vec![0.0; h],
            head_pos: vec![0.0; if track_pos { h } else { 0 }],
            node_ub: 0.0,
            touched: Vec::with_capacity(h),
            rules: Vec::new(),
            pruned: 0,
            switches: 0,
            ub_evaluated: 0,
            ub_pruned: 0,
            ub_pruned_depth: [0; UB_DEPTH_NAMES.len()],
        }
    }

    /// One pass over a body's tidset, filling the stamped per-head
    /// hit/profit accumulators (and, when pruning, the positive-part
    /// sums plus the transaction-level margin bound). `touched` is left
    /// unsorted; emission sorts it.
    fn scan(&mut self, tidset: TidView<'_>) {
        self.stamp += 1;
        self.touched.clear();
        if self.track_pos || self.track_ub {
            // The full bound-tracking path; rare (negative/NaN margins
            // or a min_rule_profit filter). `node_ub` is harmlessly
            // maintained even when only `track_pos` demands the pass.
            self.node_ub = 0.0;
            for tid in tidset.iter() {
                self.node_ub += self.extended.txn_max_margin[tid];
                for &(h, p) in &self.extended.txn_heads[tid] {
                    let hi = h.index();
                    if self.head_stamp[hi] != self.stamp {
                        self.head_stamp[hi] = self.stamp;
                        self.head_hits[hi] = 0;
                        self.head_profit[hi] = 0.0;
                        if self.track_pos {
                            self.head_pos[hi] = 0.0;
                        }
                        self.touched.push(h);
                    }
                    self.head_hits[hi] += 1;
                    self.head_profit[hi] += p;
                    if self.track_pos {
                        self.head_pos[hi] += pos_part(p);
                    }
                }
            }
        } else {
            for tid in tidset.iter() {
                for &(h, p) in &self.extended.txn_heads[tid] {
                    let hi = h.index();
                    if self.head_stamp[hi] != self.stamp {
                        self.head_stamp[hi] = self.stamp;
                        self.head_hits[hi] = 0;
                        self.head_profit[hi] = 0.0;
                        self.touched.push(h);
                    }
                    self.head_hits[hi] += 1;
                    self.head_profit[hi] += p;
                }
            }
        }
    }

    /// Can any body strictly below the last scanned one emit a rule?
    ///
    /// Every descendant's tidset is contained in the scanned one, so per
    /// head `hits' ≤ hits`, `profit' ≤ head_pos`, and `body_count' ≥
    /// hits' ≥ minsup` at emission time. The checks below apply the
    /// emission filters of [`Self::emit`] to those bounds with the exact
    /// same f64 expressions (`minsup` replacing the descendant's
    /// `body_count` wherever it appears in a denominator), so a head
    /// ruled out here is ruled out for every descendant at the bit
    /// level.
    fn viable(&self) -> bool {
        if let Some(nf) = self.gates.node_floor {
            // Transaction-level short-circuit: no head's profit sum on
            // any sub-tidset can exceed the summed max margins, and
            // every admitted head's floor is at least `node_floor`.
            if self.node_ub < nf {
                return false;
            }
        }
        let ms = self.minsup as f64;
        for &h in &self.touched {
            let hi = h.index();
            if !self.gates.admits(hi) {
                continue;
            }
            let hits = self.head_hits[hi];
            if hits < self.minsup {
                continue;
            }
            // With all-nonnegative margins, `head_profit` IS the
            // positive-part sum, bit for bit.
            let pos = if self.track_pos {
                self.head_pos[hi]
            } else {
                self.head_profit[hi]
            };
            if let Some(mp) = self.gates.floor_of(hi) {
                if pos < mp {
                    continue;
                }
            }
            let cu = (hits as f64 / ms).min(1.0);
            if let Some(mc) = self.config.min_confidence {
                if cu < mc {
                    continue;
                }
            }
            // Every descendant body is non-empty, so its body length
            // never wins the simplicity tie against the default rule.
            if self
                .floor
                .is_some_and(|f| !f.admits([pos / ms, cu], hits, 1))
            {
                continue;
            }
            return true;
        }
        false
    }

    /// Viability of the subtree below the body emitted last (the stamped
    /// arrays are still that body's), counting the evaluation and — on a
    /// cut — the pruned subtree at `depth` (the body's length).
    fn subtree_viable(&mut self, depth: usize) -> bool {
        self.ub_evaluated += 1;
        if self.viable() {
            true
        } else {
            self.ub_pruned += 1;
            self.ub_pruned_depth[(depth - 1).min(UB_DEPTH_NAMES.len() - 1)] += 1;
            false
        }
    }

    fn emit(&mut self, body: &[GsId], tidset: TidView<'_>, body_count: u32) {
        self.scan(tidset);
        self.touched.sort_unstable();
        for ti in 0..self.touched.len() {
            let h = self.touched[ti];
            if !self.gates.admits(h.index()) {
                continue;
            }
            let hits = self.head_hits[h.index()];
            if hits < self.minsup {
                continue;
            }
            let profit = self.head_profit[h.index()];
            let bc = body_count as f64;
            // `Rule::recommendation_profit` under each mode.
            if self
                .floor
                .is_some_and(|f| !f.admits([profit / bc, hits as f64 / bc], hits, body.len()))
            {
                continue;
            }
            if let Some(mc) = self.config.min_confidence {
                if (hits as f64 / body_count as f64) < mc {
                    continue;
                }
            }
            if let Some(mp) = self.gates.floor_of(h.index()) {
                if profit < mp {
                    continue;
                }
            }
            let gen_index = self.rules.len() as u32;
            self.rules.push(Rule {
                body: body.to_vec(),
                head: h,
                body_count,
                hits,
                profit,
                gen_index,
            });
        }
    }

    /// Drain the emitted rules, leaving the emitter's scratch arrays
    /// intact for reuse on the next work item. Generation indices in
    /// the returned buffer are local to this drain; assembly renumbers
    /// them globally.
    fn take_rules(&mut self) -> Vec<Rule> {
        std::mem::take(&mut self.rules)
    }
}

/// Pair-frequency table over the dense indices of the frequent
/// singletons: a triangular array when it fits, a hash map otherwise.
enum PairCounts {
    Tri(Vec<u32>),
    Map(std::collections::HashMap<(u32, u32), u32>),
}

/// Above this many frequent singletons the triangle would exceed ~500 MB;
/// fall back to hashing.
const TRI_LIMIT: usize = 16_384;

impl PairCounts {
    /// GsId → dense index over the frequent singletons.
    fn dense_map(extended: &ExtendedData, freq: &[GsId]) -> Vec<Option<u32>> {
        let mut dense: Vec<Option<u32>> = vec![None; extended.n_gs()];
        for (di, g) in freq.iter().enumerate() {
            dense[g.index()] = Some(di as u32);
        }
        dense
    }

    fn count(extended: &ExtendedData, freq: &[GsId]) -> Self {
        let f = freq.len();
        let dense = Self::dense_map(extended, freq);
        let mut counts = if f <= TRI_LIMIT {
            PairCounts::Tri(vec![0u32; f * (f.saturating_sub(1)) / 2])
        } else {
            PairCounts::Map(std::collections::HashMap::new())
        };
        let mut present: Vec<u32> = Vec::new();
        for gs in &extended.txn_gs {
            present.clear();
            present.extend(gs.iter().filter_map(|g| dense[g.index()]));
            // `gs` is sorted by GsId and `freq` is GsId-ascending, so
            // `present` is ascending too.
            for i in 0..present.len() {
                for j in i + 1..present.len() {
                    counts.bump(present[i] as usize, present[j] as usize);
                }
            }
        }
        counts
    }

    /// [`Self::count`] fanned out over `threads` workers. The triangle
    /// is shared as relaxed atomics — u32 addition commutes, so the
    /// result is exactly the sequential table regardless of scheduling.
    /// The rare hash-map fallback (> [`TRI_LIMIT`] frequent singletons)
    /// stays sequential rather than paying a per-worker map merge.
    fn count_with_threads(extended: &ExtendedData, freq: &[GsId], threads: usize) -> Self {
        use std::sync::atomic::{AtomicU32, Ordering};
        let f = freq.len();
        let n_txn = extended.txn_gs.len();
        if threads <= 1 || f > TRI_LIMIT || n_txn < 2 {
            return Self::count(extended, freq);
        }
        let dense = Self::dense_map(extended, freq);
        let tri_len = f * (f - 1) / 2;
        let counts: Vec<AtomicU32> = (0..tri_len).map(|_| AtomicU32::new(0)).collect();
        let chunks = pm_par::even_chunks(n_txn, threads * 8);
        pm_par::par_map(chunks.len(), threads, |ci| {
            let mut present: Vec<u32> = Vec::new();
            for gs in &extended.txn_gs[chunks[ci].clone()] {
                present.clear();
                present.extend(gs.iter().filter_map(|g| dense[g.index()]));
                for i in 0..present.len() {
                    for j in i + 1..present.len() {
                        let idx = Self::tri_index(present[i] as usize, present[j] as usize);
                        counts[idx].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
        PairCounts::Tri(counts.into_iter().map(AtomicU32::into_inner).collect())
    }

    #[inline]
    fn tri_index(lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        hi * (hi - 1) / 2 + lo
    }

    #[inline]
    fn bump(&mut self, lo: usize, hi: usize) {
        match self {
            PairCounts::Tri(v) => v[Self::tri_index(lo, hi)] += 1,
            PairCounts::Map(m) => *m.entry((lo as u32, hi as u32)).or_insert(0) += 1,
        }
    }

    #[inline]
    fn get(&self, a: usize, b: usize) -> u32 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        match self {
            PairCounts::Tri(v) => v[Self::tri_index(lo, hi)],
            PairCounts::Map(m) => m.get(&(lo as u32, hi as u32)).copied().unwrap_or(0),
        }
    }
}

/// The output of a mining run: rules plus everything the recommender
/// builder needs (interner, per-transaction head lists, singleton
/// tidsets).
#[derive(Debug, Clone)]
pub struct MinedRules {
    config: MinerConfig,
    min_support_count: u32,
    rules: Vec<Rule>,
    extended: ExtendedData,
    tidsets: Vec<TidSet>,
    tid_policy: TidPolicy,
    moa: Moa,
    /// The target filter the run mined under (`None` = untargeted). The
    /// default rule restricts its argmax to in-target heads.
    target: Option<TargetFilter>,
}

impl MinedRules {
    /// Assemble a result from pre-computed parts — the incremental
    /// miner's exit, which maintains the extension, tidsets and rule
    /// caches itself and only needs the container.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: MinerConfig,
        min_support_count: u32,
        rules: Vec<Rule>,
        extended: ExtendedData,
        tidsets: Vec<TidSet>,
        tid_policy: TidPolicy,
        moa: Moa,
        target: Option<TargetFilter>,
    ) -> Self {
        Self {
            config,
            min_support_count,
            rules,
            extended,
            tidsets,
            tid_policy,
            moa,
            target,
        }
    }

    /// The target filter this run mined under, if any.
    pub fn target(&self) -> Option<&TargetFilter> {
        self.target.as_ref()
    }

    /// The mined rules, in generation order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The miner configuration used.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The absolute minimum-support count this run used.
    pub fn min_support_count(&self) -> u32 {
        self.min_support_count
    }

    /// Number of transactions mined.
    pub fn n_transactions(&self) -> usize {
        self.extended.n_transactions()
    }

    /// The extended data (interner, head lists, …).
    pub fn extended(&self) -> &ExtendedData {
        &self.extended
    }

    /// The `MOA(H)` view the rules were mined under.
    pub fn moa(&self) -> &Moa {
        &self.moa
    }

    /// The interner.
    pub fn interner(&self) -> &GsInterner {
        &self.extended.interner
    }

    /// The head universe.
    pub fn heads(&self) -> &[(ItemId, CodeId)] {
        &self.extended.heads
    }

    /// The `(item, code)` pair of a head.
    pub fn head(&self, h: HeadId) -> (ItemId, CodeId) {
        self.extended.heads[h.index()]
    }

    /// A rule's body resolved to generalized sales, in the body's stored
    /// (ascending-id) order.
    pub fn resolve_body(&self, rule: &Rule) -> Vec<GenSale> {
        rule.body
            .iter()
            .map(|&g| self.extended.interner.resolve(g))
            .collect()
    }

    /// Iterate the mined rules with their bodies resolved to generalized
    /// sales and their heads to `(item, code)` pairs — the public
    /// comparison surface for differential testing against a reference
    /// implementation, which has no access to interner or head ids.
    pub fn resolved_rules(
        &self,
    ) -> impl Iterator<Item = (Vec<GenSale>, (ItemId, CodeId), &Rule)> + '_ {
        self.rules
            .iter()
            .map(|r| (self.resolve_body(r), self.head(r.head), r))
    }

    /// Singleton tidset of a generalized sale.
    pub fn gs_tidset(&self, g: GsId) -> &TidSet {
        &self.tidsets[g.index()]
    }

    /// The (resolved) tidset policy this run mined under.
    pub fn tid_policy(&self) -> TidPolicy {
        self.tid_policy
    }

    /// Tidset of a body (AND of singleton tidsets; the empty body matches
    /// every transaction).
    pub fn body_tidset(&self, body: &[GsId]) -> TidSet {
        match body.split_first() {
            None => TidSet::full(self.n_transactions()),
            Some((&first, rest)) => {
                let mut ts = self.tidsets[first.index()].clone();
                for g in rest {
                    ts = ts.intersection(&self.tidsets[g.index()], self.tid_policy);
                }
                ts
            }
        }
    }

    /// Indices of the rules that survive a (higher) minimum support. By
    /// Apriori monotonicity this equals re-mining at that support.
    pub fn rule_indices_at(&self, sup: Support) -> Vec<usize> {
        let count = sup.to_count(self.n_transactions());
        assert!(
            count >= self.min_support_count,
            "cannot lower support below the mined threshold ({} < {})",
            count,
            self.min_support_count
        );
        (0..self.rules.len())
            .filter(|&i| self.rules[i].hits >= count)
            .collect()
    }

    /// The default rule `∅ → g` (§3.1): over all transactions, the head
    /// maximizing `Prof_re(∅ → g)` under `mode`. Its `gen_index` is
    /// `u32::MAX` — conceptually generated after every mined rule, so it
    /// loses all tie-breaks. Under targeted mining the argmax is
    /// restricted to in-target heads, falling back to the full domain
    /// when the target admits no head at all (a recommender must always
    /// have an answer).
    pub fn default_rule(&self, mode: ProfitMode) -> Rule {
        default_rule(
            &self.extended,
            self.moa.hierarchy(),
            self.target.as_ref(),
            mode,
        )
        .expect("at least one head exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::mpf_cmp;
    use pm_txn::{Catalog, Hierarchy, ItemDef, Money, PromotionCode, Sale, Transaction};

    /// 8 transactions over 2 non-target items (2 codes each) and 1 target
    /// (2 codes). Constructed so that specific bodies predict specific
    /// heads.
    fn dataset() -> TransactionSet {
        dataset_with(Hierarchy::flat(3))
    }

    /// [`dataset`] with a caller-supplied hierarchy (for subtree-target
    /// tests, which need the target item below a concept).
    fn dataset_with(h: Hierarchy) -> TransactionSet {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            cat.push(ItemDef {
                name: name.into(),
                codes: vec![
                    PromotionCode::unit(Money::from_cents(100), Money::from_cents(50)),
                    PromotionCode::unit(Money::from_cents(120), Money::from_cents(50)),
                ],
                is_target: false,
            });
        }
        cat.push(ItemDef {
            name: "t".into(),
            codes: vec![
                PromotionCode::unit(Money::from_cents(500), Money::from_cents(300)),
                PromotionCode::unit(Money::from_cents(600), Money::from_cents(300)),
            ],
            is_target: true,
        });
        let a = ItemId(0);
        let b = ItemId(1);
        let t = ItemId(2);
        let mk = |nts: Vec<Sale>, tc: u16| Transaction::new(nts, Sale::new(t, CodeId(tc), 1));
        let txns = vec![
            mk(vec![Sale::new(a, CodeId(0), 1)], 0),
            mk(vec![Sale::new(a, CodeId(0), 1)], 0),
            mk(vec![Sale::new(a, CodeId(1), 1)], 1),
            mk(
                vec![Sale::new(a, CodeId(0), 1), Sale::new(b, CodeId(0), 1)],
                1,
            ),
            mk(
                vec![Sale::new(a, CodeId(1), 1), Sale::new(b, CodeId(0), 1)],
                1,
            ),
            mk(vec![Sale::new(b, CodeId(1), 1)], 0),
            mk(vec![Sale::new(b, CodeId(0), 1)], 1),
            mk(vec![Sale::new(b, CodeId(1), 1)], 0),
        ];
        TransactionSet::new(cat, h, txns).unwrap()
    }

    fn mine(min_count: u32, moa: MoaMode, max_len: usize) -> MinedRules {
        RuleMiner::new(MinerConfig {
            min_support: Support::Count(min_count),
            max_body_len: max_len,
            moa,
            prune_default_dominated: false,
            ..MinerConfig::default()
        })
        .mine(&dataset())
    }

    /// 12 transactions over non-targets `a`, `b` and targets `t` (codes
    /// with $1 and $4 margins) and `u`. Without MOA, `{a} → ⟨t, 0⟩`
    /// (N = 4, 3 hits, Prof_re 16/4 = 4.0, confidence 0.75) ties the
    /// profit-mode default rule `∅ → ⟨t, 1⟩` (Prof_re 48/12 = 4.0, 2
    /// hits) on `Prof_re` and wins on support, so it outranks it; it ties
    /// the confidence-mode default `∅ → ⟨t, 0⟩` (9/12 = 0.75, 9 hits) and
    /// loses on support.
    fn tie_dataset() -> TransactionSet {
        let unit =
            |price, cost| PromotionCode::unit(Money::from_cents(price), Money::from_cents(cost));
        let mut cat = Catalog::new();
        for (name, codes, is_target) in [
            ("a", vec![unit(100, 50)], false),
            ("b", vec![unit(100, 50)], false),
            ("t", vec![unit(200, 100), unit(500, 100)], true),
            ("u", vec![unit(100, 90)], true),
        ] {
            cat.push(ItemDef {
                name: name.into(),
                codes,
                is_target,
            });
        }
        let (a, b, t, u) = (ItemId(0), ItemId(1), ItemId(2), ItemId(3));
        let mk = |body: ItemId, target: Sale| {
            Transaction::new(vec![Sale::new(body, CodeId(0), 1)], target)
        };
        let mut txns: Vec<Transaction> = [5, 5, 6]
            .into_iter()
            .map(|q| mk(a, Sale::new(t, CodeId(0), q)))
            .collect();
        txns.push(mk(a, Sale::new(u, CodeId(0), 1)));
        txns.extend((0..2).map(|_| mk(b, Sale::new(t, CodeId(1), 6))));
        txns.extend((0..6).map(|_| mk(b, Sale::new(t, CodeId(0), 1))));
        TransactionSet::new(cat, Hierarchy::flat(4), txns).unwrap()
    }

    /// The floor's defining semantics: keep the rules that outrank
    /// `mined`'s default rule under at least one profit mode by the MPF
    /// rank, with generation indices renumbered.
    fn above_default(rules: &[Rule], mined: &MinedRules) -> Vec<Rule> {
        let defaults = FLOOR_MODES.map(|m| (m, mined.default_rule(m)));
        let mut out: Vec<Rule> = rules
            .iter()
            .filter(|r| {
                defaults
                    .iter()
                    .any(|(m, d)| mpf_cmp(r, d, *m) == Ordering::Greater)
            })
            .cloned()
            .collect();
        for (i, r) in out.iter_mut().enumerate() {
            r.gen_index = i as u32;
        }
        out
    }

    /// The default-dominance floor keeps exactly the rules that outrank
    /// the default rule under at least one profit mode — exact ties on
    /// `Prof_re` included, resolved by support.
    #[test]
    fn default_dominance_prefilter_is_exact() {
        for (name, ds) in [("dataset", dataset()), ("tie", tie_dataset())] {
            for moa in [MoaMode::Enabled, MoaMode::Disabled] {
                let mine_with = |dominated: bool| {
                    RuleMiner::new(MinerConfig {
                        min_support: Support::Count(1),
                        max_body_len: 3,
                        moa,
                        prune_default_dominated: dominated,
                        ..MinerConfig::default()
                    })
                    .mine(&ds)
                };
                let full = mine_with(false);
                let filtered = mine_with(true);
                assert_eq!(
                    exact(filtered.rules()),
                    exact(&above_default(full.rules(), &full)),
                    "{name} {moa:?}"
                );
                assert!(
                    filtered.rules().len() < full.rules().len(),
                    "{name} {moa:?}"
                );
            }
        }
        // The tie itself: `{a} → ⟨t, 0⟩` survives the floor.
        let ds = tie_dataset();
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 1,
            moa: MoaMode::Disabled,
            ..MinerConfig::default()
        })
        .mine(&ds);
        let d = mined.default_rule(ProfitMode::Profit);
        assert_eq!((d.profit, d.hits), (48.0, 2));
        assert!(mined.resolved_rules().any(|(body, head, r)| {
            body.len() == 1
                && body[0].item() == Some(ItemId(0))
                && head == (ItemId(2), CodeId(0))
                && (r.body_count, r.hits, r.profit) == (4, 3, 16.0)
        }));
    }

    /// Brute-force re-computation of every rule's statistics from the
    /// extension sets. A body matches a transaction iff it is a subset of
    /// the transaction's extended gs set.
    fn brute_force_rules(mined: &MinedRules, minsup: u32, max_len: usize) -> Vec<Rule> {
        let ext = mined.extended();
        let interner = mined.interner();
        let all: Vec<GsId> = (0..ext.n_gs() as u32).map(GsId).collect();
        // Enumerate all ≤ max_len sorted combinations without related
        // pairs (fine for the tiny universe here).
        let mut bodies: Vec<Vec<GsId>> = vec![];
        fn rec(
            all: &[GsId],
            interner: &GsInterner,
            start: usize,
            cur: &mut Vec<GsId>,
            max_len: usize,
            out: &mut Vec<Vec<GsId>>,
        ) {
            if !cur.is_empty() {
                out.push(cur.clone());
            }
            if cur.len() == max_len {
                return;
            }
            for i in start..all.len() {
                if cur.iter().any(|&g| interner.related(g, all[i])) {
                    continue;
                }
                cur.push(all[i]);
                rec(all, interner, i + 1, cur, max_len, out);
                cur.pop();
            }
        }
        rec(&all, interner, 0, &mut vec![], max_len, &mut bodies);

        let mut rules = vec![];
        for body in bodies {
            let matched: Vec<usize> = (0..ext.n_transactions())
                .filter(|&tid| body.iter().all(|g| ext.txn_gs[tid].contains(g)))
                .collect();
            for h in 0..ext.n_heads() {
                let h = HeadId(h as u32);
                let mut hits = 0u32;
                let mut profit = 0.0;
                for &tid in &matched {
                    if let Some(p) = ext.head_profit_on(tid, h) {
                        hits += 1;
                        profit += p;
                    }
                }
                if hits >= minsup {
                    rules.push(Rule {
                        body: body.clone(),
                        head: h,
                        body_count: matched.len() as u32,
                        hits,
                        profit,
                        gen_index: 0,
                    });
                }
            }
        }
        rules
    }

    fn canon(rules: &[Rule]) -> Vec<(Vec<GsId>, HeadId, u32, u32, i64)> {
        let mut v: Vec<_> = rules
            .iter()
            .map(|r| {
                (
                    r.body.clone(),
                    r.head,
                    r.body_count,
                    r.hits,
                    (r.profit * 1000.0).round() as i64,
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn matches_brute_force_with_moa() {
        for minsup in [1u32, 2, 3] {
            let mined = mine(minsup, MoaMode::Enabled, 3);
            let brute = brute_force_rules(&mined, minsup, 3);
            assert_eq!(
                canon(mined.rules()),
                canon(&brute),
                "minsup {minsup} (got {} vs {})",
                mined.rules().len(),
                brute.len()
            );
        }
    }

    #[test]
    fn matches_brute_force_without_moa() {
        for minsup in [1u32, 2] {
            let mined = mine(minsup, MoaMode::Disabled, 3);
            let brute = brute_force_rules(&mined, minsup, 3);
            assert_eq!(canon(mined.rules()), canon(&brute), "minsup {minsup}");
        }
    }

    #[test]
    fn no_related_body_elements() {
        let mined = mine(1, MoaMode::Enabled, 3);
        let interner = mined.interner();
        for r in mined.rules() {
            for (i, &a) in r.body.iter().enumerate() {
                for &b in &r.body[i + 1..] {
                    assert!(!interner.related(a, b), "related pair in body");
                }
            }
        }
    }

    #[test]
    fn bodies_are_sorted_and_within_length() {
        let mined = mine(1, MoaMode::Enabled, 2);
        assert!(!mined.rules().is_empty());
        for r in mined.rules() {
            assert!(r.body.len() <= 2);
            assert!(r.body.windows(2).all(|w| w[0] < w[1]));
            assert!(r.hits >= 1);
            assert!(r.hits <= r.body_count);
        }
    }

    #[test]
    fn moa_yields_more_rules() {
        let with = mine(2, MoaMode::Enabled, 3);
        let without = mine(2, MoaMode::Disabled, 3);
        assert!(
            with.rules().len() > without.rules().len(),
            "{} vs {}",
            with.rules().len(),
            without.rules().len()
        );
    }

    #[test]
    fn support_filtering_is_monotone() {
        let low = mine(1, MoaMode::Enabled, 3);
        let high = mine(3, MoaMode::Enabled, 3);
        let filtered: Vec<_> = low
            .rule_indices_at(Support::Count(3))
            .into_iter()
            .map(|i| low.rules()[i].clone())
            .collect();
        assert_eq!(canon(&filtered), canon(high.rules()));
    }

    #[test]
    #[should_panic]
    fn cannot_lower_support_after_mining() {
        let mined = mine(3, MoaMode::Enabled, 2);
        let _ = mined.rule_indices_at(Support::Count(1));
    }

    #[test]
    fn default_rule_maximizes_prof_re() {
        let mined = mine(2, MoaMode::Enabled, 2);
        let d = mined.default_rule(ProfitMode::Profit);
        assert!(d.body.is_empty());
        assert_eq!(d.body_count as usize, 8);
        assert_eq!(d.gen_index, u32::MAX);
        // Verify optimality against all heads.
        let ext = mined.extended();
        for h in 0..ext.n_heads() {
            let h = HeadId(h as u32);
            let profit: f64 = (0..8).filter_map(|tid| ext.head_profit_on(tid, h)).sum();
            assert!(d.profit >= profit - 1e-12, "head {h:?} beats default");
        }
        // Confidence-mode default maximizes hits instead.
        let dc = mined.default_rule(ProfitMode::Confidence);
        for h in 0..ext.n_heads() {
            let h = HeadId(h as u32);
            let hits = (0..8)
                .filter(|&t| ext.head_profit_on(t, h).is_some())
                .count();
            assert!(dc.hits as usize >= hits);
        }
    }

    #[test]
    fn body_tidset_of_empty_is_full() {
        let mined = mine(2, MoaMode::Enabled, 2);
        assert_eq!(mined.body_tidset(&[]).count(), 8);
        // Consistency: each rule's body tidset has body_count elements.
        for r in mined.rules() {
            assert_eq!(mined.body_tidset(&r.body).count() as u32, r.body_count);
        }
    }

    #[test]
    fn support_resolution() {
        assert_eq!(Support::Fraction(0.001).to_count(100_000), 100);
        assert_eq!(Support::Fraction(0.001).to_count(50), 1);
        assert_eq!(Support::Count(5).to_count(10), 5);
        assert_eq!(Support::Fraction(0.0001).to_count(100), 1, "min 1");
    }

    /// `to_count` must absorb f64 product rounding: `0.003 * 1000`
    /// evaluates to `3.0000000000000004`, whose naive ceiling over-counts
    /// to 4.
    #[test]
    fn support_fraction_rounding_does_not_overcount() {
        assert_eq!(Support::Fraction(0.003).to_count(1000), 3);
        assert_eq!(Support::Fraction(0.07).to_count(100), 7);
        assert_eq!(Support::Fraction(0.29).to_count(100), 29);
        // Intentional fractional parts still round up.
        assert_eq!(Support::Fraction(0.0035).to_count(1000), 4);
        assert_eq!(Support::Fraction(0.301).to_count(10), 4);
    }

    /// A fraction never resolves above `n` (so `Fraction(1.0)` means
    /// "every transaction", not an unsatisfiable n+1), and never below 1.
    #[test]
    fn support_fraction_clamped_to_transaction_count() {
        assert_eq!(Support::Fraction(1.0).to_count(7), 7);
        assert_eq!(Support::Fraction(1.0).to_count(1_000_000), 1_000_000);
        assert_eq!(Support::Fraction(0.999_999_999).to_count(5), 5);
        assert_eq!(Support::Fraction(1e-12).to_count(100), 1);
        assert_eq!(Support::Fraction(0.5).to_count(0), 1);
        // Absolute counts pass through unclamped — requesting more
        // support than there are transactions just yields zero rules.
        assert_eq!(Support::Count(50).to_count(10), 50);
    }

    /// The tentpole guarantee: mining output is bit-identical at every
    /// thread count — same rules, same order, same `gen_index`, same f64
    /// profit bits.
    #[test]
    fn thread_count_does_not_change_output() {
        let ds = dataset();
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for max_len in [1usize, 2, 3] {
                let config = MinerConfig {
                    min_support: Support::Count(1),
                    max_body_len: max_len,
                    moa,
                    prune_default_dominated: false,
                    ..MinerConfig::default()
                };
                let base = RuleMiner::new(config).with_threads(1).mine(&ds);
                assert!(!base.rules().is_empty());
                for threads in [2usize, 3, 8] {
                    let par = RuleMiner::new(config).with_threads(threads).mine(&ds);
                    assert_eq!(
                        base.rules(),
                        par.rules(),
                        "{moa:?} max_len {max_len} threads {threads}"
                    );
                }
            }
        }
    }

    /// The adaptive-tidset guarantee: mining output is bit-identical
    /// under every representation policy — forced all-dense, forced
    /// all-sparse, and the adaptive threshold — at 1 and several threads.
    #[test]
    fn tidset_policy_does_not_change_output() {
        let ds = dataset();
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for max_len in [2usize, 4] {
                let config = MinerConfig {
                    min_support: Support::Count(1),
                    max_body_len: max_len,
                    moa,
                    prune_default_dominated: false,
                    ..MinerConfig::default()
                };
                let base = RuleMiner::new(config)
                    .with_threads(1)
                    .with_tidset(TidPolicy::Dense)
                    .mine(&ds);
                assert!(!base.rules().is_empty());
                for policy in [TidPolicy::Sparse, TidPolicy::Adaptive] {
                    for threads in [1usize, 3] {
                        let got = RuleMiner::new(config)
                            .with_threads(threads)
                            .with_tidset(policy)
                            .mine(&ds);
                        assert_eq!(
                            base.rules(),
                            got.rules(),
                            "{moa:?} max_len {max_len} {policy:?} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    /// The pruning guarantee: the upper bound only cuts subtrees that
    /// provably emit nothing, so mining output — every rule, in order,
    /// with exact profit bits — is identical with pruning off and on,
    /// under every emission-filter combination feeding the viability
    /// predicate (min-conf, min-profit, dominance floor) and at 1 and
    /// several threads.
    #[test]
    fn prune_policy_does_not_change_output() {
        let ds = dataset();
        let filters = [
            (None, None, false),
            (Some(0.5), None, true),
            (None, Some(2.0), false),
            (Some(0.6), Some(1.0), true),
        ];
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for min_count in [1u32, 2, 3] {
                for (min_confidence, min_rule_profit, dominated) in filters {
                    let config = MinerConfig {
                        min_support: Support::Count(min_count),
                        max_body_len: 4,
                        moa,
                        min_confidence,
                        min_rule_profit,
                        prune_default_dominated: dominated,
                        ..MinerConfig::default()
                    };
                    let off = RuleMiner::new(config)
                        .with_prune(PrunePolicy::Off)
                        .mine(&ds);
                    for threads in [1usize, 3] {
                        let on = RuleMiner::new(config)
                            .with_threads(threads)
                            .with_prune(PrunePolicy::Upper)
                            .mine(&ds);
                        assert_eq!(
                            off.rules(),
                            on.rules(),
                            "{moa:?} count {min_count} conf {min_confidence:?} \
                             profit {min_rule_profit:?} dom {dominated} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    /// Production mining runs adaptive tidsets with upper-bound pruning;
    /// the other policies exist only as in-process test axes.
    #[test]
    fn new_miner_defaults_to_adaptive_tidsets_and_upper_pruning() {
        let miner = RuleMiner::new(MinerConfig::default());
        assert_eq!(miner.tidset(), TidPolicy::Adaptive);
        assert_eq!(miner.prune(), PrunePolicy::Upper);
        let miner = RuleMiner::default();
        assert_eq!(miner.tidset(), TidPolicy::Adaptive);
        assert_eq!(miner.prune(), PrunePolicy::Upper);
    }

    /// A `min_rule_profit` no dataset can meet lets the anchor probes cut
    /// the *entire* DFS: every emitter terminates early on the
    /// pruned-to-empty path, and the `Drop` flush must still publish the
    /// upper-bound counters. Outputs stay identical to the unpruned run
    /// (both empty). The pm-obs registry is global and tests run
    /// concurrently, so counters are asserted as monotone deltas.
    #[test]
    fn fully_pruned_run_still_flushes_counters() {
        let config = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 2,
            moa: MoaMode::Enabled,
            min_rule_profit: Some(1e18),
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        let ds = dataset();
        let off = RuleMiner::new(config)
            .with_prune(PrunePolicy::Off)
            .mine(&ds);
        assert!(off.rules().is_empty());
        let evaluated = pm_obs::counter("mine.ub_evaluated").get();
        let pruned = pm_obs::counter("mine.ub_pruned").get();
        let depth1 = pm_obs::counter("mine.ub_pruned.d1").get();
        for threads in [1usize, 3] {
            let on = RuleMiner::new(config)
                .with_threads(threads)
                .with_prune(PrunePolicy::Upper)
                .mine(&ds);
            assert_eq!(off.rules(), on.rules(), "threads {threads}");
        }
        assert!(pm_obs::counter("mine.ub_evaluated").get() >= evaluated + 2);
        assert!(pm_obs::counter("mine.ub_pruned").get() >= pruned + 2);
        assert!(pm_obs::counter("mine.ub_pruned.d1").get() >= depth1 + 2);
    }

    /// `body_tidset` agrees across policies and with each rule's count.
    #[test]
    fn body_tidset_agrees_across_policies() {
        let ds = dataset();
        let config = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 3,
            moa: MoaMode::Enabled,
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        let dense = RuleMiner::new(config)
            .with_tidset(TidPolicy::Dense)
            .mine(&ds);
        let sparse = RuleMiner::new(config)
            .with_tidset(TidPolicy::Sparse)
            .mine(&ds);
        for r in dense.rules() {
            let td = dense.body_tidset(&r.body);
            let ts = sparse.body_tidset(&r.body);
            assert_eq!(td.count() as u32, r.body_count);
            assert_eq!(td.iter().collect::<Vec<_>>(), ts.iter().collect::<Vec<_>>());
        }
    }

    /// The parallel pair-count table is exactly the sequential one
    /// (relaxed atomic u32 adds commute).
    #[test]
    fn parallel_pair_counts_match_sequential() {
        let mined = mine(1, MoaMode::Enabled, 2);
        let ext = mined.extended();
        let freq: Vec<GsId> = (0..ext.n_gs() as u32).map(GsId).collect();
        let seq = PairCounts::count(ext, &freq);
        for threads in [2usize, 5] {
            let par = PairCounts::count_with_threads(ext, &freq, threads);
            for i in 0..freq.len() {
                for j in i + 1..freq.len() {
                    assert_eq!(seq.get(i, j), par.get(i, j), "pair ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn max_body_len_one_gives_only_singletons() {
        let mined = mine(1, MoaMode::Enabled, 1);
        assert!(mined.rules().iter().all(|r| r.body.len() == 1));
    }

    /// Bitwise rule identity: every field, profit at the f64 bit level,
    /// generation indices included.
    fn exact(rules: &[Rule]) -> Vec<(Vec<GsId>, HeadId, u32, u32, u64, u32)> {
        rules
            .iter()
            .map(|r| {
                (
                    r.body.clone(),
                    r.head,
                    r.body_count,
                    r.hits,
                    r.profit.to_bits(),
                    r.gen_index,
                )
            })
            .collect()
    }

    /// The defining semantics of targeted mining: keep the in-target
    /// heads' rules, renumber generation indices.
    fn post_filter(full: &MinedRules, t: &TargetFilter) -> Vec<Rule> {
        let h = full.moa().hierarchy();
        let mut out: Vec<Rule> = full
            .rules()
            .iter()
            .filter(|r| {
                let (item, code) = full.head(r.head);
                t.matches(h, item, code)
            })
            .cloned()
            .collect();
        for (i, r) in out.iter_mut().enumerate() {
            r.gen_index = i as u32;
        }
        out
    }

    /// Targeted mining is byte-identical to post-filtering the full run,
    /// across MOA modes, emission filters (incl. dominance, whose floor
    /// is the targeted run's own default rule), thread counts, and prune
    /// policies.
    #[test]
    fn targeted_mining_equals_post_filtering() {
        let ds = dataset();
        let targets = [
            TargetFilter::Items(vec![ItemId(2)]),
            TargetFilter::Codes(vec![CodeId(0)]),
            TargetFilter::Codes(vec![CodeId(1)]),
            // Admits no head at all: mined set must be empty.
            TargetFilter::Items(vec![ItemId(0)]),
        ];
        for moa in [MoaMode::Enabled, MoaMode::Disabled] {
            for (min_confidence, min_rule_profit, dominated) in
                [(None, None, false), (Some(0.5), Some(1.0), true)]
            {
                let config = MinerConfig {
                    min_support: Support::Count(1),
                    max_body_len: 3,
                    moa,
                    min_confidence,
                    min_rule_profit,
                    prune_default_dominated: dominated,
                    ..MinerConfig::default()
                };
                let full = RuleMiner::new(MinerConfig {
                    prune_default_dominated: false,
                    ..config
                })
                .with_threads(1)
                .mine(&ds);
                for t in &targets {
                    let mut expect = post_filter(&full, t);
                    if dominated {
                        let targeted = RuleMiner::new(config)
                            .with_target(Some(t.clone()))
                            .mine(&ds);
                        expect = above_default(&expect, &targeted);
                    }
                    for threads in [1usize, 4] {
                        for prune in [PrunePolicy::Off, PrunePolicy::Upper] {
                            let mined = RuleMiner::new(config)
                                .with_threads(threads)
                                .with_prune(prune)
                                .with_target(Some(t.clone()))
                                .mine(&ds);
                            assert_eq!(
                                exact(mined.rules()),
                                exact(&expect),
                                "{t:?} {moa:?} conf {min_confidence:?} threads {threads} \
                                 prune {prune:?}"
                            );
                            assert_eq!(mined.target(), Some(t));
                        }
                    }
                }
            }
        }
    }

    /// Subtree targets resolve through the hierarchy: targeting the
    /// concept above the target item behaves exactly like targeting the
    /// item, and a subtree not covering it admits nothing.
    #[test]
    fn subtree_target_follows_hierarchy() {
        let mut h = Hierarchy::flat(3);
        let snacks = h.add_concept("Snacks");
        h.link_item(ItemId(2), snacks).unwrap();
        let ds = dataset_with(h);
        let config = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 3,
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        let full = RuleMiner::new(config).mine(&ds);
        let covering = RuleMiner::new(config)
            .with_target(Some(TargetFilter::Subtree(snacks)))
            .mine(&ds);
        // The concept covers the only target item, so nothing filters.
        assert_eq!(exact(covering.rules()), exact(full.rules()));

        let mut h2 = Hierarchy::flat(3);
        let other = h2.add_concept("Elsewhere");
        h2.link_item(ItemId(0), other).unwrap();
        let ds2 = dataset_with(h2);
        let excluded = RuleMiner::new(config)
            .with_target(Some(TargetFilter::Subtree(other)))
            .mine(&ds2);
        assert!(excluded.rules().is_empty());
        // No in-target head: the default rule falls back to the full
        // argmax so the recommender still has an answer.
        let full2 = RuleMiner::new(config).mine(&ds2);
        assert_eq!(
            excluded.default_rule(ProfitMode::Profit),
            full2.default_rule(ProfitMode::Profit)
        );
    }

    /// Under a target the default rule's argmax runs over in-target
    /// heads only.
    #[test]
    fn targeted_default_rule_restricts_argmax() {
        let ds = dataset();
        let config = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 2,
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        for code in [CodeId(0), CodeId(1)] {
            let mined = RuleMiner::new(config)
                .with_target(Some(TargetFilter::Codes(vec![code])))
                .mine(&ds);
            let d = mined.default_rule(ProfitMode::Profit);
            assert_eq!(mined.head(d.head), (ItemId(2), code));
            assert_eq!(d.gen_index, u32::MAX);
        }
    }

    /// Per-item floors generalize the scalar `min_rule_profit`: a floor
    /// on the (only) head item is byte-identical to the scalar, listed
    /// items override the scalar, and floors on non-head items are
    /// inert (including for the node-level upper-bound cut, which must
    /// not fire while an unfloored head remains admissible).
    // `!(profit < floor)` mirrors the emitter's `profit < mp → skip`
    // gate exactly, NaN admission included.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[test]
    fn per_item_floors_generalize_the_scalar_floor() {
        let ds = dataset();
        let base = MinerConfig {
            min_support: Support::Count(1),
            max_body_len: 3,
            prune_default_dominated: false,
            ..MinerConfig::default()
        };
        for prune in [PrunePolicy::Off, PrunePolicy::Upper] {
            let scalar = RuleMiner::new(MinerConfig {
                min_rule_profit: Some(5.0),
                ..base
            })
            .with_prune(prune)
            .mine(&ds);
            // Floor on the head item, no scalar.
            let per_item = RuleMiner::new(base)
                .with_prune(prune)
                .with_item_floors(vec![(ItemId(2), 5.0)])
                .mine(&ds);
            assert_eq!(exact(scalar.rules()), exact(per_item.rules()));
            // A listed item overrides an impossible scalar.
            let overridden = RuleMiner::new(MinerConfig {
                min_rule_profit: Some(1e18),
                ..base
            })
            .with_prune(prune)
            .with_item_floors(vec![(ItemId(2), 5.0)])
            .mine(&ds);
            assert_eq!(exact(scalar.rules()), exact(overridden.rules()));
            // Floors on items without heads filter nothing.
            let unfiltered = RuleMiner::new(base).with_prune(prune).mine(&ds);
            let inert = RuleMiner::new(base)
                .with_prune(prune)
                .with_item_floors(vec![(ItemId(0), 1e18)])
                .mine(&ds);
            assert_eq!(exact(unfiltered.rules()), exact(inert.rules()));
            // Brute-force semantics: exactly the rules at or above the
            // floor survive, in order, renumbered — and here every head
            // is on the floored item.
            let mut expect: Vec<Rule> = unfiltered
                .rules()
                .iter()
                .filter(|r| !(r.profit < 5.0))
                .cloned()
                .collect();
            for (i, r) in expect.iter_mut().enumerate() {
                r.gen_index = i as u32;
            }
            assert_eq!(exact(per_item.rules()), exact(&expect));
        }
    }

    #[test]
    fn pair_counts_tri_and_map_agree() {
        let mined = mine(1, MoaMode::Enabled, 2);
        let ext = mined.extended();
        let freq: Vec<GsId> = (0..ext.n_gs() as u32).map(GsId).collect();
        let tri = PairCounts::count(ext, &freq);
        // Force the map path.
        let mut map = PairCounts::Map(std::collections::HashMap::new());
        for gs in &ext.txn_gs {
            for i in 0..gs.len() {
                for j in i + 1..gs.len() {
                    map.bump(gs[i].index(), gs[j].index());
                }
            }
        }
        for i in 0..freq.len() {
            for j in i + 1..freq.len() {
                assert_eq!(tri.get(i, j), map.get(i, j), "pair ({i},{j})");
            }
        }
    }
}
