//! The covering relationship (§4.1): dominance removal, the covering
//! tree, and coverage assignment.
//!
//! * A rule that is *more special and ranked lower* than another rule can
//!   never be a recommendation rule (the more general, higher-ranked rule
//!   matches whenever it does) — such rules are **dominated** and removed.
//!   The default rule's empty body generalizes every body, so *everything
//!   ranked below the default rule is dominated*.
//! * The **parent** of a rule `r'` is the strictly-more-general rule with
//!   the highest rank; after dominance removal every more-general rule
//!   ranks lower, so parents point down the rank order and the default
//!   rule is the root.
//! * Each training transaction is **covered** by its highest-ranked
//!   matching rule; the default rule covers the rest.
//!
//! Body-generalization tests use the interner's ancestor closures: body
//! `B` generalizes body `B'` **iff** `B ⊆ closure(B')`, where
//! `closure(B') = ∪_{g ∈ B'} ({g} ∪ ancestors(g))` — every element of a
//! generalizing body must be an ancestor-or-self of some element of the
//! specialized body, and vice versa any such subset generalizes.

use crate::rank::mpf_cmp;
use pm_rules::{BitSet, GsId, MinedRules, ProfitMode, Rule, Support};
use std::cmp::Ordering;

/// The covering tree over the surviving (non-dominated) rules.
#[derive(Debug, Clone)]
pub struct CoveringTree {
    /// Surviving rules in descending MPF rank; the last one is the
    /// default rule (the root).
    pub rules: Vec<Rule>,
    /// Parent index per rule (`None` only for the default rule).
    pub parent: Vec<Option<usize>>,
    /// Transactions covered by each rule (it is their highest-ranked
    /// match).
    pub cover: Vec<Vec<u32>>,
    /// How many mined rules the dominance step removed.
    pub n_dominated: usize,
    /// The profit mode the ranking used.
    pub mode: ProfitMode,
}

/// A prefix trie over sorted survivor bodies, answering "which
/// registered body lies inside this closure?" by walking only along
/// closure elements.
///
/// A body `B` lies inside a sorted, deduplicated closure `C` exactly when
/// `B`'s elements appear in `C` in order, so a query descends from each
/// node only through children labelled with a later element of `C`.
/// This relies on [`Rule::body`] being sorted and on [`closure`] sorting
/// and deduplicating.
#[derive(Debug)]
struct BodyTrie {
    /// `nodes[0]` is the root (the empty prefix).
    nodes: Vec<TrieNode>,
    /// Child lookups made by queries, for the work counters.
    probes: u64,
}

#[derive(Debug, Default)]
struct TrieNode {
    /// `(element, child node)` pairs sorted by element.
    children: Vec<(GsId, u32)>,
    /// The id of the body ending here, if one does.
    terminal: Option<u32>,
    /// The largest id ending in this node's subtree.
    best: Option<u32>,
}

impl BodyTrie {
    fn new() -> Self {
        Self {
            nodes: vec![TrieNode::default()],
            probes: 0,
        }
    }

    fn child(&self, node: usize, g: GsId) -> Option<usize> {
        let children = &self.nodes[node].children;
        children
            .binary_search_by_key(&g, |&(k, _)| k)
            .ok()
            .map(|i| children[i].1 as usize)
    }

    /// Register a sorted `body` under `id`. Ids must arrive in ascending
    /// order, so `id` is the new `best` of every node on its path. No
    /// body is registered twice: of two survivors with one body, the
    /// lower-ranked one lies inside the other's closure and is dominated.
    fn insert(&mut self, body: &[GsId], id: u32) {
        debug_assert!(self.nodes[0].best < Some(id), "ids ascend");
        let mut node = 0;
        self.nodes[0].best = Some(id);
        for &g in body {
            node = match self.nodes[node]
                .children
                .binary_search_by_key(&g, |&(k, _)| k)
            {
                Ok(i) => self.nodes[node].children[i].1 as usize,
                Err(i) => {
                    let new = self.nodes.len();
                    self.nodes[node].children.insert(i, (g, new as u32));
                    self.nodes.push(TrieNode::default());
                    new
                }
            };
            self.nodes[node].best = Some(id);
        }
        debug_assert!(self.nodes[node].terminal.is_none(), "body registered twice");
        self.nodes[node].terminal = Some(id);
    }

    /// Does some registered body lie inside `closure`? Stops at the
    /// first one found.
    fn any(&mut self, closure: &[GsId]) -> bool {
        self.any_from(0, closure)
    }

    fn any_from(&mut self, node: usize, closure: &[GsId]) -> bool {
        if self.nodes[node].terminal.is_some() {
            return true;
        }
        let Some(&(last, _)) = self.nodes[node].children.last() else {
            return false;
        };
        for (i, &g) in closure.iter().enumerate() {
            if g > last {
                break;
            }
            self.probes += 1;
            if let Some(c) = self.child(node, g) {
                if self.any_from(c, &closure[i + 1..]) {
                    return true;
                }
            }
        }
        false
    }

    /// The largest id among registered bodies inside `closure`. Skips
    /// every subtree whose `best` cannot beat the id found so far.
    fn max_id(&mut self, closure: &[GsId]) -> Option<u32> {
        let mut found = None;
        self.max_from(0, closure, &mut found);
        found
    }

    fn max_from(&mut self, node: usize, closure: &[GsId], found: &mut Option<u32>) {
        let n = &self.nodes[node];
        *found = (*found).max(n.terminal);
        let Some(&(last, _)) = n.children.last() else {
            return;
        };
        for (i, &g) in closure.iter().enumerate() {
            if g > last {
                break;
            }
            self.probes += 1;
            if let Some(c) = self.child(node, g) {
                if self.nodes[c].best > *found {
                    self.max_from(c, &closure[i + 1..], found);
                }
            }
        }
    }
}

/// Closure of a body: every element plus all its strict ancestors,
/// deduplicated and sorted.
fn closure(mined: &MinedRules, body: &[GsId]) -> Vec<GsId> {
    let interner = mined.interner();
    let mut out: Vec<GsId> = Vec::with_capacity(body.len() * 4);
    for &g in body {
        out.push(g);
        out.extend_from_slice(interner.ancestors(g));
    }
    out.sort_unstable();
    out.dedup();
    out
}

impl CoveringTree {
    /// Build the covering tree from mined rules under `mode`, optionally
    /// filtering to a higher minimum support first.
    pub fn build(mined: &MinedRules, mode: ProfitMode, min_support: Option<Support>) -> Self {
        // 1. Rank. Everything ranked below the default rule is dominated
        //    by it (its empty body generalizes every body), so only the
        //    rules that outrank it are sorted, by index.
        let rank_span = pm_obs::span("tree.rank");
        let all = mined.rules();
        let default = mined.default_rule(mode);
        let mut order: Vec<usize> = match min_support {
            Some(s) => mined.rule_indices_at(s),
            None => (0..all.len()).collect(),
        };
        let n_ranked = order.len();
        order.retain(|&i| mpf_cmp(&all[i], &default, mode) == Ordering::Greater);
        order.sort_by(|&a, &b| mpf_cmp(&all[b], &all[a], mode));
        drop(rank_span);

        // 2. Dominance scan in rank-descending order: a rule survives
        //    when no higher-ranked survivor's body lies inside its
        //    closure. Only survivors are cloned. The default rule, ranked
        //    last, always survives.
        let dominance_span = pm_obs::span("tree.dominance");
        let mut trie = BodyTrie::new();
        let mut survivors: Vec<Rule> = Vec::new();
        for rule in order.into_iter().map(|i| &all[i]) {
            if trie.any(&closure(mined, &rule.body)) {
                continue;
            }
            trie.insert(&rule.body, survivors.len() as u32);
            survivors.push(rule.clone());
        }
        survivors.push(default);
        let dominance_probes = trie.probes;
        let n_dominated = n_ranked + 1 - survivors.len();
        drop(dominance_span);

        // 3. Parents: scan in rank-ascending order so that the candidates
        //    (more general ⇒ lower ranked) are already registered. A
        //    survivor's id is its rank distance above the default rule,
        //    so the largest generalizing id is the highest-ranked one.
        let parents_span = pm_obs::span("tree.parents");
        let m = survivors.len();
        let default_idx = m - 1;
        let mut parent: Vec<Option<usize>> = vec![None; m];
        trie = BodyTrie::new();
        for i in (0..default_idx).rev() {
            let best = trie.max_id(&closure(mined, &survivors[i].body));
            parent[i] = Some(best.map_or(default_idx, |id| default_idx - id as usize));
            trie.insert(&survivors[i].body, (default_idx - i) as u32);
        }
        let parent_probes = trie.probes;
        drop(parents_span);

        // 4. Coverage: highest-ranked matching rule per transaction.
        let _coverage_span = pm_obs::span("tree.coverage");
        let n = mined.n_transactions();
        let mut uncovered = BitSet::full(n);
        let mut cover: Vec<Vec<u32>> = Vec::with_capacity(m);
        for rule in &survivors {
            if uncovered.is_empty() {
                cover.push(Vec::new());
                continue;
            }
            if rule.body.is_empty() {
                cover.push(uncovered.iter().map(|t| t as u32).collect());
                uncovered = BitSet::new(n);
            } else {
                // Walk the (possibly sparse) body tidset directly: the
                // claim-and-remove pass is the intersection with
                // `uncovered` and its subtraction in one sweep, touching
                // only the tids the body actually matches.
                let ts = mined.body_tidset(&rule.body);
                let mut mine: Vec<u32> = Vec::new();
                for t in ts.iter() {
                    if uncovered.contains(t) {
                        uncovered.remove(t);
                        mine.push(t as u32);
                    }
                }
                cover.push(mine);
            }
        }

        pm_obs::counter("tree.dominance_probes").add(dominance_probes);
        pm_obs::counter("tree.parent_probes").add(parent_probes);
        pm_obs::counter("tree.dominated").add(n_dominated as u64);

        CoveringTree {
            rules: survivors,
            parent,
            cover,
            n_dominated,
            mode,
        }
    }

    /// Number of rules in the tree.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Always false — the default rule is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the root (the default rule).
    pub fn root(&self) -> usize {
        self.rules.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_rules::{MinerConfig, MoaMode, RuleMiner};
    use pm_txn::{
        Catalog, CodeId, Hierarchy, ItemDef, ItemId, Money, PromotionCode, Sale, Transaction,
        TransactionSet,
    };

    fn dataset() -> TransactionSet {
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
        let h = Hierarchy::flat(3);
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

    fn tree(minsup: u32, mode: ProfitMode) -> (MinedRules, CoveringTree) {
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Count(minsup),
            moa: MoaMode::Enabled,
            ..MinerConfig::default()
        })
        .mine(&dataset());
        let tree = CoveringTree::build(&mined, mode, None);
        (mined, tree)
    }

    /// A three-level concept hierarchy over eight items, MOA on, bodies
    /// up to four elements: closures several ancestors deep.
    fn deep_tree(mode: ProfitMode) -> (MinedRules, CoveringTree) {
        use pm_datagen::{DatasetConfig, HierarchyConfig};
        use rand::{rngs::StdRng, SeedableRng};
        let data = DatasetConfig::tiny(40, 8, 3)
            .with_hierarchy(HierarchyConfig {
                branching: 2,
                levels: 3,
            })
            .generate(&mut StdRng::seed_from_u64(17));
        assert!(data.hierarchy().n_concepts() >= 3);
        let mined = RuleMiner::new(MinerConfig {
            min_support: Support::Count(2),
            max_body_len: 4,
            moa: MoaMode::Enabled,
            prune_default_dominated: false,
            ..MinerConfig::default()
        })
        .mine(&data);
        assert!(mined.rules().iter().any(|r| r.body.len() >= 3));
        let tree = CoveringTree::build(&mined, mode, None);
        (mined, tree)
    }

    /// Slow reference for "is r more general than r'".
    fn more_general(mined: &MinedRules, r: &Rule, rp: &Rule) -> bool {
        mined.interner().body_generalizes(&r.body, &rp.body)
    }

    fn check_default_rule_is_root_and_last(tree: &CoveringTree) {
        let root = tree.root();
        assert!(tree.rules[root].body.is_empty());
        assert_eq!(tree.parent[root], None);
        for i in 0..root {
            assert!(tree.parent[i].is_some());
            assert!(!tree.rules[i].body.is_empty());
        }
    }

    fn check_rank_strictly_descends(tree: &CoveringTree) {
        for w in 0..tree.len() - 1 {
            assert_eq!(
                mpf_cmp(&tree.rules[w], &tree.rules[w + 1], tree.mode),
                std::cmp::Ordering::Greater
            );
        }
    }

    fn check_no_survivor_is_dominated(mined: &MinedRules, tree: &CoveringTree) {
        for i in 0..tree.len() {
            for j in 0..i {
                // j ranks higher; it must not generalize i's body… unless
                // that would make i dominated.
                assert!(
                    !more_general(mined, &tree.rules[j], &tree.rules[i]),
                    "rule {j} dominates rule {i}"
                );
            }
        }
    }

    fn check_dominance_matches_brute_force(mined: &MinedRules, tree: &CoveringTree) {
        // Recompute survivors by brute force over the full ranked list.
        let mut all: Vec<Rule> = mined.rules().to_vec();
        all.push(mined.default_rule(tree.mode));
        all.sort_by(|a, b| mpf_cmp(b, a, tree.mode));
        let mut survivors: Vec<Rule> = Vec::new();
        for r in &all {
            if !survivors.iter().any(|s| more_general(mined, s, r)) {
                survivors.push(r.clone());
            }
        }
        assert_eq!(survivors.len(), tree.len());
        assert_eq!(tree.n_dominated, all.len() - survivors.len());
        for (a, b) in survivors.iter().zip(&tree.rules) {
            assert_eq!(a.body, b.body);
            assert_eq!(a.head, b.head);
        }
    }

    fn check_parent_is_highest_ranked_generalizer(mined: &MinedRules, tree: &CoveringTree) {
        for i in 0..tree.len() {
            let Some(p) = tree.parent[i] else { continue };
            assert!(p > i, "parents rank lower (higher index)");
            assert!(
                more_general(mined, &tree.rules[p], &tree.rules[i]),
                "parent must generalize"
            );
            // No generalizer strictly between i and p.
            for j in (i + 1)..p {
                assert!(
                    !more_general(mined, &tree.rules[j], &tree.rules[i]),
                    "rule {j} outranks parent {p} of {i}"
                );
            }
        }
    }

    #[test]
    fn default_rule_is_root_and_last() {
        let (_, tree) = tree(1, ProfitMode::Profit);
        check_default_rule_is_root_and_last(&tree);
    }

    #[test]
    fn rank_strictly_descends() {
        let (_, tree) = tree(1, ProfitMode::Profit);
        check_rank_strictly_descends(&tree);
    }

    #[test]
    fn no_survivor_is_dominated() {
        let (mined, tree) = tree(1, ProfitMode::Profit);
        check_no_survivor_is_dominated(&mined, &tree);
    }

    #[test]
    fn dominance_matches_brute_force() {
        let (mined, tree) = tree(1, ProfitMode::Profit);
        check_dominance_matches_brute_force(&mined, &tree);
    }

    #[test]
    fn parent_is_highest_ranked_generalizer() {
        let (mined, tree) = tree(1, ProfitMode::Profit);
        check_parent_is_highest_ranked_generalizer(&mined, &tree);
    }

    #[test]
    fn deep_hierarchy_tree_is_faithful() {
        for mode in [ProfitMode::Profit, ProfitMode::Confidence] {
            let (mined, tree) = deep_tree(mode);
            assert!(
                tree.parent
                    .iter()
                    .any(|&p| p.is_some_and(|p| p != tree.root())),
                "some parent below the root"
            );
            check_default_rule_is_root_and_last(&tree);
            check_rank_strictly_descends(&tree);
            check_no_survivor_is_dominated(&mined, &tree);
            check_dominance_matches_brute_force(&mined, &tree);
            check_parent_is_highest_ranked_generalizer(&mined, &tree);
        }
    }

    fn ids(raw: &[u32]) -> Vec<GsId> {
        raw.iter().map(|&g| GsId(g)).collect()
    }

    fn trie(bodies: &[&[u32]]) -> BodyTrie {
        let mut t = BodyTrie::new();
        for (id, b) in bodies.iter().enumerate() {
            t.insert(&ids(b), id as u32);
        }
        t
    }

    #[test]
    fn trie_empty_closure_matches_nothing_registered() {
        let mut t = trie(&[&[1], &[2, 3]]);
        assert!(!t.any(&[]));
        assert_eq!(t.max_id(&[]), None);
        assert!(!BodyTrie::new().any(&ids(&[1, 2])));
    }

    #[test]
    fn trie_body_equal_to_closure_matches() {
        let mut t = trie(&[&[2, 5, 9]]);
        assert!(t.any(&ids(&[2, 5, 9])));
        assert_eq!(t.max_id(&ids(&[2, 5, 9])), Some(0));
        assert!(t.any(&ids(&[1, 2, 3, 5, 7, 9])));
        assert!(!t.any(&ids(&[2, 5])));
        assert!(!t.any(&ids(&[2, 9])));
    }

    #[test]
    fn trie_prefix_is_not_a_terminal() {
        let mut t = trie(&[&[1, 2]]);
        assert!(!t.any(&ids(&[1])));
        assert_eq!(t.max_id(&ids(&[1])), None);
        assert!(t.any(&ids(&[1, 2])));
    }

    #[test]
    fn trie_max_id_is_largest_matching_id() {
        // Matching bodies at several depths and branches; the largest id
        // sits on a branch visited after a smaller match is found.
        let mut t = trie(&[&[1], &[1, 4], &[9], &[2, 4, 6], &[1, 2], &[5], &[2, 6]]);
        let closure = ids(&[1, 2, 4, 6]);
        assert!(t.any(&closure));
        assert_eq!(t.max_id(&closure), Some(6));
        assert_eq!(t.max_id(&ids(&[1, 2, 4])), Some(4));
        assert_eq!(t.max_id(&ids(&[2, 4, 6])), Some(6));
        assert_eq!(t.max_id(&ids(&[2, 4])), None);
    }

    #[test]
    fn coverage_is_highest_ranked_match() {
        let (mined, tree) = tree(1, ProfitMode::Profit);
        let ext = mined.extended();
        // Each transaction appears in exactly one cover — that of its
        // first matching rule in rank order.
        let mut owner = vec![usize::MAX; ext.n_transactions()];
        for (i, cov) in tree.cover.iter().enumerate() {
            for &t in cov {
                assert_eq!(owner[t as usize], usize::MAX, "covered twice");
                owner[t as usize] = i;
            }
        }
        for (tid, &own) in owner.iter().enumerate() {
            assert_ne!(own, usize::MAX, "transaction {tid} uncovered");
            let first_match = (0..tree.len())
                .find(|&i| {
                    tree.rules[i]
                        .body
                        .iter()
                        .all(|g| ext.txn_gs[tid].contains(g))
                })
                .expect("default matches");
            assert_eq!(own, first_match, "transaction {tid}");
        }
    }

    #[test]
    fn confidence_mode_changes_ranking() {
        let (_, tp) = tree(1, ProfitMode::Profit);
        let (mined, tc) = tree(1, ProfitMode::Confidence);
        assert!(tp.len() > 1);
        // Under confidence mode with MOA, the default rule's cheapest
        // head hits *every* transaction here (confidence 1.0 at maximal
        // support), so it dominates all other rules — the tree collapses
        // to the default alone. That is faithful Definition-6 behavior.
        assert_eq!(tc.len(), 1);
        let d = &tc.rules[0];
        assert!(d.body.is_empty());
        assert_eq!(d.hits as usize, mined.n_transactions());
    }

    #[test]
    fn min_support_filter_shrinks_tree() {
        let (mined, _) = tree(1, ProfitMode::Profit);
        let t1 = CoveringTree::build(&mined, ProfitMode::Profit, None);
        let t3 = CoveringTree::build(&mined, ProfitMode::Profit, Some(Support::Count(3)));
        assert!(t3.len() <= t1.len());
        assert!(t3.rules[t3.root()].body.is_empty());
    }
}
