//! The linear reference for MPF selection (Definition 6): walk the rules
//! in rank order and keep each one whose body generalizes the customer's
//! sales. The indexed [`profit_core::Matcher`] is the only production
//! path; this scan exists so the equivalence suites have something
//! independent of the posting index to compare it against.

#![allow(dead_code)]

use pm_txn::{CodeId, GenSale, ItemId, Sale, TargetFilter};
use profit_core::{Recommendation, RuleModel};
use std::collections::HashSet;

/// Up to `k` distinct `(item, code)` pairs in rank order of their best
/// matching rule, skipping heads outside `target`. The reference rule for
/// a customer is `linear_top_k(model, customer, 1, None)[0].rule_index`.
pub fn linear_top_k(
    model: &RuleModel,
    customer: &[Sale],
    k: usize,
    target: Option<&TargetFilter>,
) -> Vec<Recommendation> {
    let closure: HashSet<GenSale> = customer
        .iter()
        .flat_map(|s| model.moa().generalizations_of_sale(s))
        .collect();
    let hierarchy = model.moa().hierarchy();
    let mut seen: HashSet<(ItemId, CodeId)> = HashSet::new();
    let mut out = Vec::new();
    for (idx, r) in model.rules().iter().enumerate() {
        if out.len() >= k {
            break;
        }
        if target.is_some_and(|t| !t.matches(hierarchy, r.item, r.code)) {
            continue;
        }
        if r.body.iter().all(|g| closure.contains(g)) && seen.insert((r.item, r.code)) {
            out.push(model.recommendation(idx));
        }
    }
    out
}

/// The reference recommendation rule: the highest-ranked rule whose body
/// generalizes the customer's sales.
pub fn linear_rule(model: &RuleModel, customer: &[Sale]) -> usize {
    linear_top_k(model, customer, 1, None)[0]
        .rule_index
        .expect("rule-based recommendation")
}
