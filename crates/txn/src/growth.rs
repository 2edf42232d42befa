//! Catalog growth: append-only deltas that introduce new items, codes,
//! and concepts mid-stream.
//!
//! A [`CatalogDelta`] may only *append*: new items (each with its own
//! promotion codes), new concepts, and links **from** the new items and
//! new concepts to existing or new concepts. It must never mutate an
//! existing item's codes or an existing node's parents — that
//! append-only discipline is what keeps incremental mining byte-exact
//! across growth:
//!
//! * the head universe is "(target item, code) pairs in catalog order",
//!   so appended target items append heads at the *end*, preserving
//!   every existing `HeadId`;
//! * existing items' MOA tables (favorable codes, concept ancestors)
//!   are unchanged, so the generalized-sale extensions of old
//!   transactions — and with them the miner's frozen anchor caches —
//!   stay valid;
//! * new items can only appear in transactions ingested *after* the
//!   delta, so the miner's existing delta-based invalidation already
//!   touches exactly the anchors the new items reach.
//!
//! The wire/log representation ([`encode_stream_record`] /
//! [`decode_stream_record`]) keeps plain transaction batches in the
//! PR-8 byte format (a bare JSON array), so logs written before catalog
//! growth existed replay unchanged; a batch that carries a delta is a
//! JSON object `{"catalog": …, "txns": […]}` and the decoder sniffs the
//! first byte.

use crate::catalog::{Catalog, ItemDef};
use crate::dataset::TransactionSet;
use crate::error::TxnError;
use crate::hierarchy::Hierarchy;
use crate::ids::ConceptId;
use crate::sale::Transaction;
use serde::{Deserialize, Serialize};

/// A new item plus where it hangs in the hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NewItem {
    /// The item definition (name, promotion codes, target flag).
    pub def: ItemDef,
    /// Direct concept parents — ids into the *grown* concept table, so
    /// they may name concepts this same delta introduces. Target items
    /// must leave this empty (they hang directly below `ANY`).
    pub parents: Vec<ConceptId>,
}

/// A new concept plus its direct parents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NewConcept {
    /// Human-readable concept name.
    pub name: String,
    /// Direct concept parents — ids into the grown concept table.
    pub parents: Vec<ConceptId>,
}

/// An append-only catalog/hierarchy extension carried by an ingest
/// batch. Applying it never changes an existing item, code, price, or
/// hierarchy edge — see the module docs for why that restriction is
/// what makes growth compatible with byte-exact incremental refits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogDelta {
    /// Concepts to append to the hierarchy, in id order.
    pub concepts: Vec<NewConcept>,
    /// Items to append to the catalog, in id order.
    pub items: Vec<NewItem>,
}

impl CatalogDelta {
    /// A delta that adds nothing.
    pub fn empty() -> Self {
        CatalogDelta {
            concepts: Vec::new(),
            items: Vec::new(),
        }
    }

    /// True when applying this delta would change nothing.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty() && self.items.is_empty()
    }

    /// Build the grown catalog and hierarchy without touching the
    /// originals — validation and application in one deterministic
    /// step, so a rejected delta leaves no partial growth behind.
    ///
    /// Checks: every new item has at least one code, new target items
    /// carry no concept parents, every parent link is in range for the
    /// grown tables, and the grown hierarchy is still acyclic.
    pub fn grown(
        &self,
        catalog: &Catalog,
        hierarchy: &Hierarchy,
    ) -> Result<(Catalog, Hierarchy), TxnError> {
        let mut catalog = catalog.clone();
        let mut hierarchy = hierarchy.clone();
        for c in &self.concepts {
            hierarchy.add_concept(c.name.clone());
        }
        // Link pass after the add pass, so a concept may name a later
        // concept in the same delta as its parent.
        let base_concepts = hierarchy.n_concepts() - self.concepts.len();
        for (i, c) in self.concepts.iter().enumerate() {
            let id = ConceptId((base_concepts + i) as u32);
            for &p in &c.parents {
                hierarchy.link_concept(id, p)?;
            }
        }
        hierarchy.grow_items(self.items.len());
        for item in &self.items {
            let id = catalog.push(item.def.clone());
            if item.def.is_target && !item.parents.is_empty() {
                return Err(TxnError::TargetItemWithParents(id));
            }
            for &p in &item.parents {
                hierarchy.link_item(id, p)?;
            }
        }
        catalog.validate()?;
        hierarchy.validate()?;
        Ok((catalog, hierarchy))
    }
}

/// Serialize an ingest batch for the wire and the sales log. A batch
/// without growth stays in the legacy byte format (a bare JSON array of
/// transactions); one with growth becomes `{"catalog": …, "txns": […]}`.
pub fn encode_stream_record(catalog: Option<&CatalogDelta>, txns: &[Transaction]) -> String {
    match catalog {
        None => serde_json::to_string(&txns.to_vec()).expect("transactions serialize"),
        Some(delta) => {
            // The serde shim derive takes no generics or lifetimes, so
            // the record owns its halves; growth records are rare.
            #[derive(Serialize)]
            struct Record {
                catalog: CatalogDelta,
                txns: Vec<Transaction>,
            }
            serde_json::to_string(&Record {
                catalog: delta.clone(),
                txns: txns.to_vec(),
            })
            .expect("stream record serializes")
        }
    }
}

/// Decode a wire/log batch produced by [`encode_stream_record`] (or by
/// a pre-growth writer, which only ever produced the array form).
pub fn decode_stream_record(
    text: &str,
) -> Result<(Option<CatalogDelta>, Vec<Transaction>), String> {
    match text.trim_start().as_bytes().first() {
        Some(b'[') => {
            let txns: Vec<Transaction> = serde_json::from_str(text).map_err(|e| e.to_string())?;
            Ok((None, txns))
        }
        Some(b'{') => {
            #[derive(Deserialize)]
            struct Record {
                catalog: CatalogDelta,
                txns: Vec<Transaction>,
            }
            let rec: Record = serde_json::from_str(text).map_err(|e| e.to_string())?;
            Ok((Some(rec.catalog), rec.txns))
        }
        _ => Err("stream record must be a JSON array of transactions or a \
                  {\"catalog\", \"txns\"} object"
            .to_string()),
    }
}

/// Replay sales-log records onto `data` in order: decode each payload
/// (UTF-8, then [`decode_stream_record`]) and apply it with
/// [`TransactionSet::apply_stream_record`]. A record with neither
/// transactions nor catalog growth is skipped; `applied` runs after
/// every other record. `first` is the absolute stream position of
/// `records[0]`, and an error pairs the failing record's position with
/// the reason.
pub fn replay_stream_records(
    data: &mut TransactionSet,
    records: &[Vec<u8>],
    first: u64,
    mut applied: impl FnMut(&TransactionSet),
) -> Result<(), (u64, String)> {
    for (i, payload) in records.iter().enumerate() {
        let at = |why: String| (first + i as u64, why);
        let text = std::str::from_utf8(payload).map_err(|e| at(e.to_string()))?;
        let (delta, txns) = decode_stream_record(text).map_err(at)?;
        if txns.is_empty() && delta.as_ref().is_none_or(CatalogDelta::is_empty) {
            continue;
        }
        data.apply_stream_record(delta.as_ref(), &txns)
            .map_err(|e| at(e.to_string()))?;
        applied(data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::PromotionCode;
    use crate::ids::{CodeId, ItemId};
    use crate::money::Money;
    use crate::sale::Sale;

    fn base_set() -> TransactionSet {
        let mut c = Catalog::new();
        c.push(ItemDef {
            name: "target".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(100),
                Money::from_cents(40),
            )],
            is_target: true,
        });
        c.push(ItemDef {
            name: "trigger".into(),
            codes: vec![PromotionCode::unit(
                Money::from_cents(50),
                Money::from_cents(20),
            )],
            is_target: false,
        });
        let mut h = Hierarchy::flat(2);
        let snacks = h.add_concept("snacks");
        h.link_item(ItemId(1), snacks).unwrap();
        let txn = Transaction::new(
            vec![Sale::new(ItemId(1), CodeId(0), 1)],
            Sale::new(ItemId(0), CodeId(0), 2),
        );
        TransactionSet::new(c, h, vec![txn]).unwrap()
    }

    fn growth() -> CatalogDelta {
        CatalogDelta {
            concepts: vec![NewConcept {
                name: "frozen".into(),
                // Parent is the *existing* concept 0 ("snacks").
                parents: vec![ConceptId(0)],
            }],
            items: vec![
                NewItem {
                    def: ItemDef {
                        name: "new-trigger".into(),
                        codes: vec![PromotionCode::unit(
                            Money::from_cents(80),
                            Money::from_cents(30),
                        )],
                        is_target: false,
                    },
                    // Parent is the concept this same delta introduces.
                    parents: vec![ConceptId(1)],
                },
                NewItem {
                    def: ItemDef {
                        name: "new-target".into(),
                        codes: vec![PromotionCode::unit(
                            Money::from_cents(200),
                            Money::from_cents(90),
                        )],
                        is_target: true,
                    },
                    parents: vec![],
                },
            ],
        }
    }

    #[test]
    fn growth_appends_without_touching_existing_entries() {
        let mut ds = base_set();
        let before_catalog = ds.catalog().clone();
        ds.extend_catalog(&growth()).unwrap();
        assert_eq!(ds.catalog().len(), 4);
        assert_eq!(ds.hierarchy().n_items(), 4);
        assert_eq!(ds.hierarchy().n_concepts(), 2);
        // Existing entries are byte-for-byte what they were.
        for i in 0..before_catalog.len() {
            let id = ItemId(i as u32);
            assert_eq!(
                serde_json::to_string(ds.catalog().item(id)).unwrap(),
                serde_json::to_string(before_catalog.item(id)).unwrap()
            );
        }
        assert_eq!(ds.hierarchy().item_parents(ItemId(0)), &[]);
        assert_eq!(ds.hierarchy().item_parents(ItemId(1)), &[ConceptId(0)]);
        // New entries landed where the delta said.
        assert_eq!(ds.catalog().item(ItemId(2)).name, "new-trigger");
        assert!(ds.catalog().item(ItemId(3)).is_target);
        assert_eq!(ds.hierarchy().item_parents(ItemId(2)), &[ConceptId(1)]);
        assert_eq!(
            ds.hierarchy().concept_parents(ConceptId(1)),
            &[ConceptId(0)]
        );
        // Heads append at the end: target items in catalog order.
        assert_eq!(ds.catalog().target_items(), vec![ItemId(0), ItemId(3)]);
        // Transactions over the new items now validate and append.
        let t = Transaction::new(
            vec![Sale::new(ItemId(2), CodeId(0), 1)],
            Sale::new(ItemId(3), CodeId(0), 1),
        );
        ds.extend_from(&[t]).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn invalid_growth_is_rejected_atomically() {
        let mut ds = base_set();
        // A new item with no codes.
        let mut bad = growth();
        bad.items[0].def.codes.clear();
        assert_eq!(
            ds.extend_catalog(&bad).unwrap_err(),
            TxnError::NoCodes(ItemId(2))
        );
        // A new target item below a concept.
        let mut bad = growth();
        bad.items[1].parents = vec![ConceptId(0)];
        assert_eq!(
            ds.extend_catalog(&bad).unwrap_err(),
            TxnError::TargetItemWithParents(ItemId(3))
        );
        // A parent link out of range for the grown table.
        let mut bad = growth();
        bad.concepts[0].parents = vec![ConceptId(9)];
        assert_eq!(
            ds.extend_catalog(&bad).unwrap_err(),
            TxnError::UnknownConcept(ConceptId(9))
        );
        // Nothing grew across any of the failures.
        assert_eq!(ds.catalog().len(), 2);
        assert_eq!(ds.hierarchy().n_concepts(), 1);
    }

    #[test]
    fn stream_record_codec_round_trips_and_keeps_legacy_bytes() {
        let ds = base_set();
        let txns = ds.transactions().to_vec();
        // No growth ⇒ the exact legacy array bytes.
        let legacy = encode_stream_record(None, &txns);
        assert_eq!(legacy, serde_json::to_string(&txns).unwrap());
        let (delta, back) = decode_stream_record(&legacy).unwrap();
        assert!(delta.is_none());
        assert_eq!(back.len(), 1);
        // Growth ⇒ object form, round-trips both halves.
        let with_growth = encode_stream_record(Some(&growth()), &txns);
        assert!(with_growth.starts_with('{'));
        let (delta, back) = decode_stream_record(&with_growth).unwrap();
        let delta = delta.unwrap();
        assert_eq!(delta.items.len(), 2);
        assert_eq!(delta.concepts.len(), 1);
        assert_eq!(back.len(), 1);
        // Re-encoding the decoded record reproduces the bytes.
        assert_eq!(encode_stream_record(Some(&delta), &back), with_growth);
        // Garbage is a typed error, not a panic.
        assert!(decode_stream_record("42").is_err());
        assert!(decode_stream_record("").is_err());
    }

    #[test]
    fn replay_applies_records_in_order_and_names_the_failing_one() {
        let mut ds = base_set();
        let txns = ds.transactions().to_vec();
        let records: Vec<Vec<u8>> = vec![
            encode_stream_record(Some(&growth()), &txns).into_bytes(),
            b"[]".to_vec(),
            encode_stream_record(None, &txns).into_bytes(),
            b"\xff".to_vec(),
            b"42".to_vec(),
        ];
        let mut seen = Vec::new();
        let err = replay_stream_records(&mut ds, &records, 7, |d| seen.push(d.len()));
        // The empty record is skipped; the non-UTF-8 one stops the replay.
        assert_eq!(seen, vec![2, 3]);
        assert_eq!(ds.catalog().len(), 4);
        let (at, why) = err.unwrap_err();
        assert_eq!(at, 10);
        assert!(why.contains("utf-8"), "{why}");
        assert_eq!(
            replay_stream_records(&mut ds, &records[4..], 11, |_| {})
                .unwrap_err()
                .0,
            11
        );
    }

    #[test]
    fn validate_stream_record_checks_without_applying() {
        let ds = base_set();
        let t_new = Transaction::new(vec![], Sale::new(ItemId(3), CodeId(0), 1));
        // A transaction over a not-yet-known item fails without growth…
        assert_eq!(
            ds.validate_stream_record(None, std::slice::from_ref(&t_new))
                .unwrap_err(),
            TxnError::UnknownItem(ItemId(3))
        );
        // …and passes when the same record carries the growth delta.
        ds.validate_stream_record(Some(&growth()), std::slice::from_ref(&t_new))
            .unwrap();
        // Validation did not grow the live set.
        assert_eq!(ds.catalog().len(), 2);
    }
}
