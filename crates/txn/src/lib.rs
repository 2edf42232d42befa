//! Transaction data model for profit mining (§2 of the EDBT 2002 paper).
//!
//! The types here express the paper's problem statement verbatim:
//!
//! * **Items** carry one or more **promotion codes** — a `(price, cost)`
//!   pair for a promotion *packing* (e.g. `$3.2/4-pack` at cost `$2`);
//! * a **sale** `<I, P, Q>` is a quantity `Q` of item `I` sold under
//!   promotion code `P`;
//! * a **transaction** is one *target* sale plus several *non-target*
//!   sales;
//! * a **concept hierarchy** `H` organizes non-target items below
//!   categories (e.g. `Flake_Chicken → Chicken → Meat → Food → ANY`);
//! * **MOA(H)** (*mining on availability*) extends `H` below each item
//!   leaf with the favorability order `≺` on its promotion codes: a
//!   customer willing to buy under `P'` would also buy under any more
//!   favorable `P ≺ P'`;
//! * a **generalized sale** is a concept, an item, or an `(item, code)`
//!   pair; generalized sales *match* concrete sales through `MOA(H)`.
//!
//! Money is fixed-point (`i64` cents) throughout — see [`Money`]; profits
//! become `f64` dollars only at the measure layer, because buying MOA
//! introduces fractional quantities.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod catalog;
pub mod code;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod gensale;
pub mod growth;
pub mod hierarchy;
pub mod ids;
pub mod moa;
pub mod money;
pub mod sale;
pub mod target;

pub use builder::CatalogBuilder;
pub use catalog::{Catalog, ItemDef};
pub use code::PromotionCode;
pub use dataset::TransactionSet;
pub use error::TxnError;
pub use gensale::GenSale;
pub use growth::{
    decode_stream_record, encode_stream_record, replay_stream_records, CatalogDelta, NewConcept,
    NewItem,
};
pub use hierarchy::Hierarchy;
pub use ids::{CodeId, ConceptId, ItemId};
pub use moa::{Moa, QuantityModel};
pub use money::Money;
pub use sale::{Sale, TargetSale, Transaction};
pub use target::{parse_item_floors, TargetFilter};
