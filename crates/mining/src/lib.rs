//! # anomex-mining — frequent item-set mining over flow transactions
//!
//! The association-rule substrate of the
//! [anomex](https://crates.io/crates/anomex) anomaly-extraction system
//! (Brauckhoff et al., IMC 2009 / IEEE ToN 2012).
//!
//! The paper models each flow record as a width-7 market-basket transaction
//! (srcIP, dstIP, srcPort, dstPort, protocol, #packets, #bytes) and mines
//! **maximal frequent item-sets** with a minimum-support threshold; the
//! resulting item-sets *are* the extracted anomaly summary.
//!
//! Provided here:
//!
//! - [`Item`], [`Transaction`], [`TransactionSet`] — the transaction model
//!   with the no-duplicate-feature invariant; a set stores its rows as one
//!   column per feature, and both miners count single items per column;
//! - [`fpgrowth`](fpgrowth::fpgrowth) — FP-growth over a dense-rank
//!   FP-tree, the faster miner the paper cites (§III-E) and the one every
//!   extraction runs;
//! - [`mine`] — an extraction's mining pass: FP-growth once, the maximal
//!   item-sets, and the rules when asked for. It runs on the calling
//!   thread;
//! - [`apriori`](apriori::apriori) — the paper's modified Apriori with
//!   per-level statistics ([`LevelStats`]) matching the §II-B audit trail:
//!   Table II's miner, and the reference FP-growth is tested against
//!   (both return the same item-sets and supports);
//! - [`filter_maximal`] — maximal-item-set filtering;
//! - [`mine_top_k`] — the paper's §V report-size-driven extension: the
//!   k most frequent item-sets without choosing a support;
//! - [`rules`] — the *second* step of association-rule mining: rules
//!   `X ⇒ Y` with confidence/lift/leverage/conviction derived from the
//!   counted supports (never rescanning transactions), a rare-itemset
//!   per-level support floor for low-support attacks, and a
//!   meta-detection pass that z-scores each rule's metric vector against
//!   the interval's rule population to rank anomalous rules. The paper
//!   stops at frequent item-sets (§II-B); the rule layer adds tightness
//!   evidence and rule-level anomaly ranking on top of them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apriori;
pub mod combinations;
mod count;
mod eclat;
pub mod fpgrowth;
pub mod item;
pub mod itemset;
mod legacy;
pub mod maximal;
pub mod miner;
pub mod rules;
pub mod topk;
pub mod transaction;

pub use apriori::{AprioriConfig, AprioriOutput, LevelStats};
pub use item::Item;
pub use itemset::{canonicalize, ItemSet};
#[doc(hidden)]
pub use legacy::*;
pub use maximal::filter_maximal;
pub use miner::mine;
pub use rules::{merge_rule_sets, Rule, RuleConfig, RuleSet, ScoredRule, RARE_SUPPORT_GUARD};
pub use topk::{mine_top_k, TopK};
pub use transaction::{Transaction, TransactionError, TransactionSet, CANONICAL_WIDTH, MAX_WIDTH};
