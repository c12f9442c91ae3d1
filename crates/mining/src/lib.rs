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
//!   with the no-duplicate-feature invariant;
//! - [`fpgrowth`](fpgrowth::fpgrowth) — FP-growth over a dense-rank
//!   FP-tree, the faster miner the paper cites (§III-E) and the default;
//! - [`apriori`](apriori::apriori) — the paper's modified Apriori with
//!   per-level statistics ([`LevelStats`]) matching the §II-B audit trail,
//!   kept as the reference;
//! - [`eclat`](eclat::eclat) — vertical tid-list mining; all three share
//!   one output contract;
//! - [`filter_maximal`] — maximal-item-set filtering;
//! - [`MinerKind`] — runtime-selectable miner (default FP-growth);
//!   [`MinerKind::mine`] is the one dispatch an extraction runs through
//!   (maximal item-sets, Apriori's audit trail, optional rules), in any
//!   [`par::Exec`] context;
//! - [`mine_top_k`] — the paper's §V report-size-driven extension: the
//!   k most frequent item-sets without choosing a support;
//! - [`par`] — deterministic parallelism: the flat counting passes
//!   (single-item counts, Apriori's level-k count, Eclat's tid-lists)
//!   and the rule fan-out run as ordered chunk maps
//!   ([`map_chunks_arc`], [`par::map_ranges_arc`]) on the engine's
//!   worker pool; the miners' searches run on the calling thread. Every
//!   miner's `*_exec` output is bit-identical to the sequential one for
//!   every execution context and pool width;
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
pub mod eclat;
pub mod fpgrowth;
pub mod item;
pub mod itemset;
pub mod maximal;
pub mod miner;
pub mod par;
pub mod rules;
pub mod topk;
pub mod transaction;

pub use apriori::{apriori_exec, AprioriConfig, AprioriOutput, LevelStats};
pub use eclat::eclat_exec;
pub use fpgrowth::fpgrowth_exec;
pub use item::Item;
pub use itemset::{canonicalize, ItemSet};
pub use maximal::{filter_maximal, filter_maximal_general};
pub use miner::MinerKind;
pub use par::{map_chunks_arc, Exec};
pub use rules::{
    generate_rules, merge_rule_sets, Rule, RuleConfig, RuleSet, ScoredRule, RARE_SUPPORT_GUARD,
};
pub use topk::{mine_top_k, TopK};
pub use transaction::{Transaction, TransactionError, TransactionSet, CANONICAL_WIDTH, MAX_WIDTH};
