//! What only the frozen benchmark replica calls, in the call shapes it
//! imports, re-exported hidden at the crate root: thin adapters over the
//! main path, deleted with `tests/legacy.rs` in ROADMAP item 12(b).
//! [`MinerKind`] keeps its `Eclat` arm for the replica's cross-check of
//! the miners; it mines with FP-growth too.

use crate::apriori::{apriori, AprioriConfig, AprioriOutput};
use crate::itemset::ItemSet;
use crate::miner::mine;
use crate::rules::{RuleConfig, RuleSet};
use crate::transaction::TransactionSet;

/// The execution-context argument of [`apriori_exec`],
/// [`generate_rules`] and [`MinerKind::mine_maximal_exec`]: every pass
/// runs on the calling thread, so it selects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exec;

impl Exec {
    /// The one execution context: the calling thread.
    #[must_use]
    pub fn inline() -> Exec {
        Exec
    }
}

/// [`apriori`]; the [`Exec`] argument selects nothing.
#[must_use]
pub fn apriori_exec(set: &TransactionSet, config: &AprioriConfig, _exec: Exec) -> AprioriOutput {
    apriori(set, config)
}

/// [`RuleSet::generate`]; the [`Exec`] argument selects nothing.
#[must_use]
pub fn generate_rules(
    frequent: &[ItemSet],
    transactions: u64,
    min_support: u64,
    config: &RuleConfig,
    _exec: Exec,
) -> RuleSet {
    RuleSet::generate(frequent, transactions, min_support, config)
}

/// The miners the replica cross-checks against Apriori. Both arms are
/// [`mine`] without rules: Eclat, which returned FP-growth's item-sets
/// and supports, is gone, and its name stays for the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinerKind {
    /// FP-growth: [`mine`] without rules.
    FpGrowth,
    /// The same as [`MinerKind::FpGrowth`].
    Eclat,
}

impl MinerKind {
    /// The maximal frequent item-sets at `min_support`, canonically
    /// ordered.
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero.
    #[must_use]
    pub fn mine_maximal(self, set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
        mine(set, min_support, None).0
    }

    /// [`mine_maximal`](Self::mine_maximal); the [`Exec`] argument
    /// selects nothing.
    #[must_use]
    pub fn mine_maximal_exec(
        self,
        set: &TransactionSet,
        min_support: u64,
        _exec: Exec,
    ) -> Vec<ItemSet> {
        self.mine_maximal(set, min_support)
    }
}
