//! Unified miner interface: the three algorithms are interchangeable.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::itemset::ItemSet;
use crate::par::Exec;
use crate::task::MineTask;
use crate::transaction::TransactionSet;

/// Which frequent item-set algorithm to run.
///
/// All three produce identical item-sets and supports; they differ only in
/// time and memory. The paper used Apriori (§II-B) and cites FP-tree and
/// vertical methods as the faster alternatives (§III-E); FP-growth is the
/// default — the one definition every extraction path reads — and Apriori
/// stays the reference that carries the Table II level audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MinerKind {
    /// Level-wise Apriori (the paper's algorithm; the only miner that
    /// records [`LevelStats`](crate::LevelStats)).
    Apriori,
    /// FP-growth (pattern-growth, no candidate generation) — the default.
    #[default]
    FpGrowth,
    /// Eclat (vertical tid-list intersection).
    Eclat,
}

impl MinerKind {
    /// All miners, for cross-checking and benches.
    pub const ALL: [MinerKind; 3] = [MinerKind::Apriori, MinerKind::FpGrowth, MinerKind::Eclat];

    /// Mine **all** frequent item-sets (support ≥ `min_support`),
    /// canonically ordered.
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero.
    #[must_use]
    pub fn mine_all(self, set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
        self.mine_all_exec(set, min_support, Exec::inline())
    }

    /// Mine only **maximal** frequent item-sets — the paper's modified
    /// output (§II-B).
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero.
    #[must_use]
    pub fn mine_maximal(self, set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
        self.mine_maximal_exec(set, min_support, Exec::inline())
    }

    /// [`mine_all`](Self::mine_all) in the given execution context
    /// ([`Exec::Pool`] runs the flat counting passes as chunk jobs on the
    /// engine's persistent pool; the search runs on the calling thread).
    /// Output is bit-identical to the single-threaded call for every
    /// miner and context. Dispatches through [`MineTask`].
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero.
    #[must_use]
    pub fn mine_all_exec(
        self,
        set: &TransactionSet,
        min_support: u64,
        exec: Exec<'_>,
    ) -> Vec<ItemSet> {
        MineTask::all(self, set, min_support).run(exec)
    }

    /// [`mine_maximal`](Self::mine_maximal) in the given execution
    /// context. Output is bit-identical to the
    /// single-threaded call for every miner and context. Dispatches
    /// through [`MineTask`].
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero.
    #[must_use]
    pub fn mine_maximal_exec(
        self,
        set: &TransactionSet,
        min_support: u64,
        exec: Exec<'_>,
    ) -> Vec<ItemSet> {
        MineTask::maximal(self, set, min_support).run(exec)
    }
}

impl fmt::Display for MinerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinerKind::Apriori => f.write_str("apriori"),
            MinerKind::FpGrowth => f.write_str("fp-growth"),
            MinerKind::Eclat => f.write_str("eclat"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::transaction::Transaction;
    use anomex_netflow::FlowFeature;

    fn sample() -> TransactionSet {
        let mut set = TransactionSet::new();
        for i in 0..10u64 {
            let t = Transaction::from_items(&[
                Item::new(FlowFeature::DstPort, 80),
                Item::new(FlowFeature::Packets, i % 2),
            ])
            .unwrap();
            set.push(t);
        }
        set
    }

    #[test]
    fn all_miners_agree_on_both_modes() {
        let set = sample();
        let reference_all = MinerKind::Apriori.mine_all(&set, 3);
        let reference_max = MinerKind::Apriori.mine_maximal(&set, 3);
        for kind in MinerKind::ALL {
            assert_eq!(kind.mine_all(&set, 3), reference_all, "{kind} all");
            assert_eq!(kind.mine_maximal(&set, 3), reference_max, "{kind} maximal");
        }
    }

    #[test]
    fn maximal_is_subset_of_all() {
        let set = sample();
        let all = MinerKind::FpGrowth.mine_all(&set, 2);
        let maximal = MinerKind::FpGrowth.mine_maximal(&set, 2);
        for m in &maximal {
            assert!(all.contains(m));
        }
        assert!(maximal.len() <= all.len());
    }

    #[test]
    fn pool_execution_is_bit_identical_to_inline() {
        use crossbeam::WorkerPool;
        use std::num::NonZeroUsize;
        // Large enough that the parallel passes actually split chunks.
        let mut set = TransactionSet::new();
        for i in 0..6000u64 {
            let t = Transaction::from_items(&[
                Item::new(FlowFeature::DstPort, 80 + i % 3),
                Item::new(FlowFeature::Proto, 6 + (i % 2) * 11),
                Item::new(FlowFeature::Packets, i % 5),
            ])
            .unwrap();
            set.push(t);
        }
        let pool = WorkerPool::new(NonZeroUsize::new(4).unwrap());
        for kind in MinerKind::ALL {
            let reference = kind.mine_maximal(&set, 400);
            let pooled = kind.mine_maximal_exec(&set, 400, Exec::Pool(&pool));
            assert_eq!(pooled, reference, "{kind}");
            for (a, b) in pooled.iter().zip(&reference) {
                assert_eq!(a.support, b.support, "{kind} {a}");
            }
            assert_eq!(
                kind.mine_all_exec(&set, 400, Exec::Pool(&pool)),
                kind.mine_all(&set, 400),
                "{kind} all-frequent"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(MinerKind::Apriori.to_string(), "apriori");
        assert_eq!(MinerKind::FpGrowth.to_string(), "fp-growth");
        assert_eq!(MinerKind::Eclat.to_string(), "eclat");
    }
}
