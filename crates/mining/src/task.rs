//! [`MineTask`] — one mining invocation, independent of where it runs.
//!
//! Every extraction path in the engine ends in the same shape of call:
//! *mine this transaction set at this support with this algorithm, all
//! or maximal-only, in this execution context*. `MineTask` folds the
//! what (algorithm, mode, support, input) into one value whose
//! [`run`](MineTask::run) takes the where ([`Exec`]) — so there is
//! exactly one dispatch point from task description to algorithm, and
//! the engine's callers (pipeline, engine, streaming, CLI) all describe
//! work the same way.

use crate::apriori::{apriori_exec, AprioriConfig, AprioriOutput, LevelStats};
use crate::eclat::eclat_exec;
use crate::fpgrowth::fpgrowth_exec;
use crate::itemset::ItemSet;
use crate::maximal::filter_maximal;
use crate::miner::MinerKind;
use crate::par::Exec;
use crate::rules::{generate_rules, RuleConfig, RuleSet};
use crate::transaction::{Transaction, TransactionSet};

/// A fully described mining invocation: which algorithm, over which
/// transactions, at which support, producing all or only maximal
/// frequent item-sets. Execute with [`run`](MineTask::run) in any
/// [`Exec`] context — the output is **bit-identical** across contexts
/// for every task, which is what makes the engine free to move mining
/// between inline and pool execution per call site.
#[derive(Debug, Clone, Copy)]
pub struct MineTask<'a> {
    set: &'a TransactionSet,
    kind: MinerKind,
    min_support: u64,
    maximal: bool,
}

impl<'a> MineTask<'a> {
    /// Describe mining **all** frequent item-sets.
    #[must_use]
    pub fn all(kind: MinerKind, set: &'a TransactionSet, min_support: u64) -> Self {
        MineTask {
            set,
            kind,
            min_support,
            maximal: false,
        }
    }

    /// Describe mining only **maximal** frequent item-sets — the paper's
    /// modified output (§II-B).
    #[must_use]
    pub fn maximal(kind: MinerKind, set: &'a TransactionSet, min_support: u64) -> Self {
        MineTask {
            set,
            kind,
            min_support,
            maximal: true,
        }
    }

    /// The algorithm this task dispatches to.
    #[must_use]
    pub fn kind(&self) -> MinerKind {
        self.kind
    }

    /// The minimum-support threshold.
    #[must_use]
    pub fn min_support(&self) -> u64 {
        self.min_support
    }

    /// Whether the output is restricted to maximal item-sets.
    #[must_use]
    pub fn is_maximal(&self) -> bool {
        self.maximal
    }

    /// Run the task in the given execution context, returning the
    /// canonically ordered item-sets.
    ///
    /// # Panics
    ///
    /// Panics if the task's `min_support` is zero.
    #[must_use]
    pub fn run(&self, exec: Exec<'_>) -> Vec<ItemSet> {
        match self.kind {
            MinerKind::Apriori => self.run_apriori(exec).itemsets,
            MinerKind::FpGrowth => {
                let all = fpgrowth_exec(self.set, self.min_support, exec);
                if self.maximal {
                    filter_maximal(all)
                } else {
                    all
                }
            }
            MinerKind::Eclat => {
                let all = eclat_exec(self.set, self.min_support, exec);
                if self.maximal {
                    filter_maximal(all)
                } else {
                    all
                }
            }
        }
    }

    /// Run the task as Apriori regardless of [`kind`](Self::kind),
    /// returning the full [`AprioriOutput`] — the entry point for
    /// callers that need the per-level audit trail (§II-B Table II).
    ///
    /// # Panics
    ///
    /// Panics if the task's `min_support` is zero.
    #[must_use]
    pub fn run_apriori(&self, exec: Exec<'_>) -> AprioriOutput {
        let config = AprioriConfig {
            min_support: self.min_support,
            maximal_only: self.maximal,
        };
        apriori_exec(self.set, &config, exec)
    }

    /// Run the task with the association-rule layer on top: mine **all**
    /// frequent item-sets once at [`RuleConfig::mining_floor`] (the
    /// task's `min_support` normally; the rare per-level floor at the
    /// widest transaction in rare mode), derive the maximal item-sets at
    /// the task's `min_support` from that single run (exact by downward
    /// closure — no second mining pass), and generate, filter and rank
    /// rules from the counted supports via
    /// [`generate_rules`].
    ///
    /// The [`RuleMineOutput::itemsets`] equal what
    /// [`run`](Self::run) in maximal mode returns, and for Apriori the
    /// level audit trail is carried over (with maximal counters filled
    /// in), so enabling rules never changes the item-set report.
    ///
    /// # Panics
    ///
    /// Panics if the task's `min_support` is zero.
    #[must_use]
    pub fn run_with_rules(&self, rules: &RuleConfig, exec: Exec<'_>) -> RuleMineOutput {
        let width = self
            .set
            .transactions()
            .iter()
            .map(Transaction::width)
            .max()
            .unwrap_or(0);
        if width == 0 {
            return RuleMineOutput {
                itemsets: Vec::new(),
                levels: Vec::new(),
                rules: RuleSet::empty(),
            };
        }
        let floor = rules.mining_floor(self.min_support, width);
        let (all, mut levels) = match self.kind {
            MinerKind::Apriori => {
                let out = apriori_exec(self.set, &AprioriConfig::all_frequent(floor), exec);
                (out.itemsets, out.levels)
            }
            _ => (
                MineTask::all(self.kind, self.set, floor).run(exec),
                Vec::new(),
            ),
        };
        let at_support: Vec<ItemSet> = all
            .iter()
            .filter(|s| s.support >= self.min_support)
            .cloned()
            .collect();
        let itemsets = filter_maximal(at_support);
        for set in &itemsets {
            if let Some(stats) = levels.get_mut(set.len() - 1) {
                stats.maximal += 1;
            }
        }
        let ranked = generate_rules(&all, self.set.len() as u64, self.min_support, rules, exec);
        RuleMineOutput {
            itemsets,
            levels,
            rules: ranked,
        }
    }
}

/// What [`MineTask::run_with_rules`] produces: the maximal item-set
/// report at the task's support, the Apriori level audit trail (empty
/// for other miners), and the ranked rule population.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleMineOutput {
    /// Maximal frequent item-sets at the task's `min_support`, in
    /// canonical order — identical to the rule-free maximal run.
    pub itemsets: Vec<ItemSet>,
    /// Apriori per-level statistics of the mining pass actually run
    /// (at the rule mining floor, which equals `min_support` outside
    /// rare mode); empty for FP-growth and Eclat.
    pub levels: Vec<LevelStats>,
    /// The generated, filtered, z-score-ranked rules.
    pub rules: RuleSet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::transaction::Transaction;
    use anomex_netflow::FlowFeature;

    fn sample() -> TransactionSet {
        let mut set = TransactionSet::new();
        for i in 0..12u64 {
            let t = Transaction::from_items(&[
                Item::new(FlowFeature::DstPort, 80 + i % 2),
                Item::new(FlowFeature::Proto, 6),
                Item::new(FlowFeature::Packets, i % 3),
            ])
            .unwrap();
            set.push(t);
        }
        set
    }

    #[test]
    fn task_matches_direct_calls_for_every_kind_and_mode() {
        let set = sample();
        for kind in MinerKind::ALL {
            let all = MineTask::all(kind, &set, 3).run(Exec::inline());
            assert_eq!(all, kind.mine_all(&set, 3), "{kind} all");
            let max = MineTask::maximal(kind, &set, 3).run(Exec::inline());
            assert_eq!(max, kind.mine_maximal(&set, 3), "{kind} maximal");
        }
    }

    #[test]
    fn apriori_audit_trail_is_reachable_through_the_task() {
        let set = sample();
        let out = MineTask::maximal(MinerKind::Apriori, &set, 3).run_apriori(Exec::inline());
        assert!(!out.levels.is_empty());
        assert!(out.passes >= 1);
    }

    #[test]
    fn rule_run_reproduces_the_maximal_report_and_ranks_rules() {
        let set = sample();
        let loose = RuleConfig {
            min_confidence: 0.0,
            min_lift: 0.0,
            rare: false,
        };
        for kind in MinerKind::ALL {
            let out = MineTask::maximal(kind, &set, 3).run_with_rules(&loose, Exec::inline());
            assert_eq!(
                out.itemsets,
                MineTask::maximal(kind, &set, 3).run(Exec::inline()),
                "{kind}: enabling rules must not change the item-set report"
            );
            assert!(!out.rules.is_empty(), "{kind}");
            assert_eq!(out.rules.transactions, set.len() as u64);
        }
        let legacy = MineTask::maximal(MinerKind::Apriori, &set, 3).run_apriori(Exec::inline());
        let with_rules =
            MineTask::maximal(MinerKind::Apriori, &set, 3).run_with_rules(&loose, Exec::inline());
        assert_eq!(with_rules.levels, legacy.levels, "audit trail carried over");
    }

    #[test]
    fn rule_run_on_an_empty_set_is_empty() {
        let set = TransactionSet::new();
        let out = MineTask::maximal(MinerKind::Apriori, &set, 1)
            .run_with_rules(&RuleConfig::default(), Exec::inline());
        assert!(out.itemsets.is_empty());
        assert!(out.levels.is_empty());
        assert!(out.rules.is_empty());
    }

    #[test]
    fn accessors_reflect_the_description() {
        let set = sample();
        let task = MineTask::maximal(MinerKind::Eclat, &set, 7);
        assert_eq!(task.kind(), MinerKind::Eclat);
        assert_eq!(task.min_support(), 7);
        assert!(task.is_maximal());
        assert!(!MineTask::all(MinerKind::Eclat, &set, 7).is_maximal());
    }
}
