//! The legacy surface the frozen benchmark replica imports is its main
//! path under another call shape: on one input, each legacy item gives
//! exactly what the call it adapts gives. Both `MinerKind` arms, the
//! replica's miner cross-check, are [`mine`] without rules.

use anomex_mining::apriori::apriori;
use anomex_mining::fpgrowth::fpgrowth;
use anomex_mining::{
    apriori_exec, generate_rules, mine, AprioriConfig, Exec, Item, MinerKind, RuleConfig, RuleSet,
    Transaction, TransactionSet,
};
use anomex_netflow::FlowFeature;

/// A flood on one port over a little background: item-sets of every
/// length up to three, and rules with confidence below and at 1.
fn transactions() -> TransactionSet {
    let mut set = TransactionSet::new();
    for i in 0..40u64 {
        let (port, proto) = if i % 4 == 0 { (80, 6) } else { (7000, 17) };
        let items = [
            Item::new(FlowFeature::DstPort, port),
            Item::new(FlowFeature::Proto, proto),
            Item::new(FlowFeature::Packets, i % 3),
        ];
        set.push(Transaction::from_items(&items).unwrap());
    }
    set
}

#[test]
fn apriori_exec_is_apriori() {
    let set = transactions();
    for config in [AprioriConfig::maximal(5), AprioriConfig::all_frequent(5)] {
        let legacy = apriori_exec(&set, &config, Exec::inline());
        let main = apriori(&set, &config);
        assert_eq!(legacy.itemsets, main.itemsets);
        assert_eq!(legacy.levels, main.levels);
        assert_eq!(legacy.passes, main.passes);
    }
}

#[test]
fn mine_maximal_exec_is_mine_maximal() {
    let set = transactions();
    for kind in [MinerKind::FpGrowth, MinerKind::Eclat] {
        assert_eq!(
            kind.mine_maximal_exec(&set, 5, Exec::inline()),
            kind.mine_maximal(&set, 5),
            "{kind:?}"
        );
        assert_eq!(
            kind.mine_maximal(&set, 5),
            mine(&set, 5, None).0,
            "{kind:?}"
        );
    }
}

#[test]
fn generate_rules_is_rule_set_generate() {
    let set = transactions();
    let frequent = fpgrowth(&set, 1);
    let n = set.len() as u64;
    for rare in [false, true] {
        let config = RuleConfig {
            rare,
            ..RuleConfig::default()
        };
        let main = RuleSet::generate(&frequent, n, 5, &config);
        assert!(!main.is_empty());
        assert_eq!(
            generate_rules(&frequent, n, 5, &config, Exec::inline()),
            main
        );
    }
}
