//! Association rules `X ⇒ Y` over mined frequent item-sets, with a
//! meta-detection pass that ranks the rules themselves by how anomalous
//! they are.
//!
//! The paper stops at maximal frequent item-sets (§II-B argues plain
//! directional rules add nothing for anomaly *extraction*), but the rule
//! layer earns its keep twice over:
//!
//! - **Rule metrics as evidence.** Confidence, lift, leverage and
//!   conviction quantify *how tightly* the items of an extracted
//!   item-set co-occur — `{dstIP=10.3.0.7} ⇒ {dstPort=7000}` at
//!   confidence 1.0 and lift ≫ 1 is a much stronger root-cause statement
//!   than the bare frequent set.
//! - **Meta-detection.** Following PARs (arXiv 2312.10968), each rule's
//!   metric vector is z-scored against the interval's whole rule
//!   population; rules whose metrics sit far from the population mean
//!   are ranked first. The anomaly *among the rules* is what the
//!   operator reads first.
//!
//! All metrics are computed **from the already-counted item-set
//!   supports** — generation never rescans the transactions:
//!
//! ```text
//! confidence(X ⇒ Y) = supp(X ∪ Y) / supp(X)
//! lift(X ⇒ Y)       = confidence / (supp(Y) / N)
//! leverage(X ⇒ Y)   = supp(X∪Y)/N − (supp(X)/N)·(supp(Y)/N)
//! conviction(X ⇒ Y) = (1 − supp(Y)/N) / (1 − confidence)   (∞ at confidence 1)
//! ```
//!
//! A **rare-itemset mode** (after "Rare Association Rule Mining for
//! Network Intrusion Detection", arXiv 1610.04306) lowers the support
//! floor per level — halving it for every item beyond the first, see
//! [`RuleConfig::level_floor`] — so long, specific attack signatures
//! survive an absolute min-support floor that would hide them.

use std::collections::BTreeMap;
use std::fmt;

use crate::combinations::for_each_combination;
use crate::item::Item;
use crate::itemset::ItemSet;

/// Default minimum confidence for emitted rules.
pub const DEFAULT_MIN_CONFIDENCE: f64 = 0.6;

/// Default minimum lift for emitted rules (1.0 = keep only rules whose
/// antecedent and consequent are positively associated).
pub const DEFAULT_MIN_LIFT: f64 = 1.0;

/// Cap substituted for an infinite conviction when a rule's metric
/// vector is z-scored: a confidence-1.0 rule scores as if its conviction
/// were this value, keeping the meta-detection arithmetic finite while
/// still ranking perfect implications as extreme.
pub const CONVICTION_SCORE_CAP: f64 = 100.0;

/// Smallest `min_support` at which rare mode's halving floor is safe on
/// large intervals; below it
/// [`RuleConfig::rare_floor_explosive`] reports the config as a
/// candidate-explosion risk (the per-level floor reaches 1 within the
/// transaction width and Apriori degenerates to full enumeration).
pub const RARE_SUPPORT_GUARD: u64 = 128;

/// Configuration of the rule layer: metric filters plus the rare-itemset
/// mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleConfig {
    /// Keep only rules with confidence ≥ this (in `[0, 1]`).
    pub min_confidence: f64,
    /// Keep only rules with lift ≥ this (≥ 0).
    pub min_lift: f64,
    /// Rare-itemset mode: per-level relative support floor (halving per
    /// additional item) instead of one absolute floor, so low-support
    /// attack signatures are not hidden. See [`level_floor`](Self::level_floor).
    pub rare: bool,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            min_confidence: DEFAULT_MIN_CONFIDENCE,
            min_lift: DEFAULT_MIN_LIFT,
            rare: false,
        }
    }
}

impl RuleConfig {
    /// Check the metric filters are in range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.min_confidence) {
            return Err(format!(
                "min_confidence must be within [0, 1], got {}",
                self.min_confidence
            ));
        }
        if !self.min_lift.is_finite() || self.min_lift < 0.0 {
            return Err(format!(
                "min_lift must be finite and non-negative, got {}",
                self.min_lift
            ));
        }
        Ok(())
    }

    /// The support floor a `len`-item-set must meet to seed rules.
    ///
    /// Normal mode: the absolute `min_support` at every level. Rare
    /// mode: `max(1, min_support >> (len − 1))` — the floor halves for
    /// every item beyond the first, so a width-4 attack signature only
    /// needs an eighth of the level-1 support. Relative (anchored at the
    /// configured floor) and parameter-free.
    #[must_use]
    pub fn level_floor(&self, min_support: u64, len: usize) -> u64 {
        if !self.rare || len <= 1 {
            return min_support;
        }
        let shift = u32::try_from(len - 1).unwrap_or(u32::MAX);
        min_support.checked_shr(shift).unwrap_or(0).max(1)
    }

    /// The single support floor to *mine* at so that every level's rare
    /// floor is covered: the [`level_floor`](Self::level_floor) at the
    /// widest transaction (floors decrease with length, so the deepest
    /// level's floor bounds them all).
    #[must_use]
    pub fn mining_floor(&self, min_support: u64, max_width: usize) -> u64 {
        self.level_floor(min_support, max_width.max(1))
    }

    /// Whether this rule config's effective mining floor can explode the
    /// candidate space on a large interval: in rare mode the per-level
    /// halving drives the floor toward support 1 when `min_support` is
    /// below [`RARE_SUPPORT_GUARD`], and Apriori at support ≈ 1 over a
    /// backbone-sized interval enumerates nearly every distinct flow
    /// combination (a 29 GB candidate blow-up was observed at
    /// `min_support < 128`). Front-ends should reject such configs — or
    /// demand an explicit override — before mining starts.
    #[must_use]
    pub fn rare_floor_explosive(&self, min_support: u64) -> bool {
        self.rare && min_support < RARE_SUPPORT_GUARD
    }
}

/// One association rule `X ⇒ Y` with its metrics, all derived from the
/// item-set supports counted during mining.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    antecedent: Vec<Item>,
    consequent: Vec<Item>,
    /// Transactions containing `X ∪ Y`.
    pub support: u64,
    /// Transactions containing the antecedent `X`.
    pub antecedent_support: u64,
    /// Transactions containing the consequent `Y`.
    pub consequent_support: u64,
    /// `supp(X ∪ Y) / supp(X)` ∈ `[0, 1]`.
    pub confidence: f64,
    /// `confidence / (supp(Y) / N)`; > 1 means positive association.
    pub lift: f64,
    /// `supp(X∪Y)/N − (supp(X)/N)·(supp(Y)/N)` ∈ `[−0.25, 0.25]`.
    pub leverage: f64,
    /// `(1 − supp(Y)/N) / (1 − confidence)`; `None` encodes ∞ — the
    /// rule never fails (confidence exactly 1).
    pub conviction: Option<f64>,
}

impl Rule {
    /// Build a rule from its already-counted supports over `transactions`
    /// transactions, computing every metric.
    ///
    /// # Panics
    ///
    /// Panics if `antecedent_support`, `consequent_support` or
    /// `transactions` is zero (a frequent item-set always has support
    /// ≥ 1 over a non-empty set).
    #[must_use]
    pub fn from_supports(
        antecedent: Vec<Item>,
        consequent: Vec<Item>,
        support: u64,
        antecedent_support: u64,
        consequent_support: u64,
        transactions: u64,
    ) -> Self {
        assert!(
            antecedent_support > 0 && consequent_support > 0 && transactions > 0,
            "rule supports must be positive"
        );
        let n = transactions as f64;
        let confidence = support as f64 / antecedent_support as f64;
        let consequent_rel = consequent_support as f64 / n;
        let lift = confidence / consequent_rel;
        let leverage = support as f64 / n - (antecedent_support as f64 / n) * consequent_rel;
        let conviction = if confidence < 1.0 {
            Some((1.0 - consequent_rel) / (1.0 - confidence))
        } else {
            None
        };
        Rule {
            antecedent,
            consequent,
            support,
            antecedent_support,
            consequent_support,
            confidence,
            lift,
            leverage,
            conviction,
        }
    }

    /// The antecedent `X`, sorted ascending.
    #[must_use]
    pub fn antecedent(&self) -> &[Item] {
        &self.antecedent
    }

    /// The consequent `Y`, sorted ascending.
    #[must_use]
    pub fn consequent(&self) -> &[Item] {
        &self.consequent
    }

    /// The conviction value used for scoring and display ordering:
    /// infinite conviction mapped to [`CONVICTION_SCORE_CAP`].
    #[must_use]
    pub fn conviction_capped(&self) -> f64 {
        match self.conviction {
            Some(v) => v.min(CONVICTION_SCORE_CAP),
            None => CONVICTION_SCORE_CAP,
        }
    }
}

fn fmt_items(f: &mut fmt::Formatter<'_>, items: &[Item]) -> fmt::Result {
    write!(f, "{{")?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{item}")?;
    }
    write!(f, "}}")
}

impl fmt::Display for Rule {
    /// `{dstIP=10.3.0.7} => {dstPort=7000} x2941`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_items(f, &self.antecedent)?;
        write!(f, " => ")?;
        fmt_items(f, &self.consequent)?;
        write!(f, " x{}", self.support)
    }
}

/// A rule plus its meta-detection anomaly score (mean positive z-score
/// of the metric vector against the rule population it was ranked in).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredRule {
    /// The rule.
    pub rule: Rule,
    /// Mean `max(z, 0)` of `[supp/N, confidence, lift, leverage,
    /// conviction]` against the population; higher = more anomalous.
    /// Only upward deviation counts: an anomalous rule is one that is
    /// unusually *strong* for the interval — unusually weak rules are
    /// background, not signal.
    pub score: f64,
}

/// The ranked rule population of one interval (or one merged
/// multi-source interval): rules sorted by anomaly score, descending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// Rules ranked most-anomalous first (score descending, canonical
    /// antecedent/consequent order on ties).
    pub rules: Vec<ScoredRule>,
    /// Transactions the supports were counted over (`N`).
    pub transactions: u64,
}

impl RuleSet {
    /// An empty rule population over zero transactions.
    #[must_use]
    pub fn empty() -> Self {
        RuleSet::default()
    }

    /// Number of ranked rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rule survived generation and filtering.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Generate, filter, and rank association rules from the **all-frequent**
    /// item-sets of one interval.
    ///
    /// `frequent` must be *downward closed*: for every item-set it contains,
    /// it also contains every non-empty subset with its exact support — the
    /// shape every miner's all-frequent output has. Supports are looked up
    /// in that collection; the transactions are never rescanned.
    /// `transactions` is `N`, the number of transactions mined.
    ///
    /// Rules are seeded from every item-set of length ≥ 2 whose support
    /// meets [`RuleConfig::level_floor`] for its length (the absolute floor
    /// normally; the halving per-level floor in rare mode).
    ///
    /// # Panics
    ///
    /// Panics if `frequent` is not downward closed.
    ///
    /// # Examples
    ///
    /// Metrics follow from the supports — here `{dstPort=80} ⇒ {proto=6}`
    /// holds in 3 of the 4 transactions that contain `dstPort=80`:
    ///
    /// ```
    /// use anomex_mining::rules::{RuleConfig, RuleSet};
    /// use anomex_mining::fpgrowth::fpgrowth;
    /// use anomex_mining::{Item, Transaction, TransactionSet};
    /// use anomex_netflow::FlowFeature;
    ///
    /// let mut set = TransactionSet::new();
    /// let item = |f, v| Item::new(f, v);
    /// for proto in [6u64, 6, 6, 17, 6] {
    ///     set.push(
    ///         Transaction::from_items(&[
    ///             item(FlowFeature::DstPort, if proto == 6 && set.len() == 4 { 443 } else { 80 }),
    ///             item(FlowFeature::Proto, proto),
    ///         ])
    ///         .unwrap(),
    ///     );
    /// }
    /// let frequent = fpgrowth(&set, 1);
    /// let config = RuleConfig { min_confidence: 0.5, min_lift: 0.0, rare: false };
    /// let ranked = RuleSet::generate(&frequent, set.len() as u64, 1, &config);
    /// let rule = ranked
    ///     .rules
    ///     .iter()
    ///     .find(|s| s.rule.to_string().starts_with("{dstPort=80} => {protocol=6}"))
    ///     .expect("rule emitted");
    /// assert_eq!(rule.rule.confidence, 3.0 / 4.0);
    /// ```
    ///
    /// Single-item item-sets seed no rules (a rule needs a non-empty
    /// antecedent *and* consequent), and an empty interval yields an empty
    /// population — both panic-free:
    ///
    /// ```
    /// use anomex_mining::rules::{RuleConfig, RuleSet};
    /// use anomex_mining::{Item, ItemSet};
    /// use anomex_netflow::FlowFeature;
    ///
    /// let config = RuleConfig::default();
    /// let singles = vec![ItemSet::new(vec![Item::new(FlowFeature::DstPort, 80)], 5)];
    /// assert!(RuleSet::generate(&singles, 5, 1, &config).is_empty());
    /// assert!(RuleSet::generate(&[], 0, 1, &config).is_empty());
    /// ```
    ///
    /// A 100%-support antecedent with confidence 1 has **infinite
    /// conviction**, encoded as `None`, and `min_confidence = 1.0` keeps
    /// exactly the never-failing rules:
    ///
    /// ```
    /// use anomex_mining::rules::{RuleConfig, RuleSet};
    /// use anomex_mining::{Item, ItemSet};
    /// use anomex_netflow::FlowFeature;
    ///
    /// let a = Item::new(FlowFeature::DstPort, 7000);
    /// let b = Item::new(FlowFeature::Proto, 17);
    /// // Both items in all 10 transactions: downward-closed by hand.
    /// let frequent = vec![
    ///     ItemSet::new(vec![a], 10),
    ///     ItemSet::new(vec![b], 10),
    ///     ItemSet::new(vec![a, b], 10),
    /// ];
    /// let config = RuleConfig { min_confidence: 1.0, min_lift: 0.0, rare: false };
    /// let ranked = RuleSet::generate(&frequent, 10, 1, &config);
    /// assert_eq!(ranked.len(), 2, "both directions are certain");
    /// assert!(ranked.rules.iter().all(|s| s.rule.conviction.is_none()));
    /// ```
    #[must_use]
    pub fn generate(
        frequent: &[ItemSet],
        transactions: u64,
        min_support: u64,
        config: &RuleConfig,
    ) -> RuleSet {
        if transactions == 0 || frequent.is_empty() {
            return RuleSet {
                rules: Vec::new(),
                transactions,
            };
        }
        let supports: BTreeMap<Vec<Item>, u64> = frequent
            .iter()
            .map(|s| (s.items().to_vec(), s.support))
            .collect();
        let bases: Vec<ItemSet> = frequent
            .iter()
            .filter(|s| s.len() >= 2 && s.support >= config.level_floor(min_support, s.len()))
            .cloned()
            .collect();
        let mut rules = Vec::new();
        enumerate_rules(&bases, &supports, transactions, config, &mut rules);
        RuleSet {
            rules: score_rules(rules, transactions),
            transactions,
        }
    }
}

/// The metric vector a rule is z-scored on, in fixed dimension order.
fn metric_vector(rule: &Rule, transactions: u64) -> [f64; 5] {
    [
        rule.support as f64 / transactions as f64,
        rule.confidence,
        rule.lift,
        rule.leverage,
        rule.conviction_capped(),
    ]
}

/// Meta-detection pass: z-score each rule's metric vector against the
/// population and rank by mean positive z, descending (canonical rule
/// order on ties). Only upward deviation scores — the rules of interest
/// stand *above* the interval's population (higher support, stronger
/// association), while downward outliers are ordinary background.
/// Deterministic: sequential sums in input order.
#[must_use]
pub fn score_rules(rules: Vec<Rule>, transactions: u64) -> Vec<ScoredRule> {
    if rules.is_empty() || transactions == 0 {
        return Vec::new();
    }
    let vectors: Vec<[f64; 5]> = rules
        .iter()
        .map(|r| metric_vector(r, transactions))
        .collect();
    let count = vectors.len() as f64;
    let mut means = [0.0f64; 5];
    for v in &vectors {
        for (m, x) in means.iter_mut().zip(v) {
            *m += x;
        }
    }
    for m in &mut means {
        *m /= count;
    }
    let mut stds = [0.0f64; 5];
    for v in &vectors {
        for ((s, x), m) in stds.iter_mut().zip(v).zip(&means) {
            *s += (x - m) * (x - m);
        }
    }
    for s in &mut stds {
        *s = (*s / count).sqrt();
    }
    let mut scored: Vec<ScoredRule> = rules
        .into_iter()
        .zip(vectors)
        .map(|(rule, v)| {
            let mut total = 0.0;
            for ((x, m), s) in v.iter().zip(&means).zip(&stds) {
                if *s > 0.0 {
                    total += ((x - m) / s).max(0.0);
                }
            }
            ScoredRule {
                rule,
                score: total / 5.0,
            }
        })
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.rule.antecedent.cmp(&b.rule.antecedent))
            .then_with(|| a.rule.consequent.cmp(&b.rule.consequent))
    });
    scored
}

/// Enumerate every rule `X ⇒ Y` that splits one of the base item-sets,
/// with its metrics from the looked-up supports, appending those that
/// pass the filters to `out`.
fn enumerate_rules(
    bases: &[ItemSet],
    supports: &BTreeMap<Vec<Item>, u64>,
    transactions: u64,
    config: &RuleConfig,
    out: &mut Vec<Rule>,
) {
    let lookup = |items: &[Item]| -> u64 {
        supports.get(items).copied().unwrap_or_else(|| {
            panic!("rule generation requires downward-closed input: no support for a subset")
        })
    };
    for base in bases {
        let items = base.items();
        let mut consequent = Vec::with_capacity(items.len());
        for antecedent_len in 1..items.len() {
            for_each_combination(items, antecedent_len, |antecedent| {
                consequent.clear();
                let mut i = 0;
                for &item in items {
                    if i < antecedent.len() && antecedent[i] == item {
                        i += 1;
                    } else {
                        consequent.push(item);
                    }
                }
                let antecedent_support = lookup(antecedent);
                let consequent_support = lookup(&consequent);
                let rule = Rule::from_supports(
                    antecedent.to_vec(),
                    consequent.clone(),
                    base.support,
                    antecedent_support,
                    consequent_support,
                    transactions,
                );
                if rule.confidence >= config.min_confidence && rule.lift >= config.min_lift {
                    out.push(rule);
                }
            });
        }
    }
}

/// Merge per-source rule populations and **re-score at the rule layer**:
/// rules are keyed by `(antecedent, consequent)`, their supports and
/// transaction counts summed exactly, every metric recomputed from the
/// merged counts, and the merged population z-scored afresh — so a rule
/// that is anomalous on a low-rate link is ranked against the union
/// population rather than drowned in any single source's ranking.
///
/// The merge is over the rules that *survived* each source's filters;
/// no re-filtering is applied to the merged metrics.
#[must_use]
pub fn merge_rule_sets(sets: &[RuleSet]) -> RuleSet {
    /// Summed `(support, antecedent_support, consequent_support)` counts.
    type MergedCounts = (u64, u64, u64);
    let transactions: u64 = sets.iter().map(|s| s.transactions).sum();
    let mut merged: BTreeMap<(Vec<Item>, Vec<Item>), MergedCounts> = BTreeMap::new();
    for set in sets {
        for scored in &set.rules {
            let key = (
                scored.rule.antecedent().to_vec(),
                scored.rule.consequent().to_vec(),
            );
            let entry = merged.entry(key).or_insert((0, 0, 0));
            entry.0 += scored.rule.support;
            entry.1 += scored.rule.antecedent_support;
            entry.2 += scored.rule.consequent_support;
        }
    }
    if transactions == 0 || merged.is_empty() {
        return RuleSet {
            rules: Vec::new(),
            transactions,
        };
    }
    let rules: Vec<Rule> = merged
        .into_iter()
        .map(|((antecedent, consequent), (support, ant, cons))| {
            Rule::from_supports(antecedent, consequent, support, ant, cons, transactions)
        })
        .collect();
    RuleSet {
        rules: score_rules(rules, transactions),
        transactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::fpgrowth;
    use crate::transaction::{Transaction, TransactionSet};
    use anomex_netflow::FlowFeature;

    fn item(feature: FlowFeature, value: u64) -> Item {
        Item::new(feature, value)
    }

    /// 10 transactions: 8 carry {dstPort=7000, proto=17}, 2 carry
    /// {dstPort=80, proto=6}; every transaction carries packets=1.
    fn flood_like_set() -> TransactionSet {
        let mut set = TransactionSet::new();
        for i in 0..10u64 {
            let (port, proto) = if i < 8 { (7000, 17) } else { (80, 6) };
            set.push(
                Transaction::from_items(&[
                    item(FlowFeature::DstPort, port),
                    item(FlowFeature::Proto, proto),
                    item(FlowFeature::Packets, 1),
                ])
                .unwrap(),
            );
        }
        set
    }

    fn all_frequent(set: &TransactionSet, support: u64) -> Vec<ItemSet> {
        fpgrowth(set, support)
    }

    fn loose() -> RuleConfig {
        RuleConfig {
            min_confidence: 0.0,
            min_lift: 0.0,
            rare: false,
        }
    }

    #[test]
    fn metrics_match_definitions_exactly() {
        let set = flood_like_set();
        let frequent = all_frequent(&set, 1);
        let ranked = RuleSet::generate(&frequent, 10, 1, &loose());
        assert!(!ranked.is_empty());
        for scored in &ranked.rules {
            let r = &scored.rule;
            let union: Vec<Item> = {
                let mut u: Vec<Item> = r
                    .antecedent()
                    .iter()
                    .chain(r.consequent())
                    .copied()
                    .collect();
                u.sort_unstable();
                u
            };
            assert_eq!(
                r.support,
                set.iter().filter(|t| t.contains_all(&union)).count() as u64,
                "{r}"
            );
            assert_eq!(
                r.antecedent_support,
                set.iter()
                    .filter(|t| t.contains_all(r.antecedent()))
                    .count() as u64
            );
            assert_eq!(
                r.consequent_support,
                set.iter()
                    .filter(|t| t.contains_all(r.consequent()))
                    .count() as u64
            );
            let confidence = r.support as f64 / r.antecedent_support as f64;
            assert_eq!(r.confidence.to_bits(), confidence.to_bits());
            let lift = confidence / (r.consequent_support as f64 / 10.0);
            assert_eq!(r.lift.to_bits(), lift.to_bits());
        }
    }

    #[test]
    fn conviction_is_infinite_only_at_confidence_one() {
        let set = flood_like_set();
        let ranked = RuleSet::generate(&all_frequent(&set, 1), 10, 1, &loose());
        for scored in &ranked.rules {
            let r = &scored.rule;
            assert_eq!(r.conviction.is_none(), r.confidence == 1.0, "{r}");
            if let Some(conviction) = r.conviction {
                assert!(conviction.is_finite() && conviction >= 0.0);
            }
        }
        // packets=1 is universal, so {dstPort=7000} => {#packets=1} is
        // certain: its conviction must be the ∞ encoding.
        let certain = ranked
            .rules
            .iter()
            .find(|s| {
                s.rule
                    .to_string()
                    .starts_with("{dstPort=7000} => {#packets=1}")
            })
            .expect("certain rule present");
        assert!(certain.rule.conviction.is_none());
        assert_eq!(certain.rule.conviction_capped(), CONVICTION_SCORE_CAP);
    }

    #[test]
    fn filters_drop_low_confidence_and_low_lift() {
        let set = flood_like_set();
        let frequent = all_frequent(&set, 1);
        let strict = RuleConfig {
            min_confidence: 0.9,
            min_lift: 1.0,
            rare: false,
        };
        let ranked = RuleSet::generate(&frequent, 10, 1, &strict);
        assert!(!ranked.is_empty());
        for scored in &ranked.rules {
            assert!(scored.rule.confidence >= 0.9);
            assert!(scored.rule.lift >= 1.0);
        }
        let all = RuleSet::generate(&frequent, 10, 1, &loose());
        assert!(ranked.len() < all.len(), "the filters must bite");
    }

    #[test]
    fn min_confidence_one_keeps_only_certain_rules() {
        let set = flood_like_set();
        let config = RuleConfig {
            min_confidence: 1.0,
            min_lift: 0.0,
            rare: false,
        };
        let ranked = RuleSet::generate(&all_frequent(&set, 1), 10, 1, &config);
        assert!(!ranked.is_empty());
        assert!(ranked.rules.iter().all(|s| s.rule.confidence == 1.0));
        assert!(ranked.rules.iter().all(|s| s.rule.conviction.is_none()));
    }

    #[test]
    fn single_item_sets_and_empty_input_yield_no_rules() {
        let singles = vec![
            ItemSet::new(vec![item(FlowFeature::DstPort, 80)], 4),
            ItemSet::new(vec![item(FlowFeature::Proto, 6)], 4),
        ];
        assert!(RuleSet::generate(&singles, 4, 1, &loose()).is_empty());
        assert!(RuleSet::generate(&[], 0, 1, &loose()).is_empty());
        assert!(RuleSet::generate(&[], 7, 1, &loose()).is_empty());
    }

    #[test]
    fn rare_floor_guard_flags_only_low_support_rare_configs() {
        let rare = RuleConfig {
            rare: true,
            ..RuleConfig::default()
        };
        assert!(rare.rare_floor_explosive(1));
        assert!(rare.rare_floor_explosive(RARE_SUPPORT_GUARD - 1));
        assert!(!rare.rare_floor_explosive(RARE_SUPPORT_GUARD));
        assert!(!rare.rare_floor_explosive(100_000));
        let absolute = RuleConfig::default();
        assert!(!absolute.rare_floor_explosive(1), "absolute mode is safe");
    }

    #[test]
    fn rare_mode_lowers_the_floor_per_level() {
        let config = RuleConfig {
            rare: true,
            ..loose()
        };
        assert_eq!(config.level_floor(1000, 1), 1000);
        assert_eq!(config.level_floor(1000, 2), 500);
        assert_eq!(config.level_floor(1000, 4), 125);
        assert_eq!(config.level_floor(2, 9), 1, "floor never reaches zero");
        assert_eq!(config.mining_floor(1000, 3), 250);
        let absolute = loose();
        assert_eq!(absolute.level_floor(1000, 4), 1000);
        assert_eq!(absolute.mining_floor(1000, 9), 1000);
    }

    #[test]
    fn rare_mode_emits_a_superset_of_normal_mode() {
        let set = flood_like_set();
        // Floor 4: the {dstPort=80, proto=6} pair (support 2) only
        // survives in rare mode (level-2 floor = 2).
        let frequent = all_frequent(&set, 1);
        let normal = RuleSet::generate(&frequent, 10, 4, &loose());
        let rare = RuleSet::generate(
            &frequent,
            10,
            4,
            &RuleConfig {
                rare: true,
                ..loose()
            },
        );
        assert!(rare.len() > normal.len());
        let keys =
            |rs: &RuleSet| -> Vec<String> { rs.rules.iter().map(|s| s.rule.to_string()).collect() };
        for key in keys(&normal) {
            assert!(keys(&rare).contains(&key), "rare must cover {key}");
        }
        assert!(keys(&rare)
            .iter()
            .any(|k| k.starts_with("{dstPort=80} => {protocol=6}")));
    }

    #[test]
    fn ranking_is_score_descending_with_canonical_ties() {
        let set = flood_like_set();
        let ranked = RuleSet::generate(&all_frequent(&set, 1), 10, 1, &loose());
        for pair in ranked.rules.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn scoring_flags_the_metric_outlier() {
        // Two metrically identical rules and one outlier: the outlier
        // must rank first.
        let mk = |support, ant, cons| {
            Rule::from_supports(
                vec![item(FlowFeature::DstPort, ant)],
                vec![item(FlowFeature::Proto, cons)],
                support,
                support,
                support,
                100,
            )
        };
        let rules = vec![mk(5, 80, 6), mk(5, 81, 7), mk(90, 7000, 17)];
        let scored = score_rules(rules, 100);
        assert_eq!(scored[0].rule.support, 90, "outlier first");
        assert!(scored[0].score > scored[1].score);
        assert_eq!(
            scored[1].score.to_bits(),
            scored[2].score.to_bits(),
            "identical metric vectors tie"
        );
    }

    #[test]
    fn scoring_handles_degenerate_populations() {
        assert!(score_rules(Vec::new(), 10).is_empty());
        let one = vec![Rule::from_supports(
            vec![item(FlowFeature::DstPort, 80)],
            vec![item(FlowFeature::Proto, 6)],
            3,
            4,
            3,
            10,
        )];
        let scored = score_rules(one, 10);
        assert_eq!(scored.len(), 1);
        assert_eq!(scored[0].score, 0.0, "a population of one has no outlier");
    }

    #[test]
    fn merge_sums_counts_and_recomputes_metrics() {
        let set = flood_like_set();
        let one = RuleSet::generate(&all_frequent(&set, 1), 10, 1, &loose());
        let doubled = merge_rule_sets(&[one.clone(), one.clone()]);
        assert_eq!(doubled.transactions, 20);
        assert_eq!(doubled.len(), one.len());
        for scored in &doubled.rules {
            let single = one
                .rules
                .iter()
                .find(|s| {
                    s.rule.antecedent() == scored.rule.antecedent()
                        && s.rule.consequent() == scored.rule.consequent()
                })
                .expect("same rule key");
            assert_eq!(scored.rule.support, 2 * single.rule.support);
            // Doubling every count and N leaves the relative metrics
            // unchanged.
            assert_eq!(
                scored.rule.confidence.to_bits(),
                single.rule.confidence.to_bits()
            );
            assert_eq!(scored.rule.lift.to_bits(), single.rule.lift.to_bits());
        }
        assert!(merge_rule_sets(&[]).is_empty());
        assert!(merge_rule_sets(&[RuleSet::empty()]).is_empty());
    }

    #[test]
    fn display_formats_both_sides() {
        let rule = Rule::from_supports(
            vec![item(FlowFeature::DstIp, 0x0A03_0007)],
            vec![item(FlowFeature::DstPort, 7000)],
            8,
            8,
            8,
            10,
        );
        assert_eq!(
            rule.to_string(),
            "{dstIP=10.3.0.7} => {dstPort=7000} x8",
            "display is antecedent => consequent x support"
        );
    }

    #[test]
    fn config_validation_rejects_out_of_range_filters() {
        assert!(RuleConfig::default().validate().is_ok());
        let bad_conf = RuleConfig {
            min_confidence: 1.5,
            ..RuleConfig::default()
        };
        assert!(bad_conf.validate().is_err());
        let bad_lift = RuleConfig {
            min_lift: -1.0,
            ..RuleConfig::default()
        };
        assert!(bad_lift.validate().is_err());
        let nan_lift = RuleConfig {
            min_lift: f64::NAN,
            ..RuleConfig::default()
        };
        assert!(nan_lift.validate().is_err());
    }
}
