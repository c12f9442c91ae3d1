//! Human-readable extraction reports (paper Table II style).

use std::fmt::Write as _;

use anomex_mining::{LevelStats, RuleSet};

use crate::classify::{classify_itemset, AnomalyClass};
use crate::pipeline::Extraction;

/// Rules shown per report section; the rest is summarized in one line.
const RULE_REPORT_LIMIT: usize = 20;

/// Render an extraction as a Table II-style text report: one row per
/// maximal item-set (largest support first), the rule section when the
/// rule layer is on, and the classification-cost summary.
///
/// The report is a function of the extraction's *answer* only, so an
/// Apriori extraction of the same item-sets renders byte for byte as the
/// engine's FP-growth one: the Apriori level audit trail
/// ([`Extraction::levels`]) is rendered separately by
/// [`render_level_stats`].
#[must_use]
pub fn render_report(extraction: &Extraction) -> String {
    render(extraction, "")
}

/// [`render_report`] with the Apriori level audit trail
/// ([`render_level_stats`]) between the item-set table and the cost line —
/// the layout of the paper's Table II narrative, for `anomex table2` and
/// the `table2_apriori` reproduction, which mine with
/// [`apriori`](anomex_mining::apriori::apriori) on purpose.
#[must_use]
pub fn render_report_with_levels(extraction: &Extraction) -> String {
    render(extraction, &render_level_stats(&extraction.levels))
}

/// Render Apriori's per-level audit trail (§II-B: "in the first
/// iteration, a total of 60 frequent 1-item-sets were found…"): one line
/// per round with its candidates, frequent item-sets and the ones kept as
/// maximal. Empty when there are no levels (an FP-growth extraction).
#[must_use]
pub fn render_level_stats(levels: &[LevelStats]) -> String {
    let mut out = String::new();
    if levels.is_empty() {
        return out;
    }
    let _ = writeln!(out, "apriori rounds:");
    for lv in levels {
        let _ = writeln!(
            out,
            "  round {}: {} candidates, {} frequent, {} kept as maximal",
            lv.level, lv.candidates, lv.frequent, lv.maximal
        );
    }
    out
}

/// The report body, with `audit` inserted after the item-set table.
fn render(extraction: &Extraction, audit: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Anomaly extraction report — interval {} ({} flows, {} suspicious after pre-filtering)",
        extraction.interval, extraction.total_flows, extraction.suspicious_flows
    );
    let _ = writeln!(out, "meta-data:");
    for line in extraction.metadata.to_string().lines() {
        let _ = writeln!(out, "  {line}");
    }

    let mut ranked: Vec<_> = extraction.itemsets.iter().collect();
    ranked.sort_by_key(|s| std::cmp::Reverse(s.support));

    let _ = writeln!(
        out,
        "{:>3}  {:>9}  {:>18}  item-set",
        "#", "support", "class hint"
    );
    for (i, set) in ranked.iter().enumerate() {
        let hint =
            classify_itemset(set).map_or_else(|| "-".to_string(), |c: AnomalyClass| c.to_string());
        let items = set
            .items()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "{:>3}  {:>9}  {:>18}  {{{items}}}",
            i + 1,
            set.support,
            hint
        );
    }

    out.push_str(audit);
    if let Some(rules) = &extraction.rules {
        render_rule_section(&mut out, rules);
    }
    let _ = writeln!(
        out,
        "classification cost reduction: {:.0} (flows per item-set to classify)",
        extraction.cost_reduction
    );
    out
}

/// Append the ranked-rule table of one rule population.
fn render_rule_section(out: &mut String, rules: &RuleSet) {
    if rules.is_empty() {
        let _ = writeln!(
            out,
            "association rules: none passed the confidence/lift filters"
        );
        return;
    }
    let _ = writeln!(
        out,
        "association rules ({} over {} transactions, ranked by anomaly score):",
        rules.len(),
        rules.transactions
    );
    let _ = writeln!(
        out,
        "{:>3}  {:>7}  {:>6}  {:>9}  {:>8}  {:>10}  rule",
        "#", "score", "conf", "lift", "leverage", "conviction"
    );
    for (i, scored) in rules.rules.iter().take(RULE_REPORT_LIMIT).enumerate() {
        let r = &scored.rule;
        let conviction = match r.conviction {
            Some(v) => format!("{v:.2}"),
            None => "inf".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>3}  {:>7.3}  {:>6.3}  {:>9.2}  {:>8.4}  {conviction:>10}  {r}",
            i + 1,
            scored.score,
            r.confidence,
            r.lift,
            r.leverage,
        );
    }
    if rules.len() > RULE_REPORT_LIMIT {
        let _ = writeln!(
            out,
            "  … and {} lower-ranked rule(s)",
            rules.len() - RULE_REPORT_LIMIT
        );
    }
}

/// Render a merged multi-source rule population — the output of
/// [`source_rules`](crate::source_rules): per-source rules
/// mined at weighted support floors, merged by rule key, metrics
/// recomputed from the summed counts, and re-scored against the union
/// population.
#[must_use]
pub fn render_rule_merge(rules: &RuleSet, sources: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Per-source rule merge — {sources} source(s), weighted support floors, re-scored"
    );
    render_rule_section(&mut out, rules);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_detector::MetaData;
    use anomex_mining::{Item, ItemSet};
    use anomex_netflow::FlowFeature;

    fn extraction() -> Extraction {
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 7000);
        Extraction {
            interval: 42,
            metadata: md,
            total_flows: 350_862,
            suspicious_flows: 53_467,
            itemsets: vec![
                ItemSet::new(
                    vec![
                        Item::new(FlowFeature::SrcIp, 7),
                        Item::new(FlowFeature::DstIp, 5),
                        Item::new(FlowFeature::DstPort, 7000),
                    ],
                    17_822,
                ),
                ItemSet::new(vec![Item::new(FlowFeature::DstPort, 80)], 252_069),
            ],
            levels: vec![anomex_mining::LevelStats {
                level: 1,
                candidates: 0,
                frequent: 60,
                maximal: 2,
            }],
            cost_reduction: 175_431.0,
            rules: None,
        }
    }

    fn ruleset() -> anomex_mining::RuleSet {
        use anomex_mining::rules::score_rules;
        use anomex_mining::Rule;
        let rules = vec![
            Rule::from_supports(
                vec![Item::new(FlowFeature::DstIp, 5)],
                vec![Item::new(FlowFeature::DstPort, 7000)],
                17_822,
                17_822,
                17_900,
                53_467,
            ),
            Rule::from_supports(
                vec![Item::new(FlowFeature::DstPort, 80)],
                vec![Item::new(FlowFeature::Proto, 6)],
                20_000,
                25_000,
                30_000,
                53_467,
            ),
        ];
        anomex_mining::RuleSet {
            rules: score_rules(rules, 53_467),
            transactions: 53_467,
        }
    }

    #[test]
    fn report_contains_the_essentials() {
        let r = render_report(&extraction());
        assert!(r.contains("interval 42"));
        assert!(r.contains("350862 flows"));
        assert!(r.contains("dstPort=7000"));
        assert!(r.contains("Flooding"), "class hint column present:\n{r}");
        assert!(r.contains("cost reduction: 175431"));
    }

    #[test]
    fn level_stats_render_apart_from_the_report() {
        let e = extraction();
        let levels = render_level_stats(&e.levels);
        assert_eq!(
            levels,
            "apriori rounds:\n  round 1: 0 candidates, 60 frequent, 2 kept as maximal\n"
        );
        assert!(render_level_stats(&[]).is_empty());
        let r = render_report(&e);
        assert!(!r.contains("apriori rounds"), "miner-independent:\n{r}");
        let mut no_levels = e.clone();
        no_levels.levels.clear();
        assert_eq!(r, render_report(&no_levels));
        // The Table II layout puts the trail between the table and the
        // cost line.
        let audited = render_report_with_levels(&e);
        let cost = r.find("classification cost").unwrap();
        assert_eq!(audited, format!("{}{levels}{}", &r[..cost], &r[cost..]));
    }

    #[test]
    fn report_ranks_by_support() {
        let r = render_report(&extraction());
        let web = r.find("dstPort=80").unwrap();
        let flood = r.find("dstIP").unwrap();
        assert!(web < flood, "largest support listed first:\n{r}");
    }

    #[test]
    fn rule_section_renders_when_enabled() {
        let mut e = extraction();
        let r = render_report(&e);
        assert!(!r.contains("association rules"), "absent by default:\n{r}");
        e.rules = Some(ruleset());
        let r = render_report(&e);
        assert!(
            r.contains("association rules (2 over 53467 transactions"),
            "header present:\n{r}"
        );
        assert!(r.contains("inf"), "conviction ∞ rendered as inf:\n{r}");
        assert!(
            r.contains("{dstIP=0.0.0.5} => {dstPort=7000} x17822"),
            "rule display form present:\n{r}"
        );
        e.rules = Some(anomex_mining::RuleSet::empty());
        let r = render_report(&e);
        assert!(
            r.contains("none passed the confidence/lift filters"),
            "empty population still announced:\n{r}"
        );
    }

    #[test]
    fn rule_merge_render_names_the_sources() {
        let r = render_rule_merge(&ruleset(), 2);
        assert!(r.starts_with("Per-source rule merge — 2 source(s)"));
        assert!(r.contains("ranked by anomaly score"));
    }
}
