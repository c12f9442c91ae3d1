//! The anomaly-extraction pipeline (paper Fig. 3).
//!
//! Detector bank → alarm meta-data (union over features) → pre-filter →
//! frequent item-set mining → maximal item-sets as the anomaly summary.
//! [`Engine`](crate::Engine) runs the whole loop online, interval by
//! interval ([`Engine::process`](crate::Engine::process));
//! [`Engine::extract`](crate::Engine::extract) is the offline entry point
//! when the meta-data comes from elsewhere (another detector type from
//! Table I, or an administrator's manual hints). Both run under the
//! engine's one [`ExtractionConfig`]. This module holds the value types
//! both produce, the mining tail both share, and the per-source rule
//! merge of a fan-in ([`source_rules`]).

use anomex_detector::{BankObservation, MetaData};
use anomex_mining::{merge_rule_sets, mine, ItemSet, LevelStats, RuleSet, TransactionSet};
use anomex_netflow::FlowColumns;

use crate::config::ExtractionConfig;
use crate::cost::cost_reduction;

/// How flows are mapped to mining transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransactionMode {
    /// The paper's canonical width-7 transactions (§II-B).
    #[default]
    Canonical,
    /// Width-9 transactions with source/destination /16 prefixes — the
    /// §III-D multilevel extension that captures anomalies spread across
    /// network ranges (outages, routing shifts, subnet-targeted scans).
    WithPrefixes,
}

impl TransactionMode {
    /// Build the transaction set for the columnar rows selected by
    /// `indices` — the zero-copy path from a pre-filter index slice
    /// straight to mining input, gathering one feature column at a time.
    /// Bit-identical to converting the rows to
    /// [`FlowRecord`](anomex_netflow::FlowRecord)s first.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds for `cols`.
    #[must_use]
    pub fn transactions_at_columns(self, cols: &FlowColumns, indices: &[usize]) -> TransactionSet {
        match self {
            TransactionMode::Canonical => TransactionSet::from_columns_at(cols, indices),
            TransactionMode::WithPrefixes => {
                TransactionSet::from_columns_extended_at(cols, indices)
            }
        }
    }
}

/// The product of one extraction: the paper's "summary report of frequent
/// item-sets in the set of suspicious flows".
#[derive(Debug, Clone)]
pub struct Extraction {
    /// Interval index the extraction belongs to.
    pub interval: u64,
    /// The consolidated meta-data that drove pre-filtering.
    pub metadata: MetaData,
    /// Flows observed in the interval.
    pub total_flows: usize,
    /// Flows surviving the pre-filter (the mining input).
    pub suspicious_flows: usize,
    /// The extracted maximal frequent item-sets, canonically ordered.
    pub itemsets: Vec<ItemSet>,
    /// Apriori's per-level audit trail. The engine mines with FP-growth,
    /// which keeps none, so every extraction it returns leaves this
    /// empty; only an Apriori extraction built outside it fills it (the
    /// Table II reproduction,
    /// [`apriori`](anomex_mining::apriori::apriori) with
    /// [`AprioriConfig::maximal`](anomex_mining::AprioriConfig::maximal)).
    /// [`render_report`](crate::render_report) never prints it;
    /// [`render_level_stats`](crate::render_level_stats) does.
    pub levels: Vec<LevelStats>,
    /// Classification-cost reduction `R = F / I` for this interval.
    pub cost_reduction: f64,
    /// The ranked association rules, present iff the configuration
    /// enables the rule layer ([`ExtractionConfig::rules`]).
    pub rules: Option<RuleSet>,
}

/// The shared mining tail of every extraction path: gather transactions
/// for the pre-filtered `indices` from a [`FlowColumns`] store (one
/// feature column at a time, zero-copy — straight from index slice to
/// transactions), mine them under `config` — one FP-growth pass
/// ([`mine`]) serves the item-sets and, when the rule layer is on, the
/// rules — and assemble the [`Extraction`].
pub(crate) fn mine_at_indices(
    interval: u64,
    cols: &FlowColumns,
    indices: &[usize],
    metadata: &MetaData,
    config: &ExtractionConfig,
) -> Extraction {
    let transactions = config.transactions.transactions_at_columns(cols, indices);
    let (itemsets, rules) = mine(&transactions, config.min_support, config.rules.as_ref());
    Extraction {
        interval,
        metadata: metadata.clone(),
        total_flows: cols.len(),
        suspicious_flows: indices.len(),
        cost_reduction: cost_reduction(cols.len() as u64, itemsets.len()),
        itemsets,
        levels: Vec::new(),
        rules,
    }
}

/// Per-source rule extraction and merge — the weighted-support answer to
/// multi-link operation: mine rules **per source segment** with the
/// support floor scaled to the segment's share of the interval
/// (`max(1, s·|segment|/|interval|)`, exact integer arithmetic), then
/// merge and re-score the per-source populations ([`merge_rule_sets`]),
/// so a rule anomalous on a low-rate link ranks against the union
/// population instead of vanishing under a floor sized for the
/// aggregate. `cols` holds the sources' rows concatenated in
/// registration order, `source_flows` their counts, and `rows` the
/// interval's suspicious rows, ascending — online, the rows the
/// extraction mined ([`IntervalOutcome::suspicious_rows`]) — which split
/// at the source boundaries. `None` when the rule layer is off or the
/// counts do not partition `cols`.
///
/// # Panics
///
/// Panics if a row is out of bounds for `cols`.
#[must_use]
pub fn source_rules(
    cols: &FlowColumns,
    source_flows: &[usize],
    mut rows: &[usize],
    config: &ExtractionConfig,
) -> Option<RuleSet> {
    let rule_config = config.rules.as_ref()?;
    if source_flows.iter().sum::<usize>() != cols.len() {
        return None;
    }
    let (mut end, mut per_source) = (0, Vec::new());
    for &len in source_flows.iter().filter(|&&len| len > 0) {
        end += len;
        let (segment, rest) = rows.split_at(rows.partition_point(|&row| row < end));
        rows = rest;
        // u128: `min_support × len` overflows u64 for large supports.
        let weighted = u128::from(config.min_support) * len as u128 / cols.len() as u128;
        let support = u64::try_from(weighted).unwrap_or(u64::MAX).max(1);
        let transactions = config.transactions.transactions_at_columns(cols, segment);
        per_source.extend(mine(&transactions, support, Some(rule_config)).1);
    }
    Some(merge_rule_sets(&per_source))
}

/// Outcome of feeding one interval to the online pipeline.
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    /// What the detector bank saw (KL values, alarms, meta-data).
    pub observation: BankObservation,
    /// The extraction, present iff the bank alarmed with non-empty
    /// meta-data.
    pub extraction: Option<Extraction>,
    /// The suspicious rows the extraction mined, ascending: the
    /// pre-filter's rows under the voted meta-data, read off the
    /// detector's marks. Empty when nothing was extracted.
    pub suspicious_rows: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use anomex_detector::DetectorConfig;
    use anomex_mining::RuleConfig;
    use anomex_netflow::{FlowFeature, FlowRecord, Protocol};
    use std::net::Ipv4Addr;

    fn test_config(min_support: u64) -> ExtractionConfig {
        ExtractionConfig {
            interval_ms: 60_000,
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support,
            ..ExtractionConfig::default()
        }
    }

    #[test]
    fn offline_extraction_finds_planted_pattern() {
        // 500 identical-port flows + diffuse noise; metadata points at the
        // port.
        let mut flows = Vec::new();
        for i in 0..500u32 {
            flows.push(
                FlowRecord::new(
                    u64::from(i),
                    Ipv4Addr::from(0x0900_0000 + i),
                    Ipv4Addr::new(10, 0, 0, 7),
                    (1024 + i % 50_000) as u16,
                    7000,
                    Protocol::Tcp,
                )
                .with_volume(1, 48),
            );
        }
        for i in 0..500u32 {
            flows.push(FlowRecord::new(
                u64::from(i),
                Ipv4Addr::from(0x0800_0000 + i),
                Ipv4Addr::from(0x0700_0000 + i),
                (2000 + i) as u16,
                (3000 + i) as u16,
                Protocol::Udp,
            ));
        }
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 7000);
        let ex = Engine::new(test_config(400)).unwrap().extract(&flows, &md);
        assert_eq!(ex.total_flows, 1000);
        assert_eq!(ex.suspicious_flows, 500);
        assert!(!ex.itemsets.is_empty());
        // The top itemset pins the victim and port.
        let top = &ex.itemsets[ex.itemsets.len() - 1];
        let rendered = top.to_string();
        assert!(rendered.contains("dstPort=7000"), "{rendered}");
        assert!(rendered.contains("dstIP=10.0.0.7"), "{rendered}");
        assert!(ex.cost_reduction >= 1000.0 / ex.itemsets.len() as f64 - 1e-9);
        assert!(ex.levels.is_empty(), "FP-growth keeps no level audit");
    }

    #[test]
    fn weighted_source_floor_survives_a_huge_support() {
        // `min_support × segment length` overflows u64; the floor must be
        // computed wide, stay huge, and mine nothing — not wrap to a tiny
        // floor (explosive mining) or panic in debug builds.
        let flows: Vec<FlowRecord> = (0..40u32)
            .map(|i| {
                FlowRecord::new(
                    u64::from(i),
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    1000,
                    80,
                    Protocol::Tcp,
                )
            })
            .collect();
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 80);
        let config = ExtractionConfig {
            min_support: u64::MAX,
            rules: Some(RuleConfig::default()),
            ..test_config(1)
        };
        let cols = FlowColumns::from_flows(&flows);
        let rows = crate::prefilter_indices_columns(&cols, &md, config.prefilter);
        assert_eq!(rows.len(), 40, "every flow is suspicious");
        let merged = source_rules(&cols, &[25, 15], &rows, &config).expect("rule layer on");
        assert!(merged.is_empty(), "{} rules at s = u64::MAX", merged.len());
    }
}
