//! Meta-data: the suspicious feature values detectors hand to the
//! pre-filter.
//!
//! Table I of the paper lists the meta-data various detector families can
//! provide; the histogram detectors here provide *feature values* (IP
//! addresses, ports, packet counts…). [`MetaData`] holds them per
//! feature as one ascending list without repeats — the form a detector's
//! vote already has. The pre-filter (`anomex_core::prefilter`) matches
//! flows against it under the two semantics the paper compares: **union**
//! (a flow matching *any* value is suspicious — the paper's choice) and
//! **intersection** (a flow must match *every* feature — DoWitcher's
//! choice, shown to miss multi-stage anomalies).

use std::collections::BTreeMap;
use std::fmt;

use anomex_netflow::{FeatureValue, FlowFeature};

/// Suspicious feature values, grouped by feature: per feature that
/// carries any, its values ascending and each once. A feature without
/// values has no entry, so two meta-data sets are equal exactly when
/// they hold the same values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaData {
    values: BTreeMap<FlowFeature, Vec<u64>>,
}

impl MetaData {
    /// New, empty meta-data.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one suspicious value.
    pub fn insert(&mut self, feature: FlowFeature, value: u64) {
        let values = self.values.entry(feature).or_default();
        if let Err(at) = values.binary_search(&value) {
            values.insert(at, value);
        }
    }

    /// Insert many values for one feature.
    pub fn insert_all(&mut self, feature: FlowFeature, values: impl IntoIterator<Item = u64>) {
        let mut values: Vec<u64> = values.into_iter().collect();
        if let Some(held) = self.values.remove(&feature) {
            values.extend(held);
        }
        values.sort_unstable();
        values.dedup();
        if !values.is_empty() {
            self.values.insert(feature, values);
        }
    }

    /// Whether no values are present at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Features that carry at least one value, in feature order.
    pub fn features(&self) -> impl Iterator<Item = FlowFeature> + '_ {
        self.values.keys().copied()
    }

    /// The suspicious values for one feature, ascending and each once;
    /// `None` when it has none.
    #[must_use]
    pub fn values_for(&self, feature: FlowFeature) -> Option<&[u64]> {
        self.values.get(&feature).map(Vec::as_slice)
    }

    /// Total number of (feature, value) pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.values().map(Vec::len).sum()
    }

    /// Iterate all (feature, value) pairs as [`FeatureValue`]s.
    pub fn iter(&self) -> impl Iterator<Item = FeatureValue> + '_ {
        self.values
            .iter()
            .flat_map(|(&f, vals)| vals.iter().map(move |&v| FeatureValue::new(f, v)))
    }
}

impl fmt::Display for MetaData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, (&feature, vals)) in self.values.iter().enumerate() {
            if n > 0 {
                writeln!(f)?;
            }
            write!(f, "{feature}: ")?;
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", FeatureValue::new(feature, *v).render())?;
                if i >= 9 && vals.len() > 10 {
                    write!(f, ", … ({} total)", vals.len())?;
                    break;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_feature_without_values_leaves_no_entry() {
        let mut md = MetaData::new();
        md.insert_all(FlowFeature::DstPort, []);
        assert!(md.is_empty());
        assert_eq!(md, MetaData::new());
        md.insert_all(FlowFeature::SrcIp, [9, 3, 9]);
        md.insert_all(FlowFeature::SrcIp, Vec::new());
        md.insert(FlowFeature::SrcIp, 5);
        let mut want = MetaData::new();
        want.insert_all(FlowFeature::SrcIp, vec![3, 5, 9]);
        assert_eq!(md, want);
        assert_eq!(md.values_for(FlowFeature::SrcIp), Some(&[3, 5, 9][..]));
        assert_eq!(md.values_for(FlowFeature::DstPort), None);
        assert_eq!(md.features().collect::<Vec<_>>(), [FlowFeature::SrcIp]);
    }

    #[test]
    fn iter_yields_feature_values() {
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 7000);
        md.insert(FlowFeature::SrcIp, 0x0a000001);
        let rendered: Vec<String> = md.iter().map(|fv| fv.to_string()).collect();
        assert!(rendered.contains(&"dstPort=7000".to_string()));
        assert!(rendered.contains(&"srcIP=10.0.0.1".to_string()));
    }

    #[test]
    fn display_truncates_long_lists() {
        let mut md = MetaData::new();
        md.insert_all(FlowFeature::DstPort, 0..100u64);
        let s = md.to_string();
        assert!(s.contains("(100 total)"));
    }
}
