//! Meta-data: the suspicious feature values detectors hand to the
//! pre-filter.
//!
//! Table I of the paper lists the meta-data various detector families can
//! provide; the histogram detectors here provide *feature values* (IP
//! addresses, ports, packet counts…). [`MetaData`] aggregates them per
//! feature and implements the two matching semantics the paper compares:
//! **union** (a flow matching *any* value is suspicious — the paper's
//! choice) and **intersection** (a flow must match *every* feature —
//! DoWitcher's choice, shown to miss multi-stage anomalies).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use anomex_netflow::{FeatureValue, FlowFeature, FlowRecord};

/// Suspicious feature values, grouped by feature.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaData {
    values: BTreeMap<FlowFeature, BTreeSet<u64>>,
}

impl MetaData {
    /// New, empty meta-data.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one suspicious value.
    pub fn insert(&mut self, feature: FlowFeature, value: u64) {
        self.values.entry(feature).or_default().insert(value);
    }

    /// Insert many values for one feature.
    pub fn insert_all(&mut self, feature: FlowFeature, values: impl IntoIterator<Item = u64>) {
        self.values.entry(feature).or_default().extend(values);
    }

    /// Merge another meta-data set into this one (set union per feature).
    pub fn merge(&mut self, other: &MetaData) {
        for (&feature, vals) in &other.values {
            self.values
                .entry(feature)
                .or_default()
                .extend(vals.iter().copied());
        }
    }

    /// Whether no values are present at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.values().all(BTreeSet::is_empty)
    }

    /// Features that carry at least one value.
    pub fn features(&self) -> impl Iterator<Item = FlowFeature> + '_ {
        self.values
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&f, _)| f)
    }

    /// The suspicious values for one feature.
    #[must_use]
    pub fn values_for(&self, feature: FlowFeature) -> Option<&BTreeSet<u64>> {
        self.values.get(&feature).filter(|v| !v.is_empty())
    }

    /// Total number of (feature, value) pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.values().map(BTreeSet::len).sum()
    }

    /// Iterate all (feature, value) pairs as [`FeatureValue`]s.
    pub fn iter(&self) -> impl Iterator<Item = FeatureValue> + '_ {
        self.values
            .iter()
            .flat_map(|(&f, vals)| vals.iter().map(move |&v| FeatureValue::new(f, v)))
    }

    /// **Union semantics** (the paper's choice): does the flow match *any*
    /// suspicious value in *any* feature?
    #[must_use]
    pub fn matches_any(&self, flow: &FlowRecord) -> bool {
        self.values
            .iter()
            .any(|(&feature, vals)| !vals.is_empty() && vals.contains(&feature.value_of(flow).raw))
    }

    /// **Intersection semantics** (the DoWitcher baseline): does the flow
    /// match a suspicious value in *every* feature that has values?
    /// Returns `false` when the meta-data is empty.
    #[must_use]
    pub fn matches_all(&self, flow: &FlowRecord) -> bool {
        let mut any = false;
        for (&feature, vals) in &self.values {
            if vals.is_empty() {
                continue;
            }
            any = true;
            if !vals.contains(&feature.value_of(flow).raw) {
                return false;
            }
        }
        any
    }
}

impl fmt::Display for MetaData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (&feature, vals) in &self.values {
            if vals.is_empty() {
                continue;
            }
            if !first {
                writeln!(f)?;
            }
            first = false;
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
    use anomex_netflow::Protocol;
    use std::net::Ipv4Addr;

    fn flow(dst_port: u16, packets: u32) -> FlowRecord {
        FlowRecord::new(
            0,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            dst_port,
            Protocol::Tcp,
        )
        .with_volume(packets, packets * 40)
    }

    #[test]
    fn union_matches_any_feature() {
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 7000);
        md.insert(FlowFeature::Packets, 3);
        assert!(md.matches_any(&flow(7000, 1)), "port matches");
        assert!(md.matches_any(&flow(80, 3)), "packet count matches");
        assert!(!md.matches_any(&flow(80, 1)), "nothing matches");
    }

    #[test]
    fn intersection_requires_every_feature() {
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 7000);
        md.insert(FlowFeature::Packets, 3);
        assert!(md.matches_all(&flow(7000, 3)));
        assert!(!md.matches_all(&flow(7000, 1)));
        assert!(!md.matches_all(&flow(80, 3)));
    }

    #[test]
    fn empty_metadata_matches_nothing() {
        let md = MetaData::new();
        assert!(!md.matches_any(&flow(80, 1)));
        assert!(!md.matches_all(&flow(80, 1)));
        assert!(md.is_empty());
    }

    #[test]
    fn union_superset_of_intersection() {
        let mut md = MetaData::new();
        md.insert_all(FlowFeature::DstPort, [7000, 9996]);
        md.insert(FlowFeature::Packets, 2);
        for f in [flow(7000, 2), flow(9996, 1), flow(80, 2), flow(80, 9)] {
            if md.matches_all(&f) {
                assert!(md.matches_any(&f), "intersection ⊆ union violated for {f}");
            }
        }
    }

    #[test]
    fn merge_unions_per_feature() {
        let mut a = MetaData::new();
        a.insert(FlowFeature::DstPort, 80);
        let mut b = MetaData::new();
        b.insert(FlowFeature::DstPort, 443);
        b.insert(FlowFeature::SrcIp, 1234);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert!(a.values_for(FlowFeature::DstPort).unwrap().contains(&80));
        assert!(a.values_for(FlowFeature::DstPort).unwrap().contains(&443));
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
