//! Flow pre-filtering (paper §II-A).
//!
//! Pre-filtering selects the *suspicious* flows an alarm's meta-data points
//! at, before item-set mining. The paper's key design decision is to keep
//! flows matching **any** of the meta-data (union) rather than **all** of
//! it (intersection): multi-stage anomalies like the Sasser worm leave
//! flow-disjoint meta-data (SYN-scan flows, backdoor-port flows, payload
//! download flows), whose intersection is *empty* while their union covers
//! the event. DoWitcher-style intersection filtering is provided as the
//! comparison baseline.
//!
//! The engine pre-filters a columnar interval with
//! [`prefilter_indices_columns_with`], which scans one [`FlowColumns`]
//! column per meta-data feature through [`FlowColumns::for_each_raw`];
//! [`PrefilterMode::matches`] is the per-flow definition it implements.

use anomex_detector::MetaData;
use anomex_netflow::{FlowColumns, FlowRecord};

/// Which matching semantics the pre-filter applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefilterMode {
    /// Keep flows matching *any* meta-data value (the paper's choice).
    #[default]
    Union,
    /// Keep flows matching a value in *every* feature present in the
    /// meta-data (the DoWitcher baseline the paper argues against).
    Intersection,
}

impl PrefilterMode {
    /// Whether one flow passes the filter under this mode.
    #[must_use]
    pub fn matches(self, metadata: &MetaData, flow: &FlowRecord) -> bool {
        match self {
            PrefilterMode::Union => metadata.matches_any(flow),
            PrefilterMode::Intersection => metadata.matches_all(flow),
        }
    }
}

/// Filter a columnar interval by meta-data, returning the ascending
/// indices of the suspicious flows — the rows that
/// [`PrefilterMode::matches`] keeps, evaluated one *column* at a time
/// instead of one flow at a time: each meta-data feature scans only its
/// own contiguous column, so the other columns never enter the cache.
#[must_use]
pub fn prefilter_indices_columns(
    cols: &FlowColumns,
    metadata: &MetaData,
    mode: PrefilterMode,
) -> Vec<usize> {
    prefilter_indices_columns_with(cols, metadata, mode, &mut PrefilterScratch::default())
}

/// Reusable working memory for the columnar pre-filter — the per-row hit
/// counters. The engine keeps one and threads it through every alarmed
/// interval's [`prefilter_indices_columns_with`] call, so steady-state
/// intervals stop re-allocating one byte per flow. Contents never leak
/// between calls (the buffer is re-zeroed on entry), so recycling cannot
/// change any output.
#[derive(Debug, Default)]
pub struct PrefilterScratch {
    hits: Vec<u8>,
}

/// [`prefilter_indices_columns`] with caller-provided scratch — the
/// allocation-recycling form the engine uses.
///
/// Each participating feature is one
/// [`for_each_raw`](FlowColumns::for_each_raw) scan of its column that
/// adds a 0/1 hit per row. Meta-data value sets of at most 16 members
/// (the common case — voted value sets are small) are probed
/// branch-free as a fixed array; larger sets keep the ordinary
/// `BTreeSet` lookup. Both count the same hits.
#[must_use]
pub fn prefilter_indices_columns_with(
    cols: &FlowColumns,
    metadata: &MetaData,
    mode: PrefilterMode,
    scratch: &mut PrefilterScratch,
) -> Vec<usize> {
    // Only features that actually carry values participate — exactly the
    // sets `matches_any`/`matches_all` consult.
    let features: Vec<_> = metadata
        .features()
        .map(|f| {
            (
                f,
                metadata
                    .values_for(f)
                    .expect("listed features are non-empty"),
            )
        })
        .collect();
    if features.is_empty() {
        // Empty meta-data matches nothing under either mode.
        return Vec::new();
    }
    // One pass per participating feature over that feature's column,
    // counting per-row feature hits; a row passes under Union with ≥1
    // hit and under Intersection with a hit in every feature (≤ 9
    // features, so a u8 cannot overflow).
    let rows = 0..cols.len();
    let hits = &mut scratch.hits;
    hits.clear();
    hits.resize(rows.len(), 0);
    for &(feature, values) in &features {
        let mut row = 0;
        match SmallValueSet::new(values.iter().copied()) {
            Some(set) => cols.for_each_raw(feature, rows.clone(), |value| {
                hits[row] += u8::from(set.contains(value));
                row += 1;
            }),
            None => cols.for_each_raw(feature, rows.clone(), |value| {
                hits[row] += u8::from(values.contains(&value));
                row += 1;
            }),
        }
    }
    let needed = match mode {
        PrefilterMode::Union => 1,
        PrefilterMode::Intersection => features.len() as u8,
    };
    // Exact-count pass first so the output vector is built with its
    // final capacity reserved — no growth re-allocations on the fill.
    let kept = hits.iter().filter(|&&h| h >= needed).count();
    let mut out = Vec::with_capacity(kept);
    out.extend(
        hits.iter()
            .enumerate()
            .filter(|&(_, &h)| h >= needed)
            .map(|(i, _)| i),
    );
    out
}

/// A meta-data value set of at most [`SmallValueSet::MAX`] members,
/// stored as a fixed array padded by repeating the first member
/// (duplicates cannot change membership), so a probe compares every
/// slot without branching.
#[derive(Debug)]
struct SmallValueSet {
    padded: [u64; SmallValueSet::MAX],
}

impl SmallValueSet {
    /// Largest membership the fixed probe array covers.
    const MAX: usize = 16;

    /// `None` when the set is empty or holds more than
    /// [`MAX`](Self::MAX) values (callers keep the `BTreeSet`).
    fn new(values: impl IntoIterator<Item = u64>) -> Option<Self> {
        let mut padded = [0u64; Self::MAX];
        let mut members = 0;
        for v in values {
            *padded.get_mut(members)? = v;
            members += 1;
        }
        let first = *padded[..members].first()?;
        padded[members..].fill(first);
        Some(SmallValueSet { padded })
    }

    fn contains(&self, value: u64) -> bool {
        let mut hit = 0u8;
        for &slot in &self.padded {
            hit |= u8::from(slot == value);
        }
        hit != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::{FlowFeature, Protocol};
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

    /// The Sasser-style multistage situation from §II-A: meta-data carries
    /// a port from stage 2 and a flow size from stage 3, appearing in
    /// *different* flows.
    fn sasser_metadata() -> MetaData {
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 9996); // backdoor stage
        md.insert(FlowFeature::Packets, 12); // 16-kB download stage
        md
    }

    /// The pre-filter's verdict on a record slice, through the columnar
    /// scan the engine runs.
    fn select(flows: &[FlowRecord], md: &MetaData, mode: PrefilterMode) -> Vec<usize> {
        prefilter_indices_columns(&FlowColumns::from_flows(flows), md, mode)
    }

    #[test]
    fn union_catches_flow_disjoint_stages() {
        let md = sasser_metadata();
        let flows = vec![
            flow(9996, 1),
            flow(445, 12),
            flow(80, 3), /* unrelated */
        ];
        assert_eq!(
            select(&flows, &md, PrefilterMode::Union),
            vec![0, 1],
            "both stages kept"
        );
        let inter = select(&flows, &md, PrefilterMode::Intersection);
        assert!(inter.is_empty(), "intersection misses the anomaly entirely");
    }

    #[test]
    fn intersection_keeps_flows_matching_all_features() {
        let md = sasser_metadata();
        let both = flow(9996, 12); // matches port AND packet count
        let flows = vec![both, flow(9996, 1)];
        assert_eq!(select(&flows, &md, PrefilterMode::Intersection), vec![0]);
    }

    #[test]
    fn union_is_superset_of_intersection() {
        let md = sasser_metadata();
        let flows: Vec<FlowRecord> = (0..100)
            .map(|i| flow(9990 + (i % 10) as u16, (i % 15) as u32 + 1))
            .collect();
        let union = select(&flows, &md, PrefilterMode::Union);
        let inter = select(&flows, &md, PrefilterMode::Intersection);
        for idx in &inter {
            assert!(union.contains(idx));
        }
    }

    #[test]
    fn empty_metadata_filters_everything_out() {
        let md = MetaData::new();
        let flows = vec![flow(80, 1), flow(9996, 12)];
        assert!(select(&flows, &md, PrefilterMode::Union).is_empty());
        assert!(select(&flows, &md, PrefilterMode::Intersection).is_empty());
    }

    #[test]
    fn indices_align_with_flows() {
        let md = sasser_metadata();
        let flows = vec![flow(80, 1), flow(9996, 2), flow(443, 12)];
        assert_eq!(select(&flows, &md, PrefilterMode::Union), vec![1, 2]);
    }

    /// The column scan keeps exactly the flows the per-flow definition
    /// keeps, and one scratch recycled across intervals of different
    /// sizes changes nothing.
    #[test]
    fn columnar_prefilter_matches_the_per_flow_definition() {
        let md = sasser_metadata();
        let flows: Vec<FlowRecord> = (0..3000)
            .map(|i| flow(9990 + (i % 10) as u16, (i % 15) as u32 + 1))
            .collect();
        let mut scratch = PrefilterScratch::default();
        for mode in [PrefilterMode::Union, PrefilterMode::Intersection] {
            for len in [3000, 997, 0, 1, 3000] {
                let cols = FlowColumns::from_flows(&flows[..len]);
                let reference: Vec<usize> =
                    (0..len).filter(|&i| mode.matches(&md, &flows[i])).collect();
                assert_eq!(
                    prefilter_indices_columns_with(&cols, &md, mode, &mut scratch),
                    reference,
                    "{mode:?}, {len} flows"
                );
            }
        }
    }

    /// `SmallValueSet` refuses exactly the sets the pre-filter must keep
    /// on the `BTreeSet` path — empty and more than 16 members — and an
    /// accepted set holds its members and nothing else, padding
    /// included.
    #[test]
    fn small_value_set_capacity_contract() {
        for n in 0..40u64 {
            let members: Vec<u64> = (0..n).map(|i| u64::MAX - 7 * i).collect();
            match SmallValueSet::new(members.iter().copied()) {
                Some(set) => {
                    assert!((1..=SmallValueSet::MAX as u64).contains(&n), "{n} members");
                    assert!(members.iter().all(|&v| set.contains(v)), "{n} members");
                    assert!(!set.contains(0) && !set.contains(u64::MAX - 1));
                }
                None => assert!(n == 0 || n > SmallValueSet::MAX as u64, "{n} members"),
            }
        }
    }
}
