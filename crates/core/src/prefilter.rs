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
//! Online, the pre-filter costs no scan of its own: a value is voted
//! exactly when enough alarmed clones claim it, which the detector's
//! resolve pass already counts per row, so it marks the rows whose value
//! of each feature at quorum is voted ([`VotedRows`]), and
//! [`Engine::process`](crate::Engine::process) joins those bitsets with
//! [`prefilter_indices_voted`], once per interval: the outcome carries
//! the rows ([`IntervalOutcome::suspicious_rows`](crate::IntervalOutcome::suspicious_rows))
//! on to a fan-in's per-source rule merge
//! ([`source_rules`](crate::source_rules)). Only meta-data from
//! elsewhere, which has no bins behind it, is pre-filtered by a scan:
//! [`Engine::extract`](crate::Engine::extract) calls
//! [`prefilter_indices_columns`], which reads one [`FlowColumns`] column
//! per meta-data feature through [`FlowColumns::for_each_raw`] into a
//! bitset of the rows whose value is listed. Both join one bitset per
//! feature that carries values, word by word, in one shared loop.

use anomex_detector::{MetaData, VotedRows};
use anomex_netflow::FlowColumns;

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

/// Filter a columnar interval by meta-data, returning the ascending
/// indices of the suspicious flows: under union the rows whose value of
/// any meta-data feature is listed, under intersection the rows whose
/// value of every meta-data feature is; empty meta-data keeps none. It
/// reads one *column* at a time instead of one flow at a time: each
/// feature carrying values is one
/// [`for_each_raw`](FlowColumns::for_each_raw) scan of its own column
/// that sets, in a bitset, the rows whose value its sorted list holds
/// (by binary search), and `mode` joins the bitsets word by word.
#[must_use]
pub fn prefilter_indices_columns(
    cols: &FlowColumns,
    metadata: &MetaData,
    mode: PrefilterMode,
) -> Vec<usize> {
    let bitsets: Vec<Vec<u64>> = metadata
        .features()
        .map(|feature| {
            let values = metadata
                .values_for(feature)
                .expect("listed features carry values");
            let mut bits = vec![0u64; cols.len().div_ceil(64)];
            let mut row = 0;
            cols.for_each_raw(feature, 0..cols.len(), |value| {
                bits[row / 64] |= u64::from(values.binary_search(&value).is_ok()) << (row % 64);
                row += 1;
            });
            bits
        })
        .collect();
    join(&bitsets.iter().map(Vec::as_slice).collect::<Vec<_>>(), mode)
}

/// The rows [`prefilter_indices_columns`] keeps under `metadata`, read
/// off `voted`, the rows the detector's resolve pass marked in the
/// interval that voted the meta-data
/// ([`DetectorBank::voted_rows`](anomex_detector::DetectorBank::voted_rows)):
/// no column is scanned. Each feature carrying values contributes its
/// bitset, the rows whose value of it was voted, and `mode` joins them
/// as it joins the scanned ones.
///
/// # Panics
///
/// Panics if a feature carrying values in `metadata` has no bitset in
/// `voted`, that is, if the meta-data was not voted in the interval
/// `voted` was marked in.
#[must_use]
pub fn prefilter_indices_voted(
    voted: &VotedRows,
    metadata: &MetaData,
    mode: PrefilterMode,
) -> Vec<usize> {
    let bitsets: Vec<&[u64]> = metadata
        .features()
        .map(|f| {
            voted
                .feature_rows(f)
                .expect("a voted feature marked its rows")
        })
        .collect();
    join(&bitsets, mode)
}

/// The rows set in one bitset per meta-data feature, joined word by word
/// under `mode` — union keeps a row set in any of them, intersection a
/// row set in all of them — ascending. Empty meta-data, with no bitset,
/// keeps no row under either mode.
fn join(bitsets: &[&[u64]], mode: PrefilterMode) -> Vec<usize> {
    let Some((first, rest)) = bitsets.split_first() else {
        return Vec::new();
    };
    let word = |w: usize| {
        let others = rest.iter().map(|bits| bits[w]);
        match mode {
            PrefilterMode::Union => others.fold(first[w], |word, bits| word | bits),
            PrefilterMode::Intersection => others.fold(first[w], |word, bits| word & bits),
        }
    };
    // Counted first, so the output is allocated once.
    let kept = (0..first.len())
        .map(|w| word(w).count_ones() as usize)
        .sum();
    let mut rows = Vec::with_capacity(kept);
    for w in 0..first.len() {
        let mut bits = word(w);
        while bits != 0 {
            rows.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::{FlowFeature, FlowRecord, Protocol};
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
    /// keeps — a value listed in any meta-data feature (union) or in
    /// every one (intersection) — at every interval size.
    #[test]
    fn columnar_prefilter_matches_the_per_flow_definition() {
        let md = sasser_metadata();
        let flows: Vec<FlowRecord> = (0..3000)
            .map(|i| flow(9990 + (i % 10) as u16, (i % 15) as u32 + 1))
            .collect();
        for mode in [PrefilterMode::Union, PrefilterMode::Intersection] {
            for len in [3000, 997, 0, 1] {
                let cols = FlowColumns::from_flows(&flows[..len]);
                let hits = |flow: &FlowRecord| {
                    (md.features())
                        .filter(|&f| md.values_for(f).unwrap().contains(&f.value_of(flow).raw))
                        .count()
                };
                let needed = match mode {
                    PrefilterMode::Union => 1,
                    PrefilterMode::Intersection => md.features().count(),
                };
                let reference: Vec<usize> =
                    (0..len).filter(|&i| hits(&flows[i]) >= needed).collect();
                assert_eq!(
                    prefilter_indices_columns(&cols, &md, mode),
                    reference,
                    "{mode:?}, {len} flows"
                );
            }
        }
    }
}
