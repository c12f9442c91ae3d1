//! Checkpoints written while histograms carried their bin→values map
//! keep the same layout: new ones write that section empty, and older
//! ones restore with the map validated and discarded — the restored
//! clone scores bit-identically to the one that was saved. Float fields
//! holding values the detector never computes are corrupt, and so are
//! histogram counts that do not add up to their recorded total.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use anomex_detector::{BinHasher, FeatureHistogram, HistogramClone, SIGMA_FLOOR};
use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord, Protocol};

/// Steady background: 200 flows to ports 1..=200 (one each).
fn background(interval: u64) -> FlowColumns {
    FlowColumns::from_flows(&background_flows(interval))
}

fn background_flows(interval: u64) -> Vec<FlowRecord> {
    (1..=200u16)
        .map(|p| {
            FlowRecord::new(
                interval * 60_000 + u64::from(p),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                4000,
                p,
                Protocol::Tcp,
            )
        })
        .collect()
}

/// Background plus a 2000-flow flood on port 7000.
fn flooded(interval: u64) -> FlowColumns {
    let mut flows = background_flows(interval);
    for i in 0..2000u64 {
        flows.push(FlowRecord::new(
            interval * 60_000 + i,
            Ipv4Addr::new(192, 168, 0, 7),
            Ipv4Addr::new(10, 0, 0, 99),
            (1024 + (i % 40_000)) as u16,
            7000,
            Protocol::Tcp,
        ));
    }
    FlowColumns::from_flows(&flows)
}

fn new_clone() -> HistogramClone {
    HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 1024, 3.0, 10)
}

/// A trained clone's state in the older layout, written field by field:
/// no training differences, the fitted threshold, the previous
/// interval's histogram followed by its bin→values map (`values`:
/// ascending bins, sorted values), and the previous KL.
fn older_record(
    clone: &HistogramClone,
    prev_flows: &FlowColumns,
    prev_kl: f64,
    values: &BTreeMap<u32, BTreeSet<u64>>,
) -> Vec<u8> {
    let threshold = clone.threshold().expect("training is over");
    let prev = FeatureHistogram::build(clone.feature(), clone.hasher(), clone.bins(), prev_flows);
    let mut w = SnapshotWriter::new();
    w.usize(0);
    w.bool(true);
    w.f64(threshold.alpha);
    w.f64(threshold.sigma());
    w.bool(true);
    w.usize(prev.counts().len());
    for &c in prev.counts() {
        w.u64(c);
    }
    w.u64(prev.total());
    w.usize(values.len());
    for (&bin, set) in values {
        w.u32(bin);
        w.usize(set.len());
        for &v in set {
            w.u64(v);
        }
    }
    w.bool(true);
    w.f64(prev_kl);
    w.into_bytes()
}

fn restore(record: &[u8]) -> Result<HistogramClone, RestoreError> {
    let mut clone = new_clone();
    let mut r = SnapshotReader::new(record);
    clone.restore_snapshot(&mut r)?;
    r.finish()?;
    Ok(clone)
}

/// A clone record with no previous histogram: `diffs` as the collected
/// training differences, then the threshold's `(α, σ̂)` and the previous
/// KL, each if present.
fn state_record(diffs: &[f64], threshold: Option<(f64, f64)>, prev_kl: Option<f64>) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.usize(diffs.len());
    for &d in diffs {
        w.f64(d);
    }
    match threshold {
        Some((alpha, sigma)) => {
            w.bool(true);
            w.f64(alpha);
            w.f64(sigma);
        }
        None => w.bool(false),
    }
    w.bool(false);
    match prev_kl {
        Some(kl) => {
            w.bool(true);
            w.f64(kl);
        }
        None => w.bool(false),
    }
    w.into_bytes()
}

#[test]
fn values_the_detector_never_computes_are_corrupt() {
    // A NaN training difference restored, then panicked the clone's
    // threshold fit once training ended; the checksum around a
    // checkpoint is no authentication, so a crafted file reached it.
    let mut clone = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 64, 3.0, 3);
    let record = state_record(&[f64::NAN], None, None);
    let mut r = SnapshotReader::new(&record);
    assert!(matches!(
        clone.restore_snapshot(&mut r),
        Err(RestoreError::Corrupt(_))
    ));
    for i in 0..6 {
        clone.observe(&background(i));
    }

    let hostile = [
        state_record(&[0.1, f64::INFINITY], None, None),
        state_record(&[], None, Some(f64::NAN)),
        state_record(&[], None, Some(f64::NEG_INFINITY)),
        state_record(&[], Some((f64::NAN, 1e-3)), None),
        state_record(&[], Some((0.0, 1e-3)), None),
        state_record(&[], Some((-3.0, 1e-3)), None),
        state_record(&[], Some((f64::INFINITY, 1e-3)), None),
        state_record(&[], Some((3.0, f64::NAN)), None),
        state_record(&[], Some((3.0, f64::INFINITY)), None),
        state_record(&[], Some((3.0, 0.0)), None),
        state_record(&[], Some((3.0, SIGMA_FLOOR / 2.0)), None),
    ];
    for (i, record) in hostile.iter().enumerate() {
        assert!(
            matches!(restore(record), Err(RestoreError::Corrupt(_))),
            "record {i}"
        );
    }

    // The edges the detector does produce still restore and score.
    let mut clone = restore(&state_record(
        &[-0.5, 0.0],
        Some((3.0, SIGMA_FLOOR)),
        Some(0.0),
    ))
    .expect("a floored σ̂ and a zero KL are real states");
    for i in 0..4 {
        clone.observe(&background(i));
    }
}

/// A trained clone's record whose previous histogram holds `counts`
/// (1 024 bins, zeros after the given ones) with the recorded `total`,
/// and a previous KL of zero.
fn histogram_record(counts: &[u64], total: u64) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.usize(0);
    w.bool(true);
    w.f64(3.0);
    w.f64(1e-3);
    w.bool(true);
    w.usize(1024);
    for bin in 0..1024 {
        w.u64(counts.get(bin).copied().unwrap_or(0));
    }
    w.u64(total);
    w.usize(0);
    w.bool(true);
    w.f64(0.0);
    w.into_bytes()
}

#[test]
fn histogram_counts_must_add_up_to_their_total() {
    // Counts whose sum overflows restored, then overflowed the KL's sum
    // on the next interval: a panic in a debug build, a KL of zero in a
    // release build. Counts that disagree with their total are as
    // foreign to the detector.
    let hostile = [
        histogram_record(&[u64::MAX, 5], 3),
        histogram_record(&[u64::MAX, 1], 0),
        histogram_record(&[5], 3),
        histogram_record(&[5, 1], 7),
        histogram_record(&[], 1),
        // Adds up, yet no interval's flows come near it; bin
        // identification would overflow adding it to the next one's.
        histogram_record(&[u64::MAX], u64::MAX),
    ];
    for (i, record) in hostile.iter().enumerate() {
        assert!(
            matches!(restore(record), Err(RestoreError::Corrupt(_))),
            "record {i}"
        );
    }

    // Counts far above any table of small counts restore and score,
    // through bin identification when the flood alarms.
    for counts in [&[1u64 << 40, 3][..], &[0, 0, 1 << 20, 63, 64, 65]] {
        let total = counts.iter().sum();
        let mut clone = restore(&histogram_record(counts, total)).expect("counts add up");
        let first = clone.observe(&background(0));
        assert!(first.kl.is_some_and(|kl| kl.is_finite() && kl > 0.0));
        for i in 1..4 {
            let flows = if i == 2 { flooded(i) } else { background(i) };
            assert!(clone.observe(&flows).kl.is_some_and(f64::is_finite));
        }
    }
}

#[test]
fn older_value_maps_restore_and_score_bit_identically() {
    for cut in [12u64, 13] {
        let mut live = new_clone();
        let mut prev_kl = None;
        for i in 0..cut {
            prev_kl = live.observe(&background(i)).kl;
        }
        let prev_kl = prev_kl.expect("two intervals seen");
        let prev_flows = background(cut - 1);

        // With no value entries, the hand-written record is byte for byte
        // what the clone writes today.
        let mut w = SnapshotWriter::new();
        live.encode_snapshot(&mut w);
        let empty = BTreeMap::new();
        assert_eq!(
            older_record(&live, &prev_flows, prev_kl, &empty),
            w.into_bytes()
        );

        let mut values: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
        prev_flows.for_each_raw(FlowFeature::DstPort, 0..prev_flows.len(), |v| {
            values
                .entry(live.hasher().bin_of(v, live.bins()))
                .or_default()
                .insert(v);
        });
        let mut restored = restore(&older_record(&live, &prev_flows, prev_kl, &values))
            .expect("a value map decodes");
        for i in cut..16 {
            let flows = if i == 14 { flooded(i) } else { background(i) };
            let a = live.observe(&flows);
            let b = restored.observe(&flows);
            assert_eq!(a.kl.map(f64::to_bits), b.kl.map(f64::to_bits), "cut {cut}");
            assert_eq!(
                a.first_diff.map(f64::to_bits),
                b.first_diff.map(f64::to_bits),
                "cut {cut} interval {i}"
            );
            assert_eq!(a.alarm, i == 14, "cut {cut} interval {i}");
            assert_eq!(a.alarm, b.alarm, "cut {cut} interval {i}");
            assert_eq!(
                a.bin_identification, b.bin_identification,
                "cut {cut} interval {i}"
            );
        }

        // A bin the clone does not have is still corrupt.
        values.insert(1024, BTreeSet::from([7000]));
        assert!(matches!(
            restore(&older_record(&live, &prev_flows, prev_kl, &values)),
            Err(RestoreError::Corrupt(_))
        ));
    }
}
