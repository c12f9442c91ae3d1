//! The detector's real KL values, pinned bit for bit.
//!
//! A `DetectorBank` in the paper's setting (k = 1024, three clones per
//! feature, five features) runs over every interval of
//! `Scenario::small(1..=3)`. Every clone's KL and every entry of every
//! bin identification's KL trajectory is folded into one digest, which
//! must equal the constant below. The printed goldens round KL to a few
//! decimals; this test fails on a one-ulp change to any of them.

use anomex_detector::{DetectorBank, DetectorConfig};
use anomex_traffic::Scenario;

/// FNV-1a over the values' bits, eight bytes at a time.
fn fold(digest: u64, bits: u64) -> u64 {
    bits.to_le_bytes().iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn clone_kl_and_trajectory_bits_are_pinned() {
    let config = DetectorConfig {
        training_intervals: 10,
        ..DetectorConfig::default()
    };
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut kls, mut trajectory_entries, mut alarms) = (0usize, 0usize, 0usize);
    for seed in 1..=3u64 {
        let scenario = Scenario::small(seed);
        let mut bank = DetectorBank::new(&config);
        for interval in 0..scenario.interval_count() {
            let observation = bank.observe(&scenario.generate(interval).flows);
            alarms += usize::from(observation.alarm);
            for feature in &observation.features {
                for clone in &feature.clones {
                    let Some(kl) = clone.kl else { continue };
                    kls += 1;
                    digest = fold(digest, kl.to_bits());
                    if let Some(id) = &clone.bin_identification {
                        trajectory_entries += id.kl_trajectory.len();
                        for value in &id.kl_trajectory {
                            digest = fold(digest, value.to_bits());
                        }
                    }
                }
            }
        }
    }
    // Three scenarios of 40 intervals, 15 clones each, every interval
    // but the first scored; the alarms exercise bin identification.
    assert_eq!(kls, 3 * 39 * 15);
    assert!(alarms > 0 && trajectory_entries > alarms);
    assert_eq!(
        digest, 0x433d_2630_6386_5307,
        "KL digest moved ({kls} KLs, {trajectory_entries} trajectory entries, {alarms} alarms)"
    );
}
