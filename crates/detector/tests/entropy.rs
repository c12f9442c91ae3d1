//! The entropy detector is a function of its input: two detectors fed
//! the same intervals in one process agree bit for bit — entropy, first
//! difference and proposed values — at every interval.

use anomex_detector::EntropyDetector;
use anomex_netflow::FlowFeature;
use anomex_traffic::Scenario;

#[test]
fn two_detectors_on_the_same_flows_agree_bit_for_bit() {
    let mut alarms = 0;
    for seed in 1..=3 {
        let scenario = Scenario::small(seed);
        for feature in FlowFeature::DETECTION_FEATURES {
            let mut a = EntropyDetector::new(feature, 3.0, 10);
            let mut b = EntropyDetector::new(feature, 3.0, 10);
            for interval in 0..scenario.interval_count() {
                let flows = scenario.generate(interval).flows;
                let (x, y) = (a.observe(&flows), b.observe(&flows));
                let at = format!("seed {seed}, {feature}, interval {interval}");
                assert_eq!(x.entropy.to_bits(), y.entropy.to_bits(), "{at}");
                assert_eq!(
                    x.first_diff.map(f64::to_bits),
                    y.first_diff.map(f64::to_bits),
                    "{at}"
                );
                assert_eq!(x.alarm, y.alarm, "{at}");
                assert_eq!(x.values, y.values, "{at}");
                alarms += usize::from(x.alarm);
            }
        }
    }
    assert!(
        alarms > 0,
        "no interval alarmed, so no values were compared"
    );
}
