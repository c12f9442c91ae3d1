//! The legacy surface the frozen benchmark replica imports: the
//! histogram pass has one backend, the scalar one, and the split detect
//! step (`DetectorBank::hasher`, `BankHasher::partial_columns`,
//! `DetectorBank::observe_partial`) observes what
//! `DetectorBank::observe_columns` does.

use anomex_detector::{
    active_backend, BankObservation, DetectorBank, DetectorConfig, KernelBackend,
};
use anomex_netflow::FlowColumns;
use anomex_traffic::Scenario;

#[test]
fn the_active_backend_is_scalar() {
    assert_eq!(active_backend(), KernelBackend::Scalar);
}

/// Everything an observation reports, floats as bits.
fn digest(observation: &BankObservation) -> String {
    let mut out = format!(
        "{} {} {:?}",
        observation.interval, observation.alarm, observation.metadata
    );
    for feature in &observation.features {
        out += &format!(
            " | {} {} {}",
            feature.feature, feature.alarm, feature.alarmed_clones
        );
        for clone in &feature.clones {
            let trajectory = clone.bin_identification.as_ref().map(|id| {
                let bits: Vec<u64> = id.kl_trajectory.iter().map(|kl| kl.to_bits()).collect();
                (id.bins.clone(), bits, id.converged)
            });
            out += &format!(
                " [{:?} {:?} {} {:?}]",
                clone.kl.map(f64::to_bits),
                clone.first_diff.map(f64::to_bits),
                clone.alarm,
                trajectory
            );
        }
    }
    out
}

#[test]
fn the_split_detect_step_observes_what_observe_columns_does() {
    let config = DetectorConfig {
        training_intervals: 10,
        ..DetectorConfig::default()
    };
    let scenario = Scenario::small(1);
    let [mut main, mut split, mut main_tail, mut split_tail] =
        [(); 4].map(|()| DetectorBank::new(&config));
    let hasher = split.hasher();
    let mut alarms = 0;
    for interval in 0..scenario.interval_count() {
        let flows = scenario.generate(interval).flows;
        let cols = FlowColumns::from_flows(&flows);
        let want = main.observe_columns(&cols);
        let got = split.observe_partial(hasher.partial_columns(&cols, 0..cols.len()));
        assert_eq!(digest(&got), digest(&want), "interval {interval}");
        alarms += usize::from(want.alarm && !want.metadata.is_empty());
        // A range short of all rows observes just those rows.
        let skip = flows.len().min(7);
        let want = main_tail.observe_columns(&FlowColumns::from_flows(&flows[skip..]));
        let got = split_tail.observe_partial(hasher.partial_columns(&cols, skip..cols.len()));
        assert_eq!(
            digest(&got),
            digest(&want),
            "interval {interval}, rows {skip}.."
        );
    }
    assert!(alarms > 0, "the scenario raised no alarm with meta-data");
}
