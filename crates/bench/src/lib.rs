//! # anomex-bench — experiment harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p anomex-bench --bin <name>`; the README's
//! "Reproduce the paper" table is the index), plus one timing bin,
//! `mining_lowsupport`, that prints each miner's run time as the
//! support falls. [`models`] holds the analytic voting models behind
//! Figs. 7 and 8.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use anomex_core::ExtractionConfig;
use anomex_detector::DetectorConfig;

pub mod models;

/// Parse the first CLI argument as a volume scale (default otherwise).
///
/// # Panics
///
/// Panics (with a helpful message) on a non-numeric argument.
#[must_use]
pub fn arg_scale(default: f64) -> f64 {
    std::env::args().nth(1).map_or(default, |s| {
        s.parse()
            .unwrap_or_else(|_| panic!("expected a numeric scale, got {s:?}"))
    })
}

/// The evaluation pipeline configuration used by all scenario-driven
/// experiments: the paper's detector settings with a scenario-appropriate
/// training period and minimum support.
#[must_use]
pub fn eval_config(
    interval_ms: u64,
    training_intervals: usize,
    min_support: u64,
) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms,
        detector: DetectorConfig {
            training_intervals,
            ..DetectorConfig::default()
        },
        min_support,
        ..ExtractionConfig::default()
    }
}

/// The paper's support range [3000, 10000] was defined against 0.7-2.6 M
/// flows per interval, i.e. roughly 0.3%-1% of the interval volume
/// (consistent with the §II-E guidance of 1%-10% of the *pre-filtered*
/// input). Scale that relative range to this experiment's interval volume.
#[must_use]
pub fn supports_for(flows_per_interval: u64) -> Vec<u64> {
    (3..=10u64)
        .map(|m| ((m as f64 * 0.001 * flows_per_interval as f64) as u64).max(2))
        .collect()
}

/// Print a simple horizontal ASCII bar for a value in `[0, max]`.
#[must_use]
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supports_scale_and_floor() {
        let s = supports_for(100);
        assert!(s.iter().all(|&x| x >= 2));
        // At the paper's ~1M-flow intervals the range is [3000, 10000].
        let s = supports_for(1_000_000);
        assert_eq!(s[0], 3000);
        assert_eq!(s[7], 10_000);
    }

    #[test]
    fn bars_are_bounded() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10).len(), 10);
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn eval_config_is_valid() {
        assert!(eval_config(60_000, 10, 500).validate().is_ok());
    }
}
