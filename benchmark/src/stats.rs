//! The estimators every reported timing goes through.
//!
//! On a shared host interference only ever *adds* time, so every
//! estimator here takes minima, and takes them over the smallest unit
//! the program lets an outsider time: [`best_of_k`] keeps, per interval,
//! the fastest of K passes; [`best_of_k_wall`] rebuilds a whole pass
//! from those minima. A burst of interference that spoils one 5 ms
//! interval of one pass is dropped; the same burst spoils the whole
//! ~1 s pass for a pass-level mean, median, or even minimum. Means of
//! single passes disagreed by 9–16 % between two sets of runs of
//! identical code on the machine this was written on.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Mean of the `⌈K/2⌉` smallest values: a pass-wall estimator that
/// ignores the disturbed half (printed beside the minimum for people;
/// the metrics use minima).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn fast_half(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fast_half of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = sorted.len().div_ceil(2);
    sorted[..keep].iter().sum::<f64>() / keep as f64
}

/// Smallest value.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn minimum(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Per-index minimum over `K` passes: the best-of-K latency profile.
/// Returns `None` when the passes are empty or differ in length (a pass
/// that closed another number of intervals cannot be folded in).
pub fn best_of_k(passes: &[Vec<u64>]) -> Option<Vec<u64>> {
    let first = passes.first()?;
    if passes.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|p| p[i])
                    .min()
                    .expect("at least one pass")
            })
            .collect(),
    )
}

/// The wall of a pass as it would be with every interval at its
/// best-of-K time: `Σᵢ minₖ partsₖᵢ + minₖ (wallₖ − Σᵢ partsₖᵢ)`, where
/// `partsₖ` are the per-interval times pass `k` reported, `profile` is
/// their [`best_of_k`] and the second term is the fastest remainder
/// (load, sort, start-up, exit).
///
/// # Panics
///
/// Panics when `walls` is empty or differs in length from `parts`.
pub fn best_of_k_wall(walls: &[f64], parts: &[Vec<u64>], profile: &[u64], part_unit_s: f64) -> f64 {
    assert!(
        !walls.is_empty() && walls.len() == parts.len(),
        "one wall per pass"
    );
    let seconds = |p: &[u64]| p.iter().sum::<u64>() as f64 * part_unit_s;
    let remainder = walls
        .iter()
        .zip(parts)
        .map(|(wall, p)| wall - seconds(p))
        .fold(f64::INFINITY, f64::min);
    seconds(profile) + remainder
}

/// Nearest-rank index (zero-based) of the `p`-th percentile of `n`
/// sorted samples — the definition `anomex_core::latency_percentile`
/// uses, so the CLI's own summary and this harness agree.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The `p`-th percentile (nearest rank) of a sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// [`percentile`], refused when fewer than [`MIN_SAMPLES_BEYOND`]
/// samples lie beyond it: a tail read off two or three points is noise.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples_beyond(values.len(), p);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it, need {MIN_SAMPLES_BEYOND}",
            values.len()
        ));
    }
    Ok(percentile(values, p))
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// driver judges the benchmark's spread with. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread figure of
/// the acceptance rule. Zero for a constant sample.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let Some((q1, q3)) = quartiles(values) else {
        return 0.0;
    };
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `(median − min) ÷ min`: how disturbed a set of passes was.
pub fn spread_over_min(values: &[f64]) -> f64 {
    let min = minimum(values);
    (median(values) - min) / min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_half_ignores_the_slow_half() {
        // One disturbed pass must not move the estimate at all.
        assert_eq!(fast_half(&[3.0, 1.0, 9.0, 2.0]), 1.5);
        assert_eq!(fast_half(&[3.0, 1.0, 90.0, 2.0]), 1.5);
        // Odd K keeps the middle value.
        assert_eq!(fast_half(&[5.0, 1.0, 3.0]), 2.0);
        assert_eq!(fast_half(&[7.0]), 7.0);
    }

    #[test]
    fn best_of_k_takes_the_minimum_per_interval() {
        let passes = vec![vec![10, 50, 30], vec![12, 20, 31], vec![11, 90, 29]];
        assert_eq!(best_of_k(&passes), Some(vec![10, 20, 29]));
        assert_eq!(best_of_k(&[vec![1, 2], vec![1]]), None);
        assert_eq!(best_of_k(&[]), None);
    }

    #[test]
    fn best_of_k_wall_rebuilds_a_pass_from_the_fastest_parts() {
        // Pass 0 was disturbed in interval 1, pass 1 in its remainder.
        let parts = vec![vec![100, 900, 100], vec![100, 200, 100]];
        let walls = [1.3, 1.4]; // remainders: 0.2 s and 1.0 s
        let profile = best_of_k(&parts).unwrap();
        let wall = best_of_k_wall(&walls, &parts, &profile, 1e-3);
        assert!((wall - 0.6).abs() < 1e-12, "{wall}");
        // No single pass was that fast.
        assert!(wall < minimum(&walls));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[4.0], 90.0), 4.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples is the 90th smallest: ten beyond it.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        let ok: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&ok, 90.0), Ok(89.0));
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail_percentile(&short, 90.0).is_err());
        // The median of 21 samples has exactly ten beyond it.
        assert_eq!(samples_beyond(21, 50.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(iqr_over_median(&v), 1.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_over_median(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn spread_over_min_is_relative_to_the_fastest_pass() {
        assert_eq!(spread_over_min(&[2.0, 2.5, 4.0]), 0.25);
    }
}
