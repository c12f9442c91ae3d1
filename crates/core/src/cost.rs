//! Classification-cost accounting (paper §III-F, Fig. 10).
//!
//! The end benefit of anomaly extraction is that an administrator
//! classifies a handful of item-sets instead of hundreds of thousands of
//! flows. With classification cost linear in the number of items to
//! classify, the reduction for an interval is `R = F / I` where `F` is the
//! interval's flow count and `I` the number of extracted item-sets.

/// Classification-cost reduction `R = F / I`.
///
/// When mining returns no item-sets, `I` is floored at 1: the
/// administrator still "classifies" the single empty report.
#[must_use]
pub fn cost_reduction(interval_flows: u64, itemsets: usize) -> f64 {
    interval_flows as f64 / (itemsets.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_magnitude() {
        // §III-F: 0.7–2.6 M flows per interval, a handful of item-sets,
        // reductions of 600 000–800 000.
        let r = cost_reduction(2_600_000, 4);
        assert!((r - 650_000.0).abs() < 1.0);
        let r = cost_reduction(700_000, 1);
        assert_eq!(r, 700_000.0);
    }

    #[test]
    fn zero_itemsets_floor() {
        assert_eq!(cost_reduction(1000, 0), 1000.0);
    }

    #[test]
    fn more_itemsets_less_reduction() {
        assert!(cost_reduction(10_000, 2) > cost_reduction(10_000, 10));
    }

    /// Fig. 10's shape: the reduction grows with the minimum support
    /// (fewer item-sets) and saturates once the minimum is reached.
    #[test]
    fn saturation_shape() {
        let flows = 1_000_000u64;
        // Item-set counts as support rises: 20, 10, 5, 2, 2, 2 (saturated).
        let counts = [20usize, 10, 5, 2, 2, 2];
        let rs: Vec<f64> = counts.iter().map(|&c| cost_reduction(flows, c)).collect();
        for w in rs.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(
            rs[3], rs[5],
            "saturates once the item-set count bottoms out"
        );
    }
}
