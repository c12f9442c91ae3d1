//! Heavy-tailed samplers for backbone traffic synthesis.
//!
//! Backbone flow populations are famously skewed: endpoint and port
//! popularity follow Zipf-like laws, and flow sizes are heavy-tailed
//! (Pareto). These samplers drive the background generator so the
//! synthetic trace exercises the same distributional machinery — hash
//! collisions on popular values, frequent-item false positives, deep
//! histogram tails — the paper's SWITCH traces did.

use crate::rng::Rng;

/// A Zipf(α) sampler over ranks `0..n` using a precomputed CDF.
///
/// Rank 0 is the most popular element. Sampling is O(log n) by binary
/// search on the CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf sampler with `n` ranks and exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha` is negative/non-finite.
    #[must_use]
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the rank space is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A bounded Pareto sampler for flow sizes (packets per flow).
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    x_min: f64,
    x_max: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Pareto with scale `x_min`, truncation `x_max`, shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < x_min < x_max` and `alpha > 0`.
    #[must_use]
    pub fn new(x_min: f64, x_max: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && x_max > x_min, "need 0 < x_min < x_max");
        assert!(alpha > 0.0, "shape must be positive");
        BoundedPareto {
            x_min,
            x_max,
            alpha,
        }
    }

    /// Draw a sample in `[x_min, x_max]` (inverse-CDF of the truncated
    /// Pareto).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.f64();
        let lo = self.x_min.powf(-self.alpha);
        let hi = self.x_max.powf(-self.alpha);
        (lo - u * (lo - hi)).powf(-1.0 / self.alpha)
    }

    /// Draw an integer sample (round down, clamped to `x_min.ceil()`).
    pub fn sample_int(&self, rng: &mut Rng) -> u32 {
        (self.sample(rng) as u32).max(self.x_min.ceil() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[50]);
        // Rough Zipf(1) check: rank 0 ≈ 10× rank 9 frequency (harmonic).
        let ratio = f64::from(counts[0]) / f64::from(counts[9].max(1));
        assert!(ratio > 4.0, "rank0/rank9 ratio {ratio}");
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::seed_from_u64(2);
        let mut counts = vec![0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let dev = (f64::from(c) - 5000.0).abs() / 5000.0;
            assert!(dev < 0.15, "uniform deviation {dev}");
        }
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let z = Zipf::new(7, 1.3);
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut rng = Rng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn pareto_respects_bounds() {
        let p = BoundedPareto::new(1.0, 10_000.0, 1.2);
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..5000 {
            let x = p.sample(&mut rng);
            assert!((1.0..=10_000.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let p = BoundedPareto::new(1.0, 100_000.0, 1.1);
        let mut rng = Rng::seed_from_u64(6);
        let samples: Vec<f64> = (0..20_000).map(|_| p.sample(&mut rng)).collect();
        let small = samples.iter().filter(|&&x| x < 2.0).count() as f64 / samples.len() as f64;
        let large = samples.iter().filter(|&&x| x > 100.0).count();
        assert!(small > 0.4, "mass near x_min should dominate: {small}");
        assert!(large > 10, "the tail must produce elephants: {large}");
    }

    #[test]
    fn pareto_int_samples_floor_at_xmin() {
        let p = BoundedPareto::new(1.0, 100.0, 2.0);
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(p.sample_int(&mut rng) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "0 < x_min < x_max")]
    fn pareto_bad_bounds_panic() {
        let _ = BoundedPareto::new(5.0, 2.0, 1.0);
    }
}
