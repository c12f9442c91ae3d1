//! `kl_distance` against the plain per-bin loop, bit for bit.
//!
//! `kl_distance` computes one term per distinct `(current, reference)`
//! count pair and remembers it in a table for counts below its side
//! (64). The oracle below is the loop it replaced: every bin's term
//! computed afresh and added in bin order. The two must agree in every
//! bit, at every bin count from 1 to `MAX_BINS`, for histograms that
//! stay inside the table, straddle its side, or hold counts far beyond
//! it. Each case is rebuilt from the printed `(k, shapes, seed)`.

use anomex_detector::{kl_distance, MAX_BINS};
use proptest::prelude::*;

/// The per-bin loop: each bin's smoothed term computed on its own and
/// added in bin order.
fn per_bin_kl(p: &[u64], q: &[u64]) -> f64 {
    let k = p.len() as f64;
    let p_total: u64 = p.iter().sum();
    let q_total: u64 = q.iter().sum();
    let p_norm = p_total as f64 + k;
    let q_norm = q_total as f64 + k;
    let mut d = 0.0;
    for (&pc, &qc) in p.iter().zip(q) {
        let pi = (pc as f64 + 1.0) / p_norm;
        let qi = (qc as f64 + 1.0) / q_norm;
        d += pi * (pi / qi).log2();
    }
    d.max(0.0)
}

/// Bin counts the oracle sweeps.
const BIN_COUNTS: [usize; 5] = [1, 2, 64, 1024, MAX_BINS as usize];

/// Counts on either side of the table's side, and of half of it.
const STRADDLING: [u64; 6] = [31, 32, 33, 63, 64, 65];

/// Histogram shapes; `Same` (reference only) copies the current one.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Zero,
    OneHot,
    /// Mostly zeros and ones, the rest below 16: a quiet interval.
    Small,
    /// Anything below the table's side.
    InTable,
    /// Small counts mixed with the counts of [`STRADDLING`].
    Straddling,
    /// Counts up to 2⁴⁰.
    Large,
    /// Each bin drawn from `Small`, `InTable`, `Straddling` or `Large`.
    Mixed,
    Same,
}

const SHAPES: [Shape; 8] = [
    Shape::Zero,
    Shape::OneHot,
    Shape::Small,
    Shape::InTable,
    Shape::Straddling,
    Shape::Large,
    Shape::Mixed,
    Shape::Same,
];

/// splitmix64: a histogram is a pure function of its case's seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn count(&mut self, shape: Shape) -> u64 {
        match shape {
            Shape::Zero | Shape::Same | Shape::OneHot => 0,
            Shape::Small => match self.below(4) {
                0 | 1 => 0,
                2 => 1,
                _ => self.below(16),
            },
            Shape::InTable => self.below(64),
            Shape::Straddling => {
                if self.below(2) == 0 {
                    STRADDLING[self.below(STRADDLING.len() as u64) as usize]
                } else {
                    self.below(8)
                }
            }
            Shape::Large => self.below(1 << 40),
            Shape::Mixed => {
                let shape = SHAPES[2 + self.below(4) as usize];
                self.count(shape)
            }
        }
    }
}

fn histogram(shape: Shape, k: usize, current: &[u64], rng: &mut Mix) -> Vec<u64> {
    match shape {
        Shape::Same => current.to_vec(),
        Shape::OneHot => {
            let mut h = vec![0; k];
            let hot = rng.below(k as u64) as usize;
            h[hot] = 1 + rng.count(Shape::Mixed);
            h
        }
        _ => (0..k).map(|_| rng.count(shape)).collect(),
    }
}

/// Compare both KLs of one case bit for bit; a failure prints the case.
fn check(k: usize, p_shape: Shape, q_shape: Shape, seed: u64) {
    let mut rng = Mix(seed);
    let p = histogram(p_shape, k, &[], &mut rng);
    let q = histogram(q_shape, k, &p, &mut rng);
    let want = per_bin_kl(&p, &q);
    let got = kl_distance(&p, &q);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "k = {k}, current {p_shape:?}, reference {q_shape:?}, seed {seed}: \
         kl_distance {got:e}, per-bin loop {want:e}; first bins {:?} vs {:?}",
        &p[..k.min(8)],
        &q[..k.min(8)],
    );
}

#[test]
fn fixed_shapes_match_the_per_bin_loop() {
    for k in BIN_COUNTS {
        for p_shape in &SHAPES[..SHAPES.len() - 1] {
            for q_shape in SHAPES {
                check(k, *p_shape, q_shape, k as u64);
            }
        }
    }
}

#[test]
fn every_count_around_the_table_side_matches() {
    // Each (current, reference) pair of counts in 0..=80 once, in one
    // histogram: every memoized pair, every pair half in the table, and
    // the first pairs beyond it.
    let (p, q): (Vec<u64>, Vec<u64>) = (0..=80u64)
        .flat_map(|pc| (0..=80u64).map(move |qc| (pc, qc)))
        .unzip();
    assert_eq!(kl_distance(&p, &q).to_bits(), per_bin_kl(&p, &q).to_bits());
    assert_eq!(kl_distance(&q, &p).to_bits(), per_bin_kl(&q, &p).to_bits());
}

proptest! {
    /// Random cases over every bin count and pair of shapes.
    #[test]
    fn kl_distance_is_the_per_bin_loop_bit_for_bit(
        k in proptest::sample::select(BIN_COUNTS.to_vec()),
        p_shape in proptest::sample::select(SHAPES[..SHAPES.len() - 1].to_vec()),
        q_shape in proptest::sample::select(SHAPES.to_vec()),
        seed in any::<u64>(),
    ) {
        check(k, p_shape, q_shape, seed);
    }
}
