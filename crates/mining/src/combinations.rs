//! Allocation-free k-combination enumeration over small slices.
//!
//! Rule generation splits every frequent item-set (at most nine items)
//! into each antecedent and its consequent; this helper enumerates the
//! antecedents into a scratch buffer, so the loop performs no heap
//! allocation.

use crate::item::Item;
use crate::transaction::MAX_WIDTH;

/// Call `f` with every k-combination of `items` (in lexicographic order),
/// written into the first `k` slots of a scratch buffer.
///
/// # Panics
///
/// Panics if `items.len() > MAX_WIDTH`.
pub fn for_each_combination(items: &[Item], k: usize, mut f: impl FnMut(&[Item])) {
    assert!(
        items.len() <= MAX_WIDTH,
        "combination source wider than a transaction"
    );
    if k == 0 || k > items.len() {
        return;
    }
    let mut scratch = [items[0]; MAX_WIDTH];
    let mut idx = [0usize; MAX_WIDTH];
    // Standard iterative combination enumeration over index vectors.
    for (slot, i) in idx.iter_mut().take(k).enumerate() {
        *i = slot;
    }
    loop {
        for (slot, &i) in idx.iter().take(k).enumerate() {
            scratch[slot] = items[i];
        }
        f(&scratch[..k]);
        // Advance the rightmost index that can still move.
        let mut pos = k;
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            if idx[pos] != pos + items.len() - k {
                break;
            }
        }
        idx[pos] += 1;
        for j in pos + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::FlowFeature;

    /// n choose k, exactly: each step of the multiplicative recurrence
    /// divides without remainder.
    fn choose(n: usize, k: usize) -> usize {
        (0..k).fold(1, |c, i| c * (n - i) / (i + 1))
    }

    fn items(n: usize) -> Vec<Item> {
        (0..n as u64)
            .map(|v| Item::new(FlowFeature::Bytes, v))
            .collect()
    }

    #[test]
    fn enumerates_all_combinations() {
        for n in 0..=MAX_WIDTH {
            let src = items(n);
            for k in 0..=n {
                let mut seen = Vec::new();
                for_each_combination(&src, k, |combo| seen.push(combo.to_vec()));
                if k == 0 {
                    assert!(seen.is_empty(), "k = 0 yields nothing by convention");
                } else {
                    assert_eq!(seen.len(), choose(n, k), "n={n} k={k}");
                    // All distinct, all sorted, all subsets.
                    let mut dedup = seen.clone();
                    dedup.sort();
                    dedup.dedup();
                    assert_eq!(dedup.len(), seen.len());
                    for combo in &seen {
                        assert!(combo.windows(2).all(|w| w[0] < w[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn k_larger_than_n_yields_nothing() {
        let src = items(3);
        let mut count = 0;
        for_each_combination(&src, 5, |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn lexicographic_order() {
        let src = items(4);
        let mut seen = Vec::new();
        for_each_combination(&src, 2, |c| seen.push((c[0].value(), c[1].value())));
        assert_eq!(seen, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }
}
