//! l-of-n voting across histogram clones (paper §II-D).
//!
//! Each clone that alarms proposes a set of candidate feature values (the
//! values observed in its anomalous bins). Voting keeps a value iff at
//! least `l` of the `n` clones proposed it: `l = 1` is the union of the
//! clones' views, `l = n` the intersection used in the short (IMC'09)
//! version of the paper. The generalized scheme trades false negatives
//! (large `l`) against false positives (small `l`) — quantified by the
//! analytic models in `anomex_bench::models`.

use std::collections::BTreeSet;

/// Keep the values proposed by at least `votes` of the given clone sets.
///
/// # Panics
///
/// Panics if `votes` is zero (a zero quorum would keep every value ever
/// seen, including values proposed by nobody — meaningless) or larger than
/// the number of clone sets (nothing could ever qualify).
#[must_use]
pub fn vote(clone_sets: &[BTreeSet<u64>], votes: usize) -> BTreeSet<u64> {
    assert!(votes >= 1, "vote quorum must be at least 1");
    assert!(
        votes <= clone_sets.len(),
        "vote quorum {} exceeds the number of clone sets {}",
        votes,
        clone_sets.len()
    );
    tally(clone_sets, votes)
}

/// [`vote`] without the quorum checks: the sets' values concatenated and
/// sorted, keeping each value whose run is at least `votes` long (a set
/// holds a value at most once, so a run's length is its vote count).
pub(crate) fn tally<'a>(
    clone_sets: impl IntoIterator<Item = &'a BTreeSet<u64>>,
    votes: usize,
) -> BTreeSet<u64> {
    let mut proposed: Vec<u64> = clone_sets.into_iter().flatten().copied().collect();
    proposed.sort_unstable();
    proposed
        .chunk_by(|a, b| a == b)
        .filter(|run| run.len() >= votes)
        .map(|run| run[0])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[u64]) -> BTreeSet<u64> {
        vals.iter().copied().collect()
    }

    #[test]
    fn unanimous_vote_is_intersection() {
        let sets = vec![set(&[1, 2, 3]), set(&[2, 3, 4]), set(&[3, 2, 9])];
        assert_eq!(vote(&sets, 3), set(&[2, 3]));
    }

    #[test]
    fn single_vote_is_union() {
        let sets = vec![set(&[1]), set(&[2]), set(&[3])];
        assert_eq!(vote(&sets, 1), set(&[1, 2, 3]));
    }

    #[test]
    fn majority_vote() {
        let sets = vec![set(&[1, 2]), set(&[2, 3]), set(&[2, 4])];
        assert_eq!(vote(&sets, 2), set(&[2]));
    }

    #[test]
    fn raising_quorum_never_adds_values() {
        let sets = vec![
            set(&[1, 2, 5]),
            set(&[2, 5, 7]),
            set(&[5, 7, 9]),
            set(&[5, 1]),
        ];
        let mut prev = vote(&sets, 1);
        for l in 2..=4 {
            let cur = vote(&sets, l);
            assert!(cur.is_subset(&prev), "quorum {l} added values");
            prev = cur;
        }
    }

    #[test]
    fn empty_sets_yield_empty_result() {
        let sets = vec![BTreeSet::new(), BTreeSet::new()];
        assert!(vote(&sets, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "quorum must be at least 1")]
    fn zero_quorum_panics() {
        let _ = vote(&[BTreeSet::new()], 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the number of clone sets")]
    fn oversized_quorum_panics() {
        let _ = vote(&[BTreeSet::new()], 2);
    }
}
