//! What only the frozen benchmark replica calls, in the call shapes it
//! imports, re-exported hidden at the crate root; deleted with
//! `tests/legacy.rs` in ROADMAP item 12(b). Still pinned in the main
//! modules, for other users: `DetectorBank::observe` (a record
//! convenience for tests and bins; ROADMAP item 16).

use std::ops::Range;

use anomex_netflow::FlowColumns;

use crate::bank::{BankObservation, DetectorBank};

/// The histogram pass's implementation, as reported by
/// [`active_backend`]. Only [`Scalar`](Self::Scalar) exists now; the
/// benchmark's `detector.avx2_active` metric reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The one portable column scan.
    Scalar,
    /// Never returned: the vectorized backend was removed.
    Avx2,
}

/// Always [`KernelBackend::Scalar`].
#[must_use]
pub fn active_backend() -> KernelBackend {
    KernelBackend::Scalar
}

/// What [`DetectorBank::hasher`] returns: the first half of the old
/// split detect step. It holds nothing; the bank counts its own columns.
#[derive(Debug, Clone)]
pub struct BankHasher {
    _private: (),
}

/// An interval's rows, named by [`BankHasher::partial_columns`] and
/// observed by [`DetectorBank::observe_partial`].
#[derive(Debug, Clone)]
pub struct BankPartial<'a> {
    cols: &'a FlowColumns,
    range: Range<usize>,
}

impl BankHasher {
    /// Name the rows `range` of `cols` for
    /// [`DetectorBank::observe_partial`]; nothing is counted here.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `cols`.
    #[must_use]
    pub fn partial_columns<'a>(
        &self,
        cols: &'a FlowColumns,
        range: Range<usize>,
    ) -> BankPartial<'a> {
        assert!(
            range.start <= range.end && range.end <= cols.len(),
            "rows {range:?} out of bounds for {} rows",
            cols.len()
        );
        BankPartial { cols, range }
    }
}

impl DetectorBank {
    /// The token whose [`BankHasher::partial_columns`] names an
    /// interval's rows for [`observe_partial`](Self::observe_partial).
    #[must_use]
    pub fn hasher(&self) -> BankHasher {
        BankHasher { _private: () }
    }

    /// [`observe_columns`](Self::observe_columns) over the rows the
    /// partial names (copied out first when they are not all of them):
    /// histograms, scoring and vote all run here.
    pub fn observe_partial(&mut self, partial: BankPartial<'_>) -> BankObservation {
        let BankPartial { cols, range } = partial;
        if range == (0..cols.len()) {
            return self.observe_columns(cols);
        }
        let mut rows = FlowColumns::with_capacity(range.len());
        rows.extend_from_rows(cols, range);
        self.observe_columns(&rows)
    }
}
