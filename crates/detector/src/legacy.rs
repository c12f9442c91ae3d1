//! What only the frozen benchmark replica calls, in the call shapes it
//! imports, re-exported hidden at the crate root; deleted with
//! `tests/legacy.rs` in ROADMAP item 12(b). Still pinned in the main
//! modules, for other users: `DetectorBank::observe` (a record
//! convenience for tests and bins; ROADMAP item 16), and `BankHasher`
//! with `DetectorBank::observe_partial` (the engine's own path).

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
