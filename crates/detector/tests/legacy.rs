//! The legacy surface the frozen benchmark replica imports: the
//! histogram pass has one backend, the scalar one.

use anomex_detector::{active_backend, KernelBackend};

#[test]
fn the_active_backend_is_scalar() {
    assert_eq!(active_backend(), KernelBackend::Scalar);
}
