//! Exporter identity: tagging flows with the device that exported them.
//!
//! The paper's evaluation runs on SWITCH backbone traces collected from
//! **several border routers** feeding one analysis pipeline. To merge
//! those feeds, every flow must carry the identity of its exporter and
//! every exporter must declare how its clock maps onto the shared
//! measurement grid. This module defines both halves of that contract:
//!
//! - [`SourceId`] — a small integer naming one exporter (border router,
//!   collector socket, trace file);
//! - [`SourceSpec`] — the exporter's grid binding: its id plus the
//!   origin of its local clock, so exporters whose clocks disagree by a
//!   fixed skew still land on the same interval index.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identity of one flow exporter (a border router, collector socket, or
/// replayed trace file). Ids are dense small integers assigned by the
/// operator; the merge layer keys its per-source state on them.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

impl From<u32> for SourceId {
    fn from(n: u32) -> Self {
        SourceId(n)
    }
}

/// One exporter's binding onto the shared interval grid.
///
/// `origin_ms` is the exporter-local timestamp that corresponds to grid
/// interval 0: a flow the exporter dates `t` belongs to grid interval
/// `(t - origin_ms) / Δ`. Exporters need not agree on wall clock — a
/// router whose clock runs 250 ms ahead simply declares an origin 250 ms
/// larger, and its flows land on the same grid as everyone else's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SourceSpec {
    /// The exporter's identity.
    pub id: SourceId,
    /// Exporter-local time of grid interval 0, ms.
    pub origin_ms: u64,
}

impl SourceSpec {
    /// A spec for exporter `id` whose local clock origin is `origin_ms`.
    #[must_use]
    pub fn new(id: impl Into<SourceId>, origin_ms: u64) -> Self {
        SourceSpec {
            id: id.into(),
            origin_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_id_displays_compactly() {
        assert_eq!(SourceId(3).to_string(), "src3");
        assert_eq!(SourceId::from(7u32), SourceId(7));
    }

    #[test]
    fn spec_construction() {
        let s = SourceSpec::new(1u32, 250);
        assert_eq!(s.id, SourceId(1));
        assert_eq!(s.origin_ms, 250);
    }
}
