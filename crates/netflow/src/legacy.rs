//! What only the frozen benchmark replica calls, in the call shape it
//! imports, re-exported hidden under [`crate::v5`]; deleted with
//! `tests/legacy.rs` in ROADMAP item 12(b). Still pinned in the main
//! modules, for other users: `FlowTrace`, and `v9::decode_mixed_stream`
//! with `TraceItem` (the batch-slicing and reader oracles of the
//! proptests and of the CLI's tests).

use crate::columns::FlowColumns;
use crate::error::DecodeError;
use crate::v5::{decode_record, split_datagram, V5Header, V5_HEADER_LEN, V5_RECORD_LEN};

/// Decode a concatenated stream of v5 datagrams straight into a
/// [`FlowColumns`] store, returning the per-datagram headers.
///
/// Each datagram's header declares its record count, so the stream is
/// self-framing. Every datagram is validated before its first row is
/// appended: the one that fails leaves `out` untouched, and the
/// datagrams before it stay appended.
///
/// # Errors
///
/// Returns the first [`DecodeError`] encountered, the one
/// [`decode_datagram`](crate::v5::decode_datagram) gives on that
/// datagram.
pub fn decode_stream_into_columns(
    mut data: &[u8],
    out: &mut FlowColumns,
) -> Result<Vec<V5Header>, DecodeError> {
    let mut headers = Vec::new();
    while !data.is_empty() {
        let (header, records) = split_datagram(data)?;
        for rec in records.chunks_exact(V5_RECORD_LEN) {
            out.push(&decode_record(rec));
        }
        data = &data[V5_HEADER_LEN + records.len()..];
        headers.push(header);
    }
    Ok(headers)
}
