//! Checkpoint codec: a versioned, checksummed binary snapshot format.
//!
//! Durable long-run operation needs the online state — detector baselines,
//! assembler watermarks, drop counters — to survive process restarts. This
//! module provides the byte-level substrate: a little-endian writer/reader
//! pair for snapshot payloads, an FNV-1a integrity checksum, and atomic
//! checkpoint files (`temp file + rename`) carrying a versioned header so a
//! restore can reject foreign, truncated, or corrupted files with a typed
//! [`RestoreError`] instead of a panic.
//!
//! The format is deliberately hand-rolled: every multi-byte integer is
//! little-endian, every `f64` travels as its raw IEEE-754 bit pattern
//! ([`f64::to_bits`]), and every sequence is length-prefixed with a `u64`.
//! That makes snapshots bit-exact — restoring a detector baseline yields
//! *exactly* the floats the live process held, which is what the
//! kill-and-resume determinism contract requires.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::flow::{FlowRecord, Protocol, TcpFlags};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"ANOMEXCK";

/// Current checkpoint format version. Bump on any layout change, and
/// keep reading the older versions [`read_checkpoint`] still returns.
///
/// Version 2 payloads hold the multi-source merge grid; version 1 (still
/// readable) held the single-source engine's one interval assembler.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint could not be restored.
///
/// Every failure mode of [`read_checkpoint`] and of the state decoders
/// built on [`SnapshotReader`] maps to one of these variants — restore
/// never panics on hostile input.
#[derive(Debug)]
pub enum RestoreError {
    /// The file (or a field inside the payload) ends before its declared
    /// length.
    Truncated,
    /// The file does not start with [`CHECKPOINT_MAGIC`] — not a
    /// checkpoint at all.
    BadMagic,
    /// The checkpoint was written by an incompatible format version.
    UnsupportedVersion {
        /// The version recorded in the file header.
        found: u32,
    },
    /// The payload does not match the checksum recorded in the header.
    ChecksumMismatch,
    /// The payload decoded but its contents are inconsistent (bad enum
    /// tag, impossible length, trailing bytes, …).
    Corrupt(String),
    /// The underlying file could not be read or written.
    Io(io::Error),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Truncated => write!(f, "checkpoint truncated"),
            RestoreError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            RestoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this build reads 1 to {CHECKPOINT_VERSION})"
                )
            }
            RestoreError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            RestoreError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            RestoreError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// 64-bit FNV-1a over a byte slice — the header's integrity checksum.
/// Not cryptographic; it guards against torn writes and bit rot, not
/// adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Append-only little-endian payload builder for snapshot state.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// New empty payload.
    #[must_use]
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Consume the writer, yielding the payload bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current payload length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Write a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` as its raw bit pattern — bit-exact round trip.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Write a flow record (all ten fields, fixed width).
    pub fn flow(&mut self, f: &FlowRecord) {
        self.u64(f.start_ms);
        self.u64(f.end_ms);
        self.u32(u32::from(f.src_ip));
        self.u32(u32::from(f.dst_ip));
        self.u16(f.src_port);
        self.u16(f.dst_port);
        self.u8(f.proto.number());
        self.u32(f.packets);
        self.u32(f.bytes);
        self.u8(f.tcp_flags.0);
    }

    /// Write a length-prefixed sequence of flow records.
    pub fn flows(&mut self, flows: &[FlowRecord]) {
        self.usize(flows.len());
        for f in flows {
            self.flow(f);
        }
    }
}

/// Cursor over a snapshot payload; every read is bounds-checked and
/// returns [`RestoreError::Truncated`] past the end.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Read from the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with [`RestoreError::Corrupt`] unless the payload is fully
    /// consumed — trailing bytes mean the reader and writer disagree on
    /// the layout.
    pub fn finish(&self) -> Result<(), RestoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(RestoreError::Corrupt(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        if self.remaining() < n {
            return Err(RestoreError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, RestoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `bool`; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, RestoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(RestoreError::Corrupt(format!("bad bool byte {other}"))),
        }
    }

    /// Read a `u16`, little-endian.
    pub fn u16(&mut self) -> Result<u16, RestoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, RestoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, RestoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` written by [`SnapshotWriter::usize`], rejecting
    /// values that cannot index memory on this platform.
    pub fn usize(&mut self) -> Result<usize, RestoreError> {
        usize::try_from(self.u64()?)
            .map_err(|_| RestoreError::Corrupt("length exceeds usize".into()))
    }

    /// Read a sequence length and sanity-check it against the bytes that
    /// remain: each element needs at least `min_element_bytes`, so a
    /// length that promises more elements than the payload can hold is
    /// corrupt (and protects against huge bogus allocations).
    pub fn seq_len(&mut self, min_element_bytes: usize) -> Result<usize, RestoreError> {
        let len = self.usize()?;
        if len.saturating_mul(min_element_bytes.max(1)) > self.remaining() {
            return Err(RestoreError::Truncated);
        }
        Ok(len)
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, RestoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], RestoreError> {
        let len = self.seq_len(1)?;
        self.take(len)
    }

    /// Read one flow record.
    pub fn flow(&mut self) -> Result<FlowRecord, RestoreError> {
        Ok(FlowRecord {
            start_ms: self.u64()?,
            end_ms: self.u64()?,
            src_ip: std::net::Ipv4Addr::from(self.u32()?),
            dst_ip: std::net::Ipv4Addr::from(self.u32()?),
            src_port: self.u16()?,
            dst_port: self.u16()?,
            proto: Protocol::from_number(self.u8()?),
            packets: self.u32()?,
            bytes: self.u32()?,
            tcp_flags: TcpFlags(self.u8()?),
        })
    }

    /// Read a length-prefixed sequence of flow records.
    pub fn flows(&mut self) -> Result<Vec<FlowRecord>, RestoreError> {
        let len = self.seq_len(FLOW_WIRE_BYTES)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.flow()?);
        }
        Ok(out)
    }
}

/// Fixed wire width of one encoded [`FlowRecord`].
pub const FLOW_WIRE_BYTES: usize = 8 + 8 + 4 + 4 + 2 + 2 + 1 + 4 + 4 + 1;

/// Frame a payload with the checkpoint header: magic, format version,
/// payload length, FNV-1a checksum, then the payload itself.
#[must_use]
pub fn frame_checkpoint(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verify a framed checkpoint and return its format version (1 up to
/// [`CHECKPOINT_VERSION`]) and payload — the version says which layout
/// the payload decoder must read.
///
/// # Errors
///
/// [`RestoreError::BadMagic`], [`RestoreError::UnsupportedVersion`],
/// [`RestoreError::Truncated`] (short header or payload), or
/// [`RestoreError::ChecksumMismatch`].
pub fn unframe_checkpoint(bytes: &[u8]) -> Result<(u32, &[u8]), RestoreError> {
    if bytes.len() < 8 {
        return Err(RestoreError::Truncated);
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(RestoreError::BadMagic);
    }
    if bytes.len() < 28 {
        return Err(RestoreError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if !(1..=CHECKPOINT_VERSION).contains(&version) {
        return Err(RestoreError::UnsupportedVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload = &bytes[28..];
    let len = usize::try_from(len).map_err(|_| RestoreError::Truncated)?;
    if payload.len() != len {
        return Err(RestoreError::Truncated);
    }
    if fnv1a64(payload) != checksum {
        return Err(RestoreError::ChecksumMismatch);
    }
    Ok((version, payload))
}

/// Atomically and durably write a framed checkpoint to `path`: the bytes
/// land in a sibling temp file, reach the disk, and are `rename`d into
/// place, and then the directory's entry reaches the disk too; so a crash
/// or a power loss mid-write leaves either the previous checkpoint or
/// the new one — never a half-written or empty file at the final path. A
/// write that fails removes its temp file.
///
/// # Errors
///
/// [`RestoreError::Io`] on any filesystem failure.
pub fn write_checkpoint(path: &Path, payload: &[u8]) -> Result<(), RestoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(&frame_checkpoint(payload))?;
        file.sync_all()
    });
    if let Err(e) = written.and_then(|()| fs::rename(&tmp, path)) {
        fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

/// Read and verify a checkpoint file, returning its format version and
/// payload.
///
/// # Errors
///
/// All of [`unframe_checkpoint`]'s errors, plus [`RestoreError::Io`] when
/// the file cannot be read.
pub fn read_checkpoint(path: &Path) -> Result<(u32, Vec<u8>), RestoreError> {
    let bytes = fs::read(path)?;
    unframe_checkpoint(&bytes).map(|(version, payload)| (version, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample_flow(i: u32) -> FlowRecord {
        FlowRecord::new(
            u64::from(i) * 17,
            Ipv4Addr::from(0x0a00_0000 + i),
            Ipv4Addr::from(0x0b00_0000 + i),
            (i % 60_000) as u16,
            7000,
            Protocol::from_number((i % 255) as u8),
        )
        .with_volume(i + 1, (i + 1) * 40)
        .with_flags(TcpFlags((i % 64) as u8))
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(65_000);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bytes(b"hello");
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn flows_round_trip_bit_exact() {
        let flows: Vec<_> = (0..100).map(sample_flow).collect();
        let mut w = SnapshotWriter::new();
        w.flows(&flows);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.flows().unwrap(), flows);
        r.finish().unwrap();
    }

    #[test]
    fn flow_wire_width_matches_encoder() {
        let mut w = SnapshotWriter::new();
        w.flow(&sample_flow(1));
        assert_eq!(w.len(), FLOW_WIRE_BYTES);
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapshotWriter::new();
        w.u64(42);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf[..5]);
        assert!(matches!(r.u64(), Err(RestoreError::Truncated)));
    }

    #[test]
    fn bogus_sequence_length_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        assert!(r.flows().is_err());
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut w = SnapshotWriter::new();
        w.u8(1);
        w.u8(2);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        let _ = r.u8().unwrap();
        assert!(matches!(r.finish(), Err(RestoreError::Corrupt(_))));
    }

    #[test]
    fn frame_and_unframe_round_trip() {
        let payload = b"detector state goes here";
        let framed = frame_checkpoint(payload);
        assert_eq!(
            unframe_checkpoint(&framed).unwrap(),
            (CHECKPOINT_VERSION, &payload[..])
        );
    }

    #[test]
    fn unframe_still_reads_version_one() {
        let mut framed = frame_checkpoint(b"single-source state");
        framed[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(unframe_checkpoint(&framed).unwrap().0, 1);
        framed[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            unframe_checkpoint(&framed),
            Err(RestoreError::UnsupportedVersion { found: 0 })
        ));
    }

    #[test]
    fn unframe_rejects_bad_magic() {
        let mut framed = frame_checkpoint(b"x");
        framed[0] = b'Z';
        assert!(matches!(
            unframe_checkpoint(&framed),
            Err(RestoreError::BadMagic)
        ));
    }

    #[test]
    fn unframe_rejects_future_version() {
        let mut framed = frame_checkpoint(b"x");
        framed[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            unframe_checkpoint(&framed),
            Err(RestoreError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn unframe_rejects_flipped_payload_bit() {
        let mut framed = frame_checkpoint(b"important state");
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        assert!(matches!(
            unframe_checkpoint(&framed),
            Err(RestoreError::ChecksumMismatch)
        ));
    }

    #[test]
    fn unframe_rejects_truncation() {
        let framed = frame_checkpoint(b"important state");
        for cut in [0, 4, 11, 27, framed.len() - 1] {
            assert!(
                matches!(
                    unframe_checkpoint(&framed[..cut]),
                    Err(RestoreError::Truncated | RestoreError::BadMagic)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn checkpoint_file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("anomex-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        write_checkpoint(&path, b"first").unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().1, b"first");
        // Overwrite goes through the same temp+rename path.
        write_checkpoint(&path, b"second").unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().1, b"second");
        // No temp file lingers.
        assert!(!dir.join("state.ckpt.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A write that fails — here its temp file is a link into a missing
    /// directory, so it cannot be created — is an I/O error that leaves
    /// the previous checkpoint as it was and no temp file behind.
    #[cfg(unix)]
    #[test]
    fn a_failed_write_keeps_the_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("anomex-snap-fail-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        write_checkpoint(&path, b"previous").unwrap();
        let tmp = dir.join("state.ckpt.tmp");
        std::os::unix::fs::symlink(dir.join("missing").join("state"), &tmp).unwrap();
        let err = write_checkpoint(&path, b"next").unwrap_err();
        assert!(matches!(err, RestoreError::Io(_)), "{err:?}");
        assert_eq!(read_checkpoint(&path).unwrap().1, b"previous");
        assert!(tmp.symlink_metadata().is_err(), "the temp file is removed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_checkpoint(Path::new("/nonexistent/anomex.ckpt")).unwrap_err();
        assert!(matches!(err, RestoreError::Io(_)));
    }
}
