//! Error types for the flow substrate.

use std::{fmt, io};

/// An invalid configuration: which constraint was violated, in
/// human-readable form. The interval assemblers
/// ([`IntervalAssembler::try_new`](crate::IntervalAssembler::try_new),
/// [`MergeAssembler::try_new`](crate::MergeAssembler::try_new)) return
/// it, and so does the pipeline (`anomex_core` re-exports it), so library
/// users get a `Result` instead of a panic path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// Wrap a constraint-violation description.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError(message.into())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> Self {
        e.0
    }
}

/// Errors produced while decoding NetFlow wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the fixed header of its packet's format.
    TruncatedHeader {
        /// The packet's version word (5, 9 or 10); `None` when even the
        /// two-byte version word is cut short.
        version: Option<u16>,
        /// Bytes available.
        have: usize,
        /// Bytes required.
        need: usize,
    },
    /// The version word is not one the decoder accepts.
    BadVersion {
        /// The version word found.
        found: u16,
        /// The version words the decoder accepts.
        expected: &'static [u16],
    },
    /// The header's record count does not match the bytes that follow.
    TruncatedRecords {
        /// Records promised by the header.
        declared: u16,
        /// Bytes available for records.
        have: usize,
        /// Bytes required for `declared` records.
        need: usize,
    },
    /// The header declares more records than a v5 datagram can carry (30).
    TooManyRecords(u16),
    /// A v9/IPFIX packet was cut short of what its framing declares.
    TruncatedPacket {
        /// Bytes available.
        have: usize,
        /// Bytes required.
        need: usize,
    },
    /// A v9/IPFIX punctuation packet carried a flowset that is not a
    /// template or options template — decoding data flowsets would need
    /// per-exporter template state, and flow records travel as v5 here.
    UnsupportedFlowset {
        /// The packet's version word (9 or 10).
        version: u16,
        /// The offending flowset/set id.
        id: u16,
    },
    /// No packet is framed within `have` bytes. An export is one UDP
    /// datagram, at most 65 535 bytes, so a capture reader gives up there
    /// rather than buffer a packet whose framing never closes.
    PacketTooLong {
        /// Bytes buffered without a packet boundary.
        have: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TruncatedHeader { version, have, need } => {
                let format = match version {
                    Some(10) => "IPFIX".to_string(),
                    Some(v) => format!("NetFlow v{v}"),
                    None => "NetFlow packet".to_string(),
                };
                write!(f, "truncated {format} header: have {have} bytes, need {need}")
            }
            DecodeError::BadVersion { found, expected } => {
                write!(f, "unsupported NetFlow version {found} (expected ")?;
                for (i, v) in expected.iter().enumerate() {
                    let sep = match i {
                        0 => "",
                        _ if i + 1 == expected.len() => " or ",
                        _ => ", ",
                    };
                    write!(f, "{sep}{v}")?;
                }
                write!(f, ")")
            }
            DecodeError::TruncatedRecords { declared, have, need } => write!(
                f,
                "truncated NetFlow v5 records: header declares {declared} records ({need} bytes) but only {have} bytes follow"
            ),
            DecodeError::TooManyRecords(n) => {
                write!(f, "NetFlow v5 header declares {n} records; the maximum per datagram is 30")
            }
            DecodeError::TruncatedPacket { have, need } => {
                write!(f, "truncated NetFlow v9/IPFIX packet: have {have} bytes, need {need}")
            }
            DecodeError::UnsupportedFlowset { version, id } => write!(
                f,
                "NetFlow v{version} flowset {id} is not a template; only template-only \
                 punctuation packets are supported (flow records travel as v5)"
            ),
            DecodeError::PacketTooLong { have } => write!(
                f,
                "no NetFlow packet framed within {have} bytes; a v9/IPFIX export is one \
                 UDP datagram of at most 65535 bytes"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors produced while reading a capture from an [`io::Read`]
/// ([`crate::v9::TraceReader`]).
#[derive(Debug)]
pub enum ReadError {
    /// The source failed to deliver bytes.
    Io(io::Error),
    /// The bytes delivered do not decode.
    Decode(DecodeError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => e.fmt(f),
            ReadError::Decode(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Decode(e) => Some(e),
        }
    }
}

/// Why a [`Replay`](crate::Replay) stopped.
#[derive(Debug)]
pub struct ReplayError {
    /// The capture's name, as opened; the reader thread's for
    /// [`ReplayErrorKind::Spawn`].
    pub source: String,
    /// What went wrong.
    pub kind: ReplayErrorKind,
}

/// What stopped a [`Replay`](crate::Replay).
#[derive(Debug)]
pub enum ReplayErrorKind {
    /// The capture could not be read ([`ReadError::Io`]) or does not
    /// decode ([`ReadError::Decode`]).
    Read(ReadError),
    /// The capture holds no flow, so it has no clock origin.
    Empty,
    /// The capture reader thread could not be started.
    Spawn(io::Error),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = &self.source;
        match &self.kind {
            ReplayErrorKind::Read(ReadError::Io(e)) => write!(f, "cannot read {name}: {e}"),
            ReplayErrorKind::Read(ReadError::Decode(e)) => write!(f, "{name}: {e}"),
            ReplayErrorKind::Empty => write!(f, "{name}: trace is empty"),
            ReplayErrorKind::Spawn(e) => write!(f, "cannot spawn the capture reader: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Errors produced while encoding NetFlow wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// More records were supplied than fit in one v5 datagram (30).
    TooManyRecords(usize),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooManyRecords(n) => {
                write!(
                    f,
                    "cannot encode {n} records into one NetFlow v5 datagram (max 30)"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_error_messages_are_informative() {
        let e = DecodeError::TruncatedHeader {
            version: Some(5),
            have: 3,
            need: 24,
        };
        assert_eq!(
            e.to_string(),
            "truncated NetFlow v5 header: have 3 bytes, need 24"
        );
        let e = DecodeError::BadVersion {
            found: 9,
            expected: &[5],
        };
        assert_eq!(e.to_string(), "unsupported NetFlow version 9 (expected 5)");
        let e = DecodeError::TruncatedRecords {
            declared: 2,
            have: 10,
            need: 96,
        };
        assert!(e.to_string().contains("2 records"));
        let e = DecodeError::TooManyRecords(31);
        assert!(e.to_string().contains("31"));
    }

    #[test]
    fn encode_error_messages_are_informative() {
        let e = EncodeError::TooManyRecords(31);
        assert!(e.to_string().contains("31"));
    }

    #[test]
    fn errors_implement_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&DecodeError::BadVersion {
            found: 1,
            expected: &[5],
        });
        assert_err(&ReadError::Decode(DecodeError::TooManyRecords(31)));
        assert_err(&EncodeError::TooManyRecords(99));
    }
}
