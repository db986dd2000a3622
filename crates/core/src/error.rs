//! Framework-level error type.

use std::fmt;

/// Errors surfaced by the DASSA framework.
#[derive(Debug)]
pub enum DassaError {
    /// Storage-format error from the dasf substrate.
    Dasf(dasf::DasfError),
    /// Filesystem error while scanning or creating files.
    Io(std::io::Error),
    /// A regex query failed to parse.
    Regex(regexlite::ParseError),
    /// A timestamp string is not `yymmddhhmmss`.
    BadTimestamp(String),
    /// Data disagree with each other or with what was planned: VCA
    /// members on shape or sampling, a member rewritten at another shape
    /// since the scan, a stream's minutes, a checkpoint and its
    /// configuration.
    Inconsistent(String),
    /// The requested selection is empty or out of range.
    BadSelection(String),
    /// A DAS file lacks required metadata.
    MissingMetadata { path: String, key: &'static str },
    /// A collective gave up in a bounded-retry (chaos) world.
    Comm(minimpi::CommError),
}

impl fmt::Display for DassaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DassaError::Dasf(e) => write!(f, "storage error: {e}"),
            DassaError::Io(e) => write!(f, "I/O error: {e}"),
            DassaError::Regex(e) => write!(f, "regex error: {e}"),
            DassaError::BadTimestamp(s) => write!(f, "bad timestamp (want yymmddhhmmss): {s}"),
            DassaError::Inconsistent(msg) => write!(f, "inconsistent data: {msg}"),
            DassaError::BadSelection(msg) => write!(f, "bad selection: {msg}"),
            DassaError::MissingMetadata { path, key } => {
                write!(f, "file {path} lacks required metadata key {key:?}")
            }
            DassaError::Comm(e) => write!(f, "communication error: {e}"),
        }
    }
}

impl std::error::Error for DassaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DassaError::Dasf(e) => Some(e),
            DassaError::Io(e) => Some(e),
            DassaError::Regex(e) => Some(e),
            DassaError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dasf::DasfError> for DassaError {
    fn from(e: dasf::DasfError) -> Self {
        DassaError::Dasf(e)
    }
}

impl From<std::io::Error> for DassaError {
    fn from(e: std::io::Error) -> Self {
        DassaError::Io(e)
    }
}

impl From<regexlite::ParseError> for DassaError {
    fn from(e: regexlite::ParseError) -> Self {
        DassaError::Regex(e)
    }
}

impl From<minimpi::CommError> for DassaError {
    fn from(e: minimpi::CommError) -> Self {
        DassaError::Comm(e)
    }
}
