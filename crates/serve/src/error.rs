//! Error type of the service layer (client side and server plumbing).

use std::error::Error;
use std::fmt;
use std::io;

use crate::protocol::WireError;

/// Errors surfaced by the `bemcap-serve` client library and server.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io(io::Error),
    /// The peer sent something that is not a well-formed protocol frame
    /// (bad JSON, missing fields, closed mid-response).
    Protocol(String),
    /// The daemon answered with a structured error response.
    Remote {
        /// Machine-readable error code (see `protocol::codes`).
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "service I/O error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Remote { code, message } => {
                write!(f, "daemon error [{code}]: {message}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// A reply that failed its [`crate::protocol`] decoder is a malformed
/// frame from the client's point of view.
impl From<WireError> for ServeError {
    fn from(e: WireError) -> ServeError {
        ServeError::Protocol(e.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::Remote { code: "geometry".into(), message: "bad box".into() };
        let s = format!("{e}");
        assert!(s.contains("geometry") && s.contains("bad box"));
        assert!(e.source().is_none());
        let e: ServeError = io::Error::other("nope").into();
        assert!(e.source().is_some());
        assert!(format!("{e}").contains("nope"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
