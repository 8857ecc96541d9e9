//! Unified error type for the serving layer.

use std::fmt;

/// Errors produced while admitting or executing a count request.
#[derive(Debug)]
pub enum ServeError {
    /// Core estimation error.
    Core(lts_core::CoreError),
    /// Table-engine error.
    Table(lts_table::TableError),
    /// The request names a dataset the service does not know.
    UnknownDataset {
        /// The requested name.
        name: String,
    },
    /// The request's condition failed to parse.
    Parse {
        /// Parser diagnostics.
        message: String,
    },
    /// Malformed request or configuration.
    Invalid {
        /// Description.
        message: String,
    },
    /// The request's work panicked (in a predicate, say); the service
    /// answered it with this error and went on.
    Panicked {
        /// The panic's message.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "estimation error: {e}"),
            ServeError::Table(e) => write!(f, "table error: {e}"),
            ServeError::UnknownDataset { name } => write!(f, "unknown dataset `{name}`"),
            ServeError::Parse { message } => write!(f, "condition parse error: {message}"),
            ServeError::Invalid { message } => write!(f, "invalid request: {message}"),
            ServeError::Panicked { message } => {
                write!(f, "request aborted: it panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<lts_core::CoreError> for ServeError {
    fn from(e: lts_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<lts_table::TableError> for ServeError {
    fn from(e: lts_table::TableError) -> Self {
        ServeError::Table(e)
    }
}

/// Result alias for the serving layer.
pub type ServeResult<T> = Result<T, ServeError>;
