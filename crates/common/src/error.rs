//! The workspace-wide error type.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Every failure the engine, storage layer, or monitoring framework can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// SQL text (or rule condition text) failed to parse.
    Parse(String),
    /// Unknown table/column/procedure, duplicate definition, schema mismatch.
    Catalog(String),
    /// Runtime execution failure (division by zero, bad parameter count, …).
    Execution(String),
    /// Type coercion failure.
    TypeError(String),
    /// Storage-layer failure (page full, corrupt page, I/O error text).
    Storage(String),
    /// Lock wait timed out.
    LockTimeout {
        resource: String,
        waited_micros: u64,
    },
    /// This transaction was chosen as a deadlock victim.
    Deadlock { resource: String },
    /// The query was cancelled — either by the user or by a SQLCM `Cancel()` action
    /// (Section 5.3 of the paper).
    Cancelled,
    /// Monitoring-framework failure (unknown LAT, attribute, bad rule, …).
    Monitor(String),
    /// A rule condition referenced a LAT row that does not exist for the
    /// in-scope grouping key. Raised inside condition evaluation and mapped
    /// to FALSE at the condition root — the paper's implicit ∃ semantics
    /// ("if a matching row doesn't exist, the condition evaluates to false",
    /// §5.2). Never surfaces to callers of the public API.
    NoLatRow,
    /// Underlying OS I/O error, stringified so `Error` stays `Clone + PartialEq`.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::TypeError(m) => write!(f, "type error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::LockTimeout {
                resource,
                waited_micros,
            } => write!(
                f,
                "lock wait on {resource} timed out after {waited_micros}us"
            ),
            Error::Deadlock { resource } => {
                write!(f, "deadlock detected while waiting on {resource}")
            }
            Error::Cancelled => write!(f, "query was cancelled"),
            Error::Monitor(m) => write!(f, "monitor error: {m}"),
            Error::NoLatRow => write!(f, "no matching LAT row for the in-scope grouping key"),
            Error::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_conversion_preserves_message() {
        let e: Error = std::io::Error::other("boom").into();
        assert_eq!(e, Error::Io("boom".into()));
        assert!(e.to_string().contains("boom"));
    }
}
