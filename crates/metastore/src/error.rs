//! Error types for the embedded metadata store.

use std::fmt;

use crate::value::ValueType;

#[derive(Debug, Clone, PartialEq)]
pub enum MetaError {
    InvalidSchema {
        detail: String,
    },
    UnknownTable {
        name: String,
    },
    DuplicateTable {
        name: String,
    },
    UnknownColumn {
        name: String,
    },
    ArityMismatch {
        expected: usize,
        got: usize,
    },
    TypeMismatch {
        column: String,
        expected: ValueType,
        got: ValueType,
    },
    NullViolation {
        column: String,
    },
    DuplicateKey {
        key: String,
    },
    RowNotFound {
        key: String,
    },
    NoPrimaryKey {
        table: String,
    },
    /// A transaction was rolled back; carries the underlying cause.
    TxnAborted {
        cause: Box<MetaError>,
    },
    /// Persistence format errors.
    Corrupt {
        detail: String,
    },
    /// A sealed snapshot file failed verification: torn or truncated write,
    /// bad magic, bit rot, or trailing garbage. The previous snapshot (if
    /// any) is still intact — saves are atomic — so the caller can fall
    /// back rather than trust a half-written database.
    CorruptSnapshot {
        detail: String,
    },
    Io {
        detail: String,
    },
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::InvalidSchema { detail } => write!(f, "invalid schema: {detail}"),
            MetaError::UnknownTable { name } => write!(f, "no such table `{name}`"),
            MetaError::DuplicateTable { name } => write!(f, "table `{name}` already exists"),
            MetaError::UnknownColumn { name } => write!(f, "no such column `{name}`"),
            MetaError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            MetaError::TypeMismatch { column, expected, got } => {
                write!(f, "column `{column}` expects {expected}, got {got}")
            }
            MetaError::NullViolation { column } => {
                write!(f, "column `{column}` is not nullable")
            }
            MetaError::DuplicateKey { key } => write!(f, "duplicate primary key {key}"),
            MetaError::RowNotFound { key } => write!(f, "no row with key {key}"),
            MetaError::NoPrimaryKey { table } => {
                write!(f, "table `{table}` has no primary key")
            }
            MetaError::TxnAborted { cause } => write!(f, "transaction aborted: {cause}"),
            MetaError::Corrupt { detail } => write!(f, "corrupt store: {detail}"),
            MetaError::CorruptSnapshot { detail } => {
                write!(f, "corrupt snapshot file: {detail}")
            }
            MetaError::Io { detail } => write!(f, "io error: {detail}"),
        }
    }
}

impl std::error::Error for MetaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MetaError::TxnAborted { cause } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MetaError {
    fn from(e: std::io::Error) -> Self {
        MetaError::Io { detail: e.to_string() }
    }
}

impl From<sciflow_core::frame::Damage> for MetaError {
    /// Damage to a seal is [`MetaError::CorruptSnapshot`]; a payload whose
    /// own layout does not parse is [`MetaError::Corrupt`].
    fn from(damage: sciflow_core::frame::Damage) -> Self {
        let detail = damage.to_string();
        if damage.reason.in_payload() {
            MetaError::Corrupt { detail }
        } else {
            MetaError::CorruptSnapshot { detail }
        }
    }
}

pub type MetaResult<T> = Result<T, MetaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_names() {
        assert!(MetaError::UnknownTable { name: "runs".into() }.to_string().contains("runs"));
        let aborted =
            MetaError::TxnAborted { cause: Box::new(MetaError::DuplicateKey { key: "7".into() }) };
        assert!(aborted.to_string().contains("duplicate"));
    }
}
