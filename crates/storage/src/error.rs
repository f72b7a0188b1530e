//! Errors for the long-term archive model.

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Archive configuration is invalid.
    InvalidConfig { detail: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::InvalidConfig { detail } => write!(f, "invalid config: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {}

pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = StorageError::InvalidConfig { detail: "zero copy rate".into() };
        assert!(e.to_string().contains("zero copy rate"));
    }
}
