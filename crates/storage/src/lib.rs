//! # sciflow-storage
//!
//! Long-term archiving for the three case studies: "reliable low-cost
//! long-term storage solutions for archiving the raw data and data
//! products", with migration across media generations
//! ([`archive::LongTermArchive`]) and cost accounting in both dollars and
//! personnel hours ([`cost::CostLedger`]).

pub mod archive;
pub mod cost;
pub mod error;

pub use archive::{LongTermArchive, MediaGeneration};
pub use cost::CostLedger;
pub use error::{StorageError, StorageResult};
