//! Error types for the core workflow and simulation layer.

use std::fmt;

use crate::graph::StageId;

/// Errors produced by workflow-graph construction and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The workflow graph contains a cycle involving the named stage.
    CycleDetected { stage: String },
    /// An edge references a stage id that does not exist.
    UnknownStage { id: StageId },
    /// A stage name was used twice; names must be unique within a graph.
    DuplicateStage { name: String },
    /// A source stage was given a downstream edge configuration that is
    /// invalid (for example, a source with incoming edges).
    InvalidTopology { detail: String },
    /// The simulator was asked to run with an invalid configuration.
    InvalidConfig { detail: String },
    /// A resource pool referenced by a stage does not exist.
    UnknownPool { name: String },
    /// A producing stage in a multi-stage graph has no consumers: everything
    /// it emits vanishes. Generated near-miss specs hit this; hand-built
    /// flows should never mean it.
    OrphanStage { stage: String },
    /// A run journal or snapshot file is damaged: torn tail, bit flip, bad
    /// magic, or an unparsable sealed frame. Corrupt state is never
    /// silently resumed.
    CorruptJournal { detail: String },
    /// A journal or snapshot is intact but does not match the run being
    /// resumed: wrong spec hash, unsupported format version, or no snapshot
    /// frame to resume from.
    ResumeMismatch { detail: String },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::CycleDetected { stage } => {
                write!(f, "workflow graph contains a cycle through stage `{stage}`")
            }
            CoreError::UnknownStage { id } => write!(f, "unknown stage id {id:?}"),
            CoreError::DuplicateStage { name } => {
                write!(f, "stage name `{name}` is used more than once")
            }
            CoreError::InvalidTopology { detail } => write!(f, "invalid topology: {detail}"),
            CoreError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            CoreError::UnknownPool { name } => write!(f, "unknown resource pool `{name}`"),
            CoreError::OrphanStage { stage } => {
                write!(f, "orphan stage `{stage}`: it produces data but nothing consumes it")
            }
            CoreError::CorruptJournal { detail } => {
                write!(f, "corrupt run journal: {detail}")
            }
            CoreError::ResumeMismatch { detail } => {
                write!(f, "cannot resume from journal: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<crate::frame::Damage> for CoreError {
    fn from(damage: crate::frame::Damage) -> Self {
        CoreError::CorruptJournal { detail: damage.to_string() }
    }
}

/// Convenience alias used across the core crate.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::DuplicateStage { name: "dedisperse".into() };
        assert!(e.to_string().contains("dedisperse"));
        let e = CoreError::UnknownPool { name: "ctc".into() };
        assert!(e.to_string().contains("ctc"));
    }
}
