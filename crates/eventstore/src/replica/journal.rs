//! The replica's append-only apply journal.
//!
//! Every mutation — a local register/revise/quarantine/declare *or* a unit
//! received from a peer during anti-entropy — is appended to the journal as
//! a sealed frame **before** it touches the in-memory store. A replica that
//! dies mid-apply (kill -9) therefore recovers by reloading its last sealed
//! snapshot and replaying the journal: every replayed frame goes through the
//! same deterministic resolution functions, and resolution is idempotent, so
//! a frame that was half-applied (or applied and then journaled again by a
//! confused peer) lands on the identical state. The file is the magic
//! `ESRJNL1\n`, then sealed [`sciflow_core::frame`] frames; a torn tail is
//! detected by its broken seal and truncated, never parsed.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use sciflow_core::frame::{self, Damage};

use super::{ReplicaError, ReplicaResult};

/// First bytes of every replica journal file.
pub(crate) const JOURNAL_MAGIC: &[u8] = b"ESRJNL1\n";

fn io_err(context: &str, e: std::io::Error) -> ReplicaError {
    ReplicaError::Io { detail: format!("{context}: {e}") }
}

/// Append-only journal of sealed apply frames.
#[derive(Debug)]
pub(crate) struct ApplyJournal {
    path: PathBuf,
    file: File,
}

impl ApplyJournal {
    /// Create a fresh journal at `path` (truncating any existing file) and
    /// durably write the magic header.
    pub(crate) fn create(path: &Path) -> ReplicaResult<ApplyJournal> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create journal", e))?;
        file.write_all(JOURNAL_MAGIC).map_err(|e| io_err("write magic", e))?;
        file.sync_data().map_err(|e| io_err("sync magic", e))?;
        Ok(ApplyJournal { path: path.to_path_buf(), file })
    }

    /// Open an existing journal for appending (used after recovery; the
    /// replay itself goes through [`ApplyJournal::replay`]).
    pub(crate) fn open(path: &Path) -> ReplicaResult<ApplyJournal> {
        let file =
            OpenOptions::new().append(true).open(path).map_err(|e| io_err("open journal", e))?;
        Ok(ApplyJournal { path: path.to_path_buf(), file })
    }

    /// Append one sealed frame and force it to stable storage before
    /// returning — the journal entry must survive a crash that interrupts
    /// the in-memory apply that follows it.
    pub(crate) fn append(&mut self, kind: u8, payload: &[u8]) -> ReplicaResult<()> {
        self.append_batch(kind, [payload])
    }

    /// Append one sealed frame per payload with a single write and a single
    /// sync: all of them are on stable storage before any is applied. The
    /// bytes are those of as many [`ApplyJournal::append`] calls.
    pub(crate) fn append_batch(
        &mut self,
        kind: u8,
        payloads: impl IntoIterator<Item = impl AsRef<[u8]>>,
    ) -> ReplicaResult<()> {
        let mut frames = Vec::new();
        for payload in payloads {
            frame::seal_into(&mut frames, kind, payload.as_ref());
        }
        if frames.is_empty() {
            return Ok(());
        }
        self.file.write_all(&frames).map_err(|e| io_err("append frame", e))?;
        self.file.sync_data().map_err(|e| io_err("sync frame", e))?;
        Ok(())
    }

    /// Truncate the journal back to its magic header after the store has
    /// been checkpointed — the snapshot now carries everything the journal
    /// recorded.
    pub(crate) fn reset(&mut self) -> ReplicaResult<()> {
        self.file = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&self.path)
            .map_err(|e| io_err("reset journal", e))?;
        self.file.write_all(JOURNAL_MAGIC).map_err(|e| io_err("write magic", e))?;
        self.file.sync_data().map_err(|e| io_err("sync magic", e))?;
        Ok(())
    }

    /// Hand every intact frame of the journal at `path` to `apply`, in
    /// order, reading one at a time, then truncate the file back to the
    /// last of them.
    ///
    /// The tail is allowed to be torn — a final frame with a short body or
    /// a broken seal is the signature of a crash mid-append. It is cut off
    /// the file (so later appends land behind sealed frames, not behind
    /// garbage) and reported as the returned [`Damage`]. A bad magic line,
    /// by contrast, means the file is not a journal at all and is a typed
    /// error, as is a frame `apply` refuses; either leaves the file as it
    /// was.
    pub(crate) fn replay(
        path: &Path,
        mut apply: impl FnMut(u8, &[u8]) -> ReplicaResult<()>,
    ) -> ReplicaResult<Option<Damage>> {
        let mut walk =
            frame::Walk::open(path, JOURNAL_MAGIC).map_err(|e| io_err("open journal", e))??;
        while let Some((kind, payload)) =
            walk.next_frame().map_err(|e| io_err("read journal", e))?
        {
            apply(kind, payload)?;
        }
        let damage = walk.damage();
        if let Some(damage) = &damage {
            damage.truncate(path).map_err(|e| io_err("truncate torn journal", e))?;
        }
        Ok(damage)
    }
}
