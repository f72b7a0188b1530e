//! Durable runs: crash-consistent snapshots and the append-only run journal.
//!
//! A simulation that takes hours (or runs inside a batch harness that may be
//! preempted) needs to survive being killed at an arbitrary event. This
//! module provides the storage layer for that:
//!
//! * an **append-only run journal**: the magic `SFJRNL1\n`, then sealed
//!   [`crate::frame`] frames — one run-header frame ([`SNAPSHOT_FORMAT`],
//!   build, spec hash, fault seed) followed by periodic snapshot frames;
//! * **recovery** (the crate-internal `open` and `recover` routines): read
//!   the header frame so the caller can accept or refuse the run, then
//!   [`frame::Walk`] the snapshot frames one at a time to the last good
//!   one, keeping only the newest, and truncate a torn tail away — only
//!   once the header was accepted. Damaged state is *never* silently
//!   replayed — it is either dropped with a typed [`Damage`] or surfaced as
//!   [`CoreError::CorruptJournal`] / [`CoreError::ResumeMismatch`].
//!
//! The same framing serves both persistence shapes: a live journal appended
//! to as the run progresses (`FlowSim::with_journal`), and a one-shot sealed
//! snapshot file written through [`frame::write_atomic`]
//! (`FlowSim::snapshot_to`).
//!
//! A snapshot frame's payload is the simulator's `RunState`; each type in
//! it declares its own bytes, through [`frame::Wire`] (DESIGN.md §13).

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::fs::File;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};

use crate::error::{CoreError, CoreResult};
use crate::frame::{self, Damage, Reader, Reason, Walk, Wire};

/// When the simulator commits a snapshot frame to its run journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotPolicy {
    /// Never snapshot (the default): journaled runs write only the header.
    #[default]
    None,
    /// Snapshot every `n` handled events.
    EveryEvents(u64),
}

/// First eight bytes of every journal and snapshot file.
pub(crate) const JOURNAL_MAGIC: [u8; 8] = *b"SFJRNL1\n";
/// Frame kind: the run header (format version, build, spec hash, seed).
pub(crate) const FRAME_HEADER: u8 = 1;
/// Frame kind: one full engine snapshot.
pub(crate) const FRAME_SNAPSHOT: u8 = 2;
/// Version stamped into every header frame; bumped on incompatible layout
/// changes so old journals fail with [`CoreError::ResumeMismatch`], never a
/// garbled decode. Format 3 holds only what a resume reads: format 2 also
/// wrote a trace-event count, the sampler's next tick and the last snapshot
/// time, which no resume needs. Format 2 writes the integers of the
/// snapshot payload as LEB128; format 1 wrote them at their full width.
pub const SNAPSHOT_FORMAT: u32 = 3;

/// The identity frame at the head of every journal: enough to refuse a
/// resume against the wrong spec, seed, or an incompatible format — before
/// any snapshot byte is interpreted. Its layout is fixed width and is not
/// [`Wire`]'s, so the header of a journal of any format decodes and its
/// `format` can refuse the rest: `format` as a `u32` LE first, `build` as
/// [`frame::put_bytes`], `spec_hash` as a `u64` LE, then `fault_seed` as a
/// flag byte and, when set, a `u64` LE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RunHeader {
    /// Snapshot layout version ([`SNAPSHOT_FORMAT`]); mismatches refuse.
    pub(crate) format: u32,
    /// Producing crate version. Informational: compatibility is governed by
    /// `format` and `spec_hash`, not the build string.
    pub(crate) build: String,
    /// FNV-1a over the deterministic rendering of the compiled flow, pools,
    /// fault plan and policies. A resume against a sim whose hash differs is
    /// a different run and is refused.
    pub(crate) spec_hash: u64,
    /// The fault plan's seed, when the run injects faults.
    pub(crate) fault_seed: Option<u64>,
}

impl RunHeader {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame::put_u32(&mut out, self.format);
        frame::put_bytes(&mut out, self.build.as_bytes());
        frame::put_u64(&mut out, self.spec_hash);
        self.fault_seed.is_some().put(&mut out);
        self.fault_seed.iter().for_each(|&seed| frame::put_u64(&mut out, seed));
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, Damage> {
        let mut r = Reader::new(payload);
        let format = r.u32()?;
        // The build string's bytes start after the format and their length.
        let build = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|_| Damage { offset: 4 + 8, reason: Reason::Utf8 })?;
        let spec_hash = r.u64()?;
        let fault_seed = if bool::get(&mut r)? { Some(r.u64()?) } else { None };
        r.done()?;
        Ok(RunHeader { format, build, spec_hash, fault_seed })
    }
}

fn io_err(action: &str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::CorruptJournal { detail: format!("{action} {}: {e}", path.display()) }
}

/// The magic and the sealed header frame every journal file starts with.
fn journal_head(header: &RunHeader) -> Vec<u8> {
    let mut bytes = JOURNAL_MAGIC.to_vec();
    frame::seal_into(&mut bytes, FRAME_HEADER, &header.encode());
    bytes
}

/// Write a complete sealed journal (header + one snapshot frame) through
/// [`frame::write_atomic`]: a crash mid-write leaves either the previous
/// file or none, never a torn one.
pub(crate) fn write_sealed_journal(
    path: &Path,
    header: &RunHeader,
    snapshot: &[u8],
) -> CoreResult<()> {
    let mut bytes = journal_head(header);
    bytes.reserve_exact(frame::OVERHEAD.saturating_add(snapshot.len()));
    frame::seal_into(&mut bytes, FRAME_SNAPSHOT, snapshot);
    frame::write_atomic(path, &bytes).map_err(|e| io_err("writing snapshot", path, e))
}

/// A live run journal: header written at creation, snapshot frames appended
/// as the run's [`SnapshotPolicy`] fires. Appends are not fsynced — a crash
/// can tear the final frame, and recovery truncates the tear away rather
/// than trusting it.
pub struct RunJournal {
    file: File,
    path: PathBuf,
}

impl std::fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunJournal").field("path", &self.path).finish()
    }
}

impl RunJournal {
    /// Create (truncating any previous file) and write the header frame.
    pub(crate) fn create(path: &Path, header: &RunHeader) -> CoreResult<Self> {
        let mut file = File::create(path).map_err(|e| io_err("creating journal", path, e))?;
        file.write_all(&journal_head(header))
            .and_then(|_| file.sync_all())
            .map_err(|e| io_err("writing journal header", path, e))?;
        Ok(RunJournal { file, path: path.to_path_buf() })
    }

    /// Append one sealed snapshot frame, streamed by [`frame::write_frame`]
    /// as three unbuffered writes straight to the file: the frame is never
    /// materialized and the payload never copied.
    pub(crate) fn append_snapshot(&mut self, payload: &[u8]) -> CoreResult<()> {
        frame::write_frame(&mut self.file, FRAME_SNAPSHOT, payload)
            .map_err(|e| io_err("appending to journal", &self.path, e))
    }
}

/// A journal opened for recovery: its magic and header frame verified and
/// the header decoded, the walk stopped at the first snapshot frame, and
/// nothing written to the file. The caller accepts or refuses the run from
/// [`OpenJournal::header`] before [`OpenJournal::recover`] may truncate.
pub(crate) struct OpenJournal {
    pub(crate) header: RunHeader,
    path: PathBuf,
    walk: Walk<BufReader<File>>,
}

/// What [`OpenJournal::recover`] salvaged from a journal file.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// Payload of the newest sealed snapshot frame, if any survived.
    pub(crate) snapshot: Option<Vec<u8>>,
    /// The torn tail that was truncated away, when there was one. `None`
    /// means every byte of the file was part of a sealed frame. Diagnostic
    /// only — resume proceeds either way.
    pub(crate) truncated: Option<Damage>,
}

fn corrupt(detail: impl Into<String>) -> CoreError {
    CoreError::CorruptJournal { detail: detail.into() }
}

/// Open the journal at `path` and read its header frame. A file whose
/// magic or header frame is damaged cannot identify its run and is
/// rejected outright with [`CoreError::CorruptJournal`].
pub(crate) fn open(path: &Path) -> CoreResult<OpenJournal> {
    let mut walk =
        Walk::open(path, &JOURNAL_MAGIC).map_err(|e| io_err("opening journal", path, e))??;
    let header = match walk.next_frame().map_err(|e| io_err("reading journal", path, e))? {
        Some((FRAME_HEADER, payload)) => RunHeader::decode(payload)?,
        Some((FRAME_SNAPSHOT, _)) => {
            return Err(corrupt("journal does not start with a header frame"))
        }
        Some((other, _)) => return Err(corrupt(format!("unknown frame kind {other}"))),
        None => {
            let why = walk.damage().map(|d| format!(" ({d})")).unwrap_or_default();
            return Err(corrupt(format!("{}: no sealed header frame{why}", path.display())));
        }
    };
    Ok(OpenJournal { header, path: path.to_path_buf(), walk })
}

impl OpenJournal {
    /// Walk the rest of the frames, verifying every seal and keeping only
    /// the newest snapshot's payload, then truncate the file back to the
    /// end of the last sealed frame.
    pub(crate) fn recover(mut self) -> CoreResult<Recovered> {
        let path = &self.path;
        let mut snapshot: Option<Vec<u8>> = None;
        while let Some((kind, payload)) =
            self.walk.next_frame().map_err(|e| io_err("reading journal", path, e))?
        {
            match kind {
                FRAME_SNAPSHOT => {
                    let kept = snapshot.get_or_insert_with(Vec::new);
                    kept.clear();
                    kept.extend_from_slice(payload);
                }
                FRAME_HEADER => return Err(corrupt("second header frame in journal")),
                other => return Err(corrupt(format!("unknown frame kind {other}"))),
            }
        }
        let truncated = self.walk.damage();
        if let Some(damage) = &truncated {
            damage.truncate(path).map_err(|e| io_err("truncating torn journal", path, e))?;
        }
        Ok(Recovered { snapshot, truncated })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Completion, FlowEvent};
    use crate::graph::StageId;
    use crate::resource::ResourceId;
    use crate::units::{DataVolume, SimDuration};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sciflow-durable-{}-{name}", std::process::id()));
        p
    }

    /// Open the journal at `path`, accept whatever run its header names,
    /// and recover it.
    fn recover(path: &Path) -> CoreResult<Recovered> {
        open(path)?.recover()
    }

    fn header() -> RunHeader {
        RunHeader {
            format: SNAPSHOT_FORMAT,
            build: "test".to_string(),
            spec_hash: 0xDEAD_BEEF,
            fault_seed: Some(42),
        }
    }

    #[test]
    fn header_roundtrips() {
        let h = header();
        assert_eq!(RunHeader::decode(&h.encode()).unwrap(), h);
        let h = RunHeader { fault_seed: None, ..h };
        assert_eq!(RunHeader::decode(&h.encode()).unwrap(), h);
        // The build string is read as strictly as every other string.
        let mut bytes = header().encode();
        bytes[12] = 0xFF;
        assert_eq!(
            RunHeader::decode(&bytes),
            Err(Damage { offset: 12, reason: frame::Reason::Utf8 })
        );
    }

    #[test]
    fn journal_appends_and_recovers_latest_snapshot() {
        let path = tmp("journal");
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append_snapshot(b"first").unwrap();
        j.append_snapshot(b"second").unwrap();
        drop(j);
        assert_eq!(open(&path).unwrap().header, header());
        let rec = recover(&path).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"second"[..]));
        assert!(rec.truncated.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    /// The format, byte for byte, computed at the commit before the port to
    /// `core::frame`; since then formats 2 and 3 each changed only the
    /// format field and the header's seal. If this fails the on-disk format changed: do not update
    /// the literals; fix the code.
    #[test]
    fn byte_pin_run_journal() {
        let want = [
            &b"SFJRNL1\n"[..],
            // Header frame: kind 1, 33 payload bytes.
            &[1, 33, 0, 0, 0, 0, 0, 0, 0],
            &[3, 0, 0, 0],                         // format 3
            &[4, 0, 0, 0, 0, 0, 0, 0],             // build: u64 length ...
            b"test",                               // ... and bytes
            &[0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0], // spec hash 0xDEADBEEF
            &[1, 42, 0, 0, 0, 0, 0, 0, 0],         // fault seed Some(42)
            &[253, 110, 52, 53, 185, 133, 81, 12], // FNV-1a over kind..payload
            // Snapshot frame: kind 2, 4 payload bytes.
            &[2, 4, 0, 0, 0, 0, 0, 0, 0],
            b"snap",
            &[65, 149, 158, 213, 129, 211, 173, 184],
        ]
        .concat();
        let path = tmp("pin");
        write_sealed_journal(&path, &header(), b"snap").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), want, "one-shot sealed snapshot file");
        let mut j = RunJournal::create(&path, &header()).unwrap();
        j.append_snapshot(b"snap").unwrap();
        drop(j);
        assert_eq!(std::fs::read(&path).unwrap(), want, "live journal, streamed append");
        std::fs::remove_file(&path).unwrap();
    }

    /// A snapshot frame whose length field is forged — to `u64::MAX`, where
    /// unchecked `9 + len + 8` overflows, and to `len + 1` — is a torn
    /// tail: dropped, truncated and reported, never a panic. The same
    /// forgery in the header frame leaves no run to identify: typed error.
    #[test]
    fn forged_length_run_journal() {
        let path = tmp("forged");
        let forge = |frame_at: usize, len: u64| {
            let mut j = RunJournal::create(&path, &header()).unwrap();
            j.append_snapshot(b"first").unwrap();
            j.append_snapshot(b"second").unwrap();
            drop(j);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[frame_at + 1..frame_at + 9].copy_from_slice(&len.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        };
        let header_at = JOURNAL_MAGIC.len();
        let second_at = header_at + header().encode().len() + b"first".len() + 2 * frame::OVERHEAD;
        for len in [u64::MAX, b"second".len() as u64 + 1] {
            forge(second_at, len);
            let rec = recover(&path).unwrap();
            assert_eq!(rec.snapshot.as_deref(), Some(&b"first"[..]), "length {len}");
            assert_eq!(rec.truncated.map(|d| d.offset), Some(second_at), "length {len}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), second_at as u64);
        }
        for len in [u64::MAX, header().encode().len() as u64 + 1] {
            forge(header_at, len);
            assert!(
                matches!(recover(&path), Err(CoreError::CorruptJournal { .. })),
                "length {len}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damaged_magic_or_header_is_rejected_outright() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTJRNL\n garbage").unwrap();
        assert!(matches!(recover(&path), Err(CoreError::CorruptJournal { .. })));
        // A sealed file whose header frame is bit-flipped cannot identify
        // its run: typed error, not a silent resume — and its snapshot
        // frames are not cut away with the damage.
        write_sealed_journal(&path, &header(), b"snap").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[JOURNAL_MAGIC.len() + 10] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(recover(&path), Err(CoreError::CorruptJournal { .. })));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a refused journal is left as it was");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sealed_write_is_atomic_and_leaves_no_temp() {
        let path = tmp("sealed");
        write_sealed_journal(&path, &header(), b"one").unwrap();
        write_sealed_journal(&path, &header(), b"two").unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"two"[..]));
        assert!(!frame::temp_sibling(&path).exists(), "temp sibling cleaned up");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn event_codec_roundtrips_every_variant() {
        let events = vec![
            FlowEvent::Arrive {
                stage: StageId(3),
                volume: DataVolume::gb(2),
                taint: 1,
                from: Some(StageId(1)),
                lineage: 77,
            },
            FlowEvent::Arrive {
                stage: StageId(0),
                volume: DataVolume::ZERO,
                taint: 0,
                from: None,
                lineage: 1,
            },
            FlowEvent::Admit { stage: StageId(2), volume: DataVolume::mb(5), taint: 0, lineage: 9 },
            FlowEvent::Complete { stage: StageId(1), done: Completion::Produced },
            FlowEvent::Complete {
                stage: StageId(4),
                done: Completion::Task {
                    id: 11,
                    input: DataVolume::gb(1),
                    held: DataVolume::mb(200),
                    cpus: 4,
                },
            },
            FlowEvent::Complete {
                stage: StageId(5),
                done: Completion::Delivered { volume: DataVolume::gb(3), taint: 2, lineage: 8 },
            },
            FlowEvent::Complete {
                stage: StageId(5),
                done: Completion::Attempt {
                    volume: DataVolume::gb(3),
                    attempt: 2,
                    taint: 0,
                    lineage: 8,
                },
            },
            FlowEvent::Complete {
                stage: StageId(5),
                done: Completion::Abandoned { volume: DataVolume::gb(3), taint: 1, lineage: 8 },
            },
            FlowEvent::Complete {
                stage: StageId(6),
                done: Completion::Inspected { id: 4, volume: DataVolume::mb(10) },
            },
            FlowEvent::Complete { stage: StageId(7), done: Completion::FlushDue },
            FlowEvent::CrashResource {
                resource: ResourceId(2),
                units: Some(3),
                repair: SimDuration::from_secs(60),
            },
            FlowEvent::CrashResource {
                resource: ResourceId(0),
                units: None,
                repair: SimDuration::from_mins(5),
            },
            FlowEvent::RepairResource { resource: ResourceId(2), units: 3 },
        ];
        let mut out = Vec::new();
        events.put(&mut out);
        let mut r = Reader::new(&out);
        let back: Vec<FlowEvent> = Wire::get(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(format!("{back:?}"), format!("{events:?}"));
        // A crash's unit count is its `u32`'s bytes, and one that does not
        // fit a `u32` is refused where it sits: after tag, resource, flag.
        let mut crash = vec![4, 2, 1];
        frame::put_uvar(&mut crash, 3);
        frame::put_uvar(&mut crash, 60_000_000);
        let mut one = Vec::new();
        events[10].put(&mut one);
        assert_eq!(one, crash);
        crash.truncate(3);
        frame::put_uvar(&mut crash, 1 << 32);
        frame::put_uvar(&mut crash, 60_000_000);
        assert_eq!(
            FlowEvent::get(&mut Reader::new(&crash)).unwrap_err(),
            Damage { offset: 3, reason: frame::Reason::BadValue }
        );
    }
}
