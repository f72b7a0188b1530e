//! Replicated EventStore: fault-tolerant multi-store synchronization with
//! deterministic convergence.
//!
//! The paper's EventStore comes in three sizes — personal, group,
//! collaboration — and its fundamental operation is *merging* stores upward.
//! [`crate::merge::merge_into`] models the blessed one-shot path; this
//! module models the messy steady state around it: N stores that register,
//! revise and quarantine files independently, connected by links that drop,
//! stall, corrupt, duplicate, reorder and partition (all drawn from a
//! seeded [`sciflow_core::fault::FaultPlan`], so every failure replays
//! exactly from its seed).
//!
//! Convergence is not hoped for, it is constructed:
//!
//! * every file record travels as an immutable [`FileUnit`] — content plus
//!   its origin's tier, store id and [`VersionVector`] — and conflict
//!   resolution is `max` over a **total order** on units (tier precedence,
//!   then version-vector weight, then store-id, then canonical bytes).
//!   `max` over a total order is associative, commutative and idempotent,
//!   so any delivery order, any duplication and any sync topology reach the
//!   same winner;
//! * quarantine flags are a separate epoch-versioned register merged by the
//!   same `max` discipline: *quarantined anywhere ⇒ quarantined
//!   everywhere*, and a deliberate release (epoch bump) wins over stale
//!   flags;
//! * grade snapshots merge as order-insensitive set union per
//!   `(grade, date)`, renumbered canonically on conflict;
//! * an anti-entropy session opens with a fixed-size [`Summary`] — the 64
//!   range digests at the top of a digest tree over per-unit fingerprints —
//!   so two in-sync stores exchange O(1) bytes regardless of file count,
//!   and a divergent pair descends the tree where digests differ, in at
//!   most [`MAX_TURNS`] alternating turns, and ships only the units one
//!   side lacks or holds differently;
//! * every apply that changes the store — local or received — is journaled
//!   to a sealed-frame apply journal *before* it touches the store, so a
//!   replica killed mid-apply recovers by snapshot + replay into the
//!   identical state, and re-applying any frame is a no-op by construction;
//! * each replica indexes its file ids by digest range and remembers the
//!   fingerprints and digests it has computed, so a session's work, like
//!   its traffic, is proportional to what differs.
//!
//! The executable form of the convergence argument lives in the
//! `replica_convergence` integration suite: arbitrary generated operation
//! histories, arbitrary partition/heal schedules, and a replica killed
//! mid-sync all end, after quiescence, with byte-identical
//! [`Replica::sealed_content`] on every store.

mod index;
mod journal;
mod link;
pub(crate) mod wire;

#[cfg(test)]
mod byte_formats;
#[cfg(test)]
mod tests;

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use sciflow_core::fnv::fnv1a;
use sciflow_core::frame::{self, put_str, put_u64, Damage, Reader};
use sciflow_core::obs::{Alert, MetricsHub, SloKind, SloRule, SloState};
use sciflow_core::units::{SimDuration, SimTime};
use sciflow_core::version::CalDate;

use crate::error::EsError;
use crate::store::{EventStore, FileRecord, StoreTier};

pub use index::range_of;
pub use link::{LinkStats, SyncLink};
use wire::{
    decode_range_msg, decode_unit, encode_range_msg, encode_record, encode_unit_core, Probe,
};
pub use wire::{encode_unit, encode_unit_into, GradeRow, Summary};

/// Identity of one replica in a sync fabric.
pub type StoreId = u16;

/// Number of digest ranges in an anti-entropy summary. File ids hash into
/// ranges, so a summary is ~0.5 KiB however many files the store holds.
pub const NUM_RANGES: usize = 64;

const STORE_FILE: &str = "store.sfm";
const JOURNAL_FILE: &str = "journal.esr";

// ---------------------------------------------------------------------------
// Errors

/// Typed failures of the replication layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaError {
    /// The link is inside a partition window; no frame can cross until
    /// `heals_at`.
    Partitioned { heals_at: SimTime },
    /// The session's opening summary never arrived; nothing was exchanged.
    SessionDropped,
    /// A sealed frame failed verification or decoded to nonsense.
    CorruptMessage { detail: String },
    /// The apply journal is not a journal (bad magic) or undecodable.
    CorruptJournal { detail: String },
    /// `settle` exhausted its round budget without reaching convergence.
    NoQuiescence { rounds: usize },
    /// A durability operation (checkpoint, recover) on an in-memory replica.
    NotDurable,
    /// Filesystem failure underneath the journal or snapshot.
    Io { detail: String },
    /// The underlying EventStore refused an operation.
    Store(EsError),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Partitioned { heals_at } => {
                write!(f, "link partitioned until {heals_at}")
            }
            ReplicaError::SessionDropped => write!(f, "sync session dropped before any exchange"),
            ReplicaError::CorruptMessage { detail } => write!(f, "corrupt message: {detail}"),
            ReplicaError::CorruptJournal { detail } => write!(f, "corrupt journal: {detail}"),
            ReplicaError::NoQuiescence { rounds } => {
                write!(f, "no convergence after {rounds} sync rounds")
            }
            ReplicaError::NotDurable => write!(f, "replica has no journal directory"),
            ReplicaError::Io { detail } => write!(f, "journal i/o: {detail}"),
            ReplicaError::Store(e) => write!(f, "event store: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EsError> for ReplicaError {
    fn from(e: EsError) -> Self {
        ReplicaError::Store(e)
    }
}

impl From<Damage> for ReplicaError {
    fn from(damage: Damage) -> Self {
        let detail = damage.to_string();
        match damage.reason {
            frame::Reason::BadMagic => ReplicaError::CorruptJournal { detail },
            _ => ReplicaError::CorruptMessage { detail },
        }
    }
}

pub type ReplicaResult<T> = Result<T, ReplicaError>;

// ---------------------------------------------------------------------------
// Version vectors

/// Per-file version vector: how many revisions each store has contributed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VersionVector(BTreeMap<StoreId, u64>);

impl VersionVector {
    pub fn new() -> Self {
        VersionVector::default()
    }

    /// A vector with a single component `store ↦ 1` (a fresh registration).
    pub fn first(store: StoreId) -> Self {
        let mut vv = VersionVector::new();
        vv.bump(store);
        vv
    }

    /// Record one more revision by `store`.
    pub fn bump(&mut self, store: StoreId) {
        *self.0.entry(store).or_insert(0) += 1;
    }

    pub fn get(&self, store: StoreId) -> u64 {
        self.0.get(&store).copied().unwrap_or(0)
    }

    /// Total revision weight. If `self` causally dominates `other`
    /// (componentwise ≥, somewhere >) then `self.weight() > other.weight()`,
    /// so ordering by weight extends causal dominance to a total preorder;
    /// concurrent vectors of equal weight fall through to the store-id and
    /// byte tiebreaks.
    pub fn weight(&self) -> u64 {
        self.0.values().sum()
    }

    pub fn components(&self) -> impl Iterator<Item = (StoreId, u64)> + '_ {
        self.0.iter().map(|(s, c)| (*s, *c))
    }
}

// ---------------------------------------------------------------------------
// Units and resolution

/// The epoch-versioned quarantine register for one file id. Replicas merge
/// registers by `max` over `(epoch, flagged, reason)`: a flag set anywhere
/// propagates everywhere, and lifting it requires a *newer epoch* (a
/// deliberate release), so a stale copy of the old flag can never resurrect
/// itself.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct QState {
    pub epoch: u64,
    pub flagged: bool,
    pub reason: String,
}

/// One file record as it travels between replicas: the immutable content
/// plus the identity of the revision — origin tier, origin store, version
/// vector — and the current quarantine register. Units are never edited in
/// flight; resolution picks whole winners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileUnit {
    pub record: FileRecord,
    /// Tier of the store that produced this revision (0 personal, 1 group,
    /// 2 collaboration) — collaboration-blessed data outranks private runs.
    pub tier_rank: u8,
    /// The store that produced this revision.
    pub origin: StoreId,
    pub vv: VersionVector,
    pub quarantine: Option<QState>,
}

pub(crate) fn tier_rank(tier: StoreTier) -> u8 {
    match tier {
        StoreTier::Personal => 0,
        StoreTier::Group => 1,
        StoreTier::Collaboration => 2,
    }
}

/// The total order behind conflict resolution. `a > b` means `a` wins:
///
/// 1. higher origin tier (collaboration ≻ group ≻ personal);
/// 2. heavier version vector (extends causal dominance: a revision that has
///    seen more history wins);
/// 3. lower origin store id;
/// 4. lexicographically smaller canonical bytes.
///
/// `Equal` implies the canonical bytes are identical, i.e. the units are the
/// same revision. Because this is a *total* order, taking `max` is
/// associative, commutative and idempotent — the convergence proof in one
/// line.
pub fn cmp_units(a: &FileUnit, b: &FileUnit) -> Ordering {
    a.tier_rank
        .cmp(&b.tier_rank)
        .then_with(|| a.vv.weight().cmp(&b.vv.weight()))
        .then_with(|| b.origin.cmp(&a.origin))
        .then_with(|| {
            let (mut bytes_a, mut bytes_b) = (Vec::new(), Vec::new());
            encode_unit_core(&mut bytes_a, a);
            encode_unit_core(&mut bytes_b, b);
            bytes_b.cmp(&bytes_a)
        })
}

/// What applying a unit did to the local store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyEffect {
    /// The file id was new here.
    Added,
    /// The incoming unit beat the resident one and replaced it.
    Replaced,
    /// The resident unit won (or the units were identical); nothing changed.
    Kept,
}

// ---------------------------------------------------------------------------
// Replica

/// One store participating in replication: an [`EventStore`] plus a store
/// id, per-file version metadata, and (optionally) a durable apply journal.
#[derive(Debug)]
pub struct Replica {
    store: EventStore,
    id: StoreId,
    index: index::RangeIndex,
    journal: Option<journal::ApplyJournal>,
    dir: Option<PathBuf>,
    /// The torn journal tail [`Replica::recover`] cut away, if any.
    torn_tail: Option<Damage>,
}

impl Replica {
    /// A fresh in-memory replica (no journal; crash recovery not needed
    /// because there is nothing durable to tear).
    pub fn new(id: StoreId, tier: StoreTier) -> Self {
        Replica::adopt(EventStore::new(tier), id).expect("a fresh store has its tables")
    }

    /// An in-memory replica over `store`, its range index built by one scan
    /// of the file table.
    fn over(store: EventStore, id: StoreId) -> ReplicaResult<Self> {
        let index = index::RangeIndex::build(&store)?;
        Ok(Replica { store, id, index, journal: None, dir: None, torn_tail: None })
    }

    /// A durable replica rooted at `dir`: the store snapshot lives at
    /// `dir/store.sfm`, the apply journal at `dir/journal.esr`. The initial
    /// (empty) snapshot is written immediately so [`Replica::recover`]
    /// always has a base to replay onto.
    pub fn durable(id: StoreId, tier: StoreTier, dir: impl AsRef<Path>) -> ReplicaResult<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| ReplicaError::Io { detail: format!("create {}: {e}", dir.display()) })?;
        let mut rep = Replica::new(id, tier);
        rep.dir = Some(dir.to_path_buf());
        rep.store.save(&dir.join(STORE_FILE))?;
        rep.journal = Some(journal::ApplyJournal::create(&dir.join(JOURNAL_FILE))?);
        Ok(rep)
    }

    /// Adopt an existing store into the replication layer: every file that
    /// lacks a version row gets a fresh first-revision vector attributed to
    /// this replica. The quarantine flags the store holds are already
    /// registers — epoch 1, or later if a replica wrote them. The bridge
    /// from `merge_into`-era stores.
    pub fn adopt(mut store: EventStore, id: StoreId) -> ReplicaResult<Self> {
        let first = wire::version_bytes(tier_rank(store.tier()), id, &VersionVector::first(id));
        store.adopt(id, &first)?;
        Replica::over(store, id)
    }

    /// Recover a durable replica after a crash: load the last sealed
    /// snapshot, then replay every intact journal frame through the same
    /// deterministic apply functions. A torn tail (the crash signature) is
    /// detected by its broken seal, cut off `journal.esr` before the file
    /// is reopened for appending, and kept as [`Replica::torn_tail`];
    /// re-applying frames that had already landed is a no-op because
    /// resolution is idempotent.
    pub fn recover(dir: impl AsRef<Path>) -> ReplicaResult<Self> {
        let dir = dir.as_ref();
        let store = EventStore::load(&dir.join(STORE_FILE))?;
        let id = store.replica_id()?.ok_or_else(|| ReplicaError::CorruptJournal {
            detail: "snapshot has no replica id".into(),
        })?;
        let mut rep = Replica::over(store, id)?;
        rep.dir = Some(dir.to_path_buf());
        rep.torn_tail = journal::ApplyJournal::replay(&dir.join(JOURNAL_FILE), |kind, payload| {
            rep.replay_frame(kind, payload)
        })?;
        rep.journal = Some(journal::ApplyJournal::open(&dir.join(JOURNAL_FILE))?);
        Ok(rep)
    }

    /// Persist the store atomically and truncate the journal. After a
    /// checkpoint, recovery replays nothing.
    pub fn checkpoint(&mut self) -> ReplicaResult<()> {
        let dir = self.dir.clone().ok_or(ReplicaError::NotDurable)?;
        self.store.save(&dir.join(STORE_FILE))?;
        self.journal.as_mut().ok_or(ReplicaError::NotDurable)?.reset()?;
        Ok(())
    }

    /// The damaged journal tail the [`Replica::recover`] that built this
    /// replica truncated away — `None` when every journal byte was part of
    /// a sealed frame, and for replicas that were never recovered.
    pub fn torn_tail(&self) -> Option<Damage> {
        self.torn_tail
    }

    pub fn id(&self) -> StoreId {
        self.id
    }

    pub fn tier(&self) -> StoreTier {
        self.store.tier()
    }

    /// Read access to the underlying EventStore (resolve views, list files).
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    // --- local operations (journal-then-apply) -------------------------

    /// Register a brand-new file at this replica.
    pub fn register(&mut self, record: &FileRecord) -> ReplicaResult<()> {
        if self.store.has_file(record.id)? {
            return Err(EsError::DuplicateFile { id: record.id }.into());
        }
        let unit = FileUnit {
            record: record.clone(),
            tier_rank: tier_rank(self.store.tier()),
            origin: self.id,
            vv: VersionVector::first(self.id),
            quarantine: None,
        };
        self.commit_unit(unit, None)?;
        Ok(())
    }

    /// Supersede an existing file's metadata with a new revision. The new
    /// unit carries the old vector bumped at this replica — it causally
    /// dominates everything this replica has seen — but it may still
    /// deterministically lose to a higher-tier resident, in which case the
    /// returned effect is [`ApplyEffect::Kept`].
    pub fn revise(&mut self, record: &FileRecord) -> ReplicaResult<ApplyEffect> {
        let current = self
            .unit(record.id)?
            .ok_or(ReplicaError::Store(EsError::UnknownFile { id: record.id }))?;
        let mut vv = current.vv.clone();
        vv.bump(self.id);
        let unit = FileUnit {
            record: record.clone(),
            tier_rank: tier_rank(self.store.tier()),
            origin: self.id,
            vv,
            quarantine: None,
        };
        let revision = cmp_units(&unit, &current);
        self.commit_unit(unit, Some(revision))
    }

    /// Quarantine a file (new epoch, flag set). Propagates to every replica
    /// on the next sync.
    pub fn quarantine(&mut self, id: u64, reason: &str) -> ReplicaResult<()> {
        self.commit_quarantine(id, true, reason)
    }

    /// Lift a quarantine (new epoch, flag cleared) — the deliberate release
    /// that outranks every stale copy of the old flag.
    pub fn release(&mut self, id: u64) -> ReplicaResult<()> {
        self.commit_quarantine(id, false, "")
    }

    /// Declare a grade snapshot locally (same ordering rule as
    /// [`EventStore::declare_snapshot`]), journaled and applied through the
    /// replication-canonical union path.
    pub fn declare_snapshot(
        &mut self,
        grade: &str,
        date: CalDate,
        entries: Vec<crate::grade::GradeEntry>,
    ) -> ReplicaResult<()> {
        let history = self.store.grade_history(grade)?;
        if let Some(last) = history.snapshots().last() {
            if date <= last.date {
                return Err(EsError::SnapshotOutOfOrder {
                    grade: grade.to_string(),
                    date: date.to_string(),
                }
                .into());
            }
        }
        let rows: Vec<GradeRow> =
            entries.into_iter().map(|e| GradeRow::of(grade, date, e)).collect();
        self.journal_append(wire::AJ_GRADES, &wire::encode_grade_rows(&rows))?;
        self.apply_grade_rows(&rows)?;
        Ok(())
    }

    // --- unit plumbing ---------------------------------------------------

    /// The full unit for a file id, if registered here.
    pub fn unit(&self, id: u64) -> ReplicaResult<Option<FileUnit>> {
        let Some(record) = self.store.file(id)? else { return Ok(None) };
        let (tier_rank, origin, vv) = self.store.version(id)?;
        let quarantine = self.store.qstate(id)?;
        Ok(Some(FileUnit { record, tier_rank, origin, vv, quarantine }))
    }

    fn journal_append(&mut self, kind: u8, payload: &[u8]) -> ReplicaResult<()> {
        match &mut self.journal {
            Some(j) => j.append(kind, payload),
            None => Ok(()),
        }
    }

    /// Journal-then-apply a local unit, given its place in the total order
    /// against the resident revision (`None`: the file is new here).
    fn commit_unit(
        &mut self,
        unit: FileUnit,
        revision: Option<Ordering>,
    ) -> ReplicaResult<ApplyEffect> {
        // An in-memory replica has no journal to encode the unit for.
        let payload = if self.journal.is_some() { encode_unit(&unit) } else { Vec::new() };
        self.journal_append(wire::AJ_UNIT, &payload)?;
        self.apply_resolved(unit, revision)
    }

    /// Journal-then-apply one received range frame: `units` as
    /// [`decode_range_msg`] checked them (all of one range, ids ascending),
    /// each with the span of `payload` that is its canonical encoding.
    /// Units that would leave the store unchanged are tallied as kept and go
    /// nowhere near the journal: `max` is idempotent, so recovery replays
    /// exactly the history that changed state. The rest are journaled — one
    /// frame per unit, its bytes taken from the frame, one write and one
    /// sync for the lot — before the first of them is applied.
    ///
    /// An arriving unit that neither a resident revision beats nor a
    /// resident register outlasts is, once applied, the resident unit byte
    /// for byte, so the bytes journaled for it give the index its
    /// fingerprint without reading the store back.
    fn commit_received(
        &mut self,
        payload: &[u8],
        units: Vec<wire::SpannedUnit>,
        report: &mut SyncReport,
    ) -> ReplicaResult<()> {
        let mut changing = Vec::with_capacity(units.len());
        for (unit, span) in units {
            let id = unit.record.id;
            // Registers merge by `max` under this same order; a file new
            // here has no register to outlast.
            let (revision, register) = match self.unit(id)? {
                Some(r) => (Some(cmp_units(&unit, &r)), unit.quarantine.cmp(&r.quarantine)),
                None => (None, Ordering::Greater),
            };
            if matches!(revision, Some(Ordering::Less | Ordering::Equal))
                && register != Ordering::Greater
            {
                report.tally(ApplyEffect::Kept);
            } else {
                let mirrored = revision != Some(Ordering::Less) && register != Ordering::Less;
                changing.push((unit, &payload[span], revision, mirrored));
            }
        }
        if let Some(j) = &mut self.journal {
            j.append_batch(wire::AJ_UNIT, changing.iter().map(|(_, bytes, ..)| bytes))?;
        }
        // Ids within a frame are distinct, so applying one unit leaves the
        // resolution of the others standing.
        for (unit, bytes, revision, mirrored) in changing {
            let id = unit.record.id;
            report.tally(self.apply_resolved(unit, revision)?);
            if mirrored {
                self.index.unit_reads(id, fnv1a(bytes));
            }
        }
        Ok(())
    }

    /// Journal-then-apply the next epoch of file `id`'s register.
    fn commit_quarantine(&mut self, id: u64, flagged: bool, reason: &str) -> ReplicaResult<()> {
        if !self.store.has_file(id)? {
            return Err(EsError::UnknownFile { id }.into());
        }
        let epoch = self.store.qstate(id)?.map_or(1, |q| q.epoch + 1);
        let q = QState { epoch, flagged, reason: reason.to_string() };
        let mut payload = Vec::new();
        put_u64(&mut payload, id);
        wire::put_qstate(&mut payload, &Some(q.clone()));
        self.journal_append(wire::AJ_QUAR, &payload)?;
        self.apply_qstate(id, q)
    }

    fn replay_frame(&mut self, kind: u8, payload: &[u8]) -> ReplicaResult<()> {
        match kind {
            wire::AJ_UNIT => {
                let mut r = Reader::new(payload);
                let unit = decode_unit(&mut r)?;
                r.done()?;
                self.apply_unit(unit)?;
            }
            wire::AJ_QUAR => {
                let mut r = Reader::new(payload);
                let id = r.u64()?;
                let q = wire::read_qstate(&mut r)?.ok_or_else(|| ReplicaError::CorruptJournal {
                    detail: "empty qstate".into(),
                })?;
                r.done()?;
                self.apply_qstate(id, q)?;
            }
            wire::AJ_GRADES => {
                let rows = wire::decode_grade_rows(payload)?;
                self.apply_grade_rows(&rows)?;
            }
            k => {
                return Err(ReplicaError::CorruptJournal {
                    detail: format!("unknown journal frame kind 0x{k:02x}"),
                })
            }
        }
        Ok(())
    }

    /// Resolve `incoming` against the resident unit for its file id and
    /// keep the winner. Pure function of (resident state, incoming unit) —
    /// no clocks, no randomness.
    fn apply_unit(&mut self, incoming: FileUnit) -> ReplicaResult<ApplyEffect> {
        let revision = self.unit(incoming.record.id)?.map(|r| cmp_units(&incoming, &r));
        self.apply_resolved(incoming, revision)
    }

    /// Keep the winner, given `incoming`'s place in the total order against
    /// the resident revision (`None`: the file is new here). Quarantine
    /// registers merge independently of which revision won. A winning
    /// record's strings move into its row.
    fn apply_resolved(
        &mut self,
        incoming: FileUnit,
        revision: Option<Ordering>,
    ) -> ReplicaResult<ApplyEffect> {
        let effect = match revision {
            None => ApplyEffect::Added,
            Some(Ordering::Greater) => ApplyEffect::Replaced,
            Some(_) => ApplyEffect::Kept,
        };
        let FileUnit { record, tier_rank, origin, vv, quarantine } = incoming;
        let id = record.id;
        if effect != ApplyEffect::Kept {
            let version = wire::version_bytes(tier_rank, origin, &vv);
            self.write_unit(record, version, effect == ApplyEffect::Added)?;
        }
        if let Some(q) = quarantine {
            self.apply_qstate(id, q)?;
        }
        Ok(effect)
    }

    /// Store `record` and its version row.
    fn write_unit(
        &mut self,
        record: FileRecord,
        version: Vec<u8>,
        fresh: bool,
    ) -> ReplicaResult<()> {
        let id = record.id;
        self.store.put_unit(record, version, fresh)?;
        if fresh {
            self.index.insert(id);
        } else {
            self.index.unit_changed(id);
        }
        Ok(())
    }

    /// Merge a quarantine register into the file's quarantine record — the
    /// one `merge_into`, `is_quarantined` and the rest of the
    /// non-replicated API read. Every caller holds a registered file: a
    /// local quarantine or release checks, a journaled one was checked when
    /// it was first applied, and a received unit's register follows its
    /// record in.
    fn apply_qstate(&mut self, id: u64, incoming: QState) -> ReplicaResult<()> {
        debug_assert!(self.index.holds(id), "a register for unregistered file {id}");
        // Registers merge by `max`: unless `incoming` is greater, the
        // resident register is the winner and nothing moves.
        if self.store.qstate(id)?.as_ref() >= Some(&incoming) {
            return Ok(());
        }
        self.store.put_qstate(id, incoming)?;
        self.index.unit_changed(id);
        Ok(())
    }

    // --- grade rows ------------------------------------------------------

    /// Every grade-entry row in replication-canonical form (rowid and seq
    /// stripped), unsorted.
    pub fn grade_rows(&self) -> ReplicaResult<Vec<GradeRow>> {
        grade_rows_of(&self.store).map_err(Into::into)
    }

    /// Union-merge incoming grade rows per `(grade, date)` snapshot. A
    /// snapshot key whose entry set is unchanged is left untouched
    /// (preserving local declaration order); a genuinely new or conflicting
    /// snapshot is rewritten in canonical sorted order with renumbered
    /// sequence numbers. Set union is associative, commutative and
    /// idempotent, so snapshot content converges like everything else.
    fn apply_grade_rows(&mut self, rows: &[GradeRow]) -> ReplicaResult<usize> {
        let mut incoming: BTreeMap<(String, u32), BTreeSet<GradeRow>> = BTreeMap::new();
        for row in rows {
            incoming.entry((row.grade.clone(), row.date)).or_default().insert(row.clone());
        }
        let mut changed_keys = 0;
        for ((grade, date), new_rows) in incoming {
            // The resident rows of this snapshot, with their rowids.
            let resident = self.store.grades()?.into_iter();
            let resident = resident.filter(|g| g.row.grade == grade && g.row.date == date);
            let (drop, existing): (Vec<i64>, BTreeSet<GradeRow>) =
                resident.map(|g| (g.rowid, g.row)).unzip();
            let union: BTreeSet<GradeRow> = existing.union(&new_rows).cloned().collect();
            if union == existing {
                continue;
            }
            changed_keys += 1;
            // Rewrite the snapshot atomically: drop the old rows, insert
            // the union in canonical order with fresh rowids.
            let rows = union.into_iter().zip(0..).map(|(row, seq)| (seq, row)).collect();
            self.store.write(Vec::new(), &drop, rows)?;
            self.index.grades_changed();
        }
        Ok(changed_keys)
    }

    // --- digests and canonical bytes ------------------------------------

    /// The replica's canonical content as sealed bytes: every unit in id
    /// order, every grade row in canonical order, closed by a
    /// length-and-digest trailer. Two replicas have converged **iff** these
    /// bytes are identical — per-store identity (own id, own tier, grade
    /// rowids, declaration order) is deliberately excluded.
    pub fn sealed_content(&self) -> ReplicaResult<Vec<u8>> {
        let mut buf = Vec::new();
        for id in self.index.ids() {
            encode_unit_into(&mut buf, &self.indexed_unit(id)?);
        }
        let mut rows = self.grade_rows()?;
        rows.sort();
        for row in rows {
            row.encode(&mut buf);
        }
        frame::seal_trailer(&mut buf, &[]);
        Ok(buf)
    }
}

// ---------------------------------------------------------------------------
// Store-level helpers (shared with the merge-algebra property tests)

/// Every grade row of `store` in replication-canonical form, unsorted.
fn grade_rows_of(store: &EventStore) -> Result<Vec<GradeRow>, EsError> {
    Ok(store.grades()?.into_iter().map(|g| g.row).collect())
}

/// Canonical content bytes of a *plain* [`EventStore`] (no replication
/// metadata): sorted file rows, sorted grade rows, sorted quarantine flags,
/// sealed with a length-and-digest trailer. Two stores are observationally
/// identical to the non-replicated API iff these bytes match — the equality
/// the `merge_algebra` property suite checks.
pub fn canonical_content(store: &EventStore) -> Result<Vec<u8>, EsError> {
    let mut buf = Vec::new();
    let mut files = store.files()?;
    files.sort_by_key(|f| f.id);
    for f in &files {
        encode_record(&mut buf, f);
    }
    let mut rows = grade_rows_of(store)?;
    rows.sort();
    for row in rows {
        row.encode(&mut buf);
    }
    for id in store.quarantined_files() {
        put_u64(&mut buf, id);
        put_str(&mut buf, &store.quarantine_reason(id).unwrap_or_default());
    }
    frame::seal_trailer(&mut buf, &[]);
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Anti-entropy sessions

/// What one [`sync_once`] session did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// The stores' summaries already matched; nothing was transferred.
    pub in_sync: bool,
    /// Digest ranges whose summary digests the responder found differing —
    /// the sub-trees the session descended into, however little of each
    /// turned out to differ.
    pub ranges_differing: usize,
    /// Units shipped in either direction: those the sender worked out from
    /// the peer's fingerprints that the peer lacks or holds differently, and
    /// those the peer asked for by id. On a clean link each is news to its
    /// receiver, so this is `units_added + units_replaced` plus the register
    /// updates and the losing halves of conflicts.
    pub units_sent: usize,
    pub units_added: usize,
    pub units_replaced: usize,
    pub units_kept: usize,
    /// Grade rows shipped in either direction.
    pub grade_rows_sent: usize,
    /// Frames that arrived with a broken seal and were discarded (what they
    /// carried or asked about retries on the next session).
    pub corrupt_frames: usize,
    /// Turns taken after the summary: at most [`MAX_TURNS`].
    pub turns: usize,
    pub frames_sent: u64,
    pub bytes_sent: u64,
}

impl SyncReport {
    fn tally(&mut self, effect: ApplyEffect) {
        match effect {
            ApplyEffect::Added => self.units_added += 1,
            ApplyEffect::Replaced => self.units_replaced += 1,
            ApplyEffect::Kept => self.units_kept += 1,
        }
    }
}

/// The most turns a session takes after its summary. A probe of a node is
/// answered one level down or not at all, so the responder's opening probes
/// of depth 0 are followed by at most eight more turns that describe nodes
/// (the digest tree is eight levels deep below a range), then one that can
/// only list wanted ids and one that can only ship them; unit frames are
/// never answered.
pub const MAX_TURNS: usize = index::MAX_DEPTH as usize + 3;

/// What one side says about one digest range in one turn.
#[derive(Debug)]
struct Reply {
    /// Ids of the units it ships.
    ship: BTreeSet<u64>,
    probe: Probe,
}

/// What one side says in one turn: a reply per digest range it has
/// something to say about, and whether it sends its grade rows.
#[derive(Debug, Default)]
struct Turn {
    ranges: BTreeMap<usize, Reply>,
    grades: bool,
}

impl Turn {
    fn is_empty(&self) -> bool {
        self.ranges.is_empty() && !self.grades
    }

    fn range(&mut self, r: usize) -> &mut Reply {
        self.ranges
            .entry(r)
            .or_insert_with(|| Reply { ship: BTreeSet::new(), probe: Probe::new(r) })
    }

    /// Put the turn on `link`: per range at most one unit frame, then at
    /// most one probe frame, so the units a probe's fingerprints already
    /// count on arrive ahead of it.
    fn send(
        self,
        rep: &Replica,
        link: &mut SyncLink,
        report: &mut SyncReport,
    ) -> ReplicaResult<()> {
        for (r, Reply { ship, probe }) in self.ranges {
            if !ship.is_empty() {
                let units = rep.units_of(ship)?;
                report.units_sent += units.len();
                link.send(frame::seal(wire::MSG_RANGE, &encode_range_msg(r, &units)))?;
            }
            if !probe.is_empty() {
                link.send(frame::seal(wire::MSG_PROBE, &probe.encode()))?;
            }
        }
        if self.grades {
            let rows = rep.grade_rows()?;
            report.grade_rows_sent += rows.len();
            link.send(frame::seal(wire::MSG_GRADES, &wire::encode_grade_rows(&rows)))?;
        }
        Ok(())
    }
}

/// Take everything `link` delivers to `rep` and work out `rep`'s next turn.
/// Unit frames are journaled-then-applied and never answered; a probe is
/// answered from the tree as it stands when the probe arrives; grade rows
/// are journaled-then-applied and answered with `rep`'s own only if those
/// still differ from what arrived. A repeated probe adds nothing to the
/// answer, and a frame with a broken seal is counted and otherwise ignored.
fn receive(rep: &mut Replica, link: &mut SyncLink, report: &mut SyncReport) -> ReplicaResult<Turn> {
    let mut turn = Turn::default();
    for msg in link.drain() {
        match frame::open(&msg) {
            Ok((wire::MSG_RANGE, payload)) => {
                let (_, units) = decode_range_msg(payload)?;
                rep.commit_received(payload, units, report)?;
            }
            Ok((wire::MSG_PROBE, payload)) => {
                let probe = Probe::decode(payload)?;
                let Reply { ship, probe: reply } = turn.range(probe.range);
                rep.answer(&probe, ship, reply)?;
            }
            Ok((wire::MSG_GRADES, payload)) => {
                let rows = wire::decode_grade_rows(payload)?;
                rep.journal_append(wire::AJ_GRADES, &wire::encode_grade_rows(&rows))?;
                rep.apply_grade_rows(&rows)?;
                turn.grades |= wire::grade_digest(&rows) != rep.grades_digest()?;
            }
            Ok(_) => {}
            Err(_) => report.corrupt_frames += 1,
        }
    }
    turn.ranges.retain(|_, reply| !reply.ship.is_empty() || !reply.probe.is_empty());
    Ok(turn)
}

/// Run one anti-entropy session between `initiator` and `responder` over
/// `link`.
///
/// The protocol is digest-first and ships the difference:
///
/// 1. the initiator sends its [`Summary`]: the digests of the 64 range
///    nodes of its digest tree, plus its grade digest;
/// 2. the responder diffs it against its own and answers with a single
///    in-sync frame, or opens the turns: per differing range a *probe*
///    saying what it holds there — the digests of the node's 16 children if
///    that is more than 16 units, their `(id, fingerprint)` list otherwise —
///    plus its grade rows if the grade digests differ;
/// 3. the sides then alternate. The receiver of a probe descends into the
///    children whose digests differ from its own and describes each the
///    same way, one level down; against a fingerprint list it ships exactly
///    its units the peer lacks or holds differently and lists the ids it
///    wants in return; and it ships what it was asked for. Each turn is at
///    most one unit frame and one probe frame per range;
/// 4. unit frames are journaled and applied — only the units that change
///    the store — and never answered, grade rows are answered only while the
///    receiver's rows still differ from what arrived, and the session ends
///    when a side has nothing left to say: after at most [`MAX_TURNS`]
///    turns, because every probe is answered one level further down.
///
/// Lost or corrupted frames shrink the session instead of wedging it: a
/// dropped summary is [`ReplicaError::SessionDropped`], a dropped or
/// corrupt unit or probe frame leaves its sub-tree divergent for the *next*
/// session (counted in [`SyncReport::corrupt_frames`]), a duplicated or
/// reordered one costs at most units the receiver already holds, and a
/// partition aborts with [`ReplicaError::Partitioned`]. Everything already
/// applied stays applied — re-merging is free by idempotence.
pub fn sync_once(
    initiator: &mut Replica,
    responder: &mut Replica,
    link: &mut SyncLink,
) -> ReplicaResult<SyncReport> {
    let mut report = SyncReport::default();
    let stats_before = link.stats();

    // 1. Initiator's summary crosses the link.
    let summary = initiator.summary()?;
    link.send(frame::seal(wire::MSG_SUMMARY, &summary.encode()))?;
    let mut received_summary = None;
    for msg in link.drain() {
        match frame::open(&msg) {
            Ok((wire::MSG_SUMMARY, payload)) => {
                received_summary = Some(Summary::decode(payload)?);
            }
            Ok(_) => {}
            Err(_) => report.corrupt_frames += 1,
        }
    }
    let Some(their_summary) = received_summary else {
        return Err(ReplicaError::SessionDropped);
    };

    // 2. Responder diffs, and says what it holds where the digests differ.
    let own_summary = responder.summary()?;
    let mut turn = Turn { grades: their_summary.grades != own_summary.grades, ..Turn::default() };
    for r in (0..NUM_RANGES).filter(|&r| their_summary.ranges[r] != own_summary.ranges[r]) {
        responder.describe(index::Node::range(r), &mut turn.range(r).probe)?;
    }
    report.ranges_differing = turn.ranges.len();
    report.in_sync = turn.is_empty();
    if report.in_sync {
        link.send(frame::seal(wire::MSG_IN_SYNC, &[]))?;
        link.drain();
    }

    // 3. and 4. The sides alternate until one has nothing left to say.
    let (mut speaker, mut listener) = (responder, initiator);
    while !turn.is_empty() {
        report.turns += 1;
        assert!(report.turns <= MAX_TURNS, "every probe is answered one level further down");
        turn.send(speaker, link, &mut report)?;
        turn = receive(listener, link, &mut report)?;
        std::mem::swap(&mut speaker, &mut listener);
    }

    let after = link.stats();
    report.frames_sent = after.frames_sent - stats_before.frames_sent;
    report.bytes_sent = after.bytes_sent - stats_before.bytes_sent;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Fabric

/// Fleet replication lag: the summed version-vector shortfall of every
/// replica against the componentwise fleet maximum.
///
/// Each replica's aggregate vector sums its [`FileUnit`] version vectors
/// componentwise; the fleet maximum is the componentwise max over those
/// aggregates; the lag is the total distance still to close. Converged
/// replicas hold byte-identical content, hence identical aggregates, hence
/// lag zero — the conservation law `replica-chaos` CI asserts.
pub fn replication_lag(replicas: &[Replica]) -> ReplicaResult<u64> {
    let mut aggregates: Vec<BTreeMap<StoreId, u64>> = Vec::with_capacity(replicas.len());
    for rep in replicas {
        let mut agg = BTreeMap::new();
        for unit in rep.units()? {
            for (store, count) in unit.vv.components() {
                *agg.entry(store).or_insert(0) += count;
            }
        }
        aggregates.push(agg);
    }
    let mut fleet_max: BTreeMap<StoreId, u64> = BTreeMap::new();
    for agg in &aggregates {
        for (&store, &count) in agg {
            let slot = fleet_max.entry(store).or_insert(0);
            *slot = (*slot).max(count);
        }
    }
    let mut lag = 0u64;
    for agg in &aggregates {
        for (&store, &max) in &fleet_max {
            lag += max - agg.get(&store).copied().unwrap_or(0);
        }
    }
    Ok(lag)
}

/// A set of replicas wired pairwise by faulty links, synced in rounds.
///
/// Attach a [`MetricsHub`] to record per-link wire metrics and fleet
/// replication lag, and [`SloKind::ReplicationLag`] rules to turn lag
/// ceilings into typed [`Alert`]s. An unadorned fabric skips all of it —
/// the instrumented paths are gated on the same `Option`/emptiness checks
/// the simulator uses, and recording never feeds back into sync decisions.
#[derive(Debug, Default)]
pub struct SyncFabric {
    links: Vec<(usize, usize, SyncLink)>,
    obs: Option<MetricsHub>,
    slo_rules: Vec<SloRule>,
    slo_states: Vec<SloState>,
    alerts: Vec<Alert>,
}

impl SyncFabric {
    pub fn new() -> Self {
        SyncFabric::default()
    }

    /// Wire replicas `a` and `b` (indices into the slice later passed to
    /// [`SyncFabric::round`]) with `link`.
    pub fn connect(&mut self, a: usize, b: usize, link: SyncLink) {
        assert!(a != b, "a replica cannot sync with itself");
        self.links.push((a, b, link));
    }

    /// Attach a metrics hub; every subsequent round records wire and lag
    /// metrics into it.
    pub fn with_metrics(mut self, hub: MetricsHub) -> Self {
        self.obs = Some(hub);
        self
    }

    /// Attach a replication-lag SLO rule, evaluated after every round.
    /// Other rule kinds watch flow state and are rejected here.
    pub fn with_slo(mut self, rule: SloRule) -> Self {
        assert!(
            matches!(rule.kind, SloKind::ReplicationLag { .. }),
            "SLO rule `{}` watches flow state; only replication-lag rules attach to a fabric",
            rule.name
        );
        self.slo_rules.push(rule);
        self.slo_states.push(SloState::default());
        self
    }

    /// Completed alert windows so far, plus an unresolved alert for every
    /// rule still firing.
    pub fn alerts(&self) -> Vec<Alert> {
        let mut out = self.alerts.clone();
        for (rule, state) in self.slo_rules.iter().zip(&self.slo_states) {
            out.extend(state.finish(&rule.name));
        }
        out
    }

    /// Per-link cumulative delivery stats, in connect order.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links.iter().map(|(_, _, l)| l.stats()).collect()
    }

    /// Advance every link's clock (consuming fault-timeline events).
    pub fn advance(&mut self, dt: SimDuration) {
        for (_, _, link) in &mut self.links {
            link.advance(dt);
        }
    }

    /// Run one session on every link. Partitioned or fully-dropped sessions
    /// yield `None` for that link (and partitioned links are advanced to
    /// their heal time so progress is guaranteed); every other error aborts.
    pub fn round(&mut self, replicas: &mut [Replica]) -> ReplicaResult<Vec<Option<SyncReport>>> {
        // Lag is sampled both before and after the sessions, so a fleet
        // that converges in its first round still records its initial
        // divergence (mirrors the simulator's evaluate-then-act order).
        self.observe_lag(replicas)?;
        let mut reports = Vec::with_capacity(self.links.len());
        for (i, (a, b, link)) in self.links.iter_mut().enumerate() {
            let [ra, rb] = replicas
                .get_disjoint_mut([*a, *b])
                .expect("a link joins two distinct replicas of the slice");
            match sync_once(ra, rb, link) {
                Ok(report) => {
                    if let Some(h) = &self.obs {
                        h.counter_add(&format!("repl_sessions_total{{link=\"{i}\"}}"), 1);
                        h.counter_add(
                            &format!("repl_units_sent{{link=\"{i}\"}}"),
                            report.units_sent as u64,
                        );
                        h.counter_add(
                            &format!("repl_frames_sent{{link=\"{i}\"}}"),
                            report.frames_sent,
                        );
                        h.counter_add(
                            &format!("repl_bytes_sent{{link=\"{i}\"}}"),
                            report.bytes_sent,
                        );
                        h.counter_add(
                            &format!("repl_corrupt_frames_total{{link=\"{i}\"}}"),
                            report.corrupt_frames as u64,
                        );
                        h.observe(
                            &format!("repl_ranges_differing{{link=\"{i}\"}}"),
                            report.ranges_differing as u64,
                        );
                    }
                    reports.push(Some(report));
                }
                Err(e @ ReplicaError::Partitioned { .. })
                | Err(e @ ReplicaError::SessionDropped) => {
                    if let Some(h) = &self.obs {
                        h.counter_add(&format!("repl_sessions_dropped_total{{link=\"{i}\"}}"), 1);
                        if let ReplicaError::Partitioned { heals_at } = e {
                            if let Some(wait) = heals_at.checked_sub(link.now()) {
                                h.observe(
                                    &format!("repl_partition_us{{link=\"{i}\"}}"),
                                    wait.as_micros(),
                                );
                            }
                        }
                    }
                    link.heal();
                    reports.push(None);
                }
                Err(e) => return Err(e),
            }
        }
        self.observe_lag(replicas)?;
        Ok(reports)
    }

    /// Post-round lag bookkeeping: the `repl_lag_weight` gauge, per-link
    /// delivery-fault gauges, and the lag SLO automata. Costs nothing on an
    /// uninstrumented fabric.
    fn observe_lag(&mut self, replicas: &[Replica]) -> ReplicaResult<()> {
        if self.obs.is_none() && self.slo_rules.is_empty() {
            return Ok(());
        }
        let lag = replication_lag(replicas)?;
        let now = self.links.iter().map(|(_, _, l)| l.now()).max().unwrap_or(SimTime::ZERO);
        if let Some(h) = &self.obs {
            h.gauge_set("repl_lag_weight", lag);
            for (i, (_, _, link)) in self.links.iter().enumerate() {
                let stats = link.stats();
                h.gauge_set(&format!("repl_frames_dropped{{link=\"{i}\"}}"), stats.frames_dropped);
                h.gauge_set(
                    &format!("repl_frames_corrupted{{link=\"{i}\"}}"),
                    stats.frames_corrupted,
                );
                h.gauge_set(
                    &format!("repl_frames_duplicated{{link=\"{i}\"}}"),
                    stats.frames_duplicated,
                );
            }
        }
        for (rule, state) in self.slo_rules.iter().zip(&mut self.slo_states) {
            let SloKind::ReplicationLag { max_weight } = rule.kind else { continue };
            self.alerts.extend(state.observe(&rule.name, now, lag, max_weight));
        }
        Ok(())
    }

    /// Whether every replica's sealed content is byte-identical.
    pub fn converged(replicas: &[Replica]) -> ReplicaResult<bool> {
        let Some(first) = replicas.first() else { return Ok(true) };
        // Unequal digests imply unequal bytes; equal digests prove nothing,
        // so the byte comparison below stays the definition.
        let digests = first.summary()?;
        for r in &replicas[1..] {
            let theirs = r.summary()?;
            if (theirs.ranges, theirs.grades) != (digests.ranges, digests.grades) {
                return Ok(false);
            }
        }
        let reference = first.sealed_content()?;
        for r in &replicas[1..] {
            if r.sealed_content()? != reference {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Run rounds until convergence, up to `max_rounds`. Returns the number
    /// of rounds taken; a fabric that fails to quiesce is a typed error —
    /// never silent divergence.
    pub fn settle(&mut self, replicas: &mut [Replica], max_rounds: usize) -> ReplicaResult<usize> {
        for round in 1..=max_rounds {
            self.round(replicas)?;
            if Self::converged(replicas)? {
                if let Some(h) = &self.obs {
                    h.gauge_set("repl_rounds_to_quiescence", round as u64);
                }
                return Ok(round);
            }
        }
        Err(ReplicaError::NoQuiescence { rounds: max_rounds })
    }
}
