//! The range index: which file ids each digest range holds, and the digests
//! a [`Summary`] is made of once they are known.
//!
//! Built by one scan of `es_files` when a replica is constructed, then kept
//! current at the only places replicated state changes: `write_unit` (a new
//! or replaced record), a quarantine register that actually moved, and a
//! grade snapshot that actually changed. Everything that reads a range —
//! the summary, a range message, the full unit walk — goes through here, so
//! answering costs what the range holds, and a summary over unchanged
//! ranges hashes nothing.

use std::cell::Cell;

use sciflow_core::fnv::{fnv1a, FNV_OFFSET};

use super::{
    encode_range_msg, range_of, wire, FileUnit, Replica, ReplicaResult, Summary, FILES, NUM_RANGES,
    RANGE_HEAD,
};
use crate::error::EsError;
use crate::store::EventStore;

#[derive(Debug)]
pub(super) struct RangeIndex {
    /// File ids per digest range, ascending.
    ids: [Vec<u64>; NUM_RANGES],
    /// Digest per range; `None` after a unit of the range changed.
    digests: [Cell<Option<u64>>; NUM_RANGES],
    /// Digest over the grade rows; `None` after a snapshot changed.
    grades: Cell<Option<u64>>,
}

impl RangeIndex {
    pub(super) fn build(store: &EventStore) -> Result<RangeIndex, EsError> {
        let mut ids: [Vec<u64>; NUM_RANGES] = std::array::from_fn(|_| Vec::new());
        for (_, row) in store.database().table(FILES)?.scan() {
            let id = row[0].as_int().expect("id is int") as u64;
            ids[range_of(id)].push(id);
        }
        ids.iter_mut().for_each(|range| range.sort_unstable());
        let digests = std::array::from_fn(|_| Cell::new(None));
        Ok(RangeIndex { ids, digests, grades: Cell::new(None) })
    }

    /// File `id` is new to the store.
    pub(super) fn insert(&mut self, id: u64) {
        let r = range_of(id);
        if let Err(at) = self.ids[r].binary_search(&id) {
            self.ids[r].insert(at, id);
        }
        self.digests[r].set(None);
    }

    /// The unit of file `id` (record, version or quarantine register) changed.
    pub(super) fn unit_changed(&mut self, id: u64) {
        self.digests[range_of(id)].set(None);
    }

    pub(super) fn grades_changed(&mut self) {
        self.grades.set(None);
    }

    /// Range `r` now reads as `units` units whose encodings hash to
    /// `digest` — provided it holds no file beyond those.
    pub(super) fn range_reads(&self, r: usize, units: usize, digest: u64) {
        if self.ids[r].len() == units {
            self.digests[r].set(Some(digest));
        }
    }
}

impl Replica {
    fn indexed_unit(&self, id: u64) -> ReplicaResult<FileUnit> {
        Ok(self.unit(id)?.expect("an indexed file is registered"))
    }

    /// All units, ascending by file id.
    pub fn units(&self) -> ReplicaResult<Vec<FileUnit>> {
        let mut ids: Vec<u64> = self.index.ids.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| self.indexed_unit(id)).collect()
    }

    /// Units belonging to digest range `r`, ascending by id.
    pub fn units_in_range(&self, r: usize) -> ReplicaResult<Vec<FileUnit>> {
        let ids = self.index.ids.get(r).map_or(&[][..], Vec::as_slice);
        ids.iter().map(|&id| self.indexed_unit(id)).collect()
    }

    /// The payload of the message that ships range `r`, and how many units
    /// it carries. Building it leaves the range's digest cached.
    pub(super) fn range_msg(&self, r: usize) -> ReplicaResult<(usize, Vec<u8>)> {
        let units = self.units_in_range(r)?;
        let payload = encode_range_msg(r, &units);
        self.index.range_reads(r, units.len(), fnv1a(&payload[RANGE_HEAD..]));
        Ok((units.len(), payload))
    }

    /// The anti-entropy opening summary: 64 per-range digests over the
    /// canonical unit encodings plus one digest over the grade rows.
    /// Hashes only what changed since it was last read.
    pub fn summary(&self) -> ReplicaResult<Summary> {
        let mut ranges = [FNV_OFFSET; NUM_RANGES];
        for (r, digest) in ranges.iter_mut().enumerate() {
            if self.index.digests[r].get().is_none() {
                self.range_msg(r)?;
            }
            *digest = self.index.digests[r].get().expect("range_msg caches the digest");
        }
        if self.index.grades.get().is_none() {
            self.index.grades.set(Some(wire::grade_digest(&self.grade_rows()?)));
        }
        let grades = self.index.grades.get().expect("set just above");
        Ok(Summary { store: self.id, ranges, grades })
    }
}
