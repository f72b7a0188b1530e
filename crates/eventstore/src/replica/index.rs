//! The range index and the digest tree over it: which file ids each digest
//! range holds, the fingerprint of each file's unit once it is known, and
//! the digest of any node of the tree, the 64 [`Summary`] ranges included.
//!
//! A file's *fingerprint* is the FNV-1a of its canonical unit encoding. The
//! digest of a *node* is FNV-1a over the `(id, fingerprint)` pairs beneath
//! it, in ascending id order. A node is addressed by the low bits of the
//! FNV-1a of the file id: the lowest six pick the range (a node of depth 0),
//! each further [`FANOUT`]-way level takes the next four, down to
//! [`MAX_DEPTH`].
//!
//! Built by one scan of `es_files` when a replica is constructed, then kept
//! current at the only places replicated state changes: `write_unit` (a new
//! or replaced record), a quarantine register that actually moved, and a
//! grade snapshot that actually changed. Each forgets one fingerprint and
//! one range digest; a fingerprint is learnt again on first read, or at once
//! from the frame bytes `commit_received` journals. Everything that
//! reads a range — the summary, a probe, the full unit walk — goes through
//! here, so after one unit changed a range's digest costs one unit encode
//! and a fold over the range's cached fingerprints, and a summary over
//! unchanged ranges hashes nothing.

use std::cell::Cell;
use std::collections::BTreeSet;

use sciflow_core::fnv::{fnv1a, fnv1a_update, FNV_OFFSET};

use super::wire::Probe;
use super::{encode_unit_into, wire, FileUnit, Replica, ReplicaResult, Summary, NUM_RANGES};
use crate::error::EsError;
use crate::store::EventStore;

/// Children per node of the digest tree.
pub(crate) const FANOUT: usize = 16;
/// A node holding more units than this is described by its child digests,
/// one holding this many or fewer by its `(id, fingerprint)` list. At 16
/// bytes a pair, the longest list (256 bytes) is twice the 128 bytes of
/// digests that would replace it and saves the turn that descends into
/// them; a larger leaf lengthens the last probe of every descent, a smaller
/// one adds a turn to it. Chosen for traffic on large ranges, not for the
/// benchmark, whose ~32-unit ranges time alike at 4, 16 and 64 and put the
/// fewest bytes on the wire at 16 (EXPERIMENTS.md "RECONCILE").
pub(crate) const LEAF_UNITS: usize = 16;
/// Levels below a range. A node this deep is always a list: 16⁸ leaves per
/// range is more than the ids a range will hold.
pub(crate) const MAX_DEPTH: u8 = 8;

const RANGE_BITS: u32 = NUM_RANGES.trailing_zeros();
const CHILD_BITS: u32 = FANOUT.trailing_zeros();
const _: () = assert!(NUM_RANGES.is_power_of_two() && FANOUT.is_power_of_two());

/// The hash whose low bits place file `id` in the tree.
fn place(id: u64) -> u64 {
    fnv1a(&id.to_le_bytes())
}

/// Which digest range a file id belongs to.
pub fn range_of(id: u64) -> usize {
    (place(id) % NUM_RANGES as u64) as usize
}

/// A node of the digest tree: the ids whose [`place`] ends in the
/// `RANGE_BITS + CHILD_BITS × depth` bits of `prefix`. Ordered by depth,
/// then prefix — the order probe entries travel in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Node {
    depth: u8,
    prefix: u64,
}

impl Node {
    /// Digest range `r` itself, the root of its sub-tree.
    pub(crate) fn range(r: usize) -> Node {
        Node { depth: 0, prefix: r as u64 }
    }

    /// The node a peer named, if it is one: no deeper than [`MAX_DEPTH`]
    /// and no prefix bit above its mask.
    pub(crate) fn checked(depth: u8, prefix: u64) -> Option<Node> {
        let node = Node { depth, prefix };
        (depth <= MAX_DEPTH && prefix & !node.mask() == 0).then_some(node)
    }

    pub(crate) fn depth(self) -> u8 {
        self.depth
    }

    pub(crate) fn prefix(self) -> u64 {
        self.prefix
    }

    /// The digest range this node lies under.
    pub(crate) fn range_of(self) -> usize {
        (self.prefix % NUM_RANGES as u64) as usize
    }

    fn bits(self) -> u32 {
        RANGE_BITS + CHILD_BITS * u32::from(self.depth)
    }

    fn mask(self) -> u64 {
        (1 << self.bits()) - 1
    }

    pub(crate) fn holds(self, id: u64) -> bool {
        place(id) & self.mask() == self.prefix
    }

    /// Child `c` of this node (which must be above [`MAX_DEPTH`]).
    pub(crate) fn child(self, c: usize) -> Node {
        debug_assert!(self.depth < MAX_DEPTH && c < FANOUT);
        Node { depth: self.depth + 1, prefix: self.prefix | (c as u64) << self.bits() }
    }

    /// Say in `probe` what a replica holding `pairs` beneath this node —
    /// `(id, fingerprint)`, ascending by id — holds there: the digests of
    /// the node's children if that is more than [`LEAF_UNITS`] units and
    /// the node can split, the list itself otherwise.
    fn describe(self, pairs: Vec<(u64, u64)>, probe: &mut Probe) {
        if pairs.len() > LEAF_UNITS && self.depth < MAX_DEPTH {
            probe.splits.insert(self, self.child_digests(&pairs));
        } else {
            probe.prints.insert(self, pairs);
        }
    }

    /// The digests of this node's children, given the `(id, fingerprint)`
    /// pairs beneath it in ascending id order.
    fn child_digests(self, pairs: &[(u64, u64)]) -> [u64; FANOUT] {
        let mut digests = [FNV_OFFSET; FANOUT];
        for &(id, print) in pairs {
            let child = &mut digests[(place(id) >> self.bits()) as usize % FANOUT];
            *child = fold_pair(*child, id, print);
        }
        digests
    }
}

/// One `(id, fingerprint)` pair folded into a node digest.
fn fold_pair(digest: u64, id: u64, print: u64) -> u64 {
    fnv1a_update(fnv1a_update(digest, &id.to_le_bytes()), &print.to_le_bytes())
}

#[derive(Debug)]
struct Entry {
    id: u64,
    /// FNV-1a of the unit's canonical encoding; `None` after the unit
    /// changed, until it is next read.
    print: Cell<Option<u64>>,
}

#[derive(Debug)]
pub(super) struct RangeIndex {
    /// The files of each digest range, ascending by id.
    entries: [Vec<Entry>; NUM_RANGES],
    /// Digest per range; `None` after a unit of the range changed.
    digests: [Cell<Option<u64>>; NUM_RANGES],
    /// Digest over the grade rows; `None` after a snapshot changed.
    grades: Cell<Option<u64>>,
}

impl RangeIndex {
    pub(super) fn build(store: &EventStore) -> Result<RangeIndex, EsError> {
        let mut entries: [Vec<Entry>; NUM_RANGES] = std::array::from_fn(|_| Vec::new());
        for file in store.file_views()? {
            let id = file?.id;
            entries[range_of(id)].push(Entry { id, print: Cell::new(None) });
        }
        entries.iter_mut().for_each(|range| range.sort_unstable_by_key(|e| e.id));
        let digests = std::array::from_fn(|_| Cell::new(None));
        Ok(RangeIndex { entries, digests, grades: Cell::new(None) })
    }

    fn entry(&self, id: u64) -> Option<&Entry> {
        let range = &self.entries[range_of(id)];
        range.binary_search_by_key(&id, |e| e.id).ok().map(|at| &range[at])
    }

    /// File `id` is new to the store.
    pub(super) fn insert(&mut self, id: u64) {
        let r = range_of(id);
        if let Err(at) = self.entries[r].binary_search_by_key(&id, |e| e.id) {
            self.entries[r].insert(at, Entry { id, print: Cell::new(None) });
        }
        self.digests[r].set(None);
    }

    /// The unit of file `id` (record, version or quarantine register) changed.
    pub(super) fn unit_changed(&mut self, id: u64) {
        if let Some(entry) = self.entry(id) {
            entry.print.set(None);
        }
        self.digests[range_of(id)].set(None);
    }

    pub(super) fn grades_changed(&mut self) {
        self.grades.set(None);
    }

    /// The unit now resident for file `id` encodes to bytes whose FNV-1a
    /// is `print`.
    pub(super) fn unit_reads(&self, id: u64, print: u64) {
        if let Some(entry) = self.entry(id) {
            entry.print.set(Some(print));
        }
    }

    pub(super) fn holds(&self, id: u64) -> bool {
        self.entry(id).is_some()
    }

    /// Every file id, ascending.
    pub(super) fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.entries.iter().flatten().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }

    /// The files beneath `node`, ascending by id.
    fn under(&self, node: Node) -> impl Iterator<Item = &Entry> {
        self.entries[node.range_of()].iter().filter(move |e| node.depth == 0 || node.holds(e.id))
    }
}

impl Replica {
    pub(super) fn indexed_unit(&self, id: u64) -> ReplicaResult<FileUnit> {
        Ok(self.unit(id)?.expect("an indexed file is registered"))
    }

    /// All units, ascending by file id.
    pub fn units(&self) -> ReplicaResult<Vec<FileUnit>> {
        self.units_of(self.index.ids())
    }

    /// Units belonging to digest range `r`, ascending by id.
    pub fn units_in_range(&self, r: usize) -> ReplicaResult<Vec<FileUnit>> {
        let entries = self.index.entries.get(r).map_or(&[][..], Vec::as_slice);
        entries.iter().map(|e| self.indexed_unit(e.id)).collect()
    }

    /// The units of `ids`, in that order; every id must be indexed.
    pub(super) fn units_of(
        &self,
        ids: impl IntoIterator<Item = u64>,
    ) -> ReplicaResult<Vec<FileUnit>> {
        ids.into_iter().map(|id| self.indexed_unit(id)).collect()
    }

    /// The `(id, fingerprint)` pairs beneath `node`, ascending by id,
    /// encoding only the units whose fingerprint was forgotten, each into
    /// the same buffer.
    fn prints_under(&self, node: Node) -> ReplicaResult<Vec<(u64, u64)>> {
        let (mut pairs, mut bytes) = (Vec::new(), Vec::new());
        for entry in self.index.under(node) {
            let print = match entry.print.get() {
                Some(print) => print,
                None => {
                    bytes.clear();
                    encode_unit_into(&mut bytes, &self.indexed_unit(entry.id)?);
                    let print = fnv1a(&bytes);
                    entry.print.set(Some(print));
                    print
                }
            };
            pairs.push((entry.id, print));
        }
        Ok(pairs)
    }

    /// The digests of the 16 children of a node of the digest tree: the
    /// node reached from digest range `range` by taking child `path[0]`,
    /// then child `path[1]` of that, and so on, at most seven steps down. A
    /// node's digest is FNV-1a over the `(id, fingerprint)` pairs beneath
    /// it, each as two little-endian `u64`s, in ascending id order; a
    /// child holding nothing reads as the FNV-1a offset basis.
    pub fn child_digests(&self, range: usize, path: &[usize]) -> ReplicaResult<[u64; FANOUT]> {
        let in_tree = path.len() < MAX_DEPTH as usize && path.iter().all(|&c| c < FANOUT);
        assert!(range < NUM_RANGES && in_tree, "no node at {path:?} under range {range}");
        let node = path.iter().fold(Node::range(range), |node, &c| node.child(c));
        Ok(node.child_digests(&self.prints_under(node)?))
    }

    /// Say in `probe` what this replica holds beneath `node`.
    pub(super) fn describe(&self, node: Node, probe: &mut Probe) -> ReplicaResult<()> {
        node.describe(self.prints_under(node)?, probe);
        Ok(())
    }

    /// Answer a peer's probe of one range. Into `ship` go the ids of the
    /// units the peer's fingerprints lack or contradict and those it asked
    /// for; into `reply` what to say back: one level down where child
    /// digests differ, and the ids wanted in return.
    pub(super) fn answer(
        &self,
        probe: &Probe,
        ship: &mut BTreeSet<u64>,
        reply: &mut Probe,
    ) -> ReplicaResult<()> {
        for (&node, theirs) in &probe.splits {
            let pairs = self.prints_under(node)?;
            let mine = node.child_digests(&pairs);
            for c in (0..FANOUT).filter(|&c| mine[c] != theirs[c]) {
                let child = node.child(c);
                let beneath = pairs.iter().copied().filter(|&(id, _)| child.holds(id));
                if theirs[c] == FNV_OFFSET {
                    // The peer holds nothing there: all of it is news.
                    ship.extend(beneath.map(|(id, _)| id));
                } else {
                    child.describe(beneath.collect(), reply);
                }
            }
        }
        for (&node, theirs) in &probe.prints {
            let mine = self.prints_under(node)?;
            for &(id, print) in &mine {
                match theirs.binary_search_by_key(&id, |&(id, _)| id) {
                    Ok(at) if theirs[at].1 == print => {}
                    // Two revisions or two registers of one file: both
                    // cross, and `max` settles it on each side.
                    Ok(_) => {
                        ship.insert(id);
                        reply.wants.insert(id);
                    }
                    Err(_) => {
                        ship.insert(id);
                    }
                }
            }
            let news = theirs.iter().map(|&(id, _)| id).filter(|&id| !self.index.holds(id));
            reply.wants.extend(news);
        }
        ship.extend(probe.wants.iter().copied().filter(|&id| self.index.holds(id)));
        Ok(())
    }

    /// The anti-entropy opening summary: the digests of the 64 range nodes
    /// plus one digest over the grade rows. Folds only the ranges a unit
    /// changed in since it was last read.
    pub fn summary(&self) -> ReplicaResult<Summary> {
        let mut ranges = [FNV_OFFSET; NUM_RANGES];
        for (r, digest) in ranges.iter_mut().enumerate() {
            *digest = match self.index.digests[r].get() {
                Some(digest) => digest,
                None => {
                    let pairs = self.prints_under(Node::range(r))?;
                    let digest =
                        pairs.iter().fold(FNV_OFFSET, |h, &(id, print)| fold_pair(h, id, print));
                    self.index.digests[r].set(Some(digest));
                    digest
                }
            };
        }
        Ok(Summary { store: self.id, ranges, grades: self.grades_digest()? })
    }

    /// The digest over the grade rows, hashed only after a snapshot changed.
    pub(super) fn grades_digest(&self) -> ReplicaResult<u64> {
        if self.index.grades.get().is_none() {
            self.index.grades.set(Some(wire::grade_digest(&self.grade_rows()?)));
        }
        Ok(self.index.grades.get().expect("set just above"))
    }
}
