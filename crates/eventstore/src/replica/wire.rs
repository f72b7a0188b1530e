//! Message and journal-entry kinds and payload layouts for the replication
//! layer, the unit codec among them. Every message and journal entry
//! travels as one sealed [`sciflow_core::frame`] frame: one flipped bit
//! anywhere (fault injection, bit rot, a torn tail) invalidates the whole
//! frame, never a silently different payload.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use sciflow_core::fnv::{fnv1a_update, FNV_OFFSET};
use sciflow_core::frame::{put_str, put_u16, put_u32, put_u64, put_u8, Reader};
use sciflow_core::md5::Digest;

use super::index::{Node, FANOUT, LEAF_UNITS, MAX_DEPTH};
use super::{
    range_of, tier_rank, FileUnit, QState, ReplicaError, ReplicaResult, StoreId, VersionVector,
    NUM_RANGES,
};
use crate::grade::{GradeEntry, RunRange};
use crate::store::rows::date_of_key;
use crate::store::{FileRecord, StoreTier};
use sciflow_core::version::CalDate;

// Anti-entropy message kinds.
pub(crate) const MSG_SUMMARY: u8 = 0x01;
pub(crate) const MSG_RANGE: u8 = 0x02;
pub(crate) const MSG_GRADES: u8 = 0x03;
pub(crate) const MSG_IN_SYNC: u8 = 0x04;
pub(crate) const MSG_PROBE: u8 = 0x05;

// Apply-journal entry kinds (disjoint from message kinds on purpose: a
// journal file fed to the message decoder, or vice versa, fails typed).
pub(crate) const AJ_UNIT: u8 = 0x11;
pub(crate) const AJ_QUAR: u8 = 0x12;
pub(crate) const AJ_GRADES: u8 = 0x13;

// --- version --------------------------------------------------------------

/// Append the version part of a unit: tier rank `u8`, origin `u16`, then
/// the vector's component count `u16` and its `(store u16, count u64)`
/// components in ascending store order. It follows the record on the wire
/// and in the journal, and is the whole of a file's `es_versions` row.
pub(crate) fn put_version(buf: &mut Vec<u8>, tier_rank: u8, origin: StoreId, vv: &VersionVector) {
    put_u8(buf, tier_rank);
    put_u16(buf, origin);
    put_u16(buf, vv.0.len() as u16);
    for (s, c) in vv.components() {
        put_u16(buf, s);
        put_u64(buf, c);
    }
}

/// [`put_version`] into a `Vec` of exactly its length.
pub(crate) fn version_bytes(tier_rank: u8, origin: StoreId, vv: &VersionVector) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vv.0.len().saturating_mul(10).saturating_add(5));
    put_version(&mut buf, tier_rank, origin, vv);
    buf
}

/// Read what [`put_version`] wrote, held to what it writes: a tier rank
/// of one of the three tiers and components in strictly ascending store
/// order.
pub(crate) fn read_version(r: &mut Reader<'_>) -> ReplicaResult<(u8, StoreId, VersionVector)> {
    let corrupt = |detail: String| Err(ReplicaError::CorruptMessage { detail });
    let (tier, origin, n) = (r.u8()?, r.u16()?, r.u16()?);
    if tier > tier_rank(StoreTier::Collaboration) {
        return corrupt(format!("unknown tier rank {tier}"));
    }
    let mut vv = VersionVector::new();
    for _ in 0..n {
        let (s, c) = (r.u16()?, r.u64()?);
        if vv.0.last_key_value().is_some_and(|(&prev, _)| prev >= s) {
            return corrupt(format!("version component of store {s} out of order"));
        }
        vv.0.insert(s, c);
    }
    Ok((tier, origin, vv))
}

// --- quarantine register ------------------------------------------------

pub(crate) fn put_qstate(buf: &mut Vec<u8>, q: &Option<QState>) {
    match q {
        None => put_u8(buf, 0),
        Some(q) => {
            put_u8(buf, 1);
            put_u64(buf, q.epoch);
            put_u8(buf, q.flagged as u8);
            put_str(buf, &q.reason);
        }
    }
}

pub(crate) fn read_qstate(r: &mut Reader<'_>) -> ReplicaResult<Option<QState>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(QState { epoch: r.u64()?, flagged: r.u8()? != 0, reason: r.str()? })),
        k => Err(ReplicaError::CorruptMessage { detail: format!("bad qstate tag {k}") }),
    }
}

// --- units ------------------------------------------------------------------

pub(crate) fn encode_record(buf: &mut Vec<u8>, r: &FileRecord) {
    put_u64(buf, r.id);
    put_u32(buf, r.runs.first);
    put_u32(buf, r.runs.last);
    put_str(buf, &r.kind);
    put_str(buf, &r.version);
    put_str(buf, &r.site);
    put_u32(buf, r.registered.as_key());
    put_str(buf, &r.location);
    put_hex(buf, &r.prov_digest);
}

/// What `put_str` of `digest.to_hex()` appends, without the `String`.
fn put_hex(buf: &mut Vec<u8>, digest: &Digest) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // Two digits a byte.
    const HEX_LEN: u32 = 2 * std::mem::size_of::<Digest>() as u32;
    put_u32(buf, HEX_LEN);
    for b in digest.0 {
        // A nibble is below 16, so both `get`s find their digit.
        let (hi, lo) = (HEX.get(usize::from(b / 16)), HEX.get(usize::from(b % 16)));
        if let (Some(&hi), Some(&lo)) = (hi, lo) {
            buf.extend_from_slice(&[hi, lo]);
        }
    }
}

fn decode_record(r: &mut Reader<'_>) -> ReplicaResult<FileRecord> {
    let id = r.u64()?;
    let first = r.u32()?;
    let last = r.u32()?;
    let kind = r.str()?;
    let version = r.str()?;
    let site = r.str()?;
    let date_key = r.u32()?;
    let location = r.str()?;
    // The digest's hex is parsed where it lies, not copied into a `String`.
    let hex_len = r.len32()?;
    let hex = r.take(hex_len)?;
    let registered = date_of_key(date_key).ok_or_else(|| ReplicaError::CorruptMessage {
        detail: format!("bad date key {date_key}"),
    })?;
    let prov_digest = std::str::from_utf8(hex)
        .ok()
        .and_then(Digest::from_hex)
        .ok_or_else(|| ReplicaError::CorruptMessage { detail: "bad digest hex".into() })?;
    if first > last {
        return Err(ReplicaError::CorruptMessage {
            detail: format!("inverted run range [{first}, {last}]"),
        });
    }
    Ok(FileRecord {
        id,
        runs: RunRange { first, last },
        kind,
        version,
        site,
        registered,
        location,
        prov_digest,
    })
}

/// Encode everything the total order looks at (record, tier, origin, vv) —
/// the quarantine register is deliberately excluded, because quarantining a
/// file must not change which revision wins.
pub(crate) fn encode_unit_core(buf: &mut Vec<u8>, u: &FileUnit) {
    encode_record(buf, &u.record);
    put_version(buf, u.tier_rank, u.origin, &u.vv);
}

/// Append the canonical bytes of a unit to `buf`: what travels, what is
/// journaled, and what the range digests and
/// [`super::Replica::sealed_content`] are computed over. The one unit encoder; it allocates nothing beyond
/// the growth of `buf`.
pub fn encode_unit_into(buf: &mut Vec<u8>, u: &FileUnit) {
    encode_unit_core(buf, u);
    put_qstate(buf, &u.quarantine);
}

/// [`encode_unit_into`] a fresh `Vec`.
pub fn encode_unit(u: &FileUnit) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_unit_into(&mut buf, u);
    buf
}

pub(crate) fn decode_unit(r: &mut Reader<'_>) -> ReplicaResult<FileUnit> {
    let record = decode_record(r)?;
    let (tier_rank, origin, vv) = read_version(r)?;
    let quarantine = read_qstate(r)?;
    Ok(FileUnit { record, tier_rank, origin, vv, quarantine })
}

// --- anti-entropy summary ----------------------------------------------

/// The opening message of a session: the digests of this replica's 64 range
/// nodes — each FNV-1a over the `(id, fingerprint)` pairs of the range's
/// units — plus one digest over its grade rows. 64 ranges keep the summary at
/// a fixed ~0.5 KiB regardless of how many files the store holds, so the cost
/// of discovering "nothing to do" is O(1) in the file count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub store: u16,
    pub ranges: [u64; NUM_RANGES],
    pub grades: u64,
}

impl Summary {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 + NUM_RANGES * 8 + 8);
        put_u16(&mut buf, self.store);
        for d in &self.ranges {
            put_u64(&mut buf, *d);
        }
        put_u64(&mut buf, self.grades);
        buf
    }

    pub(crate) fn decode(payload: &[u8]) -> ReplicaResult<Summary> {
        let mut r = Reader::new(payload);
        let store = r.u16()?;
        let mut ranges = [FNV_OFFSET; NUM_RANGES];
        for d in ranges.iter_mut() {
            *d = r.u64()?;
        }
        let grades = r.u64()?;
        r.done()?;
        Ok(Summary { store, ranges, grades })
    }
}

// --- range messages -------------------------------------------------------

/// Bytes of a range message ahead of its first unit.
const RANGE_HEADER: usize = 2 + 4;

/// A received unit and the span of the range message that encodes it.
pub(crate) type SpannedUnit = (FileUnit, Range<usize>);

/// A range message: range `u16`, count `u32`, then that many units of the
/// range in ascending id order — whichever of them the sender has worked out
/// the receiver is missing.
pub(crate) fn encode_range_msg(range: usize, units: &[FileUnit]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u16(&mut buf, range as u16);
    put_u32(&mut buf, units.len() as u32);
    for u in units {
        encode_unit_into(&mut buf, u);
    }
    buf
}

/// Decode a range message and hold it to what an honest sender produces:
/// every unit filed under its own range, ids strictly ascending (so one
/// resolution per file id stands for the whole frame), and bytes that are
/// exactly the encoding of what they decode to. Each unit comes with its
/// span of `payload`: those bytes are its canonical encoding, so the
/// receiver can journal and fingerprint them as they are.
pub(crate) fn decode_range_msg(payload: &[u8]) -> ReplicaResult<(usize, Vec<SpannedUnit>)> {
    let corrupt = |detail: String| Err(ReplicaError::CorruptMessage { detail });
    let mut r = Reader::new(payload);
    let range = r.u16()? as usize;
    if range >= NUM_RANGES {
        return corrupt(format!("range {range} out of bounds"));
    }
    let n = r.u32()? as usize;
    let mut units: Vec<SpannedUnit> = Vec::with_capacity(n.min(4096));
    let (mut canonical, mut at) = (Vec::new(), RANGE_HEADER);
    for _ in 0..n {
        let unit = decode_unit(&mut r)?;
        let id = unit.record.id;
        if range_of(id) != range {
            return corrupt(format!("file {id} does not belong to range {range}"));
        }
        if units.last().is_some_and(|(prev, _)| prev.record.id >= id) {
            return corrupt(format!("file {id} out of order in range {range}"));
        }
        // The unit was decoded from the bytes at `at`. If its encoding is
        // what sits there, decoding read exactly those bytes (the decoder
        // reads an encoding back whole), so the next unit starts after it.
        canonical.clear();
        encode_unit_into(&mut canonical, &unit);
        // A span past the end saturates and is refused like any mismatch.
        let span = at..at.saturating_add(canonical.len());
        if payload.get(span.clone()) != Some(&canonical[..]) {
            return corrupt(format!("range {range} is not canonically encoded"));
        }
        at = span.end;
        units.push((unit, span));
    }
    r.done()?;
    Ok((range, units))
}

// --- probes -----------------------------------------------------------------

/// What one side says about one digest range in one turn of a session, short
/// of shipping units: the nodes it describes by their child digests, the
/// nodes it describes by `(id, fingerprint)` list, and the ids it wants.
///
/// ```text
/// range u16
/// count u32, then per split:  depth u8, prefix u64, 16 × digest u64
/// count u32, then per list:   depth u8, prefix u64, count u32, (id u64, fingerprint u64)*
/// count u32, then per wanted: id u64
/// ```
///
/// Entries travel in ascending order (nodes by depth then prefix, ids by
/// value), which the maps give the encoder and the decoder insists on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Probe {
    pub range: usize,
    pub splits: BTreeMap<Node, [u64; FANOUT]>,
    pub prints: BTreeMap<Node, Vec<(u64, u64)>>,
    pub wants: BTreeSet<u64>,
}

impl Probe {
    pub(crate) fn new(range: usize) -> Probe {
        Probe { range, splits: BTreeMap::new(), prints: BTreeMap::new(), wants: BTreeSet::new() }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.splits.is_empty() && self.prints.is_empty() && self.wants.is_empty()
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let put_node = |buf: &mut Vec<u8>, node: &Node| {
            put_u8(buf, node.depth());
            put_u64(buf, node.prefix());
        };
        let mut buf = Vec::new();
        put_u16(&mut buf, self.range as u16);
        put_u32(&mut buf, self.splits.len() as u32);
        for (node, digests) in &self.splits {
            put_node(&mut buf, node);
            digests.iter().for_each(|d| put_u64(&mut buf, *d));
        }
        put_u32(&mut buf, self.prints.len() as u32);
        for (node, pairs) in &self.prints {
            put_node(&mut buf, node);
            put_u32(&mut buf, pairs.len() as u32);
            for &(id, print) in pairs {
                put_u64(&mut buf, id);
                put_u64(&mut buf, print);
            }
        }
        put_u32(&mut buf, self.wants.len() as u32);
        self.wants.iter().for_each(|id| put_u64(&mut buf, *id));
        buf
    }

    /// Decode a probe and hold it to what an honest sender produces: every
    /// node a node of the tree and of this range, no split where the tree
    /// ends and no list longer than a leaf above it, every listed id beneath
    /// its node and every wanted id in the range, everything strictly
    /// ascending. Counts are bounded by the bytes that remain before they
    /// drive a loop.
    pub(crate) fn decode(payload: &[u8]) -> ReplicaResult<Probe> {
        fn corrupt<T>(detail: String) -> ReplicaResult<T> {
            Err(ReplicaError::CorruptMessage { detail })
        }
        let mut r = Reader::new(payload);
        let range = r.u16()? as usize;
        if range >= NUM_RANGES {
            return corrupt(format!("range {range} out of bounds"));
        }
        let read_node = |r: &mut Reader<'_>, last: Option<&Node>| -> ReplicaResult<Node> {
            let (depth, prefix) = (r.u8()?, r.u64()?);
            let Some(node) = Node::checked(depth, prefix) else {
                return corrupt(format!("no node of depth {depth} has prefix {prefix:#x}"));
            };
            if node.range_of() != range {
                return corrupt(format!("node {prefix:#x} does not belong to range {range}"));
            }
            if last.is_some_and(|last| *last >= node) {
                return corrupt(format!("node {prefix:#x} out of order in range {range}"));
            }
            Ok(node)
        };
        let mut probe = Probe::new(range);
        for _ in 0..r.len32()? {
            let node = read_node(&mut r, probe.splits.keys().next_back())?;
            if node.depth() == MAX_DEPTH {
                return corrupt(format!("split of a node at the maximum depth {MAX_DEPTH}"));
            }
            let mut digests = [FNV_OFFSET; FANOUT];
            for d in digests.iter_mut() {
                *d = r.u64()?;
            }
            probe.splits.insert(node, digests);
        }
        for _ in 0..r.len32()? {
            let node = read_node(&mut r, probe.prints.keys().next_back())?;
            let n = r.len32()?;
            if n > LEAF_UNITS && node.depth() < MAX_DEPTH {
                return corrupt(format!("a list of {n} units where a node splits"));
            }
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            for _ in 0..n {
                let (id, print) = (r.u64()?, r.u64()?);
                if !node.holds(id) {
                    return corrupt(format!("file {id} does not belong to its node"));
                }
                if pairs.last().is_some_and(|&(prev, _)| prev >= id) {
                    return corrupt(format!("file {id} out of order in its node"));
                }
                pairs.push((id, print));
            }
            probe.prints.insert(node, pairs);
        }
        for _ in 0..r.len32()? {
            let id = r.u64()?;
            if range_of(id) != range {
                return corrupt(format!("wanted file {id} does not belong to range {range}"));
            }
            if probe.wants.last().is_some_and(|&prev| prev >= id) {
                return corrupt(format!("wanted file {id} out of order"));
            }
            probe.wants.insert(id);
        }
        r.done()?;
        Ok(probe)
    }
}

// --- grade rows ---------------------------------------------------------

/// The canonical, replication-visible content of one grade-entry row:
/// everything except the per-store `rowid` and `seq` columns, which are
/// local bookkeeping. Ordered derive gives the canonical sort used for
/// digests, snapshots and union-normalisation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GradeRow {
    pub grade: String,
    /// `CalDate::as_key` encoding (yyyymmdd).
    pub date: u32,
    pub first: u32,
    pub last: u32,
    pub kind: String,
    pub version: String,
}

impl GradeRow {
    /// The row of `entry` in the snapshot of `grade` declared on `date`.
    pub(crate) fn of(grade: &str, date: CalDate, entry: GradeEntry) -> GradeRow {
        let GradeEntry { runs, kind, version } = entry;
        let (first, last) = (runs.first, runs.last);
        GradeRow { grade: grade.to_string(), date: date.as_key(), first, last, kind, version }
    }

    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, &self.grade);
        put_u32(buf, self.date);
        put_u32(buf, self.first);
        put_u32(buf, self.last);
        put_str(buf, &self.kind);
        put_str(buf, &self.version);
    }

    /// Read what [`GradeRow::encode`] wrote, held to a date key that names
    /// a date: a store keeps no snapshot of a day that does not exist.
    pub(crate) fn decode(r: &mut Reader<'_>) -> ReplicaResult<GradeRow> {
        let (grade, date) = (r.str()?, r.u32()?);
        if date_of_key(date).is_none() {
            let detail = format!("grade `{grade}` has bad date key {date}");
            return Err(ReplicaError::CorruptMessage { detail });
        }
        Ok(GradeRow {
            grade,
            date,
            first: r.u32()?,
            last: r.u32()?,
            kind: r.str()?,
            version: r.str()?,
        })
    }
}

pub(crate) fn encode_grade_rows(rows: &[GradeRow]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, rows.len() as u32);
    for row in rows {
        row.encode(&mut buf);
    }
    buf
}

pub(crate) fn decode_grade_rows(payload: &[u8]) -> ReplicaResult<Vec<GradeRow>> {
    let mut r = Reader::new(payload);
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        rows.push(GradeRow::decode(&mut r)?);
    }
    r.done()?;
    Ok(rows)
}

/// Digest over the canonical sorted grade rows (order-insensitive because
/// the rows are sorted first).
pub(crate) fn grade_digest(rows: &[GradeRow]) -> u64 {
    let mut sorted: Vec<&GradeRow> = rows.iter().collect();
    sorted.sort();
    let mut h = FNV_OFFSET;
    let mut buf = Vec::new();
    for row in sorted {
        buf.clear();
        row.encode(&mut buf);
        h = fnv1a_update(h, &buf);
    }
    h
}
