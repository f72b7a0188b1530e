//! Hot/warm/cold partitioning of event data.
//!
//! "CLEO data are partitioned into hot, warm and cold storage units. This is
//! a column-wise split of the event into groups of ASUs, based on usage
//! patterns. The hot data are those components of an event most frequently
//! accessed during physics analysis. These ASUs are typically small compared
//! with the less frequently accessed ASUs."
//!
//! [`PartitionedStore`] lays a run out column-wise by tier and accounts for
//! bytes read per access pattern; [`RowStore`] is the row-oriented baseline
//! that must read whole events. Experiment E5 compares the two.

use std::collections::BTreeMap;

use crate::asu::{AsuKind, EventAsus};

/// Storage tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    Hot,
    Warm,
    Cold,
}

/// The default CLEO-style tier assignment: small frequently-used summaries
/// hot; per-track physics objects warm; the bulky hit bank cold.
pub fn default_tiering(kind: AsuKind) -> Tier {
    match kind {
        AsuKind::TriggerBits
        | AsuKind::SkimFlags
        | AsuKind::QualityFlags
        | AsuKind::EventShape
        | AsuKind::LuminosityWeight
        | AsuKind::TrackList => Tier::Hot,
        AsuKind::TrackFit
        | AsuKind::ParticleId
        | AsuKind::EnergyClusters
        | AsuKind::VertexInfo
        | AsuKind::BeamSpot
        | AsuKind::MomentumScale
        | AsuKind::DeDxCalib => Tier::Warm,
        AsuKind::HitBank => Tier::Cold,
    }
}

/// Byte-level read accounting shared by both layouts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    pub bytes_read: u64,
    pub events_touched: u64,
}

/// Row-oriented baseline: each event is one contiguous record, so touching
/// any ASU reads the whole event.
#[derive(Debug, Default)]
pub struct RowStore {
    events: Vec<EventAsus>,
    pub stats: ReadStats,
}

impl RowStore {
    pub fn load(events: Vec<EventAsus>) -> Self {
        RowStore { events, stats: ReadStats::default() }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn total_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.total_bytes()).sum()
    }

    /// Read `kinds` of event `idx` — costs the whole event record.
    pub fn read(&mut self, idx: usize, _kinds: &[AsuKind]) -> &EventAsus {
        self.stats.bytes_read += self.events[idx].total_bytes();
        self.stats.events_touched += 1;
        &self.events[idx]
    }
}

/// Column-wise tiered layout: per tier, ASUs of all events are stored
/// together, so a scan touching only hot kinds reads only hot bytes.
#[derive(Debug)]
pub struct PartitionedStore {
    events: Vec<EventAsus>,
    tiering: fn(AsuKind) -> Tier,
    pub stats: ReadStats,
}

impl PartitionedStore {
    pub fn load(events: Vec<EventAsus>, tiering: fn(AsuKind) -> Tier) -> Self {
        PartitionedStore { events, tiering, stats: ReadStats::default() }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Bytes resident in each tier.
    pub fn tier_bytes(&self) -> BTreeMap<Tier, u64> {
        let mut map = BTreeMap::new();
        for e in &self.events {
            for a in &e.asus {
                *map.entry((self.tiering)(a.kind)).or_insert(0u64) += a.bytes;
            }
        }
        map
    }

    /// Read `kinds` of event `idx` — costs only the requested ASUs' bytes
    /// (plus nothing else: the column layout makes them contiguous).
    pub fn read(&mut self, idx: usize, kinds: &[AsuKind]) -> &EventAsus {
        self.stats.bytes_read += self.events[idx].bytes_of(kinds);
        self.stats.events_touched += 1;
        &self.events[idx]
    }
}

/// The hot kinds most analysis selections touch.
pub fn hot_kinds() -> Vec<AsuKind> {
    AsuKind::ALL.iter().copied().filter(|&k| default_tiering(k) == Tier::Hot).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asu::Asu;

    fn event(id: u64, hit_bank: u64) -> EventAsus {
        let mut asus: Vec<Asu> = AsuKind::ALL
            .iter()
            .map(|&kind| Asu {
                kind,
                bytes: match default_tiering(kind) {
                    Tier::Hot => 16,
                    Tier::Warm => 64,
                    Tier::Cold => hit_bank,
                },
            })
            .collect();
        asus.sort_by_key(|a| a.kind);
        EventAsus { event_id: id, asus }
    }

    fn load_both(n: usize) -> (RowStore, PartitionedStore) {
        let events: Vec<EventAsus> = (0..n as u64).map(|i| event(i, 2048)).collect();
        (RowStore::load(events.clone()), PartitionedStore::load(events, default_tiering))
    }

    #[test]
    fn hot_scan_reads_far_fewer_bytes_partitioned() {
        let (mut row, mut col) = load_both(100);
        let hot = hot_kinds();
        for i in 0..100 {
            row.read(i, &hot);
            col.read(i, &hot);
        }
        assert_eq!(row.stats.events_touched, 100);
        assert_eq!(col.stats.events_touched, 100);
        let speedup = row.stats.bytes_read as f64 / col.stats.bytes_read as f64;
        assert!(speedup > 10.0, "partitioning speedup {speedup}");
    }

    #[test]
    fn full_event_read_costs_the_same_in_both() {
        let (mut row, mut col) = load_both(1);
        let all: Vec<AsuKind> = AsuKind::ALL.to_vec();
        row.read(0, &all);
        col.read(0, &all);
        assert_eq!(row.stats.bytes_read, col.stats.bytes_read);
    }

    #[test]
    fn hot_tier_is_small() {
        let (_, col) = load_both(50);
        let tiers = col.tier_bytes();
        let hot = tiers[&Tier::Hot];
        let cold = tiers[&Tier::Cold];
        assert!(hot * 10 < cold, "hot ASUs should be small: hot {hot}, cold {cold}");
    }

    #[test]
    fn every_kind_has_exactly_one_tier() {
        for &k in &AsuKind::ALL {
            let _ = default_tiering(k); // total function; compile-time proof
        }
        assert_eq!(hot_kinds().len(), 6);
    }
}
