//! The resource layer: capacity that stages contend for.
//!
//! The paper's capacity questions ("about 50 to 200 processors would be
//! needed", "a minimum of 30 Terabytes of storage is required
//! instantaneously") are questions about shared resources, not about any one
//! stage. This layer models them uniformly: a resource is a counted set of
//! interchangeable units — the CPUs of a shared pool, or the channels of
//! a transfer link — acquired and released by stage behaviors through a
//! [`ResourceSet`], whose queued stages take turns on a contended resource.
//! [`StorageLedger`] tracks the other capacity dimension, instantaneous
//! allocated bytes across the whole flow.

use std::collections::VecDeque;

use crate::error::{CoreError, CoreResult};
use crate::frame::{Reader, Wire};
use crate::graph::StageId;
use crate::metrics::PoolMetrics;
use crate::units::{DataVolume, SimTime};

/// How stages queued on a shared resource are served. Fair share is the
/// only scheduler: after a stage starts a task it rotates to the back of the
/// waiter queue, so stages sharing the resource interleave.
///
/// The type stays only because the benchmark's `sut.rs` names it when it
/// builds a [`ResourceSet`]; it goes with the `policy` parameter of
/// [`ResourceSet::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    #[default]
    FairShare,
}

crate::wire_struct! {
    /// Handle to a resource within its [`ResourceSet`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct ResourceId(pub(crate) usize);
}

/// A counted pool of interchangeable units plus its contention bookkeeping.
#[derive(Debug)]
struct Resource {
    name: String,
    total: u32,
    /// Shared CPU pools appear in the report; private channels do not.
    pool: bool,
    state: ResourceDyn,
}

crate::wire_struct! {
    /// The part of a [`Resource`] a run changes, and so the part a snapshot
    /// holds: name, total and pool flag are rebuilt from the compiled flow.
    #[derive(Debug)]
    struct ResourceDyn {
        free: u32,
        /// Units taken down by crash/outage faults, pending repair.
        offline: u32,
        peak_in_use: u32,
        /// Accumulated busy unit-seconds (cpu-seconds for pools).
        busy_unit_secs: f64,
        /// Stages with queued work waiting for this resource, FIFO.
        waiters: VecDeque<StageId>,
    }
}

/// All the resources of one simulation: named CPU pools shared across
/// `Process` stages, plus one private channel resource per `Transfer` /
/// `Filter` stage. Every shared resource is served fair share.
#[derive(Debug)]
pub struct ResourceSet {
    resources: Vec<Resource>,
    /// `waiting[stage]`: is the stage already enqueued on some resource?
    waiting: Vec<bool>,
}

impl ResourceSet {
    /// An empty set for a flow of `n_stages` stages. `policy` has one value
    /// and is unused; the parameter stays only because the benchmark's
    /// `sut.rs` passes it.
    pub fn new(n_stages: usize, _policy: SchedPolicy) -> Self {
        ResourceSet { resources: Vec::new(), waiting: vec![false; n_stages] }
    }

    fn add(&mut self, name: String, units: u32, pool: bool) -> ResourceId {
        let id = ResourceId(self.resources.len());
        self.resources.push(Resource {
            name,
            total: units,
            pool,
            state: ResourceDyn {
                free: units,
                offline: 0,
                peak_in_use: 0,
                busy_unit_secs: 0.0,
                waiters: VecDeque::new(),
            },
        });
        id
    }

    /// Register a shared CPU pool (reported in [`PoolMetrics`]).
    pub fn add_pool(&mut self, name: impl Into<String>, cpus: u32) -> ResourceId {
        self.add(name.into(), cpus, true)
    }

    /// Register a private channel resource (capacity only; not reported).
    pub fn add_channel(&mut self, name: impl Into<String>, channels: u32) -> ResourceId {
        self.add(name.into(), channels, false)
    }

    /// Look up a resource by name (pools are registered by pool name).
    pub fn find(&self, name: &str) -> Option<ResourceId> {
        self.resources.iter().position(|r| r.name == name).map(ResourceId)
    }

    pub fn free(&self, rid: ResourceId) -> u32 {
        self.resources[rid.0].state.free
    }

    pub fn total(&self, rid: ResourceId) -> u32 {
        self.resources[rid.0].total
    }

    /// Units not currently taken down by a crash (free + in use).
    pub fn online(&self, rid: ResourceId) -> u32 {
        let r = &self.resources[rid.0];
        r.total - r.state.offline
    }

    /// Units currently held by running work (total minus free minus
    /// offline). This is what the time-series sampler records per pool.
    pub fn in_use(&self, rid: ResourceId) -> u32 {
        let r = &self.resources[rid.0];
        r.total - r.state.free - r.state.offline
    }

    /// Resource names in registration (id) order — the trace name table.
    pub fn names(&self) -> Vec<String> {
        self.resources.iter().map(|r| r.name.clone()).collect()
    }

    /// Ids of the shared pools, sorted by name to match
    /// [`ResourceSet::pool_report`] order.
    pub fn pool_ids(&self) -> Vec<ResourceId> {
        let mut ids: Vec<ResourceId> =
            (0..self.resources.len()).filter(|&i| self.resources[i].pool).map(ResourceId).collect();
        ids.sort_by(|a, b| self.resources[a.0].name.cmp(&self.resources[b.0].name));
        ids
    }

    /// Take `units` from the resource; the caller must have checked
    /// [`ResourceSet::free`] first.
    pub fn acquire(&mut self, rid: ResourceId, units: u32) {
        let r = &mut self.resources[rid.0];
        r.state.free = r.state.free.checked_sub(units).expect("resource over-acquired");
        r.state.peak_in_use = r.state.peak_in_use.max(r.total - r.state.free - r.state.offline);
    }

    /// Return `units` to the resource.
    pub fn release(&mut self, rid: ResourceId, units: u32) {
        let r = &mut self.resources[rid.0];
        r.state.free = (r.state.free + units).min(r.total - r.state.offline);
    }

    /// Take up to `units` idle units offline. Returns the shortfall — units
    /// the crash still owes, to be reclaimed from in-flight tasks (the
    /// behavior layer kills tasks and the caller crashes again with the
    /// freed units).
    pub fn crash(&mut self, rid: ResourceId, units: u32) -> u32 {
        let r = &mut self.resources[rid.0];
        let taken = r.state.free.min(units);
        r.state.free -= taken;
        r.state.offline += taken;
        units - taken
    }

    /// Bring `units` back online after repair (clamped to what is offline).
    pub fn repair(&mut self, rid: ResourceId, units: u32) {
        let r = &mut self.resources[rid.0];
        let back = r.state.offline.min(units);
        r.state.offline -= back;
        r.state.free += back;
    }

    /// Accumulate busy time (unit-seconds) against the resource.
    pub fn note_busy(&mut self, rid: ResourceId, unit_secs: f64) {
        self.resources[rid.0].state.busy_unit_secs += unit_secs;
    }

    /// Enqueue `stage` as a waiter unless it is already waiting somewhere.
    pub fn enlist(&mut self, rid: ResourceId, stage: StageId) {
        if !self.waiting[stage.index()] {
            self.waiting[stage.index()] = true;
            self.resources[rid.0].state.waiters.push_back(stage);
        }
    }

    /// The stage currently at the head of the waiter queue, if any.
    pub fn front_waiter(&self, rid: ResourceId) -> Option<StageId> {
        self.resources[rid.0].state.waiters.front().copied()
    }

    /// Remove the head waiter (its queue is drained or was already empty).
    pub fn drop_front(&mut self, rid: ResourceId) {
        if let Some(stage) = self.resources[rid.0].state.waiters.pop_front() {
            self.waiting[stage.index()] = false;
        }
    }

    /// Reposition the head waiter after it dispatched a task: with more work
    /// still queued it rotates to the back, with nothing left it is removed.
    pub fn after_dispatch(&mut self, rid: ResourceId, more_queued: bool) {
        if !more_queued {
            self.drop_front(rid);
            return;
        }
        let waiters = &mut self.resources[rid.0].state.waiters;
        if let Some(stage) = waiters.pop_front() {
            waiters.push_back(stage);
        }
    }

    /// How many resources the set holds.
    pub(crate) fn len(&self) -> usize {
        self.resources.len()
    }

    /// Write every resource's [`ResourceDyn`] for a snapshot.
    pub(crate) fn save_dyn(&self, out: &mut Vec<u8>) {
        self.resources.len().put(out);
        for r in &self.resources {
            r.state.put(out);
        }
    }

    /// Read the dynamics [`ResourceSet::save_dyn`] wrote onto a freshly
    /// built set of the same shape. The `waiting` flags are derived from the
    /// waiter queues rather than stored; a waiter that is no stage of this
    /// flow sets none, and [`ResourceSet::dyn_in_range`] then refuses it.
    pub(crate) fn load_dyn(&mut self, r: &mut Reader) -> CoreResult<()> {
        let n = r.count()?;
        if n != self.resources.len() {
            return Err(CoreError::CorruptJournal {
                detail: format!(
                    "snapshot has {n} resources, simulator has {}",
                    self.resources.len()
                ),
            });
        }
        self.waiting.fill(false);
        for res in &mut self.resources {
            res.state = Wire::get(r)?;
            for stage in &res.state.waiters {
                if let Some(flag) = self.waiting.get_mut(stage.index()) {
                    *flag = true;
                }
            }
        }
        Ok(())
    }

    /// Whether the dynamics fit the shape: no more units free and offline
    /// than a resource has, every waiter a stage of this flow. True of any
    /// set a run produced, not of one decoded from bytes.
    pub(crate) fn dyn_in_range(&self) -> bool {
        self.resources.iter().all(|r| {
            r.state.free as u64 + r.state.offline as u64 <= r.total as u64
                && r.state.waiters.iter().all(|stage| stage.index() < self.waiting.len())
        })
    }

    /// Report metrics for the shared pools (channels are private capacity and
    /// stay out of the report), sorted by name for replayable output.
    pub fn pool_report(&self, elapsed: SimTime) -> Vec<PoolMetrics> {
        let mut pools: Vec<&Resource> = self.resources.iter().filter(|r| r.pool).collect();
        pools.sort_by(|a, b| a.name.cmp(&b.name));
        pools
            .into_iter()
            .map(|p| {
                let capacity_secs = p.total as f64 * elapsed.as_secs_f64();
                PoolMetrics {
                    name: p.name.clone(),
                    cpus: p.total,
                    peak_in_use: p.state.peak_in_use,
                    busy_cpu_secs: p.state.busy_unit_secs,
                    utilization: if capacity_secs > 0.0 {
                        p.state.busy_unit_secs / capacity_secs
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }
}

crate::wire_struct! {
    /// Tracks instantaneous allocated storage across the whole flow.
    #[derive(Debug, Default, Clone)]
    pub struct StorageLedger {
        current: u64,
        peak: u64,
        /// Bytes retained permanently (archives, `retain_input` stages).
        retained: u64,
        /// Frees that exceeded the current allocation. Always zero for a correct
        /// simulation; counted (identically in debug and release builds) rather
        /// than asserted so accounting bugs surface in reports instead of only
        /// tripping `debug_assert!` in some build profiles.
        underflow_events: u64,
    }
}

impl StorageLedger {
    pub(crate) fn alloc(&mut self, v: DataVolume) {
        self.current += v.bytes();
        self.peak = self.peak.max(self.current);
    }

    pub(crate) fn free(&mut self, v: DataVolume) {
        if self.current < v.bytes() {
            self.underflow_events += 1;
        }
        self.current = self.current.saturating_sub(v.bytes());
    }

    pub(crate) fn retain(&mut self, v: DataVolume) {
        self.retained += v.bytes();
    }

    pub fn peak(&self) -> DataVolume {
        DataVolume::from_bytes(self.peak)
    }

    pub fn current(&self) -> DataVolume {
        DataVolume::from_bytes(self.current)
    }

    pub fn retained(&self) -> DataVolume {
        DataVolume::from_bytes(self.retained)
    }

    /// Number of frees that exceeded the allocation they released.
    pub fn underflow_events(&self) -> u64 {
        self.underflow_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forging hooks for the `forged_index_*` tests: every mutator above
    /// keeps occupancy within the total and indexes `waiting` with the
    /// stage it enlists, so a test has to write the fields itself.
    impl ResourceSet {
        pub(crate) fn forge_waiter(&mut self, rid: ResourceId, stage: StageId) {
            self.resources[rid.0].state.waiters.push_back(stage);
        }

        pub(crate) fn forge_offline(&mut self, rid: ResourceId, offline: u32) {
            self.resources[rid.0].state.offline = offline;
        }
    }

    fn set() -> (ResourceSet, ResourceId) {
        let mut rs = ResourceSet::new(4, SchedPolicy::FairShare);
        let pool = rs.add_pool("pool", 8);
        (rs, pool)
    }

    #[test]
    fn acquire_release_track_peak() {
        let (mut rs, pool) = set();
        assert_eq!(rs.free(pool), 8);
        rs.acquire(pool, 5);
        rs.acquire(pool, 2);
        assert_eq!(rs.free(pool), 1);
        rs.release(pool, 5);
        rs.acquire(pool, 1);
        let report = rs.pool_report(SimTime::from_micros(1_000_000));
        assert_eq!(report[0].peak_in_use, 7);
        assert_eq!(report[0].cpus, 8);
    }

    #[test]
    fn enlist_is_idempotent_per_stage() {
        let (mut rs, pool) = set();
        let s = StageId(1);
        rs.enlist(pool, s);
        rs.enlist(pool, s);
        assert_eq!(rs.front_waiter(pool), Some(s));
        rs.drop_front(pool);
        assert_eq!(rs.front_waiter(pool), None);
        // After drop_front the stage may enlist again.
        rs.enlist(pool, s);
        assert_eq!(rs.front_waiter(pool), Some(s));
    }

    #[test]
    fn the_head_rotates_to_the_back_and_leaves_when_drained() {
        let (mut rs, pool) = set();
        let (a, b) = (StageId(0), StageId(1));
        rs.enlist(pool, a);
        rs.enlist(pool, b);
        rs.after_dispatch(pool, true);
        assert_eq!(rs.front_waiter(pool), Some(b), "fair share rotates the head to the back");
        rs.after_dispatch(pool, false);
        assert_eq!(rs.front_waiter(pool), Some(a), "drained head is removed");
        rs.after_dispatch(pool, false);
        assert_eq!(rs.front_waiter(pool), None);
    }

    #[test]
    fn crash_takes_idle_units_and_repair_restores_them() {
        let (mut rs, pool) = set();
        rs.acquire(pool, 6); // 2 idle
        let shortfall = rs.crash(pool, 5);
        assert_eq!(shortfall, 3, "only the 2 idle units could die immediately");
        assert_eq!(rs.free(pool), 0);
        assert_eq!(rs.online(pool), 6);
        // The behavior layer kills a task, freeing 3 cpus; the crash claims them.
        rs.release(pool, 3);
        assert_eq!(rs.crash(pool, shortfall), 0);
        assert_eq!(rs.online(pool), 3);
        // Releases while units are offline clamp to the online capacity.
        rs.release(pool, 3);
        assert_eq!(rs.free(pool), 3);
        rs.repair(pool, 5);
        assert_eq!(rs.online(pool), 8);
        assert_eq!(rs.free(pool), 8);
        // Peak tracking never counts offline units as in use.
        let report = rs.pool_report(SimTime::from_micros(1_000_000));
        assert_eq!(report[0].peak_in_use, 6);
    }

    #[test]
    fn channels_are_excluded_from_pool_report() {
        let mut rs = ResourceSet::new(2, SchedPolicy::default());
        rs.add_pool("cpus", 4);
        rs.add_channel("link#0", 2);
        let report = rs.pool_report(SimTime::from_micros(10));
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].name, "cpus");
    }

    #[test]
    fn in_use_and_pool_ids_track_sampling_views() {
        let mut rs = ResourceSet::new(2, SchedPolicy::default());
        let b = rs.add_pool("beta", 4);
        let a = rs.add_pool("alpha", 8);
        rs.add_channel("link#0", 2);
        rs.acquire(b, 3);
        rs.crash(b, 1);
        assert_eq!(rs.in_use(b), 3);
        assert_eq!(rs.in_use(a), 0);
        // Sorted by name, matching pool_report; channels excluded.
        assert_eq!(rs.pool_ids(), vec![a, b]);
        assert_eq!(rs.names(), vec!["beta", "alpha", "link#0"]);
    }

    #[test]
    fn dynamics_roundtrip_through_bytes_onto_a_fresh_set() {
        let (mut rs, pool) = set();
        rs.acquire(pool, 6);
        rs.crash(pool, 3);
        rs.note_busy(pool, 12.5);
        rs.enlist(pool, StageId(2));
        rs.enlist(pool, StageId(0));
        let mut bytes = Vec::new();
        rs.save_dyn(&mut bytes);

        let (mut fresh, fresh_pool) = set();
        let mut r = Reader::new(&bytes);
        fresh.load_dyn(&mut r).unwrap();
        r.done().unwrap();
        assert!(fresh.dyn_in_range());
        assert_eq!(fresh.free(fresh_pool), rs.free(pool));
        assert_eq!(fresh.online(fresh_pool), rs.online(pool));
        assert_eq!(fresh.in_use(fresh_pool), rs.in_use(pool));
        assert_eq!(fresh.front_waiter(fresh_pool), Some(StageId(2)));
        // Waiting flags were rebuilt: re-enlisting a restored waiter is a no-op.
        fresh.enlist(fresh_pool, StageId(0));
        fresh.drop_front(fresh_pool);
        assert_eq!(fresh.front_waiter(fresh_pool), Some(StageId(0)));
        fresh.drop_front(fresh_pool);
        assert_eq!(fresh.front_waiter(fresh_pool), None);
        let report = fresh.pool_report(SimTime::from_micros(2_000_000));
        assert_eq!(report[0].peak_in_use, 6);
        assert!((report[0].busy_cpu_secs - 12.5).abs() < 1e-12);
        // A set of another shape refuses the bytes instead of zipping short.
        let mut other = ResourceSet::new(4, SchedPolicy::FairShare);
        assert!(matches!(
            other.load_dyn(&mut Reader::new(&bytes)),
            Err(CoreError::CorruptJournal { .. })
        ));
    }

    #[test]
    fn ledger_roundtrips_through_bytes() {
        let mut ledger = StorageLedger::default();
        ledger.alloc(DataVolume::gb(3));
        ledger.free(DataVolume::gb(1));
        ledger.retain(DataVolume::gb(2));
        ledger.free(DataVolume::gb(9));
        let mut bytes = Vec::new();
        ledger.put(&mut bytes);
        // Four LEB128 counters: peak and retained, ~2^31 bytes, take five
        // bytes each; current (zero) and the underflow count one.
        assert_eq!(bytes.len(), 5 + 5 + 1 + 1, "four u64 counters");
        let copy = StorageLedger::get(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(copy.current(), ledger.current());
        assert_eq!(copy.peak(), ledger.peak());
        assert_eq!(copy.retained(), ledger.retained());
        assert_eq!(copy.underflow_events(), 1);
    }

    #[test]
    fn ledger_tracks_peak_current_retained_and_underflow() {
        let mut ledger = StorageLedger::default();
        ledger.alloc(DataVolume::gb(3));
        ledger.free(DataVolume::gb(1));
        ledger.retain(DataVolume::gb(1));
        assert_eq!(ledger.peak(), DataVolume::gb(3));
        assert_eq!(ledger.current(), DataVolume::gb(2));
        assert_eq!(ledger.retained(), DataVolume::gb(1));
        ledger.free(DataVolume::gb(5));
        assert_eq!(ledger.underflow_events(), 1);
        assert_eq!(ledger.current(), DataVolume::ZERO);
    }
}
