//! Deterministic fault injection for simulated transfers and stages.
//!
//! The paper's transport verdicts (Section 5) — CLEO shipping USB disks,
//! Arecibo couriering ATA drives, WebLab trusting a dedicated Internet2 link
//! — only exist because real links drop connections, stall, corrupt payloads
//! and degrade under load. A [`FaultPlan`] is a *seeded, pre-generated
//! timeline* of such events: given the same seed and profile it is always the
//! same plan, so any simulation driven by it is replayable event-for-event.
//!
//! [`RetryPolicy`] models the standard remedy — bounded retries with
//! exponential backoff and seeded jitter plus per-attempt timeouts — and
//! [`FaultPlan::attempt_outcome`] is the kernel the flow simulator
//! ([`crate::sim::FlowSim::with_faults`]) uses to decide how one transfer
//! attempt fares against the fault timeline. `simnet`'s
//! `compare_with_faults` runs its network leg through that simulator, so
//! there is one transfer executor.

use crate::rng::Rng;
use crate::units::{SimDuration, SimTime};

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The connection is reset at the event time; any attempt in flight
    /// fails immediately and must retransmit from the start.
    Drop,
    /// The channel freezes for `duration`; attempts in flight take that much
    /// longer (and may then exceed their timeout).
    Stall { duration: SimDuration },
    /// Payload corruption: the attempt runs to completion but fails its
    /// integrity check at the end.
    Corrupt,
    /// Undetected payload corruption: the attempt *succeeds* and the
    /// delivered block is silently tainted. Nothing in the transport layer
    /// notices — only a downstream integrity check (the paper's MD5
    /// provenance digests) can catch the taint before it reaches a sink.
    SilentCorrupt,
    /// The sustained rate is multiplied by `factor` (< 1) for `duration`.
    RateDegrade { factor: f64, duration: SimDuration },
    /// `cpus` processors of `pool` die at the event time and come back
    /// `repair` later. Tasks running on the dead processors lose their
    /// in-flight work (bounded by the stage's checkpoint policy) and requeue.
    NodeCrash { pool: String, cpus: u32, repair: SimDuration },
    /// The whole `pool` goes dark (power cut, scheduled drain) and returns
    /// `repair` later. Equivalent to a NodeCrash of every online processor.
    PoolOutage { pool: String, repair: SimDuration },
    /// A message in flight at the event time is delivered **twice** (retry
    /// storms, at-least-once transports). Consumers must be idempotent; the
    /// EventStore replication layer's anti-entropy apply is the canonical
    /// client.
    Duplicate,
    /// Two adjacent messages in flight at the event time swap delivery
    /// order (multi-path routing, retransmission racing the original).
    Reorder,
    /// The link is severed at the event time and heals `heal` later: every
    /// send inside the window fails immediately. The replication layer's
    /// partition/heal schedules are made of these.
    Partition { heal: SimDuration },
}

/// A fault keyed by simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// Mean event rates used by [`FaultPlan::generate`]. All rates are Poisson
/// arrivals per simulated day; durations are exponential with the given mean.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    pub drops_per_day: f64,
    pub stalls_per_day: f64,
    pub mean_stall: SimDuration,
    pub corrupts_per_day: f64,
    pub degrades_per_day: f64,
    /// Rate multiplier applied during a degrade window (0 < factor ≤ 1).
    pub degrade_factor: f64,
    pub mean_degrade: SimDuration,
    /// Node crashes per day against `crash_pool` (ignored when `crash_pool`
    /// is `None`).
    pub crashes_per_day: f64,
    /// Processors taken down by each crash (clamped to ≥ 1 at generation).
    pub cpus_per_crash: u32,
    /// Mean time-to-repair of a crashed node (exponential).
    pub mean_repair: SimDuration,
    /// Whole-pool outages per day against `crash_pool`.
    pub outages_per_day: f64,
    /// Mean time-to-repair of a pool outage (exponential).
    pub mean_outage_repair: SimDuration,
    /// The CPU pool that crashes and outages target. `None` disables both
    /// categories (and keeps plans byte-identical with pre-crash profiles).
    pub crash_pool: Option<String>,
    /// Silent corruptions per day: each event taints (without failing) any
    /// transfer attempt whose window covers it. Zero disables the category
    /// and keeps plans byte-identical with pre-integrity profiles.
    pub silent_corrupts_per_day: f64,
    /// Duplicate-delivery events per day (messaging links only). Zero
    /// disables the category and keeps plans byte-identical with
    /// pre-replication profiles.
    pub duplicates_per_day: f64,
    /// Reorder events per day (messaging links only).
    pub reorders_per_day: f64,
    /// Link partitions per day; each lasts an exponential time with mean
    /// [`FaultProfile::mean_partition_heal`].
    pub partitions_per_day: f64,
    /// Mean time until a partition heals (exponential).
    pub mean_partition_heal: SimDuration,
}

impl FaultProfile {
    /// A quiet link: no faults at all.
    pub fn clean() -> Self {
        FaultProfile {
            drops_per_day: 0.0,
            stalls_per_day: 0.0,
            mean_stall: SimDuration::ZERO,
            corrupts_per_day: 0.0,
            degrades_per_day: 0.0,
            degrade_factor: 1.0,
            mean_degrade: SimDuration::ZERO,
            crashes_per_day: 0.0,
            cpus_per_crash: 1,
            mean_repair: SimDuration::ZERO,
            outages_per_day: 0.0,
            mean_outage_repair: SimDuration::ZERO,
            crash_pool: None,
            silent_corrupts_per_day: 0.0,
            duplicates_per_day: 0.0,
            reorders_per_day: 0.0,
            partitions_per_day: 0.0,
            mean_partition_heal: SimDuration::ZERO,
        }
    }

    /// A flaky commodity link of the kind the paper's Arecibo uplink was:
    /// several resets a day, occasional stalls and slowdowns.
    pub fn flaky() -> Self {
        FaultProfile {
            drops_per_day: 6.0,
            stalls_per_day: 4.0,
            mean_stall: SimDuration::from_mins(10),
            corrupts_per_day: 0.5,
            degrades_per_day: 2.0,
            degrade_factor: 0.4,
            mean_degrade: SimDuration::from_hours(1),
            ..FaultProfile::clean()
        }
    }

    /// Only connection drops, at the given daily rate.
    pub fn drops(per_day: f64) -> Self {
        FaultProfile { drops_per_day: per_day, ..FaultProfile::clean() }
    }

    /// Only node crashes against `pool`: `per_day` crashes, each killing
    /// `cpus_per_crash` processors for an exponential repair time with mean
    /// `mean_repair`. The shape of a shared farm losing nodes to preemption
    /// and hardware failure.
    pub fn node_crashes(
        pool: impl Into<String>,
        per_day: f64,
        cpus_per_crash: u32,
        mean_repair: SimDuration,
    ) -> Self {
        FaultProfile {
            crashes_per_day: per_day,
            cpus_per_crash,
            mean_repair,
            crash_pool: Some(pool.into()),
            ..FaultProfile::clean()
        }
    }

    /// Add whole-pool outages to this profile (requires `crash_pool` set).
    pub fn with_outages(mut self, per_day: f64, mean_repair: SimDuration) -> Self {
        self.outages_per_day = per_day;
        self.mean_outage_repair = mean_repair;
        self
    }

    /// Only silent corruption, at the given daily rate: transfers deliver,
    /// but delivered blocks are tainted — the tape-bitrot / bad-media shape
    /// of the paper's shipping lanes.
    pub fn silent_corruption(per_day: f64) -> Self {
        FaultProfile { silent_corrupts_per_day: per_day, ..FaultProfile::clean() }
    }

    /// Add silent corruption to this profile.
    pub fn with_silent_corruption(mut self, per_day: f64) -> Self {
        self.silent_corrupts_per_day = per_day;
        self
    }

    /// Add link partitions to this profile: `per_day` severances, each
    /// healing after an exponential time with mean `mean_heal`.
    pub fn with_partitions(mut self, per_day: f64, mean_heal: SimDuration) -> Self {
        self.partitions_per_day = per_day;
        self.mean_partition_heal = mean_heal;
        self
    }

    /// The full gauntlet a replication link faces: drops, stalls, detected
    /// corruption, duplicate delivery, reordering, and partition/heal
    /// cycles. The anti-entropy chaos suites run over exactly this shape.
    pub fn replica_chaos() -> Self {
        FaultProfile {
            drops_per_day: 4.0,
            stalls_per_day: 2.0,
            mean_stall: SimDuration::from_mins(15),
            corrupts_per_day: 2.0,
            duplicates_per_day: 3.0,
            reorders_per_day: 3.0,
            partitions_per_day: 1.0,
            mean_partition_heal: SimDuration::from_hours(4),
            ..FaultProfile::clean()
        }
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::flaky()
    }
}

/// A seeded, immutable timeline of fault events.
///
/// Replayability contract: `FaultPlan::generate(seed, horizon, profile)`
/// yields the identical event list every time it is called with the same
/// arguments, and all queries are pure — two simulations driven by the same
/// plan (and the same seeded retry jitter) produce byte-identical reports.
///
/// Every query costs O(log plan + faults hit): `events` is sorted by time and
/// searched by `partition_point`, and the two kinds whose windows reach
/// *back* over a query time (degrades, partitions) are indexed once at
/// construction. The index is a pure function of `events`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    /// Every [`FaultKind::RateDegrade`] window, in event order.
    degrades: Vec<DegradeWindow>,
    /// The [`FaultKind::Partition`] windows merged into disjoint, ascending
    /// `[severed, healed)` spans; windows that touch or overlap are one span.
    partitions: Vec<(SimTime, SimTime)>,
}

/// One `[start, end)` degrade window plus `ends_by`, the latest `end` among
/// this and every earlier window: all windows before the first whose
/// `ends_by` passes `t` are over by `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DegradeWindow {
    start: SimTime,
    end: SimTime,
    ends_by: SimTime,
    factor: f64,
}

impl FaultPlan {
    /// The empty plan: a perfect pipe.
    pub fn none() -> Self {
        FaultPlan::from_events(0, Vec::new())
    }

    /// Build a plan from explicit events (sorted by time internally).
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        let mut degrades: Vec<DegradeWindow> = Vec::new();
        let mut partitions: Vec<(SimTime, SimTime)> = Vec::new();
        for e in &events {
            match e.kind {
                FaultKind::RateDegrade { factor, duration } => {
                    let end = e.at + duration;
                    let ends_by = degrades.last().map_or(end, |d| d.ends_by.max(end));
                    degrades.push(DegradeWindow { start: e.at, end, ends_by, factor });
                }
                FaultKind::Partition { heal } => {
                    let end = e.at + heal;
                    match partitions.last_mut() {
                        Some(span) if e.at <= span.1 => span.1 = span.1.max(end),
                        _ => partitions.push((e.at, end)),
                    }
                }
                _ => {}
            }
        }
        FaultPlan { seed, events, degrades, partitions }
    }

    /// Generate a plan over `[0, horizon)` by drawing Poisson arrivals for
    /// each fault category from a SplitMix/xoshiro RNG seeded with `seed`.
    pub fn generate(seed: u64, horizon: SimDuration, profile: &FaultProfile) -> Self {
        assert!(
            profile.degrade_factor > 0.0 && profile.degrade_factor <= 1.0,
            "degrade factor must be in (0, 1]"
        );
        let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_FA17_1337_0001);
        let mut events = Vec::new();
        let horizon_days = horizon.as_days_f64();

        let arrivals = |rate_per_day: f64, rng: &mut Rng| -> Vec<SimTime> {
            let mut out = Vec::new();
            if rate_per_day <= 0.0 {
                return out;
            }
            let mut t_days = 0.0f64;
            loop {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                t_days += -u.ln() / rate_per_day;
                if t_days >= horizon_days {
                    return out;
                }
                out.push(SimTime::from_micros((t_days * 86_400.0 * 1e6) as u64));
            }
        };

        for at in arrivals(profile.drops_per_day, &mut rng) {
            events.push(FaultEvent { at, kind: FaultKind::Drop });
        }
        for at in arrivals(profile.stalls_per_day, &mut rng) {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let duration = SimDuration::from_secs_f64(-u.ln() * profile.mean_stall.as_secs_f64());
            events.push(FaultEvent { at, kind: FaultKind::Stall { duration } });
        }
        for at in arrivals(profile.corrupts_per_day, &mut rng) {
            events.push(FaultEvent { at, kind: FaultKind::Corrupt });
        }
        for at in arrivals(profile.degrades_per_day, &mut rng) {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let duration = SimDuration::from_secs_f64(-u.ln() * profile.mean_degrade.as_secs_f64());
            events.push(FaultEvent {
                at,
                kind: FaultKind::RateDegrade { factor: profile.degrade_factor, duration },
            });
        }
        // Crash categories draw last, so profiles without a crash pool keep
        // generating byte-identical plans to the pre-crash fault layer.
        if let Some(pool) = &profile.crash_pool {
            for at in arrivals(profile.crashes_per_day, &mut rng) {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let repair =
                    SimDuration::from_secs_f64(-u.ln() * profile.mean_repair.as_secs_f64());
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::NodeCrash {
                        pool: pool.clone(),
                        cpus: profile.cpus_per_crash.max(1),
                        repair,
                    },
                });
            }
            for at in arrivals(profile.outages_per_day, &mut rng) {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let repair =
                    SimDuration::from_secs_f64(-u.ln() * profile.mean_outage_repair.as_secs_f64());
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::PoolOutage { pool: pool.clone(), repair },
                });
            }
        }
        // Silent corruption draws after every other category, so zero-rate
        // profiles keep generating byte-identical plans to the pre-integrity
        // fault layer (a zero rate consumes no RNG).
        for at in arrivals(profile.silent_corrupts_per_day, &mut rng) {
            events.push(FaultEvent { at, kind: FaultKind::SilentCorrupt });
        }
        // Messaging-link categories (duplicate, reorder, partition) draw
        // last of all, in this fixed order, so zero-rate profiles keep
        // generating byte-identical plans to the pre-replication layers (a
        // zero rate consumes no RNG).
        for at in arrivals(profile.duplicates_per_day, &mut rng) {
            events.push(FaultEvent { at, kind: FaultKind::Duplicate });
        }
        for at in arrivals(profile.reorders_per_day, &mut rng) {
            events.push(FaultEvent { at, kind: FaultKind::Reorder });
        }
        for at in arrivals(profile.partitions_per_day, &mut rng) {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let heal =
                SimDuration::from_secs_f64(-u.ln() * profile.mean_partition_heal.as_secs_f64());
            events.push(FaultEvent { at, kind: FaultKind::Partition { heal } });
        }
        FaultPlan::from_events(seed, events)
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of events of each kind, for reporting.
    pub fn count(&self, pred: impl Fn(&FaultKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// The events at or after `start`, by binary search on the sorted
    /// timeline; a window `[start, end)` is this, walked until `end`.
    fn since(&self, start: SimTime) -> &[FaultEvent] {
        &self.events[self.events.partition_point(|e| e.at < start)..]
    }

    /// The events an activity spanning `[start, start + base)` meets, and how
    /// long it lasts once every stall among them has extended it. Events are
    /// met in time order and a stall only ever moves the end later, so one
    /// forward walk reaches the least fixed point of "window → stalls inside
    /// it → longer window".
    fn stalled_window(&self, start: SimTime, base: SimDuration) -> (&[FaultEvent], SimDuration) {
        let tail = self.since(start);
        let mut dur = base;
        let mut met = 0;
        for e in tail {
            if e.at >= start + dur {
                break;
            }
            if let FaultKind::Stall { duration } = e.kind {
                dur += duration;
            }
            met += 1;
        }
        (&tail[..met], dur)
    }

    /// The compounded rate multiplier of every degrade window active at `t`,
    /// multiplied in event order (float products do not reassociate).
    pub fn degrade_factor_at(&self, t: SimTime) -> f64 {
        let started = &self.degrades[..self.degrades.partition_point(|d| d.start <= t)];
        started[started.partition_point(|d| d.ends_by <= t)..]
            .iter()
            .filter(|d| d.end > t)
            .fold(1.0, |factor, d| factor * d.factor)
    }

    /// The merged partition span covering `t`, if any.
    fn partition_at(&self, t: SimTime) -> Option<(SimTime, SimTime)> {
        let severed = &self.partitions[..self.partitions.partition_point(|p| p.0 <= t)];
        severed.last().copied().filter(|p| p.1 > t)
    }

    /// Whether any [`FaultKind::Partition`] window covers `t`: the link is
    /// severed and every send fails until the partition heals.
    pub fn partitioned_at(&self, t: SimTime) -> bool {
        self.partition_at(t).is_some()
    }

    /// When the partition covering `t` (if any) heals: the earliest time at
    /// or after `t` at which the link carries messages again, accounting for
    /// overlapping partition windows.
    pub fn partition_heals_at(&self, t: SimTime) -> SimTime {
        self.partition_at(t).map_or(t, |p| p.1)
    }

    /// The duration of work spanning `[start, start + base)` once stall
    /// events inside the window are accounted for, plus the number of stalls
    /// hit. An extension can pull further stalls into the window.
    pub fn stalled_duration(&self, start: SimTime, base: SimDuration) -> (SimDuration, u32) {
        let (met, dur) = self.stalled_window(start, base);
        let stalls = met.iter().filter(|e| matches!(e.kind, FaultKind::Stall { .. })).count();
        (dur, stalls as u32)
    }

    /// Useful work accomplished over the wall-clock window `[start, now)` by
    /// a task whose progress freezes during stall events — the inverse view
    /// of [`FaultPlan::stalled_duration`], used to value the partial progress
    /// of a task killed by a crash. Stall windows are applied sequentially
    /// (a stall arriving while an earlier freeze is still active extends the
    /// freeze rather than overlapping it), matching the additive extension
    /// model of `stalled_duration`.
    pub fn progress_between(&self, start: SimTime, now: SimTime) -> SimDuration {
        let Some(wall) = now.checked_sub(start) else {
            return SimDuration::ZERO;
        };
        let mut frozen = 0u64;
        let mut frozen_until = start.as_micros();
        for e in self.since(start).iter().take_while(|e| e.at < now) {
            if let FaultKind::Stall { duration } = e.kind {
                let begin = e.at.as_micros().max(frozen_until);
                let end = begin + duration.as_micros();
                frozen += end.min(now.as_micros()).saturating_sub(begin);
                frozen_until = end;
            }
        }
        wall.saturating_sub(SimDuration::from_micros(frozen))
    }

    /// Decide how a single attempt spanning `[start, start + base)` fares.
    ///
    /// `base` must already account for any rate degradation (see
    /// [`FaultPlan::degrade_factor_at`]). Stall events inside the attempt
    /// window extend it (see [`FaultPlan::stalled_duration`]). The attempt
    /// then fails at the earliest of: the first [`FaultKind::Drop`] in the
    /// window, the timeout expiry, or — if a [`FaultKind::Corrupt`] lies in
    /// the window — the integrity check at the very end.
    pub fn attempt_outcome(
        &self,
        start: SimTime,
        base: SimDuration,
        timeout: Option<SimDuration>,
    ) -> AttemptOutcome {
        let (met, dur) = self.stalled_window(start, base);
        let end = start + dur;

        let mut first_drop = None;
        let mut corrupted = false;
        let mut stalls_hit = 0u32;
        let mut silent_corrupts = 0u32;
        for e in met {
            match e.kind {
                FaultKind::Drop => first_drop = first_drop.or(Some(e.at)),
                FaultKind::Corrupt => corrupted = true,
                FaultKind::Stall { .. } => stalls_hit += 1,
                FaultKind::SilentCorrupt => silent_corrupts += 1,
                _ => {}
            }
        }
        let timeout_at = match timeout {
            Some(t) if dur > t => Some(start + t),
            _ => None,
        };

        let mut failure: Option<(SimTime, AttemptFailure)> = None;
        if corrupted {
            failure = Some((end, AttemptFailure::Corrupted));
        }
        if let Some(at) = timeout_at {
            if failure.is_none_or(|(t, _)| at < t) {
                failure = Some((at, AttemptFailure::TimedOut));
            }
        }
        if let Some(at) = first_drop {
            if failure.is_none_or(|(t, _)| at < t) {
                failure = Some((at, AttemptFailure::Dropped));
            }
        }

        match failure {
            None => AttemptOutcome { ends_at: end, failure: None, stalls_hit, silent_corrupts },
            Some((at, cause)) => {
                AttemptOutcome { ends_at: at, failure: Some(cause), stalls_hit, silent_corrupts }
            }
        }
    }
}

/// Why a single attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptFailure {
    Dropped,
    Corrupted,
    TimedOut,
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptFailure::Dropped => write!(f, "connection dropped"),
            AttemptFailure::Corrupted => write!(f, "payload corrupted"),
            AttemptFailure::TimedOut => write!(f, "attempt timed out"),
        }
    }
}

/// The verdict of [`FaultPlan::attempt_outcome`] for one attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptOutcome {
    /// When the attempt ends: delivery time on success, failure time
    /// otherwise.
    pub ends_at: SimTime,
    pub failure: Option<AttemptFailure>,
    /// Stall events that extended the attempt window.
    pub stalls_hit: u32,
    /// [`FaultKind::SilentCorrupt`] events inside the attempt window. They
    /// never fail the attempt; a delivered attempt carries this many taint
    /// units downstream (failed attempts retransmit, so their taint is moot).
    pub silent_corrupts: u32,
}

impl AttemptOutcome {
    pub fn succeeded(&self) -> bool {
        self.failure.is_none()
    }

    /// Fault events that influenced this attempt (stalls, silent corruption,
    /// plus the failure).
    pub fn faults_hit(&self) -> u64 {
        self.stalls_hit as u64 + self.silent_corrupts as u64 + u64::from(self.failure.is_some())
    }
}

/// Bounded retries with exponential backoff, seeded jitter and per-attempt
/// timeout.
///
/// Fields are public and tolerant: `multiplier` is clamped to ≥ 1 and
/// `jitter` to `[0, 1]` at use, so arbitrary (e.g. property-generated)
/// policies still behave sanely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (total attempts = retries+1).
    pub max_retries: u32,
    pub base_backoff: SimDuration,
    /// Exponential growth factor per retry (≥ 1).
    pub multiplier: f64,
    /// Ceiling on any single backoff wait.
    pub max_backoff: SimDuration,
    /// Jitter fraction in `[0, 1]`: the wait is scaled by a seeded draw from
    /// `[1 - jitter, 1 + jitter]`, then clamped to `max_backoff`.
    pub jitter: f64,
    /// Per-attempt wall-clock limit; `None` disables timeouts.
    pub attempt_timeout: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base_backoff: SimDuration::from_secs(30),
            multiplier: 2.0,
            max_backoff: SimDuration::from_hours(2),
            jitter: 0.1,
            attempt_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// Give up after the first failure.
    pub fn no_retries() -> Self {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// The jitter-free backoff before retry `i` (0-based): monotone
    /// non-decreasing in `i` and bounded by `max_backoff`.
    pub fn nominal_backoff(&self, retry_index: u32) -> SimDuration {
        let base = self.base_backoff.as_secs_f64();
        // A zero base stays zero under any multiplier. Short-circuit it
        // before the product: with an extreme multiplier `powi` overflows to
        // `inf`, and `0.0 × inf` is NaN — which both `f64::min` and an
        // is_finite fallback would then resolve to `max_backoff` instead of
        // zero.
        if base == 0.0 {
            return SimDuration::ZERO;
        }
        let cap = self.max_backoff.as_secs_f64();
        let mult = self.multiplier.max(1.0);
        let pow = mult.powi(retry_index.min(1000) as i32);
        // With a positive base the product saturates cleanly: an infinite
        // factor (or an infinite product of finite factors) clamps to the
        // cap, and no NaN can arise.
        let secs = if pow.is_finite() { base * pow } else { f64::INFINITY };
        let capped = secs.min(cap);
        SimDuration::from_secs_f64(if capped.is_finite() { capped } else { cap })
    }

    /// The jittered backoff before retry `i`, drawn from `rng`; bounded by
    /// `max_backoff` regardless of the draw.
    pub fn backoff(&self, retry_index: u32, rng: &mut Rng) -> SimDuration {
        let nominal = self.nominal_backoff(retry_index).as_secs_f64();
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scale = 1.0 - jitter + 2.0 * jitter * rng.gen::<f64>();
        let secs = (nominal * scale).min(self.max_backoff.as_secs_f64());
        SimDuration::from_secs_f64(secs.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let horizon = SimDuration::from_days(30);
        let a = FaultPlan::generate(99, horizon, &FaultProfile::flaky());
        let b = FaultPlan::generate(99, horizon, &FaultProfile::flaky());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::generate(100, horizon, &FaultProfile::flaky());
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn event_rates_track_profile() {
        let horizon = SimDuration::from_days(100);
        let plan = FaultPlan::generate(7, horizon, &FaultProfile::drops(5.0));
        // Poisson(500): far more than 300, fewer than 700.
        let drops = plan.count(|k| matches!(k, FaultKind::Drop));
        assert!((300..700).contains(&drops), "drops {drops}");
        assert_eq!(plan.len(), drops, "drops-only profile generates only drops");
    }

    #[test]
    fn clean_profile_is_empty_and_clean_attempts_succeed() {
        let plan = FaultPlan::generate(1, SimDuration::from_days(365), &FaultProfile::clean());
        assert!(plan.is_empty());
        let out = plan.attempt_outcome(SimTime::ZERO, SimDuration::from_hours(5), None);
        assert!(out.succeeded());
        assert_eq!(out.ends_at, SimTime::ZERO + SimDuration::from_hours(5));
    }

    #[test]
    fn drop_fails_attempt_at_event_time() {
        let plan = FaultPlan::from_events(
            0,
            vec![FaultEvent { at: SimTime::from_micros(1_000_000), kind: FaultKind::Drop }],
        );
        let out = plan.attempt_outcome(SimTime::ZERO, SimDuration::from_secs(10), None);
        assert_eq!(out.failure, Some(AttemptFailure::Dropped));
        assert_eq!(out.ends_at, SimTime::from_micros(1_000_000));
        // An attempt starting after the drop is unaffected.
        let later =
            plan.attempt_outcome(SimTime::from_micros(2_000_000), SimDuration::from_secs(10), None);
        assert!(later.succeeded());
    }

    #[test]
    fn stalls_extend_and_can_cascade() {
        let s = |secs: u64| SimTime::from_micros(secs * 1_000_000);
        let plan = FaultPlan::from_events(
            0,
            vec![
                FaultEvent {
                    at: s(5),
                    kind: FaultKind::Stall { duration: SimDuration::from_secs(10) },
                },
                // Outside the base window but inside the stalled one.
                FaultEvent {
                    at: s(15),
                    kind: FaultKind::Stall { duration: SimDuration::from_secs(10) },
                },
            ],
        );
        let out = plan.attempt_outcome(SimTime::ZERO, SimDuration::from_secs(10), None);
        assert!(out.succeeded());
        assert_eq!(out.stalls_hit, 2);
        assert_eq!(out.ends_at, s(30));
    }

    #[test]
    fn stall_can_trip_timeout() {
        let plan = FaultPlan::from_events(
            0,
            vec![FaultEvent {
                at: SimTime::from_micros(1_000_000),
                kind: FaultKind::Stall { duration: SimDuration::from_hours(2) },
            }],
        );
        let out = plan.attempt_outcome(
            SimTime::ZERO,
            SimDuration::from_secs(10),
            Some(SimDuration::from_mins(5)),
        );
        assert_eq!(out.failure, Some(AttemptFailure::TimedOut));
        assert_eq!(out.ends_at, SimTime::ZERO + SimDuration::from_mins(5));
    }

    #[test]
    fn corrupt_fails_at_completion() {
        let plan = FaultPlan::from_events(
            0,
            vec![FaultEvent { at: SimTime::from_micros(3_000_000), kind: FaultKind::Corrupt }],
        );
        let out = plan.attempt_outcome(SimTime::ZERO, SimDuration::from_secs(10), None);
        assert_eq!(out.failure, Some(AttemptFailure::Corrupted));
        assert_eq!(out.ends_at, SimTime::ZERO + SimDuration::from_secs(10));
    }

    #[test]
    fn degrade_factor_compounds_inside_window() {
        let plan = FaultPlan::from_events(
            0,
            vec![
                FaultEvent {
                    at: SimTime::ZERO,
                    kind: FaultKind::RateDegrade {
                        factor: 0.5,
                        duration: SimDuration::from_secs(100),
                    },
                },
                FaultEvent {
                    at: SimTime::from_micros(50_000_000),
                    kind: FaultKind::RateDegrade {
                        factor: 0.5,
                        duration: SimDuration::from_secs(100),
                    },
                },
            ],
        );
        assert_eq!(plan.degrade_factor_at(SimTime::from_micros(10_000_000)), 0.5);
        assert_eq!(plan.degrade_factor_at(SimTime::from_micros(60_000_000)), 0.25);
        assert_eq!(plan.degrade_factor_at(SimTime::from_micros(300_000_000)), 1.0);
    }

    #[test]
    fn crash_plans_are_seeded_and_gated_on_pool() {
        let horizon = SimDuration::from_days(30);
        let profile = FaultProfile::node_crashes("farm", 2.0, 4, SimDuration::from_hours(6))
            .with_outages(0.1, SimDuration::from_hours(12));
        let a = FaultPlan::generate(11, horizon, &profile);
        let b = FaultPlan::generate(11, horizon, &profile);
        assert_eq!(a, b);
        let crashes = a.count(|k| matches!(k, FaultKind::NodeCrash { .. }));
        assert!(crashes > 0, "30 days at 2/day must produce crashes");
        for e in a.events() {
            match &e.kind {
                FaultKind::NodeCrash { pool, cpus, .. } => {
                    assert_eq!(pool, "farm");
                    assert_eq!(*cpus, 4);
                }
                FaultKind::PoolOutage { pool, .. } => assert_eq!(pool, "farm"),
                other => panic!("crash-only profile generated {other:?}"),
            }
        }
        // No crash pool: the crash rates are inert and the link-fault part of
        // the plan is unchanged from a profile without crash fields at all.
        let inert = FaultProfile { crash_pool: None, ..profile.clone() };
        assert!(FaultPlan::generate(11, horizon, &inert).is_empty());
        let flaky = FaultPlan::generate(11, horizon, &FaultProfile::flaky());
        let flaky_with_pool = FaultPlan::generate(
            11,
            horizon,
            &FaultProfile { crash_pool: Some("farm".into()), ..FaultProfile::flaky() },
        );
        assert_eq!(flaky, flaky_with_pool, "zero-rate crash draws must not disturb the RNG");
    }

    #[test]
    fn silent_corrupt_taints_without_failing() {
        let plan = FaultPlan::from_events(
            0,
            vec![
                FaultEvent { at: SimTime::from_micros(2_000_000), kind: FaultKind::SilentCorrupt },
                FaultEvent { at: SimTime::from_micros(4_000_000), kind: FaultKind::SilentCorrupt },
            ],
        );
        let out = plan.attempt_outcome(SimTime::ZERO, SimDuration::from_secs(10), None);
        assert!(out.succeeded(), "silent corruption must not fail the attempt");
        assert_eq!(out.ends_at, SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(out.silent_corrupts, 2);
        assert_eq!(out.faults_hit(), 2);
        // An attempt that misses both events is untainted.
        let later =
            plan.attempt_outcome(SimTime::from_micros(5_000_000), SimDuration::from_secs(10), None);
        assert_eq!(later.silent_corrupts, 0);
    }

    #[test]
    fn silent_corrupt_plans_are_seeded_and_rng_stable() {
        let horizon = SimDuration::from_days(30);
        let profile = FaultProfile::silent_corruption(1.5);
        let a = FaultPlan::generate(13, horizon, &profile);
        let b = FaultPlan::generate(13, horizon, &profile);
        assert_eq!(a, b);
        let n = a.count(|k| matches!(k, FaultKind::SilentCorrupt));
        assert!(n > 0, "30 days at 1.5/day must produce silent corruptions");
        assert_eq!(a.len(), n, "silent-corruption-only profile generates only taint events");
        // Silent corruption draws after every other category, so enabling it
        // leaves the rest of the plan untouched: stripping the taint events
        // from a flaky+taint plan recovers the plain flaky plan exactly.
        let flaky = FaultPlan::generate(13, horizon, &FaultProfile::flaky());
        let tainted =
            FaultPlan::generate(13, horizon, &FaultProfile::flaky().with_silent_corruption(1.5));
        let stripped: Vec<FaultEvent> = tainted
            .events()
            .iter()
            .filter(|e| e.kind != FaultKind::SilentCorrupt)
            .cloned()
            .collect();
        assert_eq!(stripped, flaky.events(), "taint draws must not disturb the other categories");
    }

    #[test]
    fn messaging_fault_plans_are_seeded_and_rng_stable() {
        let horizon = SimDuration::from_days(30);
        let profile = FaultProfile::replica_chaos();
        let a = FaultPlan::generate(21, horizon, &profile);
        let b = FaultPlan::generate(21, horizon, &profile);
        assert_eq!(a, b);
        for kind in [
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Partition { heal: SimDuration::ZERO },
        ] {
            let n = a.count(|k| std::mem::discriminant(k) == std::mem::discriminant(&kind));
            assert!(n > 0, "30 chaos days must produce {kind:?} events");
        }
        // The messaging categories draw after every older category, so
        // enabling them leaves the rest of the plan untouched: stripping
        // them from a flaky+messaging plan recovers the flaky plan exactly.
        let flaky = FaultPlan::generate(21, horizon, &FaultProfile::flaky());
        let messaging = FaultPlan::generate(
            21,
            horizon,
            &FaultProfile {
                duplicates_per_day: 3.0,
                reorders_per_day: 3.0,
                partitions_per_day: 1.0,
                mean_partition_heal: SimDuration::from_hours(4),
                ..FaultProfile::flaky()
            },
        );
        let stripped: Vec<FaultEvent> = messaging
            .events()
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    FaultKind::Duplicate | FaultKind::Reorder | FaultKind::Partition { .. }
                )
            })
            .cloned()
            .collect();
        assert_eq!(
            stripped,
            flaky.events(),
            "messaging draws must not disturb the other categories"
        );
    }

    #[test]
    fn partition_windows_sever_and_heal() {
        let s = |secs: u64| SimTime::from_micros(secs * 1_000_000);
        let plan = FaultPlan::from_events(
            0,
            vec![
                FaultEvent {
                    at: s(10),
                    kind: FaultKind::Partition { heal: SimDuration::from_secs(20) },
                },
                // Overlapping partition arriving mid-window extends the
                // outage past the first heal.
                FaultEvent {
                    at: s(25),
                    kind: FaultKind::Partition { heal: SimDuration::from_secs(20) },
                },
            ],
        );
        assert!(!plan.partitioned_at(s(5)));
        assert!(plan.partitioned_at(s(10)));
        assert!(plan.partitioned_at(s(29)));
        assert!(plan.partitioned_at(s(40)));
        assert!(!plan.partitioned_at(s(45)));
        assert_eq!(plan.partition_heals_at(s(12)), s(45));
        assert_eq!(plan.partition_heals_at(s(44)), s(45));
        // Outside any window the link is already up.
        assert_eq!(plan.partition_heals_at(s(45)), s(45));
        assert_eq!(plan.partition_heals_at(s(5)), s(5));
    }

    #[test]
    fn progress_freezes_during_stalls() {
        let s = |secs: u64| SimTime::from_micros(secs * 1_000_000);
        let plan = FaultPlan::from_events(
            0,
            vec![
                FaultEvent {
                    at: s(10),
                    kind: FaultKind::Stall { duration: SimDuration::from_secs(20) },
                },
                // Arrives during the first freeze: extends it sequentially.
                FaultEvent {
                    at: s(20),
                    kind: FaultKind::Stall { duration: SimDuration::from_secs(10) },
                },
            ],
        );
        // Freeze covers [10, 40): only 10 s of the first 30 s are useful.
        assert_eq!(plan.progress_between(SimTime::ZERO, s(30)), SimDuration::from_secs(10));
        // Past the freeze, progress resumes.
        assert_eq!(plan.progress_between(SimTime::ZERO, s(50)), SimDuration::from_secs(20));
        // A window fully before the stall is untouched.
        assert_eq!(plan.progress_between(SimTime::ZERO, s(10)), SimDuration::from_secs(10));
        // Inverse of stalled_duration: 20 s of payload starting at 0 stalls
        // to 50 s of wall clock, and 50 s of wall clock yields 20 s of work.
        let (stalled, _) = plan.stalled_duration(SimTime::ZERO, SimDuration::from_secs(20));
        assert_eq!(stalled, SimDuration::from_secs(50));
        assert_eq!(plan.progress_between(SimTime::ZERO, s(50)), SimDuration::from_secs(20));
    }

    #[test]
    fn nominal_backoff_monotone_and_capped() {
        let policy = RetryPolicy::default();
        let mut prev = SimDuration::ZERO;
        for i in 0..40 {
            let b = policy.nominal_backoff(i);
            assert!(b >= prev, "backoff not monotone at retry {i}");
            assert!(b <= policy.max_backoff);
            prev = b;
        }
        assert_eq!(prev, policy.max_backoff, "backoff should saturate at the cap");
    }

    #[test]
    fn nominal_backoff_saturates_under_extreme_multipliers() {
        // `powi` overflows to `inf` long before retry 1000 with multipliers
        // like these; the backoff must clamp to the cap, not wander through
        // inf/NaN arithmetic.
        let policy = RetryPolicy {
            max_retries: 2000,
            base_backoff: SimDuration::from_secs(30),
            multiplier: f64::MAX,
            max_backoff: SimDuration::from_hours(2),
            jitter: 0.0,
            attempt_timeout: None,
        };
        assert_eq!(policy.nominal_backoff(0), SimDuration::from_secs(30));
        assert_eq!(policy.nominal_backoff(1000), policy.max_backoff);
        assert_eq!(policy.nominal_backoff(u32::MAX), policy.max_backoff);

        // A large-but-finite multiplier whose power still overflows.
        let big = RetryPolicy { multiplier: 1e300, ..policy };
        assert_eq!(big.nominal_backoff(0), SimDuration::from_secs(30));
        assert_eq!(big.nominal_backoff(2), policy.max_backoff);
        assert_eq!(big.nominal_backoff(1000), policy.max_backoff);

        // The regression proper: zero base × overflowed multiplier used to
        // produce 0.0 × inf = NaN, which the old min/fallback chain resolved
        // to `max_backoff`. Zero base must stay zero forever.
        let zero_base = RetryPolicy { base_backoff: SimDuration::ZERO, ..policy };
        assert_eq!(zero_base.nominal_backoff(0), SimDuration::ZERO);
        assert_eq!(zero_base.nominal_backoff(1000), SimDuration::ZERO);
        let mut rng = Rng::seed_from_u64(9);
        assert_eq!(zero_base.backoff(1000, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy { jitter: 0.5, ..RetryPolicy::default() };
        let mut a = Rng::seed_from_u64(4);
        let mut b = Rng::seed_from_u64(4);
        for i in 0..20 {
            let x = policy.backoff(i, &mut a);
            let y = policy.backoff(i, &mut b);
            assert_eq!(x, y);
            assert!(x <= policy.max_backoff);
        }
    }
}
