//! Property tests for the retry policy and fault-plan determinism, and the
//! differential oracle for the fault-plan index: every query of
//! [`FaultPlan`] is answered by binary search over its sorted timeline, and
//! [`naive`] keeps the whole-timeline scans those searches replaced.

use sciflow_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultProfile, RetryPolicy};
use sciflow_core::rng::Rng;
use sciflow_core::units::{DataRate, DataVolume, SimDuration, SimTime};
use sciflow_simnet::link::NetworkLink;
use sciflow_simnet::profiles::{arecibo_to_ctc, ata_disk};
use sciflow_simnet::transfer::compare_with_faults;
use sciflow_testkit::{
    assert_flow_transfer_conservation, check, matrix_seed, Gen, LossyFlowScenario,
};

/// The plan queries as whole-timeline scans over `plan.events()`: the
/// definitions the indexed queries in `core::fault` must agree with, event for
/// event and bit for bit.
mod naive {
    use sciflow_core::fault::{AttemptFailure, AttemptOutcome, FaultKind, FaultPlan};
    use sciflow_core::units::{SimDuration, SimTime};

    pub fn degrade_factor_at(plan: &FaultPlan, t: SimTime) -> f64 {
        let mut factor = 1.0;
        for e in plan.events() {
            if e.at > t {
                break;
            }
            if let FaultKind::RateDegrade { factor: f, duration } = e.kind {
                if e.at + duration > t {
                    factor *= f;
                }
            }
        }
        factor
    }

    pub fn partitioned_at(plan: &FaultPlan, t: SimTime) -> bool {
        plan.events().iter().take_while(|e| e.at <= t).any(|e| match e.kind {
            FaultKind::Partition { heal } => e.at + heal > t,
            _ => false,
        })
    }

    pub fn partition_heals_at(plan: &FaultPlan, t: SimTime) -> SimTime {
        let mut healed = t;
        loop {
            let mut advanced = false;
            for e in plan.events() {
                if e.at > healed {
                    break;
                }
                if let FaultKind::Partition { heal } = e.kind {
                    if e.at + heal > healed {
                        healed = e.at + heal;
                        advanced = true;
                    }
                }
            }
            if !advanced {
                return healed;
            }
        }
    }

    pub fn stalled_duration(
        plan: &FaultPlan,
        start: SimTime,
        base: SimDuration,
    ) -> (SimDuration, u32) {
        let mut dur = base;
        let mut stalls_hit;
        loop {
            let end = start + dur;
            let mut extension = SimDuration::ZERO;
            stalls_hit = 0u32;
            for e in plan.events() {
                if e.at < start {
                    continue;
                }
                if e.at >= end {
                    break;
                }
                if let FaultKind::Stall { duration } = e.kind {
                    extension += duration;
                    stalls_hit += 1;
                }
            }
            let next = base + extension;
            if next == dur {
                break;
            }
            dur = next;
        }
        (dur, stalls_hit)
    }

    pub fn progress_between(plan: &FaultPlan, start: SimTime, now: SimTime) -> SimDuration {
        let Some(wall) = now.checked_sub(start) else {
            return SimDuration::ZERO;
        };
        let mut frozen = 0u64;
        let mut frozen_until = start.as_micros();
        for e in plan.events() {
            if e.at >= now {
                break;
            }
            if e.at < start {
                continue;
            }
            if let FaultKind::Stall { duration } = e.kind {
                let begin = e.at.as_micros().max(frozen_until);
                let end = begin + duration.as_micros();
                frozen += end.min(now.as_micros()).saturating_sub(begin);
                frozen_until = end;
            }
        }
        wall.saturating_sub(SimDuration::from_micros(frozen))
    }

    pub fn attempt_outcome(
        plan: &FaultPlan,
        start: SimTime,
        base: SimDuration,
        timeout: Option<SimDuration>,
    ) -> AttemptOutcome {
        let (dur, stalls_hit) = stalled_duration(plan, start, base);
        let end = start + dur;
        let first_drop = plan
            .events()
            .iter()
            .find(|e| e.at >= start && e.at < end && e.kind == FaultKind::Drop)
            .map(|e| e.at);
        let corrupted = plan
            .events()
            .iter()
            .any(|e| e.at >= start && e.at < end && e.kind == FaultKind::Corrupt);
        let silent_corrupts = plan
            .events()
            .iter()
            .filter(|e| e.at >= start && e.at < end && e.kind == FaultKind::SilentCorrupt)
            .count() as u32;
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

/// Compare every indexed query with its scan at time `t`, for an activity of
/// `base` starting there and for the wall-clock window `[t, t + base)`.
fn assert_queries_match(
    plan: &FaultPlan,
    t: SimTime,
    base: SimDuration,
    timeout: Option<SimDuration>,
) {
    assert_eq!(
        plan.degrade_factor_at(t).to_bits(),
        naive::degrade_factor_at(plan, t).to_bits(),
        "degrade_factor_at({})",
        t
    );
    assert_eq!(plan.partitioned_at(t), naive::partitioned_at(plan, t), "partitioned_at({})", t);
    assert_eq!(
        plan.partition_heals_at(t),
        naive::partition_heals_at(plan, t),
        "partition_heals_at({})",
        t
    );
    assert_eq!(
        plan.stalled_duration(t, base),
        naive::stalled_duration(plan, t, base),
        "stalled_duration({}, {})",
        t,
        base
    );
    assert_eq!(
        plan.progress_between(t, t + base),
        naive::progress_between(plan, t, t + base),
        "progress_between({}, +{})",
        t,
        base
    );
    assert_eq!(
        plan.attempt_outcome(t, base, timeout),
        naive::attempt_outcome(plan, t, base, timeout),
        "attempt_outcome({}, {}, {:?})",
        t,
        base,
        timeout
    );
}

/// Every time at which some query's answer can change: each event's start
/// and, for the kinds that open a window, its end.
fn edges(plan: &FaultPlan) -> Vec<SimTime> {
    let mut out = Vec::new();
    for e in plan.events() {
        out.push(e.at);
        match e.kind {
            FaultKind::Stall { duration } | FaultKind::RateDegrade { duration, .. } => {
                out.push(e.at + duration)
            }
            FaultKind::Partition { heal } => out.push(e.at + heal),
            _ => {}
        }
    }
    out
}

/// The three generated shapes flows, `simnet`'s faulted transfer leg and the
/// replica link run under: a flaky link, the replication gauntlet, and a
/// flaky link whose plan also carries crashes, outages, silent corruption and
/// long partitions (so windows nest and overlap).
fn generated_profile(which: u8) -> FaultProfile {
    match which % 3 {
        0 => FaultProfile::flaky(),
        1 => FaultProfile::replica_chaos(),
        _ => FaultProfile {
            crashes_per_day: 1.0,
            cpus_per_crash: 2,
            mean_repair: SimDuration::from_hours(2),
            crash_pool: Some("farm".into()),
            degrades_per_day: 12.0,
            mean_degrade: SimDuration::from_hours(6),
            partitions_per_day: 6.0,
            mean_partition_heal: SimDuration::from_hours(9),
            ..FaultProfile::flaky()
        }
        .with_outages(0.2, SimDuration::from_hours(8))
        .with_silent_corruption(3.0),
    }
}

/// One event of a dense hand-made plan: whole seconds in the first 24,
/// durations up to 12 s (zero included), so events coincide and windows
/// nest, touch end to start and overlap in most plans, which generated plans
/// almost never do.
fn dense_event(g: &mut Gen) -> FaultEvent {
    let (kind, at) = (g.range(0u8..8), g.range(0u64..24));
    let (secs, tenths) = (g.range(0u64..12), g.range(1u32..=10));
    let duration = SimDuration::from_secs(secs);
    let kind = match kind {
        0 => FaultKind::Drop,
        1 | 2 => FaultKind::Stall { duration },
        3 => FaultKind::Corrupt,
        4 => FaultKind::SilentCorrupt,
        5 => FaultKind::RateDegrade { factor: tenths as f64 / 10.0, duration },
        6 => FaultKind::Partition { heal: duration },
        _ => FaultKind::NodeCrash { pool: "farm".into(), cpus: tenths, repair: duration },
    };
    FaultEvent { at: SimTime::from_micros(at * 1_000_000), kind }
}

fn arbitrary_policy(g: &mut Gen) -> RetryPolicy {
    let (base, multiplier, cap) = (g.range(1u64..600), g.range(1.0f64..4.0), g.range(60u64..7200));
    RetryPolicy {
        max_retries: g.range(0u32..12),
        base_backoff: SimDuration::from_secs(base),
        multiplier,
        max_backoff: SimDuration::from_secs(cap.max(base)),
        jitter: g.range(0.0f64..1.0),
        attempt_timeout: None,
    }
}

#[test]
fn nominal_backoff_is_monotone_and_bounded() {
    check("nominal_backoff_is_monotone_and_bounded", 64, |g| {
        let policy = arbitrary_policy(g);
        let mut prev = SimDuration::ZERO;
        for i in 0..64u32 {
            let b = policy.nominal_backoff(i);
            assert!(b >= prev, "backoff shrank at retry {}: {} < {}", i, b, prev);
            assert!(b <= policy.max_backoff, "backoff {} exceeds cap {}", b, policy.max_backoff);
            prev = b;
        }
    });
}

#[test]
fn jittered_backoff_is_bounded_and_seed_deterministic() {
    check("jittered_backoff_is_bounded_and_seed_deterministic", 64, |g| {
        let (policy, seed) = (arbitrary_policy(g), g.any::<u64>());
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for i in 0..16u32 {
            let x = policy.backoff(i, &mut a);
            let y = policy.backoff(i, &mut b);
            assert_eq!(x, y, "same seed must draw the same jitter");
            assert!(x <= policy.max_backoff);
        }
    });
}

#[test]
fn fault_plans_replay_identically() {
    check("fault_plans_replay_identically", 64, |g| {
        let seed = g.any::<u64>();
        let horizon = SimDuration::from_days(30);
        let a = FaultPlan::generate(seed, horizon, &FaultProfile::flaky());
        let b = FaultPlan::generate(seed, horizon, &FaultProfile::flaky());
        assert_eq!(a, b);
    });
}

#[test]
fn attempt_outcome_is_pure() {
    check("attempt_outcome_is_pure", 64, |g| {
        let (seed, start_s, base_s) =
            (g.any::<u64>(), g.range(0u64..86_400), g.range(1u64..86_400));
        let plan = FaultPlan::generate(seed, SimDuration::from_days(3), &FaultProfile::flaky());
        let start = SimTime::from_micros(start_s * 1_000_000);
        let base = SimDuration::from_secs(base_s);
        let timeout = Some(SimDuration::from_hours(2));
        assert_eq!(
            plan.attempt_outcome(start, base, timeout),
            plan.attempt_outcome(start, base, timeout)
        );
    });
}

#[test]
fn indexed_queries_match_the_scans_on_generated_plans() {
    check("indexed_queries_match_the_scans_on_generated_plans", 64, |g| {
        let (seed, which, horizon_days) = (g.any::<u64>(), g.range(0u8..3), g.range(1u64..=90));
        let probes = g.vec(24..=24, |g| {
            (g.any::<u64>(), g.range(0u64..3), g.range(0u64..200_000_000_000), g.range(0u8..4))
        });
        let horizon = SimDuration::from_days(horizon_days);
        let plan = FaultPlan::generate(seed, horizon, &generated_profile(which));
        let edges = edges(&plan);
        for (pick, nudge, base_us, shape) in probes {
            // Half the probes sit on, or one microsecond either side of, an
            // edge; the rest fall anywhere up to a fifth past the horizon.
            let t = match edges.get((pick % (2 * edges.len().max(1) as u64)) as usize) {
                Some(edge) => SimTime::from_micros((edge.as_micros() + nudge).saturating_sub(1)),
                None => SimTime::from_micros(pick % (horizon.as_micros() * 6 / 5)),
            };
            // Bases: zero, ending exactly on an edge, or up to ~2.3 days.
            let base = match shape {
                0 => SimDuration::ZERO,
                1 => edges[(pick / 7 % edges.len().max(1) as u64) as usize..]
                    .iter()
                    .find_map(|e| e.checked_sub(t))
                    .unwrap_or(SimDuration::ZERO),
                _ => SimDuration::from_micros(base_us),
            };
            let timeout = (shape == 3).then_some(SimDuration::from_hours(2));
            assert_queries_match(&plan, t, base, timeout);
        }
    });
}

#[test]
fn indexed_queries_match_the_scans_on_dense_plans() {
    check("indexed_queries_match_the_scans_on_dense_plans", 64, |g| {
        let (events, timeout_s) = (g.vec(0..24, dense_event), g.range(1u64..90));
        // `from_events` is handed the events unsorted; ties keep input order.
        let plan = FaultPlan::from_events(7, events.clone());
        let mut sorted = events;
        sorted.sort_by_key(|e| e.at);
        assert_eq!(plan.events(), &sorted[..]);
        assert_eq!(plan.count(|k| matches!(k, FaultKind::Stall { .. })), {
            sorted.iter().filter(|e| matches!(e.kind, FaultKind::Stall { .. })).count()
        });
        // Every whole second until past the last window's end, against bases
        // from zero to longer than the whole plan.
        for t in (0..=40).map(|s| SimTime::from_micros(s * 1_000_000)) {
            for base in (0..=30).step_by(2).map(SimDuration::from_secs) {
                let timeout =
                    (base.as_micros() % 2 == 0).then_some(SimDuration::from_secs(timeout_s));
                assert_queries_match(&plan, t, base, timeout);
            }
        }
    });
}

#[test]
fn same_seed_yields_byte_identical_simreports() {
    check("same_seed_yields_byte_identical_simreports", 64, |g| {
        let seed = g.any::<u64>();
        let scenario = LossyFlowScenario::new(seed);
        let first = scenario.run();
        let second = scenario.run();
        assert_eq!(&first, &second, "replay diverged for seed {}", seed);
        // The counters participate in the equality; make sure the plan is
        // not trivially empty for most seeds by checking totals are sane.
        assert!(
            first.total_volume_lost() <= first.stage(LossyFlowScenario::LINK).unwrap().volume_in
        );
    });
}

/// The faulted network leg of the transfer-vs-shipping verdict, on generated
/// plans, links, volumes and policies: it has a time exactly when the link
/// stage delivered the block, it conserves bytes whether it delivered or gave
/// up, and it replays identically.
#[test]
fn successful_lossy_transfers_conserve_bytes() {
    check("successful_lossy_transfers_conserve_bytes", 64, |g| {
        let horizon = SimDuration::from_days(g.range(1u64..30));
        let plan = FaultPlan::generate(g.any::<u64>(), horizon, &generated_profile(g.any::<u8>()));
        let mut policy = arbitrary_policy(g);
        if g.any::<bool>() {
            policy.attempt_timeout = Some(SimDuration::from_mins(g.range(1u64..600)));
        }
        let link = NetworkLink::new(
            "generated",
            DataRate::mbit_per_sec(g.range(1.0f64..1000.0)),
            SimDuration::from_micros(g.range(0u64..2_000_000)),
        );
        let volume = DataVolume::from_bytes(g.range(1u64..2_000_000_000_000));
        let (media, route) = (ata_disk(), arecibo_to_ctc());
        let run = || compare_with_faults(volume, &link, &plan, policy, &media, &route);
        let first = run();
        let network = first.network.as_ref().expect("a live link runs the leg");
        assert_eq!(first.comparison.network_time.is_some(), network.blocks_out == 1);
        assert_flow_transfer_conservation(network);
        assert_eq!(first, run(), "replay diverged");
    });
}

/// The empty plan is a perfect pipe at every time, and equals a plan built
/// from no events.
#[test]
fn the_empty_plan_answers_every_query() {
    let plan = FaultPlan::none();
    assert_eq!(plan, FaultPlan::from_events(0, Vec::new()));
    for t in [SimTime::ZERO, SimTime::from_micros(1), SimTime::from_micros(u64::MAX / 2)] {
        for base in [SimDuration::ZERO, SimDuration::from_days(400)] {
            assert_queries_match(&plan, t, base, Some(SimDuration::from_hours(1)));
        }
        assert_eq!(plan.degrade_factor_at(t), 1.0);
        assert_eq!(plan.partition_heals_at(t), t);
    }
}

/// A transfer executor's year: one flaky plan of ~4 500 events queried for
/// 200 000 chained attempts, then a year-long lossy flow run to completion
/// twice. Release mode only (`cargo test --release ... -- --ignored`): with
/// whole-timeline scans each attempt walked the plan five times and this
/// took 2.0 s here; indexed it takes 0.02 s.
#[test]
#[ignore = "release-mode scale check, run by the fault-matrix CI job"]
fn a_year_long_plan_serves_a_run_of_attempts() {
    let seed = matrix_seed(42);
    let year = SimDuration::from_days(365);
    let plan = FaultPlan::generate(seed, year, &FaultProfile::flaky());
    assert!((4_000..5_200).contains(&plan.len()), "flaky year has {} events", plan.len());

    // 200 000 attempts of 2.5 minutes of payload each, back to back (a failed
    // one retries from where it failed), cover the whole year.
    let payload = SimDuration::from_secs(150);
    let timeout = Some(SimDuration::from_mins(20));
    let (mut now, mut failed, mut stalls, mut degraded) = (SimTime::ZERO, 0u32, 0u64, 0u32);
    for attempt in 0..200_000u32 {
        let factor = plan.degrade_factor_at(now);
        let base = SimDuration::from_secs_f64(payload.as_secs_f64() / factor);
        let outcome = plan.attempt_outcome(now, base, timeout);
        if attempt % 1_000 == 0 {
            assert_eq!(factor.to_bits(), naive::degrade_factor_at(&plan, now).to_bits());
            assert_eq!(outcome, naive::attempt_outcome(&plan, now, base, timeout));
        }
        failed += u32::from(outcome.failure.is_some());
        stalls += outcome.stalls_hit as u64;
        degraded += u32::from(factor < 1.0);
        now = outcome.ends_at.max(now + SimDuration::from_micros(1));
    }
    assert!(now >= SimTime::ZERO + SimDuration::from_days(340), "attempts ended at {now}");
    assert!(failed > 1_000 && stalls > 1_000 && degraded > 1_000, "{failed} {stalls} {degraded}");

    let flow = LossyFlowScenario {
        blocks: year.as_micros() / SimDuration::from_hours(3).as_micros(),
        profile: FaultProfile::flaky(),
        ..LossyFlowScenario::new(seed)
    };
    assert!(flow.plan().len() > 4_000);
    let report = flow.run();
    let link = report.stage(LossyFlowScenario::LINK).expect("the flow has an uplink");
    assert!(link.retries > 300, "a flaky year retries: {}", link.retries);
    assert_eq!(report, flow.run(), "replay diverged for seed {seed}");
}
