//! Scheduler memory-residency and cancel-semantics properties, driven
//! through the public engine API.
//!
//! The scheduler stores event payloads in a generation-tagged free-list
//! slab: storage is bounded by the peak number of *pending* events, never by
//! the total number ever scheduled, and a stale [`EventId`] — one whose
//! event already fired, or whose slot has since been recycled by a newer
//! event — cancels as an inert no-op instead of hitting the slot's new
//! occupant. These tests pin both guarantees: a residency regression test on
//! a long chained run, and a chaos workload (seeded off the
//! `FAULT_MATRIX_SEED` matrix entry) proving that showers of stale,
//! double, and already-fired cancels leave the event sequence untouched.

use sciflow_core::engine::{Engine, EventHandler, EventId, Scheduler};
use sciflow_core::rng::Rng;
use sciflow_core::units::{SimDuration, SimTime};
use sciflow_testkit::{derive_seed, matrix_seed};

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// Satellite regression: a run that schedules one event from each event —
/// 100k total, never more than a couple pending — must keep payload-slab
/// residency at the peak-pending bound, not at the total-scheduled count.
/// (The pre-slab scheduler kept every payload slot for the whole run, so
/// this run held 100k dead slots at exit.)
#[test]
fn slab_residency_stays_at_peak_pending_on_a_long_chained_run() {
    struct Chain {
        remaining: u64,
    }
    impl EventHandler for Chain {
        type Event = u64;
        fn handle(&mut self, ev: u64, sched: &mut Scheduler<u64>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule(sched.now() + us(1), ev + 1);
            }
        }
    }
    let mut engine = Engine::new();
    engine.scheduler().schedule(SimTime::ZERO, 0);
    let mut handler = Chain { remaining: 100_000 };
    let stats = engine.run_counted(&mut handler).expect("chain converges");
    assert_eq!(stats.events_handled, 100_001);
    assert!(
        stats.slab_high_water <= stats.peak_pending,
        "slab residency ({}) exceeded the pending-heap high water ({})",
        stats.slab_high_water,
        stats.peak_pending
    );
    assert!(
        stats.slab_high_water <= 2,
        "payload storage must track peak pending (~1), not total scheduled \
         (100_001); got {}",
        stats.slab_high_water
    );
}

/// A seeded workload that fires showers of events while (optionally)
/// spraying inert cancels: every cancel aimed at an already-fired event,
/// every double cancel of a genuinely cancelled event, and every cancel
/// through a key whose slot has been recycled must return `None` and leave
/// the run unperturbed.
struct Chaos {
    rng: Rng,
    /// Payloads in the order they fired.
    fired: Vec<u64>,
    /// Ids of events that already fired: stale by definition, and — given
    /// how heavily the slab recycles under churn — mostly pointing at slots
    /// since reused by live events.
    spent: Vec<(u64, EventId)>,
    /// Events scheduled but not yet fired, cancellable for real.
    live: Vec<(u64, EventId)>,
    /// Payloads genuinely cancelled: they must never fire.
    cancelled: Vec<u64>,
    next_payload: u64,
    remaining: u32,
    /// When set, every handled event also fires the inert-cancel shower.
    /// The shower consumes no RNG draws, so runs with and without it make
    /// identical scheduling decisions.
    stale_cancels: bool,
}

impl Chaos {
    fn new(seed: u64, stale_cancels: bool) -> Self {
        Chaos {
            rng: Rng::seed_from_u64(seed),
            fired: Vec::new(),
            spent: Vec::new(),
            live: Vec::new(),
            cancelled: Vec::new(),
            next_payload: 0,
            remaining: 2_000,
            stale_cancels,
        }
    }
}

impl EventHandler for Chaos {
    type Event = u64;
    fn handle(&mut self, ev: u64, sched: &mut Scheduler<u64>) {
        self.fired.push(ev);
        if let Some(pos) = self.live.iter().position(|&(v, _)| v == ev) {
            let entry = self.live.swap_remove(pos);
            self.spent.push(entry);
        }
        if self.remaining > 0 {
            // Fan out one to three successors at staggered delays.
            let fan = self.rng.gen_range(1..=3u32).min(self.remaining);
            self.remaining -= fan;
            for _ in 0..fan {
                let payload = self.next_payload;
                self.next_payload += 1;
                let delay = us(self.rng.gen_range(1..=9));
                let id = sched.schedule(sched.now() + delay, payload);
                self.live.push((payload, id));
            }
            // Sometimes cancel a pending event for real: the payload comes
            // back and the event never fires.
            if self.live.len() > 1 && self.rng.gen_bool(0.3) {
                let pos = self.rng.gen_range(0..self.live.len());
                let (payload, id) = self.live.swap_remove(pos);
                assert_eq!(
                    sched.cancel(id),
                    Some(payload),
                    "a live event must cancel exactly once"
                );
                self.cancelled.push(payload);
                self.spent.push((payload, id));
                if self.stale_cancels {
                    assert_eq!(sched.cancel(id), None, "double cancel must be inert");
                }
            }
        }
        if self.stale_cancels {
            // Spray cancels at ids whose events already fired or were
            // already cancelled. Their slots have long been recycled by the
            // live events above; a hit would cancel someone else's event.
            let n = self.spent.len();
            for &(_, id) in self.spent.iter().take(8.min(n)) {
                assert_eq!(sched.cancel(id), None, "stale cancel must be inert");
            }
            for &(_, id) in self.spent.iter().rev().take(8.min(n)) {
                assert_eq!(sched.cancel(id), None, "stale cancel must be inert");
            }
        }
    }
}

fn run_chaos(seed: u64, stale_cancels: bool) -> Chaos {
    let mut engine = Engine::new();
    engine.scheduler().schedule(SimTime::ZERO, u64::MAX);
    let mut handler = Chaos::new(seed, stale_cancels);
    let stats = engine.run_counted(&mut handler).expect("chaos converges");
    assert!(
        stats.slab_high_water <= stats.peak_pending,
        "seed {seed}: slab residency ({}) exceeded peak pending ({})",
        stats.slab_high_water,
        stats.peak_pending
    );
    handler
}

/// The hand-picked default matrix entries, mixed with the ambient
/// `FAULT_MATRIX_SEED` so every CI matrix row checks a distinct stream.
fn matrix_seeds() -> Vec<u64> {
    [42u64, 7, 1234, 9001]
        .iter()
        .map(|&s| derive_seed(matrix_seed(42), &format!("engine-slab-{s}")))
        .collect()
}

#[test]
fn stale_double_and_after_fire_cancels_are_inert_across_matrix_seeds() {
    for seed in matrix_seeds() {
        let chaotic = run_chaos(seed, true);
        // No cancelled payload ever fired, and nothing fired twice.
        for payload in &chaotic.cancelled {
            assert!(
                !chaotic.fired.contains(payload),
                "seed {seed}: cancelled payload {payload} fired anyway"
            );
        }
        let mut sorted = chaotic.fired.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), chaotic.fired.len(), "seed {seed}: a payload fired twice");
    }
}

#[test]
fn inert_cancel_showers_never_perturb_the_event_sequence() {
    for seed in matrix_seeds() {
        let clean = run_chaos(seed, false);
        let chaotic = run_chaos(seed, true);
        assert_eq!(
            clean.fired, chaotic.fired,
            "seed {seed}: stale/double cancels changed what fired"
        );
        assert_eq!(
            clean.cancelled, chaotic.cancelled,
            "seed {seed}: stale/double cancels changed what was cancelled"
        );
    }
}
