//! The execution engine: a deterministic discrete-event core.
//!
//! This layer owns exactly three things — the simulated clock, the event
//! heap, and the run loop — and is generic over *what the events mean*. It
//! never inspects stage kinds, resources, or payload contents; all of that
//! lives in the stage-behavior layer ([`crate::behavior`]) behind an
//! [`EventHandler`]. The split mirrors the workflow-system literature's
//! separation of execution engine from task model: new stage shapes plug in
//! as behaviors without touching the loop below.
//!
//! Determinism contract: events fire in `(time, sequence)` order, where the
//! sequence number records scheduling order. Two runs that schedule the same
//! events in the same order replay identically.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::error::{CoreError, CoreResult};
use crate::frame::{Damage, Reader, Wire};
use crate::slab::{Slab, SlabKey};
use crate::units::SimTime;

/// Handles events popped by [`Engine::run_counted`]. The handler schedules follow-on
/// events through the [`Scheduler`] it is handed.
pub trait EventHandler {
    type Event;
    fn handle(&mut self, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

crate::wire_struct! {
    /// Handle to a scheduled event, usable to cancel it before it fires. The
    /// handle is generation-tagged: payload slots are recycled after an event
    /// fires, and the generation lets a stale handle to a reused slot cancel
    /// nothing instead of killing the slot's new occupant (no ABA).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct EventId {
        pub(crate) slot: u32,
        pub(crate) gen: u32,
    }
}

/// The clock plus the pending-event heap. Handlers use it to read the
/// current time and schedule future events; the engine uses it to advance.
///
/// Payloads live in a free-list [`Slab`]: a slot is claimed at
/// [`Scheduler::schedule`] and recycled when its heap entry pops (fired or
/// found cancelled), so slab residency is bounded by the *peak pending*
/// event count — not by the total number of events ever scheduled, which on
/// million-event runs is orders of magnitude larger.
pub struct Scheduler<E> {
    /// `(time, sequence << 32 | payload slot)`; sequence breaks ties in
    /// scheduling order, which makes the pop order deterministic (and keeps
    /// slot reuse invisible to ordering). Sequence numbers are unique, so
    /// packing the slot into the low bits never affects comparisons — it
    /// just keeps entries at 16 bytes, which is measurable in heap sifts at
    /// stress scale.
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Events scheduled at exactly `now` — the immediate-dispatch fast
    /// path. The clock is monotone and `seq` strictly increases, so this
    /// queue is sorted by `(time, sequence)` by construction and popping
    /// `min(front, heap top)` preserves the global order while immediate
    /// events (every fan-out delivery) skip the heap sift entirely.
    due: VecDeque<(SimTime, u64)>,
    slots: Slab<E>,
    now: SimTime,
    seq: u64,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            due: VecDeque::new(),
            slots: Slab::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Enqueue `ev` to fire at `at`. Events at equal times fire in the order
    /// they were scheduled. The returned [`EventId`] can cancel the event
    /// before it fires.
    pub fn schedule(&mut self, at: SimTime, ev: E) -> EventId {
        // The packed encoding holds 2^32 sequence numbers — two orders of
        // magnitude past the default runaway cap. Fail loudly rather than
        // wrap if a raised cap ever gets there.
        assert!(self.seq <= u32::MAX as u64, "event sequence space exhausted");
        let key = self.slots.insert(ev);
        let entry = (at, self.seq << 32 | key.slot() as u64);
        if at == self.now {
            self.due.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
        self.seq += 1;
        EventId { slot: key.slot(), gen: key.gen() }
    }

    /// Cancel a pending event, returning its payload. A cancelled event never
    /// fires and never advances the clock. Returns `None` if it already fired
    /// (or was already cancelled): the generation tag makes a stale cancel of
    /// a recycled slot a no-op, never a hit on the slot's new occupant.
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        // The slot stays claimed even on a hit: the heap entry still
        // references it by index, so it can only be recycled at pop time.
        self.slots.take(SlabKey { slot: id.slot, gen: id.gen })
    }

    /// High-water mark of the payload slab — the residency bound. Stays at
    /// the peak number of simultaneously pending events while the heap's
    /// total traffic grows without bound.
    pub fn slab_high_water(&self) -> usize {
        self.slots.high_water()
    }

    /// Pending entries across both queues (cancelled ones included).
    fn pending(&self) -> usize {
        self.heap.len() + self.due.len()
    }

    /// Those entries as `(time, sequence, slot)`, in no particular order.
    fn entries(&self) -> impl Iterator<Item = (SimTime, u64, u32)> + '_ {
        let packed = self.heap.iter().map(|Reverse(entry)| entry).chain(&self.due);
        packed.map(|&(at, packed)| (at, packed >> 32, packed as u32))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        // Every popped entry retires its slot — fired or cancelled —
        // bumping the generation so stale handles can't touch the reuse.
        // Ties between the queues are impossible: sequence numbers are
        // unique.
        loop {
            let take_due = match (self.due.front(), self.heap.peek()) {
                (Some(d), Some(Reverse(h))) => d < h,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            let (at, packed) = if take_due {
                self.due.pop_front().expect("front just peeked")
            } else {
                let Reverse(entry) = self.heap.pop().expect("top just peeked");
                entry
            };
            if let Some(ev) = self.slots.retire(packed as u32) {
                return Some((at, ev));
            }
        }
    }

    /// Slots the payload slab has ever claimed.
    pub(crate) fn slab_slots(&self) -> usize {
        self.slots.slot_count()
    }
}

/// Counters from one [`Engine::run_counted`] execution: where the clock
/// stopped plus how much work the loop did getting there. Feeds the
/// `engine` block of [`crate::metrics::SimReport`] when observation is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Time of the last event handled (quiescence).
    pub finished_at: SimTime,
    /// Total events dispatched to the handler (cancelled events excluded).
    pub events_handled: u64,
    /// High-water mark of the pending-event heap, cancelled entries
    /// included — an upper bound on live pending events.
    pub peak_pending: usize,
    /// High-water mark of the payload slab ([`Scheduler::slab_high_water`]):
    /// actual memory residency, bounded by `peak_pending` — never by the
    /// total number of events scheduled.
    pub slab_high_water: usize,
}

/// The run loop: pops events in deterministic order, advances the clock, and
/// dispatches to the handler until the heap drains (or the safety cap trips).
///
/// The loop can also be driven one event at a time through [`Engine::step`],
/// which is how the simulator interleaves snapshot-policy checks with
/// execution; a stepped run and a [`Engine::run_counted`] run of the same
/// schedule are identical, counters included.
pub struct Engine<E> {
    sched: Scheduler<E>,
    max_events: u64,
    /// Events dispatched so far (survives snapshot/resume so the final
    /// [`RunStats`] of a resumed run match the uninterrupted one).
    handled: u64,
    /// High-water mark of the pending heap so far, ditto.
    peak_pending: usize,
}

impl<E> Engine<E> {
    /// An engine with the default runaway-event cap of fifty million.
    pub fn new() -> Self {
        Engine { sched: Scheduler::new(), max_events: 50_000_000, handled: 0, peak_pending: 0 }
    }

    /// Override the runaway-event safety cap.
    pub fn with_max_events(mut self, cap: u64) -> Self {
        self.max_events = cap;
        self
    }

    /// Scheduler access for seeding initial events before [`Engine::run_counted`].
    pub fn scheduler(&mut self) -> &mut Scheduler<E> {
        &mut self.sched
    }

    /// Read-only scheduler access.
    pub(crate) fn sched(&self) -> &Scheduler<E> {
        &self.sched
    }

    /// Cumulative events dispatched so far.
    pub(crate) fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Dispatch the next pending event. Returns `Ok(false)` at quiescence
    /// (nothing left to pop), `Ok(true)` after handling one event.
    pub fn step<H: EventHandler<Event = E>>(&mut self, handler: &mut H) -> CoreResult<bool> {
        self.peak_pending = self.peak_pending.max(self.sched.pending());
        let Some((at, ev)) = self.sched.pop() else {
            return Ok(false);
        };
        self.handled += 1;
        if self.handled > self.max_events {
            return Err(CoreError::InvalidConfig {
                detail: format!("event cap of {} exceeded; flow is diverging", self.max_events),
            });
        }
        self.sched.now = at;
        handler.handle(ev, &mut self.sched);
        self.peak_pending = self.peak_pending.max(self.sched.pending());
        Ok(true)
    }

    /// The counters accumulated so far, as a [`RunStats`]. Meaningful once
    /// the loop has drained (or at any stepping pause).
    pub fn stats(&self) -> RunStats {
        RunStats {
            finished_at: self.sched.now,
            events_handled: self.handled,
            peak_pending: self.peak_pending,
            slab_high_water: self.sched.slab_high_water(),
        }
    }

    /// Run to quiescence, counting events handled and the peak size of the
    /// pending heap (see [`RunStats`]).
    pub fn run_counted<H: EventHandler<Event = E>>(
        mut self,
        handler: &mut H,
    ) -> CoreResult<RunStats> {
        while self.step(handler)? {}
        Ok(self.stats())
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A mid-run engine as snapshot bytes: the clock and the run's cumulative
/// counters, the pending entries as `(time, sequence, slot)` triples in
/// ascending order, then the payload slab. Heap layout depends on push/pop
/// history, but pop order is a pure function of the sorted set, so an
/// engine rebuilt from it replays identically. The event cap is
/// configuration and is not written.
impl<E: Wire> Engine<E> {
    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        let s = &self.sched;
        s.now.put(out);
        s.seq.put(out);
        self.handled.put(out);
        self.peak_pending.put(out);
        let mut pending: Vec<(SimTime, u64, u32)> = s.entries().collect();
        pending.sort_unstable();
        pending.put(out);
        s.slots.put(out);
    }

    pub(crate) fn load(r: &mut Reader, max_events: u64) -> Result<Self, Damage> {
        let (now, seq) = (SimTime::get(r)?, u64::get(r)?);
        let (handled, peak_pending) = (u64::get(r)?, usize::get(r)?);
        // Everything restores into the heap; the due queue refills as the
        // resumed run schedules.
        let pending: Vec<(SimTime, u64, u32)> = Wire::get(r)?;
        let heap =
            pending.into_iter().map(|(at, seq, slot)| Reverse((at, seq << 32 | slot as u64)));
        let sched = Scheduler {
            heap: heap.collect(),
            due: VecDeque::new(),
            slots: Slab::get(r)?,
            now,
            seq,
        };
        Ok(Engine { sched, max_events, handled, peak_pending })
    }

    /// Whether every slot a pending entry or the free list names exists in
    /// the slab: true of any engine that ran, not of one decoded from
    /// bytes, and [`Scheduler::pop`] and [`Scheduler::schedule`] index.
    pub(crate) fn slots_in_range(&self) -> bool {
        let s = &self.sched;
        let slots = s.slots.slot_count();
        s.slots.free_list_in_range() && s.entries().all(|(_, _, slot)| (slot as usize) < slots)
    }

    /// The payloads still pending, in slot order.
    pub(crate) fn pending_events(&self) -> impl Iterator<Item = &E> {
        self.sched.slots.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::SimDuration;

    /// Forging hooks for the `forged_index_*` tests: no run makes a pending
    /// entry or a free-list slot point outside the slab, so a test has to.
    impl<E> Engine<E> {
        pub(crate) fn forge_pending_slot(&mut self, slot: u32) {
            let s = &mut self.sched;
            s.heap.push(Reverse((s.now, s.seq << 32 | slot as u64)));
            s.seq += 1;
        }

        pub(crate) fn forge_free_slot(&mut self, slot: u32) {
            self.sched.slots.forge_free_slot(slot);
        }
    }

    /// A handler that records firing order and chains follow-up events.
    struct Recorder {
        fired: Vec<(u64, u32)>,
    }

    impl EventHandler for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
            self.fired.push((sched.now().as_micros(), ev));
            if ev == 1 {
                // Chain one event at the same timestamp and one later.
                sched.schedule(sched.now(), 10);
                sched.schedule(sched.now() + SimDuration::from_secs(1), 11);
            }
        }
    }

    #[test]
    fn events_fire_in_time_then_schedule_order() {
        let mut engine = Engine::new();
        let t = SimTime::from_micros;
        engine.scheduler().schedule(t(5), 2);
        engine.scheduler().schedule(t(1), 1);
        engine.scheduler().schedule(t(5), 3); // same time as `2`, scheduled later
        let mut h = Recorder { fired: Vec::new() };
        let end = engine.run_counted(&mut h).unwrap().finished_at;
        // `1` fires first, chains `10` (same instant) and `11` (at 1 s).
        assert_eq!(h.fired, vec![(1, 1), (1, 10), (5, 2), (5, 3), (1_000_001, 11)]);
        assert_eq!(end, t(1_000_001));
    }

    #[test]
    fn cancelled_events_never_fire_nor_advance_the_clock() {
        let mut engine = Engine::new();
        let t = SimTime::from_micros;
        engine.scheduler().schedule(t(1), 1);
        let doomed = engine.scheduler().schedule(t(50), 2);
        engine.scheduler().schedule(t(3), 3);
        assert_eq!(engine.scheduler().cancel(doomed), Some(2));
        assert_eq!(engine.scheduler().cancel(doomed), None, "double cancel yields nothing");
        let mut h = Recorder { fired: Vec::new() };
        let end = engine.run_counted(&mut h).unwrap().finished_at;
        assert_eq!(h.fired, vec![(1, 1), (1, 10), (3, 3), (1_000_001, 11)]);
        assert_eq!(end, t(1_000_001), "clock never reached the cancelled event's time");
    }

    #[test]
    fn event_cap_stops_runaway_chains() {
        struct Loops;
        impl EventHandler for Loops {
            type Event = ();
            fn handle(&mut self, _ev: (), sched: &mut Scheduler<()>) {
                sched.schedule(sched.now(), ());
            }
        }
        let mut engine = Engine::new().with_max_events(100);
        engine.scheduler().schedule(SimTime::ZERO, ());
        assert!(matches!(engine.run_counted(&mut Loops), Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn run_counted_reports_handled_and_peak_pending() {
        let mut engine = Engine::new();
        let t = SimTime::from_micros;
        engine.scheduler().schedule(t(5), 2);
        engine.scheduler().schedule(t(1), 1);
        engine.scheduler().schedule(t(5), 3);
        let mut h = Recorder { fired: Vec::new() };
        let stats = engine.run_counted(&mut h).unwrap();
        // 3 seeded + 2 chained by event `1`.
        assert_eq!(stats.events_handled, 5);
        assert_eq!(stats.finished_at, t(1_000_001));
        // After `1` fires, events 2, 3, 10, 11 are all pending at once.
        assert_eq!(stats.peak_pending, 4);
        assert!(stats.slab_high_water <= stats.peak_pending);
    }

    #[test]
    fn slab_high_water_tracks_peak_pending_not_total_scheduled() {
        // A long strictly-chained run: every event schedules exactly one
        // follow-up, so at most two slots are ever live while tens of
        // thousands of events flow through the scheduler. The slab must
        // stay at the peak-pending bound — the payload-leak regression.
        struct Chain {
            left: u64,
        }
        impl EventHandler for Chain {
            type Event = u64;
            fn handle(&mut self, ev: u64, sched: &mut Scheduler<u64>) {
                if self.left > 0 {
                    self.left -= 1;
                    sched.schedule(sched.now() + SimDuration::from_secs(1), ev + 1);
                }
            }
        }
        let mut engine = Engine::new();
        engine.scheduler().schedule(SimTime::ZERO, 0);
        let stats = engine.run_counted(&mut Chain { left: 49_999 }).unwrap();
        assert_eq!(stats.events_handled, 50_000);
        assert!(
            stats.slab_high_water <= stats.peak_pending,
            "slab residency {} exceeds peak pending {}",
            stats.slab_high_water,
            stats.peak_pending
        );
        assert!(
            stats.slab_high_water <= 2,
            "chained run must recycle slots, not leak one per event (high water {})",
            stats.slab_high_water
        );
    }

    #[test]
    fn stale_cancel_of_a_reused_slot_is_inert() {
        // Event 1 schedules event 2 and keeps its id. When 2 fires its slot
        // is recycled; event 2 schedules event 3 into that same slot. The
        // stale handle to 2 must cancel nothing — 3 still fires.
        struct Reuse {
            stale: Option<EventId>,
            fired: Vec<u32>,
        }
        impl EventHandler for Reuse {
            type Event = u32;
            fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
                self.fired.push(ev);
                match ev {
                    1 => {
                        self.stale =
                            Some(sched.schedule(sched.now() + SimDuration::from_secs(1), 2));
                    }
                    2 => {
                        let fresh = sched.schedule(sched.now() + SimDuration::from_secs(1), 3);
                        let stale = self.stale.take().expect("event 1 stored its handle");
                        assert_eq!(
                            stale.slot, fresh.slot,
                            "the freed slot is recycled immediately (LIFO free list)"
                        );
                        assert_ne!(stale.gen, fresh.gen, "recycling bumps the generation");
                        assert_eq!(sched.cancel(stale), None, "stale cancel is a no-op");
                        assert_eq!(sched.cancel(stale), None, "double stale cancel too");
                    }
                    _ => {}
                }
            }
        }
        let mut engine = Engine::new();
        engine.scheduler().schedule(SimTime::ZERO, 1);
        let mut h = Reuse { stale: None, fired: Vec::new() };
        engine.run_counted(&mut h).unwrap();
        assert_eq!(h.fired, vec![1, 2, 3], "the reused slot's occupant must survive");
    }

    #[test]
    fn cancel_after_fire_is_inert() {
        // An id whose event already fired (slot recycled, maybe re-occupied
        // later) must never cancel anything.
        struct Tail {
            first: Option<EventId>,
        }
        impl EventHandler for Tail {
            type Event = u32;
            fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
                if ev == 9 {
                    let first = self.first.take().expect("seeded before run");
                    assert_eq!(sched.cancel(first), None, "cancel after fire yields nothing");
                }
            }
        }
        let mut engine = Engine::new();
        let t = SimTime::from_micros;
        let first = engine.scheduler().schedule(t(1), 5);
        engine.scheduler().schedule(t(2), 9);
        engine.run_counted(&mut Tail { first: Some(first) }).unwrap();
    }

    #[test]
    fn stepped_run_equals_run_counted_with_a_mid_run_roundtrip_through_bytes() {
        let build = || {
            let mut engine = Engine::new();
            let t = SimTime::from_micros;
            engine.scheduler().schedule(t(5), 2);
            engine.scheduler().schedule(t(1), 1);
            engine.scheduler().schedule(t(5), 3);
            engine
        };
        let mut h_whole = Recorder { fired: Vec::new() };
        let whole = build().run_counted(&mut h_whole).unwrap();

        let mut engine = build();
        let mut h_step = Recorder { fired: Vec::new() };
        let mut steps = 0;
        loop {
            if steps == 2 {
                // Save the engine mid-run and rebuild it from the bytes, as
                // a resume would.
                let mut bytes = Vec::new();
                engine.save(&mut bytes);
                let mut r = Reader::new(&bytes);
                engine = Engine::load(&mut r, 50_000_000).unwrap();
                r.done().unwrap();
                assert!(engine.slots_in_range());
            }
            if !engine.step(&mut h_step).unwrap() {
                break;
            }
            steps += 1;
        }
        assert_eq!(h_step.fired, h_whole.fired, "stepped run diverged");
        assert_eq!(engine.stats(), whole, "counters diverged across the roundtrip");
    }

    #[test]
    fn empty_engine_finishes_at_time_zero() {
        let engine: Engine<()> = Engine::default();
        struct Never;
        impl EventHandler for Never {
            type Event = ();
            fn handle(&mut self, _: (), _: &mut Scheduler<()>) {
                unreachable!("no events were scheduled")
            }
        }
        assert_eq!(engine.run_counted(&mut Never).unwrap().finished_at, SimTime::ZERO);
    }
}
