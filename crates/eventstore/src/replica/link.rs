//! A simulated message link between two replicas, driven by a seeded
//! [`FaultPlan`].
//!
//! The link is the replication layer's only source of nondeterminism, and it
//! is *replayable* nondeterminism: the same seed and profile produce the
//! same fault timeline, so a convergence failure reproduces exactly from its
//! seed. Faults act on frames **in flight** — a frame is sent, the link
//! clock advances by the per-frame latency, and every fault event whose
//! timestamp the clock has passed is applied to the queue in order:
//!
//! * [`FaultKind::Drop`] discards the most recent in-flight frame;
//! * [`FaultKind::Corrupt`] / [`FaultKind::SilentCorrupt`] flip one
//!   deterministically chosen bit of it (the frame seal catches the flip on
//!   receipt — "silent" corruption is only silent to the transport);
//! * [`FaultKind::Stall`] advances the clock, exposing the queue to later
//!   events;
//! * [`FaultKind::Duplicate`] enqueues a second copy;
//! * [`FaultKind::Reorder`] swaps the two most recent frames;
//! * [`FaultKind::Partition`] makes every send inside its window fail with
//!   [`ReplicaError::Partitioned`] until the window heals.

use std::collections::VecDeque;

use sciflow_core::fault::{FaultKind, FaultPlan};
use sciflow_core::fnv::fnv1a;
use sciflow_core::units::{SimDuration, SimTime};

use super::{ReplicaError, ReplicaResult};

/// Per-link delivery counters, cumulative over the link's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub frames_dropped: u64,
    pub frames_corrupted: u64,
    pub frames_duplicated: u64,
    pub reorders: u64,
    pub stalls: u64,
}

/// One bidirectional link carrying sealed frames between two replicas.
#[derive(Debug, Clone)]
pub struct SyncLink {
    plan: FaultPlan,
    /// Next unapplied fault event in the plan.
    cursor: usize,
    now: SimTime,
    per_frame: SimDuration,
    queue: VecDeque<Vec<u8>>,
    stats: LinkStats,
}

impl SyncLink {
    /// A link with no faults at all.
    pub fn clean() -> Self {
        SyncLink::new(FaultPlan::none())
    }

    /// A link whose deliveries are subjected to `plan`, with a default
    /// 50 ms per-frame latency.
    pub fn new(plan: FaultPlan) -> Self {
        SyncLink {
            plan,
            cursor: 0,
            now: SimTime::ZERO,
            per_frame: SimDuration::from_micros(50_000),
            queue: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }

    /// The link's current simulated clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative delivery counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Whether the link is inside a partition window right now.
    pub fn partitioned(&self) -> bool {
        self.plan.partitioned_at(self.now)
    }

    /// Advance the link clock to `t` (no-op if `t` is in the past),
    /// applying any fault events passed along the way to the in-flight
    /// queue. Between sessions the queue is empty, so this simply consumes
    /// the timeline — including partition windows.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
            self.apply_pending();
        }
    }

    /// Advance the link clock by `dt`.
    pub fn advance(&mut self, dt: SimDuration) {
        self.advance_to(self.now + dt);
    }

    /// If the link is partitioned, advance the clock to the instant the
    /// partition heals (the fixed point over overlapping windows).
    pub fn heal(&mut self) {
        if self.partitioned() {
            self.advance_to(self.plan.partition_heals_at(self.now));
        }
    }

    /// Enqueue one sealed frame for delivery.
    pub(crate) fn send(&mut self, frame: Vec<u8>) -> ReplicaResult<()> {
        if self.plan.partitioned_at(self.now) {
            return Err(ReplicaError::Partitioned {
                heals_at: self.plan.partition_heals_at(self.now),
            });
        }
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        self.queue.push_back(frame);
        self.now = self.now + self.per_frame;
        self.apply_pending();
        Ok(())
    }

    /// Deliver everything currently in flight, in order.
    pub(crate) fn drain(&mut self) -> Vec<Vec<u8>> {
        self.queue.drain(..).collect()
    }

    /// Apply every fault event at or before the current clock to the
    /// in-flight queue. Events are consumed exactly once, in timeline
    /// order, so a replayed session sees the identical sequence.
    fn apply_pending(&mut self) {
        while self.cursor < self.plan.events().len() {
            let event = &self.plan.events()[self.cursor];
            if event.at > self.now {
                break;
            }
            let kind = event.kind.clone();
            self.cursor += 1;
            match kind {
                FaultKind::Drop => {
                    self.stats.frames_dropped += u64::from(self.queue.pop_back().is_some());
                }
                FaultKind::Corrupt | FaultKind::SilentCorrupt => {
                    if let Some(frame) = self.queue.back_mut() {
                        let bits = frame.len() as u64 * 8;
                        let bit = fnv1a(frame) % bits;
                        frame[(bit / 8) as usize] ^= 1 << (bit % 8);
                        self.stats.frames_corrupted += 1;
                    }
                }
                FaultKind::Stall { duration } => {
                    self.now = self.now + duration;
                    self.stats.stalls += 1;
                }
                FaultKind::Duplicate => {
                    if let Some(frame) = self.queue.back().cloned() {
                        self.queue.push_back(frame);
                        self.stats.frames_duplicated += 1;
                    }
                }
                FaultKind::Reorder => {
                    let n = self.queue.len();
                    if n >= 2 {
                        self.queue.swap(n - 1, n - 2);
                        self.stats.reorders += 1;
                    }
                }
                // Partition windows gate `send` directly; everything else
                // (rate degrades, node crashes, outages) belongs to the
                // compute/transfer layers and does not touch message queues.
                _ => {}
            }
        }
    }
}
