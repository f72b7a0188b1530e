//! A generation-tagged free-list slab: O(peak-live) storage for handle-
//! addressed values with unbounded turnover.
//!
//! The engine's event payloads (and anything else that hands out long-lived
//! handles to short-lived values) need three guarantees:
//!
//! 1. **Bounded residency** — storage grows to the peak number of values
//!    live at once, never with the total number ever inserted;
//! 2. **ABA safety** — a stale handle to a slot that has since been recycled
//!    must miss, not hit the slot's new occupant;
//! 3. **Determinism** — slot assignment must be a pure function of the
//!    insert/retire sequence, so replays agree byte-for-byte.
//!
//! Freed slots are reclaimed LIFO (the hottest slot is reused first, which
//! is also the cache-friendliest choice), and every retirement bumps the
//! slot's generation so outstanding [`SlabKey`]s into the previous occupancy
//! go stale.
//!
//! The one unusual verb is the [`Slab::take`]/[`Slab::retire`] split:
//! `take` removes the *value* but leaves the slot claimed, while `retire`
//! frees the *slot*. The scheduler needs exactly that split — a cancelled
//! event's payload is taken immediately, but its slot can only be recycled
//! when the corresponding heap entry pops, since the heap still references
//! the slot by index.

/// Handle to a slab entry: a slot index plus the generation the slot had
/// when the value was inserted. Stale keys (older generation) miss safely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabKey {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

impl SlabKey {
    /// The slot index this key points at (stable for the entry's lifetime).
    pub fn slot(self) -> u32 {
        self.slot
    }

    /// The generation the slot had at insert time.
    pub fn gen(self) -> u32 {
        self.gen
    }
}

crate::wire_struct! {
    struct Entry<T> {
        /// Bumped every time the slot is returned to the free list, so keys
        /// into a previous occupancy no longer match.
        gen: u32,
        /// `None` in a claimed slot is a cancelled event awaiting
        /// [`Slab::retire`], and is restored as exactly that.
        value: Option<T>,
    }
}

crate::wire_struct! {
    /// The slab proper. See the module docs for the residency / ABA / replay
    /// guarantees. Its [`Wire`](crate::frame::Wire) bytes are its fields:
    /// every slot in index order, then the free list in stack order — slot
    /// reuse replays only if that order survives.
    pub struct Slab<T> {
        entries: Vec<Entry<T>>,
        /// Recycled slot indices, claimed LIFO for cache locality.
        free: Vec<u32>,
        /// Most slots ever claimed at once (the backing vector's final length).
        high_water: usize,
    }
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab { entries: Vec::new(), free: Vec::new(), high_water: 0 }
    }

    /// Claim a slot for `value`, recycling a freed slot if one is available.
    pub fn insert(&mut self, value: T) -> SlabKey {
        let slot = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize].value = Some(value);
                i
            }
            None => {
                let i = self.entries.len();
                assert!(i < u32::MAX as usize, "slab exhausted");
                self.entries.push(Entry { gen: 0, value: Some(value) });
                self.high_water = self.high_water.max(self.entries.len());
                i as u32
            }
        };
        SlabKey { slot, gen: self.entries[slot as usize].gen }
    }

    /// Remove and return the value `key` points at, leaving the slot
    /// claimed (it stays out of circulation until [`Slab::retire`]).
    /// Returns `None` if the key is stale or the value was already taken.
    pub fn take(&mut self, key: SlabKey) -> Option<T> {
        let entry = self.entries.get_mut(key.slot as usize)?;
        if entry.gen != key.gen {
            return None;
        }
        entry.value.take()
    }

    /// Free `slot`, returning its value if one was still present. The
    /// generation is bumped whether or not a value remained, so every
    /// outstanding key into this occupancy goes stale.
    pub fn retire(&mut self, slot: u32) -> Option<T> {
        let entry = &mut self.entries[slot as usize];
        let value = entry.value.take();
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(slot);
        value
    }

    /// High-water mark of claimed slots — the residency bound. Stays at the
    /// peak number of simultaneously live values while total insert traffic
    /// grows without bound.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of slots ever claimed.
    pub(crate) fn slot_count(&self) -> usize {
        self.entries.len()
    }

    /// The values present, in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().filter_map(|e| e.value.as_ref())
    }

    /// Whether every slot on the free list exists. Decoded bytes can say
    /// otherwise, and [`Slab::insert`] indexes with what it pops.
    pub(crate) fn free_list_in_range(&self) -> bool {
        self.free.iter().all(|&slot| (slot as usize) < self.entries.len())
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forging hook for the `forged_index_*` tests: no run puts a slot
    /// that does not exist on the free list, so a test has to.
    impl<T> Slab<T> {
        pub(crate) fn forge_free_slot(&mut self, slot: u32) {
            self.free.push(slot);
        }
    }

    #[test]
    fn insert_take_retire_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a.slot(), b.slot());
        assert_eq!(slab.take(a), Some("a"));
        assert_eq!(slab.take(a), None, "second take finds the slot empty");
        // The slot is still claimed: a new insert must not land in it.
        let c = slab.insert("c");
        assert_ne!(c.slot(), a.slot());
        assert_eq!(slab.retire(a.slot()), None, "value was already taken");
        assert_eq!(slab.retire(b.slot()), Some("b"), "retire returns a live value");
    }

    #[test]
    fn retirement_recycles_lifo_and_goes_stale() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.retire(a.slot());
        let b = slab.insert(2);
        assert_eq!(b.slot(), a.slot(), "freed slot is reused first (LIFO)");
        assert_ne!(b.gen(), a.gen(), "recycling bumps the generation");
        assert_eq!(slab.take(a), None, "stale key misses the new occupant");
        assert_eq!(slab.take(b), Some(2), "fresh key still hits");
    }

    #[test]
    fn high_water_tracks_peak_live_not_total_inserted() {
        let mut slab = Slab::new();
        for i in 0..10_000 {
            let k = slab.insert(i);
            slab.retire(k.slot());
        }
        assert_eq!(slab.high_water(), 1, "serial churn needs exactly one slot");
        let keys: Vec<_> = (0..5).map(|i| slab.insert(i)).collect();
        for k in keys {
            slab.retire(k.slot());
        }
        assert_eq!(slab.high_water(), 5, "high water follows the widest burst");
    }

    #[test]
    fn bytes_restore_occupancy_free_order_and_staleness() {
        use crate::frame::{Reader, Wire};
        let mut slab = Slab::new();
        let a = slab.insert(10u32);
        let b = slab.insert(20);
        let c = slab.insert(30);
        slab.take(b); // claimed but empty: a cancelled event's slot
        slab.retire(c.slot());
        let mut bytes = Vec::new();
        slab.put(&mut bytes);
        let mut r = Reader::new(&bytes);
        let mut copy: Slab<u32> = Slab::get(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(copy.take(a), Some(10));
        assert_eq!(copy.take(b), None, "taken slot stays claimed and empty");
        assert_eq!(copy.take(c), None, "retired slot's old key stays stale");
        let d = copy.insert(40);
        assert_eq!(d.slot(), c.slot(), "free list order survives the round-trip");
        assert_eq!(copy.high_water(), 3);
        assert!(copy.free_list_in_range());
        copy.forge_free_slot(3);
        assert!(!copy.free_list_in_range(), "slot 3 of a three-slot slab");
    }

    #[test]
    fn out_of_range_key_misses() {
        let mut slab: Slab<u8> = Slab::new();
        assert_eq!(slab.take(SlabKey { slot: 3, gen: 0 }), None);
    }
}
