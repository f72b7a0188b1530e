//! Allocation budget of the replica's unit path: reading a unit out of the
//! store, encoding it, shipping it in a range frame and committing it at
//! the receiver.
//!
//! This file is its own test binary so that it can install a counting
//! global allocator. The counter is per thread, so tests running beside
//! each other do not count each other's allocations. A call to `alloc` or
//! `realloc` counts as one allocation each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sciflow_core::md5::md5;
use sciflow_core::version::CalDate;
use sciflow_eventstore::replica::{encode_unit, encode_unit_into};
use sciflow_eventstore::{sync_once, FileRecord, Replica, RunRange, StoreTier, SyncLink};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // After the thread's locals are torn down there is nothing to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s guarantees are the caller's.
// Counting touches only a thread-local `Cell` with a const initialiser,
// which neither allocates nor reenters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn record(id: u64) -> FileRecord {
    FileRecord {
        id,
        runs: RunRange::single(1 + id as u32),
        kind: "recon".into(),
        version: "v1".into(),
        site: "Cornell".into(),
        registered: CalDate::new(2005, 6, 1).unwrap(),
        location: format!("/data/recon/{id}"),
        prov_digest: md5(format!("{id}-recon-v1").as_bytes()),
    }
}

const PER_SIDE: u64 = 1_000;

/// Allocations per unit added for one full exchange between two in-memory
/// replicas of 1 000 units each, plus `sealed_content` on both sides:
/// every unit is read and fingerprinted for the summary, read again and
/// shipped, decoded and committed at the receiver, and read twice more for
/// the content. Measured at 32.4 when this ceiling was set, at 39.4 while
/// versions and quarantine registers were `es_meta` text, and at 118.0
/// before units were encoded in place, received bytes reused and meta rows
/// read without copies. Most of what remains is the `FileRecord` strings
/// each read builds and the rows each commit stores (DESIGN.md §14,
/// "Replica unit path").
const CEILING_PER_UNIT: f64 = 35.0;

#[test]
fn a_full_exchange_stays_within_its_allocation_budget() {
    let mut root = Replica::new(1, StoreTier::Collaboration);
    let mut leaf = Replica::new(2, StoreTier::Personal);
    for id in 0..PER_SIDE {
        root.register(&record(id)).unwrap();
        leaf.register(&record(PER_SIDE + id)).unwrap();
    }
    let mut link = SyncLink::clean();
    let (contents, allocs) = allocations(|| {
        let report = sync_once(&mut leaf, &mut root, &mut link).unwrap();
        assert_eq!(report.units_added as u64, 2 * PER_SIDE);
        (root.sealed_content().unwrap(), leaf.sealed_content().unwrap())
    });
    assert_eq!(contents.0, contents.1, "the exchange converged");
    let per_unit = allocs as f64 / (2 * PER_SIDE) as f64;
    eprintln!("{allocs} allocations, {per_unit:.1} per unit added");
    assert!(
        per_unit <= CEILING_PER_UNIT,
        "{per_unit:.1} allocations per unit added, ceiling {CEILING_PER_UNIT}"
    );
}

#[test]
fn encoding_into_a_presized_buffer_allocates_nothing() {
    let mut rep = Replica::new(1, StoreTier::Group);
    rep.register(&record(7)).unwrap();
    rep.quarantine(7, "checksum mismatch").unwrap();
    let unit = rep.unit(7).unwrap().unwrap();
    let want = encode_unit(&unit);
    let mut buf = Vec::with_capacity(3 * want.len());
    buf.extend_from_slice(&want);
    let ((), allocs) = allocations(|| encode_unit_into(&mut buf, &unit));
    assert_eq!(allocs, 0, "encode_unit_into grew or built something");
    assert_eq!(buf[want.len()..], want[..]);
}
