//! Property-based tests for the storage hierarchy: capacity conservation,
//! HSM correctness against a model, and RAID algebra.

use sciflow_core::units::{DataRate, DataVolume, SimDuration};
use sciflow_storage::{Disk, FileId, Hsm, RaidArray, RaidLevel, TapeLibrary};
use sciflow_testkit::check;

/// Disk usage is conserved across interleaved writes and releases, and
/// capacity is never exceeded.
#[test]
fn disk_usage_is_conserved() {
    check("disk_usage_is_conserved", 64, |g| {
        let ops = g.vec(0..60, |g| (g.any::<bool>(), g.range(1u64..100)));
        let cap = DataVolume::gb(500);
        let mut disk = Disk::new("d", cap, DataRate::mb_per_sec(100.0), DataRate::mb_per_sec(80.0));
        let mut model: u64 = 0;
        for (write, gb) in ops {
            let v = DataVolume::gb(gb);
            if write {
                match disk.write(v) {
                    Ok(_) => model += v.bytes(),
                    Err(_) => assert!(model + v.bytes() > cap.bytes()),
                }
            } else {
                let release = v.min(DataVolume::from_bytes(model));
                disk.release(release);
                model -= release.bytes();
            }
            assert_eq!(disk.used().bytes(), model);
            assert!(disk.used() <= cap);
        }
    });
}

/// Every archived file can be recalled with its exact volume; recalls
/// of unarchived files fail; stored totals add up.
#[test]
fn tape_catalog_is_faithful() {
    check("tape_catalog_is_faithful", 64, |g| {
        let sizes = g.vec(1..30, |g| g.range(1u64..150));
        let mut lib = TapeLibrary::new(
            "silo",
            DataVolume::gb(200),
            1000,
            DataRate::mb_per_sec(30.0),
            SimDuration::from_secs(90),
        );
        let mut total = 0u64;
        for (i, gb) in sizes.iter().enumerate() {
            let v = DataVolume::gb(*gb);
            lib.archive(FileId(i as u64), v).expect("library is huge");
            total += v.bytes();
        }
        assert_eq!(lib.stored().bytes(), total);
        for (i, gb) in sizes.iter().enumerate() {
            let (v, t) = lib.recall(FileId(i as u64)).expect("archived above");
            assert_eq!(v, DataVolume::gb(*gb));
            assert!(t > SimDuration::ZERO);
        }
        assert!(lib.recall(FileId(9999)).is_err());
    });
}

/// HSM: recalls always succeed for stored files; hits are never slower
/// than the same file's cold recall; stats are consistent.
#[test]
fn hsm_hits_beat_misses() {
    check("hsm_hits_beat_misses", 64, |g| {
        let files = g.vec(2..15, |g| g.range(1u64..40));
        let seed = g.any::<u64>();
        let cache = Disk::new(
            "cache",
            DataVolume::gb(60),
            DataRate::mb_per_sec(200.0),
            DataRate::mb_per_sec(150.0),
        );
        let tape = TapeLibrary::new(
            "silo",
            DataVolume::gb(500),
            1000,
            DataRate::mb_per_sec(30.0),
            SimDuration::from_secs(90),
        );
        let mut hsm = Hsm::new(cache, tape);
        for (i, gb) in files.iter().enumerate() {
            hsm.store(FileId(i as u64), DataVolume::gb(*gb)).expect("tape is huge");
        }
        // A deterministic-but-arbitrary access pattern.
        let n = files.len() as u64;
        for k in 0..20u64 {
            let id = FileId((seed.wrapping_add(k * 7)) % n);
            hsm.recall(id).expect("stored above");
        }
        let stats = hsm.stats();
        assert_eq!(stats.hits + stats.misses, 20);
        assert!(stats.hit_rate() >= 0.0 && stats.hit_rate() <= 1.0);
        // Immediately repeated recall of a cacheable file is a hit and is
        // no slower than its previous service time.
        let small = files
            .iter()
            .enumerate()
            .min_by_key(|(_, gb)| **gb)
            .map(|(i, _)| FileId(i as u64))
            .expect("non-empty");
        let first = hsm.recall(small).expect("stored");
        let hits_before = hsm.stats().hits;
        let second = hsm.recall(small).expect("stored");
        assert_eq!(hsm.stats().hits, hits_before + 1, "repeat must hit");
        assert!(second <= first);
    });
}

/// RAID algebra: usable capacity never exceeds raw, tolerance matches
/// the level, and read rate ≥ write rate.
#[test]
fn raid_algebra() {
    check("raid_algebra", 64, |g| {
        let (disks, tb) = (g.range(4u32..64), g.range(1u64..10));
        let disks = disks - disks % 2; // even for RAID 10
        for level in [RaidLevel::Raid0, RaidLevel::Raid10, RaidLevel::Raid5, RaidLevel::Raid6] {
            let a = RaidArray::new(level, disks, DataVolume::tb(tb), DataRate::mb_per_sec(60.0))
                .expect("disks ≥ 4 and even");
            let raw = DataVolume::tb(tb) * disks as u64;
            assert!(a.usable_capacity() <= raw);
            assert!(a.read_rate().bytes_per_sec() >= a.write_rate().bytes_per_sec());
            let tol = a.guaranteed_failure_tolerance();
            match level {
                RaidLevel::Raid0 => assert_eq!(tol, 0),
                RaidLevel::Raid6 => assert_eq!(tol, 2),
                _ => assert_eq!(tol, 1),
            }
        }
    });
}
