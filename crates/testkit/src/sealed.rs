//! Byte-level robustness sweeps for sealed on-disk formats.
//!
//! Every durable artifact and wire message in the workspace — metastore
//! catalog snapshots, engine snapshot files, run journals, replica apply
//! journals and sync frames — is a checksummed, length-prefixed ("sealed")
//! `sciflow_core::frame` format whose loader must refuse damaged input
//! rather than decode garbage. The sweep here is the generalization of the
//! metastore's original corruption tests: feed the loader every truncation,
//! every single-bit flip, and a trailing-garbage extension of one valid
//! artifact, and assert it never accepts damage it cannot detect.

/// What the format promises about bytes following the last sealed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailPolicy {
    /// Single-artifact formats (metastore snapshots, one-shot engine
    /// snapshots written through the atomic-rename path): any byte beyond
    /// the seal is damage and loading must fail.
    Reject,
    /// Append-only journals: bytes after the last sealed frame are a torn
    /// tail from a crash mid-append. Recovery must *succeed* by truncating
    /// the tail back to the seal — trusting the garbage is the only failure.
    Recover,
}

/// Assert `load` accepts `clean` and rejects every byte-level corruption of
/// it: truncation at every offset, every single-bit flip, and — per `tail`
/// — trailing garbage. `load` is called on raw bytes; loaders that only
/// take paths should write the bytes to a scratch file inside the closure.
pub fn assert_sealed_roundtrip<T, E: std::fmt::Debug>(
    clean: &[u8],
    mut load: impl FnMut(&[u8]) -> Result<T, E>,
    tail: TailPolicy,
) {
    if let Err(e) = load(clean) {
        panic!("loader must accept the clean artifact, got {e:?}");
    }
    for cut in 0..clean.len() {
        assert!(
            load(&clean[..cut]).is_err(),
            "truncation at {cut}/{} must be rejected",
            clean.len()
        );
    }
    let mut flipped = clean.to_vec();
    for i in 0..clean.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            assert!(load(&flipped).is_err(), "flip of bit {bit} in byte {i} must be rejected");
            flipped[i] ^= 1 << bit;
        }
    }
    let mut extended = clean.to_vec();
    extended.extend_from_slice(b"\0garbage");
    match tail {
        TailPolicy::Reject => assert!(
            load(&extended).is_err(),
            "bytes beyond the seal must be rejected by this format"
        ),
        TailPolicy::Recover => {
            if let Err(e) = load(&extended) {
                panic!("a torn tail must be recovered from, not fatal: {e:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sciflow_core::frame;

    #[test]
    fn the_sweep_passes_a_sound_strict_format() {
        let clean = frame::seal(1, b"hello sealed world");
        let open =
            |bytes: &[u8]| frame::open(bytes).map(|(kind, payload)| (kind, payload.to_vec()));
        assert_sealed_roundtrip(&clean, open, TailPolicy::Reject);
    }

    #[test]
    #[should_panic(expected = "must be rejected")]
    fn the_sweep_catches_a_loader_that_ignores_its_checksum() {
        let no_checksum = |bytes: &[u8]| -> Result<(), String> {
            if bytes.len() < 5 {
                return Err("too short".into());
            }
            Ok(())
        };
        assert_sealed_roundtrip(&frame::seal(1, b"hello"), no_checksum, TailPolicy::Reject);
    }
}
