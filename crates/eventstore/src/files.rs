//! The data-file format extension that carries provenance.
//!
//! "The version strings and hash are stored in the output stream of each
//! file written using a simple extension to the CLEO data storage system, so
//! that every derived data file carries a summary of its provenance."
//!
//! An [`EsFileHeader`] holds the canonical provenance strings and their MD5
//! digest; [`write_file`] prepends it to a payload and [`read_file`] parses
//! it back. Parsing checks only the framing; whether the digest covers the
//! strings is the judgement of [`EsFileHeader::verify`] and
//! [`EsFileHeader::verify_detailed`], so a string damaged in transit is
//! named by its line.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use sciflow_core::frame::{put_str, put_u32, put_u64, Damage, Reader};
use sciflow_core::md5::{md5_strings, Digest};
use sciflow_core::provenance::ProvenanceRecord;

use crate::error::{EsError, EsResult};

const MAGIC: &[u8; 4] = b"ESF1";

/// The provenance header stored in every EventStore-managed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EsFileHeader {
    /// The canonical provenance strings ("the physicists can view the
    /// strings to see what has changed").
    pub strings: Vec<String>,
    /// MD5 over the strings: "we can detect the majority of usage
    /// discrepancies by comparing the hashes."
    pub digest: Digest,
}

impl EsFileHeader {
    pub fn from_provenance(record: &ProvenanceRecord) -> Self {
        let strings = record.canonical_strings();
        let digest = md5_strings(&strings);
        EsFileHeader { strings, digest }
    }

    /// Recompute the digest from the strings and compare — detects header
    /// tampering or corruption.
    pub fn verify(&self) -> bool {
        md5_strings(&self.strings) == self.digest
    }

    /// Full integrity check against the provenance record this file is
    /// *supposed* to carry: the header's digest must cover its own strings,
    /// and the strings must equal the record's canonical strings. On failure
    /// the returned [`EsError::ProvenanceMismatch`] names the first canonical
    /// string the two sides disagree on — the physicist-readable "what
    /// changed" the paper's version strings exist for.
    pub fn verify_detailed(&self, expected: &ProvenanceRecord) -> EsResult<()> {
        let expected_strings = expected.canonical_strings();
        if let Some(diverged) = first_divergence(&self.strings, &expected_strings) {
            return Err(EsError::ProvenanceMismatch {
                detail: "header strings disagree with the expected provenance".into(),
                diverged: Some(diverged),
            });
        }
        if !self.verify() {
            // Strings agree but the stored digest covers something else:
            // the digest itself was corrupted or tampered with.
            return Err(EsError::ProvenanceMismatch {
                detail: "header digest does not cover its strings".into(),
                diverged: None,
            });
        }
        Ok(())
    }
}

/// First canonical string where `found` and `expected` disagree, rendered
/// `expected ... found ...`; `None` when they match exactly.
fn first_divergence(found: &[String], expected: &[String]) -> Option<String> {
    let mut lines = found.iter().zip(expected).enumerate();
    if let Some((i, (f, e))) = lines.find(|(_, (f, e))| f != e) {
        return Some(format!("line {i}: expected `{e}`, found `{f}`"));
    }
    let (n, m) = (found.len(), expected.len());
    match (found.get(m), expected.get(n)) {
        (_, Some(e)) => Some(format!("line {n}: expected `{e}`, found end of header")),
        (Some(f), _) => Some(format!("line {m}: unexpected trailing `{f}`")),
        (None, None) => None,
    }
}

/// Serialize a payload with its provenance header: magic, string count
/// `u32`, each string as length `u32` and UTF-8, the 16-byte digest, then
/// payload length `u64` and the payload.
pub fn write_file(provenance: &ProvenanceRecord, payload: &[u8]) -> Vec<u8> {
    let header = EsFileHeader::from_provenance(provenance);
    let mut out = Vec::with_capacity(payload.len().saturating_add(256));
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, header.strings.len() as u32);
    for s in &header.strings {
        put_str(&mut out, s);
    }
    out.extend_from_slice(&header.digest.0);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Parse a file produced by [`write_file`]: magic, lengths that stay within
/// the file, UTF-8 strings and no trailing bytes, or
/// [`EsError::BadHeader`]. Returns the header and payload; the digest is
/// not judged here (see [`EsFileHeader::verify_detailed`]).
pub fn read_file(data: &[u8]) -> EsResult<(EsFileHeader, &[u8])> {
    let bad = |damage: Damage| EsError::BadHeader { detail: damage.to_string() };
    let mut r = Reader::new(data);
    if r.take(MAGIC.len()).map_err(bad)? != MAGIC {
        return Err(EsError::BadHeader { detail: "bad magic".into() });
    }
    let n_strings = r.u32().map_err(bad)?;
    if n_strings > 1_000_000 {
        return Err(EsError::BadHeader { detail: "implausible string count".into() });
    }
    let mut strings = Vec::new();
    for _ in 0..n_strings {
        strings.push(r.str().map_err(bad)?);
    }
    let digest = r.take(16).map_err(bad)?.try_into().map(Digest);
    let digest = digest.map_err(|_| EsError::BadHeader { detail: "short digest".into() })?;
    let claimed = r.u64().map_err(bad)?;
    let payload = match usize::try_from(claimed) {
        Ok(len) => r.take(len).map_err(bad)?,
        Err(_) => return Err(EsError::BadHeader { detail: format!("payload of {claimed} bytes") }),
    };
    r.done().map_err(bad)?;
    Ok((EsFileHeader { strings, digest }, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciflow_core::provenance::ProvenanceStep;
    use sciflow_core::version::{CalDate, VersionId};

    fn record() -> ProvenanceRecord {
        let mut r = ProvenanceRecord::new();
        r.push(
            ProvenanceStep::new(
                "ReconProd",
                VersionId::new(
                    "Recon",
                    "Feb13_04_P2",
                    CalDate::new(2004, 3, 12).unwrap(),
                    "Cornell",
                ),
            )
            .with_param("calibration", "cal-2004-02")
            .with_input("raw/run123456"),
        );
        r
    }

    #[test]
    fn roundtrip() {
        let payload = b"event data bytes".to_vec();
        let bytes = write_file(&record(), &payload);
        let (header, got) = read_file(&bytes).unwrap();
        assert_eq!(got, payload.as_slice());
        assert!(header.verify());
        assert_eq!(header.digest, record().digest());
    }

    #[test]
    fn headers_detect_usage_discrepancies() {
        let a = EsFileHeader::from_provenance(&record());
        let mut changed = record();
        changed.push(ProvenanceStep::new(
            "Skim",
            VersionId::new("Skim", "May01_04", CalDate::new(2004, 5, 1).unwrap(), "Cornell"),
        ));
        let b = EsFileHeader::from_provenance(&changed);
        assert_ne!(a.digest, b.digest);
        assert_eq!(a.digest, EsFileHeader::from_provenance(&record()).digest);
    }

    #[test]
    fn corrupted_files_rejected() {
        let bytes = write_file(&record(), b"payload");
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read_file(&bad).is_err());
        // Truncated.
        assert!(read_file(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(7);
        assert!(read_file(&extended).is_err());
        // Tampered digest: structurally sound, so it parses; the digest
        // judgement refuses it.
        let mut tampered = bytes.clone();
        let digest_pos = bytes.len() - b"payload".len() - 8 - 16;
        tampered[digest_pos] ^= 0xff;
        let (header, _) = read_file(&tampered).unwrap();
        assert!(!header.verify());
        assert!(matches!(
            header.verify_detailed(&record()),
            Err(EsError::ProvenanceMismatch { diverged: None, .. })
        ));
    }

    /// A 36-byte file (magic, no strings, digest, length, four payload
    /// bytes) whose length claims a payload of `u64::MAX` bytes, or one more
    /// than the bytes present, is a typed refusal, never an overflow or a
    /// slice past the end.
    #[test]
    fn forged_payload_length_is_a_bad_header() {
        let bytes = write_file(&ProvenanceRecord::new(), b"data");
        assert_eq!(bytes.len(), 36);
        for forged in [u64::MAX, 5] {
            let mut bytes = bytes.clone();
            bytes[24..32].copy_from_slice(&forged.to_le_bytes());
            let err = read_file(&bytes).unwrap_err();
            assert!(matches!(err, EsError::BadHeader { .. }), "length {forged}: {err:?}");
        }
    }

    /// One byte flipped in any provenance string of a written file — what a
    /// damaged transfer leaves — still parses, and checking it against the
    /// record it should carry names that string's line.
    #[test]
    fn a_flipped_byte_in_transit_is_named_by_its_line() {
        let trusted = record();
        let strings = trusted.canonical_strings();
        let bytes = write_file(&trusted, b"payload");
        let mut at = 8; // magic and string count
        for (line, s) in strings.iter().enumerate() {
            at += 4; // its length
            for i in 0..s.len() {
                let mut damaged = bytes.clone();
                // Bit 0 keeps an ASCII byte ASCII, so the string stays UTF-8.
                damaged[at + i] ^= 0x01;
                let (header, payload) = read_file(&damaged).unwrap();
                assert_eq!(payload, b"payload");
                match header.verify_detailed(&trusted) {
                    Err(EsError::ProvenanceMismatch { diverged: Some(d), .. }) => {
                        assert!(d.starts_with(&format!("line {line}:")), "byte {i}: {d}")
                    }
                    other => panic!("line {line} byte {i}: {other:?}"),
                }
            }
            at += s.len();
        }
        assert_eq!(&bytes[at..at + 16], &trusted.digest().0);
    }

    #[test]
    fn verify_detailed_names_the_divergent_string() {
        let trusted = record();
        // Tamper each field of the step in turn; the reported divergence
        // must name the canonical string carrying that field.
        type Tamper = fn() -> ProvenanceRecord;
        let cases: Vec<(&str, Tamper)> = vec![
            ("module=", || {
                let mut r = ProvenanceRecord::new();
                let mut step = record().steps()[0].clone();
                step.module = "SkimProd".into();
                r.push(step);
                r
            }),
            ("version=", || {
                let mut r = ProvenanceRecord::new();
                let mut step = record().steps()[0].clone();
                step.version = VersionId::new(
                    "Recon",
                    "Mar01_04_P3",
                    CalDate::new(2004, 3, 12).unwrap(),
                    "Cornell",
                );
                r.push(step);
                r
            }),
            ("calibration", || {
                let mut r = ProvenanceRecord::new();
                let mut step = record().steps()[0].clone();
                step.params[0].1 = "cal-2004-03".into();
                r.push(step);
                r
            }),
            ("raw/run", || {
                let mut r = ProvenanceRecord::new();
                let mut step = record().steps()[0].clone();
                step.inputs[0] = "raw/run999999".into();
                r.push(step);
                r
            }),
        ];
        for (marker, tamper) in cases {
            let header = EsFileHeader::from_provenance(&tamper());
            let err = header.verify_detailed(&trusted).unwrap_err();
            match err {
                EsError::ProvenanceMismatch { diverged: Some(d), .. } => {
                    assert!(d.contains(marker), "tampered `{marker}` but divergence was: {d}");
                }
                other => panic!("expected a localized ProvenanceMismatch, got {other:?}"),
            }
        }
        // An untampered header passes the detailed check.
        EsFileHeader::from_provenance(&trusted).verify_detailed(&trusted).unwrap();
        // A corrupted digest with intact strings is flagged without a
        // divergent string to name.
        let mut bad_digest = EsFileHeader::from_provenance(&trusted);
        bad_digest.digest.0[0] ^= 0xff;
        match bad_digest.verify_detailed(&trusted).unwrap_err() {
            EsError::ProvenanceMismatch { diverged: None, .. } => {}
            other => panic!("expected an unlocalized ProvenanceMismatch, got {other:?}"),
        }
    }

    /// The `ESF1` bytes of a file, folded into a length and an FNV-1a,
    /// computed before `read_file` and `write_file` moved onto
    /// `frame::Reader` and `put_*`. If this fails the file format changed:
    /// do not update the literals; fix the code.
    #[test]
    fn byte_pin_esf1_file() {
        let bytes = write_file(&record(), b"event data bytes");
        let fold = (bytes.len(), sciflow_core::fnv::fnv1a(&bytes));
        assert_eq!(fold, (183, 0x95eb_576e_2787_566e), "ESF1");
    }

    #[test]
    fn empty_payload_and_empty_provenance() {
        let empty = ProvenanceRecord::new();
        let bytes = write_file(&empty, b"");
        let (header, payload) = read_file(&bytes).unwrap();
        assert!(payload.is_empty());
        assert!(header.strings.is_empty());
        assert!(header.verify());
    }
}
