//! A self-contained LZ77-style codec — the workspace's stand-in for gzip.
//!
//! The Internet Archive stores ARC and DAT files "compressed with gzip"; the
//! preload subsystem's first job is to uncompress them. The offline build
//! has no gzip binding, so this codec preserves the properties that matter:
//! a CPU-bound decompression step, a realistic compression ratio on markup
//! text, and framing that detects truncation and corruption.
//!
//! Format: `magic | u64 raw_len | u32 checksum | tokens`, where a token is
//! either a literal run (`0x00, varint len, bytes`) or a back-reference
//! (`0x01, varint distance, varint length`) of at most 64 KiB.

use crate::error::{WebError, WebResult};

const MAGIC: &[u8; 4] = b"SFLZ";
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
const WINDOW: usize = 1 << 15;
const HASH_BITS: u32 = 15;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> WebResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = data
            .get(*pos)
            .ok_or_else(|| WebError::Corrupt { detail: "truncated varint".into() })?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(WebError::Corrupt { detail: "varint overflow".into() });
        }
    }
}

/// A fast rolling checksum (Adler-style) for integrity framing.
fn checksum(data: &[u8]) -> u32 {
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for &byte in data {
        a = (a + byte as u32) % 65_521;
        b = (b + a) % 65_521;
    }
    (b << 16) | a
}

fn hash4(data: &[u8], i: usize) -> usize {
    let x = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (x.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compress `data`.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(data).to_le_bytes());

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut literal_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        if to > from {
            out.push(0x00);
            put_varint(out, (to - from) as u64);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash4(data, i);
        let candidate = head[h];
        head[h] = i;
        let mut match_len = 0usize;
        if candidate != usize::MAX && i - candidate <= WINDOW {
            let max = (data.len() - i).min(MAX_MATCH);
            while match_len < max && data[candidate + match_len] == data[i + match_len] {
                match_len += 1;
            }
        }
        if match_len >= MIN_MATCH {
            flush_literals(&mut out, literal_start, i, data);
            out.push(0x01);
            put_varint(&mut out, (i - candidate) as u64);
            put_varint(&mut out, match_len as u64);
            // Index a few positions inside the match so later matches land.
            let step = (match_len / 8).max(1);
            let mut j = i + 1;
            while j + MIN_MATCH <= data.len() && j < i + match_len {
                head[hash4(data, j)] = j;
                j += step;
            }
            i += match_len;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, data.len(), data);
    out
}

/// The most bytes `tokens` bytes of tokens can decompress to: a token
/// takes at least three bytes and yields at most [`MAX_MATCH`] (a literal
/// run yields fewer bytes than it takes).
fn most_output(tokens: usize) -> usize {
    tokens / 3 * MAX_MATCH
}

/// Decompress a buffer produced by [`compress`], verifying length and
/// checksum. A header that claims more than the tokens can produce, a
/// back-reference longer than [`compress`] writes and a token that would
/// run past the claimed length are all refused before they allocate, and
/// no more is reserved up front than the input's own length: the output
/// grows only as tokens that passed those checks produce it.
pub fn decompress(data: &[u8]) -> WebResult<Vec<u8>> {
    if data.len() < 16 || &data[..4] != MAGIC {
        return Err(WebError::Corrupt { detail: "bad codec magic".into() });
    }
    let raw_len = u64::from_le_bytes(data[4..12].try_into().expect("8 bytes"));
    let want_sum = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes"));
    let raw_len = match usize::try_from(raw_len) {
        Ok(n) if n <= most_output(data.len() - 16) => n,
        _ => {
            return Err(WebError::Corrupt {
                detail: format!("raw length {raw_len} is more than the input can produce"),
            })
        }
    };
    let overrun =
        || WebError::Corrupt { detail: format!("a token runs past the raw length {raw_len}") };
    let mut out = Vec::with_capacity(raw_len.min(data.len()));
    let mut pos = 16usize;
    while pos < data.len() {
        match data[pos] {
            0x00 => {
                pos += 1;
                let len = get_varint(data, &mut pos)? as usize;
                if len > data.len() - pos {
                    return Err(WebError::Corrupt { detail: "literal overruns input".into() });
                }
                if len > raw_len - out.len() {
                    return Err(overrun());
                }
                out.extend_from_slice(&data[pos..pos + len]);
                pos += len;
            }
            0x01 => {
                pos += 1;
                let distance = get_varint(data, &mut pos)? as usize;
                let length = get_varint(data, &mut pos)? as usize;
                if distance == 0 || distance > out.len() || length > MAX_MATCH {
                    return Err(WebError::Corrupt { detail: "bad back-reference".into() });
                }
                if length > raw_len - out.len() {
                    return Err(overrun());
                }
                let start = out.len() - distance;
                for k in 0..length {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
            other => return Err(WebError::Corrupt { detail: format!("unknown token {other}") }),
        }
    }
    if out.len() != raw_len {
        return Err(WebError::Corrupt {
            detail: format!("length mismatch: got {}, header says {raw_len}", out.len()),
        });
    }
    if checksum(&out) != want_sum {
        return Err(WebError::Corrupt { detail: "checksum mismatch".into() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn html_like(n: usize) -> Vec<u8> {
        let mut s = String::new();
        let mut i = 0;
        while s.len() < n {
            s.push_str(&format!(
                "<div class=\"post\"><a href=\"http://site{}.example.org/page{}.html\">link {}</a>\
                 <p>Lorem ipsum dolor sit amet, consectetur adipiscing elit.</p></div>\n",
                i % 37,
                i,
                i
            ));
            i += 1;
        }
        s.into_bytes()
    }

    #[test]
    fn roundtrip_various_inputs() {
        for data in [
            Vec::new(),
            b"a".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            html_like(10_000),
            (0..5000u32).map(|i| (i * 37 % 251) as u8).collect::<Vec<u8>>(),
        ] {
            let packed = compress(&data);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn markup_compresses_well() {
        let data = html_like(100_000);
        let packed = compress(&data);
        let ratio = data.len() as f64 / packed.len() as f64;
        assert!(ratio > 3.0, "compression ratio {ratio}");
    }

    #[test]
    fn incompressible_data_does_not_explode() {
        // Pseudo-random bytes: output stays within ~1% of input.
        let data: Vec<u8> =
            (0..100_000u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u8).collect();
        let packed = compress(&data);
        assert!(packed.len() < data.len() + data.len() / 64 + 64);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corruption_is_detected() {
        let data = html_like(5_000);
        let packed = compress(&data);
        // Flip a payload byte.
        let mut bad = packed.clone();
        let idx = packed.len() / 2;
        bad[idx] ^= 0x01;
        assert!(decompress(&bad).is_err(), "flipped byte accepted");
        // Truncate.
        assert!(decompress(&packed[..packed.len() - 3]).is_err());
        // Bad magic.
        let mut wrong = packed.clone();
        wrong[0] = b'X';
        assert!(decompress(&wrong).is_err());
    }

    #[test]
    fn long_matches_work() {
        let mut data = vec![b'x'; 200_000];
        data.extend_from_slice(b"unique tail");
        let packed = compress(&data);
        assert!(packed.len() < 1000, "run-length case should be tiny: {}", packed.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    /// A header, then `tokens`, with the checksum left at zero.
    fn forged(raw_len: u64, tokens: &[u8]) -> Vec<u8> {
        [&MAGIC[..], &raw_len.to_le_bytes(), &[0; 4], tokens].concat()
    }

    /// A literal `"a"`, then a back-reference of distance 1 and `length`.
    fn a_then_repeat(length: u64) -> Vec<u8> {
        let mut tokens = vec![0x00, 1, b'a', 0x01, 1];
        put_varint(&mut tokens, length);
        tokens
    }

    fn refused(data: &[u8]) -> String {
        match decompress(data) {
            Err(WebError::Corrupt { detail }) => detail,
            other => panic!("forgery not refused as corrupt: {other:?}"),
        }
    }

    /// 26 bytes that claim 16 GiB: the raw length is refused before any
    /// allocation (it used to be reserved whole, and the process aborted).
    #[test]
    fn a_26_byte_forgery_claiming_16_gib_is_refused() {
        let data = forged(1 << 34, &a_then_repeat(1 << 33));
        assert_eq!(data.len(), 26);
        assert!(refused(&data).contains("more than the input can produce"));
        assert!(refused(&forged(u64::MAX, &a_then_repeat(4))).contains("input can produce"));
    }

    /// A back-reference longer than the raw length, or than any the encoder
    /// writes, is refused where it stands instead of growing the output
    /// until the final length check.
    #[test]
    fn an_unbounded_back_reference_is_refused() {
        assert!(refused(&forged(100, &a_then_repeat(1 << 20))).contains("bad back-reference"));
        assert!(refused(&forged(100, &a_then_repeat(1_000))).contains("past the raw length"));
        assert!(refused(&forged(100, &a_then_repeat(99))).contains("checksum"));
        let long_literal = [&[0x00, 3][..], b"abc"].concat();
        assert!(refused(&forged(2, &long_literal)).contains("past the raw length"));
    }

    #[test]
    fn overlapping_backreference() {
        // "abcabcabc..." uses distance < length (classic LZ77 overlap).
        let data = b"abc".repeat(1000);
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }
}
