//! The ARC file format.
//!
//! "The Internet Archive stores Web pages in the ARC file format. The pages
//! are stored in the order received from the Web crawler and the entire file
//! is compressed with gzip. Each compressed ARC file is about 100 MB big."
//!
//! Layout (faithful to the original's shape): a version line, then per
//! record a header line `URL IP-address archive-date content-type length`
//! followed by `length` bytes of content and a newline.

use crate::codec::{compress, decompress};
use crate::error::{WebError, WebResult};

/// One archived page capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArcRecord {
    pub url: String,
    pub ip: String,
    /// Capture timestamp, `YYYYMMDDHHMMSS`.
    pub date: u64,
    pub mime: String,
    pub body: Vec<u8>,
}

const VERSION_LINE: &str = "filedesc://sciflow-arc 0.0.0.0 00000000000000 text/plain 1\n\n";

/// Serialize records into an (uncompressed) ARC stream.
pub fn write_arc(records: &[ArcRecord]) -> WebResult<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(VERSION_LINE.as_bytes());
    for r in records {
        if r.url.contains(' ') || r.ip.contains(' ') || r.mime.contains(' ') {
            return Err(WebError::BadRecord {
                detail: format!("header fields may not contain spaces: {}", r.url),
            });
        }
        out.extend_from_slice(
            format!("{} {} {:014} {} {}\n", r.url, r.ip, r.date, r.mime, r.body.len()).as_bytes(),
        );
        out.extend_from_slice(&r.body);
        out.push(b'\n');
    }
    Ok(out)
}

/// Serialize and compress ("the entire file is compressed with gzip").
pub fn write_arc_compressed(records: &[ArcRecord]) -> WebResult<Vec<u8>> {
    Ok(compress(&write_arc(records)?))
}

fn read_line<'a>(data: &'a [u8], pos: &mut usize) -> WebResult<&'a str> {
    let start = *pos;
    while *pos < data.len() && data[*pos] != b'\n' {
        *pos += 1;
    }
    if *pos >= data.len() {
        return Err(WebError::BadRecord { detail: "unterminated header line".into() });
    }
    let line = std::str::from_utf8(&data[start..*pos])
        .map_err(|_| WebError::BadRecord { detail: "non-utf8 header".into() })?;
    *pos += 1;
    Ok(line)
}

/// Parse an uncompressed ARC stream.
pub fn read_arc(data: &[u8]) -> WebResult<Vec<ArcRecord>> {
    let mut pos = 0usize;
    // Version block: one line plus a blank line.
    let _version = read_line(data, &mut pos)?;
    let blank = read_line(data, &mut pos)?;
    if !blank.is_empty() {
        return Err(WebError::BadRecord { detail: "missing blank line after version".into() });
    }
    let mut records = Vec::new();
    while pos < data.len() {
        let header = read_line(data, &mut pos)?;
        if header.is_empty() {
            continue;
        }
        let fields: Vec<&str> = header.split(' ').collect();
        if fields.len() != 5 {
            return Err(WebError::BadRecord {
                detail: format!("header has {} fields: `{header}`", fields.len()),
            });
        }
        let date: u64 = fields[2]
            .parse()
            .map_err(|_| WebError::BadRecord { detail: format!("bad date `{}`", fields[2]) })?;
        let len: usize = fields[4]
            .parse()
            .map_err(|_| WebError::BadRecord { detail: format!("bad length `{}`", fields[4]) })?;
        // The body and its separator must both fit: `end` indexes the
        // separator.
        let end = pos
            .checked_add(len)
            .filter(|&end| end < data.len())
            .ok_or_else(|| WebError::BadRecord { detail: "body overruns file".into() })?;
        let body = data[pos..end].to_vec();
        pos = end;
        if data[pos] != b'\n' {
            return Err(WebError::BadRecord { detail: "missing record separator".into() });
        }
        pos += 1;
        records.push(ArcRecord {
            url: fields[0].to_string(),
            ip: fields[1].to_string(),
            date,
            mime: fields[3].to_string(),
            body,
        });
    }
    Ok(records)
}

/// Decompress and parse.
pub fn read_arc_compressed(data: &[u8]) -> WebResult<Vec<ArcRecord>> {
    read_arc(&decompress(data)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_records(n: usize) -> Vec<ArcRecord> {
        (0..n)
            .map(|i| ArcRecord {
                url: format!("http://site{}.example.org/page{}.html", i % 5, i),
                ip: format!("10.0.{}.{}", i % 256, (i * 7) % 256),
                date: 20_050_815_000_000 + i as u64,
                mime: "text/html".into(),
                body: format!("<html><body>page {i} body with some text</body></html>")
                    .into_bytes(),
            })
            .collect()
    }

    #[test]
    fn roundtrip_plain_and_compressed() {
        let records = sample_records(20);
        let plain = write_arc(&records).unwrap();
        assert_eq!(read_arc(&plain).unwrap(), records);
        let packed = write_arc_compressed(&records).unwrap();
        assert!(packed.len() < plain.len());
        assert_eq!(read_arc_compressed(&packed).unwrap(), records);
    }

    #[test]
    fn binary_bodies_survive() {
        let mut records = sample_records(2);
        records[0].body = (0..=255u8).collect();
        records[0].body.push(b'\n'); // newline inside body must not confuse parsing
        let plain = write_arc(&records).unwrap();
        assert_eq!(read_arc(&plain).unwrap(), records);
    }

    #[test]
    fn empty_file_roundtrips() {
        let plain = write_arc(&[]).unwrap();
        assert!(read_arc(&plain).unwrap().is_empty());
    }

    #[test]
    fn malformed_inputs_rejected() {
        let records = sample_records(3);
        let plain = write_arc(&records).unwrap();
        // Truncated body.
        assert!(read_arc(&plain[..plain.len() - 10]).is_err());
        // Garbage header count.
        let bad = b"filedesc://x 0 0 t 1\n\nonly three fields\n".to_vec();
        assert!(read_arc(&bad).is_err());
        // A length whose end offset overflows `usize`.
        let forged = b"filedesc://x 0 0 t 1\n\nu i 1 t 18446744073709551615\nbody\n";
        assert!(matches!(read_arc(forged), Err(WebError::BadRecord { .. })));
        // Spaces in URL rejected at write time.
        let mut r = sample_records(1);
        r[0].url = "http://bad url".into();
        assert!(matches!(write_arc(&r), Err(WebError::BadRecord { .. })));
    }

    #[test]
    fn hundred_mb_scale_model_holds_in_miniature() {
        // The paper's ARC files are ~100 MB compressed; ours are miniature
        // but the compressed form must stay well below the raw form.
        let records = sample_records(500);
        let plain = write_arc(&records).unwrap();
        let packed = write_arc_compressed(&records).unwrap();
        assert!((packed.len() as f64) < 0.6 * plain.len() as f64);
    }
}
