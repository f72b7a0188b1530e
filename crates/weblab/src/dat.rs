//! The DAT metadata format.
//!
//! "Corresponding to an ARC file, there is a metadata file in the DAT file
//! format, also compressed with gzip. It contains metadata for each page,
//! such as URL, IP address, date and time crawled, and links from the page.
//! The DAT files vary in length, but average about 15 MB."
//!
//! Layout: per record a header line `URL IP date n-links`, then `n-links`
//! lines of outgoing link URLs.

use crate::codec::{compress, decompress};
use crate::error::{WebError, WebResult};

/// Per-page metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatRecord {
    pub url: String,
    pub ip: String,
    /// Crawl timestamp, `YYYYMMDDHHMMSS`.
    pub date: u64,
    /// Outgoing links found on the page.
    pub links: Vec<String>,
}

/// Serialize records (uncompressed).
pub fn write_dat(records: &[DatRecord]) -> WebResult<Vec<u8>> {
    let mut out = Vec::new();
    for r in records {
        if r.url.contains(' ') || r.ip.contains(' ') {
            return Err(WebError::BadRecord {
                detail: format!("fields may not contain spaces: {}", r.url),
            });
        }
        out.extend_from_slice(
            format!("{} {} {:014} {}\n", r.url, r.ip, r.date, r.links.len()).as_bytes(),
        );
        for link in &r.links {
            if link.contains('\n') || link.contains(' ') {
                return Err(WebError::BadRecord { detail: format!("bad link `{link}`") });
            }
            out.extend_from_slice(link.as_bytes());
            out.push(b'\n');
        }
    }
    Ok(out)
}

/// Serialize and compress.
pub fn write_dat_compressed(records: &[DatRecord]) -> WebResult<Vec<u8>> {
    Ok(compress(&write_dat(records)?))
}

/// Parse an uncompressed DAT stream.
pub fn read_dat(data: &[u8]) -> WebResult<Vec<DatRecord>> {
    let text = std::str::from_utf8(data)
        .map_err(|_| WebError::BadRecord { detail: "non-utf8 DAT".into() })?;
    let mut lines = text.split('\n');
    let mut records = Vec::new();
    while let Some(header) = lines.next() {
        if header.is_empty() {
            continue;
        }
        let fields: Vec<&str> = header.split(' ').collect();
        if fields.len() != 4 {
            return Err(WebError::BadRecord {
                detail: format!("header has {} fields: `{header}`", fields.len()),
            });
        }
        let date: u64 = fields[2]
            .parse()
            .map_err(|_| WebError::BadRecord { detail: format!("bad date `{}`", fields[2]) })?;
        let n_links: usize = fields[3]
            .parse()
            .map_err(|_| WebError::BadRecord { detail: format!("bad count `{}`", fields[3]) })?;
        // Every link takes a line, so the input bounds what a count can
        // justify reserving.
        let mut links = Vec::with_capacity(n_links.min(data.len()));
        for _ in 0..n_links {
            let link = lines
                .next()
                .ok_or_else(|| WebError::BadRecord { detail: "missing link line".into() })?;
            links.push(link.to_string());
        }
        records.push(DatRecord {
            url: fields[0].to_string(),
            ip: fields[1].to_string(),
            date,
            links,
        });
    }
    Ok(records)
}

/// Decompress and parse.
pub fn read_dat_compressed(data: &[u8]) -> WebResult<Vec<DatRecord>> {
    read_dat(&decompress(data)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<DatRecord> {
        (0..n)
            .map(|i| DatRecord {
                url: format!("http://site{}.example.org/page{}.html", i % 5, i),
                ip: format!("10.1.{}.{}", i % 256, (i * 3) % 256),
                date: 20_050_815_000_000 + i as u64,
                links: (0..i % 7)
                    .map(|j| format!("http://site{}.example.org/page{}.html", j % 5, j))
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let records = sample(30);
        let plain = write_dat(&records).unwrap();
        assert_eq!(read_dat(&plain).unwrap(), records);
        let packed = write_dat_compressed(&records).unwrap();
        assert_eq!(read_dat_compressed(&packed).unwrap(), records);
    }

    #[test]
    fn linkless_pages_roundtrip() {
        let records = vec![DatRecord {
            url: "http://a.example.org/".into(),
            ip: "10.0.0.1".into(),
            date: 20_050_101_120_000,
            links: vec![],
        }];
        assert_eq!(read_dat(&write_dat(&records).unwrap()).unwrap(), records);
    }

    #[test]
    fn malformed_counts_rejected() {
        // Claims 3 links, provides 1.
        let bad = b"http://a.example.org/ 10.0.0.1 20050101120000 3\nhttp://b.example.org/\n";
        assert!(read_dat(bad).is_err());
        // Non-numeric count.
        let bad = b"http://a.example.org/ 10.0.0.1 20050101120000 x\n";
        assert!(read_dat(bad).is_err());
        // Counts no input can hold: 2^36 links would reserve 1.6 TB, and
        // u64::MAX overflows the capacity.
        for forged in [&b"u i 1 68719476736\n"[..], b"u i 1 18446744073709551615\n"] {
            assert!(matches!(read_dat(forged), Err(WebError::BadRecord { .. })));
        }
    }

    #[test]
    fn dat_is_much_smaller_than_matching_arc() {
        // The paper: ARC ≈ 100 MB, DAT ≈ 15 MB. Check the shape: metadata a
        // small fraction of content for the same pages.
        let n = 200;
        let arcs = crate::arc::write_arc(
            &(0..n)
                .map(|i| crate::arc::ArcRecord {
                    url: format!("http://s{}.example.org/p{}.html", i % 5, i),
                    ip: "10.0.0.1".into(),
                    date: 20_050_815_000_000,
                    mime: "text/html".into(),
                    body: vec![b'x'; 2000],
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let dats = write_dat(&sample(n)).unwrap();
        assert!(
            (dats.len() as f64) < 0.25 * arcs.len() as f64,
            "dat {} vs arc {}",
            dats.len(),
            arcs.len()
        );
    }
}
