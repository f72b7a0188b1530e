//! The synthetic evolving web: the stand-in for Internet Archive crawls.
//!
//! "Since 1996, the Internet Archive has been collecting a full crawl of the
//! Web every two months." We generate a web of domains and pages with a
//! heavy-tailed link structure, evolve it crawl over crawl (modifications,
//! births, deaths — the "several time slices, so that they can study how
//! things change over time"), and serialize each crawl in the real ARC/DAT
//! layouts.

use sciflow_core::rng::Rng;

use crate::arc::ArcRecord;
use crate::dat::DatRecord;
use crate::error::WebResult;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct WebConfig {
    pub n_domains: usize,
    pub pages_per_domain: usize,
    /// Mean outgoing links per page.
    pub mean_links: usize,
    /// Approximate body size in bytes.
    pub body_bytes: usize,
    /// Fraction of pages whose content changes between crawls.
    pub churn: f64,
    /// Fraction of new pages added per crawl (relative to current size).
    pub growth: f64,
    /// Fraction of pages deleted per crawl.
    pub death: f64,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            n_domains: 8,
            pages_per_domain: 50,
            mean_links: 6,
            body_bytes: 600,
            churn: 0.2,
            growth: 0.05,
            death: 0.02,
        }
    }
}

/// Ground truth for one page in one crawl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageTruth {
    pub url: String,
    pub domain: usize,
    /// Content revision (bumps when the page changes).
    pub revision: u32,
    pub links: Vec<String>,
}

/// One full crawl of the synthetic web.
#[derive(Debug, Clone)]
pub struct CrawlSnapshot {
    /// Crawl timestamp `YYYYMMDDHHMMSS` (crawls are two months apart).
    pub date: u64,
    pub pages: Vec<PageTruth>,
}

impl CrawlSnapshot {
    pub fn page(&self, url: &str) -> Option<&PageTruth> {
        self.pages.iter().find(|p| p.url == url)
    }
}

fn url_for(domain: usize, page: usize) -> String {
    format!("http://site{domain}.example.org/page{page}.html")
}

/// Advance a `YYYYMMDDHHMMSS` stamp by two months, carrying the year.
fn two_months_later(date: u64) -> u64 {
    let ymd = date / 1_000_000;
    let (mut y, mut m, d) = (ymd / 10_000, ymd / 100 % 100, ymd % 100);
    m += 2;
    if m > 12 {
        m -= 12;
        y += 1;
    }
    (y * 10_000 + m * 100 + d) * 1_000_000
}

/// Zipf-flavoured target choice: squaring the uniform deviate concentrates
/// links on low-index (old, popular) pages.
fn pick_target(rng: &mut Rng, n: usize) -> usize {
    let u: f64 = rng.gen();
    ((u * u) * n as f64) as usize % n.max(1)
}

fn make_links(rng: &mut Rng, urls: &[String], mean_links: usize) -> Vec<String> {
    let n = rng.gen_range(0..=mean_links * 2);
    (0..n).map(|_| urls[pick_target(rng, urls.len())].clone()).collect()
}

fn body_for(page: &PageTruth, body_bytes: usize) -> Vec<u8> {
    let mut s =
        format!("<html><head><title>{} rev {}</title></head><body>\n", page.url, page.revision);
    for link in &page.links {
        s.push_str(&format!("<a href=\"{link}\">link</a>\n"));
    }
    while s.len() < body_bytes {
        s.push_str("<p>the quick brown fox jumps over the lazy dog</p>\n");
    }
    s.push_str("</body></html>\n");
    s.into_bytes()
}

/// A synthetic web with its full crawl history.
#[derive(Debug, Clone)]
pub struct SyntheticWeb {
    pub config: WebConfig,
    pub crawls: Vec<CrawlSnapshot>,
}

impl SyntheticWeb {
    /// Generate `n_crawls` two-monthly crawls starting August 1996 (the
    /// Archive's epoch in the paper).
    pub fn generate(config: WebConfig, n_crawls: usize, rng: &mut Rng) -> Self {
        assert!(n_crawls >= 1, "need at least one crawl");
        let mut crawls = Vec::with_capacity(n_crawls);
        // Crawl 0.
        let mut urls: Vec<String> = (0..config.n_domains)
            .flat_map(|d| (0..config.pages_per_domain).map(move |p| url_for(d, p)))
            .collect();
        let mut pages: Vec<PageTruth> = urls
            .iter()
            .enumerate()
            .map(|(i, url)| PageTruth {
                url: url.clone(),
                domain: i / config.pages_per_domain,
                revision: 0,
                links: Vec::new(),
            })
            .collect();
        for p in pages.iter_mut() {
            p.links = make_links(rng, &urls, config.mean_links);
        }
        let mut next_page_id = config.pages_per_domain;
        let mut date = 19_960_801_000_000_u64;
        crawls.push(CrawlSnapshot { date, pages: pages.clone() });

        for _ in 1..n_crawls {
            date = two_months_later(date);
            // Deaths.
            let mut survivors: Vec<PageTruth> =
                pages.into_iter().filter(|_| rng.gen::<f64>() >= config.death).collect();
            // Churn.
            for p in survivors.iter_mut() {
                if rng.gen::<f64>() < config.churn {
                    p.revision += 1;
                }
            }
            // Births.
            let n_new = ((survivors.len() as f64) * config.growth).round() as usize;
            urls = survivors.iter().map(|p| p.url.clone()).collect();
            for _ in 0..n_new {
                let domain = rng.gen_range(0..config.n_domains);
                let url = url_for(domain, next_page_id);
                next_page_id += 1;
                urls.push(url.clone());
                survivors.push(PageTruth { url, domain, revision: 0, links: Vec::new() });
            }
            // Refresh links for changed/new pages.
            for p in survivors.iter_mut() {
                if p.links.is_empty() || rng.gen::<f64>() < config.churn {
                    p.links = make_links(rng, &urls, config.mean_links);
                }
            }
            pages = survivors;
            crawls.push(CrawlSnapshot { date, pages: pages.clone() });
        }
        SyntheticWeb { config, crawls }
    }

    /// Serialize one crawl into compressed (ARC, DAT) file pairs of
    /// `pages_per_file` pages each — the transfer/preload unit.
    pub fn crawl_files(
        &self,
        crawl: usize,
        pages_per_file: usize,
    ) -> WebResult<Vec<(Vec<u8>, Vec<u8>)>> {
        assert!(pages_per_file >= 1, "need at least one page per file");
        let snapshot = &self.crawls[crawl];
        let mut out = Vec::new();
        for chunk in snapshot.pages.chunks(pages_per_file) {
            let arcs: Vec<ArcRecord> = chunk
                .iter()
                .map(|p| ArcRecord {
                    url: p.url.clone(),
                    ip: format!("10.2.{}.{}", p.domain, p.revision % 250 + 1),
                    date: snapshot.date,
                    mime: "text/html".into(),
                    body: body_for(p, self.config.body_bytes),
                })
                .collect();
            let dats: Vec<DatRecord> = chunk
                .iter()
                .map(|p| DatRecord {
                    url: p.url.clone(),
                    ip: format!("10.2.{}.{}", p.domain, p.revision % 250 + 1),
                    date: snapshot.date,
                    links: p.links.clone(),
                })
                .collect();
            out.push((
                crate::arc::write_arc_compressed(&arcs)?,
                crate::dat::write_dat_compressed(&dats)?,
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn web(crawls: usize) -> SyntheticWeb {
        let mut rng = Rng::seed_from_u64(1996);
        SyntheticWeb::generate(WebConfig::default(), crawls, &mut rng)
    }

    #[test]
    fn crawl_zero_has_all_domains_and_pages() {
        let w = web(1);
        let cfg = WebConfig::default();
        assert_eq!(w.crawls[0].pages.len(), cfg.n_domains * cfg.pages_per_domain);
        let domains: std::collections::HashSet<usize> =
            w.crawls[0].pages.iter().map(|p| p.domain).collect();
        assert_eq!(domains.len(), cfg.n_domains);
    }

    #[test]
    fn web_evolves_across_crawls() {
        let w = web(4);
        assert_eq!(w.crawls.len(), 4);
        // Dates advance two months at a time.
        assert!(w.crawls.windows(2).all(|c| c[1].date > c[0].date));
        // Some pages change revision.
        let url = &w.crawls[0].pages[0].url;
        let revs: Vec<Option<u32>> =
            w.crawls.iter().map(|c| c.page(url).map(|p| p.revision)).collect();
        let changed = w.crawls.last().unwrap().pages.iter().filter(|p| p.revision > 0).count();
        assert!(changed > 0, "no churn observed (revs of page0: {revs:?})");
        // Some pages are born.
        let first = w.crawls[0].pages.len();
        let last = w.crawls[3].pages.len();
        assert!(last != first || w.crawls[3].pages.iter().any(|p| p.revision > 0));
    }

    #[test]
    fn link_targets_are_heavy_tailed() {
        let w = web(1);
        let mut indegree = std::collections::HashMap::new();
        for p in &w.crawls[0].pages {
            for l in &p.links {
                *indegree.entry(l.clone()).or_insert(0usize) += 1;
            }
        }
        let mut counts: Vec<usize> = indegree.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top_decile: usize = counts.iter().take(counts.len() / 10).sum();
        assert!(
            top_decile as f64 > 0.3 * total as f64,
            "top 10% of pages should attract >30% of links ({top_decile}/{total})"
        );
    }

    #[test]
    fn crawl_files_roundtrip_through_arc_and_dat() {
        let w = web(2);
        let files = w.crawl_files(1, 64).unwrap();
        assert!(!files.is_empty());
        let mut page_count = 0;
        for (arc_gz, dat_gz) in &files {
            let arcs = crate::arc::read_arc_compressed(arc_gz).unwrap();
            let dats = crate::dat::read_dat_compressed(dat_gz).unwrap();
            assert_eq!(arcs.len(), dats.len());
            for (a, d) in arcs.iter().zip(&dats) {
                assert_eq!(a.url, d.url);
                assert_eq!(a.date, w.crawls[1].date);
                assert!(!a.body.is_empty());
            }
            page_count += arcs.len();
        }
        assert_eq!(page_count, w.crawls[1].pages.len());
    }

    #[test]
    fn crawl_dates_are_valid_calendar_months() {
        assert_eq!(two_months_later(19_960_801_000_000), 19_961_001_000_000);
        assert_eq!(two_months_later(19_961_101_000_000), 19_970_101_000_000);
        assert_eq!(two_months_later(19_961_201_000_000), 19_970_201_000_000);
        let w = web(7);
        for c in &w.crawls {
            let month = c.date / 100_000_000 % 100;
            assert!((1..=12).contains(&month), "bad month in {}", c.date);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = web(3);
        let b = web(3);
        assert_eq!(a.crawls[2].pages, b.crawls[2].pages);
    }
}
