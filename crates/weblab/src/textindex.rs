//! Full-text indexing of page subsets.
//!
//! "Of the specific tools that researchers want, full text indexes are
//! highly important, but need not cover the entire Web." This module builds
//! an inverted index over a *chosen subset* of captures (a domain, a time
//! slice, a materialized view) rather than the whole archive: terms →
//! postings with term frequencies, conjunctive queries, and simple
//! tf–idf-style ranking.

use std::collections::{BTreeMap, HashMap};

/// A document identifier within one index (caller-defined: page id,
/// (url, date) ordinal, ...).
pub type DocId = u64;

/// One posting: a document and the term's occurrence count in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    pub doc: DocId,
    pub tf: u32,
}

/// An inverted index over a subset of the archive.
#[derive(Debug, Default)]
pub struct TextIndex {
    /// term → postings sorted by doc id.
    postings: BTreeMap<String, Vec<Posting>>,
    /// doc → token count (for length normalization).
    doc_lengths: HashMap<DocId, u32>,
}

/// Lowercasing alphanumeric tokenizer; everything else separates tokens.
/// Markup angle-bracket content is skipped so HTML indexes by visible text.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_tag = false;
    for c in text.chars() {
        match c {
            '<' => {
                in_tag = true;
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            '>' => in_tag = false,
            _ if in_tag => {}
            c if c.is_alphanumeric() => current.extend(c.to_lowercase()),
            _ => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

impl TextIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn doc_count(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Index one document. Re-indexing the same id replaces nothing — docs
    /// are immutable captures, so the caller must use fresh ids.
    pub fn add_document(&mut self, doc: DocId, text: &str) {
        let tokens = tokenize(text);
        self.doc_lengths.insert(doc, tokens.len() as u32);
        let mut counts: HashMap<String, u32> = HashMap::new();
        for t in tokens {
            *counts.entry(t).or_default() += 1;
        }
        for (term, tf) in counts {
            let list = self.postings.entry(term).or_default();
            match list.binary_search_by_key(&doc, |p| p.doc) {
                Ok(pos) => list[pos].tf += tf, // same capture indexed twice: merge
                Err(pos) => list.insert(pos, Posting { doc, tf }),
            }
        }
    }

    /// Documents containing `term` (exact token match).
    pub fn lookup(&self, term: &str) -> &[Posting] {
        self.postings.get(&term.to_lowercase()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Documents containing *all* query terms, with a tf·idf score, best
    /// first.
    pub fn search(&self, query: &str) -> Vec<(DocId, f64)> {
        let terms: Vec<String> = tokenize(query);
        if terms.is_empty() {
            return Vec::new();
        }
        let n = self.doc_count().max(1) as f64;
        // Intersect postings, accumulate scores.
        let mut scores: HashMap<DocId, (usize, f64)> = HashMap::new();
        for term in &terms {
            let list = self.lookup(term);
            if list.is_empty() {
                return Vec::new(); // conjunctive: a missing term empties it
            }
            let idf = (n / list.len() as f64).ln().max(0.0) + 1.0;
            for p in list {
                let len = *self.doc_lengths.get(&p.doc).unwrap_or(&1) as f64;
                let entry = scores.entry(p.doc).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += p.tf as f64 / len.max(1.0) * idf;
            }
        }
        let mut hits: Vec<(DocId, f64)> = scores
            .into_iter()
            .filter(|(_, (matched, _))| *matched == terms.len())
            .map(|(doc, (_, score))| (doc, score))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits
    }

    /// Total postings held — the index-size statistic for capacity planning
    /// ("need not cover the entire Web").
    pub fn posting_count(&self) -> usize {
        self.postings.values().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextIndex {
        let mut idx = TextIndex::new();
        idx.add_document(1, "<html><body>Pulsars are rotating neutron stars</body></html>");
        idx.add_document(2, "<p>Neutron stars form in supernovae</p>");
        idx.add_document(3, "Social science studies of the web archive");
        idx.add_document(4, "stars stars stars and more stars");
        idx
    }

    #[test]
    fn tokenizer_strips_markup_and_lowercases() {
        let toks = tokenize("<a href=\"http://x\">Link Text</a> 42 foo-bar");
        assert_eq!(toks, vec!["link", "text", "42", "foo", "bar"]);
        assert!(tokenize("<div><span></span></div>").is_empty());
    }

    #[test]
    fn lookup_and_doc_counts() {
        let idx = sample();
        assert_eq!(idx.doc_count(), 4);
        assert_eq!(idx.lookup("neutron").len(), 2);
        assert_eq!(idx.lookup("NEUTRON").len(), 2, "case-insensitive");
        assert!(idx.lookup("quasar").is_empty());
        let stars4 = idx.lookup("stars").iter().find(|p| p.doc == 4).unwrap();
        assert_eq!(stars4.tf, 4);
    }

    #[test]
    fn conjunctive_search_ranks_by_relevance() {
        let idx = sample();
        let hits = idx.search("neutron stars");
        assert_eq!(hits.len(), 2);
        let docs: Vec<DocId> = hits.iter().map(|h| h.0).collect();
        assert!(docs.contains(&1) && docs.contains(&2));
        // A term absent anywhere empties the conjunction.
        assert!(idx.search("neutron quasar").is_empty());
        // Repetition raises the score.
        let star_hits = idx.search("stars");
        assert_eq!(star_hits[0].0, 4, "doc 4 is saturated with the term");
    }

    #[test]
    fn empty_queries_and_indexes() {
        let idx = TextIndex::new();
        assert!(idx.search("anything").is_empty());
        let idx = sample();
        assert!(idx.search("").is_empty());
        assert!(idx.search("<b></b>").is_empty());
    }

    #[test]
    fn posting_count_tracks_size() {
        let idx = sample();
        assert!(idx.posting_count() > 5);
    }

    #[test]
    fn subset_scoped_index_is_smaller_than_full() {
        // The paper's point: index only the subset you study.
        let corpus: Vec<String> =
            (0..50).map(|i| format!("page {i} about topic{} research notes", i % 5)).collect();
        let mut full = TextIndex::new();
        for (i, text) in corpus.iter().enumerate() {
            full.add_document(i as u64, text);
        }
        let mut subset = TextIndex::new();
        for (i, text) in corpus.iter().enumerate().filter(|(i, _)| i % 5 == 0) {
            subset.add_document(i as u64, text);
        }
        assert!(subset.posting_count() * 3 < full.posting_count());
        // And it still answers its scoped queries.
        assert!(!subset.search("topic0").is_empty());
    }
}
