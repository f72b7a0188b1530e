//! # sciflow-weblab
//!
//! The WebLab stack (Section 4 of the paper): organizing Internet-Archive
//! crawls for social-science research.
//!
//! * [`codec`] — a self-contained LZ77 codec (the gzip stand-in);
//! * [`arc`] / [`dat`] — the Archive's ARC content and DAT metadata file
//!   formats, with compressed writers and readers;
//! * [`crawlsim`] — a synthetic evolving web (domains, heavy-tailed links,
//!   churn/birth/death across two-monthly crawls) serialized as ARC/DAT;
//! * [`mod@preload`] — the parallel preload subsystem: decompress, parse, batch
//!   metadata into the relational store, append content to the page store;
//! * [`pagestore`] — the segmented content store;
//! * [`retro`] — the Retro Browser ("browse the Web as it was at a certain
//!   date");
//! * [`graph`] / [`analytics`] — the CSR link graph with PageRank, weakly
//!   connected components, and degree statistics;
//! * [`sample`] — stratified sampling (indexed store vs flat-layout cost);
//! * [`distsim`] — the single-large-machine vs commodity-cluster latency
//!   model behind the ES7000 decision;
//! * [`flow`] — the ingest pipeline at paper scale (250 GB/day over
//!   100 Mb/s; ~1 TB/day preload components).

pub mod analytics;
pub mod arc;
pub mod codec;
pub mod crawlsim;
pub mod dat;
pub mod distsim;
pub mod error;
pub mod flow;
pub mod graph;
pub mod pagestore;
pub mod preload;
pub mod retro;
pub mod sample;
pub mod textindex;

pub use analytics::{graph_stats, pagerank, weakly_connected_components, GraphStats};
pub use arc::{read_arc, read_arc_compressed, write_arc, write_arc_compressed, ArcRecord};
pub use codec::{compress, decompress};
pub use crawlsim::{CrawlSnapshot, PageTruth, SyntheticWeb, WebConfig};
pub use dat::{read_dat, read_dat_compressed, write_dat, write_dat_compressed, DatRecord};
pub use distsim::{compare_sweep, BigMachine, Cluster, Verdict};
pub use error::{WebError, WebResult};
pub use flow::{es7000_outage_profile, weblab_flow_graph, WeblabFlowParams, WEBLAB_POOL};
pub use graph::LinkGraph;
pub use pagestore::PageStore;
pub use preload::{
    create_pages_table, create_pages_table_unindexed, preload, PreloadConfig, PreloadOutput,
    PreloadStats,
};
pub use retro::{RetroBrowser, RetroPage};
pub use sample::{stratified_sample, stratified_sample_flat, StratifiedSample};
pub use textindex::{tokenize, DocId, Posting, TextIndex};
