//! # sciflow-cleo
//!
//! The CLEO high-energy-physics pipeline (Section 3 of the paper): runs of
//! collision events, detector simulation, reconstruction,
//! post-reconstruction, ASU column decomposition with hot/warm/cold
//! partitioning, two-pass physics analysis, and offsite Monte-Carlo
//! production staged through personal EventStores.
//!
//! * [`event`] — runs (45–60 min, 15K–300K events), particles, collisions;
//! * [`generator`] — the physics generator (truth events);
//! * [`detector`] — wire-chamber Monte Carlo: tracks → hits (the raw data);
//! * [`reconstruction`] — Hough-style track finding and fitting
//!   ("identification of particle trajectories from the energy levels
//!   recorded by measure wires");
//! * [`postrecon`] — values that "depend on statistics gathered from the
//!   reconstructed data, and so cannot be calculated until after
//!   reconstruction";
//! * [`asu`] — atomic storage units, "the smallest storable sub-object of an
//!   event" (a dozen per event post-reconstruction);
//! * [`partition`] — the hot/warm/cold column-wise split and its I/O
//!   accounting versus a row layout;
//! * [`analysis`] — iterative two-pass selections with provenance;
//! * [`montecarlo`] — per-run MC production → personal EventStore → USB
//!   shipping → collaboration merge;
//! * [`flow`] — Figure 2 as a paper-scale flow graph, plus the CMS
//!   200 MB/s real-time filtering requirement.

pub mod analysis;
pub mod asu;
pub mod detector;
pub mod event;
pub mod fineprov;
pub mod flow;
pub mod generator;
pub mod montecarlo;
pub mod partition;
pub mod postrecon;
pub mod reconstruction;

pub use analysis::{run_analysis, AnalysisJob, AnalysisResult};
pub use asu::{decompose, Asu, AsuKind, EventAsus};
pub use detector::{simulate_event, DetectorConfig, DetectorResponse, Hit};
pub use event::{CollisionEvent, Particle, ParticleKind, Run};
pub use fineprov::{header_scheme_bytes, FineProvenanceStore, ProvRef};
pub use flow::{
    cleo_flow_graph, cleo_slo_preset, cms_filter_required, wilson_crash_profile, CleoFlowParams,
    WILSON_POOL,
};
pub use generator::{generate_event, generate_run, GeneratorConfig};
pub use montecarlo::{produce_mc_run, stage_into_personal_store, McSample};
pub use partition::{default_tiering, hot_kinds, PartitionedStore, ReadStats, RowStore, Tier};
pub use postrecon::{compute_post_recon, PostReconRun, PostReconValues, RunCalibration};
pub use reconstruction::{reconstruct, RecTrack, ReconConfig, ReconstructedEvent};
