//! # sciflow-arecibo
//!
//! The Arecibo ALFA pulsar-survey processing pipeline (Section 2 of the
//! paper), built from scratch on synthetic dynamic spectra.
//!
//! The paper's processing chain — "data unpacking, dedispersion, Fourier
//! analysis, harmonic summing, threshold tests to identify candidates,
//! reprocessing of dedispersed time series to signal average at the spin
//! period of a candidate signal, and investigation of the time series for
//! transient signals", plus RFI excision and the cross-pointing
//! meta-analysis — maps onto the modules:
//!
//! * [`spectra`] — synthetic 7-beam dynamic spectra with dispersed pulsars,
//!   transients, and both narrowband and impulsive RFI (ground truth the
//!   real telescope cannot provide);
//! * [`units`] — dispersion measures, the cold-plasma delay, trial ladders;
//! * [`mod@dedisperse`] — trial-DM dedispersion (and the raw-sized intermediate
//!   data product the paper's 30 TB figure comes from);
//! * [`fft`] / [`search`] — from-scratch FFT, power spectra, harmonic
//!   summing, threshold candidate detection;
//! * [`fold`] — signal averaging at candidate periods;
//! * [`singlepulse`] — boxcar matched filtering for transients;
//! * [`rfi`] — channel masks, the zero-DM filter, multi-beam coincidence;
//! * [`meta`] — sky-wide candidate culling and the CTC candidate database;
//! * [`pipeline`] — the per-pointing driver tying it all together, with
//!   provenance and data-product accounting;
//! * [`flow`] — Figure 1 as a paper-scale [`sciflow_core::FlowGraph`].

pub mod dedisperse;
pub mod fft;
pub mod flow;
pub mod fold;
pub mod meta;
pub mod nvo;
pub mod pipeline;
pub mod rfi;
pub mod search;
pub mod singlepulse;
pub mod spectra;
pub mod units;

pub use dedisperse::{best_dm, dedisperse, dedisperse_many};
pub use flow::{
    arecibo_flow_graph, arecibo_observe_preset, ctc_crash_profile, AreciboFlowParams, CTC_POOL,
};
pub use pipeline::{process_beam, process_pointing, PipelineConfig, PointingOutput};
pub use search::{search_series, Candidate, SearchConfig};
pub use spectra::{DynamicSpectrum, ObsConfig, PulsarParams};
pub use units::{dm_trials, Dm, Period};
