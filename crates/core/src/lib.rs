//! # sciflow-core
//!
//! Core abstractions for modeling, executing and analyzing large-scale
//! scientific data flows, reproducing the framework implicit in
//! *"Three Case Studies of Large-Scale Data Flows"* (Arms et al., Cornell,
//! ICDE Workshops 2006).
//!
//! The paper surveys three production workflows — the Arecibo ALFA pulsar
//! survey, the CLEO high-energy-physics experiment, and the WebLab Internet
//! Archive project — that share a common shape: massive raw data, expensive
//! processing pipelines, and world-wide dissemination of derived products.
//! This crate provides the shared vocabulary those workflows are expressed
//! in:
//!
//! * [`units`] — data volumes, data rates, and simulated time;
//! * [`graph`] — typed DAGs of sources, processing stages, transfers,
//!   filters and archives (the shape of the paper's Figures 1 and 2);
//! * [`spec`] — a declarative builder ([`spec::FlowSpec`]) that wires those
//!   DAGs by stage name, used by all three case-study crates;
//! * [`compiled`] — the typed, id-indexed IR between authoring and
//!   execution: [`compiled::compile`] interns every stage, pool and channel
//!   name into dense integer ids (CSR adjacency, per-stage policy tables),
//!   so the run loop never touches a `String`; names survive in side tables
//!   resolved at report/trace render time;
//! * [`sim`] — a discrete-event simulator that executes a compiled flow
//!   against shared CPU pools and reports throughput, backlog, utilisation
//!   and instantaneous storage; it is a thin orchestrator over three layers:
//!   [`engine`] (the deterministic event loop, with event payloads in a
//!   generation-tagged [`slab::Slab`] whose residency is bounded by peak
//!   pending events), [`behavior`] (per-kind stage semantics behind the
//!   [`behavior::StageBehavior`] trait), and [`resource`] (shared pools and
//!   channels, served fair share);
//! * [`fault`] — seeded, replayable fault timelines (drops, stalls,
//!   corruption, rate degradation) and bounded retry/backoff policies that
//!   the simulator's `Transfer` stages ride out, `simnet`'s faulted
//!   transfer-vs-shipping verdict included;
//! * [`genflow`] — a seeded random flow-graph generator with six named
//!   archetypes (the "workload zoo"); the property-test suite runs the flow
//!   invariants against hundreds of generated graphs per seed;
//! * [`version`] and [`provenance`] — CLEO-style version identifiers and
//!   MD5-hashed provenance records that travel with every derived product;
//! * [`md5`] — a from-scratch RFC 1321 implementation used by the provenance
//!   system.
//!
//! ## Quick example
//!
//! ```
//! use sciflow_core::sim::{CpuPool, FlowSim};
//! use sciflow_core::spec::{FlowSpec, SourceSpec, TransferSpec};
//! use sciflow_core::units::{DataRate, DataVolume, SimDuration};
//!
//! // A one-week Arecibo observing block flowing to the Cornell Theory Center.
//! let graph = FlowSpec::new()
//!     .source(
//!         "acquire",
//!         SourceSpec::new(DataVolume::tb(14), SimDuration::from_days(7), 4),
//!     )
//!     .transfer(
//!         "ship-disks",
//!         TransferSpec::new(DataRate::tb_per_day(14.0 / 3.0)) // ~3 days door to door
//!             .latency(SimDuration::from_days(1)),
//!         &["acquire"],
//!     )
//!     .archive("tape-archive", &["ship-disks"])
//!     .build()
//!     .unwrap();
//!
//! let report = FlowSim::new(graph, vec![CpuPool::new("ctc", 64)]).unwrap().run().unwrap();
//! assert_eq!(report.stage("tape-archive").unwrap().volume_in, DataVolume::tb(56));
//! ```

pub mod behavior;
pub mod compiled;
pub mod critical;
pub mod durable;
pub mod engine;
pub mod error;
pub mod fault;
pub mod fnv;
pub mod frame;
pub mod genflow;
pub mod graph;
pub mod md5;
pub mod metrics;
pub mod obs;
pub mod provenance;
pub mod resource;
pub mod sim;
pub mod slab;
pub mod spec;
pub mod trace;
pub mod units;
pub mod version;

pub use behavior::{Completion, Dispatch, FlowEvent, StageBehavior, StageCtx};
pub use compiled::{compile, CompiledFlow};
pub use critical::{critical_path, CriticalPathReport, PathSegment, StageBreakdown};
pub use durable::{RunJournal, SnapshotPolicy, SNAPSHOT_FORMAT};
pub use engine::{Engine, EventHandler, RunStats, Scheduler};
pub use error::{CoreError, CoreResult};
pub use fault::{
    AttemptFailure, AttemptOutcome, FaultEvent, FaultKind, FaultPlan, FaultProfile, RetryPolicy,
};
pub use genflow::{generate, Archetype, GenFlow};
pub use graph::{FlowGraph, StageId, StageKind, VerifyPolicy};
pub use metrics::{EngineStats, PoolMetrics, SimReport, StageMetrics, TimeSeries, TsSample};
pub use obs::{Alert, MetricsHub, MetricsRegistry, SloKind, SloRule};
pub use provenance::{ProvenanceRecord, ProvenanceStep};
pub use resource::{ResourceId, ResourceSet, SchedPolicy, StorageLedger};
pub use sim::{CpuPool, FlowSim};
pub use slab::{Slab, SlabKey};
pub use spec::{
    BatcherSpec, DedupSpec, FilterSpec, FlowSpec, ProcessSpec, SourceSpec, TransferSpec,
};
pub use trace::{
    NoopObserver, ObserveConfig, Observer, Span, TraceEvent, TraceMeta, TraceRecorder,
    TraceSnapshot,
};
pub use units::{DataRate, DataVolume, SimDuration, SimTime};
pub use version::{CalDate, VersionId};
