//! # sciflow-simnet
//!
//! Transport simulation for large-scale data flows: network links, physical
//! media shipping ("sneakernet") and transfer planning.
//!
//! The paper's central transport finding is that no single channel fits all
//! three projects: Arecibo ships ATA disks because its uplink cannot carry
//! petabyte-scale raw data; WebLab pulls 250 GB/day over a dedicated
//! 100 Mb/s Internet2 link; CLEO ships USB disks of Monte-Carlo output
//! because "a Grid-based approach will only be a viable alternative if it
//! provides faster data transfer at lower cost". The [`transfer`] module
//! makes those comparisons quantitative, and [`profiles`] captures the
//! paper's concrete 2005/2006 infrastructure.
//! [`transfer::compare_with_faults`] runs the network leg through
//! `sciflow_core`'s flow simulator against a seeded fault timeline (drops,
//! stalls, corruption, degradation) with bounded retry/backoff, so the
//! comparison can be made against the network as it is, not as advertised.

pub mod link;
pub mod profiles;
pub mod shipping;
pub mod transfer;

pub use link::NetworkLink;
pub use shipping::{plan_shipment, MediaSpec, ShipmentPlan, ShippingRoute};
pub use transfer::{
    compare, compare_with_faults, crossover_bandwidth, ReliableComparison, TransferComparison,
    TransferMode,
};
