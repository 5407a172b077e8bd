//! Facade crate: re-exports the whole real-time switched Ethernet workspace
//! under one roof so applications (and the bundled examples) can depend on a
//! single crate.
//!
//! The layering, bottom-up:
//!
//! * [`units`] — exact integer time / size / rate quantities;
//! * [`netcalc`] — Network Calculus (arrival/service curves, delay bounds,
//!   output envelopes, and the FCFS, strict-priority and
//!   weighted-round-robin multiplexer formulas of one [`netcalc::Mux`]
//!   type);
//! * [`ethernet`] — the one network model: tagged frame sizes, the
//!   output-port scheduling policy and the switch fabric;
//! * [`milstd1553`] — the MIL-STD-1553B baseline (scheduling, analysis,
//!   simulation);
//! * [`shaping`] — operational token buckets, regulators and multiplexers;
//! * [`workload`] — the avionics message model and the case-study set;
//! * [`netsim`] — the discrete-event simulator of the switched network;
//! * [`core`] (crate `rtswitch-core`) — the paper's end-to-end analysis,
//!   verdicts, 1553B comparison and simulation validation;
//! * [`campaign`] — the parallel scenario-sweep subsystem (mass validation
//!   of the bounds, including the MIL-STD-1553B cross-technology stage);
//! * [`admission`] — the always-on admission-control service (incremental
//!   re-analysis over a per-port curve cache, batched commuting-group
//!   evaluation, NDJSON serving).
//!
//! See the repository `README.md` for a quick start, and its "Experiments"
//! section for the bins that reproduce every figure and table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use admission;
pub use campaign;
pub use ethernet;
pub use milstd1553;
pub use netcalc;
pub use netsim;
pub use shaping;
pub use units;
pub use workload;

/// The paper's analysis crate (`rtswitch-core`), re-exported as `core`.
pub use rtswitch_core as core;

pub use admission::{AdmissionEngine, AdmissionVerdict, FlowId, FlowSpec};
pub use ethernet::{Fabric, SchedulingPolicy, WrrUnit, WrrWeights};
pub use netcalc::{Envelope, EnvelopeModel};
pub use netsim::Simulator;
pub use rtswitch_core::{
    analyze, analyze_1553, analyze_multi_hop, analyze_multi_hop_with, sim_config_for,
    validation_from_bound_lookup, Approach, MultiHopReport, NetworkConfig, PolicyArm,
};
pub use workload::case_study::case_study;
