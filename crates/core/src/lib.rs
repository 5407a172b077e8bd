//! Delay-bound analysis for real-time switched Ethernet in military
//! avionics — the paper's primary contribution.
//!
//! The paper's question: can COTS Full-Duplex Switched Ethernet replace the
//! MIL-STD-1553B bus while guaranteeing the hard response times military
//! applications demand?  Its answer combines three ingredients, all exposed
//! by this crate:
//!
//! 1. **Traffic shaping** — every message stream `i` is regulated at its
//!    source by a token bucket `(b_i, r_i = b_i / T_i)`
//!    ([`workload`] provides the streams, [`shaping`] the mechanism,
//!    [`netcalc`] the envelope).
//! 2. **A multiplexer analysis** per network element, either FCFS
//!    (`D = Σ b_i / C + t_techno`) or 4-level strict priority
//!    (`D_p = (Σ_{q≤p} b_i + max_{q>p} b_j) / (C − Σ_{q<p} r_i) + t_techno`)
//!    — [`analysis`].
//! 3. **An end-to-end composition** over the paper's architecture (source
//!    station → switch → destination station), producing per-message bounds
//!    compared against the application deadlines — [`analysis::end_to_end`],
//!    [`verdict`].
//!
//! Around that core, the crate provides the MIL-STD-1553B baseline
//! comparison ([`compare1553`]), the simulation-based validation that every
//! observed delay stays below its bound ([`validation`]) and report
//! rendering/serialization ([`report`]).
//!
//! # Quick start
//!
//! ```
//! use rtswitch_core::{analyze, Approach, NetworkConfig};
//! use workload::case_study::case_study;
//!
//! let workload = case_study();
//! let config = NetworkConfig::paper_default();
//!
//! let fcfs = analyze(&workload, &config, Approach::Fcfs).unwrap();
//! let prio = analyze(&workload, &config, Approach::StrictPriority).unwrap();
//!
//! // The paper's Figure 1: FCFS violates the 3 ms urgent deadline at
//! // 10 Mbps, strict priority meets every deadline.
//! assert!(!fcfs.all_deadlines_met());
//! assert!(prio.all_deadlines_met());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod compare1553;
pub mod config;
pub mod report;
pub mod validation;
pub mod verdict;

pub use analysis::degraded::{
    analyze_degraded_from, analyze_degraded_with, degraded_workload, DegradedFlowBound,
    DegradedReport,
};
pub use analysis::end_to_end::{analyze, AnalysisError, AnalysisReport, MessageBound};
pub use analysis::horizon::HorizonCounters;
pub use analysis::jitter::{jitter_bounds, JitterBound};
pub use analysis::multi_hop::{
    analyze_multi_hop, analyze_multi_hop_with, flow_ports, walk_ports, FabricPort, HopBound,
    MultiHopMessageBound, MultiHopReport, PortResults, WalkFlow, WalkResults,
};
pub use analysis::{Approach, PolicyArm};
pub use compare1553::{
    analyze_1553, compare_bounds_1553, compare_with_1553, BaselineComparison, Bus1553Study,
    Bus1553Validation, Infeasible1553, Infeasible1553Kind,
};
pub use config::NetworkConfig;
pub use validation::{
    matching_sim_config, sim_config_for, validate_against_simulation, validation_from_bound_lookup,
    validation_from_simulation, ValidationEntry, ValidationReport,
};
pub use verdict::ClassSummary;
