//! Always-on admission control for real-time switched Ethernet.
//!
//! The paper's analysis answers an *offline* question: given a complete
//! workload, do all deadlines hold?  Avionics integration is incremental —
//! functions are added, retired and re-specced over a platform's life — so
//! the operational question is *online*: "may this flow join the network
//! **now**, without breaking any admitted guarantee?".  Re-running the full
//! analysis per query is sound but wasteful: a single flow touches only
//! the output ports along its route, and every per-port quantity the
//! analysis derives is port-local (see [`rtswitch_core::walk_ports`]).
//!
//! This crate keeps the analysis *live*:
//!
//! * [`AdmissionEngine`] loads a fabric and workload once and answers
//!   admit / revoke / modify queries by recomputing only the **dirty
//!   closure** of each mutation — the ports whose flow sets or input
//!   envelopes actually change — against a per-port cache of the
//!   analysis walk's results ([`rtswitch_core::PortResults`], keyed by
//!   port).  The engine runs the walk itself over the dirty closure, so
//!   incremental bounds are byte-identical to a fresh
//!   [`rtswitch_core::analyze_multi_hop_with`], not merely close.  The
//!   walk is given only the flows the closure's ports list, so a query
//!   costs its closure, not the number of active flows.
//! * [`AdmissionEngine::evaluate_batch`] partitions a queue of queries
//!   into *commuting groups* (pairwise-disjoint dirty closures), previews
//!   each group concurrently on a worker pool and commits serially —
//!   verdicts stay identical to sequential evaluation.
//! * [`serve`] exposes the engine over an NDJSON request/response stream,
//!   and [`trace`] synthesizes deterministic seeded query
//!   traces from the campaign scenario generator for replay and
//!   benchmarking (the `admission` binary wraps both).
//!
//! ```
//! use admission::{AdmissionEngine, FlowSpec};
//! use netcalc::EnvelopeModel;
//! use rtswitch_core::{Approach, NetworkConfig};
//! use units::{DataSize, Duration};
//! use workload::{case_study::case_study, Arrival};
//!
//! let workload = case_study();
//! let fabric = ethernet::Fabric::single_switch(workload.stations.len());
//! let mut engine = AdmissionEngine::new(
//!     &workload,
//!     &fabric,
//!     &NetworkConfig::paper_default(),
//!     Approach::StrictPriority,
//!     EnvelopeModel::TokenBucket,
//! )
//! .unwrap();
//!
//! let verdict = engine.admit(FlowSpec {
//!     name: "nav-update".into(),
//!     source: 0,
//!     destination: 1,
//!     payload: DataSize::from_bytes(64),
//!     arrival: Arrival::Periodic {
//!         period: Duration::from_millis(40),
//!     },
//!     deadline: Duration::from_millis(40),
//! });
//! assert!(verdict.accepted());
//! // Only the ports along the new flow's route were recomputed.
//! assert!(verdict.cache.ports_reused > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod engine;
pub mod service;
pub mod trace;

pub use batch::BatchOutcome;
pub use engine::{
    AdmissionEngine, AdmissionQuery, AdmissionSnapshot, AdmissionVerdict, CacheStats, Decision,
    EngineStats, FailoverPlan, FlowId, FlowMargin, FlowSpec, PortOccupancy,
};
pub use service::{serve, ServeRequest, ServeResponse};
pub use trace::{base_scenario, engine_for, resolve, trace_ops, TraceOp};
