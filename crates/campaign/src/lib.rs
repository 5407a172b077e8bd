//! Parallel scenario-sweep campaigns: mass validation of the paper's
//! analytic delay bounds against the discrete-event simulator.
//!
//! The reproduction's core claim — the Network-Calculus worst-case delay
//! bounds for the switched-Ethernet replacement of a MIL-STD-1553B bus are
//! *sound* (no simulated delay ever exceeds its bound) and reasonably
//! *tight* — was originally checked against exactly one hand-built case
//! study.  This crate turns that single data point into a campaign:
//!
//! 1. **[`ScenarioSpace`]** expands one master seed into any number of
//!    randomized-but-deterministic scenarios sweeping workload shape
//!    (case-study variants and generated tables, convergecast and
//!    peer-to-peer patterns), switch fabric (single switch, cascaded
//!    lines, star-of-stars — [`FabricSpec`]), link rate (10/100/1000
//!    Mbps), switch relaying latency, multiplexing policy (FCFS vs 4-level
//!    strict priority), sporadic activation models, phasing and horizon.
//! 2. **[`run_sharded_campaign`]** executes every scenario's full
//!    pipeline ([`execute_scenario_with`]: multi-hop analytic bounds via
//!    [`rtswitch_core::analyze_multi_hop`], which also yields the
//!    pay-bursts-only-once convolved bound, plus a matching cascaded
//!    simulation via [`netsim::Simulator::with_fabric`]) on one pool of
//!    worker threads, one deterministic engine per run, parallelism
//!    across runs, shard by shard.  **[`run_campaign`]** is its one-shard
//!    run that also keeps every result.
//! 3. **[`StreamAggregate`]** folds each result, in scenario-id order,
//!    into the campaign-level statistics ([`CampaignSummary`]): soundness
//!    rate, per-message tightness distribution (min/mean/p50/p99/max),
//!    bound-violation reports, pay-bursts-only-once consistency over the
//!    cascaded scenarios and per-policy breakdowns.
//! 4. With [`CampaignConfig::with_1553`] (the `--with-1553` flag) every
//!    scenario additionally runs the **cross-technology stage**: the same
//!    workload is projected onto a MIL-STD-1553B bus (synthesized
//!    major/minor frames, structured capacity rejection), the bus's
//!    analytic response bounds are validated against the seeded bus
//!    replay, and per-message deadline verdicts and bound magnitudes are
//!    compared against the Ethernet bounds — the paper's replace-the-bus
//!    thesis as a mass experiment ([`ComparisonReport`],
//!    [`ComparisonSummary`]).
//! 5. With [`CampaignConfig::faults`] set to [`FaultMode::Sweep`] (the
//!    `--faults sweep` flag) every scenario draws a seeded fault set —
//!    babbling-idiot talkers, link error bursts, a trunk failover on
//!    cascaded fabrics — and runs the **degraded stage**: the
//!    degraded-mode analysis ([`rtswitch_core::analyze_degraded_with`])
//!    recomputes the bounds with the faults folded in, the faulty
//!    simulation injects the identical fault set, and every surviving
//!    frame is validated against its degraded bound ([`FaultOutcome`],
//!    [`FaultSummary`]).  The fault dimension is drawn *last*, so
//!    `--faults off` reproduces the pre-fault campaign byte for byte.
//!
//! Determinism contract: the [`CampaignOutcome`] (results + summary) is a
//! pure function of `(master seed, scenario count)` — re-running with the
//! same seed reproduces byte-identical JSON regardless of worker count or
//! scheduling order.  Wall-clock throughput lives in the separate
//! [`RuntimeStats`].
//!
//! # Quick start
//!
//! ```
//! use campaign::{run_campaign, CampaignConfig};
//!
//! let report = run_campaign(CampaignConfig {
//!     scenarios: 8,
//!     master_seed: 42,
//!     threads: 2,
//!     with_1553: true,
//!     envelope_override: None,
//!     policy_override: None,
//!     faults: campaign::FaultMode::Off,
//! });
//! assert!(report.outcome.summary.all_sound());
//! assert_eq!(report.outcome.results.len(), 8);
//! // The cross-technology stage validated the 1553B bounds too.
//! let comparison = report.outcome.summary.comparison.as_ref().unwrap();
//! assert!(comparison.all_sound());
//! ```
//!
//! The `campaign` binary wraps this with a CLI:
//!
//! ```text
//! cargo run --release -p campaign -- --scenarios 200 --seed 42 --with-1553 --json out.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparison;
pub mod report;
pub mod runner;
pub mod shard;
pub mod space;

pub use comparison::{compare_scenario, ComparisonReport, ComparisonSummary, ScenarioComparison};
pub use report::{
    ApproachBreakdown, CampaignSummary, CampaignViolation, EnvelopeGain, FaultOutcome,
    FaultSummary, FaultValidation, PbooCheck, ScenarioOutcome, ScenarioResult, ScenarioValidation,
    TightnessDistribution, TightnessStats, ViolationReport,
};
pub use runner::{
    execute_scenario_with, run_campaign, CampaignConfig, CampaignOutcome, CampaignReport,
    FaultMode, RuntimeStats,
};
pub use shard::{
    plan_shards, result_fingerprint, results_fingerprint, run_sharded_campaign, ShardError,
    ShardedCampaignConfig, ShardedOutcome, ShardedReport, StreamAggregate,
};
pub use space::{FabricSpec, FaultDraw, Scenario, ScenarioSpace, WorkloadSource};
