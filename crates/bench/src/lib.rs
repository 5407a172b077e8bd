//! Experiment harness: one function per figure/table of the paper.
//!
//! Each experiment function is pure (workload in, structured results out) so
//! it can be driven both by the `src/bin/*` command-line harnesses (each
//! prints its experiment's table; the README's "Experiments" section lists
//! them) and by the Criterion benches (which measure how long the analyses
//! take on workloads of increasing size).
//!
//! | id | paper artefact | function |
//! |----|----------------|----------|
//! | E1 | Figure 1 — delay bounds, FCFS vs priority | [`experiments::figure1`] |
//! | E2 | §2 — MIL-STD-1553B baseline | [`experiments::baseline_1553`] |
//! | E3 | §2 — "a higher rate is not sufficient" | [`experiments::rate_sweep`] |
//! | E4 | methodology — bounds vs simulation | [`experiments::sim_validation`] |
//! | E5 | §3 — jitter outlook | [`experiments::jitter`] |
//! | E6 | ablation — effect of source shaping | [`experiments::shaping_ablation`] |
//! | E7 | ablation — priority-level count | [`experiments::level_ablation`] |
//! | E8 | scenario-sweep campaign (mass validation) | [`experiments::campaign_sweep`] |
//! | E9 | extension — multi-switch cascades, pay-bursts-only-once | [`experiments::multi_switch_sweep`] |
//! | E10 | capacity headroom — 1553B intensity wall vs Ethernet PBOO | [`experiments::capacity_headroom`] |
//! | E11 | envelope ablation — closed forms vs the piecewise-linear curve engine | [`experiments::envelope_curve_ablation`] |
//! | E12 | policy ablation — FCFS vs strict priority vs WRR, per-class tightness and deadline margins | [`experiments::policy_ablation`] |
//! | E13 | admission throughput — incremental per-port-cached admission vs from-scratch re-analysis, batched 1/64/1024 | [`experiments::admission_throughput`] |
//! | E14 | fault injection — degraded-mode bound inflation ladder | [`experiments::fault_inflation`] |

pub mod experiments;

pub use experiments::*;
