//! Experiment harness: one function per figure/table of the paper.
//!
//! Each experiment function is pure (workload in, structured results out) so
//! the `src/bin/*` command-line harnesses (each prints its experiment's
//! table; the README's "Experiments" section lists them) and the tests drive
//! the same code.  Performance is measured by the `perfbench` workspace, not
//! here.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtswitch_core::NetworkConfig;
    use shaping::TrafficClass;
    use workload::case_study::{case_study_with, CaseStudyConfig};

    #[test]
    fn harness_runs() {
        // The E1 harness on the case study scaled from 5 to 30 subsystems:
        // both analyses stay stable at 10 Mbps, the figure keeps one row
        // per class, and every added subsystem loads the mission computer's
        // port, so the urgent FCFS bound grows while strict priority stays
        // below it.
        let config = NetworkConfig::paper_default();
        let mut previous_fcfs = 0.0;
        for subsystems in [5, 10, 20, 30] {
            let workload = case_study_with(CaseStudyConfig {
                subsystems,
                with_command_traffic: true,
            });
            let fig = figure1(&workload, &config);
            let rows = fig.rows();
            assert_eq!(rows.len(), 4, "{subsystems} subsystems");
            let urgent = &rows[0];
            assert_eq!(urgent.class, TrafficClass::UrgentSporadic);
            assert!(urgent.priority_bound_ms < urgent.fcfs_bound_ms);
            assert!(
                urgent.fcfs_bound_ms > previous_fcfs,
                "{subsystems} subsystems"
            );
            previous_fcfs = urgent.fcfs_bound_ms;
            assert_eq!(fig.render().lines().count(), 2 + rows.len());
        }
    }
}
