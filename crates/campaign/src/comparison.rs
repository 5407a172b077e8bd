//! The cross-technology comparison stage: MIL-STD-1553B vs switched
//! Ethernet, per scenario.
//!
//! The paper's headline claim is not merely that switched Ethernet has
//! computable worst-case delays — it is that those bounds let Ethernet
//! *replace* the MIL-STD-1553B bus.  With `--with-1553` every campaign
//! scenario additionally runs the full bus pipeline on the *same*
//! workload: synthesize the major/minor frame schedule
//! ([`rtswitch_core::analyze_1553`]), reject workloads exceeding the
//! 1 Mbps bus capacity with the structured
//! [`Infeasible1553`] verdict, validate
//! the analytic response-time bounds against the seeded bus replay, and
//! compare per-message deadline verdicts and bound magnitudes against the
//! Ethernet analysis (single-switch or pay-bursts-only-once multi-hop,
//! whatever the scenario's fabric produced).
//!
//! Everything here is a pure function of the scenario, so the
//! [`ComparisonReport`] section keeps the campaign's byte-identical-JSON
//! determinism contract.

use crate::report::{CampaignViolation, TightnessDistribution, TightnessStats, ViolationReport};
use rtswitch_core::{analyze_1553, compare_bounds_1553, Infeasible1553};
use serde::{Deserialize, Serialize};
use units::Duration;
use workload::{MessageId, Workload};

/// The 1553B-vs-Ethernet record of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ComparisonReport {
    /// The scenario's workload does not fit on the 1 Mbps bus — the
    /// capacity half of the paper's argument, recorded with the offered
    /// utilization so the headroom sweep (E10) can chart it.
    Infeasible1553(Infeasible1553),
    /// The bus carries the workload; both technologies produced bounds
    /// and the bus bounds were validated against the seeded replay.
    Compared(ScenarioComparison),
}

impl ComparisonReport {
    /// `true` when the bus carried the workload.
    pub fn is_feasible(&self) -> bool {
        matches!(self, ComparisonReport::Compared(_))
    }
}

/// The comparison figures of one bus-feasible scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioComparison {
    /// Synthesized minor frame duration.
    pub minor_frame: Duration,
    /// Synthesized major frame duration.
    pub major_frame: Duration,
    /// Offered bus utilization of the transaction set.
    pub offered_utilization: f64,
    /// Average bus utilization of the admitted schedule.
    pub bus_utilization: f64,
    /// Message streams compared.
    pub messages: usize,
    /// `true` when every simulated bus response time respected its
    /// analytic bound.
    pub sound: bool,
    /// Bus bound violations (empty when sound).
    pub violations: Vec<ViolationReport>,
    /// Bus tightness distribution (`observed / bound` per message).
    pub tightness: TightnessStats,
    /// The raw per-message bus tightness ratios behind the stats.
    pub tightness_values: Vec<f64>,
    /// Messages only switched Ethernet delivers within deadline.
    pub ethernet_only_wins: usize,
    /// Messages only the bus delivers within deadline.
    pub bus_only_wins: usize,
    /// Messages both technologies deliver within deadline.
    pub both_meet: usize,
    /// Messages neither technology delivers within deadline.
    pub neither_meets: usize,
    /// Distribution of `bus bound / Ethernet bound` over messages with a
    /// finite Ethernet bound — how many times slower the polled bus is.
    pub bound_ratio: TightnessStats,
    /// The raw per-message bound ratios behind the stats.
    pub bound_ratio_values: Vec<f64>,
}

/// Runs the 1553B side of one scenario and compares it against the
/// scenario's Ethernet bounds.
///
/// `ethernet_bound_of` is the scenario's per-message Ethernet bound
/// source (the multi-hop report's `total_bound`); pass a closure
/// returning `None` when the Ethernet analysis itself was infeasible —
/// the bus figures are still produced and every per-message verdict
/// counts against Ethernet.
pub fn compare_scenario(
    workload: &Workload,
    ethernet_bound_of: impl Fn(MessageId) -> Option<Duration>,
    horizon: Duration,
    seed: u64,
) -> ComparisonReport {
    let study = match analyze_1553(workload) {
        Err(verdict) => return ComparisonReport::Infeasible1553(verdict),
        Ok(study) => study,
    };
    let validation = study.validate(workload, horizon, seed);
    let baseline = compare_bounds_1553(workload, &study.analysis, ethernet_bound_of);

    let violations: Vec<ViolationReport> = validation
        .violations()
        .into_iter()
        .map(|entry| ViolationReport {
            message: entry.name.clone(),
            bound: entry.bound,
            observed: entry.observed_worst,
        })
        .collect();
    let tightness_values = validation.tightness_values();

    let mut both_meet = 0;
    let mut neither_meets = 0;
    let mut bound_ratio_values = Vec::new();
    for entry in &baseline.entries {
        match (entry.bus_meets_deadline, entry.ethernet_meets_deadline) {
            (true, true) => both_meet += 1,
            (false, false) => neither_meets += 1,
            _ => {}
        }
        if entry.ethernet_bound < Duration::MAX && !entry.ethernet_bound.is_zero() {
            bound_ratio_values
                .push(entry.bus_worst_case.as_secs_f64() / entry.ethernet_bound.as_secs_f64());
        }
    }

    ComparisonReport::Compared(ScenarioComparison {
        minor_frame: study.scheduler.minor_frame,
        major_frame: study.scheduler.major_frame,
        offered_utilization: study.offered_utilization,
        bus_utilization: study.analysis.bus_utilization,
        messages: baseline.entries.len(),
        sound: violations.is_empty(),
        violations,
        tightness: TightnessStats::from_values(&tightness_values),
        tightness_values,
        ethernet_only_wins: baseline.ethernet_only_wins,
        bus_only_wins: baseline.bus_only_wins,
        both_meet,
        neither_meets,
        bound_ratio: TightnessStats::from_values(&bound_ratio_values),
        bound_ratio_values,
    })
}

/// Campaign-level aggregation of the cross-technology comparison, present
/// in the summary when the campaign ran with the 1553B stage enabled
/// (folded by [`crate::StreamAggregate`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonSummary {
    /// Scenarios the 1553B pipeline ran on.
    pub attempted: usize,
    /// Scenarios the bus carried.
    pub feasible: usize,
    /// Scenarios rejected by the 1 Mbps bus (capacity or mapping).
    pub infeasible: usize,
    /// Feasible scenarios where every simulated bus response respected
    /// its analytic bound.
    pub sound_scenarios: usize,
    /// `sound_scenarios / feasible` (1.0 when nothing was feasible).
    pub soundness_rate: f64,
    /// Every bus bound violation across the campaign (must be empty).
    pub violations: Vec<CampaignViolation>,
    /// Bus tightness distribution across all feasible scenarios.
    pub tightness: TightnessDistribution,
    /// Messages only switched Ethernet delivers within deadline, summed.
    pub ethernet_only_wins: usize,
    /// Messages only the bus delivers within deadline, summed.
    pub bus_only_wins: usize,
    /// Messages both technologies deliver within deadline, summed.
    pub both_meet: usize,
    /// Messages neither technology delivers within deadline, summed.
    pub neither_meets: usize,
    /// Distribution of `bus bound / Ethernet bound` across all compared
    /// messages.
    pub bound_ratio: TightnessDistribution,
    /// The largest offered utilization the bus still carried.
    pub max_feasible_utilization: f64,
    /// The smallest offered utilization the bus rejected (0 when every
    /// attempted scenario was feasible) — together with
    /// `max_feasible_utilization` this brackets the capacity frontier the
    /// headroom sweep (E10) charts in detail.
    pub min_infeasible_utilization: f64,
}

impl ComparisonSummary {
    /// `true` when every feasible scenario's bus bounds were sound.
    pub fn all_sound(&self) -> bool {
        self.violations.is_empty() && self.sound_scenarios == self.feasible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioOutcome, ScenarioResult, ScenarioSpace, StreamAggregate};
    use workload::case_study::{case_study, case_study_with, CaseStudyConfig};

    fn small_workload() -> Workload {
        case_study_with(CaseStudyConfig {
            subsystems: 3,
            with_command_traffic: false,
        })
    }

    #[test]
    fn feasible_scenario_produces_sound_comparison() {
        let w = small_workload();
        // A generous synthetic Ethernet bound: 1 ms for every message.
        let report = compare_scenario(
            &w,
            |_| Some(Duration::from_millis(1)),
            Duration::from_millis(640),
            42,
        );
        let ComparisonReport::Compared(cmp) = &report else {
            panic!("bus-sized workload must be feasible");
        };
        assert!(report.is_feasible());
        assert!(cmp.sound, "violations: {:?}", cmp.violations);
        assert_eq!(cmp.messages, w.messages.len());
        assert!(cmp.ethernet_only_wins > 0);
        assert_eq!(cmp.bus_only_wins, 0);
        assert_eq!(
            cmp.ethernet_only_wins + cmp.bus_only_wins + cmp.both_meet + cmp.neither_meets,
            cmp.messages
        );
        // The polled bus is orders of magnitude slower than a 1 ms bound.
        assert!(cmp.bound_ratio.min > 1.0);
        assert_eq!(cmp.bound_ratio.count, cmp.messages);
        assert!(cmp.minor_frame <= cmp.major_frame);
    }

    #[test]
    fn oversized_scenario_is_structurally_infeasible() {
        let report = compare_scenario(
            &case_study(),
            |_| Some(Duration::from_millis(1)),
            Duration::from_millis(320),
            7,
        );
        let ComparisonReport::Infeasible1553(verdict) = &report else {
            panic!("the full case study exceeds the 1 Mbps bus");
        };
        assert!(!report.is_feasible());
        assert!(verdict.offered_utilization > 1.0);
    }

    #[test]
    fn missing_ethernet_bounds_count_against_ethernet() {
        let w = small_workload();
        let report = compare_scenario(&w, |_| None, Duration::from_millis(320), 1);
        let ComparisonReport::Compared(cmp) = &report else {
            panic!("feasible");
        };
        assert_eq!(cmp.ethernet_only_wins, 0);
        assert!(cmp.bus_only_wins + cmp.neither_meets == cmp.messages);
        assert_eq!(cmp.bound_ratio.count, 0);
    }

    #[test]
    fn summary_aggregates_feasible_and_infeasible_sections() {
        let small = small_workload();
        let feasible = compare_scenario(
            &small,
            |_| Some(Duration::from_millis(1)),
            Duration::from_millis(320),
            3,
        );
        let infeasible = compare_scenario(
            &case_study(),
            |_| Some(Duration::from_millis(1)),
            Duration::from_millis(320),
            3,
        );
        let space = ScenarioSpace::new(42);
        let mut aggregate = StreamAggregate::new();
        for (id, section) in [(0, &feasible), (1, &infeasible), (2, &feasible)] {
            aggregate.fold(&ScenarioResult {
                scenario: space.scenario(id),
                outcome: ScenarioOutcome::AnalysisInfeasible {
                    stage: "not analysed".to_string(),
                },
                comparison: Some(section.clone()),
                fault: None,
            });
        }
        let summary = aggregate.finish().0.comparison.unwrap();
        assert_eq!(summary.attempted, 3);
        assert_eq!(summary.feasible, 2);
        assert_eq!(summary.infeasible, 1);
        assert!(summary.all_sound());
        assert_eq!(summary.soundness_rate, 1.0);
        assert!(summary.ethernet_only_wins > 0);
        assert!(summary.tightness.count > 0);
        assert!(summary.bound_ratio.p50 > 1.0);
        assert!(summary.max_feasible_utilization > 0.0);
        assert!(summary.min_infeasible_utilization > 1.0);
        assert!(StreamAggregate::new().finish().0.comparison.is_none());
    }

    #[test]
    fn comparison_report_roundtrips_through_json() {
        let feasible = compare_scenario(
            &small_workload(),
            |_| Some(Duration::from_millis(1)),
            Duration::from_millis(320),
            9,
        );
        let json = serde_json::to_string(&feasible).unwrap();
        let parsed: ComparisonReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, feasible);
        let infeasible = compare_scenario(&case_study(), |_| None, Duration::from_millis(320), 9);
        let json = serde_json::to_string(&infeasible).unwrap();
        let parsed: ComparisonReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, infeasible);
    }
}
