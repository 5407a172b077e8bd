//! Per-scenario results and campaign-level aggregation.

use crate::comparison::{ComparisonReport, ComparisonSummary};
use crate::space::Scenario;
use netcalc::EnvelopeModel;
use rtswitch_core::{MultiHopReport, PolicyArm, ValidationReport};
use serde::{Deserialize, Serialize};
use units::Duration;

/// Worst-case tightness statistics over one set of messages
/// (`observed worst delay / analytic bound`, per message).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TightnessStats {
    /// Number of messages with at least one delivered instance.
    pub count: usize,
    /// Smallest ratio.
    pub min: f64,
    /// Mean ratio.
    pub mean: f64,
    /// Largest ratio.
    pub max: f64,
}

impl TightnessStats {
    /// Computes the statistics from raw ratios (empty input yields zeros).
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return TightnessStats {
                count: 0,
                min: 0.0,
                mean: 0.0,
                max: 0.0,
            };
        }
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        TightnessStats {
            count: values.len(),
            min,
            mean: sum / values.len() as f64,
            max,
        }
    }
}

/// One observed bound violation — must never happen if both the analysis
/// and the simulator are correct.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationReport {
    /// Message name.
    pub message: String,
    /// The violated analytic bound.
    pub bound: Duration,
    /// The observed worst delay that exceeded it.
    pub observed: Duration,
}

/// The analytic tightening the staircase envelope dimension bought in one
/// scenario: per-message relative gain of the staircase total bound over
/// the token-bucket total bound, `(tb − staircase) / tb`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvelopeGain {
    /// Messages compared.
    pub messages: usize,
    /// Mean relative gain.
    pub mean: f64,
    /// Median (nearest-rank) relative gain.
    pub median: f64,
    /// Largest relative gain.
    pub max: f64,
}

impl EnvelopeGain {
    /// Compares the two analyses message for message (same workload, same
    /// fabric, same policy — only the envelope model differs).
    pub fn from_reports(token_bucket: &MultiHopReport, staircase: &MultiHopReport) -> Self {
        let mut gains: Vec<f64> = token_bucket
            .messages
            .iter()
            .zip(staircase.messages.iter())
            .filter(|(tb, _)| tb.total_bound > Duration::ZERO)
            .map(|(tb, st)| {
                let tb_ns = tb.total_bound.as_nanos() as f64;
                (tb_ns - st.total_bound.as_nanos() as f64) / tb_ns
            })
            .collect();
        gains.sort_by(|a, b| a.partial_cmp(b).expect("finite gains"));
        if gains.is_empty() {
            return EnvelopeGain {
                messages: 0,
                mean: 0.0,
                median: 0.0,
                max: 0.0,
            };
        }
        EnvelopeGain {
            messages: gains.len(),
            mean: gains.iter().sum::<f64>() / gains.len() as f64,
            median: gains[gains.len() / 2],
            max: gains[gains.len() - 1],
        }
    }
}

/// The multi-hop tightness facts of one validated scenario: whether the
/// pay-bursts-only-once convolution stayed below the per-hop sum, and by
/// how much at most.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PbooCheck {
    /// `true` when the scenario ran over a multi-switch fabric.
    pub cascaded: bool,
    /// `true` when `convolved ≤ per-hop sum` held for every message (it
    /// must — the convolution theorem guarantees it).
    pub consistent: bool,
    /// The largest `per-hop sum − convolved` gap across messages.
    pub max_gain: Duration,
}

/// The measured outcome of one scenario whose analysis produced bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioValidation {
    /// Number of message streams analysed and simulated.
    pub messages: usize,
    /// The arrival-envelope model whose bounds were validated against the
    /// simulation (the scenario's arm, unless overridden campaign-wide).
    pub envelope: EnvelopeModel,
    /// The staircase-over-token-bucket tightening of this scenario's
    /// bounds (present whenever the staircase analysis ran alongside the
    /// closed-form one).
    pub envelope_gain: Option<EnvelopeGain>,
    /// `true` when every observed delay respected its bound.
    pub sound: bool,
    /// The violations (empty when sound).
    pub violations: Vec<ViolationReport>,
    /// The pay-bursts-only-once consistency facts of the analysis.
    pub pboo: PbooCheck,
    /// Number of messages whose *analytic bound* misses the application
    /// deadline — an expected outcome for FCFS at low rates (the paper's
    /// Figure 1), distinct from a soundness violation.
    pub deadline_misses: usize,
    /// Tightness distribution over the scenario's messages.
    pub tightness: TightnessStats,
    /// The raw per-message tightness ratios behind the stats (messages
    /// with no delivered instance or a degenerate bound are excluded);
    /// the campaign-level percentiles are computed from these.
    pub tightness_values: Vec<f64>,
    /// Frames generated within the horizon.
    pub generated: u64,
    /// Frames delivered within the horizon.
    pub delivered: u64,
    /// Frames dropped.
    pub dropped: u64,
}

/// What executing one scenario produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioOutcome {
    /// Analysis produced bounds and the simulation was checked against
    /// them.
    Validated(ScenarioValidation),
    /// The analytic pipeline found the scenario infeasible (a multiplexer
    /// stage is unstable — offered load exceeds capacity), so there are no
    /// bounds to validate.  A legitimate outcome for the heaviest random
    /// tables on the slowest links.
    AnalysisInfeasible {
        /// The stage that failed, as reported by the analysis.
        stage: String,
    },
}

/// The measured outcome of one scenario's degraded stage: the faulty
/// simulation's surviving frames checked against the degraded-mode
/// analytic bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultValidation {
    /// Injected faults (babblers + link bursts + failover).
    pub fault_count: usize,
    /// `true` when a trunk failover was part of the fault set.
    pub failover: bool,
    /// Workload messages checked against a degraded bound.
    pub messages: usize,
    /// `true` when every surviving frame's delay respected its
    /// degraded-mode bound.
    pub sound: bool,
    /// The violations (empty when sound).
    pub violations: Vec<ViolationReport>,
    /// `true` when the degraded bounds still meet every deadline — the
    /// "bounds hold under N faults" certification verdict.
    pub bounds_hold: bool,
    /// The largest degraded-over-healthy bound ratio across messages.
    pub max_inflation: f64,
    /// Adversarial frames the babblers emitted within the horizon.
    pub babble_emitted: u64,
    /// Frames corrupted by link error bursts.
    pub corrupted: u64,
    /// Frames lost to the trunk failover (queued on the dead trunk or
    /// flushed at reconvergence).
    pub lost_on_failover: u64,
    /// Stations the health monitor isolated within the horizon.
    pub isolated_stations: usize,
}

/// What the degraded stage of one scenario produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// Degraded-mode analysis produced bounds and the faulty simulation
    /// was checked against them.
    Validated(FaultValidation),
    /// The degraded-mode analysis is infeasible (the fault set pushes a
    /// multiplexer stage past capacity, or the healthy baseline already
    /// was) — a legitimate certification answer: the network cannot
    /// guarantee its deadlines under this fault set.
    AnalysisInfeasible {
        /// The stage that failed, as reported by the analysis.
        stage: String,
    },
}

/// The full record of one executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario specification (sufficient to reproduce the run).
    pub scenario: Scenario,
    /// What happened.
    pub outcome: ScenarioOutcome,
    /// The MIL-STD-1553B cross-technology section (present when the
    /// campaign ran with the 1553B comparison stage enabled).
    pub comparison: Option<ComparisonReport>,
    /// The degraded-stage section (present when the campaign ran with
    /// `--faults sweep`).
    pub fault: Option<FaultOutcome>,
}

// Hand-written (not derived) so fault-free campaigns serialize without the
// `fault` key and keep their pre-fault JSON byte-identical; `comparison`
// predates the fault axis and stays explicit (`null` when absent) for the
// same reason.
impl Serialize for ScenarioResult {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("scenario".to_string(), self.scenario.to_value()),
            ("outcome".to_string(), self.outcome.to_value()),
            ("comparison".to_string(), self.comparison.to_value()),
        ];
        if let Some(fault) = &self.fault {
            fields.push(("fault".to_string(), fault.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ScenarioResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(ScenarioResult {
            scenario: Deserialize::from_value(v.field("scenario")?)?,
            outcome: Deserialize::from_value(v.field("outcome")?)?,
            comparison: Deserialize::from_value(v.field("comparison")?)?,
            // Absent in every pre-fault record: tolerate the missing field.
            fault: match v.field("fault") {
                Ok(value) => Deserialize::from_value(value)?,
                Err(_) => None,
            },
        })
    }
}

impl ScenarioResult {
    /// Builds the record for a validated scenario from the core
    /// validation report.
    pub fn from_validation(
        scenario: Scenario,
        envelope: EnvelopeModel,
        envelope_gain: Option<EnvelopeGain>,
        deadline_misses: usize,
        pboo: PbooCheck,
        validation: &ValidationReport,
    ) -> Self {
        let violations = validation
            .violations()
            .into_iter()
            .map(|entry| ViolationReport {
                message: entry.name.clone(),
                bound: entry.bound,
                observed: entry.observed_worst,
            })
            .collect::<Vec<_>>();
        let tightness_values = validation.tightness_values();
        ScenarioResult {
            scenario,
            outcome: ScenarioOutcome::Validated(ScenarioValidation {
                messages: validation.entries.len(),
                envelope,
                envelope_gain,
                sound: violations.is_empty(),
                violations,
                pboo,
                deadline_misses,
                tightness: TightnessStats::from_values(&tightness_values),
                tightness_values,
                generated: validation.simulation.total_generated,
                delivered: validation.simulation.total_delivered,
                dropped: validation.simulation.total_dropped,
            }),
            comparison: None,
            fault: None,
        }
    }

    /// Attaches (or clears) the 1553B comparison section.
    pub fn with_comparison(mut self, comparison: Option<ComparisonReport>) -> Self {
        self.comparison = comparison;
        self
    }

    /// Attaches (or clears) the degraded-stage section.
    pub fn with_fault(mut self, fault: Option<FaultOutcome>) -> Self {
        self.fault = fault;
        self
    }
}

/// Aggregate of one policy arm of the sweep: per-policy soundness
/// (`sound` / `validated`), tightness (`mean_tightness`) and win counts
/// (`validated − deadline_miss_scenarios` scenarios whose bounds met every
/// deadline).
///
/// Keyed by [`PolicyArm`] — WRR scenarios each draw their own weights, but
/// they all aggregate into the one WRR row, which only appears when the
/// sweep actually contains a WRR arm (so campaigns forced onto the
/// pre-WRR policies serialize byte-identically to the pre-WRR output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproachBreakdown {
    /// The scheduling-policy arm.
    pub approach: PolicyArm,
    /// Scenarios of this arm that produced bounds.
    pub validated: usize,
    /// Scenarios of this arm found analytically infeasible.
    pub infeasible: usize,
    /// Validated scenarios with zero violations.
    pub sound: usize,
    /// Validated scenarios where at least one analytic bound missed its
    /// deadline.
    pub deadline_miss_scenarios: usize,
    /// Mean of the per-scenario mean tightness.
    pub mean_tightness: f64,
}

/// Tightness distribution across every message of every validated
/// scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TightnessDistribution {
    /// Number of (scenario, message) samples.
    pub count: usize,
    /// Smallest ratio.
    pub min: f64,
    /// Mean ratio.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest ratio.
    pub max: f64,
}

impl TightnessDistribution {
    /// Computes the distribution (empty input yields zeros).
    pub fn from_values(mut values: Vec<f64>) -> Self {
        if values.is_empty() {
            return TightnessDistribution {
                count: 0,
                min: 0.0,
                mean: 0.0,
                p50: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("tightness values are finite"));
        let count = values.len();
        let sum: f64 = values.iter().sum();
        TightnessDistribution {
            count,
            min: values[0],
            mean: sum / count as f64,
            p50: values[nearest_rank(count, 50)],
            p99: values[nearest_rank(count, 99)],
            max: values[count - 1],
        }
    }
}

/// Nearest-rank percentile index for `count` sorted samples.
fn nearest_rank(count: usize, percentile: usize) -> usize {
    ((count * percentile).div_ceil(100)).clamp(1, count) - 1
}

/// A violation annotated with the scenario it occurred in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignViolation {
    /// The offending scenario's id.
    pub scenario_id: usize,
    /// The offending scenario's seed (for reproduction).
    pub seed: u64,
    /// The violation.
    pub violation: ViolationReport,
}

/// Campaign-level aggregation of the degraded stage — attached to the
/// outcome only when the campaign ran with `--faults sweep`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Scenarios that ran the degraded stage.
    pub scenarios: usize,
    /// Scenarios whose degraded bounds were validated against the faulty
    /// simulation.
    pub validated: usize,
    /// Scenarios whose fault set is analytically infeasible.
    pub infeasible: usize,
    /// Validated scenarios with zero degraded-bound violations.
    pub sound_scenarios: usize,
    /// `sound_scenarios / validated` (1.0 when nothing was validated).
    pub soundness_rate: f64,
    /// Validated scenarios whose degraded bounds still meet every
    /// deadline.
    pub bounds_hold_scenarios: usize,
    /// Scenarios whose fault set included a trunk failover.
    pub failover_scenarios: usize,
    /// The largest degraded-over-healthy bound ratio across the sweep.
    pub max_inflation: f64,
    /// Adversarial frames babbled across all scenarios.
    pub babble_frames: u64,
    /// Every degraded-bound violation across the campaign (must be empty).
    pub violations: Vec<CampaignViolation>,
}

impl FaultSummary {
    /// `true` when every validated degraded stage was sound.
    pub fn all_sound(&self) -> bool {
        self.violations.is_empty() && self.sound_scenarios == self.validated
    }
}

/// Campaign-level statistics over every scenario result, folded by
/// [`crate::StreamAggregate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Scenarios executed.
    pub scenarios: usize,
    /// Scenarios that produced bounds and were validated.
    pub validated: usize,
    /// Scenarios found analytically infeasible.
    pub infeasible: usize,
    /// Validated scenarios with zero violations.
    pub sound_scenarios: usize,
    /// `sound_scenarios / validated` (1.0 when nothing was validated —
    /// an empty claim is vacuously sound).
    pub soundness_rate: f64,
    /// Total (scenario, message) pairs checked against a bound.
    pub messages_checked: usize,
    /// Validated scenarios that ran over a multi-switch (cascaded) fabric.
    pub cascaded_validated: usize,
    /// Validated cascaded scenarios where the pay-bursts-only-once bound
    /// exceeded the per-hop sum (must be zero — the convolution theorem
    /// guarantees consistency).
    pub pboo_violations: usize,
    /// The largest pay-bursts-only-once gain (`per-hop sum − convolved`)
    /// observed across all validated scenarios.
    pub max_pboo_gain: Duration,
    /// Validated scenarios whose bounds came from the staircase envelope
    /// arm.
    pub staircase_validated: usize,
    /// Scenarios where a staircase analysis ran but tightened nothing
    /// (zero maximum gain) — expected for workloads whose staircases
    /// degenerate to token buckets.
    pub zero_gain_scenarios: usize,
    /// Distribution of the per-scenario *median* staircase-over-token-
    /// bucket relative gains, across every scenario that ran both
    /// analyses (count 0 when the envelope dimension was overridden to
    /// token-bucket only).
    pub envelope_gain: TightnessDistribution,
    /// Every violation across the campaign (must be empty).
    pub violations: Vec<CampaignViolation>,
    /// Tightness distribution across all validated messages.
    pub tightness: TightnessDistribution,
    /// Per-policy breakdown.
    pub by_approach: Vec<ApproachBreakdown>,
    /// Total frames simulated across all scenarios.
    pub frames_simulated: u64,
    /// Cross-technology (MIL-STD-1553B vs Ethernet) aggregation, present
    /// when the campaign ran with the 1553B stage enabled.
    pub comparison: Option<ComparisonSummary>,
}

impl CampaignSummary {
    /// `true` when every validated scenario was sound.
    pub fn all_sound(&self) -> bool {
        self.violations.is_empty() && self.sound_scenarios == self.validated
    }

    /// `true` when the pay-bursts-only-once bound stayed below the per-hop
    /// sum in every validated scenario.
    pub fn pboo_consistent(&self) -> bool {
        self.pboo_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tightness_stats_from_values() {
        let stats = TightnessStats::from_values(&[0.5, 0.1, 0.9]);
        assert_eq!(stats.count, 3);
        assert_eq!(stats.min, 0.1);
        assert_eq!(stats.max, 0.9);
        assert!((stats.mean - 0.5).abs() < 1e-12);
        assert_eq!(TightnessStats::from_values(&[]).count, 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(nearest_rank(1, 99), 0);
        assert_eq!(nearest_rank(100, 99), 98);
        assert_eq!(nearest_rank(100, 50), 49);
        assert_eq!(nearest_rank(3, 50), 1);
        assert_eq!(nearest_rank(200, 99), 197);
        let d = TightnessDistribution::from_values((1..=100).map(|i| i as f64 / 100.0).collect());
        assert_eq!(d.count, 100);
        assert_eq!(d.min, 0.01);
        assert_eq!(d.max, 1.0);
        assert_eq!(d.p50, 0.5);
        assert_eq!(d.p99, 0.99);
    }

    #[test]
    fn empty_summary_is_vacuously_sound() {
        let (summary, fault_summary) = crate::StreamAggregate::new().finish();
        assert!(fault_summary.is_none());
        assert_eq!(summary.scenarios, 0);
        assert_eq!(summary.soundness_rate, 1.0);
        assert!(summary.all_sound());
    }
}
