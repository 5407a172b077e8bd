//! The traced scenario replay: the public calls `execute_scenario_with`
//! makes, in the same order, each wrapped in a span.
//!
//! The spans are recorded from this file, around the calls into each
//! layer, so the program under test carries no instrumentation.  The
//! replay is faithful when its result fingerprints equal those of
//! `execute_scenario_with` on the same scenario; the campaign profile
//! checks that on every replayed scenario.

use campaign::{
    compare_scenario, result_fingerprint, EnvelopeGain, FaultDraw, FaultOutcome, FaultValidation,
    PbooCheck, Scenario, ScenarioOutcome, ScenarioResult, StreamAggregate, ViolationReport,
};
use netcalc::EnvelopeModel;
use netsim::Simulator;
use rtswitch_core::{
    analyze_degraded_with, analyze_multi_hop_with, validation_from_bound_lookup, AnalysisError,
};
use std::time::{Duration, Instant};

/// The layer calls a scenario is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `Scenario::build_workload` + `build_fabric` + `FaultDraw::expand`.
    Build,
    /// `analyze_multi_hop_with(.., TokenBucket)`.
    TbAnalysis,
    /// `analyze_multi_hop_with(.., Staircase)`.
    StaircaseAnalysis,
    /// `analyze_degraded_with`.
    DegradedAnalysis,
    /// `Simulator::with_fabric` + `run` of the healthy network.
    Sim,
    /// `Simulator::with_fabric` + `with_faults` + `run`.
    FaultySim,
    /// `validation_from_bound_lookup`, healthy and degraded.
    Validation,
    /// `compare_scenario`, the MIL-STD-1553B stage.
    Compare1553,
    /// `result_fingerprint` + `StreamAggregate::fold`.
    Fold,
}

impl Stage {
    /// Every stage, in report order.
    pub const ALL: [Stage; 9] = [
        Stage::Build,
        Stage::TbAnalysis,
        Stage::StaircaseAnalysis,
        Stage::DegradedAnalysis,
        Stage::Sim,
        Stage::FaultySim,
        Stage::Validation,
        Stage::Compare1553,
        Stage::Fold,
    ];

    /// The layer-qualified name the metrics use.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Build => "workload.build",
            Stage::TbAnalysis => "core.tb_analysis",
            Stage::StaircaseAnalysis => "core.staircase_analysis",
            Stage::DegradedAnalysis => "core.degraded_analysis",
            Stage::Sim => "netsim.sim",
            Stage::FaultySim => "netsim.faulty_sim",
            Stage::Validation => "core.validation",
            Stage::Compare1553 => "milstd1553.compare",
            Stage::Fold => "campaign.fold",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The spans of one replayed scenario.
#[derive(Debug, Clone, Default)]
pub struct ScenarioTrace {
    /// Busy time per stage, indexed like [`Stage::ALL`].
    pub stage: [Duration; Stage::ALL.len()],
    /// Calls per stage.
    pub calls: [u32; Stage::ALL.len()],
    /// Frames the simulations generated (healthy and faulty).
    pub frames: u64,
    /// Wall time of the whole replay, fold included.
    pub total: Duration,
}

impl ScenarioTrace {
    fn span<T>(&mut self, stage: Stage, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        self.stage[stage.index()] += started.elapsed();
        self.calls[stage.index()] += 1;
        out
    }

    /// Busy time of one stage.
    pub fn time(&self, stage: Stage) -> Duration {
        self.stage[stage.index()]
    }

    /// Calls of one stage.
    pub fn calls(&self, stage: Stage) -> u32 {
        self.calls[stage.index()]
    }

    /// The stage that took longest.
    pub fn dominant(&self) -> Stage {
        Stage::ALL
            .into_iter()
            .max_by_key(|&s| self.time(s))
            .expect("at least one stage")
    }
}

/// Replays one scenario with spans, folds it into `aggregate`, and
/// returns the result, its fingerprint and the trace.
pub fn replay_scenario(
    scenario: Scenario,
    with_1553: bool,
    envelope_override: Option<EnvelopeModel>,
    aggregate: &mut StreamAggregate,
) -> (ScenarioResult, u64, ScenarioTrace) {
    let started = Instant::now();
    let mut trace = ScenarioTrace::default();
    let result = replay(scenario, with_1553, envelope_override, &mut trace);
    let fingerprint = trace.span(Stage::Fold, || {
        aggregate.fold(&result);
        result_fingerprint(&result)
    });
    trace.total = started.elapsed();
    (result, fingerprint, trace)
}

/// `execute_scenario_with`, call for call.
fn replay(
    scenario: Scenario,
    with_1553: bool,
    envelope_override: Option<EnvelopeModel>,
    trace: &mut ScenarioTrace,
) -> ScenarioResult {
    let workload = trace.span(Stage::Build, || scenario.build_workload());
    let fabric = trace.span(Stage::Build, || scenario.build_fabric(&workload));
    let config = scenario.network_config();
    let model = envelope_override.unwrap_or(scenario.envelope);
    let fault = scenario
        .faults
        .map(|draw| replay_fault_stage(&scenario, draw, model, trace));
    let tb = trace.span(Stage::TbAnalysis, || {
        analyze_multi_hop_with(
            &workload,
            &config,
            scenario.approach,
            &fabric,
            EnvelopeModel::TokenBucket,
        )
    });
    match tb {
        Err(AnalysisError::Stage { stage, .. }) => {
            let comparison = with_1553.then(|| {
                trace.span(Stage::Compare1553, || {
                    compare_scenario(&workload, |_| None, scenario.horizon, scenario.seed)
                })
            });
            ScenarioResult {
                scenario,
                outcome: ScenarioOutcome::AnalysisInfeasible { stage },
                comparison,
                fault,
            }
        }
        Ok(tb_analysis) => {
            let staircase_analysis =
                (envelope_override != Some(EnvelopeModel::TokenBucket)).then(|| {
                    trace.span(Stage::StaircaseAnalysis, || {
                        analyze_multi_hop_with(
                            &workload,
                            &config,
                            scenario.approach,
                            &fabric,
                            EnvelopeModel::Staircase,
                        )
                        .expect("staircase stage bounds are minima that include the closed form")
                    })
                });
            let envelope_gain = staircase_analysis
                .as_ref()
                .map(|st| EnvelopeGain::from_reports(&tb_analysis, st));
            let analysis = match (model, staircase_analysis) {
                (EnvelopeModel::Staircase, Some(st)) => st,
                _ => tb_analysis,
            };
            let deadline_misses = analysis.violations().len();
            let pboo = PbooCheck {
                cascaded: fabric.switch_count() > 1,
                consistent: analysis.pboo_consistent(),
                max_gain: analysis.max_pboo_gain(),
            };
            let comparison = with_1553.then(|| {
                trace.span(Stage::Compare1553, || {
                    compare_scenario(
                        &workload,
                        |id| analysis.bound_for(id).map(|b| b.total_bound),
                        scenario.horizon,
                        scenario.seed,
                    )
                })
            });
            let simulation = trace.span(Stage::Sim, || {
                Simulator::with_fabric(workload.clone(), scenario.sim_config(), fabric).run()
            });
            trace.frames += simulation.total_generated;
            let validation = trace.span(Stage::Validation, || {
                validation_from_bound_lookup(
                    &workload,
                    |id| analysis.bound_for(id).map(|b| b.total_bound),
                    simulation,
                )
            });
            ScenarioResult::from_validation(
                scenario,
                analysis.envelope,
                envelope_gain,
                deadline_misses,
                pboo,
                &validation,
            )
            .with_comparison(comparison)
            .with_fault(fault)
        }
    }
}

/// The runner's private degraded stage, rebuilt from public calls.
fn replay_fault_stage(
    scenario: &Scenario,
    draw: FaultDraw,
    model: EnvelopeModel,
    trace: &mut ScenarioTrace,
) -> FaultOutcome {
    let workload = trace.span(Stage::Build, || scenario.build_workload());
    let fabric = trace.span(Stage::Build, || scenario.build_fabric(&workload));
    let config = scenario.network_config();
    let faults = trace.span(Stage::Build, || {
        draw.expand(workload.stations.len(), &fabric, scenario.horizon)
    });
    let degraded = trace.span(Stage::DegradedAnalysis, || {
        analyze_degraded_with(
            &workload,
            &config,
            scenario.approach,
            &fabric,
            model,
            &faults,
        )
    });
    match degraded {
        Err(AnalysisError::Stage { stage, .. }) => FaultOutcome::AnalysisInfeasible { stage },
        Ok(degraded) => {
            let simulation = trace.span(Stage::FaultySim, || {
                Simulator::with_fabric(workload.clone(), scenario.sim_config(), fabric)
                    .with_faults(faults.clone())
                    .run()
            });
            trace.frames += simulation.total_generated;
            let validation = trace.span(Stage::Validation, || {
                validation_from_bound_lookup(&workload, |id| degraded.bound_for(id), simulation)
            });
            let violations: Vec<ViolationReport> = validation
                .violations()
                .into_iter()
                .map(|entry| ViolationReport {
                    message: entry.name.clone(),
                    bound: entry.bound,
                    observed: entry.observed_worst,
                })
                .collect();
            let report = validation.simulation.faults.clone().unwrap_or_default();
            FaultOutcome::Validated(FaultValidation {
                fault_count: faults.fault_count(),
                failover: faults.failover.is_some(),
                messages: validation.entries.len(),
                sound: violations.is_empty(),
                violations,
                bounds_hold: degraded.bounds_hold,
                max_inflation: degraded.max_inflation(),
                babble_emitted: report.babble_emitted,
                corrupted: report.corrupted,
                lost_on_failover: report.lost_on_failover,
                isolated_stations: report.isolated_stations.len(),
            })
        }
    }
}
