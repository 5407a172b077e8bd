//! The parallel campaign executor.
//!
//! One deterministic engine, parallelism across *runs*: a pool of worker
//! threads pulls scenario indices from a shared atomic counter, executes
//! each scenario's full analytic-plus-simulation pipeline independently,
//! and streams the results back over a channel.  Because every scenario is
//! a pure function of `(master seed, scenario id)` and results are sorted
//! by id before aggregation, the campaign outcome is byte-identical across
//! runs regardless of thread count or scheduling order — only the runtime
//! statistics (wall time, throughput, per-thread load) vary.

use crate::comparison::compare_scenario;
use crate::report::{
    CampaignSummary, EnvelopeGain, FaultOutcome, FaultSummary, FaultValidation, PbooCheck,
    ScenarioOutcome, ScenarioResult, ViolationReport,
};
use crate::space::{FaultDraw, Scenario, ScenarioSpace};
use netcalc::EnvelopeModel;
use netsim::Simulator;
use rtswitch_core::{
    analyze_degraded_with, analyze_multi_hop_with, validation_from_bound_lookup, AnalysisError,
    Approach, PolicyArm,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// The fault dimension of a campaign (`--faults` CLI flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultMode {
    /// No degraded stage: the pre-fault pipeline, byte-identical output.
    #[default]
    Off,
    /// Every scenario draws a seeded fault set; the degraded stage
    /// validates the degraded-mode bounds against the faulty simulation.
    Sweep,
}

/// Configuration of a campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of scenarios to generate and execute.
    pub scenarios: usize,
    /// Master seed of the scenario space.
    pub master_seed: u64,
    /// Worker threads; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// Run the MIL-STD-1553B cross-technology stage in every scenario
    /// (the `--with-1553` CLI flag): synthesize a bus schedule from the
    /// same workload, validate its analytic bounds against the seeded bus
    /// replay, and compare per-message against the Ethernet bounds.
    pub with_1553: bool,
    /// Force one arrival-envelope model for every scenario instead of
    /// sweeping the per-scenario envelope arm (`--envelope` CLI flag).
    /// `Some(TokenBucket)` is the pre-refactor configuration: only the
    /// closed-form pipeline runs and its bounds are reproduced exactly.
    pub envelope_override: Option<EnvelopeModel>,
    /// Force one scheduling-policy arm onto every scenario instead of
    /// sweeping the per-scenario policy dimension (`--policy` CLI flag).
    /// `Some(Fcfs)` / `Some(StrictPriority)` reproduce the pre-WRR
    /// campaign outputs byte for byte; `Some(Wrr)` validates every
    /// scenario's own seeded WRR weight set.
    pub policy_override: Option<PolicyArm>,
    /// Fault dimension (`--faults` CLI flag): [`FaultMode::Off`] runs the
    /// pre-fault pipeline byte-identically; [`FaultMode::Sweep`] draws a
    /// seeded fault set per scenario — last in the draw order, so every
    /// healthy dimension stays byte-identical at any seed — and appends
    /// the degraded stage.
    pub faults: FaultMode,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            scenarios: 200,
            master_seed: 42,
            threads: 0,
            with_1553: false,
            envelope_override: None,
            policy_override: None,
            faults: FaultMode::Off,
        }
    }
}

impl CampaignConfig {
    /// The worker count this configuration resolves to on this machine.
    ///
    /// `threads == 0` uses the machine's available parallelism, floored at
    /// two workers: scenario execution alternates CPU-bound simulation
    /// with aggregation hand-off, so even a single-core host overlaps
    /// usefully — and the campaign's determinism contract makes the
    /// worker count observable only in [`RuntimeStats`].
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2)
        }
    }
}

/// The deterministic part of a campaign's output: scenario results (sorted
/// by id) plus the aggregate statistics computed from them.  Serializing
/// this is byte-identical across runs with the same configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// The configuration that produced this outcome (threads excluded from
    /// determinism: any thread count produces the same outcome).
    pub master_seed: u64,
    /// Per-scenario results, ordered by scenario id.
    pub results: Vec<ScenarioResult>,
    /// Campaign-level aggregation.
    pub summary: CampaignSummary,
    /// Degraded-stage aggregation, present only under `--faults sweep`.
    pub fault_summary: Option<FaultSummary>,
}

// Hand-written (not derived) so fault-free campaigns serialize without the
// `fault_summary` key: `--faults off` output stays byte-identical to the
// pre-fault pipeline's, which the regression suite pins.
impl Serialize for CampaignOutcome {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("master_seed".to_string(), self.master_seed.to_value()),
            ("results".to_string(), self.results.to_value()),
            ("summary".to_string(), self.summary.to_value()),
        ];
        if let Some(fault_summary) = &self.fault_summary {
            fields.push(("fault_summary".to_string(), fault_summary.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for CampaignOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(CampaignOutcome {
            master_seed: Deserialize::from_value(v.field("master_seed")?)?,
            results: Deserialize::from_value(v.field("results")?)?,
            summary: Deserialize::from_value(v.field("summary")?)?,
            // Absent in every pre-fault record: tolerate the missing field.
            fault_summary: match v.field("fault_summary") {
                Ok(value) => Deserialize::from_value(value)?,
                Err(_) => None,
            },
        })
    }
}

/// Wall-clock statistics of one campaign execution — everything here is
/// machine- and run-dependent, which is why it lives outside
/// [`CampaignOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Worker threads used.
    pub threads: usize,
    /// Scenarios executed by each worker (index = worker).
    pub per_thread: Vec<usize>,
    /// Wall-clock seconds the execution took.
    pub elapsed_secs: f64,
    /// Scenarios per wall-clock second.
    pub scenarios_per_sec: f64,
    /// Min-plus operator invocations during this run, one count per
    /// operator: convolve, deconvolve, leftover, add, sub_envelope,
    /// min/max combine and both deviations.  A delta of the process-global
    /// counters, so concurrent campaigns in one process fold together — the
    /// CLI runs one at a time.
    pub ops: netcalc::counters::OpCounters,
}

impl RuntimeStats {
    /// How many workers executed at least one scenario.
    pub fn busy_threads(&self) -> usize {
        self.per_thread.iter().filter(|&&n| n > 0).count()
    }
}

/// A complete campaign run: the reproducible outcome plus this execution's
/// runtime statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The deterministic outcome.
    pub outcome: CampaignOutcome,
    /// This run's wall-clock statistics.
    pub runtime: RuntimeStats,
}

/// Executes one scenario's full pipeline with the default stages (no
/// 1553B comparison, envelope dimension live) — see
/// [`execute_scenario_with`].
pub fn execute_scenario(scenario: Scenario) -> ScenarioResult {
    execute_scenario_with(scenario, false, None)
}

/// Executes one scenario's full pipeline: build the workload and fabric,
/// run the multi-hop analytic bounds (per-hop sum and pay-bursts-only-once
/// alike), execute the matching cascaded simulation, and compare.
///
/// The arrival-envelope dimension works as follows: the closed-form
/// token-bucket analysis always runs; unless `envelope_override` is
/// `Some(TokenBucket)`, the staircase analysis runs alongside it and the
/// per-message tightening is recorded ([`EnvelopeGain`]).  The bounds
/// validated against the simulation are those of the scenario's envelope
/// arm (or of the override).
///
/// With `with_1553` the cross-technology stage additionally runs the
/// MIL-STD-1553B pipeline on the same workload ([`compare_scenario`]) and
/// attaches its [`crate::ComparisonReport`] section.
pub fn execute_scenario_with(
    scenario: Scenario,
    with_1553: bool,
    envelope_override: Option<EnvelopeModel>,
) -> ScenarioResult {
    let workload = scenario.build_workload();
    let fabric = scenario.build_fabric(&workload);
    debug_assert_eq!(
        scenario.build_topology(&workload).end_systems().len(),
        workload.stations.len()
    );
    let config = scenario.network_config();
    let model = envelope_override.unwrap_or(scenario.envelope);
    // The degraded stage is independent of the healthy pipeline's outcome:
    // an infeasible fault set is a certification answer in its own right.
    let fault = scenario
        .faults
        .map(|draw| execute_fault_stage(&scenario, draw, model));
    match analyze_multi_hop_with(
        &workload,
        &config,
        scenario.approach,
        &fabric,
        EnvelopeModel::TokenBucket,
    ) {
        Err(AnalysisError::Stage { stage, .. }) => {
            // The Ethernet analysis is infeasible (stability is judged on
            // the token-bucket rates, so the staircase arm cannot save
            // it): the bus side still runs (with no Ethernet bounds to win
            // against) so the comparison section covers every scenario.
            let comparison = with_1553
                .then(|| compare_scenario(&workload, |_| None, scenario.horizon, scenario.seed));
            ScenarioResult {
                scenario,
                outcome: ScenarioOutcome::AnalysisInfeasible { stage },
                comparison,
                fault,
            }
        }
        Ok(tb_analysis) => {
            // The staircase analysis rides along whenever the envelope
            // dimension is live, both to validate the staircase arm and to
            // report the per-scenario tightness gain.
            let staircase_analysis =
                (envelope_override != Some(EnvelopeModel::TokenBucket)).then(|| {
                    analyze_multi_hop_with(
                        &workload,
                        &config,
                        scenario.approach,
                        &fabric,
                        EnvelopeModel::Staircase,
                    )
                    .expect("staircase stage bounds are minima that include the closed form")
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
                compare_scenario(
                    &workload,
                    |id| analysis.bound_for(id).map(|b| b.total_bound),
                    scenario.horizon,
                    scenario.seed,
                )
            });
            // sim_config() already carries the scenario's seed; run() is
            // the single seed path (Simulator::run_with_seed exists for
            // callers sharing one Simulator across differently-seeded
            // runs, which a fresh per-scenario Simulator does not need).
            let simulator = Simulator::with_fabric(workload.clone(), scenario.sim_config(), fabric);
            let simulation = simulator.run();
            let validation = validation_from_bound_lookup(
                &workload,
                |id| analysis.bound_for(id).map(|b| b.total_bound),
                simulation,
            );
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

/// Runs the degraded stage of one scenario: expand the drawn fault set,
/// compute the degraded-mode analytic bounds (babblers as extra
/// cross-traffic envelopes, failover re-routed through the backup trunk),
/// run the faulty simulation with the *same* fault set, and validate every
/// surviving frame's delay against its degraded bound.
fn execute_fault_stage(scenario: &Scenario, draw: FaultDraw, model: EnvelopeModel) -> FaultOutcome {
    let workload = scenario.build_workload();
    let fabric = scenario.build_fabric(&workload);
    let config = scenario.network_config();
    let faults = draw.expand(workload.stations.len(), &fabric, scenario.horizon);
    match analyze_degraded_with(
        &workload,
        &config,
        scenario.approach,
        &fabric,
        model,
        &faults,
    ) {
        Err(AnalysisError::Stage { stage, .. }) => FaultOutcome::AnalysisInfeasible { stage },
        Ok(degraded) => {
            let simulator = Simulator::with_fabric(workload.clone(), scenario.sim_config(), fabric)
                .with_faults(faults.clone());
            let simulation = simulator.run();
            let validation =
                validation_from_bound_lookup(&workload, |id| degraded.bound_for(id), simulation);
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

/// Expands a configuration into its executable scenario list: the master
/// seed generates the space, and the policy override (if any) replaces
/// each scenario's drawn arm before execution (and therefore before
/// serialization) — forcing FCFS or strict priority reproduces the
/// pre-WRR campaign byte for byte, and forcing WRR puts every scenario on
/// its own seeded weight set.  Shared by the buffered ([`run_campaign`])
/// and sharded ([`crate::shard::run_sharded_campaign`]) executors, so a
/// shard over `[start, end)` sees exactly the scenarios the buffered run
/// would execute at those indices.
pub(crate) fn prepared_scenarios(config: &CampaignConfig) -> Vec<Scenario> {
    let space =
        ScenarioSpace::new(config.master_seed).with_faults(config.faults == FaultMode::Sweep);
    let mut scenarios = space.scenarios(config.scenarios);
    if let Some(arm) = config.policy_override {
        for scenario in &mut scenarios {
            scenario.approach = match arm {
                PolicyArm::Fcfs => Approach::Fcfs,
                PolicyArm::StrictPriority => Approach::StrictPriority,
                PolicyArm::Wrr => space.wrr_arm(scenario.id),
            };
        }
    }
    scenarios
}

/// Runs a campaign: generates `config.scenarios` scenarios from the master
/// seed and executes them on `config.effective_threads()` workers.
pub fn run_campaign(config: CampaignConfig) -> CampaignReport {
    let scenarios = prepared_scenarios(&config);
    let threads = config
        .effective_threads()
        .max(1)
        .min(scenarios.len().max(1));

    let started = Instant::now();
    let ops_before = netcalc::counters::OpCounters::snapshot();
    let next = AtomicUsize::new(0);
    let (sender, receiver) = mpsc::channel::<(usize, ScenarioResult)>();
    let mut per_thread = vec![0usize; threads];

    thread::scope(|scope| {
        for worker in 0..threads {
            let sender = sender.clone();
            let next = &next;
            let scenarios = &scenarios;
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(scenario) = scenarios.get(index).copied() else {
                    break;
                };
                let result =
                    execute_scenario_with(scenario, config.with_1553, config.envelope_override);
                if sender.send((worker, result)).is_err() {
                    break;
                }
            });
        }
        drop(sender);
        // Drain on the coordinating thread while workers run.
        let mut collected: Vec<ScenarioResult> = Vec::with_capacity(scenarios.len());
        for (worker, result) in receiver {
            per_thread[worker] += 1;
            collected.push(result);
        }
        collected.sort_by_key(|r| r.scenario.id);
        let elapsed = started.elapsed().as_secs_f64();
        let summary = CampaignSummary::from_results(&collected);
        let fault_summary = FaultSummary::from_results(&collected);
        CampaignReport {
            outcome: CampaignOutcome {
                master_seed: config.master_seed,
                results: collected,
                summary,
                fault_summary,
            },
            runtime: RuntimeStats {
                threads,
                per_thread: per_thread.clone(),
                elapsed_secs: elapsed,
                scenarios_per_sec: if elapsed > 0.0 {
                    scenarios.len() as f64 / elapsed
                } else {
                    0.0
                },
                ops: netcalc::counters::OpCounters::snapshot().delta_since(&ops_before),
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(threads: usize) -> CampaignConfig {
        CampaignConfig {
            scenarios: 24,
            master_seed: 42,
            threads,
            with_1553: false,
            envelope_override: None,
            policy_override: None,
            faults: FaultMode::Off,
        }
    }

    #[test]
    fn outcome_is_byte_identical_across_runs_and_thread_counts() {
        let a = run_campaign(small_config(4));
        let b = run_campaign(small_config(2));
        assert_eq!(a.outcome, b.outcome);
        let json_a = serde_json::to_string_pretty(&a.outcome).unwrap();
        let json_b = serde_json::to_string_pretty(&b.outcome).unwrap();
        assert_eq!(json_a, json_b);
        // A different master seed explores different scenarios.
        let c = run_campaign(CampaignConfig {
            master_seed: 7,
            ..small_config(4)
        });
        assert_ne!(a.outcome.results, c.outcome.results);
    }

    #[test]
    fn every_validated_scenario_is_sound() {
        let report = run_campaign(small_config(4));
        let summary = &report.outcome.summary;
        assert_eq!(summary.scenarios, 24);
        assert!(summary.validated > 0, "campaign validated nothing");
        assert!(
            summary.all_sound(),
            "bound violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.soundness_rate, 1.0);
        assert!(summary.pboo_consistent());
        assert!(summary.tightness.count > 0);
        assert!(summary.tightness.max <= 1.0 + 1e-12);
        assert!(summary.tightness.min >= 0.0);
    }

    #[test]
    fn cascaded_scenarios_are_sound_and_pboo_consistent() {
        // A dedicated sweep over cascaded topologies only: walk the
        // scenario space, keep the multi-switch draws, and require every
        // validated one to be sound (analytic bound ≥ simulated worst) with
        // the convolved bound at or below the per-hop sum.
        let space = ScenarioSpace::new(42);
        let cascaded: Vec<_> = (0..96)
            .map(|id| space.scenario(id))
            .filter(|s| s.fabric.is_cascaded())
            .take(16)
            .collect();
        assert!(cascaded.len() >= 8, "too few cascaded draws");
        let mut validated = 0;
        let mut saw_gain = false;
        for scenario in cascaded {
            let result = execute_scenario(scenario);
            if let crate::report::ScenarioOutcome::Validated(v) = &result.outcome {
                validated += 1;
                assert!(
                    v.sound,
                    "scenario {} (seed {}) violated soundness: {:?}",
                    scenario.id, scenario.seed, v.violations
                );
                assert!(
                    v.pboo.consistent,
                    "scenario {} violated convolved ≤ per-hop sum",
                    scenario.id
                );
                assert!(v.pboo.cascaded);
                saw_gain |= v.pboo.max_gain > units::Duration::ZERO;
            }
        }
        assert!(validated > 0, "no cascaded scenario was validated");
        assert!(saw_gain, "PBOO never tightened a cascaded bound");
    }

    #[test]
    fn work_is_spread_across_workers() {
        let report = run_campaign(small_config(4));
        assert_eq!(report.runtime.threads, 4);
        assert_eq!(report.runtime.per_thread.iter().sum::<usize>(), 24);
        assert!(report.runtime.busy_threads() >= 1);
        // Whether a *second* worker gets scheduled before the first drains
        // the whole (fast) queue is up to the OS; only require it where
        // the host actually has parallel cores to schedule onto.
        if thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            >= 2
        {
            assert!(
                report.runtime.busy_threads() >= 2,
                "per-thread load: {:?}",
                report.runtime.per_thread
            );
        }
        assert!(report.runtime.scenarios_per_sec > 0.0);
    }

    #[test]
    fn the_1553_stage_is_deterministic_and_sound() {
        // The cross-technology stage: same seed and scenario count must
        // produce byte-identical JSON regardless of thread count, the bus
        // analytic bound must be sound in every feasible scenario, and the
        // sweep must contain both feasible and capacity-rejected draws.
        let config = CampaignConfig {
            with_1553: true,
            ..small_config(4)
        };
        let a = run_campaign(config);
        let b = run_campaign(CampaignConfig {
            threads: 2,
            ..config
        });
        assert_eq!(a.outcome, b.outcome);
        let json_a = serde_json::to_string_pretty(&a.outcome).unwrap();
        let json_b = serde_json::to_string_pretty(&b.outcome).unwrap();
        assert_eq!(json_a, json_b);

        let comparison = a
            .outcome
            .summary
            .comparison
            .as_ref()
            .expect("--with-1553 populates the comparison summary");
        assert_eq!(comparison.attempted, 24);
        assert_eq!(comparison.feasible + comparison.infeasible, 24);
        assert!(comparison.feasible > 0, "no scenario fit the 1 Mbps bus");
        assert!(
            comparison.infeasible > 0,
            "no scenario exceeded the 1 Mbps bus"
        );
        assert!(
            comparison.all_sound(),
            "1553 bound violations: {:?}",
            comparison.violations
        );
        assert_eq!(comparison.soundness_rate, 1.0);
        // Ethernet wins messages the polled bus cannot serve; never the
        // other way around at the campaign's rates.
        assert!(comparison.ethernet_only_wins > 0);
        // Every scenario carries its per-scenario section.
        assert!(a.outcome.results.iter().all(|r| r.comparison.is_some()));
    }

    #[test]
    fn without_the_stage_no_comparison_is_recorded() {
        let report = run_campaign(small_config(2));
        assert!(report.outcome.summary.comparison.is_none());
        assert!(report
            .outcome
            .results
            .iter()
            .all(|r| r.comparison.is_none()));
    }

    #[test]
    fn thread_count_is_clamped_to_scenarios() {
        let report = run_campaign(CampaignConfig {
            scenarios: 2,
            master_seed: 1,
            threads: 16,
            with_1553: false,
            envelope_override: None,
            policy_override: None,
            faults: FaultMode::Off,
        });
        assert_eq!(report.runtime.threads, 2);
        assert_eq!(report.outcome.results.len(), 2);
    }

    #[test]
    fn staircase_arm_scenarios_are_sound_and_record_gains() {
        // Force the staircase model on every scenario: bounds must stay
        // sound against the simulator and the recorded gains must be
        // non-negative, with at least one scenario genuinely tightened.
        let report = run_campaign(CampaignConfig {
            envelope_override: Some(netcalc::EnvelopeModel::Staircase),
            policy_override: None,
            ..small_config(4)
        });
        let summary = &report.outcome.summary;
        assert!(summary.all_sound(), "violations: {:?}", summary.violations);
        assert!(summary.pboo_consistent());
        assert_eq!(summary.staircase_validated, summary.validated);
        assert!(summary.envelope_gain.count > 0);
        assert!(summary.envelope_gain.min >= 0.0);
        assert!(
            summary.envelope_gain.max > 0.0,
            "staircase envelopes tightened nothing across {} scenarios",
            summary.validated
        );
        for result in &report.outcome.results {
            if let ScenarioOutcome::Validated(v) = &result.outcome {
                assert_eq!(v.envelope, netcalc::EnvelopeModel::Staircase);
                let gain = v.envelope_gain.as_ref().expect("both analyses ran");
                assert!(gain.mean >= 0.0 && gain.max >= gain.median);
            }
        }
    }

    #[test]
    fn token_bucket_override_disables_the_staircase_stage() {
        let report = run_campaign(CampaignConfig {
            envelope_override: Some(netcalc::EnvelopeModel::TokenBucket),
            policy_override: None,
            ..small_config(2)
        });
        let summary = &report.outcome.summary;
        assert!(summary.all_sound());
        assert_eq!(summary.staircase_validated, 0);
        assert_eq!(summary.envelope_gain.count, 0);
        for result in &report.outcome.results {
            if let ScenarioOutcome::Validated(v) = &result.outcome {
                assert_eq!(v.envelope, netcalc::EnvelopeModel::TokenBucket);
                assert!(v.envelope_gain.is_none());
            }
        }
    }

    #[test]
    fn envelope_sweep_validates_each_scenarios_own_arm() {
        let report = run_campaign(small_config(4));
        let summary = &report.outcome.summary;
        assert!(summary.staircase_validated > 0, "no staircase arm drawn");
        assert!(summary.staircase_validated < summary.validated);
        for result in &report.outcome.results {
            if let ScenarioOutcome::Validated(v) = &result.outcome {
                assert_eq!(v.envelope, result.scenario.envelope);
                assert!(v.envelope_gain.is_some(), "sweep records gains everywhere");
            }
        }
    }

    #[test]
    fn policy_override_forces_every_scenario_onto_one_arm() {
        for arm in [PolicyArm::Fcfs, PolicyArm::StrictPriority, PolicyArm::Wrr] {
            let report = run_campaign(CampaignConfig {
                scenarios: 8,
                policy_override: Some(arm),
                ..small_config(2)
            });
            assert!(report
                .outcome
                .results
                .iter()
                .all(|r| r.scenario.approach.arm() == arm));
            // Forced WRR scenarios carry their own seeded weight sets.
            if arm == PolicyArm::Wrr {
                let space = ScenarioSpace::new(42);
                for r in &report.outcome.results {
                    assert_eq!(r.scenario.approach, space.wrr_arm(r.scenario.id));
                }
            }
            // The breakdown grows a WRR row exactly when the arm is WRR.
            let rows = &report.outcome.summary.by_approach;
            assert_eq!(rows.len(), if arm == PolicyArm::Wrr { 3 } else { 2 });
        }
    }

    #[test]
    fn forced_wrr_campaign_is_sound() {
        // Every scenario on its seeded WRR weight set: the WRR bounds must
        // hold against the WRR-serving simulator everywhere.
        let report = run_campaign(CampaignConfig {
            policy_override: Some(PolicyArm::Wrr),
            ..small_config(4)
        });
        let summary = &report.outcome.summary;
        assert!(summary.all_sound(), "violations: {:?}", summary.violations);
        assert!(summary.validated > 0, "no WRR scenario was validated");
        assert!(summary.pboo_consistent());
        let wrr_row = summary
            .by_approach
            .iter()
            .find(|a| a.approach == PolicyArm::Wrr)
            .expect("WRR row present");
        assert_eq!(wrr_row.validated, summary.validated);
        assert_eq!(wrr_row.sound, summary.validated);
    }

    #[test]
    fn sweep_draws_and_validates_the_wrr_arm() {
        let report = run_campaign(small_config(4));
        let rows = &report.outcome.summary.by_approach;
        assert_eq!(rows.len(), 3, "sweep must contain all three arms");
        let wrr_row = rows
            .iter()
            .find(|a| a.approach == PolicyArm::Wrr)
            .expect("WRR row present");
        assert!(
            wrr_row.validated + wrr_row.infeasible > 0,
            "no WRR scenario drawn in the sweep"
        );
        assert_eq!(wrr_row.sound, wrr_row.validated);
    }

    #[test]
    fn outcome_json_roundtrips() {
        let report = run_campaign(small_config(2));
        let json = serde_json::to_string_pretty(&report.outcome).unwrap();
        let parsed: CampaignOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report.outcome);
    }

    #[test]
    fn faults_off_leaves_no_fault_sections() {
        let report = run_campaign(small_config(2));
        assert!(report.outcome.fault_summary.is_none());
        assert!(report.outcome.results.iter().all(|r| r.fault.is_none()));
        let json = serde_json::to_string_pretty(&report.outcome).unwrap();
        assert!(
            !json.contains("\"fault\""),
            "off-mode JSON must be fault-free"
        );
    }

    #[test]
    fn fault_sweep_is_sound_and_byte_identical_across_threads() {
        let config = CampaignConfig {
            faults: FaultMode::Sweep,
            ..small_config(4)
        };
        let a = run_campaign(config);
        let b = run_campaign(CampaignConfig {
            threads: 2,
            ..config
        });
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            serde_json::to_string_pretty(&a.outcome).unwrap(),
            serde_json::to_string_pretty(&b.outcome).unwrap()
        );

        // Every scenario ran the degraded stage and every validated one
        // held its degraded bounds against the faulty simulation.
        assert!(a.outcome.results.iter().all(|r| r.fault.is_some()));
        let faults = a
            .outcome
            .fault_summary
            .as_ref()
            .expect("sweep populates the fault summary");
        assert_eq!(faults.scenarios, 24);
        assert_eq!(faults.validated + faults.infeasible, 24);
        assert!(faults.validated > 0, "no degraded stage was validated");
        assert!(
            faults.all_sound(),
            "degraded-bound violations: {:?}",
            faults.violations
        );
        assert_eq!(faults.soundness_rate, 1.0);
        assert!(faults.babble_frames > 0, "no adversarial frame simulated");
        assert!(
            faults.max_inflation >= 1.0,
            "a babbler must inflate at least one bound"
        );

        // The sweep changes nothing about the healthy pipeline: healthy
        // sections match the fault-free campaign result for result.
        let healthy = run_campaign(small_config(4));
        for (h, f) in healthy.outcome.results.iter().zip(&a.outcome.results) {
            assert_eq!(h.outcome, f.outcome, "scenario {}", h.scenario.id);
        }
        assert_eq!(healthy.outcome.summary, a.outcome.summary);
    }

    #[test]
    fn roundtrip_preserves_fault_sections() {
        let report = run_campaign(CampaignConfig {
            scenarios: 6,
            faults: FaultMode::Sweep,
            ..small_config(2)
        });
        let json = serde_json::to_string_pretty(&report.outcome).unwrap();
        let parsed: CampaignOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report.outcome);
    }
}
