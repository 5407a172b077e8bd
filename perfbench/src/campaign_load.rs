//! The two campaign workloads: the pinned sweep and the closed-form fault
//! campaign, run end to end through `run_sharded_campaign` and profiled
//! scenario by scenario through the traced replay.

use crate::replay::{replay_scenario, ScenarioTrace, Stage};
use crate::stats::{time_setup, Tally};
use campaign::{
    execute_scenario_with, result_fingerprint, run_sharded_campaign, CampaignConfig, FaultMode,
    FaultOutcome, ScenarioOutcome, ScenarioResult, ScenarioSpace, ShardedCampaignConfig,
    ShardedOutcome, StreamAggregate,
};
use netcalc::EnvelopeModel;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Campaign repeats per run: enough to check that the fingerprint repeats.
const MIN_REPEATS: usize = 2;

/// Scenarios a profile replays at least, so that its p99 timings leave
/// ten samples beyond them.
pub const MIN_PROFILED: usize = 1_000;

/// The dimensions of one campaign workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Scenarios per campaign.
    pub scenarios: usize,
    /// Seed-range shards.
    pub shards: usize,
    /// Run the MIL-STD-1553B stage.
    pub with_1553: bool,
    /// Envelope model forced onto every scenario (`None` sweeps it).
    pub envelope_override: Option<EnvelopeModel>,
    /// Fault dimension.
    pub faults: FaultMode,
    /// The fingerprint this shape must produce at one seed.
    pub pinned: Option<(u64, u64)>,
    /// The stages its scenarios run, in report order.
    pub stages: &'static [Stage],
}

/// ROADMAP's pinned configuration: 2000 scenarios, 8 shards, envelope and
/// policy sweeps, faults off, no 1553 stage.  At seed 42 its fingerprint
/// is the repository's behavioural pin.
pub const SWEEP: Shape = Shape {
    name: "campaign_sweep",
    scenarios: 2_000,
    shards: 8,
    with_1553: false,
    envelope_override: None,
    faults: FaultMode::Off,
    pinned: Some((42, 0x2530_4347_4b42_f671)),
    stages: &[
        Stage::Build,
        Stage::TbAnalysis,
        Stage::StaircaseAnalysis,
        Stage::Sim,
        Stage::Validation,
        Stage::Fold,
    ],
};

/// The same executor with token-bucket envelopes forced, faults swept and
/// the 1553 stage on: no min-plus curve operation runs.  A campaign takes
/// a few seconds, so a run's median is taken over several repeats.
pub const TB_FAULTS: Shape = Shape {
    name: "campaign_tb_faults",
    scenarios: 5_000,
    shards: 8,
    with_1553: true,
    envelope_override: Some(EnvelopeModel::TokenBucket),
    faults: FaultMode::Sweep,
    pinned: None,
    stages: &[
        Stage::Build,
        Stage::TbAnalysis,
        Stage::DegradedAnalysis,
        Stage::Sim,
        Stage::FaultySim,
        Stage::Validation,
        Stage::Compare1553,
        Stage::Fold,
    ],
};

impl Shape {
    /// The scenario space of this shape at `seed`.
    pub fn space(&self, seed: u64) -> ScenarioSpace {
        ScenarioSpace::new(seed).with_faults(self.faults == FaultMode::Sweep)
    }

    /// The in-memory sharded campaign of `scenarios` scenarios.
    fn config(&self, seed: u64, scenarios: usize, threads: usize) -> ShardedCampaignConfig {
        ShardedCampaignConfig {
            base: CampaignConfig {
                scenarios,
                master_seed: seed,
                threads,
                with_1553: self.with_1553,
                envelope_override: self.envelope_override,
                policy_override: None,
                faults: self.faults,
            },
            shards: self.shards,
            state_dir: None,
            resume: false,
        }
    }

    /// The run shape as a JSON object, for the provenance record.
    pub fn describe(&self) -> String {
        format!(
            "{{\"scenarios\": {}, \"shards\": {}, \"envelope\": \"{}\", \"policy\": \"sweep\", \
             \"faults\": \"{:?}\", \"with_1553\": {}}}",
            self.scenarios,
            self.shards,
            match self.envelope_override {
                None => "sweep".to_string(),
                Some(model) => format!("{model:?}"),
            },
            self.faults,
            self.with_1553
        )
    }
}

/// Scenario ids with an unsound healthy, degraded or 1553 bound.
fn unsound_scenarios(outcome: &ShardedOutcome) -> usize {
    let summary = &outcome.summary;
    let mut ids: BTreeSet<usize> = summary.violations.iter().map(|v| v.scenario_id).collect();
    if let Some(faults) = &outcome.fault_summary {
        ids.extend(faults.violations.iter().map(|v| v.scenario_id));
    }
    if let Some(comparison) = &summary.comparison {
        ids.extend(comparison.violations.iter().map(|v| v.scenario_id));
    }
    ids.len()
}

/// Whether one result's healthy, degraded and 1553 bounds all held.
pub fn result_is_sound(result: &ScenarioResult) -> bool {
    let healthy = match &result.outcome {
        ScenarioOutcome::Validated(v) => v.sound,
        ScenarioOutcome::AnalysisInfeasible { .. } => true,
    };
    let degraded = match &result.fault {
        Some(FaultOutcome::Validated(f)) => f.sound,
        _ => true,
    };
    let bus = match &result.comparison {
        Some(campaign::ComparisonReport::Compared(c)) => c.sound,
        _ => true,
    };
    healthy && degraded && bus
}

/// One end-to-end run of a campaign workload.
#[derive(Debug)]
pub struct CampaignRun {
    /// Scenario-list generation times, seconds.
    pub setup_s: Vec<f64>,
    /// Scenarios per second of each campaign repeat.
    pub rates: Vec<f64>,
    /// Fingerprint of each repeat.
    pub fingerprints: Vec<u64>,
    /// Scenarios attempted and failed, and the run-level checks.
    pub tally: Tally,
}

/// Runs `shape` at `seed` on `threads` workers, repeating the campaign
/// until `seconds` are used (at least [`MIN_REPEATS`] times), with a
/// block of set-up timings before each repeat and after the last.
pub fn run(shape: &Shape, seed: u64, seconds: f64, threads: usize) -> CampaignRun {
    let setup = || shape.space(seed).scenarios(shape.scenarios);
    let config = shape.config(seed, shape.scenarios, threads);
    let attempted = shape.scenarios as u64;
    let mut run = CampaignRun {
        setup_s: Vec::new(),
        rates: Vec::new(),
        fingerprints: Vec::new(),
        tally: Tally::default(),
    };
    let started = Instant::now();
    loop {
        time_setup(&mut run.setup_s, setup);
        let repeat = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| run_sharded_campaign(&config)));
        let secs = repeat.elapsed().as_secs_f64();
        let Ok(Ok(report)) = report else {
            // A panic (or a shard error) sinks the whole repeat.
            run.tally.add(attempted, attempted);
            break;
        };
        let outcome = &report.outcome;
        run.tally.add(attempted, unsound_scenarios(outcome) as u64);
        run.tally.check(
            "every scenario executed",
            outcome.scenarios == shape.scenarios,
        );
        run.rates.push(shape.scenarios as f64 / secs);
        run.fingerprints.push(outcome.fingerprint);
        let elapsed = started.elapsed().as_secs_f64();
        if run.rates.len() >= MIN_REPEATS && elapsed + secs > seconds {
            break;
        }
    }
    time_setup(&mut run.setup_s, setup);
    run.tally.check(
        "fingerprint identical across repeats",
        run.fingerprints.len() >= MIN_REPEATS && run.fingerprints.windows(2).all(|w| w[0] == w[1]),
    );
    if let Some((pin_seed, pin)) = shape.pinned {
        if seed == pin_seed {
            run.tally
                .check("pinned fingerprint", run.fingerprints.first() == Some(&pin));
        }
    }
    run
}

/// One replayed scenario of a profile.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Scenario id.
    pub id: usize,
    /// Per-scenario seed.
    pub seed: u64,
    /// Its spans.
    pub trace: ScenarioTrace,
}

/// The per-layer profile of a campaign workload.
#[derive(Debug, Default)]
pub struct CampaignProfile {
    /// Every replayed scenario, in id order.
    pub traced: Vec<Traced>,
    /// Summed time of the untraced `execute_scenario_with` calls.
    pub untraced: Duration,
    /// Summed time of the traced replays, fold excluded.
    pub replayed: Duration,
    /// Scenarios per second of `run_sharded_campaign` over the same ids.
    pub parallel_rate: f64,
    /// Replays whose fingerprint differed, unsound results, panics.
    pub tally: Tally,
}

impl CampaignProfile {
    /// Untraced single-threaded scenarios per second.
    pub fn single_rate(&self) -> f64 {
        self.traced.len() as f64 / self.untraced.as_secs_f64()
    }
}

/// Profiles `shape` at `seed`: replays scenarios 0, 1, … with spans and,
/// beside each, runs the untraced `execute_scenario_with` on the same
/// scenario, alternating which goes first; then runs the sharded
/// campaign over the same ids on `threads` workers.  The replay loop
/// gets `budget` seconds minus the share the parallel run is expected to
/// take, and replays at least [`MIN_PROFILED`] scenarios.  Both loops run
/// on the calling thread, so they take whatever curve-cache path it has.
pub fn profile(shape: &Shape, seed: u64, budget: f64, threads: usize) -> CampaignProfile {
    let loop_budget = Duration::from_secs_f64(budget * 0.7);
    let space = shape.space(seed);
    let mut aggregate = StreamAggregate::new();
    let mut profile = CampaignProfile::default();
    let started = Instant::now();
    for id in 0..shape.scenarios {
        if started.elapsed() >= loop_budget && id >= MIN_PROFILED {
            break;
        }
        let scenario = space.scenario(id);
        let untraced = || {
            let at = Instant::now();
            let result = execute_scenario_with(scenario, shape.with_1553, shape.envelope_override);
            (at.elapsed(), result_fingerprint(&result))
        };
        let mut traced = || {
            replay_scenario(
                scenario,
                shape.with_1553,
                shape.envelope_override,
                &mut aggregate,
            )
        };
        let pair = catch_unwind(AssertUnwindSafe(|| {
            if id % 2 == 0 {
                let u = untraced();
                (u, traced())
            } else {
                let t = traced();
                (untraced(), t)
            }
        }));
        let Ok(((untraced_time, untraced_fp), (result, replayed_fp, trace))) = pair else {
            profile.tally.add(1, 1);
            continue;
        };
        let faithful = untraced_fp == replayed_fp;
        profile
            .tally
            .add(1, u64::from(!faithful || !result_is_sound(&result)));
        profile.untraced += untraced_time;
        profile.replayed += trace.total - trace.time(Stage::Fold);
        profile.traced.push(Traced {
            id,
            seed: scenario.seed,
            trace,
        });
    }
    let count = profile.traced.len();
    let at = Instant::now();
    let parallel = catch_unwind(AssertUnwindSafe(|| {
        run_sharded_campaign(&shape.config(seed, count, threads))
    }));
    let secs = at.elapsed().as_secs_f64();
    let parallel_ok =
        matches!(&parallel, Ok(Ok(report)) if unsound_scenarios(&report.outcome) == 0);
    profile
        .tally
        .check("parallel campaign ran sound", parallel_ok);
    profile.parallel_rate = count as f64 / secs;
    profile
}

/// Replays a single scenario with spans (the `--replay` mode) and checks
/// it against `execute_scenario_with`.
pub fn replay_one(shape: &Shape, seed: u64, id: usize) -> (Traced, Tally) {
    let scenario = shape.space(seed).scenario(id);
    let (result, replayed_fp, trace) = replay_scenario(
        scenario,
        shape.with_1553,
        shape.envelope_override,
        &mut StreamAggregate::new(),
    );
    let untraced = execute_scenario_with(scenario, shape.with_1553, shape.envelope_override);
    let mut tally = Tally::default();
    tally.add(
        1,
        u64::from(result_fingerprint(&untraced) != replayed_fp || !result_is_sound(&result)),
    );
    (
        Traced {
            id,
            seed: scenario.seed,
            trace,
        },
        tally,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay makes the runner's calls in the runner's order, so its
    /// results fingerprint the same as `execute_scenario_with`'s.
    #[test]
    fn replayed_fingerprints_match_the_runner_on_both_campaigns() {
        for shape in [SWEEP, TB_FAULTS] {
            let space = shape.space(42);
            let mut aggregate = StreamAggregate::new();
            for id in 0..6 {
                let scenario = space.scenario(id);
                let expected = result_fingerprint(&execute_scenario_with(
                    scenario,
                    shape.with_1553,
                    shape.envelope_override,
                ));
                let (result, replayed, trace) = replay_scenario(
                    scenario,
                    shape.with_1553,
                    shape.envelope_override,
                    &mut aggregate,
                );
                assert_eq!(replayed, expected, "{} scenario {id}", shape.name);
                assert_eq!(result_fingerprint(&result), expected);
                assert_eq!(trace.calls(Stage::Fold), 1);
                assert!(trace.total >= trace.time(Stage::Fold));
            }
            assert_eq!(aggregate.scenarios(), 6);
        }
    }

    #[test]
    fn the_closed_form_campaign_never_runs_the_staircase_analysis() {
        let (sweep, _) = replay_one(&SWEEP, 42, 0);
        let (tb, tally) = replay_one(&TB_FAULTS, 42, 0);
        assert!(tally.correct());
        assert_eq!(sweep.trace.calls(Stage::DegradedAnalysis), 0);
        assert_eq!(tb.trace.calls(Stage::StaircaseAnalysis), 0);
        assert_eq!(tb.trace.calls(Stage::DegradedAnalysis), 1);
        assert_eq!(tb.trace.calls(Stage::Compare1553), 1);
    }
}
