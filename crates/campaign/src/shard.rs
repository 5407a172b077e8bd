//! The campaign executor: one worker pool, one streaming aggregation.
//!
//! A run is split into contiguous **seed-range shards**.  Each shard's
//! scenarios run on a pool of worker threads, and every result is folded
//! into a running [`StreamAggregate`] (and the campaign fingerprint) the
//! moment it arrives, then dropped.  [`run_campaign`](crate::run_campaign)
//! is the one-shard run that also keeps each result, so its summaries are
//! the streamed ones by construction.
//!
//! Memory is O(messages), not O(shards).  A sharded run drops each result
//! once it is folded, but the aggregate keeps every per-message tightness
//! sample (plus the bus tightness and bound-ratio samples when the 1553
//! stage runs) and each validated scenario's mean tightness and
//! envelope-gain median, so the percentiles and per-arm means it reports
//! are exact; a shard checkpoint grows the same way.
//!
//! Three invariants make the sharded outcome trustworthy:
//!
//! 1. **Order-exact folding.**  The per-arm mean tightness is a float sum
//!    whose bits depend on the addition order, so the pool hands results
//!    over strictly in scenario-id order and shard aggregates merge in
//!    shard-index (= id) order.  The merged summary is therefore *equal*
//!    for every shard and thread count — same bits, not just
//!    approximately.
//! 2. **Commutative fingerprints.**  Each result hashes to
//!    `c = FNV(id ‖ FNV(result JSON))` and a shard's fingerprint is the
//!    wrapping sum of its results' hashes — addition commutes, so the
//!    merged fingerprint is byte-identical no matter how the work was
//!    sharded or scheduled.
//! 3. **Resumable shards.**  With a state directory each completed shard
//!    persists its aggregate and fingerprint, and the manifest records
//!    which shards finished; `--resume` restores those and re-runs only
//!    the rest, producing a merged outcome byte-identical to an
//!    uninterrupted run.

use crate::comparison::{ComparisonReport, ComparisonSummary};
use crate::report::{
    ApproachBreakdown, CampaignSummary, CampaignViolation, FaultOutcome, FaultSummary,
    ScenarioOutcome, ScenarioResult, TightnessDistribution,
};
use crate::runner::{
    execute_scenario_with, prepared_scenarios, CampaignConfig, FaultMode, RuntimeStats,
};
use crate::space::Scenario;
use netcalc::counters::OpCounters;
use netcalc::EnvelopeModel;
use rtswitch_core::HorizonCounters;
use rtswitch_core::PolicyArm;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;
use units::Duration;

/// FNV-1a, the same hash the regression suite pins campaign JSON with.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// The order-independent fingerprint of one scenario result:
/// `FNV(id ‖ FNV(compact result JSON))`.  Binding the id into the outer
/// hash means two scenarios with identical payloads still contribute
/// distinct terms, so a campaign that swapped two results would not
/// fingerprint the same.
pub fn result_fingerprint(result: &ScenarioResult) -> u64 {
    let json = serde_json::to_string(result).expect("scenario results serialize");
    let mut inner = Fnv::new();
    inner.push_bytes(json.as_bytes());
    let mut outer = Fnv::new();
    outer.push_bytes(&(result.scenario.id as u64).to_le_bytes());
    outer.push_bytes(&inner.finish().to_le_bytes());
    outer.finish()
}

/// The campaign fingerprint of a result set: the wrapping sum of the
/// per-result fingerprints.  Addition commutes, so any partition of the
/// results into shards — and any execution order within them — merges to
/// the same value.
pub fn results_fingerprint(results: &[ScenarioResult]) -> u64 {
    results
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(result_fingerprint(r)))
}

/// Per-policy-arm streaming accumulator.  Float sums do not re-associate
/// across shard boundaries, so it keeps the raw per-scenario mean
/// tightness values and sums them in id order at
/// [`StreamAggregate::finish`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct ArmAccumulator {
    validated: usize,
    infeasible: usize,
    sound: usize,
    deadline_miss: usize,
    means: Vec<f64>,
}

impl ArmAccumulator {
    fn merge(&mut self, other: &ArmAccumulator) {
        self.validated += other.validated;
        self.infeasible += other.infeasible;
        self.sound += other.sound;
        self.deadline_miss += other.deadline_miss;
        self.means.extend_from_slice(&other.means);
    }

    fn finish(&self, approach: PolicyArm) -> ApproachBreakdown {
        let mean_sum: f64 = self.means.iter().fold(0.0, |acc, &m| acc + m);
        ApproachBreakdown {
            approach,
            validated: self.validated,
            infeasible: self.infeasible,
            sound: self.sound,
            deadline_miss_scenarios: self.deadline_miss,
            mean_tightness: if self.validated > 0 {
                mean_sum / self.validated as f64
            } else {
                0.0
            },
        }
    }
}

/// Streaming accumulator for the degraded stage ([`FaultSummary`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct FaultAccumulator {
    scenarios: usize,
    validated: usize,
    infeasible: usize,
    sound_scenarios: usize,
    bounds_hold_scenarios: usize,
    failover_scenarios: usize,
    max_inflation: f64,
    babble_frames: u64,
    violations: Vec<CampaignViolation>,
}

impl FaultAccumulator {
    fn fold(&mut self, result: &ScenarioResult) {
        let Some(fault) = &result.fault else {
            return;
        };
        self.scenarios += 1;
        match fault {
            FaultOutcome::Validated(v) => {
                self.validated += 1;
                if v.sound {
                    self.sound_scenarios += 1;
                }
                if v.bounds_hold {
                    self.bounds_hold_scenarios += 1;
                }
                if v.failover {
                    self.failover_scenarios += 1;
                }
                self.max_inflation = self.max_inflation.max(v.max_inflation);
                self.babble_frames += v.babble_emitted;
                for violation in &v.violations {
                    self.violations.push(CampaignViolation {
                        scenario_id: result.scenario.id,
                        seed: result.scenario.seed,
                        violation: violation.clone(),
                    });
                }
            }
            FaultOutcome::AnalysisInfeasible { .. } => self.infeasible += 1,
        }
    }

    fn merge(&mut self, other: &FaultAccumulator) {
        self.scenarios += other.scenarios;
        self.validated += other.validated;
        self.infeasible += other.infeasible;
        self.sound_scenarios += other.sound_scenarios;
        self.bounds_hold_scenarios += other.bounds_hold_scenarios;
        self.failover_scenarios += other.failover_scenarios;
        self.max_inflation = self.max_inflation.max(other.max_inflation);
        self.babble_frames += other.babble_frames;
        self.violations.extend_from_slice(&other.violations);
    }

    fn finish(&self) -> Option<FaultSummary> {
        (self.scenarios > 0).then(|| FaultSummary {
            scenarios: self.scenarios,
            validated: self.validated,
            infeasible: self.infeasible,
            sound_scenarios: self.sound_scenarios,
            soundness_rate: if self.validated > 0 {
                self.sound_scenarios as f64 / self.validated as f64
            } else {
                1.0
            },
            bounds_hold_scenarios: self.bounds_hold_scenarios,
            failover_scenarios: self.failover_scenarios,
            max_inflation: self.max_inflation,
            babble_frames: self.babble_frames,
            violations: self.violations.clone(),
        })
    }
}

/// Streaming accumulator for the cross-technology stage
/// ([`ComparisonSummary`]).  The smallest rejected utilization is an
/// `Option` because a checkpoint cannot hold the `f64::INFINITY` a plain
/// min-fold would start from; it finalizes to `0.0` when the bus rejected
/// nothing.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct ComparisonAccumulator {
    attempted: usize,
    feasible: usize,
    infeasible: usize,
    sound_scenarios: usize,
    violations: Vec<CampaignViolation>,
    tightness_values: Vec<f64>,
    ethernet_only_wins: usize,
    bus_only_wins: usize,
    both_meet: usize,
    neither_meets: usize,
    bound_ratio_values: Vec<f64>,
    max_feasible_utilization: f64,
    min_infeasible_utilization: Option<f64>,
}

impl ComparisonAccumulator {
    fn fold(&mut self, result: &ScenarioResult) {
        let Some(section) = &result.comparison else {
            return;
        };
        self.attempted += 1;
        match section {
            ComparisonReport::Infeasible1553(verdict) => {
                self.infeasible += 1;
                if verdict.offered_utilization > 0.0 {
                    self.min_infeasible_utilization = Some(
                        self.min_infeasible_utilization
                            .map_or(verdict.offered_utilization, |m| {
                                m.min(verdict.offered_utilization)
                            }),
                    );
                }
            }
            ComparisonReport::Compared(cmp) => {
                self.feasible += 1;
                if cmp.sound {
                    self.sound_scenarios += 1;
                }
                for violation in &cmp.violations {
                    self.violations.push(CampaignViolation {
                        scenario_id: result.scenario.id,
                        seed: result.scenario.seed,
                        violation: violation.clone(),
                    });
                }
                self.tightness_values
                    .extend_from_slice(&cmp.tightness_values);
                self.ethernet_only_wins += cmp.ethernet_only_wins;
                self.bus_only_wins += cmp.bus_only_wins;
                self.both_meet += cmp.both_meet;
                self.neither_meets += cmp.neither_meets;
                self.bound_ratio_values
                    .extend_from_slice(&cmp.bound_ratio_values);
                self.max_feasible_utilization =
                    self.max_feasible_utilization.max(cmp.offered_utilization);
            }
        }
    }

    fn merge(&mut self, other: &ComparisonAccumulator) {
        self.attempted += other.attempted;
        self.feasible += other.feasible;
        self.infeasible += other.infeasible;
        self.sound_scenarios += other.sound_scenarios;
        self.violations.extend_from_slice(&other.violations);
        self.tightness_values
            .extend_from_slice(&other.tightness_values);
        self.ethernet_only_wins += other.ethernet_only_wins;
        self.bus_only_wins += other.bus_only_wins;
        self.both_meet += other.both_meet;
        self.neither_meets += other.neither_meets;
        self.bound_ratio_values
            .extend_from_slice(&other.bound_ratio_values);
        self.max_feasible_utilization = self
            .max_feasible_utilization
            .max(other.max_feasible_utilization);
        if let Some(m) = other.min_infeasible_utilization {
            self.min_infeasible_utilization =
                Some(self.min_infeasible_utilization.map_or(m, |own| own.min(m)));
        }
    }

    fn finish(&self) -> Option<ComparisonSummary> {
        if self.attempted == 0 {
            return None;
        }
        Some(ComparisonSummary {
            attempted: self.attempted,
            feasible: self.feasible,
            infeasible: self.infeasible,
            sound_scenarios: self.sound_scenarios,
            soundness_rate: if self.feasible > 0 {
                self.sound_scenarios as f64 / self.feasible as f64
            } else {
                1.0
            },
            violations: self.violations.clone(),
            tightness: TightnessDistribution::from_values(self.tightness_values.clone()),
            ethernet_only_wins: self.ethernet_only_wins,
            bus_only_wins: self.bus_only_wins,
            both_meet: self.both_meet,
            neither_meets: self.neither_meets,
            bound_ratio: TightnessDistribution::from_values(self.bound_ratio_values.clone()),
            max_feasible_utilization: self.max_feasible_utilization,
            min_infeasible_utilization: self.min_infeasible_utilization.unwrap_or(0.0),
        })
    }
}

/// The campaign aggregation: every counter, max-fold and sample vector
/// behind [`CampaignSummary`], [`FaultSummary`] and [`ComparisonSummary`],
/// maintained incrementally so results can be dropped the moment they are
/// folded.
///
/// Fold results in scenario-id order and merge aggregates in shard-index
/// order: every sequential float accumulation then runs in one addition
/// order, making [`StreamAggregate::finish`] equal (bit for bit) for any
/// sharding of the same results.  The accumulator serializes, so a
/// completed shard can persist it for `--resume`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamAggregate {
    scenarios: usize,
    validated: usize,
    infeasible: usize,
    sound_scenarios: usize,
    messages_checked: usize,
    frames_simulated: u64,
    cascaded_validated: usize,
    pboo_violations: usize,
    max_pboo_gain: Duration,
    staircase_validated: usize,
    zero_gain_scenarios: usize,
    gain_medians: Vec<f64>,
    violations: Vec<CampaignViolation>,
    tightness_values: Vec<f64>,
    wrr_seen: bool,
    fcfs: ArmAccumulator,
    priority: ArmAccumulator,
    wrr: ArmAccumulator,
    fault: FaultAccumulator,
    comparison: ComparisonAccumulator,
}

impl Default for StreamAggregate {
    fn default() -> Self {
        StreamAggregate::new()
    }
}

impl StreamAggregate {
    /// The empty aggregation.
    pub fn new() -> Self {
        StreamAggregate {
            scenarios: 0,
            validated: 0,
            infeasible: 0,
            sound_scenarios: 0,
            messages_checked: 0,
            frames_simulated: 0,
            cascaded_validated: 0,
            pboo_violations: 0,
            max_pboo_gain: Duration::ZERO,
            staircase_validated: 0,
            zero_gain_scenarios: 0,
            gain_medians: Vec::new(),
            violations: Vec::new(),
            tightness_values: Vec::new(),
            wrr_seen: false,
            fcfs: ArmAccumulator::default(),
            priority: ArmAccumulator::default(),
            wrr: ArmAccumulator::default(),
            fault: FaultAccumulator::default(),
            comparison: ComparisonAccumulator::default(),
        }
    }

    /// Number of results folded so far.
    pub fn scenarios(&self) -> usize {
        self.scenarios
    }

    /// Folds one result into the aggregation.  Callers must fold in
    /// scenario-id order (the worker pool hands results over in that
    /// order) to keep the float accumulation independent of sharding.
    pub fn fold(&mut self, result: &ScenarioResult) {
        self.scenarios += 1;
        let arm = result.scenario.approach.arm();
        if arm == PolicyArm::Wrr {
            self.wrr_seen = true;
        }
        let bucket = match arm {
            PolicyArm::Fcfs => &mut self.fcfs,
            PolicyArm::StrictPriority => &mut self.priority,
            PolicyArm::Wrr => &mut self.wrr,
        };
        match &result.outcome {
            ScenarioOutcome::Validated(v) => {
                bucket.validated += 1;
                if v.sound {
                    bucket.sound += 1;
                }
                if v.deadline_misses > 0 {
                    bucket.deadline_miss += 1;
                }
                bucket.means.push(v.tightness.mean);

                self.validated += 1;
                self.messages_checked += v.messages;
                self.frames_simulated += v.generated;
                if v.pboo.cascaded {
                    self.cascaded_validated += 1;
                }
                if !v.pboo.consistent {
                    self.pboo_violations += 1;
                }
                self.max_pboo_gain = self.max_pboo_gain.max(v.pboo.max_gain);
                if v.envelope == EnvelopeModel::Staircase {
                    self.staircase_validated += 1;
                }
                if let Some(gain) = &v.envelope_gain {
                    self.gain_medians.push(gain.median);
                    if gain.max <= 0.0 {
                        self.zero_gain_scenarios += 1;
                    }
                }
                if v.sound {
                    self.sound_scenarios += 1;
                }
                for violation in &v.violations {
                    self.violations.push(CampaignViolation {
                        scenario_id: result.scenario.id,
                        seed: result.scenario.seed,
                        violation: violation.clone(),
                    });
                }
                self.tightness_values.extend_from_slice(&v.tightness_values);
            }
            ScenarioOutcome::AnalysisInfeasible { .. } => {
                bucket.infeasible += 1;
                self.infeasible += 1;
            }
        }
        self.fault.fold(result);
        self.comparison.fold(result);
    }

    /// Merges another aggregation into this one.  Merge in shard-index
    /// order: integer counters and max-folds commute, but the sample
    /// vectors must concatenate in id order so the final sequential folds
    /// run in the unsharded addition order.
    pub fn merge(&mut self, other: &StreamAggregate) {
        self.scenarios += other.scenarios;
        self.validated += other.validated;
        self.infeasible += other.infeasible;
        self.sound_scenarios += other.sound_scenarios;
        self.messages_checked += other.messages_checked;
        self.frames_simulated += other.frames_simulated;
        self.cascaded_validated += other.cascaded_validated;
        self.pboo_violations += other.pboo_violations;
        self.max_pboo_gain = self.max_pboo_gain.max(other.max_pboo_gain);
        self.staircase_validated += other.staircase_validated;
        self.zero_gain_scenarios += other.zero_gain_scenarios;
        self.gain_medians.extend_from_slice(&other.gain_medians);
        self.violations.extend_from_slice(&other.violations);
        self.tightness_values
            .extend_from_slice(&other.tightness_values);
        self.wrr_seen |= other.wrr_seen;
        self.fcfs.merge(&other.fcfs);
        self.priority.merge(&other.priority);
        self.wrr.merge(&other.wrr);
        self.fault.merge(&other.fault);
        self.comparison.merge(&other.comparison);
    }

    /// Finalizes the aggregation into the campaign summary and, when any
    /// folded result carried a degraded stage, the fault summary.
    pub fn finish(&self) -> (CampaignSummary, Option<FaultSummary>) {
        let mut by_approach = vec![
            self.fcfs.finish(PolicyArm::Fcfs),
            self.priority.finish(PolicyArm::StrictPriority),
        ];
        // The WRR row joins the breakdown only when the sweep drew (or
        // was forced onto) the WRR arm, keeping pre-WRR campaign JSON
        // byte-stable under the fcfs/priority policy overrides.
        if self.wrr_seen {
            by_approach.push(self.wrr.finish(PolicyArm::Wrr));
        }
        let summary = CampaignSummary {
            scenarios: self.scenarios,
            validated: self.validated,
            infeasible: self.infeasible,
            sound_scenarios: self.sound_scenarios,
            soundness_rate: if self.validated > 0 {
                self.sound_scenarios as f64 / self.validated as f64
            } else {
                1.0
            },
            messages_checked: self.messages_checked,
            cascaded_validated: self.cascaded_validated,
            pboo_violations: self.pboo_violations,
            max_pboo_gain: self.max_pboo_gain,
            staircase_validated: self.staircase_validated,
            zero_gain_scenarios: self.zero_gain_scenarios,
            envelope_gain: TightnessDistribution::from_values(self.gain_medians.clone()),
            violations: self.violations.clone(),
            tightness: TightnessDistribution::from_values(self.tightness_values.clone()),
            by_approach,
            frames_simulated: self.frames_simulated,
            comparison: self.comparison.finish(),
        };
        (summary, self.fault.finish())
    }
}

/// Configuration of a sharded campaign run.
#[derive(Debug, Clone)]
pub struct ShardedCampaignConfig {
    /// The campaign dimensions (scenario count, seed, stages, threads).
    pub base: CampaignConfig,
    /// Number of contiguous seed-range shards (clamped to `[1, scenarios]`).
    pub shards: usize,
    /// Directory for the shard manifest and per-shard checkpoints; `None`
    /// runs fully in memory (no resume possible).
    pub state_dir: Option<PathBuf>,
    /// Restore completed shards from `state_dir` and run only the rest.
    pub resume: bool,
}

/// The deterministic part of a sharded campaign's output.  Unlike
/// [`crate::CampaignOutcome`] it carries no per-scenario results — only
/// the streamed summaries plus the order-independent fingerprint that
/// stands in for them.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Master seed of the scenario space.
    pub master_seed: u64,
    /// Scenarios executed across all shards.
    pub scenarios: usize,
    /// Campaign-level aggregation, equal to the buffered summary.
    pub summary: CampaignSummary,
    /// Degraded-stage aggregation, present only under `--faults sweep`.
    pub fault_summary: Option<FaultSummary>,
    /// Wrapping sum of per-result FNV fingerprints — byte-identical
    /// across shard counts, thread counts and resume boundaries.
    pub fingerprint: u64,
}

// Hand-written for the same reason as `CampaignOutcome`: fault-free runs
// serialize without the `fault_summary` key.
impl Serialize for ShardedOutcome {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("master_seed".to_string(), self.master_seed.to_value()),
            ("scenarios".to_string(), self.scenarios.to_value()),
            ("summary".to_string(), self.summary.to_value()),
        ];
        if let Some(fault_summary) = &self.fault_summary {
            fields.push(("fault_summary".to_string(), fault_summary.to_value()));
        }
        fields.push(("fingerprint".to_string(), self.fingerprint.to_value()));
        serde::Value::Object(fields)
    }
}

impl Deserialize for ShardedOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(ShardedOutcome {
            master_seed: Deserialize::from_value(v.field("master_seed")?)?,
            scenarios: Deserialize::from_value(v.field("scenarios")?)?,
            summary: Deserialize::from_value(v.field("summary")?)?,
            fault_summary: match v.field("fault_summary") {
                Ok(value) => Deserialize::from_value(value)?,
                Err(_) => None,
            },
            fingerprint: Deserialize::from_value(v.field("fingerprint")?)?,
        })
    }
}

/// A complete sharded campaign run: the reproducible outcome plus this
/// execution's runtime statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedReport {
    /// The deterministic outcome.
    pub outcome: ShardedOutcome,
    /// This run's wall-clock statistics (`per_thread` spans all shards:
    /// slot `w` counts every scenario worker `w` executed in any shard).
    pub runtime: RuntimeStats,
    /// Shards executed by this invocation.
    pub executed_shards: usize,
    /// Shards restored from the state directory instead of re-run.
    pub restored_shards: usize,
}

/// Why a sharded campaign could not run (or resume).
#[derive(Debug)]
pub enum ShardError {
    /// A state-directory file could not be read or written.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The manifest is missing or unparseable.
    CorruptManifest {
        /// The manifest path.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// The manifest was written by a run with different campaign
    /// dimensions — resuming would merge incompatible shards.
    ConfigMismatch {
        /// The mismatch, rendered for the user.
        detail: String,
    },
    /// A shard the manifest marks completed has a missing or inconsistent
    /// checkpoint file.
    CorruptShard {
        /// The shard index.
        index: usize,
        /// What went wrong.
        detail: String,
    },
    /// `--resume` requires a state directory.
    MissingStateDir,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            ShardError::CorruptManifest { path, detail } => {
                write!(f, "corrupt manifest {}: {detail}", path.display())
            }
            ShardError::ConfigMismatch { detail } => {
                write!(f, "manifest configuration mismatch: {detail}")
            }
            ShardError::CorruptShard { index, detail } => {
                write!(f, "corrupt shard {index} checkpoint: {detail}")
            }
            ShardError::MissingStateDir => write!(f, "--resume requires --state-dir"),
        }
    }
}

impl std::error::Error for ShardError {}

/// The determinism-relevant slice of a [`CampaignConfig`] plus the shard
/// count, echoed into the manifest so a resume on different hardware (or
/// thread count) is accepted while a resume across campaign dimensions is
/// rejected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ManifestConfig {
    scenarios: usize,
    master_seed: u64,
    with_1553: bool,
    envelope_override: Option<EnvelopeModel>,
    policy_override: Option<PolicyArm>,
    faults: FaultMode,
    shards: usize,
}

impl ManifestConfig {
    fn new(config: &CampaignConfig, shards: usize) -> Self {
        ManifestConfig {
            scenarios: config.scenarios,
            master_seed: config.master_seed,
            with_1553: config.with_1553,
            envelope_override: config.envelope_override,
            policy_override: config.policy_override,
            faults: config.faults,
            shards,
        }
    }
}

/// The on-disk record of a sharded run's progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    config: ManifestConfig,
    completed: Vec<usize>,
}

/// One completed shard's checkpoint: its range, fingerprint and streamed
/// aggregate — everything the merge needs, nothing per-scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardState {
    index: usize,
    start: usize,
    end: usize,
    fingerprint: u64,
    aggregate: StreamAggregate,
}

/// Splits `scenarios` into `shards` contiguous `[start, end)` index
/// ranges, remainder spread over the leading shards.  The shard count is
/// clamped to `[1, max(scenarios, 1)]` so no shard is empty.
pub fn plan_shards(scenarios: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, scenarios.max(1));
    let base = scenarios / shards;
    let remainder = scenarios % shards;
    (0..shards)
        .map(|i| {
            let start = i * base + i.min(remainder);
            let len = base + usize::from(i < remainder);
            (start, start + len)
        })
        .collect()
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index}.json"))
}

/// Writes `value` as JSON via a temporary file and rename, so an
/// interrupted write never leaves a half-written checkpoint behind.
fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), ShardError> {
    let json = serde_json::to_string_pretty(value).map_err(|e| ShardError::Io {
        path: path.to_path_buf(),
        error: std::io::Error::other(e.to_string()),
    })?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json + "\n").map_err(|error| ShardError::Io {
        path: tmp.clone(),
        error,
    })?;
    std::fs::rename(&tmp, path).map_err(|error| ShardError::Io {
        path: path.to_path_buf(),
        error,
    })
}

/// The campaign's worker pool: executes `scenarios`, hands each result to
/// `sink` in slice order, which is scenario-id order, and returns the
/// min-plus operations the workers performed.
///
/// Workers pull indices from a shared atomic counter and send results
/// back over a channel in completion order; the calling thread parks early
/// arrivals in a reorder buffer until every predecessor has been handed
/// over.  The pool gets `min(per_thread.len(), scenarios.len())` workers
/// and worker `w` counts its scenarios in `per_thread[w]`, so a caller
/// running several slices through one `per_thread` gets a load report
/// that sums to the scenarios executed.  Each worker is a fresh thread, so
/// its op- and horizon-counter snapshots at the end are its own work and
/// nobody else's.
fn execute_in_id_order(
    config: &CampaignConfig,
    scenarios: &[Scenario],
    per_thread: &mut [usize],
    mut sink: impl FnMut(ScenarioResult),
) -> (OpCounters, HorizonCounters) {
    let workers = per_thread.len().min(scenarios.len());
    let next = AtomicUsize::new(0);
    let (sender, receiver) = mpsc::channel::<(usize, usize, ScenarioResult)>();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let sender = sender.clone();
                let next = &next;
                scope.spawn(move || {
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&scenario) = scenarios.get(index) else {
                            break;
                        };
                        let result = execute_scenario_with(
                            scenario,
                            config.with_1553,
                            config.envelope_override,
                        );
                        if sender.send((worker, index, result)).is_err() {
                            break;
                        }
                    }
                    (OpCounters::snapshot(), HorizonCounters::snapshot())
                })
            })
            .collect();
        drop(sender);
        let mut pending = BTreeMap::new();
        let mut next_index = 0;
        for (worker, index, result) in receiver {
            per_thread[worker] += 1;
            pending.insert(index, result);
            while let Some(result) = pending.remove(&next_index) {
                sink(result);
                next_index += 1;
            }
        }
        debug_assert_eq!(next_index, scenarios.len(), "a result was lost");
        let mut counts = (OpCounters::default(), HorizonCounters::default());
        for handle in handles {
            let (ops, horizon) = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            counts.0 += ops;
            counts.1 += horizon;
        }
        counts
    })
}

fn read_manifest(path: &Path) -> Result<Manifest, ShardError> {
    let text = std::fs::read_to_string(path).map_err(|error| ShardError::CorruptManifest {
        path: path.to_path_buf(),
        detail: error.to_string(),
    })?;
    serde_json::from_str(&text).map_err(|e| ShardError::CorruptManifest {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })
}

fn restore_shard(
    dir: &Path,
    index: usize,
    expected: (usize, usize),
) -> Result<ShardState, ShardError> {
    let path = shard_path(dir, index);
    let text = std::fs::read_to_string(&path).map_err(|error| ShardError::CorruptShard {
        index,
        detail: format!("{}: {error}", path.display()),
    })?;
    let state: ShardState = serde_json::from_str(&text).map_err(|e| ShardError::CorruptShard {
        index,
        detail: format!("{}: {e}", path.display()),
    })?;
    if state.index != index || (state.start, state.end) != expected {
        return Err(ShardError::CorruptShard {
            index,
            detail: format!(
                "checkpoint covers [{}, {}) of shard {}, expected [{}, {})",
                state.start, state.end, state.index, expected.0, expected.1
            ),
        });
    }
    if state.aggregate.scenarios() != state.end - state.start {
        return Err(ShardError::CorruptShard {
            index,
            detail: format!(
                "aggregate folded {} scenarios for a range of {}",
                state.aggregate.scenarios(),
                state.end - state.start
            ),
        });
    }
    Ok(state)
}

/// Runs a campaign as contiguous seed-range shards with streaming
/// aggregation: each result is dropped once folded, the merged
/// [`ShardedOutcome`] is byte-identical across shard and thread counts,
/// and with a state directory an interrupted run resumes from its
/// completed shards.
pub fn run_sharded_campaign(config: &ShardedCampaignConfig) -> Result<ShardedReport, ShardError> {
    run_shards(config, drop)
}

/// [`run_sharded_campaign`], handing every executed result to `keep`, in
/// scenario-id order, once it is folded.
pub(crate) fn run_shards(
    config: &ShardedCampaignConfig,
    mut keep: impl FnMut(ScenarioResult),
) -> Result<ShardedReport, ShardError> {
    let base = config.base;
    let ranges = plan_shards(base.scenarios, config.shards);
    if config.resume && config.state_dir.is_none() {
        return Err(ShardError::MissingStateDir);
    }

    let manifest_config = ManifestConfig::new(&base, ranges.len());
    let mut states: Vec<Option<ShardState>> = (0..ranges.len()).map(|_| None).collect();
    let mut manifest = Manifest {
        config: manifest_config.clone(),
        completed: Vec::new(),
    };

    if let Some(dir) = &config.state_dir {
        std::fs::create_dir_all(dir).map_err(|error| ShardError::Io {
            path: dir.clone(),
            error,
        })?;
        let path = manifest_path(dir);
        if config.resume {
            let recorded = read_manifest(&path)?;
            if recorded.config != manifest_config {
                return Err(ShardError::ConfigMismatch {
                    detail: format!(
                        "manifest was written for {:?}, requested {:?}",
                        recorded.config, manifest_config
                    ),
                });
            }
            for &index in &recorded.completed {
                if index >= ranges.len() {
                    return Err(ShardError::CorruptManifest {
                        path: path.clone(),
                        detail: format!(
                            "completed shard {index} out of range (shards: {})",
                            ranges.len()
                        ),
                    });
                }
                states[index] = Some(restore_shard(dir, index, ranges[index])?);
            }
            manifest = recorded;
        } else {
            // A fresh run claims the directory: any previous manifest is
            // replaced so stale checkpoints cannot leak into the merge.
            write_json(&path, &manifest)?;
        }
    }

    let restored_shards = states.iter().filter(|s| s.is_some()).count();
    let threads = base.effective_threads();
    let mut per_thread = vec![0usize; threads];
    let started = Instant::now();
    let mut ops = OpCounters::default();
    let mut horizon = HorizonCounters::default();
    let mut executed_shards = 0usize;

    // Shards run sequentially — parallelism lives inside each shard's
    // worker pool — so checkpoints land in index order and a kill at any
    // point leaves a resumable prefix-plus-holes manifest.
    let scenarios = prepared_scenarios(&base);
    for (index, &(start, end)) in ranges.iter().enumerate() {
        if states[index].is_some() {
            continue;
        }
        let mut aggregate = StreamAggregate::new();
        let mut fingerprint = 0u64;
        let counts =
            execute_in_id_order(&base, &scenarios[start..end], &mut per_thread, |result| {
                fingerprint = fingerprint.wrapping_add(result_fingerprint(&result));
                aggregate.fold(&result);
                keep(result);
            });
        ops += counts.0;
        horizon += counts.1;
        let state = ShardState {
            index,
            start,
            end,
            fingerprint,
            aggregate,
        };
        if let Some(dir) = &config.state_dir {
            write_json(&shard_path(dir, index), &state)?;
            manifest.completed.push(index);
            write_json(&manifest_path(dir), &manifest)?;
        }
        states[index] = Some(state);
        executed_shards += 1;
    }

    // Merge in shard-index (= scenario-id) order: the fingerprint sum
    // commutes, but the aggregate's sample vectors must concatenate in id
    // order for the final float folds to run in one order.
    let mut merged = StreamAggregate::new();
    let mut fingerprint = 0u64;
    for state in states.iter().flatten() {
        fingerprint = fingerprint.wrapping_add(state.fingerprint);
        merged.merge(&state.aggregate);
    }
    let (summary, fault_summary) = merged.finish();

    let elapsed = started.elapsed().as_secs_f64();
    let executed_scenarios: usize = per_thread.iter().sum();
    Ok(ShardedReport {
        outcome: ShardedOutcome {
            master_seed: base.master_seed,
            scenarios: base.scenarios,
            summary,
            fault_summary,
            fingerprint,
        },
        runtime: RuntimeStats {
            threads,
            per_thread,
            elapsed_secs: elapsed,
            scenarios_per_sec: if elapsed > 0.0 {
                executed_scenarios as f64 / elapsed
            } else {
                0.0
            },
            ops,
            horizon,
        },
        executed_shards,
        restored_shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_campaign;

    fn small_config(threads: usize) -> CampaignConfig {
        CampaignConfig {
            scenarios: 24,
            master_seed: 42,
            threads,
            with_1553: true,
            envelope_override: None,
            policy_override: None,
            faults: FaultMode::Sweep,
        }
    }

    fn sharded(base: CampaignConfig, shards: usize) -> ShardedCampaignConfig {
        ShardedCampaignConfig {
            base,
            shards,
            state_dir: None,
            resume: false,
        }
    }

    #[test]
    fn shard_plan_covers_the_range_contiguously() {
        for (scenarios, shards) in [(24, 1), (24, 7), (10, 3), (5, 16), (1, 1), (0, 4)] {
            let plan = plan_shards(scenarios, shards);
            assert!(!plan.is_empty());
            assert_eq!(plan[0].0, 0);
            assert_eq!(plan.last().unwrap().1, scenarios);
            for pair in plan.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "ranges must be contiguous");
                assert!(pair[0].1 > pair[0].0 || scenarios == 0);
            }
            let sizes: Vec<usize> = plan.iter().map(|(s, e)| e - s).collect();
            let (min, max) = (
                sizes.iter().min().copied().unwrap(),
                sizes.iter().max().copied().unwrap(),
            );
            assert!(max - min <= 1, "shards must be balanced: {sizes:?}");
        }
    }

    #[test]
    fn streaming_aggregate_equals_buffered_summaries() {
        // The crux of the streaming design: folding one result at a time
        // and merging across shard boundaries must reproduce the
        // unsharded summaries bit for bit, comparison and fault sections
        // included.
        let buffered = run_campaign(small_config(2));
        for shards in [1, 2, 7] {
            let plan = plan_shards(buffered.outcome.results.len(), shards);
            let mut merged = StreamAggregate::new();
            for (start, end) in plan {
                let mut shard = StreamAggregate::new();
                for result in &buffered.outcome.results[start..end] {
                    shard.fold(result);
                }
                merged.merge(&shard);
            }
            let (summary, fault_summary) = merged.finish();
            assert_eq!(summary, buffered.outcome.summary, "{shards} shards");
            assert_eq!(fault_summary, buffered.outcome.fault_summary);
            assert_eq!(
                serde_json::to_string_pretty(&summary).unwrap(),
                serde_json::to_string_pretty(&buffered.outcome.summary).unwrap()
            );
        }
    }

    #[test]
    fn sharded_outcome_is_byte_identical_across_shard_and_thread_counts() {
        let mut outcomes = Vec::new();
        for shards in [1, 2, 7] {
            for threads in [1, 4] {
                let report = run_sharded_campaign(&sharded(small_config(threads), shards))
                    .expect("in-memory sharded run cannot fail");
                assert_eq!(report.executed_shards, plan_shards(24, shards).len());
                assert_eq!(report.restored_shards, 0);
                outcomes.push(serde_json::to_string_pretty(&report.outcome).unwrap());
            }
        }
        for json in &outcomes[1..] {
            assert_eq!(json, &outcomes[0]);
        }
    }

    #[test]
    fn runtime_ops_count_this_runs_work_alone() {
        // One worker or four, alone or next to a concurrent run in the
        // same process: the run reports the same min-plus work.
        let ops = |threads| {
            let base = CampaignConfig {
                scenarios: 12,
                threads,
                ..CampaignConfig::default()
            };
            run_sharded_campaign(&sharded(base, 2))
                .expect("in-memory sharded run cannot fail")
                .runtime
                .ops
        };
        let solo = ops(1);
        assert!(solo.convolve > 0 && solo.horizontal_deviation > 0);
        assert_eq!(ops(4), solo);
        let start = std::sync::Barrier::new(2);
        let concurrent = || {
            start.wait();
            ops(2)
        };
        let (first, second) = thread::scope(|scope| {
            let first = scope.spawn(concurrent);
            let second = scope.spawn(concurrent);
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!(first, solo);
        assert_eq!(second, solo);
    }

    #[test]
    fn sharded_summary_and_fingerprint_match_the_buffered_run() {
        let buffered = run_campaign(small_config(4));
        let report =
            run_sharded_campaign(&sharded(small_config(2), 3)).expect("sharded run succeeds");
        assert_eq!(report.outcome.summary, buffered.outcome.summary);
        assert_eq!(report.outcome.fault_summary, buffered.outcome.fault_summary);
        assert_eq!(
            report.outcome.fingerprint,
            results_fingerprint(&buffered.outcome.results)
        );
    }

    #[test]
    fn per_thread_load_sums_to_the_scenario_count_across_shards() {
        // Satellite regression: with more shards than scenarios per
        // shard, the old per-shard allocation would have double-counted
        // workers; the global slots must sum to exactly one entry per
        // scenario and never exceed the effective thread count.
        let report = run_sharded_campaign(&sharded(
            CampaignConfig {
                scenarios: 10,
                threads: 4,
                with_1553: false,
                faults: FaultMode::Off,
                ..small_config(4)
            },
            5,
        ))
        .unwrap();
        assert_eq!(report.runtime.threads, 4);
        assert_eq!(report.runtime.per_thread.len(), 4);
        assert_eq!(report.runtime.per_thread.iter().sum::<usize>(), 10);
        assert!(report.runtime.busy_threads() >= 1);
    }

    #[test]
    fn resume_without_state_dir_is_rejected() {
        let mut config = sharded(small_config(1), 2);
        config.resume = true;
        match run_sharded_campaign(&config) {
            Err(ShardError::MissingStateDir) => {}
            other => panic!("expected MissingStateDir, got {other:?}"),
        }
    }

    /// A fresh scratch directory under the target-adjacent temp root,
    /// removed when dropped.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("campaign-shard-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            ScratchDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn stateful(
        base: CampaignConfig,
        shards: usize,
        dir: &Path,
        resume: bool,
    ) -> ShardedCampaignConfig {
        ShardedCampaignConfig {
            base,
            shards,
            state_dir: Some(dir.to_path_buf()),
            resume,
        }
    }

    #[test]
    fn resume_reruns_only_incomplete_shards_and_matches_uninterrupted_run() {
        let scratch = ScratchDir::new("resume");
        let base = CampaignConfig {
            with_1553: false,
            faults: FaultMode::Off,
            ..small_config(2)
        };
        let uninterrupted = run_sharded_campaign(&sharded(base, 4)).unwrap();

        // Complete all 4 shards on disk, then simulate a kill after shard
        // 1 by trimming the manifest and deleting the later checkpoints.
        let full = run_sharded_campaign(&stateful(base, 4, scratch.path(), false)).unwrap();
        assert_eq!(full.outcome, uninterrupted.outcome);
        let mut manifest = read_manifest(&manifest_path(scratch.path())).unwrap();
        manifest.completed.truncate(2);
        write_json(&manifest_path(scratch.path()), &manifest).unwrap();
        std::fs::remove_file(shard_path(scratch.path(), 2)).unwrap();
        std::fs::remove_file(shard_path(scratch.path(), 3)).unwrap();

        let resumed = run_sharded_campaign(&stateful(base, 4, scratch.path(), true)).unwrap();
        assert_eq!(resumed.restored_shards, 2);
        assert_eq!(resumed.executed_shards, 2);
        // Only the 12 scenarios of shards 2 and 3 were re-executed.
        assert_eq!(resumed.runtime.per_thread.iter().sum::<usize>(), 12);
        assert_eq!(resumed.outcome, uninterrupted.outcome);
        assert_eq!(
            serde_json::to_string_pretty(&resumed.outcome).unwrap(),
            serde_json::to_string_pretty(&uninterrupted.outcome).unwrap()
        );
    }

    #[test]
    fn corrupt_or_mismatched_state_is_rejected() {
        let scratch = ScratchDir::new("corrupt");
        let base = CampaignConfig {
            scenarios: 8,
            with_1553: false,
            faults: FaultMode::Off,
            ..small_config(1)
        };
        // Resume with no manifest at all.
        match run_sharded_campaign(&stateful(base, 2, scratch.path(), true)) {
            Err(ShardError::CorruptManifest { .. }) => {}
            other => panic!("expected CorruptManifest, got {other:?}"),
        }

        run_sharded_campaign(&stateful(base, 2, scratch.path(), false)).unwrap();

        // A truncated (half-written) manifest.
        let path = manifest_path(scratch.path());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        match run_sharded_campaign(&stateful(base, 2, scratch.path(), true)) {
            Err(ShardError::CorruptManifest { .. }) => {}
            other => panic!("expected CorruptManifest, got {other:?}"),
        }
        std::fs::write(&path, &text).unwrap();

        // Same directory, different campaign dimensions.
        let other_base = CampaignConfig {
            master_seed: 7,
            ..base
        };
        match run_sharded_campaign(&stateful(other_base, 2, scratch.path(), true)) {
            Err(ShardError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }

        // A completed shard whose checkpoint file is damaged.
        let shard0 = shard_path(scratch.path(), 0);
        let shard_text = std::fs::read_to_string(&shard0).unwrap();
        std::fs::write(&shard0, &shard_text[..shard_text.len() / 3]).unwrap();
        match run_sharded_campaign(&stateful(base, 2, scratch.path(), true)) {
            Err(ShardError::CorruptShard { index: 0, .. }) => {}
            other => panic!("expected CorruptShard, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_commute_but_bind_scenario_ids() {
        let buffered = run_campaign(CampaignConfig {
            scenarios: 6,
            with_1553: false,
            faults: FaultMode::Off,
            ..small_config(2)
        });
        let results = &buffered.outcome.results;
        let forward = results_fingerprint(results);
        let mut reversed: Vec<ScenarioResult> = results.clone();
        reversed.reverse();
        assert_eq!(forward, results_fingerprint(&reversed));
        // Swapping two results' ids changes the fingerprint even though
        // the multiset of payload hashes is unchanged in aggregate.
        let mut swapped = results.clone();
        let id0 = swapped[0].scenario.id;
        swapped[0].scenario.id = swapped[1].scenario.id;
        swapped[1].scenario.id = id0;
        assert_ne!(forward, results_fingerprint(&swapped));
    }
}
