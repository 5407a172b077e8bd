//! Regression pins for the scheduling-policy unification (one shared
//! `SchedulingPolicy` across `ethernet`/`netsim`/`core`/`campaign`, WRR
//! added as a third arm).
//!
//! 1. The campaign JSON at seed 42 with every scenario forced onto one of
//!    the paper's policies (`--policy fcfs` / `--policy priority`) must be
//!    **byte-identical** to the pre-refactor output: the fingerprints below
//!    hash the full pretty-printed `CampaignOutcome` JSON produced by the
//!    pre-refactor pipeline (commit `c8bd1cf`) with each scenario's
//!    approach forced to the respective arm.  Any drift — in the scenario
//!    space, the analysis numerics, the simulator, or the serialization
//!    layout — changes the hash.
//! 2. The closed-form token-bucket bounds of **both** paper arms over the
//!    first 200 seed-42 scenarios are pinned the same way (this subsumes
//!    the per-drawn-arm fingerprint the curve-refactor test used to carry:
//!    the policy dimension now draws WRR for some scenarios, so the pin
//!    forces each arm explicitly and covers twice as many reports).
//! 3. The WRR arm must be *sound*: every seed-42 scenario forced onto its
//!    seeded WRR weight set validates against the WRR-serving simulator
//!    with zero bound violations.
//! 4. The paper's single-switch analysis, `analyze`, is pinned under all
//!    three arms over the first 200 seed-42 workloads and the case study at
//!    10 and 100 Mbps: its per-message source, switch and total bounds and
//!    deadline verdicts hash to the value the two-stage station-then-switch
//!    walk produced before `analyze` became the single-switch projection of
//!    the multi-hop walk.

use campaign::{run_campaign, CampaignConfig, FaultMode, ScenarioSpace};
use netcalc::EnvelopeModel;
use rtswitch_core::{analyze, analyze_multi_hop_with, Approach, NetworkConfig, PolicyArm};
use units::DataRate;
use workload::case_study::case_study;

/// FNV-1a fingerprints of the forced-policy campaign JSON (40 scenarios,
/// master seed 42) produced by the pre-refactor pipeline.
const PRE_REFACTOR_FCFS_JSON: u64 = 0x2868_0575_e734_0b73;
const PRE_REFACTOR_PRIORITY_JSON: u64 = 0xfdaf_c051_2e5d_03b0;

/// FNV-1a fingerprint of both paper arms' token-bucket bounds (stage sum,
/// per-hop sum, convolved, total — plus infeasibility messages) over the
/// first 200 seed-42 scenarios, captured pre-refactor.
const PRE_REFACTOR_BOTH_ARM_BOUNDS: u64 = 0x03b8_852e_caa1_49ac;

/// FNV-1a fingerprint of `analyze`'s per-message source, switch and total
/// bounds and deadline verdicts (`u64::MAX` per rejected analysis) over the
/// first 200 seed-42 workloads and the case study at 10 and 100 Mbps, each
/// under FCFS, strict priority and a seeded WRR arm, captured from the
/// two-stage station-then-switch walk: 29 438 messages and 11 rejections.
const TWO_STAGE_WALK_BOUNDS: u64 = 0x83d9_9584_33b3_a41d;

/// FNV-1a over a stream of u64 values.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn push_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.push(b as u64);
        }
    }
}

fn forced_campaign_json_hash(arm: PolicyArm) -> u64 {
    let report = run_campaign(CampaignConfig {
        scenarios: 40,
        master_seed: 42,
        threads: 4,
        with_1553: false,
        envelope_override: None,
        policy_override: Some(arm),
        faults: FaultMode::Off,
    });
    let json = serde_json::to_string_pretty(&report.outcome).unwrap();
    let mut hash = Fnv::new();
    hash.push_str(&json);
    hash.0
}

#[test]
fn forced_fcfs_campaign_json_is_byte_identical_to_pre_refactor() {
    assert_eq!(
        forced_campaign_json_hash(PolicyArm::Fcfs),
        PRE_REFACTOR_FCFS_JSON,
        "--policy fcfs campaign JSON drifted from the pre-refactor output"
    );
}

#[test]
fn forced_priority_campaign_json_is_byte_identical_to_pre_refactor() {
    assert_eq!(
        forced_campaign_json_hash(PolicyArm::StrictPriority),
        PRE_REFACTOR_PRIORITY_JSON,
        "--policy priority campaign JSON drifted from the pre-refactor output"
    );
}

#[test]
fn both_paper_arms_token_bucket_bounds_match_the_pre_refactor_closed_forms() {
    let space = ScenarioSpace::new(42);
    let mut hash = Fnv::new();
    for id in 0..200 {
        let scenario = space.scenario(id);
        let workload = scenario.build_workload();
        let fabric = scenario.build_fabric(&workload);
        for approach in [Approach::Fcfs, Approach::StrictPriority] {
            match analyze_multi_hop_with(
                &workload,
                &scenario.network_config(),
                approach,
                &fabric,
                EnvelopeModel::TokenBucket,
            ) {
                Ok(report) => {
                    for m in &report.messages {
                        hash.push(m.stage_sum_bound.as_nanos());
                        hash.push(m.hop_sum_bound.as_nanos());
                        hash.push(m.convolved_bound.as_nanos());
                        hash.push(m.total_bound.as_nanos());
                    }
                }
                Err(e) => hash.push_str(&e.to_string()),
            }
        }
    }
    assert_eq!(
        hash.0, PRE_REFACTOR_BOTH_ARM_BOUNDS,
        "token-bucket bounds drifted from the pre-refactor closed forms \
         (got {:#x})",
        hash.0
    );
}

#[test]
fn paper_single_switch_bounds_match_the_two_stage_walk() {
    let space = ScenarioSpace::new(42);
    let mut cases: Vec<(workload::Workload, NetworkConfig, [Approach; 3])> = (0..200)
        .map(|id| {
            let scenario = space.scenario(id);
            let arms = [Approach::Fcfs, Approach::StrictPriority, space.wrr_arm(id)];
            (scenario.build_workload(), scenario.network_config(), arms)
        })
        .collect();
    for mbps in [10, 100] {
        let config = NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(mbps));
        let arms = [Approach::Fcfs, Approach::StrictPriority, space.wrr_arm(0)];
        cases.push((case_study(), config, arms));
    }
    let mut hash = Fnv::new();
    let (mut messages, mut errors) = (0, 0);
    for (workload, config, arms) in &cases {
        for &approach in arms {
            match analyze(workload, config, approach) {
                Ok(report) => {
                    for m in &report.messages {
                        hash.push(m.source_bound.as_nanos());
                        hash.push(m.switch_bound.as_nanos());
                        hash.push(m.total_bound.as_nanos());
                        hash.push(m.meets_deadline as u64);
                    }
                    messages += report.messages.len();
                }
                // The error text is left out: it names the failing port.
                Err(_) => {
                    hash.push(u64::MAX);
                    errors += 1;
                }
            }
        }
    }
    assert_eq!((messages, errors), (29_438, 11));
    assert_eq!(
        hash.0, TWO_STAGE_WALK_BOUNDS,
        "analyze drifted from the two-stage walk (got {:#x})",
        hash.0
    );
}

#[test]
fn seed42_wrr_campaign_is_sound_and_deterministic() {
    let config = CampaignConfig {
        scenarios: 40,
        master_seed: 42,
        threads: 4,
        with_1553: false,
        envelope_override: None,
        policy_override: Some(PolicyArm::Wrr),
        faults: FaultMode::Off,
    };
    let a = run_campaign(config);
    let summary = &a.outcome.summary;
    assert!(
        summary.all_sound(),
        "WRR bound violations: {:?}",
        summary.violations
    );
    assert!(summary.validated > 0, "no WRR scenario was validated");
    assert!(summary.pboo_consistent());
    // Same determinism contract as the other arms: byte-identical JSON
    // across thread counts.
    let b = run_campaign(CampaignConfig {
        threads: 1,
        ..config
    });
    assert_eq!(
        serde_json::to_string_pretty(&a.outcome).unwrap(),
        serde_json::to_string_pretty(&b.outcome).unwrap()
    );
    // Every scenario sits on its own seeded weight set, all in one WRR row.
    let space = ScenarioSpace::new(42);
    for r in &a.outcome.results {
        assert_eq!(r.scenario.approach, space.wrr_arm(r.scenario.id));
    }
    let wrr_row = summary
        .by_approach
        .iter()
        .find(|row| row.approach == PolicyArm::Wrr)
        .expect("forced-WRR campaign has a WRR row");
    assert_eq!(wrr_row.validated + wrr_row.infeasible, 40);
}

#[test]
fn no_duplicate_policy_type_survives() {
    // The unified type is the ethernet one; netsim re-exports it rather
    // than carrying a copy, so the two paths name the same type.
    let a: ethernet::SchedulingPolicy = netsim::SchedulingPolicy::Fcfs;
    assert_eq!(a, ethernet::SchedulingPolicy::Fcfs);
    let w: ethernet::WrrWeights = netsim::WrrWeights::new(&[1, 2], netsim::WrrUnit::Frames);
    assert_eq!(w.classes, 2);
}
