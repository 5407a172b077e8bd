//! Regression pins for the fault-injection axis.
//!
//! 1. `--faults off` (the default) must keep the campaign JSON
//!    **byte-identical** to the pre-fault pipeline: the fingerprint below
//!    hashes the full pretty-printed `CampaignOutcome` JSON of the seed-42
//!    campaign produced before the fault axis existed (commit `e278576`).
//!    The fault dimension is drawn last in the scenario space and every
//!    new serialized field is omitted when absent, so any drift — in the
//!    draw order, the analysis numerics, the simulator, or the
//!    serialization layout — changes the hash.
//! 2. `--faults sweep` must obey the same determinism contract as every
//!    other dimension: byte-identical JSON across thread counts.
//! 3. The sweep must be *sound*: every validated degraded stage holds its
//!    degraded-mode bounds against the faulty simulation.
//! 4. `--faults sweep` outputs are pinned too: the 40-scenario sweep, and
//!    the 100-scenario token-bucket sweep with the 1553 stage on (the
//!    shape of perfbench's `campaign_tb_faults`), each by the FNV-1a of
//!    its pretty-printed outcome JSON.

use campaign::{run_campaign, CampaignConfig, CampaignReport, FaultMode};
use netcalc::EnvelopeModel;

/// FNV-1a fingerprint of the pretty-printed seed-42 campaign outcome (40
/// scenarios, no 1553 stage, no overrides) captured on the pre-fault
/// pipeline.
const PRE_FAULT_CAMPAIGN_JSON: u64 = 0x697b_be40_216d_c497;

/// FNV-1a fingerprint of the pretty-printed seed-42 fault-sweep outcome
/// (40 scenarios, no 1553 stage, no overrides).
const FAULT_SWEEP_CAMPAIGN_JSON: u64 = 0x76ad_96db_880e_a611;

/// FNV-1a fingerprint of the pretty-printed seed-42 token-bucket fault
/// sweep with the 1553 stage (100 scenarios, envelopes forced to token
/// buckets).
const TB_FAULT_SWEEP_1553_CAMPAIGN_JSON: u64 = 0xbcec_07de_25f7_8d49;

/// Plain byte-wise FNV-1a (the idiom the baseline was captured with).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, byte: u64) {
        self.0 ^= byte;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn push_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.push(b as u64);
        }
    }
}

fn seed42_campaign(threads: usize, faults: FaultMode) -> CampaignReport {
    run_campaign(CampaignConfig {
        scenarios: 40,
        master_seed: 42,
        threads,
        with_1553: false,
        envelope_override: None,
        policy_override: None,
        faults,
    })
}

/// FNV-1a of the pretty-printed outcome JSON.
fn outcome_fingerprint(report: &CampaignReport) -> u64 {
    let json = serde_json::to_string_pretty(&report.outcome).unwrap();
    let mut hash = Fnv::new();
    hash.push_str(&json);
    hash.0
}

#[test]
fn faults_off_campaign_json_is_byte_identical_to_pre_fault_pipeline() {
    let report = seed42_campaign(4, FaultMode::Off);
    let json = serde_json::to_string_pretty(&report.outcome).unwrap();
    assert!(
        !json.contains("\"fault\""),
        "fault-free campaign JSON must carry no fault key"
    );
    let mut hash = Fnv::new();
    hash.push_str(&json);
    assert_eq!(
        hash.0, PRE_FAULT_CAMPAIGN_JSON,
        "--faults off campaign JSON drifted from the pre-fault pipeline \
         (got {:#x})",
        hash.0
    );
}

#[test]
fn fault_sweep_is_byte_identical_across_thread_counts() {
    let a = seed42_campaign(4, FaultMode::Sweep);
    let b = seed42_campaign(1, FaultMode::Sweep);
    assert_eq!(
        serde_json::to_string_pretty(&a.outcome).unwrap(),
        serde_json::to_string_pretty(&b.outcome).unwrap(),
        "fault sweep outcome depends on the thread count"
    );
}

#[test]
fn fault_sweep_campaign_json_is_pinned() {
    let fingerprint = outcome_fingerprint(&seed42_campaign(4, FaultMode::Sweep));
    assert_eq!(
        fingerprint, FAULT_SWEEP_CAMPAIGN_JSON,
        "--faults sweep campaign JSON drifted (got {fingerprint:#x})"
    );
}

#[test]
fn token_bucket_fault_sweep_with_1553_is_pinned() {
    let report = run_campaign(CampaignConfig {
        scenarios: 100,
        master_seed: 42,
        threads: 4,
        with_1553: true,
        envelope_override: Some(EnvelopeModel::TokenBucket),
        policy_override: None,
        faults: FaultMode::Sweep,
    });
    let fingerprint = outcome_fingerprint(&report);
    assert_eq!(
        fingerprint, TB_FAULT_SWEEP_1553_CAMPAIGN_JSON,
        "token-bucket --with-1553 --faults sweep campaign JSON drifted (got {fingerprint:#x})"
    );
}

#[test]
fn seed42_fault_sweep_is_sound() {
    let report = seed42_campaign(4, FaultMode::Sweep);
    // The healthy pipeline is untouched by the sweep: the healthy summary
    // still validates with zero violations.
    assert!(
        report.outcome.summary.all_sound(),
        "healthy violations under the sweep: {:?}",
        report.outcome.summary.violations
    );
    // Every scenario ran its degraded stage; every validated one held its
    // degraded-mode bounds against the faulty simulation.
    assert!(report.outcome.results.iter().all(|r| r.fault.is_some()));
    let faults = report
        .outcome
        .fault_summary
        .as_ref()
        .expect("sweep populates the fault summary");
    assert_eq!(faults.scenarios, 40);
    assert_eq!(faults.validated + faults.infeasible, 40);
    assert!(faults.validated > 0, "no degraded stage was validated");
    assert!(
        faults.all_sound(),
        "degraded-bound violations: {:?}",
        faults.violations
    );
    assert_eq!(faults.soundness_rate, 1.0);
    assert!(faults.babble_frames > 0, "no adversarial frame simulated");
}
