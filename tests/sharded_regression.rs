//! Regression pins for the sharded streaming campaign.
//!
//! 1. The sharded outcome must be **byte-identical** across shard counts
//!    {1, 2, 7} × thread counts {1, 4}: every float fold in the streaming
//!    aggregate runs in scenario-id order, and the campaign fingerprint is
//!    a commutative sum of per-result hashes.
//! 2. The streamed summary must equal the buffered
//!    [`campaign::CampaignSummary`] bit for bit, and the fingerprint must
//!    equal [`campaign::results_fingerprint`] over the buffered results —
//!    the buffered run is the one-shard run that keeps its results, so
//!    sharding changes memory, not semantics.
//! 3. The seed-42 sharded JSON is pinned with the same FNV-1a idiom as
//!    the pre-fault campaign pin: any drift in the scenario draw order,
//!    the analysis numerics, the simulator, the aggregation, or the
//!    serialization layout changes the hash.

use campaign::{
    results_fingerprint, run_campaign, run_sharded_campaign, CampaignConfig, FaultMode,
    ShardedCampaignConfig, ShardedReport,
};

/// FNV-1a fingerprint of the pretty-printed seed-42 sharded outcome (40
/// scenarios, no 1553 stage, no overrides, faults off) captured when the
/// sharded executor landed.
const SHARDED_CAMPAIGN_JSON: u64 = 0xecf7_f65b_f461_cece;

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

fn seed42_config(threads: usize, faults: FaultMode) -> CampaignConfig {
    CampaignConfig {
        scenarios: 40,
        master_seed: 42,
        threads,
        with_1553: false,
        envelope_override: None,
        policy_override: None,
        faults,
    }
}

fn seed42_sharded(threads: usize, shards: usize, faults: FaultMode) -> ShardedReport {
    run_sharded_campaign(&ShardedCampaignConfig {
        base: seed42_config(threads, faults),
        shards,
        state_dir: None,
        resume: false,
    })
    .expect("in-memory sharded run cannot fail")
}

#[test]
fn sharded_outcome_is_byte_identical_across_shards_and_threads_and_pinned() {
    let mut jsons = Vec::new();
    for shards in [1, 2, 7] {
        for threads in [1, 4] {
            let report = seed42_sharded(threads, shards, FaultMode::Off);
            jsons.push((
                shards,
                threads,
                serde_json::to_string_pretty(&report.outcome).unwrap(),
            ));
        }
    }
    let (_, _, reference) = &jsons[0];
    for (shards, threads, json) in &jsons {
        assert_eq!(
            json, reference,
            "sharded outcome drifted at {shards} shards x {threads} threads"
        );
    }
    let mut hash = Fnv::new();
    hash.push_str(reference);
    assert_eq!(
        hash.0, SHARDED_CAMPAIGN_JSON,
        "seed-42 sharded outcome JSON drifted (got {:#x})",
        hash.0
    );
}

/// Runs one input buffered and sharded and checks the streamed outcome
/// against the buffered one: summary (value and JSON bytes), fault
/// summary, and the fingerprint over the kept results.
fn assert_streamed_equals_buffered(faults: FaultMode, with_1553: bool) -> ShardedReport {
    let config = |threads| CampaignConfig {
        with_1553,
        ..seed42_config(threads, faults)
    };
    let buffered = run_campaign(config(4));
    let sharded = run_sharded_campaign(&ShardedCampaignConfig {
        base: config(2),
        shards: 7,
        state_dir: None,
        resume: false,
    })
    .expect("in-memory sharded run cannot fail");
    assert_eq!(sharded.outcome.summary, buffered.outcome.summary);
    assert_eq!(
        serde_json::to_string_pretty(&sharded.outcome.summary).unwrap(),
        serde_json::to_string_pretty(&buffered.outcome.summary).unwrap(),
        "streamed summary JSON must be byte-identical to the buffered one"
    );
    assert_eq!(
        sharded.outcome.fault_summary,
        buffered.outcome.fault_summary
    );
    assert_eq!(
        sharded.outcome.fingerprint,
        results_fingerprint(&buffered.outcome.results),
        "sharded fingerprint must hash the same results the buffered run kept"
    );
    sharded
}

#[test]
fn streamed_summary_equals_the_buffered_campaign() {
    assert_streamed_equals_buffered(FaultMode::Off, false);
}

#[test]
fn fault_sweep_streams_identically_too() {
    // The fault sweep with the 1553 stage populates every aggregation
    // section.
    let sharded = assert_streamed_equals_buffered(FaultMode::Sweep, true);
    assert!(sharded
        .outcome
        .fault_summary
        .as_ref()
        .expect("sweep populates the fault summary")
        .all_sound());
    assert!(sharded.outcome.summary.comparison.is_some());
}
