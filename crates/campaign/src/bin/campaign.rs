//! Campaign CLI: sweep hundreds of scenarios in parallel and validate the
//! analytic delay bounds against simulation in every one of them.
//!
//! ```text
//! cargo run --release -p campaign -- --scenarios 200 --seed 42 --json out.json
//! ```
//!
//! The JSON written by `--json` contains only the deterministic campaign
//! outcome (scenario results + summary): re-running with the same seed and
//! scenario count produces a byte-identical file regardless of `--threads`.
//! Wall-clock statistics are printed to stdout only.

use campaign::{
    run_campaign, run_sharded_campaign, CampaignConfig, CampaignSummary, ComparisonReport,
    FaultMode, FaultSummary, RuntimeStats, ScenarioOutcome, ShardError, ShardedCampaignConfig,
};
use netcalc::EnvelopeModel;
use rtswitch_core::PolicyArm;
use std::io::Write;
use std::process::ExitCode;

/// Prints a line to stdout, ignoring write errors: the campaign must not
/// panic when its output is piped into `head` and the pipe closes early.
macro_rules! say {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

const USAGE: &str = "\
campaign — parallel scenario-sweep validation of delay bounds

USAGE:
    campaign [OPTIONS]

OPTIONS:
    --scenarios <N>   number of scenarios to run        [default: 200]
    --seed <S>        master seed of the scenario space [default: 42]
    --threads <T>     worker threads (0 = all cores)    [default: 0]
    --with-1553       run the MIL-STD-1553B cross-technology stage in
                      every scenario and report the comparison section
    --envelope <M>    arrival-envelope dimension: sweep (default, each
                      scenario draws its own arm), token-bucket (closed
                      forms only, pre-curve behaviour), or staircase
                      (validate the staircase bounds everywhere)
    --policy <P>      scheduling-policy dimension: sweep (default, each
                      scenario draws its own arm, WRR included), fcfs or
                      priority (force the paper's arms — byte-identical to
                      the pre-WRR campaign), or wrr (validate every
                      scenario's seeded WRR weight set)
    --faults <F>      fault dimension: off (default, pre-fault pipeline,
                      byte-identical output) or sweep (every scenario draws
                      a seeded fault set — babblers, link bursts, trunk
                      failover — and validates degraded-mode bounds against
                      the faulty simulation)
    --shards <N>      run as N contiguous seed-range shards, dropping each
                      result once it is folded into the summary (memory is
                      O(messages): one tightness sample per message is
                      kept); summary and fingerprint byte-identical to the
                      buffered run; 0 (default) keeps every result
    --state-dir <DIR> persist per-shard checkpoints and a manifest under
                      DIR (implies the sharded path)
    --resume          restore completed shards from --state-dir and run
                      only the rest; the merged outcome is byte-identical
                      to an uninterrupted run
    --json <PATH>     write the deterministic campaign outcome as JSON
    --quiet           suppress the per-policy table
    --help            print this help

EXIT CODES:
    0  success, every validated bound sound
    1  bound violations detected, or output could not be written
    2  usage error
    3  shard state error (corrupt manifest/checkpoint, config mismatch)
";

struct Args {
    scenarios: usize,
    seed: u64,
    threads: usize,
    with_1553: bool,
    envelope: Option<EnvelopeModel>,
    policy: Option<PolicyArm>,
    faults: FaultMode,
    shards: usize,
    state_dir: Option<String>,
    resume: bool,
    json: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenarios: 200,
        seed: 42,
        threads: 0,
        with_1553: false,
        envelope: None,
        policy: None,
        faults: FaultMode::Off,
        shards: 0,
        state_dir: None,
        resume: false,
        json: None,
        quiet: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value_of =
            |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--scenarios" => {
                args.scenarios = value_of("--scenarios")?
                    .parse()
                    .map_err(|e| format!("--scenarios: {e}"))?;
            }
            "--seed" => {
                args.seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                args.threads = value_of("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--with-1553" => args.with_1553 = true,
            "--envelope" => {
                args.envelope = match value_of("--envelope")?.as_str() {
                    "sweep" => None,
                    "token-bucket" => Some(EnvelopeModel::TokenBucket),
                    "staircase" => Some(EnvelopeModel::Staircase),
                    other => {
                        return Err(format!(
                            "--envelope expects sweep, token-bucket or staircase, got `{other}`"
                        ))
                    }
                };
            }
            "--policy" => {
                args.policy = match value_of("--policy")?.as_str() {
                    "sweep" => None,
                    "fcfs" => Some(PolicyArm::Fcfs),
                    "priority" => Some(PolicyArm::StrictPriority),
                    "wrr" => Some(PolicyArm::Wrr),
                    other => {
                        return Err(format!(
                            "--policy expects sweep, fcfs, priority or wrr, got `{other}`"
                        ))
                    }
                };
            }
            "--faults" => {
                args.faults = match value_of("--faults")?.as_str() {
                    "off" => FaultMode::Off,
                    "sweep" => FaultMode::Sweep,
                    other => return Err(format!("--faults expects off or sweep, got `{other}`")),
                };
            }
            "--shards" => {
                args.shards = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--state-dir" => args.state_dir = Some(value_of("--state-dir")?),
            "--resume" => args.resume = true,
            "--json" => args.json = Some(value_of("--json")?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                say!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Prints the wall-clock line of one execution; restored shards do not
/// count as executed.
fn print_runtime(runtime: &RuntimeStats) {
    say!(
        "executed {} scenarios in {:.2}s ({:.1} scenarios/sec) on {} busy threads {:?}",
        runtime.per_thread.iter().sum::<usize>(),
        runtime.elapsed_secs,
        runtime.scenarios_per_sec,
        runtime.busy_threads(),
        runtime.per_thread,
    );
    let (ops, horizon) = (&runtime.ops, &runtime.horizon);
    say!(
        "min-plus ops: {} convolve | {} leftover | {} add | {} sub_envelope | {} combine | {} deviations | {} cut ports | {} port fallbacks | {} path fallbacks",
        ops.convolve,
        ops.leftover,
        ops.add,
        ops.sub_envelope,
        ops.combine,
        ops.horizontal_deviation,
        horizon.cut_ports,
        horizon.port_fallbacks,
        horizon.path_fallbacks,
    );
}

/// Prints the aggregate sections shared by the buffered and sharded
/// paths: soundness, tightness, PBOO, envelope, fault and 1553 summaries.
fn print_summary(summary: &CampaignSummary, fault_summary: Option<&FaultSummary>) {
    say!(
        "validated {} | infeasible {} | sound {} | soundness rate {:.1}% | {} messages checked | {} frames simulated",
        summary.validated,
        summary.infeasible,
        summary.sound_scenarios,
        summary.soundness_rate * 100.0,
        summary.messages_checked,
        summary.frames_simulated,
    );
    say!(
        "tightness over {} samples: min {:.4} | mean {:.4} | p50 {:.4} | p99 {:.4} | max {:.4}",
        summary.tightness.count,
        summary.tightness.min,
        summary.tightness.mean,
        summary.tightness.p50,
        summary.tightness.p99,
        summary.tightness.max,
    );
    say!(
        "multi-switch: {} cascaded scenarios validated | pay-bursts-only-once consistent in {} | max PBOO gain {}",
        summary.cascaded_validated,
        if summary.pboo_consistent() {
            "all".to_string()
        } else {
            format!("{} VIOLATIONS", summary.pboo_violations)
        },
        summary.max_pboo_gain,
    );

    if summary.envelope_gain.count > 0 {
        say!(
            "staircase envelopes: {} scenarios validated on the staircase arm | per-scenario median gain over {} scenarios: p50 {:.4} | max {:.4} | {} with zero gain",
            summary.staircase_validated,
            summary.envelope_gain.count,
            summary.envelope_gain.p50,
            summary.envelope_gain.max,
            summary.zero_gain_scenarios,
        );
    }

    if let Some(faults) = fault_summary {
        say!(
            "fault sweep: {} degraded stages | {} validated | {} infeasible | sound {} | bounds hold under faults in {} | {} with trunk failover",
            faults.scenarios,
            faults.validated,
            faults.infeasible,
            faults.sound_scenarios,
            faults.bounds_hold_scenarios,
            faults.failover_scenarios,
        );
        say!(
            "fault sweep: max bound inflation {:.3}x | {} adversarial frames babbled",
            faults.max_inflation,
            faults.babble_frames,
        );
    }

    if let Some(comparison) = &summary.comparison {
        say!(
            "1553 baseline: {} feasible | {} infeasible on the 1 Mbps bus | bus soundness {:.1}% \
             | bus tightness p50 {:.4}",
            comparison.feasible,
            comparison.infeasible,
            comparison.soundness_rate * 100.0,
            comparison.tightness.p50,
        );
        say!(
            "1553 vs Ethernet: ethernet-only wins {} | bus-only wins {} | both meet {} | neither {} \
             | bus/Ethernet bound ratio p50 {:.1}x",
            comparison.ethernet_only_wins,
            comparison.bus_only_wins,
            comparison.both_meet,
            comparison.neither_meets,
            comparison.bound_ratio.p50,
        );
        say!(
            "1553 capacity frontier: max feasible utilization {:.3} | min infeasible utilization {:.3}",
            comparison.max_feasible_utilization,
            comparison.min_infeasible_utilization,
        );
    }
}

/// Prints the per-policy breakdown table.
fn print_policy_table(summary: &CampaignSummary) {
    say!();
    say!(
        "{:<18} {:>9} {:>10} {:>6} {:>15} {:>15}",
        "approach",
        "validated",
        "infeasible",
        "sound",
        "deadline-misses",
        "mean tightness"
    );
    for arm in &summary.by_approach {
        say!(
            "{:<18} {:>9} {:>10} {:>6} {:>15} {:>15.4}",
            arm.approach.to_string(),
            arm.validated,
            arm.infeasible,
            arm.sound,
            arm.deadline_miss_scenarios,
            arm.mean_tightness,
        );
    }
}

/// Dumps every recorded violation to stderr and returns `true` when all
/// three summaries (Ethernet, degraded, 1553) are sound.
fn report_soundness(summary: &CampaignSummary, fault_summary: Option<&FaultSummary>) -> bool {
    if !summary.violations.is_empty() {
        eprintln!("BOUND VIOLATIONS DETECTED:");
        for violation in &summary.violations {
            eprintln!(
                "  scenario {} (seed {}): message {} observed {} > bound {}",
                violation.scenario_id,
                violation.seed,
                violation.violation.message,
                violation.violation.observed,
                violation.violation.bound,
            );
        }
    }
    if let Some(faults) = fault_summary {
        if !faults.violations.is_empty() {
            eprintln!("DEGRADED-BOUND VIOLATIONS DETECTED:");
            for violation in &faults.violations {
                eprintln!(
                    "  scenario {} (seed {}): message {} observed {} > degraded bound {}",
                    violation.scenario_id,
                    violation.seed,
                    violation.violation.message,
                    violation.violation.observed,
                    violation.violation.bound,
                );
            }
        }
    }
    if let Some(comparison) = &summary.comparison {
        if !comparison.violations.is_empty() {
            eprintln!("1553 BOUND VIOLATIONS DETECTED:");
            for violation in &comparison.violations {
                eprintln!(
                    "  scenario {} (seed {}): message {} observed {} > bound {}",
                    violation.scenario_id,
                    violation.seed,
                    violation.violation.message,
                    violation.violation.observed,
                    violation.violation.bound,
                );
            }
        }
    }

    let bus_sound = summary
        .comparison
        .as_ref()
        .map(|c| c.all_sound())
        .unwrap_or(true);
    let faults_sound = fault_summary.map(|f| f.all_sound()).unwrap_or(true);
    summary.all_sound() && bus_sound && faults_sound
}

/// The tail both paths share: dumps violations, writes `--json`, prints
/// the verdict and returns the exit code.
fn conclude<T: serde::Serialize>(
    args: &Args,
    summary: &CampaignSummary,
    fault_summary: Option<&FaultSummary>,
    outcome: &T,
) -> ExitCode {
    let sound = report_soundness(summary, fault_summary);
    if let Some(path) = &args.json {
        let written = serde_json::to_string_pretty(outcome)
            .map_err(|e| format!("serializing outcome: {e}"))
            .and_then(|json| {
                std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))
            });
        if let Err(e) = written {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
        say!("wrote {path}");
    }
    if sound {
        say!("RESULT: 100% soundness — every simulated delay within its analytic bound");
        ExitCode::SUCCESS
    } else {
        eprintln!("RESULT: soundness violated");
        ExitCode::from(1)
    }
}

/// The buffered path: every result retained, per-result listings printed.
fn run_buffered(args: &Args, config: CampaignConfig) -> ExitCode {
    let report = run_campaign(config);
    let summary = &report.outcome.summary;
    let fault_summary = report.outcome.fault_summary.as_ref();

    print_runtime(&report.runtime);
    print_summary(summary, fault_summary);
    if !args.quiet {
        print_policy_table(summary);
        let infeasible: Vec<usize> = report
            .outcome
            .results
            .iter()
            .filter(|r| matches!(r.outcome, ScenarioOutcome::AnalysisInfeasible { .. }))
            .map(|r| r.scenario.id)
            .collect();
        if !infeasible.is_empty() {
            say!("analytically infeasible scenario ids: {infeasible:?}");
        }
        if summary.comparison.is_some() {
            let bus_infeasible: Vec<usize> = report
                .outcome
                .results
                .iter()
                .filter(|r| matches!(r.comparison, Some(ComparisonReport::Infeasible1553(_))))
                .map(|r| r.scenario.id)
                .collect();
            if !bus_infeasible.is_empty() {
                say!("1553-infeasible scenario ids: {bus_infeasible:?}");
            }
        }
    }
    conclude(args, summary, fault_summary, &report.outcome)
}

/// The sharded streaming path: no per-result retention (or listings) —
/// the summaries plus the order-independent fingerprint stand in for the
/// result vector.
fn run_sharded(args: &Args, config: ShardedCampaignConfig) -> ExitCode {
    let report = match run_sharded_campaign(&config) {
        Ok(report) => report,
        Err(ShardError::MissingStateDir) => {
            eprintln!("error: {}\n\n{USAGE}", ShardError::MissingStateDir);
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let summary = &report.outcome.summary;
    let fault_summary = report.outcome.fault_summary.as_ref();

    say!(
        "sharded: {} shards ({} executed, {} restored), fingerprint {:#018x}",
        report.executed_shards + report.restored_shards,
        report.executed_shards,
        report.restored_shards,
        report.outcome.fingerprint,
    );
    print_runtime(&report.runtime);
    print_summary(summary, fault_summary);
    if !args.quiet {
        print_policy_table(summary);
    }
    conclude(args, summary, fault_summary, &report.outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let config = CampaignConfig {
        scenarios: args.scenarios,
        master_seed: args.seed,
        threads: args.threads,
        with_1553: args.with_1553,
        envelope_override: args.envelope,
        policy_override: args.policy,
        faults: args.faults,
    };
    say!(
        "campaign: {} scenarios, master seed {}, {} worker threads",
        config.scenarios,
        config.master_seed,
        config.effective_threads()
    );

    // Any shard-related flag selects the streaming path; a bare
    // invocation keeps the buffered behaviour (and output) unchanged.
    if args.shards > 0 || args.state_dir.is_some() || args.resume {
        run_sharded(
            &args,
            ShardedCampaignConfig {
                base: config,
                shards: args.shards.max(1),
                state_dir: args.state_dir.as_ref().map(std::path::PathBuf::from),
                resume: args.resume,
            },
        )
    } else {
        run_buffered(&args, config)
    }
}
