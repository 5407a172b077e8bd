//! perfbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign_sweep|campaign_tb_faults|admission_churn|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--replay ID]
//! ```
//!
//! With `--trace 0` the named workload runs end to end and the run prints
//! the end-to-end metrics; with `--trace 1` the run profiles all three
//! workloads layer by layer, with spans recorded around the calls into
//! each layer.  `--replay ID` replays one campaign scenario with spans.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the provenance record (nproc, source revision, seed, run shape).
//! See `perfbench/README.md` for the workloads and metrics.

mod admission_load;
mod campaign_load;
mod metrics;
mod replay;
mod stats;

use metrics::Metrics;
use stats::Tally;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["campaign_sweep", "campaign_tb_faults", "admission_churn"];

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    replay: Option<usize>,
}

const USAGE: &str =
    "usage: perfbench --workload <campaign_sweep|campaign_tb_faults|admission_churn|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--replay ID]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30.0,
        trace: false,
        replay: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--replay" => {
                parsed.replay = Some(value()?.parse().map_err(|e| format!("--replay: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (shape, tally, metrics) = if let Some(id) = args.replay {
        let Some(shape) = campaign_shape(&args.workload) else {
            eprintln!("perfbench: --replay needs a campaign workload\n{USAGE}");
            return ExitCode::from(2);
        };
        run_replay(shape, args.seed, id)
    } else if args.trace {
        run_profiles(&args, nproc)
    } else if args.workload == "all" {
        return run_all(&args);
    } else {
        run_end_to_end(&args, nproc)
    };
    println!(
        "{}",
        metrics::record(
            &args.workload,
            args.seed,
            args.trace,
            nproc,
            &shape,
            &tally,
            &metrics
        )
    );
    println!("{}", metrics::result_line(&tally, &metrics));
    ExitCode::SUCCESS
}

fn campaign_shape(workload: &str) -> Option<&'static campaign_load::Shape> {
    match workload {
        "campaign_sweep" => Some(&campaign_load::SWEEP),
        "campaign_tb_faults" => Some(&campaign_load::TB_FAULTS),
        _ => None,
    }
}

/// The end-to-end run of one workload.
fn run_end_to_end(args: &Args, nproc: usize) -> (String, Tally, Metrics) {
    println!(
        "perfbench {} | seed {} | {} s | nproc {nproc}",
        args.workload, args.seed, args.seconds
    );
    if let Some(shape) = campaign_shape(&args.workload) {
        let run = campaign_load::run(shape, args.seed, args.seconds, nproc);
        let metrics = metrics::campaign_end_to_end(&run);
        metrics::print_campaign_run(shape, &run, &metrics);
        (shape.describe(), run.tally, metrics)
    } else {
        let run = admission_load::run(args.seed, args.seconds);
        let metrics = metrics::admission_end_to_end(&run);
        metrics::print_admission_run(&run, &metrics);
        (admission_load::describe(), run.tally, metrics)
    }
}

/// The traced run: every workload's per-layer profile, a third of the
/// run time each.  Each profile runs on a thread of its own, so the
/// per-thread curve cache the admission engine switches on never reaches
/// the campaign replays.
fn run_profiles(args: &Args, nproc: usize) -> (String, Tally, Metrics) {
    println!(
        "perfbench traced run | seed {} | {} s | nproc {nproc} | profiles all three workloads",
        args.seed, args.seconds
    );
    let budget = args.seconds / 3.0;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    for shape in [&campaign_load::SWEEP, &campaign_load::TB_FAULTS] {
        let profile = std::thread::scope(|scope| {
            scope
                .spawn(|| campaign_load::profile(shape, args.seed, budget, nproc))
                .join()
                .expect("the profile catches scenario panics")
        });
        let layer = metrics::campaign_per_layer(shape, &profile, nproc);
        metrics::print_campaign_profile(shape, args.seed, &profile, &layer);
        tally.merge(&profile.tally);
        metrics.extend(layer);
    }
    let profile = std::thread::scope(|scope| {
        scope
            .spawn(|| admission_load::profile(args.seed, budget))
            .join()
            .expect("the profile catches request panics")
    });
    let layer = metrics::admission_per_layer(&profile);
    metrics::print_admission_profile(&profile, &layer);
    tally.merge(&profile.tally);
    metrics.extend(layer);
    ("{\"profiles\": \"all\"}".to_string(), tally, metrics)
}

/// `--replay ID`: one campaign scenario with spans.
fn run_replay(shape: &campaign_load::Shape, seed: u64, id: usize) -> (String, Tally, Metrics) {
    let (traced, tally) = campaign_load::replay_one(shape, seed, id);
    let metrics = metrics::print_replay(shape, &traced);
    (
        format!("{{\"replay\": {id}, \"workload\": {}}}", shape.describe()),
        tally,
        metrics,
    )
}

/// `--workload all`: each workload end to end in a process of its own,
/// then one combined result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut combined = metrics::Combined::default();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(error) => {
                eprintln!("perfbench: cannot start the {workload} run: {error}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() || !combined.add(workload, stdout.lines().last()) {
            eprintln!("perfbench: the {workload} run failed");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", combined.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let parsed =
            args("--workload campaign_sweep --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(parsed.workload, "campaign_sweep");
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 12.0, true));
        assert!(args("--workload all").is_ok());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload admission_churn --trace 2").is_err());
        assert!(args("--workload admission_churn --seed").is_err());
        assert!(args("--workload admission_churn --seconds 0").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
