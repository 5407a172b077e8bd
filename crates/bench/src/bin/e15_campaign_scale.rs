//! E15 — the sharded streaming campaign at scale: streaming vs buffered
//! throughput and memory, and the byte-identity cross-check.

use bench::{campaign_scale, render_campaign_scale};
use rtswitch_core::report::to_json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|pos| args.get(pos + 1))
            .cloned()
    };
    let scenarios: usize = flag("--scenarios")
        .map(|s| s.parse().expect("--scenarios expects a count"))
        .unwrap_or(2_000);
    let shards: usize = flag("--shards")
        .map(|s| s.parse().expect("--shards expects a count"))
        .unwrap_or(8);
    let threads: usize = flag("--threads")
        .map(|s| s.parse().expect("--threads expects a count"))
        .unwrap_or(0);
    let seed: u64 = flag("--seed")
        .map(|s| s.parse().expect("--seed expects a u64"))
        .unwrap_or(42);

    let report = campaign_scale(scenarios, shards, threads, seed);
    print!("{}", render_campaign_scale(&report));

    if let Some(path) = flag("--json") {
        std::fs::write(&path, to_json(&report).expect("report serializes")).expect("write JSON");
        eprintln!("wrote {path}");
    }
    if !report.summary_matches_buffered {
        eprintln!("E15: sharded streaming summary diverged from the buffered campaign");
        std::process::exit(1);
    }
    if report.soundness_violations > 0 {
        eprintln!(
            "E15: {} soundness violations recorded",
            report.soundness_violations
        );
        std::process::exit(1);
    }
}
