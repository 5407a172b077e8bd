//! E17 — the sorted-merge min-plus kernels: ns/op old-vs-new per operator
//! at campaign-typical breakpoint counts, breakpoint growth along a
//! multi-hop chain with and without horizon truncation, and the end-to-end
//! sharded campaign throughput.
//!
//! `--baseline BENCH_campaign.json` arms the perf gate: the measured
//! campaign scenarios/sec must stay within 20% of the recorded figure
//! (the `e17.campaign_scenarios_per_sec` key, falling back to the E16 and
//! then the E15 figures for repositories that predate E17).

use bench::{minplus_kernels, render_minplus_kernels, MinplusKernelsConfig};
use rtswitch_core::report::to_json;

/// The recorded campaign throughput to gate against: prefers the E17 key,
/// then E16, then the E15 streaming figure (nested or legacy flat layout).
fn baseline_scenarios_per_sec(text: &str) -> Option<f64> {
    let value: serde::Value = serde_json::from_str(text).ok()?;
    let number = |v: &serde::Value, key: &str| -> Option<f64> {
        v.field(key)
            .ok()
            .and_then(|f| <f64 as serde::Deserialize>::from_value(f).ok())
    };
    for (section, key) in [
        ("e17", "campaign_scenarios_per_sec"),
        ("e16", "campaign_scenarios_per_sec"),
        ("e15", "scenarios_per_sec"),
    ] {
        if let Ok(nested) = value.field(section) {
            if let Some(rate) = number(nested, key) {
                return Some(rate);
            }
        }
    }
    number(&value, "scenarios_per_sec")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|pos| args.get(pos + 1))
            .cloned()
    };
    let iterations: usize = flag("--iterations")
        .map(|s| s.parse().expect("--iterations expects a count"))
        .unwrap_or(300);
    let flows: usize = flag("--flows")
        .map(|s| s.parse().expect("--flows expects a count"))
        .unwrap_or(24);
    let chain_hops: usize = flag("--chain-hops")
        .map(|s| s.parse().expect("--chain-hops expects a count"))
        .unwrap_or(5);
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

    let report = minplus_kernels(MinplusKernelsConfig {
        iterations,
        flows,
        chain_hops,
        scenarios,
        shards,
        threads,
        seed,
    });
    print!("{}", render_minplus_kernels(&report));

    if let Some(path) = flag("--json") {
        std::fs::write(&path, to_json(&report).expect("report serializes")).expect("write JSON");
        eprintln!("wrote {path}");
    }
    if report.kernel_mismatches > 0 {
        eprintln!(
            "E17: {} kernel(s) disagree with the reference implementation",
            report.kernel_mismatches
        );
        std::process::exit(1);
    }
    if report.soundness_violations > 0 {
        eprintln!(
            "E17: {} soundness violations recorded",
            report.soundness_violations
        );
        std::process::exit(1);
    }
    if let Some(path) = flag("--baseline") {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
        match baseline_scenarios_per_sec(&text) {
            Some(baseline) => {
                let floor = baseline * 0.8;
                if report.campaign_scenarios_per_sec < floor {
                    eprintln!(
                        "E17: campaign throughput {:.1} scenarios/sec regressed more than 20% \
                         below the recorded baseline {:.1} (floor {:.1})",
                        report.campaign_scenarios_per_sec, baseline, floor
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "E17 perf gate: {:.1} scenarios/sec >= floor {:.1} (baseline {:.1})",
                    report.campaign_scenarios_per_sec, floor, baseline
                );
            }
            None => eprintln!("E17 perf gate: no recorded throughput in {path}; gate skipped"),
        }
    }
}
