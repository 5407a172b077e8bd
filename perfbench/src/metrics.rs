//! Metric definitions, the printed report, the provenance record and the
//! result line.

use crate::admission_load::{AdmissionProfile, AdmissionRun, Kind};
use crate::campaign_load::{CampaignProfile, CampaignRun, Shape, Traced};
use crate::replay::Stage;
use crate::stats::{describe_ms, fnv1a, median, percentile_bp, Tally, FNV_BASIS};
use std::fmt::Write as _;
use std::path::Path;

/// Named metrics with units, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Appends another set.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, value, _)| value.is_finite())
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value
    /// prints as 0 and makes the run incorrect (see [`result_line`]).
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<56} {value:>16.6} {unit}");
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB; `NaN` where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(ops_per_s: f64, setup_s: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    m.put("ops_per_s", ops_per_s, "1/s");
    m.put("setup_s", median(setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// End-to-end metrics of a campaign run: an op is a scenario.
pub fn campaign_end_to_end(run: &CampaignRun) -> Metrics {
    end_to_end(median(&run.rates), &run.setup_s)
}

/// End-to-end metrics of a churn run: an op is an answered request.
pub fn admission_end_to_end(run: &AdmissionRun) -> Metrics {
    end_to_end(run.rate(), &run.setup_s)
}

fn print_tally(tally: &Tally) {
    println!(
        "  failed_frac {} ({} of {} failed){}",
        tally.failed_frac(),
        tally.failed(),
        tally.attempted(),
        if tally.failed_checks().is_empty() {
            String::new()
        } else {
            format!(" — failed checks: {}", tally.failed_checks().join(", "))
        }
    );
}

/// Prints a campaign run.
pub fn print_campaign_run(shape: &Shape, run: &CampaignRun, metrics: &Metrics) {
    println!(
        "  {} repeats of {} scenarios ({} shards) | scenarios/s per repeat: {:?} | fingerprint {}",
        run.rates.len(),
        shape.scenarios,
        shape.shards,
        run.rates,
        run.fingerprints
            .first()
            .map_or("none".to_string(), |fp| format!("{fp:#018x}"))
    );
    println!(
        "  setup: scenario-list generation, median of {} samples",
        run.setup_s.len()
    );
    metrics.print();
    print_tally(&run.tally);
}

/// Prints a churn run.
pub fn print_admission_run(run: &AdmissionRun, metrics: &Metrics) {
    println!(
        "  {} passes of {} traces of {} requests | decisions/s per pass: {:?} | flows at the end of each trace: {:?}",
        run.busy_s.len(),
        crate::admission_load::TRACES,
        crate::admission_load::REQUESTS,
        run.pass_rates(),
        run.final_flows
    );
    println!(
        "  decision time inside serve: {}",
        describe_ms(&run.decision_ms())
    );
    println!(
        "  setup: AdmissionEngine::new cold start, median of {} samples",
        run.setup_s.len()
    );
    metrics.print();
    print_tally(&run.tally);
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    sum / n as f64
}

fn ms(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Per-layer metrics of a campaign profile, prefixed with the workload.
pub fn campaign_per_layer(shape: &Shape, profile: &CampaignProfile, nproc: usize) -> Metrics {
    let w = shape.name;
    let traced = &profile.traced;
    let mut m = Metrics::default();
    for &stage in shape.stages {
        m.put(
            format!("{w}.{}_ms", stage.name()),
            mean(traced.iter().map(|t| ms(t.trace.time(stage)))),
            "ms",
        );
    }
    if shape.stages.contains(&Stage::StaircaseAnalysis) {
        let mut calls: Vec<f64> = traced
            .iter()
            .map(|t| ms(t.trace.time(Stage::StaircaseAnalysis)))
            .collect();
        calls.sort_by(f64::total_cmp);
        m.put(
            format!("{w}.core.staircase_analysis_ms.{TAIL_NAME}"),
            percentile_bp(&calls, TAIL_BP),
            "ms",
        );
    }
    let frames: u64 = traced.iter().map(|t| t.trace.frames).sum();
    let sim_ns: f64 = traced
        .iter()
        .map(|t| (t.trace.time(Stage::Sim) + t.trace.time(Stage::FaultySim)).as_secs_f64() * 1e9)
        .sum();
    m.put(
        format!("{w}.netsim.frames"),
        frames as f64 / traced.len() as f64,
        "count",
    );
    m.put(
        format!("{w}.netsim.ns_per_frame"),
        sim_ns / frames as f64,
        "ns",
    );
    let mut totals: Vec<f64> = traced.iter().map(|t| ms(t.trace.total)).collect();
    totals.sort_by(f64::total_cmp);
    m.put(
        format!("{w}.campaign.scenario_ms.p50"),
        percentile_bp(&totals, 5_000),
        "ms",
    );
    m.put(
        format!("{w}.campaign.scenario_ms.{TAIL_NAME}"),
        percentile_bp(&totals, TAIL_BP),
        "ms",
    );
    m.put(
        format!("{w}.campaign.single_thread_per_s"),
        profile.single_rate(),
        "1/s",
    );
    m.put(
        format!("{w}.campaign.parallel_efficiency"),
        profile.parallel_rate / (nproc as f64 * profile.single_rate()),
        "ratio",
    );
    m.put(
        format!("{w}.trace.overhead"),
        profile.replayed.as_secs_f64() / profile.untraced.as_secs_f64(),
        "ratio",
    );
    m
}

/// The tail percentile the per-layer scenario and staircase timings
/// report: the profiles replay at least [`crate::campaign_load::MIN_PROFILED`]
/// scenarios, which leaves ten beyond it.
const TAIL_BP: u64 = 9_900;
const TAIL_NAME: &str = "p99";

fn replay_command(shape: &Shape, seed: u64, id: usize) -> String {
    format!(
        "cargo run --release --manifest-path perfbench/Cargo.toml -- --workload {} --seed {seed} --replay {id}",
        shape.name
    )
}

fn print_stage_table(stages: &[Stage], traced: &[Traced]) {
    let replay_ms: f64 = traced.iter().map(|t| ms(t.trace.total)).sum();
    println!(
        "  {:<26} {:>8} {:>12} {:>14} {:>8}",
        "stage", "calls", "busy ms", "ms/scenario", "share"
    );
    let mut covered = 0.0;
    for &stage in stages {
        let busy: f64 = traced.iter().map(|t| ms(t.trace.time(stage))).sum();
        let calls: u64 = traced.iter().map(|t| u64::from(t.trace.calls(stage))).sum();
        covered += busy;
        println!(
            "  {:<26} {:>8} {:>12.1} {:>14.4} {:>7.1}%",
            stage.name(),
            calls,
            busy,
            busy / traced.len() as f64,
            100.0 * busy / replay_ms
        );
    }
    println!(
        "  {:<26} {:>8} {:>12.1} {:>14.4} {:>7.1}%",
        "outside the spans",
        "",
        replay_ms - covered,
        (replay_ms - covered) / traced.len() as f64,
        100.0 * (replay_ms - covered) / replay_ms
    );
}

/// Prints a campaign profile: stage table, slowest scenarios, metrics.
pub fn print_campaign_profile(
    shape: &Shape,
    seed: u64,
    profile: &CampaignProfile,
    metrics: &Metrics,
) {
    println!(
        "\n{}: {} scenarios replayed single-threaded with spans; untraced {:.1} scenarios/s, \
         sharded campaign over the same ids {:.1} scenarios/s",
        shape.name,
        profile.traced.len(),
        profile.single_rate(),
        profile.parallel_rate
    );
    print_stage_table(shape.stages, &profile.traced);
    let mut slowest: Vec<&Traced> = profile.traced.iter().collect();
    slowest.sort_by_key(|t| std::cmp::Reverse(t.trace.total));
    println!("  slowest scenarios:");
    for t in slowest.iter().take(10) {
        println!(
            "    id {:>5} seed {:#018x} {:>9.3} ms, mostly {:<24} replay: {}",
            t.id,
            t.seed,
            ms(t.trace.total),
            t.trace.dominant().name(),
            replay_command(shape, seed, t.id)
        );
    }
    metrics.print();
    print_tally(&profile.tally);
}

/// Prints one replayed scenario and returns its stage timings.
pub fn print_replay(shape: &Shape, traced: &Traced) -> Metrics {
    println!(
        "{} scenario {} (seed {:#018x}): {:.3} ms, mostly {}",
        shape.name,
        traced.id,
        traced.seed,
        ms(traced.trace.total),
        traced.trace.dominant().name()
    );
    print_stage_table(shape.stages, std::slice::from_ref(traced));
    let mut m = Metrics::default();
    for &stage in shape.stages {
        m.put(
            format!("{}_ms", stage.name()),
            ms(traced.trace.time(stage)),
            "ms",
        );
    }
    m.put("scenario_ms", ms(traced.trace.total), "ms");
    m
}

/// Per-layer metrics of the churn profile, prefixed with the workload.
pub fn admission_per_layer(profile: &AdmissionProfile) -> Metrics {
    let w = "admission_churn";
    let mut m = Metrics::default();
    let sorted = |kind: Option<Kind>| {
        let mut v: Vec<f64> = profile
            .answers
            .iter()
            .filter(|(k, _)| kind.is_none_or(|kind| *k == kind))
            .map(|&(_, ms)| ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = sorted(None);
    m.put(
        format!("{w}.admission.decision_ms.p50"),
        percentile_bp(&all, 5_000),
        "ms",
    );
    m.put(
        format!("{w}.admission.decision_ms.p99"),
        percentile_bp(&all, 9_900),
        "ms",
    );
    for (kind, name) in [
        (Kind::Admit, "admit"),
        (Kind::Revoke, "revoke"),
        (Kind::Modify, "modify"),
    ] {
        m.put(
            format!("{w}.admission.{name}_ms.p50"),
            percentile_bp(&sorted(Some(kind)), 5_000),
            "ms",
        );
    }
    let as_f64 = |v: &[usize]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    m.put(
        format!("{w}.admission.ports_recomputed"),
        mean(as_f64(&profile.ports_recomputed)),
        "count",
    );
    m.put(
        format!("{w}.admission.flows_recomputed"),
        mean(as_f64(&profile.flows_recomputed)),
        "count",
    );
    let reused: usize = profile.ports_reused.iter().sum();
    let recomputed: usize = profile.ports_recomputed.iter().sum();
    m.put(
        format!("{w}.admission.port_hit_rate"),
        reused as f64 / (reused + recomputed) as f64,
        "ratio",
    );
    m.put(
        format!("{w}.admission.response_bytes"),
        mean(as_f64(&profile.response_bytes)),
        "B",
    );
    m.put(
        format!("{w}.core.scratch_analysis_ms"),
        median(&profile.scratch_ms),
        "ms",
    );
    m
}

/// Prints the churn profile.
pub fn print_admission_profile(profile: &AdmissionProfile, metrics: &Metrics) {
    let all: Vec<f64> = profile.answers.iter().map(|&(_, ms)| ms).collect();
    println!(
        "\nadmission_churn: {} requests through serve, flows at the end of each trace {:?}; decision time {}",
        profile.answers.len(),
        profile.final_flows,
        describe_ms(&all)
    );
    metrics.print();
    print_tally(&profile.tally);
}

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The source revision: git `HEAD` when the checkout is a repository.
fn git_rev() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, refname) = line.split_once(' ')?;
        (refname == name).then(|| rev.to_string())
    })
}

/// FNV-1a over the relative paths and contents of the sources the
/// benchmark builds, so records taken from a checkout without `.git`
/// still name the code they measured.
fn source_digest() -> u64 {
    fn walk(root: &Path, dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
            return;
        };
        for entry in entries.flatten() {
            let path = dir.join(entry.file_name());
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                if entry.file_name() != "target" {
                    walk(root, &path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files: Vec<std::path::PathBuf> = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
        .into_iter()
        .map(Into::into)
        .collect();
    for dir in ["crates", "src", "shims", "perfbench/src"] {
        walk(root, Path::new(dir), &mut files);
    }
    files.sort();
    files.into_iter().fold(FNV_BASIS, |hash, file| {
        let hash = fnv1a(hash, file.to_string_lossy().as_bytes());
        fnv1a(hash, &std::fs::read(root.join(&file)).unwrap_or_default())
    })
}

/// The provenance record: one JSON object on one line.
pub fn record(
    workload: &str,
    seed: u64,
    trace: bool,
    nproc: usize,
    shape: &str,
    tally: &Tally,
    metrics: &Metrics,
) -> String {
    let checks: Vec<String> = tally
        .failed_checks()
        .iter()
        .map(|c| format!("\"{c}\""))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rev\": \"{}\", \"source_fnv\": \"{:#018x}\", \"shape\": {shape}, \
         \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"failed_checks\": [{}], \
         \"metrics\": {}}}}}",
        u8::from(trace),
        git_rev().unwrap_or_else(|| "unknown".to_string()),
        source_digest(),
        tally.attempted(),
        tally.failed(),
        tally.failed_frac(),
        checks.join(", "),
        metrics.json()
    )
}

/// The result line the driver reads.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct() && metrics.all_finite(),
        tally.attempted().max(1),
        tally.failed(),
        metrics.json()
    )
}

/// The result lines of several workloads folded into one.
#[derive(Debug, Default)]
pub struct Combined {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: String,
    seen: usize,
}

impl Combined {
    /// Folds in one workload's result line; `false` when it does not parse.
    pub fn add(&mut self, workload: &str, line: Option<&str>) -> bool {
        let Some(value) = line.and_then(|l| serde_json::parse_value(l).ok()) else {
            return false;
        };
        let (
            Ok(serde::Value::Bool(correct)),
            Ok(serde::Value::UInt(attempted)),
            Ok(serde::Value::UInt(failed)),
            Ok(serde::Value::Object(metrics)),
        ) = (
            value.field("correct"),
            value.field("attempted"),
            value.field("failed"),
            value.field("metrics"),
        )
        else {
            return false;
        };
        self.correct = (self.seen == 0 || self.correct) && *correct;
        self.attempted += attempted;
        self.failed += failed;
        for (name, metric) in metrics {
            let (Ok(value), Ok(serde::Value::String(unit))) =
                (metric.field("value"), metric.field("unit"))
            else {
                return false;
            };
            let value = match value {
                serde::Value::Float(v) => *v,
                serde::Value::UInt(v) => *v as f64,
                serde::Value::Int(v) => *v as f64,
                _ => return false,
            };
            if !self.metrics.is_empty() {
                self.metrics.push_str(", ");
            }
            let _ = write!(
                self.metrics,
                "\"{workload}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        self.seen += 1;
        true
    }

    /// The combined result line.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.seen > 0,
            self.attempted.max(1),
            self.failed,
            self.metrics
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign_load::{SWEEP, TB_FAULTS};

    /// `(name, unit)` of every entry of one `BENCHMARK.json` metric list.
    fn declared(spec: &serde::Value, list: &str) -> Vec<(String, String)> {
        let Ok(serde::Value::Array(entries)) = spec.field(list) else {
            panic!("BENCHMARK.json has no {list} list");
        };
        entries
            .iter()
            .map(|entry| match (entry.field("name"), entry.field("unit")) {
                (Ok(serde::Value::String(name)), Ok(serde::Value::String(unit))) => {
                    (name.clone(), unit.clone())
                }
                _ => panic!("malformed {list} entry"),
            })
            .collect()
    }

    fn printed(metrics: &Metrics) -> Vec<(String, String)> {
        metrics
            .0
            .iter()
            .map(|(name, _, unit)| (name.clone(), unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_runs_print() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
        let spec = serde_json::parse_value(&text).expect("BENCHMARK.json parses");

        assert_eq!(
            declared(&spec, "end_to_end"),
            printed(&end_to_end(1.0, &[1.0]))
        );

        let mut per_layer = campaign_per_layer(&SWEEP, &CampaignProfile::default(), 1);
        per_layer.extend(campaign_per_layer(
            &TB_FAULTS,
            &CampaignProfile::default(),
            1,
        ));
        per_layer.extend(admission_per_layer(&AdmissionProfile::default()));
        assert_eq!(declared(&spec, "per_layer"), printed(&per_layer));
    }

    #[test]
    fn result_line_marks_runs_with_unmeasured_metrics_incorrect() {
        let mut tally = Tally::default();
        tally.add(10, 0);
        let mut metrics = Metrics::default();
        metrics.put("ops_per_s", 12.5, "1/s");
        assert_eq!(
            result_line(&tally, &metrics),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": 12.5, "unit": "1/s"}}}"#
        );
        metrics.put("setup_s", f64::NAN, "s");
        assert!(result_line(&tally, &metrics).starts_with(r#"{"correct": false"#));
    }
}
