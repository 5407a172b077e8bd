//! The admission churn workload: E13's network and seeded trace, analysed
//! under the staircase model, driven through `admission::serve` by one
//! closed-loop client that sends each request as one NDJSON line and
//! waits for the response before sending the next.

use crate::stats::{fnv1a, median, Tally, FNV_BASIS};
use admission::{
    resolve, serve, trace_ops, AdmissionEngine, AdmissionQuery, ServeRequest, ServeResponse,
    TraceOp,
};
use ethernet::Fabric;
use netcalc::EnvelopeModel;
use rtswitch_core::{analyze_multi_hop_with, Approach, NetworkConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use units::{DataRate, DataSize};
use workload::{Arrival, StationId, Workload};

/// Stations on E13's single switch.
pub const STATIONS: usize = 128;

/// Requests in one trace.  Cost per decision grows with the flow count,
/// so the trace length defines the workload.
pub const REQUESTS: usize = 1_024;

/// Independently seeded traces per pass.  How fast the engine answers
/// depends on the trace, so a pass averages over several.
pub const TRACES: usize = 8;

/// Passes per run at least: a per-request median over three passes drops
/// one disturbed pass.
const MIN_PASSES: usize = 3;

/// The engine's policy arm and envelope model.
const APPROACH: Approach = Approach::StrictPriority;
const MODEL: EnvelopeModel = EnvelopeModel::Staircase;

/// E13's network: 128 stations on one switch at 100 Mbps under strict
/// priority, pre-loaded with a ring of 64 B flows every 40 ms.
pub struct Network {
    workload: Workload,
    fabric: Fabric,
    config: NetworkConfig,
}

impl Network {
    /// Builds the network.
    pub fn e13() -> Self {
        let mut workload = Workload::new();
        for i in 0..STATIONS {
            workload.add_station(format!("es-{i}"));
        }
        for i in 0..STATIONS {
            workload.add_message(
                format!("seed-{i}"),
                StationId(i),
                StationId((i + 1) % STATIONS),
                DataSize::from_bytes(64),
                Arrival::Periodic {
                    period: units::Duration::from_millis(40),
                },
                units::Duration::from_millis(40),
            );
        }
        Network {
            fabric: Fabric::single_switch(STATIONS),
            config: NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(100)),
            workload,
        }
    }

    /// The `AdmissionEngine::new` cold start.
    pub fn cold_start(&self) -> AdmissionEngine {
        AdmissionEngine::new(&self.workload, &self.fabric, &self.config, APPROACH, MODEL)
            .expect("the E13 seed network is analysable")
    }

    /// Serializes `engine`'s bounds and a from-scratch analysis of its flow
    /// set, timing the latter.
    fn scratch_check(&self, engine: &AdmissionEngine) -> (bool, Duration) {
        let workload = engine.workload();
        let started = Instant::now();
        let scratch =
            analyze_multi_hop_with(&workload, &self.config, APPROACH, &self.fabric, MODEL);
        let elapsed = started.elapsed();
        let equal = scratch.is_ok_and(|scratch| {
            serde_json::to_string(&engine.snapshot().report).expect("reports serialize")
                == serde_json::to_string(&scratch).expect("reports serialize")
        });
        (equal, elapsed)
    }
}

/// The run shape as a JSON object, for the provenance record.
pub fn describe() -> String {
    format!(
        "{{\"stations\": {STATIONS}, \"requests\": {REQUESTS}, \"policy\": \"{APPROACH:?}\", \
         \"envelope\": \"{MODEL:?}\", \"client\": \"closed loop, 1 request in flight\"}}"
    )
}

/// The kind of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Admit`.
    Admit,
    /// `Revoke`.
    Revoke,
    /// `Modify`.
    Modify,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// What was asked.
    pub kind: Kind,
    /// Time inside `serve`.
    pub elapsed: Duration,
    /// The response line, newline stripped; `None` when `serve` failed.
    pub response: Option<String>,
}

/// Sends `ops` through `serve` on `engine`, one request line at a time,
/// and hands each answer to `on_answer`.  Returns `false` when a request
/// panicked.
fn replay_trace(
    engine: &mut AdmissionEngine,
    ops: &[TraceOp],
    mut on_answer: impl FnMut(Answer),
) -> bool {
    for op in ops {
        let (kind, request) = match resolve(op, engine.active_flows()) {
            AdmissionQuery::Admit { flow } => (Kind::Admit, ServeRequest::Admit { flow }),
            AdmissionQuery::Revoke { flow } => (Kind::Revoke, ServeRequest::Revoke { flow }),
            AdmissionQuery::Modify { flow, spec } => {
                (Kind::Modify, ServeRequest::Modify { flow, spec })
            }
        };
        let line = serde_json::to_string(&request).expect("requests serialize") + "\n";
        let mut output = Vec::new();
        let started = Instant::now();
        let Ok(served) = catch_unwind(AssertUnwindSafe(|| {
            serve(engine, line.as_bytes(), &mut output)
        })) else {
            return false;
        };
        let elapsed = started.elapsed();
        let response = match served {
            Ok(1) => String::from_utf8(output)
                .ok()
                .map(|text| text.trim_end().to_string()),
            _ => None,
        };
        on_answer(Answer {
            kind,
            elapsed,
            response,
        });
    }
    true
}

/// Parses a response line; `None` for a failed or `Error` response.
pub fn parse_answer(answer: &Answer) -> Option<ServeResponse> {
    let response = serde_json::from_str(answer.response.as_deref()?).ok()?;
    match response {
        ServeResponse::Error { .. } => None,
        ok => Some(ok),
    }
}

/// One end-to-end run of the churn workload.
#[derive(Debug, Default)]
pub struct AdmissionRun {
    /// `AdmissionEngine::new` cold-start times, seconds: one per replayed
    /// trace.
    pub setup_s: Vec<f64>,
    /// Time inside `serve` per pass (outer) and request (inner, the
    /// traces one after another), seconds.
    pub busy_s: Vec<Vec<f64>>,
    /// Active flows when each trace of the first pass ends.
    pub final_flows: Vec<usize>,
    /// Requests attempted and failed, and the run-level checks.
    pub tally: Tally,
}

impl AdmissionRun {
    /// Requests answered per second inside `serve`: each request's median
    /// time over the passes, summed over the requests.  Every pass
    /// answers the same requests from the same states, so a burst of
    /// interference during one pass drops out of the median.
    pub fn rate(&self) -> f64 {
        let requests = self.busy_s.first().map_or(0, Vec::len);
        let busy: f64 = (0..requests)
            .map(|i| {
                let times: Vec<f64> = self
                    .busy_s
                    .iter()
                    .filter_map(|pass| pass.get(i).copied())
                    .collect();
                median(&times)
            })
            .sum();
        requests as f64 / busy
    }

    /// Requests answered per second inside `serve`, per pass.
    pub fn pass_rates(&self) -> Vec<f64> {
        self.busy_s
            .iter()
            .map(|pass| pass.len() as f64 / pass.iter().sum::<f64>())
            .collect()
    }

    /// Time inside `serve` per request, milliseconds, all passes.
    pub fn decision_ms(&self) -> Vec<f64> {
        self.busy_s.iter().flatten().map(|s| s * 1e3).collect()
    }
}

/// The seed of trace `k` of a run at `seed`: distinct for every
/// `(seed, k)` with `k < TRACES`.
fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(TRACES as u64).wrapping_add(k as u64)
}

/// The run's traces.
fn traces(seed: u64) -> Vec<Vec<TraceOp>> {
    (0..TRACES)
        .map(|k| trace_ops(trace_seed(seed, k), REQUESTS, STATIONS))
        .collect()
}

/// Times a cold start into `setup_s` and returns the engine.
fn timed_cold_start(network: &Network, setup_s: &mut Vec<f64>) -> AdmissionEngine {
    let started = Instant::now();
    let engine = network.cold_start();
    setup_s.push(started.elapsed().as_secs_f64());
    engine
}

/// Replays the run's [`TRACES`] traces, each on a freshly cold-started
/// engine, in passes until `seconds` are used (at least
/// [`MIN_PASSES`]), checking after the first pass that every final state
/// equals a from-scratch analysis.  Then replays the first trace once
/// more: every replay of a trace must answer byte for byte the same.
pub fn run(seed: u64, seconds: f64) -> AdmissionRun {
    let network = Network::e13();
    let traces = traces(seed);
    let mut run = AdmissionRun::default();
    // FNV-1a digests of each trace's response stream, per pass.
    let mut passes: Vec<Vec<u64>> = Vec::new();
    let started = Instant::now();
    'passes: loop {
        let pass = Instant::now();
        let mut busy_s = Vec::with_capacity(TRACES * REQUESTS);
        let mut digests = Vec::new();
        for ops in &traces {
            let mut engine = timed_cold_start(&network, &mut run.setup_s);
            let mut failed = 0u64;
            let mut digest = FNV_BASIS;
            let answered = replay_trace(&mut engine, ops, |answer| {
                busy_s.push(answer.elapsed.as_secs_f64());
                failed += u64::from(parse_answer(&answer).is_none());
                digest = fnv1a(digest, answer.response.as_deref().unwrap_or("").as_bytes());
            });
            if !answered {
                run.tally.add(REQUESTS as u64, REQUESTS as u64);
                break 'passes;
            }
            run.tally.add(REQUESTS as u64, failed);
            if passes.is_empty() {
                run.final_flows.push(engine.active_flows().len());
                let (equal, _) = network.scratch_check(&engine);
                run.tally
                    .check("snapshot equals a from-scratch analysis", equal);
            }
            digests.push(digest);
        }
        let secs = pass.elapsed().as_secs_f64();
        run.busy_s.push(busy_s);
        passes.push(digests);
        if passes.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + secs > seconds {
            break;
        }
    }
    let mut engine = timed_cold_start(&network, &mut run.setup_s);
    let mut again = FNV_BASIS;
    let replayed = replay_trace(&mut engine, &traces[0], |answer| {
        again = fnv1a(again, answer.response.as_deref().unwrap_or("").as_bytes());
    });
    run.tally.check(
        "responses identical across replays",
        replayed
            && passes.len() >= MIN_PASSES
            && passes.iter().all(|digests| digests == &passes[0])
            && passes[0].first() == Some(&again),
    );
    run
}

/// The per-layer profile of the churn workload.
#[derive(Debug, Default)]
pub struct AdmissionProfile {
    /// Every answered request with its time inside `serve`.
    pub answers: Vec<(Kind, f64)>,
    /// Ports recomputed per decision.
    pub ports_recomputed: Vec<usize>,
    /// Ports reused per decision.
    pub ports_reused: Vec<usize>,
    /// Flows recomposed per decision.
    pub flows_recomputed: Vec<usize>,
    /// Response line lengths, bytes.
    pub response_bytes: Vec<usize>,
    /// From-scratch analysis of each trace's final flow set, milliseconds.
    pub scratch_ms: Vec<f64>,
    /// Active flows when each trace ends.
    pub final_flows: Vec<usize>,
    /// Requests attempted and failed, and the snapshot checks.
    pub tally: Tally,
}

/// Replays the run's traces in order until `budget` seconds are used (at
/// least one), reading the `cache` section of every verdict, and times a
/// from-scratch analysis of each trace's final flow set.
pub fn profile(seed: u64, budget: f64) -> AdmissionProfile {
    let network = Network::e13();
    let mut profile = AdmissionProfile::default();
    let started = Instant::now();
    for ops in traces(seed) {
        if !profile.final_flows.is_empty() && started.elapsed().as_secs_f64() >= budget {
            break;
        }
        let mut failed = 0u64;
        let mut engine = network.cold_start();
        let answered = replay_trace(&mut engine, &ops, |answer| {
            profile
                .answers
                .push((answer.kind, answer.elapsed.as_secs_f64() * 1e3));
            profile
                .response_bytes
                .push(answer.response.as_ref().map_or(0, String::len));
            match parse_answer(&answer) {
                Some(ServeResponse::Verdict(verdict)) => {
                    profile
                        .ports_recomputed
                        .push(verdict.cache.ports_recomputed);
                    profile.ports_reused.push(verdict.cache.ports_reused);
                    profile
                        .flows_recomputed
                        .push(verdict.cache.flows_recomputed);
                }
                _ => failed += 1,
            }
        });
        if !answered {
            profile.tally.add(REQUESTS as u64, REQUESTS as u64);
            break;
        }
        profile.tally.add(REQUESTS as u64, failed);
        profile.final_flows.push(engine.active_flows().len());
        let (equal, elapsed) = network.scratch_check(&engine);
        profile
            .tally
            .check("snapshot equals a from-scratch analysis", equal);
        profile.scratch_ms.push(elapsed.as_secs_f64() * 1e3);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_trace_is_answered_and_matches_a_from_scratch_analysis() {
        let network = Network::e13();
        let ops = trace_ops(42, 24, STATIONS);
        let mut answers = Vec::new();
        let mut engine = network.cold_start();
        assert!(replay_trace(&mut engine, &ops, |answer| answers.push(answer)));
        assert_eq!(answers.len(), 24);
        assert!(answers.iter().all(|a| parse_answer(a).is_some()));
        assert!(answers.iter().any(|a| a.kind == Kind::Admit));
        assert!(network.scratch_check(&engine).0);
    }

    #[test]
    fn a_disturbed_pass_drops_out_of_the_rate() {
        let run = AdmissionRun {
            busy_s: vec![vec![0.001, 0.002], vec![0.009, 0.002], vec![0.001, 0.002]],
            ..AdmissionRun::default()
        };
        assert!((run.rate() - 2.0 / 0.003).abs() < 1e-6);
        assert_eq!(run.decision_ms().len(), 6);
    }

    #[test]
    fn an_error_response_counts_as_failed() {
        let answer = Answer {
            kind: Kind::Admit,
            elapsed: Duration::ZERO,
            response: Some(r#"{"Error":{"message":"bad request"}}"#.to_string()),
        };
        assert!(parse_answer(&answer).is_none());
        let lost = Answer {
            response: None,
            ..answer
        };
        assert!(parse_answer(&lost).is_none());
    }
}
