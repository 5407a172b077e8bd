//! The cache-soundness invariant: after *every* mutation, the incremental
//! engine's bounds are byte-identical (as JSON) to a from-scratch
//! [`analyze_multi_hop_with`] of the current flow set — across all three
//! policy arms and both envelope models — and batched evaluation matches
//! sequential evaluation verdict for verdict.

use admission::{resolve, trace_ops, AdmissionEngine, AdmissionQuery, FailoverPlan, FlowSpec};
use ethernet::{Fabric, WrrUnit, WrrWeights};
use netcalc::EnvelopeModel;
use rtswitch_core::{analyze_multi_hop_with, report::to_json, Approach, NetworkConfig};
use units::{DataSize, Duration};
use workload::case_study::{case_study_with, CaseStudyConfig};
use workload::{Arrival, Workload};

fn base_workload() -> Workload {
    case_study_with(CaseStudyConfig {
        subsystems: 3,
        with_command_traffic: false,
    })
}

fn arms() -> Vec<Approach> {
    vec![
        Approach::Fcfs,
        Approach::StrictPriority,
        Approach::Wrr {
            weights: WrrWeights::new(&[4, 2, 1, 1], WrrUnit::Frames),
        },
    ]
}

/// The invariant itself: snapshot == from-scratch, byte for byte.
fn assert_matches_scratch(engine: &AdmissionEngine, context: &str) {
    let scratch = analyze_multi_hop_with(
        &engine.workload(),
        engine.config(),
        engine.approach(),
        engine.fabric(),
        engine.model(),
    )
    .expect("active flow set is analysable");
    assert_eq!(
        to_json(&engine.snapshot().report).unwrap(),
        to_json(&scratch).unwrap(),
        "incremental state diverged from scratch after {context}"
    );
}

#[test]
fn incremental_equals_scratch_after_every_mutation() {
    let workload = base_workload();
    // Two cascaded switches so flows have multi-hop paths and the dirty
    // closure is a strict subset of the fabric on most mutations.
    let fabric = Fabric::line(2, workload.stations.len());
    let config = NetworkConfig::paper_default();
    for approach in arms() {
        for model in [EnvelopeModel::TokenBucket, EnvelopeModel::Staircase] {
            let mut engine = AdmissionEngine::new(&workload, &fabric, &config, approach, model)
                .expect("seed workload is analysable");
            assert_matches_scratch(&engine, &format!("cold start ({approach} / {model:?})"));
            let ops = trace_ops(7, 12, engine.station_count());
            for (step, op) in ops.iter().enumerate() {
                let query = resolve(op, engine.active_flows());
                match query {
                    AdmissionQuery::Admit { flow } => {
                        engine.admit(flow);
                    }
                    AdmissionQuery::Revoke { flow } => {
                        engine.revoke(flow);
                    }
                    AdmissionQuery::Modify { flow, spec } => {
                        engine.modify(flow, spec);
                    }
                }
                assert_matches_scratch(
                    &engine,
                    &format!("step {step} ({approach} / {model:?}: {op:?})"),
                );
            }
            // The cache must have earned its keep along the way.
            assert!(engine.stats().ports_reused > 0, "no cache reuse at all");
        }
    }
}

#[test]
fn batch_evaluation_matches_sequential() {
    let workload = base_workload();
    let fabric = Fabric::line(2, workload.stations.len());
    let config = NetworkConfig::paper_default();
    let engine = AdmissionEngine::new(
        &workload,
        &fabric,
        &config,
        Approach::StrictPriority,
        EnvelopeModel::TokenBucket,
    )
    .unwrap();

    // One fixed query list, resolved once against the starting state.
    let queries: Vec<AdmissionQuery> = trace_ops(11, 24, engine.station_count())
        .iter()
        .map(|op| resolve(op, engine.active_flows()))
        .collect();

    let mut sequential = engine.clone();
    let seq_verdicts: Vec<_> = queries
        .iter()
        .map(|q| match q.clone() {
            AdmissionQuery::Admit { flow } => sequential.admit(flow),
            AdmissionQuery::Revoke { flow } => sequential.revoke(flow),
            AdmissionQuery::Modify { flow, spec } => sequential.modify(flow, spec),
        })
        .collect();

    let mut batched = engine.clone();
    let outcome = batched.evaluate_batch(&queries, 4);

    assert_eq!(outcome.verdicts.len(), seq_verdicts.len());
    assert_eq!(
        outcome.groups.iter().sum::<usize>(),
        queries.len(),
        "groups partition the query list"
    );
    for (i, (batch_v, seq_v)) in outcome.verdicts.iter().zip(&seq_verdicts).enumerate() {
        assert_eq!(
            to_json(batch_v).unwrap(),
            to_json(seq_v).unwrap(),
            "verdict {i} diverged between batch and sequential evaluation"
        );
    }
    assert_eq!(
        to_json(&batched.snapshot()).unwrap(),
        to_json(&sequential.snapshot()).unwrap(),
        "final state diverged between batch and sequential evaluation"
    );
    assert_matches_scratch(&batched, "batched trace");
}

#[test]
fn admit_then_revoke_restores_bounds() {
    let workload = base_workload();
    let fabric = Fabric::single_switch(workload.stations.len());
    let config = NetworkConfig::paper_default();
    let mut engine = AdmissionEngine::new(
        &workload,
        &fabric,
        &config,
        Approach::StrictPriority,
        EnvelopeModel::TokenBucket,
    )
    .unwrap();
    let before = to_json(&engine.snapshot().report).unwrap();

    let spec = match resolve(
        &trace_ops(3, 1, engine.station_count())[0],
        engine.active_flows(),
    ) {
        AdmissionQuery::Admit { flow } => flow,
        other => panic!("trace seed 3 starts with an admit, got {other:?}"),
    };
    let verdict = engine.admit(spec);
    assert!(verdict.accepted(), "{:?}", verdict.decision);
    let id = verdict.flow.expect("admits carry the new id");
    assert!(engine.revoke(id).accepted());

    assert_eq!(
        before,
        to_json(&engine.snapshot().report).unwrap(),
        "admit followed by revoke must restore the original bounds"
    );
}

fn babbler_spec(source: usize, destination: usize) -> FlowSpec {
    FlowSpec {
        name: format!("babble-{source}"),
        source,
        destination,
        payload: DataSize::from_bytes(128),
        arrival: Arrival::Sporadic {
            min_interarrival: Duration::from_millis(10),
        },
        // The P0 boundary: the adversarial flow competes at the highest
        // priority, like the simulator's babbled frames.
        deadline: Duration::from_millis(3),
    }
}

#[test]
fn degraded_state_equals_scratch_and_restore_is_exact() {
    let workload = base_workload();
    let fabric = Fabric::line(2, workload.stations.len());
    let config = NetworkConfig::paper_default();
    for approach in arms() {
        for model in [EnvelopeModel::TokenBucket, EnvelopeModel::Staircase] {
            let mut engine = AdmissionEngine::new(&workload, &fabric, &config, approach, model)
                .expect("seed workload is analysable");
            let healthy = to_json(&engine.snapshot().report).unwrap();

            // Degrade: two babblers plus a trunk failover onto the backup.
            let backup = fabric.backup_for(0).expect("line fabrics reconnect");
            let verdict = engine.degrade(
                &[babbler_spec(1, 0), babbler_spec(2, 0)],
                Some(FailoverPlan { trunk: 0, backup }),
            );
            assert!(verdict.accepted(), "{:?}", verdict.decision);
            assert!(engine.is_degraded());
            assert_eq!(
                engine.fabric().trunks()[0],
                backup,
                "failover swapped the routing fabric"
            );
            // The degraded incremental state must still be byte-identical
            // to a from-scratch analysis of the degraded flow set on the
            // post-failover fabric.
            assert_matches_scratch(&engine, &format!("degrade ({approach} / {model:?})"));

            // Incremental queries keep the invariant while degraded.
            // Revokes and modifies only target flows admitted inside this
            // trace, so the pre-fault flow set survives for the restore
            // check below.
            let original_flows = workload.messages.len() as u64;
            let is_trace_extra = |engine: &AdmissionEngine, id: admission::FlowId| {
                id.0 >= original_flows
                    && engine
                        .flow_spec(id)
                        .is_some_and(|s| !s.name.starts_with("babble"))
            };
            let ops = trace_ops(5, 6, engine.station_count());
            for (step, op) in ops.iter().enumerate() {
                match resolve(op, engine.active_flows()) {
                    AdmissionQuery::Admit { flow } => {
                        engine.admit(flow);
                    }
                    AdmissionQuery::Revoke { flow } => {
                        if is_trace_extra(&engine, flow) {
                            engine.revoke(flow);
                        }
                    }
                    AdmissionQuery::Modify { flow, spec } => {
                        if is_trace_extra(&engine, flow) {
                            engine.modify(flow, spec);
                        }
                    }
                }
                assert_matches_scratch(
                    &engine,
                    &format!("degraded step {step} ({approach} / {model:?}: {op:?})"),
                );
            }

            // A second degrade while degraded rejects without mutating.
            let mid = to_json(&engine.snapshot().report).unwrap();
            assert!(!engine.degrade(&[babbler_spec(1, 0)], None).accepted());
            assert_eq!(mid, to_json(&engine.snapshot().report).unwrap());

            // Undo the trace so restore targets the pre-fault flow set,
            // then restore: the healthy fingerprint must return exactly.
            let extras: Vec<_> = engine
                .active_flows()
                .iter()
                .copied()
                .filter(|&id| is_trace_extra(&engine, id))
                .collect();
            for id in extras {
                assert!(engine.revoke(id).accepted());
            }
            let verdict = engine.restore();
            assert!(verdict.accepted(), "{:?}", verdict.decision);
            assert!(!engine.is_degraded());
            assert_matches_scratch(&engine, &format!("restore ({approach} / {model:?})"));
            assert_eq!(
                healthy,
                to_json(&engine.snapshot().report).unwrap(),
                "restore must return the pre-fault fingerprint exactly \
                 ({approach} / {model:?})"
            );

            // Restoring a healthy engine rejects.
            assert!(!engine.restore().accepted());
        }
    }
}

#[test]
fn rejected_queries_leave_state_untouched() {
    let workload = base_workload();
    let fabric = Fabric::single_switch(workload.stations.len());
    let config = NetworkConfig::paper_default();
    let mut engine = AdmissionEngine::new(
        &workload,
        &fabric,
        &config,
        Approach::StrictPriority,
        EnvelopeModel::TokenBucket,
    )
    .unwrap();
    let before = to_json(&engine.snapshot().report).unwrap();

    // An unknown-station admit rejects on validation.
    let mut bad = match resolve(
        &trace_ops(3, 1, engine.station_count())[0],
        engine.active_flows(),
    ) {
        AdmissionQuery::Admit { flow } => flow,
        other => panic!("trace seed 3 starts with an admit, got {other:?}"),
    };
    bad.source = engine.station_count() + 7;
    assert!(!engine.admit(bad.clone()).accepted());

    // A flow demanding more than the link can carry rejects on analysis.
    bad.source = 0;
    bad.destination = 1;
    bad.payload = units::DataSize::from_bytes(1500);
    bad.arrival = workload::Arrival::Periodic {
        period: units::Duration::from_micros(100),
    };
    bad.deadline = units::Duration::from_micros(100);
    assert!(!engine.admit(bad).accepted());

    // An unknown flow cannot be revoked or modified.
    assert!(!engine.revoke(admission::FlowId(10_000)).accepted());

    assert_eq!(before, to_json(&engine.snapshot().report).unwrap());
    assert_eq!(engine.stats().rejected, 3);
}

/// The engine labels a flow by its place in registration order, found by
/// binary search on the active flows: they must stay in id order.
fn assert_registration_order(engine: &AdmissionEngine, context: &str) {
    assert!(
        engine
            .active_flows()
            .windows(2)
            .all(|pair| pair[0] < pair[1]),
        "active flows left id order after {context}"
    );
}

/// Long churn on three-switch fabrics: revokes of early-registered flows
/// (every later flow moves up one place), reroutes, one degrade/restore
/// with a trunk failover and one batch.  After every step the state equals
/// a from-scratch analysis and the active flows stay in id order.
#[test]
fn long_churn_on_three_switches_matches_scratch() {
    // Release-sized like `horizon_cut_is_invisible`: a debug `cargo test`
    // runs a short trace, CI runs the long one in release.
    let steps = if cfg!(debug_assertions) { 24 } else { 320 };
    let workload = base_workload();
    let stations = workload.stations.len();
    let config = NetworkConfig::paper_default();
    for (shape, fabric) in [
        Fabric::line(3, stations),
        Fabric::star_of_stars(3, stations),
    ]
    .into_iter()
    .enumerate()
    {
        for approach in arms() {
            for model in [EnvelopeModel::TokenBucket, EnvelopeModel::Staircase] {
                let mut engine = AdmissionEngine::new(&workload, &fabric, &config, approach, model)
                    .expect("seed workload is analysable");
                let ops = trace_ops(40 + shape as u64, steps, stations);
                let mut step = 0;
                while step < ops.len() {
                    let context = format!("step {step} ({approach} / {model:?} / shape {shape})");
                    let active = engine.active_flows().to_vec();
                    if step == 3 * steps / 4 {
                        // One batch: up to sixteen ops, resolved against the
                        // state the batch starts from.
                        let end = ops.len().min(step + 16);
                        let queries: Vec<AdmissionQuery> = ops[step..end]
                            .iter()
                            .map(|op| resolve(op, &active))
                            .collect();
                        engine.evaluate_batch(&queries, 2);
                        step = end;
                    } else if step == steps / 4 {
                        let backup = fabric.backup_for(0).expect("three-switch trees reconnect");
                        let verdict = engine.degrade(
                            &[babbler_spec(1, 0)],
                            Some(FailoverPlan { trunk: 0, backup }),
                        );
                        assert!(verdict.accepted(), "{context}: {:?}", verdict.decision);
                        step += 1;
                    } else if step == steps / 2 {
                        let verdict = engine.restore();
                        assert!(verdict.accepted(), "{context}: {:?}", verdict.decision);
                        step += 1;
                    } else if step % 5 == 0 && active.len() > 3 {
                        // Revoke an early-registered flow: every flow after
                        // it moves up one place in registration order.
                        engine.revoke(active[step % 3]);
                        step += 1;
                    } else if step % 7 == 0 && !active.is_empty() {
                        // Reroute a flow: same spec, another destination.
                        let id = active[step % active.len()];
                        let mut spec = engine.flow_spec(id).expect("active").clone();
                        spec.destination = (spec.destination + stations / 2) % stations;
                        if spec.destination == spec.source {
                            spec.destination = (spec.destination + 1) % stations;
                        }
                        engine.modify(id, spec);
                        step += 1;
                    } else {
                        match resolve(&ops[step], &active) {
                            AdmissionQuery::Admit { flow } => engine.admit(flow),
                            AdmissionQuery::Revoke { flow } => engine.revoke(flow),
                            AdmissionQuery::Modify { flow, spec } => engine.modify(flow, spec),
                        };
                        step += 1;
                    }
                    assert_matches_scratch(&engine, &context);
                    assert_registration_order(&engine, &context);
                }
                assert!(!engine.is_degraded(), "the trace restored its fault set");
                assert!(engine.stats().revoked > 0 && engine.stats().modified > 0);
            }
        }
    }
}
