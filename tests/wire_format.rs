//! Wire-format pins: the JSON shapes of the error and admission types that
//! cross process boundaries (the `admission serve` NDJSON protocol, replay
//! reports, campaign artifacts) are frozen here.  A failing pin means a
//! serialization change that breaks recorded traces and downstream
//! consumers — bump deliberately, not accidentally.

use rt_ethernet::admission::{
    self, AdmissionEngine, Decision, FlowId, FlowSpec, ServeRequest, ServeResponse,
};
use rt_ethernet::core::AnalysisError;
use rt_ethernet::netcalc::{EnvelopeModel, NcError};
use rt_ethernet::units::{DataSize, Duration};
use rt_ethernet::workload::{case_study::case_study, Arrival};
use rt_ethernet::{Approach, Fabric, NetworkConfig};

#[test]
fn analysis_error_json_shape_is_pinned() {
    let error = AnalysisError::Stage {
        stage: "uplink[s0]".to_string(),
        source: NcError::Unstable {
            context: "left-over".to_string(),
            demand_bps: 12_000_000,
            capacity_bps: 10_000_000,
        },
    };
    let json = serde_json::to_string(&error).unwrap();
    assert_eq!(
        json,
        r#"{"Stage":{"stage":"uplink[s0]","source":{"Unstable":{"context":"left-over","demand_bps":12000000,"capacity_bps":10000000}}}}"#
    );
    let back: AnalysisError = serde_json::from_str(&json).unwrap();
    assert_eq!(back, error);
}

#[test]
fn nc_error_json_shapes_are_pinned() {
    let cases = [
        (
            NcError::InvalidCurve("empty".to_string()),
            r#"{"InvalidCurve":"empty"}"#,
        ),
        (
            NcError::Unstable {
                context: "FCFS multiplexer".to_string(),
                demand_bps: 12_144_000,
                capacity_bps: 10_000,
            },
            r#"{"Unstable":{"context":"FCFS multiplexer","demand_bps":12144000,"capacity_bps":10000}}"#,
        ),
    ];
    for (error, pinned) in cases {
        let json = serde_json::to_string(&error).unwrap();
        assert_eq!(json, pinned);
        let back: NcError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, error);
    }
}

#[test]
fn admission_wire_types_round_trip() {
    let spec = FlowSpec {
        name: "nav-update".to_string(),
        source: 0,
        destination: 1,
        payload: DataSize::from_bytes(64),
        arrival: Arrival::Periodic {
            period: Duration::from_millis(40),
        },
        deadline: Duration::from_millis(40),
    };
    // `DataSize` serializes transparently as its inner bit count (64 B =
    // 512 bits); `Duration` as nanoseconds.
    let pinned = r#"{"name":"nav-update","source":0,"destination":1,"payload":512,"arrival":{"Periodic":{"period":40000000}},"deadline":40000000}"#;
    assert_eq!(serde_json::to_string(&spec).unwrap(), pinned);
    let back: FlowSpec = serde_json::from_str(pinned).unwrap();
    assert_eq!(back, spec);

    assert_eq!(serde_json::to_string(&FlowId(7)).unwrap(), "7");
    assert_eq!(
        serde_json::to_string(&Decision::Admitted).unwrap(),
        r#""Admitted""#
    );
    assert_eq!(
        serde_json::to_string(&Decision::Rejected {
            reason: "full".to_string()
        })
        .unwrap(),
        r#"{"Rejected":{"reason":"full"}}"#
    );
    assert_eq!(
        serde_json::to_string(&Decision::Degraded).unwrap(),
        r#""Degraded""#
    );
    assert_eq!(
        serde_json::to_string(&Decision::Restored).unwrap(),
        r#""Restored""#
    );
    assert_eq!(
        serde_json::to_string(&admission::FailoverPlan {
            trunk: 0,
            backup: (0, 2),
        })
        .unwrap(),
        r#"{"trunk":0,"backup":[0,2]}"#
    );

    let requests = [
        ServeRequest::Admit { flow: spec.clone() },
        ServeRequest::Revoke { flow: FlowId(3) },
        ServeRequest::Modify {
            flow: FlowId(3),
            spec: spec.clone(),
        },
        ServeRequest::Degrade {
            babblers: vec![spec],
            failover: Some(admission::FailoverPlan {
                trunk: 1,
                backup: (0, 2),
            }),
        },
        ServeRequest::Restore,
        ServeRequest::Snapshot,
    ];
    for request in requests {
        let json = serde_json::to_string(&request).unwrap();
        let back: ServeRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
    }
}

#[test]
fn verdicts_and_snapshots_round_trip() {
    let workload = case_study();
    let fabric = Fabric::single_switch(workload.stations.len());
    let mut engine = AdmissionEngine::new(
        &workload,
        &fabric,
        &NetworkConfig::paper_default(),
        Approach::StrictPriority,
        EnvelopeModel::TokenBucket,
    )
    .unwrap();
    let verdict = engine.admit(FlowSpec {
        name: "nav-update".to_string(),
        source: 0,
        destination: 1,
        payload: DataSize::from_bytes(64),
        arrival: Arrival::Periodic {
            period: Duration::from_millis(40),
        },
        deadline: Duration::from_millis(40),
    });
    let json = serde_json::to_string(&verdict).unwrap();
    let back: admission::AdmissionVerdict = serde_json::from_str(&json).unwrap();
    assert_eq!(back, verdict);

    let snapshot = engine.snapshot();
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: admission::AdmissionSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snapshot);

    let response = ServeResponse::Verdict(verdict);
    let json = serde_json::to_string(&response).unwrap();
    let back: ServeResponse = serde_json::from_str(&json).unwrap();
    assert_eq!(back, response);
}

#[test]
fn serve_loop_answers_over_byte_buffers() {
    let workload = case_study();
    let fabric = Fabric::single_switch(workload.stations.len());
    let mut engine = AdmissionEngine::new(
        &workload,
        &fabric,
        &NetworkConfig::paper_default(),
        Approach::StrictPriority,
        EnvelopeModel::TokenBucket,
    )
    .unwrap();

    let admit = ServeRequest::Admit {
        flow: FlowSpec {
            name: "nav-update".to_string(),
            source: 0,
            destination: 1,
            payload: DataSize::from_bytes(64),
            arrival: Arrival::Periodic {
                period: Duration::from_millis(40),
            },
            deadline: Duration::from_millis(40),
        },
    };
    let input = format!(
        "{}\n\n{}\nnot json\n",
        serde_json::to_string(&admit).unwrap(),
        serde_json::to_string(&ServeRequest::Snapshot).unwrap(),
    );
    let mut output = Vec::new();
    let served = admission::serve(&mut engine, input.as_bytes(), &mut output).unwrap();
    assert_eq!(served, 3, "blank lines are skipped, bad lines answered");

    let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    assert_eq!(lines.len(), 3);
    match serde_json::from_str::<ServeResponse>(lines[0]).unwrap() {
        ServeResponse::Verdict(v) => assert!(v.accepted()),
        other => panic!("expected a verdict, got {other:?}"),
    }
    match serde_json::from_str::<ServeResponse>(lines[1]).unwrap() {
        ServeResponse::Snapshot(s) => assert_eq!(s.flows.len(), engine.active_flows().len()),
        other => panic!("expected a snapshot, got {other:?}"),
    }
    match serde_json::from_str::<ServeResponse>(lines[2]).unwrap() {
        ServeResponse::Error { message } => assert!(message.contains("bad request")),
        other => panic!("expected an error, got {other:?}"),
    }
}
