//! Per-port analysis: everything the multi-hop walk derives at one output
//! port, behind one entry point.
//!
//! [`analyze_multi_hop_with`](crate::analyze_multi_hop_with) visits every
//! port of the fabric exactly once, in topological order, and derives the
//! same per-flow quantities at each: the stage (multiplexer) bound, the
//! packetizer-corrected left-over service, and — under the staircase model
//! — the general left-over curve.  Those derivations are *port-local*: they
//! depend only on the ordered set of flows crossing the port and their
//! arrival envelopes at that port, never on global analysis state.
//!
//! [`analyze_port`] packages that port-local computation as a reusable unit
//! so incremental callers (the `admission` engine's per-port curve cache)
//! run the *same code path* as the from-scratch analysis — equivalence of
//! cached and recomputed bounds holds by construction, bit for bit, rather
//! than by parallel maintenance of two implementations.

use crate::analysis::end_to_end::AnalysisError;
use crate::analysis::stage::{analyze_stage, mux_for_policy, StageFlow};
use crate::config::NetworkConfig;
use ethernet::SchedulingPolicy;
use netcalc::{
    delay_bound, minplus, Curve, Envelope, EnvelopeModel, Mux, NcError, RateLatency, ServiceBound,
    TokenBucket,
};
use units::Duration;
use workload::MessageId;

/// Everything one flow accrues at one port of its path.
#[derive(Debug, Clone, PartialEq)]
pub struct PortFlowAnalysis {
    /// The message stream (positional id within the analysed flow set).
    pub message: MessageId,
    /// The paper's multiplexer bound at this port (the stage-sum term).
    pub stage_delay: Duration,
    /// The flow's own delay through its packetizer-corrected left-over
    /// service at this port (the per-hop-sum term).
    pub flow_delay: Duration,
    /// The flow's arrival envelope *after* the port — the envelope it
    /// presents to the next hop.
    pub output: Envelope,
    /// The packetizer-corrected left-over rate-latency service curve.
    pub leftover: RateLatency,
    /// The packetizer-corrected general left-over curve (staircase model
    /// only; `None` under the token-bucket model).
    pub leftover_curve: Option<Curve>,
}

/// The complete analysis of one port: per-flow results in input order plus
/// the port's aggregate token-bucket arrival envelope (the quantity the
/// admission engine caches and reports as port occupancy).
#[derive(Debug, Clone, PartialEq)]
pub struct PortAnalysis {
    /// Aggregate token-bucket arrival envelope of every flow at the port.
    pub aggregate: TokenBucket,
    /// Per-flow results, in the same order as the input `flows`.
    pub flows: Vec<PortFlowAnalysis>,
}

/// Analyses one output port under the given policy and envelope model.
///
/// `flows` are the flows crossing the port in deterministic (workload)
/// order, each carrying its arrival envelope *at this port*; `last_hop[i]`
/// says whether the port is flow `i`'s final hop (the store-and-forward
/// packetizer correction `[β − l]⁺` applies to every non-final hop);
/// `ttechno` is the port's relaying latency (zero at station uplinks);
/// `port_name` labels errors.
///
/// This is the single code path behind both the from-scratch multi-hop walk
/// and the admission engine's cache misses, so incremental re-analysis is
/// byte-identical to a fresh
/// [`analyze_multi_hop_with`](crate::analyze_multi_hop_with) by
/// construction.
pub fn analyze_port(
    flows: &[StageFlow],
    last_hop: &[bool],
    policy: &SchedulingPolicy,
    config: &NetworkConfig,
    ttechno: Duration,
    model: EnvelopeModel,
    port_name: &str,
) -> Result<PortAnalysis, AnalysisError> {
    assert_eq!(flows.len(), last_hop.len(), "one last-hop flag per flow");
    let stage = |source| AnalysisError::Stage {
        stage: port_name.to_string(),
        source,
    };
    let mux = mux_for_policy(flows, policy, config.link_rate, ttechno).map_err(&stage)?;
    // Under the staircase model every class's aggregate arrival curve is
    // summed once, and both the stage bound and the left-over curves
    // borrow it; the token-bucket model keeps the closed-form path.  A
    // class's stage bound is refined only when a flow it sums carries a
    // tighter-than-token-bucket curve.
    let aggregates = match model {
        EnvelopeModel::TokenBucket => Vec::new(),
        EnvelopeModel::Staircase => class_aggregates(flows, &mux),
    };
    let refine: Vec<Option<&Curve>> = aggregates
        .iter()
        .map(|(curve, has_extra)| has_extra.then_some(curve))
        .collect();
    let stage_bounds = analyze_stage(flows, &mux, &refine).map_err(&stage)?;
    let bases: Vec<Result<RateLatency, NcError>> = (0..mux.class_count())
        .map(|class| leftover_base(flows, class, &mux))
        .collect();
    let totals = queue_set_totals(flows, &mux);
    let port_curves = match model {
        EnvelopeModel::TokenBucket => None,
        EnvelopeModel::Staircase => {
            Some(leftover_curves(flows, &mux, &bases, &aggregates).map_err(&stage)?)
        }
    };

    let mut results = Vec::with_capacity(flows.len());
    for (i, flow) in flows.iter().enumerate() {
        let unstable_port = || AnalysisError::Stage {
            stage: port_name.to_string(),
            source: NcError::Unstable {
                context: format!("left-over service of {} at {port_name}", flow.message),
                // The saturating quantity is the port's aggregate demand
                // (the interfering traffic plus the flow itself), not the
                // flow's own rate.
                demand_bps: flows
                    .iter()
                    .map(|f| f.envelope.rate())
                    .sum::<units::DataRate>()
                    .bps(),
                capacity_bps: config.link_rate.bps(),
            },
        };
        // Blind multiplexing against the rest of the flow's queue set: its
        // total minus the flow's own bucket (integer sums, so exact).
        let own = clamp(&mux, flow.priority);
        let bucket = flow.envelope.token_bucket();
        let cross = TokenBucket::new(
            totals[own].burst() - bucket.burst(),
            totals[own].rate() - bucket.rate(),
        );
        let mut leftover = bases[own]
            .as_ref()
            .ok()
            .and_then(|base| base.leftover(&cross))
            .ok_or_else(unstable_port)?;
        // Store-and-forward packetizer: a frame cannot enter the next hop's
        // service before it is *fully* received, so the fluid left-over
        // curve of every non-final hop must give up one maximum frame of
        // the flow — `[β − l]⁺`, i.e. `l/R` of extra latency (Le Boudec &
        // Thiran §1.7.4).  Without this term the convolved bound would pay
        // the flow's own serialization only once even though
        // store-and-forward pays it per link.
        let is_last = last_hop[i];
        let frame = flow.frame;
        if !is_last {
            leftover = RateLatency::new(
                leftover.rate(),
                leftover.latency() + leftover.rate().transmission_time(frame),
            );
        }
        let (flow_delay, leftover_curve) = match model {
            EnvelopeModel::TokenBucket => (delay_bound(&bucket, &leftover).map_err(&stage)?, None),
            EnvelopeModel::Staircase => {
                // The general blind-multiplexing left-over curve against the
                // staircase cross traffic, same packetizer correction, same
                // candidate-exact deviation.
                let mut lo_curve = port_curves.as_ref().expect("staircase model")[i].clone();
                if !is_last {
                    lo_curve = lo_curve
                        .saturating_sub_const(frame.as_f64_bits())
                        .expect("frame sizes are finite and non-negative");
                }
                let h = minplus::horizontal_deviation(&flow.envelope.effective_curve(), &lo_curve)
                    .map_err(&stage)?;
                (Duration::from_secs_f64_ceil(h), Some(lo_curve))
            }
        };
        let stage_bound = &stage_bounds[i].1;
        results.push(PortFlowAnalysis {
            message: flow.message,
            stage_delay: stage_bound.delay,
            flow_delay,
            output: stage_bound.output.clone(),
            leftover,
            leftover_curve,
        });
    }
    // The aggregate envelope is diagnostic (port occupancy in admission
    // snapshots); it feeds no bound, so deriving it here cannot perturb the
    // byte-identity of the analysis results.
    let aggregate = TokenBucket::aggregate_all(flows.iter().map(|f| f.envelope.token_bucket()));
    Ok(PortAnalysis {
        aggregate,
        flows: results,
    })
}

/// The aggregate arrival curve of every class of `mux`, each flow's
/// effective curve added exactly once, with whether any flow it sums
/// carries a constraint tighter than its token bucket.
///
/// A class sums the flows its closed form sums: every flow under FCFS, the
/// levels `q ≤ p` under strict priority (accumulated from
/// [`Curve::zero`] level by level), the class's own flows under WRR.
/// Within a class flows are added in input order, so every sum is
/// reproducible bit for bit.
fn class_aggregates(flows: &[StageFlow], mux: &Mux) -> Vec<(Curve, bool)> {
    let classes = mux.class_count();
    let cumulative = matches!(mux, Mux::StaticPriority(_));
    let mut acc = (Curve::zero(), false);
    let mut aggregates = Vec::with_capacity(classes);
    for class in 0..classes {
        if !cumulative {
            acc = (Curve::zero(), false);
        }
        for f in flows.iter().filter(|f| clamp(mux, f.priority) == class) {
            acc.0 = acc.0.add(&f.envelope.effective_curve());
            acc.1 |= f.envelope.has_extra();
        }
        aggregates.push(acc.clone());
    }
    aggregates
}

/// Clamps a flow's priority to the queues `mux` serves, like the traffic
/// classifier.
fn clamp(mux: &Mux, priority: usize) -> usize {
    priority.min(mux.class_count().saturating_sub(1))
}

/// The token-bucket total of every class's queue set: the flows a flow of
/// that class is blind-multiplexed with, itself included.
///
/// * **FCFS** — every flow at the port.
/// * **Strict priority** — the flows of the same or higher priority
///   (levels `q ≤ p`).
/// * **WRR** — the flows of the *same class* (the class queue is one FIFO,
///   so the arbitrary-multiplexing residual applies within it).
///
/// Bursts and rates are integers, so each total is exact in any summation
/// order.
fn queue_set_totals(flows: &[StageFlow], mux: &Mux) -> Vec<TokenBucket> {
    let empty = TokenBucket::new(units::DataSize::ZERO, units::DataRate::ZERO);
    let mut totals = vec![empty; mux.class_count()];
    for f in flows {
        let class = clamp(mux, f.priority);
        totals[class] = totals[class].aggregate(&f.envelope.token_bucket());
    }
    if matches!(mux, Mux::StaticPriority(_)) {
        for class in 1..totals.len() {
            totals[class] = totals[class].aggregate(&totals[class - 1]);
        }
    }
    totals
}

/// The service a flow of `class` is blind-multiplexed on against the rest
/// of its queue set ([`queue_set_totals`]): `β_{C,t}` under FCFS,
/// `β_{C, t + l/C}` with `l` the largest lower-priority burst under strict
/// priority (non-preemptive blocking), the class's quantum-share residual
/// ([`netcalc::WrrMux::residual_service`]) under WRR.
fn leftover_base(flows: &[StageFlow], class: usize, mux: &Mux) -> Result<RateLatency, NcError> {
    let Mux::StaticPriority(sp) = mux else {
        return mux.residual_service(class);
    };
    let blocking = flows
        .iter()
        .filter(|f| clamp(mux, f.priority) > class)
        .map(|f| f.envelope.burst())
        .fold(units::DataSize::ZERO, units::DataSize::max);
    let capacity = sp.capacity();
    Ok(RateLatency::new(
        capacity,
        sp.ttechno() + capacity.transmission_time(blocking),
    ))
}

/// The general left-over service **curves** of every flow at a port
/// ([`netcalc::minplus::leftover`]): the same blind-multiplexing
/// construction on the class's `bases` as the rate-latency left-over, but
/// against the cross traffic's full piecewise-linear envelopes (e.g.
/// staircases) instead of their token-bucket summaries — the cross
/// traffic's flat steps let the residual service recover faster, so the
/// served flow's deviation can only shrink.
///
/// Each flow's cross traffic is its class's aggregate from
/// [`class_aggregates`] minus its own envelope ([`Curve::sub_envelope`]),
/// so a port costs one subtraction and one left-over per flow.
fn leftover_curves(
    flows: &[StageFlow],
    mux: &Mux,
    bases: &[Result<RateLatency, NcError>],
    aggregates: &[(Curve, bool)],
) -> Result<Vec<Curve>, NcError> {
    let mut base_curves: Vec<Option<Curve>> = vec![None; bases.len()];
    flows
        .iter()
        .map(|f| {
            let own = clamp(mux, f.priority);
            if base_curves[own].is_none() {
                base_curves[own] = Some(bases[own].clone()?.curve());
            }
            let cross = aggregates[own]
                .0
                .sub_envelope(&f.envelope.effective_curve());
            minplus::leftover(base_curves[own].as_ref().expect("just filled"), &cross)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethernet::{WrrUnit, WrrWeights};
    use netcalc::counters::OpCounters;
    use units::{DataRate, DataSize};

    /// FCFS, 4-level strict priority and 3-class WRR in frames.
    fn policies() -> [SchedulingPolicy; 3] {
        [
            SchedulingPolicy::Fcfs,
            SchedulingPolicy::StrictPriority { levels: 4 },
            SchedulingPolicy::Wrr {
                weights: WrrWeights::new(&[4, 2, 1], WrrUnit::Frames),
            },
        ]
    }

    /// Eight staircase flows of 64–1114 B every 5–40 ms at priorities 0–2,
    /// on a 100 Mbps port.
    fn eight_staircase_flows() -> (NetworkConfig, Vec<StageFlow>) {
        let rate = DataRate::from_mbps(100);
        let config = NetworkConfig::paper_default().with_link_rate(rate);
        let flows = (0..8)
            .map(|i| {
                let frame = DataSize::from_bytes(64 + 150 * i as u64);
                let period = Duration::from_millis(5 << (i % 4));
                StageFlow {
                    message: MessageId(i),
                    envelope: Envelope::staircase(frame, period, rate),
                    priority: i % 3,
                    frame,
                }
            })
            .collect();
        (config, flows)
    }

    #[test]
    fn each_staircase_port_sums_every_flow_once() {
        // The eight staircase flows with a 16 µs relaying latency.
        let (config, flows) = eight_staircase_flows();
        let last_hop: Vec<bool> = (0..flows.len()).map(|i| i % 2 == 0).collect();
        for policy in &policies() {
            let before = OpCounters::snapshot();
            let analysis = analyze_port(
                &flows,
                &last_hop,
                policy,
                &config,
                Duration::from_micros(16),
                EnvelopeModel::Staircase,
                "switch-out[s0]",
            )
            .unwrap();
            let after = OpCounters::snapshot();
            assert!(analysis.flows.iter().all(|f| f.leftover_curve.is_some()));
            // One aggregation serves the stage bound and the left-over
            // curves: one `add` per flow, then one subtraction and one
            // left-over per flow.
            assert_eq!(
                (
                    after.add - before.add,
                    after.leftover - before.leftover,
                    after.sub_envelope - before.sub_envelope,
                ),
                (8, 8, 8),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn each_leftover_service_blind_multiplexes_the_rest_of_its_queue_set() {
        // The eight staircase flows, each at its final hop so no packetizer
        // correction applies.
        let (config, flows) = eight_staircase_flows();
        let last_hop = vec![true; flows.len()];
        let ttechno = Duration::from_micros(16);
        for policy in &policies() {
            let mux = mux_for_policy(&flows, policy, config.link_rate, ttechno).unwrap();
            for model in [EnvelopeModel::TokenBucket, EnvelopeModel::Staircase] {
                let analysis = analyze_port(
                    &flows,
                    &last_hop,
                    policy,
                    &config,
                    ttechno,
                    model,
                    "switch-out[s0]",
                )
                .unwrap();
                for (index, result) in analysis.flows.iter().enumerate() {
                    // The oracle re-aggregates the other flows of the queue
                    // set: every flow under FCFS, levels q ≤ p under strict
                    // priority, the own class under WRR.
                    let own = clamp(&mux, flows[index].priority);
                    let queues_with = |class: usize| match mux {
                        Mux::StaticPriority(_) => class <= own,
                        _ => class == own,
                    };
                    let cross = TokenBucket::aggregate_all(
                        flows
                            .iter()
                            .enumerate()
                            .filter(|&(j, f)| j != index && queues_with(clamp(&mux, f.priority)))
                            .map(|(_, f)| f.envelope.token_bucket()),
                    );
                    let expected = leftover_base(&flows, own, &mux)
                        .unwrap()
                        .leftover(&cross)
                        .unwrap();
                    assert_eq!(
                        result.leftover, expected,
                        "{policy:?} {model:?} flow {index}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_unstable_staircase_port_is_rejected_before_any_curve_is_summed() {
        // Eight staircase flows of 1114 B every 5 ms at priorities 0–2:
        // about 14 Mbps of demand on a 10 Mbps port.
        let rate = DataRate::from_mbps(10);
        let config = NetworkConfig::paper_default().with_link_rate(rate);
        let frame = DataSize::from_bytes(1114);
        let flows: Vec<StageFlow> = (0..8)
            .map(|i| StageFlow {
                message: MessageId(i),
                envelope: Envelope::staircase(frame, Duration::from_millis(5), rate),
                priority: i % 3,
                frame,
            })
            .collect();
        let last_hop = vec![true; flows.len()];
        for policy in &policies() {
            let before = OpCounters::snapshot();
            let err = analyze_port(
                &flows,
                &last_hop,
                policy,
                &config,
                Duration::from_micros(16),
                EnvelopeModel::Staircase,
                "switch-out[s0]",
            )
            .unwrap_err();
            let after = OpCounters::snapshot();
            let AnalysisError::Stage { source, .. } = err;
            assert!(matches!(source, NcError::Unstable { .. }), "{policy:?}");
            assert_eq!(after.add - before.add, 0, "{policy:?}");
        }
    }
}
