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
    delay_bound, minplus, ArrivalBound, Curve, Envelope, EnvelopeModel, NcError, RateLatency,
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
    let stage_bounds = analyze_stage(flows, policy, config.link_rate, ttechno).map_err(&stage)?;
    // The general left-over curves of this port, one per flow (staircase
    // model only; the token-bucket model keeps the closed-form path).
    let port_curves = match model {
        EnvelopeModel::TokenBucket => None,
        EnvelopeModel::Staircase => {
            Some(leftover_curves_for_port(flows, policy, config, ttechno).map_err(&stage)?)
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
        let mut leftover =
            leftover_service(flows, i, policy, config, ttechno).ok_or_else(unstable_port)?;
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
            EnvelopeModel::TokenBucket => (
                delay_bound(&flow.envelope.token_bucket(), &leftover).map_err(&stage)?,
                None,
            ),
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

/// The left-over rate-latency service curve of flow `index` at a port
/// multiplexing `flows`, or `None` when the interfering traffic saturates
/// the flow's residual service.
///
/// * **FCFS** — blind multiplexing against the aggregate of every other
///   flow at the port.
/// * **Strict priority** — blind multiplexing against the other flows of
///   the same or higher priority, after reserving the transmission time of
///   the largest lower-priority frame (non-preemptive blocking) as extra
///   latency.
/// * **WRR** — the class's quantum-share residual service
///   ([`netcalc::WrrMux::residual_service`]), then blind multiplexing
///   against the other flows of the *same class* (the class queue is one
///   FIFO, so the arbitrary-multiplexing residual applies within it).
pub fn leftover_service(
    flows: &[StageFlow],
    index: usize,
    policy: &SchedulingPolicy,
    config: &NetworkConfig,
    ttechno: Duration,
) -> Option<RateLatency> {
    let classes = policy.queue_count();
    let clamp = |p: usize| p.min(classes.saturating_sub(1));
    let (base, cross) = match policy {
        SchedulingPolicy::Fcfs => {
            let cross = TokenBucket::aggregate_all(
                flows
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != index)
                    .map(|(_, f)| f.envelope.token_bucket()),
            );
            (RateLatency::new(config.link_rate, ttechno), cross)
        }
        SchedulingPolicy::StrictPriority { .. } => {
            let own = clamp(flows[index].priority);
            let cross = TokenBucket::aggregate_all(
                flows
                    .iter()
                    .enumerate()
                    .filter(|&(j, f)| j != index && clamp(f.priority) <= own)
                    .map(|(_, f)| f.envelope.token_bucket()),
            );
            let blocking = flows
                .iter()
                .filter(|f| clamp(f.priority) > own)
                .map(|f| f.envelope.burst())
                .fold(units::DataSize::ZERO, units::DataSize::max);
            let base = RateLatency::new(
                config.link_rate,
                ttechno + config.link_rate.transmission_time(blocking),
            );
            (base, cross)
        }
        SchedulingPolicy::Wrr { .. } => {
            // The quantum-share residual depends only on the per-class
            // frame sizes and occupancy, so the mux is fed the flows'
            // token-bucket summaries — not their full piecewise-linear
            // envelopes, whose clones would dominate this per-flow path.
            let mut mux = mux_for_policy(policy, config.link_rate, ttechno);
            for f in flows {
                mux.add_flow(f.priority, f.envelope.token_bucket(), f.frame)
                    .ok()?;
            }
            let own = clamp(flows[index].priority);
            let base = mux.residual_service(own).ok()?;
            let cross = TokenBucket::aggregate_all(
                flows
                    .iter()
                    .enumerate()
                    .filter(|&(j, f)| j != index && clamp(f.priority) == own)
                    .map(|(_, f)| f.envelope.token_bucket()),
            );
            (base, cross)
        }
    };
    base.leftover(&cross)
}

/// The general left-over service **curves** of every flow at a port
/// ([`netcalc::minplus::leftover`]): the same blind-multiplexing construction as
/// [`leftover_service`], but against the cross traffic's full
/// piecewise-linear envelopes (e.g. staircases) instead of their
/// token-bucket summaries — the cross traffic's flat steps let the residual
/// service recover faster, so the served flow's deviation can only shrink.
///
/// Batched per port: the aggregate arrival curve of each priority prefix is
/// built once and each flow's cross traffic is recovered by subtracting its
/// own envelope ([`Curve::sub_envelope`]), turning the per-port cost from
/// quadratic to linear in the flow count.
pub fn leftover_curves_for_port(
    flows: &[StageFlow],
    policy: &SchedulingPolicy,
    config: &NetworkConfig,
    ttechno: Duration,
) -> Result<Vec<Curve>, NcError> {
    use netcalc::ServiceBound;
    let levels = policy.queue_count();
    let clamp = |p: usize| p.min(levels.saturating_sub(1));
    match policy {
        SchedulingPolicy::Fcfs => {
            let full = Envelope::aggregate_all(flows.iter().map(|f| &f.envelope)).curve();
            let base = RateLatency::new(config.link_rate, ttechno).curve();
            flows
                .iter()
                .map(|f| {
                    let cross = full.sub_envelope(&f.envelope.effective_curve());
                    minplus::leftover(&base, &cross)
                })
                .collect()
        }
        SchedulingPolicy::StrictPriority { .. } => {
            // Aggregate arrival curve of levels ≤ p, one prefix per level.
            let mut prefixes: Vec<Curve> = Vec::with_capacity(levels);
            let mut acc = netcalc::Curve::zero();
            for p in 0..levels {
                for f in flows.iter().filter(|f| clamp(f.priority) == p) {
                    acc = acc.add(&f.envelope.effective_curve());
                }
                prefixes.push(acc.clone());
            }
            // Largest lower-priority frame that can block level p.
            let blocking: Vec<units::DataSize> = (0..levels)
                .map(|p| {
                    flows
                        .iter()
                        .filter(|f| clamp(f.priority) > p)
                        .map(|f| f.envelope.burst())
                        .fold(units::DataSize::ZERO, units::DataSize::max)
                })
                .collect();
            let bases: Vec<Curve> = (0..levels)
                .map(|p| {
                    RateLatency::new(
                        config.link_rate,
                        ttechno + config.link_rate.transmission_time(blocking[p]),
                    )
                    .curve()
                })
                .collect();
            flows
                .iter()
                .map(|f| {
                    let own = clamp(f.priority);
                    let cross = prefixes[own].sub_envelope(&f.envelope.effective_curve());
                    minplus::leftover(&bases[own], &cross)
                })
                .collect()
        }
        SchedulingPolicy::Wrr { .. } => {
            // Per-class quantum-share residual services, then the general
            // blind-multiplexing left-over against the *same-class* cross
            // traffic's full piecewise-linear envelopes.
            let mut mux = mux_for_policy(policy, config.link_rate, ttechno);
            for f in flows {
                mux.add_flow(f.priority, f.envelope.clone(), f.frame)?;
            }
            // Aggregate arrival curve of each class (classes without flows
            // never get looked up).
            let mut aggregates: Vec<Curve> = vec![netcalc::Curve::zero(); levels];
            for f in flows {
                let own = clamp(f.priority);
                aggregates[own] = aggregates[own].add(&f.envelope.effective_curve());
            }
            let mut bases: Vec<Option<Curve>> = vec![None; levels];
            flows
                .iter()
                .map(|f| {
                    let own = clamp(f.priority);
                    if bases[own].is_none() {
                        bases[own] = Some(mux.residual_service(own)?.curve());
                    }
                    let cross = aggregates[own].sub_envelope(&f.envelope.effective_curve());
                    minplus::leftover(bases[own].as_ref().expect("just filled"), &cross)
                })
                .collect()
        }
    }
}
