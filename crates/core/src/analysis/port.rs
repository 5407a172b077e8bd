//! Per-port analysis: everything the multi-hop walk derives at one output
//! port, behind one entry point.
//!
//! The analysis walk ([`walk_ports`](crate::walk_ports)) visits the ports
//! it recomputes in topological order and derives the same per-flow
//! quantities at each: the stage (multiplexer) bound, the
//! packetizer-corrected left-over service, and — under the staircase model
//! — the general left-over curve.  Those derivations are *port-local*: they
//! depend only on the ordered set of flows crossing the port and their
//! arrival envelopes at that port, never on global analysis state, which is
//! why a walk may read a port's results from an earlier walk instead of
//! calling [`analyze_port`] again.

use crate::analysis::end_to_end::AnalysisError;
use crate::analysis::horizon::{
    self, cut_margin, deviation_is_exact, exact_prefix, exact_until, HorizonEvent, ALL_EXACT,
    NOTHING_EXACT,
};
use crate::analysis::stage::{analyze_stage, mux_for_policy, StageFlow};
use crate::config::NetworkConfig;
use ethernet::SchedulingPolicy;
use netcalc::curve::EPS;
use netcalc::{
    delay_bound, minplus, Curve, Envelope, EnvelopeModel, Mux, NcError, RateLatency, TokenBucket,
};
use std::borrow::Cow;
use units::Duration;

/// Everything one flow accrues at one port of its path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PortFlowAnalysis {
    /// The paper's multiplexer bound at this port (the stage-sum term).
    pub stage_delay: Duration,
    /// The flow's own delay through its packetizer-corrected left-over
    /// service at this port (the per-hop-sum term).
    pub flow_delay: Duration,
    /// The flow's arrival envelope *after* the port — the envelope it
    /// presents to the next hop; `None` at its last hop, where no hop
    /// reads it.
    pub output: Option<Envelope>,
    /// The packetizer-corrected left-over rate-latency service curve.
    pub leftover: RateLatency,
    /// The packetizer-corrected general left-over curve (staircase model
    /// only; `None` under the token-bucket model).
    pub leftover_curve: Option<LeftoverCurve>,
}

/// A flow's general left-over curve at one port, computed on the port's
/// horizon-cut curves, with how far it is the curve the uncut ones give.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LeftoverCurve {
    /// The packetizer-corrected left-over curve.
    pub curve: Curve,
    /// The abscissa up to which `curve`'s breakpoints are, bit for bit,
    /// those of the left-over curve on uncut curves (`f64::INFINITY`: the
    /// whole curve is that one).
    pub exact_until: f64,
    /// The abscissa up to which the differences `β − cross` the curve is
    /// the running minimum of are those of the uncut curves (at or past
    /// `exact_until`).  Past `exact_until` the uncut curve's breakpoints
    /// are then either `curve`'s own or at least `curve`'s value here.
    pub grid_until: f64,
}

/// The complete analysis of one port: per-flow results in input order plus
/// the port's aggregate token-bucket arrival envelope (what the admission
/// engine reports as port occupancy).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PortAnalysis {
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
/// Under the staircase model the curves are cut at the port's horizon
/// (see [`crate::analysis::horizon`]); a stage or per-hop bound whose
/// certificate fails sends the whole port through again on uncut curves,
/// so every bound is the uncut one.
///
/// The analysis walk is its only caller, for the from-scratch analysis and
/// the admission engine alike.
pub(crate) fn analyze_port(
    flows: &[StageFlow<'_>],
    last_hop: &[bool],
    policy: &SchedulingPolicy,
    config: &NetworkConfig,
    ttechno: Duration,
    model: EnvelopeModel,
    port_name: &str,
) -> Result<PortAnalysis, AnalysisError> {
    let port = Port {
        flows,
        last_hop,
        policy,
        config,
        ttechno,
        model,
        name: port_name,
    };
    if model == EnvelopeModel::Staircase && horizon::shortcuts() {
        if let Some(analysis) = port.analyze(true)? {
            return Ok(analysis);
        }
        horizon::record(HorizonEvent::PortFallback);
    }
    Ok(port
        .analyze(false)?
        .expect("an analysis on uncut curves needs no certificate"))
}

/// One port's inputs, as [`analyze_port`] takes them.
pub(crate) struct Port<'a> {
    pub(crate) flows: &'a [StageFlow<'a>],
    pub(crate) last_hop: &'a [bool],
    pub(crate) policy: &'a SchedulingPolicy,
    pub(crate) config: &'a NetworkConfig,
    pub(crate) ttechno: Duration,
    pub(crate) model: EnvelopeModel,
    pub(crate) name: &'a str,
}

impl Port<'_> {
    /// The port's analysis, on horizon-cut curves when `cut` is set;
    /// `None` when a certificate fails (only on cut curves).  An error is
    /// the same with and without the cut: every error condition compares
    /// long-term rates or closed forms, which the cut leaves alone.
    pub(crate) fn analyze(&self, cut: bool) -> Result<Option<PortAnalysis>, AnalysisError> {
        let flows = self.flows;
        assert_eq!(
            flows.len(),
            self.last_hop.len(),
            "one last-hop flag per flow"
        );
        let stage = |source| AnalysisError::Stage {
            stage: self.name.to_string(),
            source,
        };
        let mux = mux_for_policy(flows, self.policy, self.config.link_rate, self.ttechno)
            .map_err(&stage)?;
        let staircase = self.model == EnvelopeModel::Staircase;
        let bases: Vec<RateLatency> = (0..mux.class_count())
            .map(|class| mux.leftover_base(class))
            .collect();
        let totals: Vec<TokenBucket> = (0..mux.class_count())
            .map(|class| mux.class_bucket(class))
            .collect();
        let leftovers = leftover_services(flows, self.last_hop, &mux, &bases, &totals);

        // The horizon cut: each staircase ends at its first riser top past
        // the port's horizon and continues at its long-term rate.  Each
        // flow's riser tops serve both the horizon and its cut.
        let tops: Vec<Vec<f64>> = if cut && staircase {
            flows
                .iter()
                .map(|f| f.envelope.extra().map_or_else(Vec::new, Curve::riser_tops))
                .collect()
        } else {
            Vec::new()
        };
        let horizon = (cut && staircase)
            .then(|| port_horizon(flows, &leftovers, &tops))
            .flatten();
        let cuts: Vec<Option<Curve>> = if staircase {
            flows
                .iter()
                .enumerate()
                .map(|(i, f)| horizon.and_then(|w| f.envelope.extra()?.horizon_cut(&tops[i], w)))
                .collect()
        } else {
            Vec::new()
        };
        if cuts.iter().any(Option::is_some) {
            horizon::record(HorizonEvent::CutPort);
        }
        let curves: Vec<Cow<'_, Curve>> = flows
            .iter()
            .zip(&cuts)
            .map(|(f, cut)| match cut {
                Some(curve) => Cow::Borrowed(curve),
                None => f.envelope.effective_curve(),
            })
            .collect();

        // Under the staircase model every class's aggregate arrival curve
        // is summed once, and both the stage bound and the left-over curves
        // borrow it; the token-bucket model keeps the closed-form path.  A
        // class's stage bound is refined only when a flow it sums carries a
        // tighter-than-token-bucket curve.
        let aggregates = match self.model {
            EnvelopeModel::TokenBucket => Vec::new(),
            EnvelopeModel::Staircase => class_aggregates(flows, &mux, &curves, &cuts),
        };
        let refine: Vec<Option<&Curve>> = aggregates
            .iter()
            .map(|a| a.has_extra.then_some(&a.curve))
            .collect();
        let stage_bounds = analyze_stage(flows, &mux, &refine, self.last_hop).map_err(&stage)?;
        let stage_exact = aggregates.iter().enumerate().all(|(class, aggregate)| {
            let delay = flows
                .iter()
                .zip(&stage_bounds)
                .find(|(f, _)| mux.clamp(f.priority) == class)
                .map(|(_, bound)| bound.delay);
            match (aggregate.has_extra, delay) {
                (true, Some(delay)) => refinement_is_exact(aggregate, &mux, class, &totals, delay),
                _ => true,
            }
        });
        if !stage_exact {
            return Ok(None);
        }
        let port_curves = match self.model {
            EnvelopeModel::TokenBucket => None,
            EnvelopeModel::Staircase => Some(
                leftover_curves(flows, &mux, &bases, &totals, &aggregates, &curves)
                    .map_err(&stage)?,
            ),
        };

        let mut results = Vec::with_capacity(flows.len());
        for ((i, flow), stage_bound) in flows.iter().enumerate().zip(stage_bounds) {
            let unstable_port = || AnalysisError::Stage {
                stage: self.name.to_string(),
                source: NcError::Unstable {
                    context: format!("left-over service of {} at {}", flow.message, self.name),
                    // The saturating quantity is the port's aggregate demand
                    // (the interfering traffic plus the flow itself), not
                    // the flow's own rate.
                    demand_bps: flows
                        .iter()
                        .map(|f| f.envelope.rate())
                        .sum::<units::DataRate>()
                        .bps(),
                    capacity_bps: self.config.link_rate.bps(),
                },
            };
            let leftover = leftovers[i].ok_or_else(unstable_port)?;
            let bucket = flow.envelope.token_bucket();
            let (flow_delay, leftover_curve) = match self.model {
                EnvelopeModel::TokenBucket => {
                    (delay_bound(&bucket, &leftover).map_err(&stage)?, None)
                }
                EnvelopeModel::Staircase => {
                    // The general blind-multiplexing left-over curve
                    // against the staircase cross traffic, same packetizer
                    // correction, same candidate-exact deviation.
                    let port_curve = &port_curves.as_ref().expect("staircase model")[i];
                    let lo = if self.last_hop[i] {
                        port_curve.clone()
                    } else {
                        let curve = packetize(&port_curve.curve, flow);
                        LeftoverCurve {
                            exact_until: exact_until(&curve, port_curve.exact_until),
                            grid_until: port_curve.grid_until,
                            curve,
                        }
                    };
                    let own = flow.envelope.effective_curve();
                    let tail = horizon::early_exit(&bucket, &leftover);
                    let h = minplus::horizontal_deviation(&own, &lo.curve, tail).map_err(&stage)?;
                    let own = (own.as_ref(), ALL_EXACT);
                    if !deviation_is_exact(own, (&lo.curve, lo.exact_until), h, &bucket, &leftover)
                    {
                        return Ok(None);
                    }
                    (Duration::from_secs_f64_ceil(h), Some(lo))
                }
            };
            results.push(PortFlowAnalysis {
                stage_delay: stage_bound.delay,
                flow_delay,
                output: stage_bound.output,
                leftover,
                leftover_curve,
            });
        }
        // The aggregate envelope is diagnostic (port occupancy in admission
        // snapshots); it feeds no bound, so deriving it here cannot perturb
        // the byte-identity of the analysis results.
        let aggregate = TokenBucket::aggregate_all(flows.iter().map(|f| f.envelope.token_bucket()));
        Ok(Some(PortAnalysis {
            aggregate,
            flows: results,
        }))
    }
}

/// A port's class aggregates on uncut curves: what a failed
/// pay-bursts-only-once certificate needs to rebuild single flows'
/// left-over curves without analysing the whole port again.
#[derive(Debug)]
pub(crate) struct UncutAggregates {
    mux: Mux,
    bases: Vec<RateLatency>,
    aggregates: Vec<ClassAggregate>,
}

impl Port<'_> {
    /// The port's class aggregates on uncut curves, summed as
    /// [`Port::analyze`] sums them without the cut.
    pub(crate) fn uncut_aggregates(&self) -> Result<UncutAggregates, AnalysisError> {
        let mux = mux_for_policy(self.flows, self.policy, self.config.link_rate, self.ttechno)
            .map_err(|source| AnalysisError::Stage {
                stage: self.name.to_string(),
                source,
            })?;
        let bases = (0..mux.class_count())
            .map(|class| mux.leftover_base(class))
            .collect();
        let curves: Vec<Cow<'_, Curve>> = self
            .flows
            .iter()
            .map(|f| f.envelope.effective_curve())
            .collect();
        let aggregates = class_aggregates(self.flows, &mux, &curves, &vec![None; curves.len()]);
        Ok(UncutAggregates {
            mux,
            bases,
            aggregates,
        })
    }
}

impl UncutAggregates {
    /// Flow `i`'s packetizer-corrected left-over curve on uncut curves,
    /// bit for bit the one [`Port::analyze`] derives without the cut.
    pub(crate) fn leftover_curve(&self, port: &Port<'_>, i: usize) -> Result<Curve, AnalysisError> {
        let flow = &port.flows[i];
        let own = self.mux.clamp(flow.priority);
        let stage = |source| AnalysisError::Stage {
            stage: port.name.to_string(),
            source,
        };
        let base = self.bases[own].curve();
        let aggregate = &self.aggregates[own];
        let (curve, _) =
            flow_leftover(&base, aggregate, &flow.envelope.effective_curve()).map_err(stage)?;
        Ok(if port.last_hop[i] {
            curve
        } else {
            packetize(&curve, flow)
        })
    }
}

/// A flow's general left-over curve on `base` against its cross traffic —
/// its class `aggregate` less its own `curve` — in one fused pass
/// ([`minplus::leftover_within`]), and how far that cross traffic is the
/// one uncut curves give.
///
/// Inside `without_cut` nothing is cut, and the cross traffic is
/// materialised before its left-over is taken, as the plain two-step
/// pass does.
fn flow_leftover(
    base: &Curve,
    aggregate: &ClassAggregate,
    curve: &Curve,
) -> Result<(Curve, f64), NcError> {
    if !horizon::shortcuts() {
        let cross = aggregate.curve.sub_envelope(curve);
        return Ok((minplus::leftover(base, &cross)?, ALL_EXACT));
    }
    let until = aggregate.exact_until;
    let (leftover, cross_until) = minplus::leftover_within(base, &aggregate.curve, curve, until)?;
    let cross_until = if until == ALL_EXACT {
        ALL_EXACT
    } else {
        cross_until
    };
    Ok((leftover, cross_until))
}

/// The store-and-forward packetizer correction `[β − l]⁺` of a left-over
/// curve at a flow's non-final hop.
fn packetize(curve: &Curve, flow: &StageFlow<'_>) -> Curve {
    curve
        .saturating_sub_const(flow.frame.as_f64_bits())
        .expect("frame sizes are finite and non-negative")
}

/// Each flow's packetizer-corrected rate-latency left-over service, `None`
/// when the rest of its queue set saturates the port.
///
/// Blind multiplexing against the rest of the flow's queue set: its total
/// minus the flow's own bucket (integer sums, so exact).  Store-and-forward
/// packetizer: a frame cannot enter the next hop's service before it is
/// *fully* received, so the fluid left-over curve of every non-final hop
/// must give up one maximum frame of the flow — `[β − l]⁺`, i.e. `l/R` of
/// extra latency (Le Boudec & Thiran §1.7.4).  Without this term the
/// convolved bound would pay the flow's own serialization only once even
/// though store-and-forward pays it per link.
fn leftover_services(
    flows: &[StageFlow<'_>],
    last_hop: &[bool],
    mux: &Mux,
    bases: &[RateLatency],
    totals: &[TokenBucket],
) -> Vec<Option<RateLatency>> {
    flows
        .iter()
        .zip(last_hop)
        .map(|(flow, &is_last)| {
            let own = mux.clamp(flow.priority);
            let leftover = bases[own].leftover(&cross_bucket(flow, &totals[own]))?;
            Some(if is_last {
                leftover
            } else {
                RateLatency::new(
                    leftover.rate(),
                    leftover.latency() + leftover.rate().transmission_time(flow.frame),
                )
            })
        })
        .collect()
}

/// The token bucket of a flow's cross traffic: its queue set's `total`
/// minus its own bucket.
fn cross_bucket(flow: &StageFlow<'_>, total: &TokenBucket) -> TokenBucket {
    let bucket = flow.envelope.token_bucket();
    TokenBucket::new(total.burst() - bucket.burst(), total.rate() - bucket.rate())
}

/// The port's horizon ([`horizon::horizon`]) from the largest per-flow
/// token-bucket delay through its left-over service and the latest second
/// riser top (`tops` holds each flow's riser tops), or `None` when a
/// left-over service does not exist (the port then fails either way).
fn port_horizon(
    flows: &[StageFlow<'_>],
    leftovers: &[Option<RateLatency>],
    tops: &[Vec<f64>],
) -> Option<f64> {
    let mut longest = Duration::ZERO;
    let mut second_top = 0.0f64;
    for ((flow, leftover), tops) in flows.iter().zip(leftovers).zip(tops) {
        let delay = delay_bound(&flow.envelope.token_bucket(), leftover.as_ref()?).ok()?;
        longest = longest.max(delay);
        second_top = second_top.max(tops.get(1).copied().unwrap_or(0.0));
    }
    Some(horizon::horizon(longest.as_secs_f64(), second_top))
}

/// One class's aggregate arrival curve (see [`class_aggregates`]).
#[derive(Debug)]
struct ClassAggregate {
    /// The sum of the class's curves, cut ones included.
    curve: Curve,
    /// Whether any flow it sums carries a tighter-than-token-bucket curve.
    has_extra: bool,
    /// How far `curve` is the sum of the uncut curves.
    exact_until: f64,
}

/// The aggregate arrival curve of every class of `mux`, each flow's curve
/// (`curves`, cut where `cuts` holds the cut) added exactly once.
///
/// A class sums the flows its closed form sums: every flow under FCFS, the
/// levels `q ≤ p` under strict priority (accumulated from
/// [`Curve::zero`] level by level), the class's own flows under WRR.
/// Within a class flows are added in input order, so every sum is
/// reproducible bit for bit.  Before the first cut it sums, the sum's grid
/// and values are those of the uncut sum.
fn class_aggregates(
    flows: &[StageFlow<'_>],
    mux: &Mux,
    curves: &[Cow<'_, Curve>],
    cuts: &[Option<Curve>],
) -> Vec<ClassAggregate> {
    let classes = mux.class_count();
    let cumulative = mux.is_cumulative();
    let mut acc = (Curve::zero(), false, ALL_EXACT);
    let mut aggregates = Vec::with_capacity(classes);
    for class in 0..classes {
        if !cumulative {
            acc = (Curve::zero(), false, ALL_EXACT);
        }
        for (i, f) in flows.iter().enumerate() {
            if mux.clamp(f.priority) != class {
                continue;
            }
            acc.0 = acc.0.add(&curves[i]);
            acc.1 |= f.envelope.has_extra();
            if let Some(cut) = &cuts[i] {
                let end = cut.points().last().expect("a curve has breakpoints").0;
                acc.2 = acc.2.min(end);
            }
        }
        // Past the first cut the sums differ; the breakpoint at the cut
        // itself is a riser top in both, but only its left neighbourhood
        // is known equal, so exactness stops before it.
        let first_cut = acc.2;
        let exact_until = if first_cut == ALL_EXACT {
            ALL_EXACT
        } else {
            exact_prefix(&acc.0, |&(x, _)| x < first_cut)
        };
        aggregates.push(ClassAggregate {
            curve: acc.0.clone(),
            has_extra: acc.1,
            exact_until,
        });
    }
    aggregates
}

/// The certificate of one class's stage refinement
/// `min(closed, ⌈h(aggregate, β)⌉)` = `delay`, computed on the cut
/// aggregate: the deviation is at least `delay − 1 ns`.  An unstable
/// deviation falls back to the closed form with or without the cut.
fn refinement_is_exact(
    aggregate: &ClassAggregate,
    mux: &Mux,
    class: usize,
    totals: &[TokenBucket],
    delay: Duration,
) -> bool {
    if aggregate.exact_until == ALL_EXACT {
        return true;
    }
    let Ok(server) = mux.residual_service(class) else {
        return true;
    };
    if aggregate.curve.long_term_rate() > server.rate().as_f64_bps() + EPS {
        return true;
    }
    let h_floor = delay.as_secs_f64() - 1e-9;
    deviation_is_exact(
        (&aggregate.curve, aggregate.exact_until),
        (&server.curve(), ALL_EXACT),
        h_floor,
        &totals[class],
        &server,
    )
}

/// The general left-over service **curves** of every flow at a port
/// ([`netcalc::minplus::leftover`]): the same blind-multiplexing
/// construction on the class's `bases` ([`Mux::leftover_base`]) as the
/// rate-latency left-over, but against the cross traffic's full
/// piecewise-linear envelopes (e.g. staircases) instead of their
/// token-bucket summaries — the cross
/// traffic's flat steps let the residual service recover faster, so the
/// served flow's deviation can only shrink.
///
/// Each flow's cross traffic is its class's aggregate from
/// [`class_aggregates`] minus its own curve, and its left-over curve is
/// taken in the same fused pass ([`flow_leftover`]), so a port costs one
/// subtraction and one left-over per flow.
///
/// A left-over curve is the right-to-left running minimum of `β − cross`.
/// Past the cross traffic's exact part that difference stays above the
/// line `β_{R,T} − γ_{cross}` with or without the cut, so a hull value
/// below that line's value there comes from the exact part: those
/// breakpoints are exact.
fn leftover_curves(
    flows: &[StageFlow<'_>],
    mux: &Mux,
    bases: &[RateLatency],
    totals: &[TokenBucket],
    aggregates: &[ClassAggregate],
    curves: &[Cow<'_, Curve>],
) -> Result<Vec<LeftoverCurve>, NcError> {
    let mut base_curves: Vec<Option<Curve>> = vec![None; bases.len()];
    flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let own = mux.clamp(f.priority);
            let base = bases[own];
            if base_curves[own].is_none() {
                base_curves[own] = Some(base.curve());
            }
            let base_curve = base_curves[own].as_ref().expect("just filled");
            let (curve, cross_until) = flow_leftover(base_curve, &aggregates[own], &curves[i])?;
            // A flow alone in its queue set has no cross traffic, cut or not.
            let bucket = cross_bucket(f, &totals[own]);
            let cross_until = if bucket.burst().is_zero() && bucket.rate().is_zero() {
                ALL_EXACT
            } else {
                cross_until
            };
            let exact_until = if cross_until == ALL_EXACT || cross_until == NOTHING_EXACT {
                cross_until
            } else {
                // Past the cross traffic's exact part, the uncut difference
                // stays above the cut one, whose running minimum from there
                // on is the cut hull's value there.
                let hull = curve.eval(cross_until);
                exact_prefix(&curve, |&(x, y)| {
                    x <= cross_until && y < hull - cut_margin(hull)
                })
            };
            Ok(LeftoverCurve {
                curve,
                exact_until,
                grid_until: cross_until,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethernet::{WrrUnit, WrrWeights};
    use netcalc::counters::OpCounters;
    use units::{DataRate, DataSize};
    use workload::MessageId;

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
    fn eight_staircase_flows() -> (NetworkConfig, Vec<StageFlow<'static>>) {
        let rate = DataRate::from_mbps(100);
        let config = NetworkConfig::paper_default().with_link_rate(rate);
        let flows = (0..8)
            .map(|i| {
                let frame = DataSize::from_bytes(64 + 150 * i as u64);
                let period = Duration::from_millis(5 << (i % 4));
                StageFlow {
                    message: MessageId(i),
                    envelope: Cow::Owned(Envelope::staircase(frame, period, rate)),
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
        // Every class with a flow is refined: one class under FCFS, three
        // under strict priority and WRR (the flows sit at priorities 0–2).
        let refined_classes = [1, 3, 3];
        for (policy, refined) in policies().iter().zip(refined_classes) {
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
            // left-over per flow; one deviation per refined class and one
            // per flow; one output envelope (its bucket intersection a
            // `combine`) per flow that goes on to a next hop.
            assert_eq!(
                (
                    after.add - before.add,
                    after.leftover - before.leftover,
                    after.sub_envelope - before.sub_envelope,
                    after.horizontal_deviation - before.horizontal_deviation,
                    after.combine - before.combine,
                ),
                (8, 8, 8, refined + 8, 4),
                "{policy:?}"
            );
            for (flow, &is_last) in analysis.flows.iter().zip(&last_hop) {
                assert_eq!(flow.output.is_none(), is_last, "{policy:?}");
            }
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
                    let own = mux.clamp(flows[index].priority);
                    let queues_with = |class: usize| {
                        if mux.is_cumulative() {
                            class <= own
                        } else {
                            class == own
                        }
                    };
                    let cross = TokenBucket::aggregate_all(
                        flows
                            .iter()
                            .enumerate()
                            .filter(|&(j, f)| j != index && queues_with(mux.clamp(f.priority)))
                            .map(|(_, f)| f.envelope.token_bucket()),
                    );
                    let expected = mux.leftover_base(own).leftover(&cross).unwrap();
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
                envelope: Cow::Owned(Envelope::staircase(frame, Duration::from_millis(5), rate)),
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
