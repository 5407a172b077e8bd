//! Multi-switch end-to-end analysis: per-hop arrival-curve propagation and
//! the pay-bursts-only-once (PBOO) bound over cascaded switches.
//!
//! The paper derives its bounds for a single full-duplex switch; this module
//! is the canonical network-calculus generalization to switch *trees* (line,
//! star-of-stars — any [`Fabric`], whose constructor enforces tree-ness).  Every flow traverses an ordered
//! sequence of output ports — its source uplink, zero or more switch-to-
//! switch trunk ports, and the final switch output port towards its
//! destination — and three end-to-end bounds are computed per flow:
//!
//! 1. **Stage sum** — the direct generalization of the single-switch
//!    composition: the paper's FCFS / strict-priority multiplexer bound at
//!    every port (each port analysed with the flows' *propagated* arrival
//!    envelopes), summed along the path.  [`analyze`](crate::analyze) *is*
//!    this walk on one switch: it reports the stage sum of
//!    [`Fabric::single_switch`].
//! 2. **Per-hop sum** — at every port, the flow's own delay through its
//!    blind-multiplexing left-over service curve
//!    ([`RateLatency::leftover`]), summed along the path.  The burst is
//!    "paid" at every hop.
//! 3. **Convolved (pay bursts only once)** — the left-over curves of all
//!    hops are convolved into one network service curve (min-plus
//!    convolution of rate-latency curves: minimum rate, summed latencies)
//!    and the *source* arrival curve is pushed through it once.  The
//!    convolved bound provably never exceeds the per-hop sum — the flow's
//!    burst term `b/R` is paid once instead of at every hop — and the gap
//!    between the two ([`MultiHopMessageBound::pboo_gain`]) is the
//!    tightness gain the campaign tracks.
//!
//! Both left-over compositions account for the **store-and-forward
//! packetizer**: a frame cannot enter a downstream element before it is
//! fully received, so every non-final hop's left-over curve gives up one
//! maximum frame of the flow (`[β − l]⁺`) — without that term a fluid
//! convolution would pay the flow's own serialization only once even though
//! store-and-forward pays it on every link.
//!
//! Arrival curves propagate between hops by min-plus deconvolution: a
//! token-bucket flow `(b, r)` that traversed an element with delay bound `D`
//! leaves it with envelope `(b + r·D, r)`
//! ([`PortFlowAnalysis::output`](crate::PortFlowAnalysis::output) carries
//! exactly that inflation).
//!
//! The reported [`MultiHopMessageBound::total_bound`] is the minimum of the
//! stage sum and the convolved bound — both are sound, neither dominates the
//! other in general (the stage sum exploits the FIFO/priority aggregate
//! formulas; the convolved bound exploits PBOO).
//!
//! ```
//! use ethernet::Fabric;
//! use rtswitch_core::{analyze_multi_hop, Approach, NetworkConfig};
//! use workload::case_study::{case_study_with, CaseStudyConfig};
//!
//! let workload = case_study_with(CaseStudyConfig {
//!     subsystems: 6,
//!     with_command_traffic: false,
//! });
//! // Two daisy-chained switches instead of the paper's single one.
//! let fabric = Fabric::line(2, workload.stations.len());
//! let report = analyze_multi_hop(
//!     &workload,
//!     &NetworkConfig::paper_default(),
//!     Approach::StrictPriority,
//!     &fabric,
//! )
//! .unwrap();
//!
//! for bound in &report.messages {
//!     // Pay-bursts-only-once: convolving the per-hop service curves never
//!     // loses to summing the per-hop delays.
//!     assert!(bound.convolved_bound <= bound.hop_sum_bound);
//!     // The reported bound is the tightest of the sound compositions.
//!     assert!(bound.total_bound <= bound.convolved_bound);
//!     assert!(bound.total_bound <= bound.stage_sum_bound);
//! }
//! ```

use crate::analysis::end_to_end::AnalysisError;
use crate::analysis::horizon::{
    self, convolution_exact_until, deviation_is_exact, minorant_exact_until, HorizonEvent,
    ALL_EXACT,
};
use crate::analysis::port::{analyze_port, LeftoverCurve, Port, UncutAggregates};
use crate::analysis::stage::StageFlow;
use crate::analysis::Approach;
use crate::config::NetworkConfig;
use ethernet::{Fabric, SchedulingPolicy};
use netcalc::{
    delay_bound, ArrivalBound, Curve, Envelope, EnvelopeModel, RateLatency, TokenBucket,
};
use serde::{Deserialize, Serialize};
use shaping::TrafficClass;
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};
use units::Duration;
use workload::{MessageId, MessageSpec, StationId, Workload};

/// One directed output port of a cascaded fabric, as seen by the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FabricPort {
    /// A station's uplink towards its switch.
    Uplink {
        /// The transmitting station index.
        station: usize,
    },
    /// A switch-to-switch trunk port.
    Trunk {
        /// The transmitting switch index.
        from: usize,
        /// The receiving switch index.
        to: usize,
    },
    /// The final switch output port towards a station.
    Down {
        /// The destination station index.
        station: usize,
    },
}

impl FabricPort {
    /// The port's relaying latency: zero at a station uplink (an end system
    /// only shapes and serializes), the switch's `t_techno` at trunk and
    /// switch output ports.
    pub fn ttechno(self, config: &NetworkConfig) -> Duration {
        match self {
            FabricPort::Uplink { .. } => Duration::ZERO,
            FabricPort::Trunk { .. } | FabricPort::Down { .. } => config.ttechno,
        }
    }
}

impl core::fmt::Display for FabricPort {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FabricPort::Uplink { station } => write!(f, "uplink[s{station}]"),
            FabricPort::Trunk { from, to } => write!(f, "trunk[sw{from}->sw{to}]"),
            FabricPort::Down { station } => write!(f, "switch-out[s{station}]"),
        }
    }
}

/// The delays one flow accumulates at one port of its path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopBound {
    /// Human-readable port name (matches the simulator's port naming).
    pub port: String,
    /// The paper's multiplexer bound at this port (shared per FCFS stage /
    /// per priority level) — the term summed into
    /// [`MultiHopMessageBound::stage_sum_bound`].
    pub stage_delay: Duration,
    /// The flow's own delay through its (packetizer-corrected) left-over
    /// service curve at this port — the term summed into
    /// [`MultiHopMessageBound::hop_sum_bound`].
    pub flow_delay: Duration,
}

/// The end-to-end bounds of one message stream over a cascaded fabric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiHopMessageBound {
    /// The message stream.
    pub message: MessageId,
    /// Message name.
    pub name: String,
    /// The paper's traffic class.
    pub class: TrafficClass,
    /// Source station.
    pub source: StationId,
    /// Destination station.
    pub destination: StationId,
    /// Application deadline.
    pub deadline: Duration,
    /// Number of links the flow traverses (uplink + trunks + delivery).
    pub links: usize,
    /// Per-port delay contributions, in traversal order.
    pub hops: Vec<HopBound>,
    /// Σ of the paper's multiplexer bounds along the path, plus propagation.
    pub stage_sum_bound: Duration,
    /// Σ of the per-flow left-over-curve delays along the path, plus
    /// propagation ("pay the burst at every hop").
    pub hop_sum_bound: Duration,
    /// The pay-bursts-only-once bound: the source envelope through the
    /// convolved network service curve, plus propagation.  Never exceeds
    /// [`MultiHopMessageBound::hop_sum_bound`].
    pub convolved_bound: Duration,
    /// The reported end-to-end bound: the minimum of the stage sum and the
    /// convolved bound (both sound).
    pub total_bound: Duration,
    /// `true` if the bound meets the deadline.
    pub meets_deadline: bool,
}

impl MultiHopMessageBound {
    /// The tightening obtained by paying the burst only once:
    /// `hop_sum_bound − convolved_bound` (zero on single-hop paths).
    pub fn pboo_gain(&self) -> Duration {
        self.hop_sum_bound.saturating_sub(self.convolved_bound)
    }

    /// The slack between the deadline and the bound (zero when violated).
    pub fn slack(&self) -> Duration {
        self.deadline.saturating_sub(self.total_bound)
    }
}

/// The complete result of analysing a workload over a cascaded fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiHopReport {
    /// Which multiplexing approach was analysed.
    pub approach: Approach,
    /// Which arrival-envelope model the flows were described by.
    pub envelope: EnvelopeModel,
    /// The network parameters used.
    pub config: NetworkConfig,
    /// The fabric the flows were routed over.
    pub fabric: Fabric,
    /// Per-message bounds, in workload message order.
    pub messages: Vec<MultiHopMessageBound>,
}

impl MultiHopReport {
    /// The bound of one message.
    pub fn bound_for(&self, message: MessageId) -> Option<&MultiHopMessageBound> {
        self.messages.iter().find(|m| m.message == message)
    }

    /// `true` when every message meets its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.messages.iter().all(|m| m.meets_deadline)
    }

    /// The messages whose deadline is violated.
    pub fn violations(&self) -> Vec<&MultiHopMessageBound> {
        self.messages.iter().filter(|m| !m.meets_deadline).collect()
    }

    /// The worst end-to-end bound among messages of a class.
    pub fn worst_bound_of_class(&self, class: TrafficClass) -> Option<Duration> {
        self.messages
            .iter()
            .filter(|m| m.class == class)
            .map(|m| m.total_bound)
            .max()
    }

    /// `true` when the pay-bursts-only-once invariant holds for every
    /// message: the convolved bound never exceeds the per-hop sum.
    pub fn pboo_consistent(&self) -> bool {
        self.messages
            .iter()
            .all(|m| m.convolved_bound <= m.hop_sum_bound)
    }

    /// The largest [`MultiHopMessageBound::pboo_gain`] across messages.
    pub fn max_pboo_gain(&self) -> Duration {
        self.messages
            .iter()
            .map(|m| m.pboo_gain())
            .fold(Duration::ZERO, Duration::max)
    }
}

/// Analyses every message of `workload` routed over `fabric` under the given
/// approach, propagating arrival curves hop by hop and computing the
/// per-hop-summed and pay-bursts-only-once end-to-end bounds.
///
/// Flows are described by their token-bucket envelopes (the paper's
/// configuration) — see [`analyze_multi_hop_with`] for the staircase
/// generalization.
///
/// # Panics
/// Panics if the fabric's station count differs from the workload's — a
/// configuration error that must fail loudly.
pub fn analyze_multi_hop(
    workload: &Workload,
    config: &NetworkConfig,
    approach: Approach,
    fabric: &Fabric,
) -> Result<MultiHopReport, AnalysisError> {
    analyze_multi_hop_with(
        workload,
        config,
        approach,
        fabric,
        EnvelopeModel::TokenBucket,
    )
}

/// [`analyze_multi_hop`] with an explicit arrival-envelope model.
///
/// Under [`EnvelopeModel::TokenBucket`] this reproduces the closed-form
/// pipeline bit for bit.  Under [`EnvelopeModel::Staircase`] every flow
/// carries the staircase of its release pattern:
///
/// * each stage bound is the minimum of the paper's closed form and the
///   horizontal deviation of the class's aggregate arrival curve
///   ([`netcalc::Mux::delay_bound`]), the aggregate summed once per port
///   by [`analyze_port`];
/// * each per-flow hop delay runs through the **general** blind-multiplexing
///   left-over curve ([`netcalc::minplus::leftover`]) with the staircase cross
///   traffic, packetizer-corrected via `[β − l]⁺`
///   ([`Curve::saturating_sub_const`]);
/// * the pay-bursts-only-once bound is the minimum of the rate-latency
///   convolution (on the token-bucket summaries) and the general min-plus
///   convolution of the left-over curves ([`netcalc::minplus::convolve`]).
///
/// Every staircase-model bound is therefore at most its token-bucket
/// counterpart, and the PBOO invariant `convolved ≤ per-hop sum` is
/// preserved within each model.
///
/// # Panics
/// Panics if the fabric's station count differs from the workload's — a
/// configuration error that must fail loudly.
pub fn analyze_multi_hop_with(
    workload: &Workload,
    config: &NetworkConfig,
    approach: Approach,
    fabric: &Fabric,
    model: EnvelopeModel,
) -> Result<MultiHopReport, AnalysisError> {
    assert_eq!(
        fabric.station_count(),
        workload.stations.len(),
        "fabric and workload disagree on the station count"
    );
    let policy = approach.scheduling_policy(config.priority_levels);

    // The ordered port sequence of every message.
    let paths: Vec<Vec<FabricPort>> = workload
        .messages
        .iter()
        .map(|spec| flow_ports(fabric, spec.source.0, spec.destination.0))
        .collect();

    let path_slices: Vec<&[FabricPort]> = paths.iter().map(Vec::as_slice).collect();
    let (port_flows, order) = port_schedule(&path_slices);

    // Walk the ports in dependency order, carrying each flow's current
    // envelope and accumulating its per-hop delays and left-over curves.
    let mut envelope: Vec<Envelope> = workload
        .messages
        .iter()
        .map(|spec| spec.arrival_envelope(model, config.link_rate))
        .collect();
    let mut hop_records: Vec<Vec<HopBound>> = vec![Vec::new(); workload.messages.len()];
    let mut leftovers: Vec<Vec<RateLatency>> = vec![Vec::new(); workload.messages.len()];
    // The general left-over curves of the staircase model (empty under the
    // token-bucket model), and each port's inputs, which a message whose
    // pay-bursts-only-once certificate fails analyses again without the cut.
    let mut leftover_curves: Vec<Vec<LeftoverCurve>> = vec![Vec::new(); workload.messages.len()];
    let mut port_inputs: BTreeMap<FabricPort, (Vec<StageFlow>, Vec<bool>)> = BTreeMap::new();

    for &port in &order {
        let flows_here = &port_flows[&port];
        let stage_flows: Vec<StageFlow> = flows_here
            .iter()
            .map(|&msg| StageFlow {
                message: MessageId(msg),
                envelope: envelope[msg].clone(),
                priority: workload.messages[msg].priority(),
                frame: workload.messages[msg].frame_size(),
            })
            .collect();
        let last_hop: Vec<bool> = flows_here
            .iter()
            .map(|&msg| hop_records[msg].len() + 1 == paths[msg].len())
            .collect();
        let port_name = port.to_string();
        let analysis = analyze_port(
            &stage_flows,
            &last_hop,
            &policy,
            config,
            port.ttechno(config),
            model,
            &port_name,
        )?;

        for (i, &msg) in flows_here.iter().enumerate() {
            let pf = &analysis.flows[i];
            hop_records[msg].push(HopBound {
                port: port_name.clone(),
                stage_delay: pf.stage_delay,
                flow_delay: pf.flow_delay,
            });
            leftovers[msg].push(pf.leftover);
            if let Some(curve) = &pf.leftover_curve {
                leftover_curves[msg].push(curve.clone());
            }
            // Propagate: the envelope entering the next hop is the output
            // envelope of this one (min-plus deconvolution, burst inflated
            // by this element's delay bound; staircase extras shift left).
            // A last hop has none, and nothing reads the envelope after it.
            if let Some(output) = &pf.output {
                envelope[msg] = output.clone();
            }
        }
        if model == EnvelopeModel::Staircase {
            port_inputs.insert(port, (stage_flows, last_hop));
        }
    }

    // Compose the three end-to-end bounds per message.
    let walk = Walk::new(&policy, config, model);
    let messages = workload
        .messages
        .iter()
        .enumerate()
        .map(|(msg, spec)| {
            let hops = std::mem::take(&mut hop_records[msg]);
            let path = &paths[msg];
            compose_end_to_end(
                spec,
                path,
                hops,
                &leftovers[msg],
                &leftover_curves[msg],
                &walk,
                |k| {
                    let (flows, last_hop) = &port_inputs[&path[k]];
                    PortInputs {
                        flows: flows.clone(),
                        last_hop: last_hop.clone(),
                    }
                },
            )
        })
        .collect::<Result<Vec<_>, AnalysisError>>()?;

    Ok(MultiHopReport {
        approach,
        envelope: model,
        config: *config,
        fabric: fabric.clone(),
        messages,
    })
}

/// The ordered port sequence of one flow over `fabric`: its source uplink,
/// the trunk ports along the switch path, and the final switch output port
/// towards its destination.
///
/// This is the route walk the admission engine uses to compute which cache
/// entries a flow mutation touches.
pub fn flow_ports(fabric: &Fabric, source: usize, destination: usize) -> Vec<FabricPort> {
    let switches = fabric.switch_path(source, destination);
    let mut ports = Vec::with_capacity(switches.len() + 1);
    ports.push(FabricPort::Uplink { station: source });
    for pair in switches.windows(2) {
        ports.push(FabricPort::Trunk {
            from: pair[0],
            to: pair[1],
        });
    }
    ports.push(FabricPort::Down {
        station: destination,
    });
    ports
}

/// The flows crossing every port (indices into `paths`, in input order) and
/// a deterministic topological order of the ports: a flow's hop `k` always
/// precedes its hop `k+1`, because the envelope entering hop `k+1` is the
/// output envelope of hop `k`.
///
/// `BTreeMap`s keep the iteration order — and therefore every float
/// accumulation of the analyses that walk this schedule — deterministic.
///
/// # Panics
/// Panics on cyclic port dependencies, which can only arise from routing
/// over a cyclic switch graph — the tree builders never produce one.
pub fn port_schedule(
    paths: &[&[FabricPort]],
) -> (BTreeMap<FabricPort, Vec<usize>>, Vec<FabricPort>) {
    let mut port_flows: BTreeMap<FabricPort, Vec<usize>> = BTreeMap::new();
    let mut indegree: BTreeMap<FabricPort, usize> = BTreeMap::new();
    let mut successors: BTreeMap<FabricPort, Vec<FabricPort>> = BTreeMap::new();
    for (msg, path) in paths.iter().enumerate() {
        for (k, &port) in path.iter().enumerate() {
            if k == 0 {
                port_flows.entry(port).or_default().push(msg);
            } else {
                // Record the flow once per port (a simple path never repeats
                // a directed port).
                port_flows.entry(port).or_default().push(msg);
                let prev = path[k - 1];
                successors.entry(prev).or_default().push(port);
                *indegree.entry(port).or_default() += 1;
            }
            indegree.entry(port).or_default();
        }
    }

    // Kahn's topological sort over the ports, always taking the greatest
    // ready port next.  Switch trees always admit one; a cyclic dependency
    // can only arise from routing over a cyclic switch graph, which the
    // tree builders never produce.
    let mut ready: BinaryHeap<FabricPort> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&p, _)| p)
        .collect();
    let mut order: Vec<FabricPort> = Vec::with_capacity(indegree.len());
    while let Some(port) = ready.pop() {
        order.push(port);
        if let Some(next) = successors.get(&port) {
            for &succ in next {
                let d = indegree.get_mut(&succ).expect("successor is a port");
                *d -= 1;
                if *d == 0 {
                    ready.push(succ);
                }
            }
        }
    }
    assert_eq!(
        order.len(),
        indegree.len(),
        "cyclic port dependencies: the fabric's switch graph is not a tree"
    );
    (port_flows, order)
}

/// What every port of one analysis walk shares: the settings it analyses
/// a port with, and the ports a failed pay-bursts-only-once certificate
/// sent through again on uncut curves, kept for the walk's other messages.
#[derive(Debug)]
pub struct Walk<'a> {
    policy: &'a SchedulingPolicy,
    config: &'a NetworkConfig,
    model: EnvelopeModel,
    uncut: RefCell<BTreeMap<FabricPort, (PortInputs, UncutAggregates)>>,
}

impl<'a> Walk<'a> {
    /// A walk analysing every port under `policy` and `model`.
    pub fn new(
        policy: &'a SchedulingPolicy,
        config: &'a NetworkConfig,
        model: EnvelopeModel,
    ) -> Self {
        Walk {
            policy,
            config,
            model,
            uncut: RefCell::new(BTreeMap::new()),
        }
    }

    /// `message`'s left-over curve at `port` on uncut curves, summing the
    /// port's uncut class aggregates from `inputs()` unless the walk
    /// already did.
    fn uncut_leftover(
        &self,
        port: FabricPort,
        message: MessageId,
        inputs: impl FnOnce() -> PortInputs,
    ) -> Result<Curve, AnalysisError> {
        let mut uncut = self.uncut.borrow_mut();
        let name = port.to_string();
        let (inputs, aggregates) = match uncut.entry(port) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let inputs = inputs();
                let aggregates = self.port(port, &name, &inputs).uncut_aggregates()?;
                entry.insert((inputs, aggregates))
            }
        };
        let i = inputs
            .flows
            .iter()
            .position(|f| f.message == message)
            .expect("a message crosses every port of its path");
        aggregates.leftover_curve(&self.port(port, &name, inputs), i)
    }

    /// `port` of the walk with the given inputs.
    fn port<'p>(&'p self, port: FabricPort, name: &'p str, inputs: &'p PortInputs) -> Port<'p> {
        Port {
            flows: &inputs.flows,
            last_hop: &inputs.last_hop,
            policy: self.policy,
            config: self.config,
            ttechno: port.ttechno(self.config),
            model: self.model,
            name,
        }
    }
}

/// One port of a message's path as the walk analysed it: every flow
/// crossing it, in the walk's order, each with its envelope there.
#[derive(Debug, Clone)]
pub struct PortInputs {
    /// The flows crossing the port.
    pub flows: Vec<StageFlow>,
    /// Whether the port is each flow's final hop.
    pub last_hop: Vec<bool>,
}

/// Composes one flow's end-to-end bounds from its per-hop results: the
/// stage sum, the per-hop sum, and the pay-bursts-only-once convolution of
/// the hop left-over curves, plus per-link propagation.
///
/// `hops`, `leftovers` and (under the staircase model) `leftover_curves`
/// are the flow's per-port results along `path` — exactly what
/// [`analyze_port`] yields hop by hop, whether the hops were freshly
/// computed or served from an admission cache.
///
/// The left-over curves come from horizon-cut curves.  When the
/// pay-bursts-only-once deviation on them cannot be certified equal to the
/// deviation on uncut curves, the flow's left-over curve at every hop whose
/// curve is not wholly exact is rebuilt on uncut curves — from the port's
/// uncut class aggregates, summed once per port and `walk` from the inputs
/// `port_inputs(k)` returns for hop `k` — and the deviation is taken on
/// those curves.  The from-scratch walk and the admission engine both
/// compose through here, so their bounds agree bit for bit.
pub fn compose_end_to_end(
    spec: &MessageSpec,
    path: &[FabricPort],
    hops: Vec<HopBound>,
    leftovers: &[RateLatency],
    leftover_curves: &[LeftoverCurve],
    walk: &Walk<'_>,
    mut port_inputs: impl FnMut(usize) -> PortInputs,
) -> Result<MultiHopMessageBound, AnalysisError> {
    let (config, model) = (walk.config, walk.model);
    let links = path.len();
    let propagation = config.propagation * links as u64;
    let stage_sum: Duration = hops.iter().map(|h| h.stage_delay).sum();
    let hop_sum: Duration = hops.iter().map(|h| h.flow_delay).sum();
    let source_envelope = TokenBucket::new(spec.frame_size(), spec.shaper_rate());
    let network = leftovers[1..]
        .iter()
        .fold(leftovers[0], |acc, s| acc.concatenate(s));
    let convolved_path = |source| AnalysisError::Stage {
        stage: format!("convolved path of {}", spec.name),
        source,
    };
    let mut convolved = delay_bound(&source_envelope, &network).map_err(convolved_path)?;
    if model == EnvelopeModel::Staircase {
        // Pay bursts only once on the general curves: convolve the
        // per-hop left-over curves and push the staircase source
        // envelope through the result once.  Each hop contributes
        // its convex minorant — a sound (smaller) service curve
        // that keeps the early-service gain of the staircase cross
        // traffic while convolving in near-linear time, so long
        // paths stay cheap.  Both convolution routes are sound, so
        // the reported bound is their minimum (which also absorbs
        // float noise in the curve route on degenerate-staircase
        // flows).
        let source = spec.arrival_envelope(model, config.link_rate);
        let (source_curve, source_bucket) = (source.curve(), source.token_bucket());
        let tail = horizon::early_exit(&source_bucket, &network);
        let (curve, exact) = network_curve(leftover_curves);
        let mut h = netcalc::minplus::horizontal_deviation(&source_curve, &curve, tail)
            .map_err(convolved_path)?;
        let certified = deviation_is_exact(
            (&source_curve, ALL_EXACT),
            (&curve, exact),
            h,
            &source_bucket,
            &network,
        );
        if !certified {
            horizon::record(HorizonEvent::PathFallback);
            let uncut = leftover_curves
                .iter()
                .enumerate()
                .map(|(k, curve)| {
                    if curve.exact_until == ALL_EXACT {
                        Ok(curve.clone())
                    } else {
                        let curve = walk.uncut_leftover(path[k], spec.id, || port_inputs(k))?;
                        Ok(LeftoverCurve {
                            curve,
                            exact_until: ALL_EXACT,
                            grid_until: ALL_EXACT,
                        })
                    }
                })
                .collect::<Result<Vec<_>, AnalysisError>>()?;
            let (curve, _) = network_curve(&uncut);
            h = netcalc::minplus::horizontal_deviation(&source_curve, &curve, tail)
                .map_err(convolved_path)?;
        }
        convolved = convolved.min(Duration::from_secs_f64_ceil(h));
        // The per-hop delays run on the *full* left-over hulls
        // while the convolution runs on their convex minorants, so
        // the textbook `convolved ≤ per-hop sum` comparison mixes
        // two curve families.  Every term is an independently
        // sound end-to-end bound, so clamping restores the PBOO
        // invariant without giving up tightness anywhere.
        convolved = convolved.min(hop_sum);
    }
    let stage_sum_bound = stage_sum + propagation;
    let hop_sum_bound = hop_sum + propagation;
    let convolved_bound = convolved + propagation;
    let total_bound = stage_sum_bound.min(convolved_bound);
    Ok(MultiHopMessageBound {
        message: spec.id,
        name: spec.name.clone(),
        class: spec.traffic_class(),
        source: spec.source,
        destination: spec.destination,
        deadline: spec.deadline,
        links,
        hops,
        stage_sum_bound,
        hop_sum_bound,
        convolved_bound,
        total_bound,
        meets_deadline: total_bound <= spec.deadline,
    })
}

/// The pay-bursts-only-once network curve: the convolution of every hop's
/// left-over curve's convex minorant, and how far it is the one uncut
/// curves give.
///
/// Each minorant is exact along the hull edges both left-over curves keep
/// ([`minorant_exact_until`]); a convolution of convex curves concatenates
/// their segments in slope order, so it is exact along its segments no
/// steeper than every operand's last exact one.
fn network_curve(curves: &[LeftoverCurve]) -> (Curve, f64) {
    let minorant = |k: usize| {
        let m = curves[k].curve.convex_minorant();
        let exact = minorant_exact_until(&m, &curves[k]);
        (m, exact)
    };
    let (mut acc, mut exact) = minorant(0);
    for k in 1..curves.len() {
        let (m, m_exact) = minorant(k);
        let conv = netcalc::minplus::convolve(&acc, &m);
        exact = convolution_exact_until((&acc, exact), (&m, m_exact), &conv);
        acc = conv;
    }
    (acc, exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::end_to_end::analyze;
    use netcalc::NcError;
    use units::{DataRate, DataSize};
    use workload::case_study::{case_study_with, CaseStudyConfig};
    use workload::Arrival;

    fn small_workload() -> Workload {
        case_study_with(CaseStudyConfig {
            subsystems: 6,
            with_command_traffic: true,
        })
    }

    fn fast_config() -> NetworkConfig {
        NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(100))
    }

    fn wrr_approach() -> Approach {
        Approach::Wrr {
            weights: ethernet::WrrWeights::new(&[6000, 3000, 1518, 1518], ethernet::WrrUnit::Bytes),
        }
    }

    #[test]
    fn single_switch_stage_sum_matches_the_paper_analysis() {
        let w = small_workload();
        let cfg = NetworkConfig::paper_default();
        let fabric = Fabric::single_switch(w.stations.len());
        for approach in [Approach::Fcfs, Approach::StrictPriority, wrr_approach()] {
            let flat = analyze(&w, &cfg, approach).unwrap();
            let multi = analyze_multi_hop(&w, &cfg, approach, &fabric).unwrap();
            assert_eq!(flat.messages.len(), multi.messages.len());
            for (a, b) in flat.messages.iter().zip(multi.messages.iter()) {
                assert_eq!(b.links, 2);
                assert_eq!(b.hops.len(), 2);
                assert_eq!(
                    (a.message, &a.name, a.class, a.source, a.destination),
                    (b.message, &b.name, b.class, b.source, b.destination)
                );
                assert_eq!(a.deadline, b.deadline);
                assert_eq!(a.source_bound, b.hops[0].stage_delay, "{}", a.name);
                assert_eq!(a.switch_bound, b.hops[1].stage_delay, "{}", a.name);
                assert_eq!(
                    a.total_bound, b.stage_sum_bound,
                    "{}: analyze() reports the single-switch stage sum",
                    a.name
                );
                assert_eq!(a.meets_deadline, a.total_bound <= a.deadline);
            }
        }
    }

    #[test]
    fn pboo_invariant_holds_on_cascades() {
        let w = small_workload();
        let cfg = fast_config();
        for fabric in [
            Fabric::single_switch(w.stations.len()),
            Fabric::line(2, w.stations.len()),
            Fabric::line(3, w.stations.len()),
            Fabric::star_of_stars(2, w.stations.len()),
            Fabric::star_of_stars(3, w.stations.len()),
        ] {
            for approach in [Approach::Fcfs, Approach::StrictPriority, wrr_approach()] {
                let report = analyze_multi_hop(&w, &cfg, approach, &fabric).unwrap();
                assert!(
                    report.pboo_consistent(),
                    "{approach} on {} switches violated PBOO",
                    fabric.switch_count()
                );
                for m in &report.messages {
                    assert!(m.convolved_bound <= m.hop_sum_bound);
                    assert!(m.total_bound <= m.convolved_bound);
                    assert!(m.total_bound <= m.stage_sum_bound);
                    assert!(m.total_bound > Duration::ZERO);
                    assert_eq!(m.hops.len(), m.links);
                }
            }
        }
    }

    #[test]
    fn pboo_gain_is_strict_on_long_paths() {
        // A flow crossing 3 switches pays its burst once instead of four
        // times: the convolved bound must be strictly tighter than the
        // per-hop sum for flows with at least one trunk hop.
        let w = small_workload();
        let report = analyze_multi_hop(
            &w,
            &fast_config(),
            Approach::StrictPriority,
            &Fabric::line(3, w.stations.len()),
        )
        .unwrap();
        let long: Vec<_> = report.messages.iter().filter(|m| m.links >= 3).collect();
        assert!(!long.is_empty(), "expected multi-trunk flows in the line");
        for m in long {
            assert!(
                m.pboo_gain() > Duration::ZERO,
                "{} ({} links) gained nothing from PBOO",
                m.name,
                m.links
            );
        }
        assert!(report.max_pboo_gain() > Duration::ZERO);
    }

    #[test]
    fn more_switches_mean_larger_bounds() {
        let w = small_workload();
        let cfg = fast_config();
        let one = analyze_multi_hop(
            &w,
            &cfg,
            Approach::StrictPriority,
            &Fabric::single_switch(w.stations.len()),
        )
        .unwrap();
        let three = analyze_multi_hop(
            &w,
            &cfg,
            Approach::StrictPriority,
            &Fabric::line(3, w.stations.len()),
        )
        .unwrap();
        // Every flow that actually crosses a trunk pays for the extra hops.
        for (a, b) in one.messages.iter().zip(three.messages.iter()) {
            if b.links > 2 {
                assert!(b.total_bound > a.total_bound, "{}", a.name);
            }
        }
    }

    #[test]
    fn overloaded_trunk_is_reported_by_name() {
        // Two stations on each of two switches; everything converges on
        // station 0, so the trunk sw1->sw0 carries all of switch 1's
        // traffic.  At 10 Mbps with ~12 Mbps of demand the trunk (and the
        // uplink) overloads — the error must name a concrete port.
        let mut w = Workload::new();
        let sink = w.add_station("sink");
        let _local = w.add_station("local");
        let remote = w.add_station("remote");
        let remote2 = w.add_station("remote-2");
        for (i, s) in [remote, remote2].into_iter().enumerate() {
            w.add_message(
                format!("flood-{i}"),
                s,
                sink,
                DataSize::from_bytes(1400),
                Arrival::Periodic {
                    period: Duration::from_millis(2),
                },
                Duration::from_millis(100),
            );
        }
        let fabric = Fabric::line(2, w.stations.len());
        let err = analyze_multi_hop(&w, &NetworkConfig::paper_default(), Approach::Fcfs, &fabric)
            .unwrap_err();
        let AnalysisError::Stage { stage, source } = err;
        assert!(
            stage.contains("trunk") || stage.contains("uplink") || stage.contains("switch-out"),
            "unexpected stage name {stage}"
        );
        assert!(matches!(source, NcError::Unstable { .. }));
    }

    #[test]
    fn deadline_verdicts_and_lookup_helpers() {
        let w = small_workload();
        let report = analyze_multi_hop(
            &w,
            &fast_config(),
            Approach::StrictPriority,
            &Fabric::line(2, w.stations.len()),
        )
        .unwrap();
        assert!(report.all_deadlines_met(), "{:?}", report.violations());
        assert!(report.bound_for(MessageId(0)).is_some());
        assert!(report.bound_for(MessageId(999)).is_none());
        let urgent = report
            .worst_bound_of_class(TrafficClass::UrgentSporadic)
            .unwrap();
        assert!(urgent > Duration::ZERO);
        let m = &report.messages[0];
        assert_eq!(m.slack(), m.deadline.saturating_sub(m.total_bound));
    }

    #[test]
    fn propagation_is_paid_once_per_link() {
        let w = small_workload();
        let cfg = fast_config().with_propagation(Duration::from_micros(1));
        let base = fast_config();
        let with_prop = analyze_multi_hop(
            &w,
            &cfg,
            Approach::StrictPriority,
            &Fabric::line(2, w.stations.len()),
        )
        .unwrap();
        let without = analyze_multi_hop(
            &w,
            &base,
            Approach::StrictPriority,
            &Fabric::line(2, w.stations.len()),
        )
        .unwrap();
        for (a, b) in with_prop.messages.iter().zip(without.messages.iter()) {
            let expected = Duration::from_micros(a.links as u64);
            assert_eq!(a.convolved_bound, b.convolved_bound + expected);
        }
    }

    #[test]
    fn multi_hop_bounds_are_sound_against_the_cascaded_simulator() {
        use crate::validation::{sim_config_for, validation_from_bound_lookup};
        let w = small_workload();
        let cfg = fast_config();
        for fabric in [
            Fabric::line(2, w.stations.len()),
            Fabric::line(3, w.stations.len()),
            Fabric::star_of_stars(2, w.stations.len()),
        ] {
            for approach in [Approach::Fcfs, Approach::StrictPriority, wrr_approach()] {
                let report = analyze_multi_hop(&w, &cfg, approach, &fabric).unwrap();
                for seed in [1u64, 7] {
                    let sim = netsim::Simulator::with_fabric(
                        w.clone(),
                        sim_config_for(approach, &cfg, Duration::from_millis(320), seed),
                        fabric.clone(),
                    )
                    .run();
                    let validation = validation_from_bound_lookup(
                        &w,
                        |id| report.bound_for(id).map(|b| b.total_bound),
                        sim,
                    );
                    assert!(
                        validation.all_sound(),
                        "{approach}, {} switches, seed {seed}: {:?}",
                        fabric.switch_count(),
                        validation
                            .violations()
                            .iter()
                            .map(|v| (&v.name, v.observed_worst, v.bound))
                            .collect::<Vec<_>>()
                    );
                    assert!(validation.entries.iter().any(|e| e.samples > 0));
                }
            }
        }
    }

    #[test]
    fn fabric_port_display_matches_simulator_names() {
        assert_eq!(FabricPort::Uplink { station: 3 }.to_string(), "uplink[s3]");
        assert_eq!(
            FabricPort::Trunk { from: 0, to: 1 }.to_string(),
            "trunk[sw0->sw1]"
        );
        assert_eq!(
            FabricPort::Down { station: 0 }.to_string(),
            "switch-out[s0]"
        );
    }
}
