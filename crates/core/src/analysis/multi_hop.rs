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
//!    ([`RateLatency::leftover`](netcalc::RateLatency::leftover)), summed
//!    along the path.  The burst is "paid" at every hop.
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
//! leaves it with envelope `(b + r·D, r)`: each port's analysis inflates
//! the burst by exactly that delay.
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
use crate::analysis::port::{
    analyze_port, LeftoverCurve, Port, PortAnalysis, PortFlowAnalysis, UncutAggregates,
};
use crate::analysis::stage::StageFlow;
use crate::analysis::Approach;
use crate::config::NetworkConfig;
use ethernet::{Fabric, SchedulingPolicy};
use netcalc::{delay_bound, Curve, Envelope, EnvelopeModel, TokenBucket};
use serde::{Deserialize, Serialize};
use shaping::TrafficClass;
use std::borrow::Cow;
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
///   ([`netcalc::Mux::delay_bound`]), the aggregate summed once per port;
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
/// This is [`walk_ports`] over every flow, with every port recomputed and
/// nothing cached.
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
    let paths: Vec<Vec<FabricPort>> = workload
        .messages
        .iter()
        .map(|spec| flow_ports(fabric, spec.source.0, spec.destination.0))
        .collect();
    let flow = |i: usize| WalkFlow {
        key: i,
        index: i,
        path: &paths[i],
        spec: Cow::Borrowed(&workload.messages[i]),
    };
    let flows: Vec<WalkFlow<'_, usize>> = (0..paths.len()).map(flow).collect();
    let walk = walk_ports(
        &flows,
        flow,
        |_| true,
        &BTreeMap::new(),
        &approach.scheduling_policy(config.priority_levels),
        config,
        model,
    )?;
    Ok(MultiHopReport {
        approach,
        envelope: model,
        config: *config,
        fabric: fabric.clone(),
        messages: walk.bounds.into_iter().map(|(_, bound)| bound).collect(),
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

/// One port's results as a walk left them: what every flow crossing it
/// accrued there, and the port's aggregate token-bucket arrival envelope.
///
/// A later [`walk_ports`] reads them from its `cache` instead of analysing
/// the port again.
#[derive(Debug, Clone)]
pub struct PortResults<K> {
    keys: Vec<K>,
    analysis: PortAnalysis,
}

impl<K> PortResults<K> {
    /// The flows crossing the port, by the keys the walk was given, in the
    /// walk's flow order.
    pub fn flows(&self) -> &[K] {
        &self.keys
    }

    /// The aggregate token-bucket arrival envelope of the port's flows.
    pub fn aggregate(&self) -> TokenBucket {
        self.analysis.aggregate
    }

    /// The place of flow `key` among the port's flows.
    fn slot(&self, key: K) -> usize
    where
        K: PartialEq,
    {
        self.keys
            .iter()
            .position(|flow| *flow == key)
            .expect("a port lists every flow crossing it")
    }
}

/// What one [`walk_ports`] derived.
#[derive(Debug)]
pub struct WalkResults<K> {
    /// The results of every recomputed port, in the order the walk
    /// analysed them.
    pub ports: Vec<(FabricPort, PortResults<K>)>,
    /// The end-to-end bound of every flow crossing a recomputed port, by its
    /// key, in the walk's flow order.
    pub bounds: Vec<(K, MultiHopMessageBound)>,
}

/// One flow as the analysis walk sees it.
#[derive(Debug, Clone)]
pub struct WalkFlow<'w, K> {
    /// The key port results list the flow by.
    pub key: K,
    /// The flow's place in registration order: the message index of the
    /// equivalent workload, which its error labels carry.
    pub index: usize,
    /// The ports the flow crosses, in order.
    pub path: &'w [FabricPort],
    /// The flow's message spec.
    pub spec: Cow<'w, MessageSpec>,
}

/// The analysis walk: analyses the ports `recompute` selects in a
/// deterministic topological order, reads every other port's results from
/// `cache`, and composes the end-to-end bounds of every flow that crosses a
/// recomputed port.
///
/// `flows` holds exactly the flows crossing a recomputed port, in
/// registration order.  They include every occupant of a recomputed port,
/// so the schedule of their paths lists each such port's whole flow set in
/// registration order, and every ordering edge between two recomputed
/// ports.  The walk reads any other flow only through `lookup`, which gives
/// a flow's place, path and spec by its key; only the pay-bursts-only-once
/// fallback calls it, when it rebuilds a port's inputs.  The recomputed
/// ports must be closed downstream — every later port on the path of a
/// flow crossing one is recomputed too — so a flow's recomputed hops are a
/// suffix of its path, and every port before them must be in `cache` with
/// the flows it has now.
///
/// [`analyze_multi_hop_with`] passes every flow and recomputes every port
/// with an empty cache; the admission engine passes the flows its dirty
/// closure's ports list, recomputes the closure and reads the rest from its
/// cache.  Both therefore run one code path, and the engine's bounds equal
/// a from-scratch analysis bit for bit.
///
/// # Panics
/// Panics when a port before a recomputed one is not cached, or a cached
/// port follows a recomputed one on a flow's path.
pub fn walk_ports<'w, K: Copy + PartialEq>(
    flows: &[WalkFlow<'w, K>],
    lookup: impl Fn(K) -> WalkFlow<'w, K>,
    recompute: impl Fn(FabricPort) -> bool,
    cache: &BTreeMap<FabricPort, PortResults<K>>,
    policy: &SchedulingPolicy,
    config: &NetworkConfig,
    model: EnvelopeModel,
) -> Result<WalkResults<K>, AnalysisError> {
    debug_assert!(
        flows.windows(2).all(|pair| pair[0].index < pair[1].index),
        "a walk's flows come in registration order"
    );
    debug_assert!(
        flows
            .iter()
            .all(|flow| flow.path.iter().any(|&port| recompute(port))),
        "every flow a walk is given crosses a recomputed port"
    );
    let paths: Vec<&[FabricPort]> = flows.iter().map(|flow| flow.path).collect();
    let mut schedule = port_schedule(&paths);
    let sources: Vec<Envelope> = flows
        .iter()
        .map(|flow| flow.spec.arrival_envelope(model, config.link_rate))
        .collect();

    // Every port before a flow's recomputed suffix is read from the cache,
    // where the flow has its place among all of the port's flows.
    let mut results: Vec<Option<Cow<'_, PortResults<K>>>> = schedule
        .ports
        .iter()
        .map(|&port| {
            (!recompute(port)).then(|| {
                Cow::Borrowed(
                    cache
                        .get(&port)
                        .expect("a port before a recomputed one is cached"),
                )
            })
        })
        .collect();
    for (j, hops) in schedule.hops.iter_mut().enumerate() {
        let key = flows[j].key;
        let mut recomputed = false;
        for (port, slot) in hops {
            match &results[*port] {
                Some(cached) => {
                    assert!(!recomputed, "the recomputed ports are closed downstream");
                    *slot = cached.slot(key);
                }
                None => recomputed = true,
            }
        }
    }

    // Analyse the recomputed ports in dependency order: a flow enters its
    // first hop with its source envelope and every later one with the
    // output envelope of the hop before.
    for &id in &schedule.order {
        if results[id].is_some() {
            continue;
        }
        let port = schedule.ports[id];
        let crossings = &schedule.crossings[id];
        let analysis = {
            let (inputs, last_hop): (Vec<StageFlow<'_>>, Vec<bool>) = crossings
                .iter()
                .map(|&(j, k)| {
                    let envelope = match k.checked_sub(1) {
                        None => &sources[j],
                        Some(before) => {
                            let (port, slot) = schedule.hops[j][before];
                            output(at(&results, port), slot)
                        }
                    };
                    let flow = StageFlow {
                        message: MessageId(flows[j].index),
                        envelope: Cow::Borrowed(envelope),
                        priority: flows[j].spec.priority(),
                        frame: flows[j].spec.frame_size(),
                    };
                    (flow, k + 1 == paths[j].len())
                })
                .unzip();
            analyze_port(
                &inputs,
                &last_hop,
                policy,
                config,
                port.ttechno(config),
                model,
                &port.to_string(),
            )?
        };
        let keys = crossings.iter().map(|&(j, _)| flows[j].key).collect();
        results[id] = Some(Cow::Owned(PortResults { keys, analysis }));
    }

    let bounds = {
        let walk = Walk {
            policy,
            config,
            model,
            lookup: &lookup,
            index: &schedule.index,
            results: &results,
            cache,
            uncut: RefCell::new(BTreeMap::new()),
        };
        flows
            .iter()
            .zip(&sources)
            .enumerate()
            .map(|(j, (flow, source))| {
                let per_hop: Vec<&PortFlowAnalysis> = schedule.hops[j]
                    .iter()
                    .map(|&(port, slot)| &at(&results, port).analysis.flows[slot])
                    .collect();
                let bound =
                    compose_end_to_end(&flow.spec, flow.index, flow.path, &per_hop, source, &walk)?;
                Ok((flow.key, bound))
            })
            .collect::<Result<Vec<_>, AnalysisError>>()?
    };
    let ports = schedule
        .order
        .iter()
        .filter_map(|&id| match results[id].take()? {
            Cow::Owned(results) => Some((schedule.ports[id], results)),
            Cow::Borrowed(_) => None,
        })
        .collect();
    Ok(WalkResults { ports, bounds })
}

/// Port `port`'s results in a walk, once analysed or read from the cache.
fn at<'r, K: Clone>(
    results: &'r [Option<Cow<'_, PortResults<K>>>],
    port: usize,
) -> &'r PortResults<K> {
    results[port]
        .as_deref()
        .expect("a port's predecessors are analysed or cached before it")
}

/// The output envelope the flow at `slot` leaves `port` with.
fn output<K>(port: &PortResults<K>, slot: usize) -> &Envelope {
    port.analysis.flows[slot]
        .output
        .as_ref()
        .expect("a flow's port before its last hop keeps its output envelope")
}

/// The ports a walk's paths cross, numbered in the order the paths first
/// cross them.
#[derive(Debug, Default)]
struct Schedule {
    /// Every port, by number.
    ports: Vec<FabricPort>,
    /// Each port's number.
    index: BTreeMap<FabricPort, usize>,
    /// The flows crossing each port as `(flow, hop)` pairs, in flow order.
    crossings: Vec<Vec<(usize, usize)>>,
    /// Each flow's path as `(port, slot)` pairs: the port's number and the
    /// flow's place among the port's crossings.
    hops: Vec<Vec<(usize, usize)>>,
    /// The port numbers in topological order.
    order: Vec<usize>,
}

/// The ports `paths` cross and a deterministic topological order of them: a
/// flow's hop `k` always precedes its hop `k+1`, because the envelope
/// entering hop `k+1` is the output envelope of hop `k`.  Of the ports ready
/// next, the greatest comes first, so the order — and with it every float
/// accumulation of the walk — is deterministic.
///
/// # Panics
/// Panics on cyclic port dependencies, which can only arise from routing
/// over a cyclic switch graph — the tree builders never produce one.
fn port_schedule(paths: &[&[FabricPort]]) -> Schedule {
    let mut schedule = Schedule::default();
    let mut indegree: Vec<usize> = Vec::new();
    let mut successors: Vec<Vec<usize>> = Vec::new();
    for (flow, path) in paths.iter().enumerate() {
        let mut hops: Vec<(usize, usize)> = Vec::with_capacity(path.len());
        for (k, &port) in path.iter().enumerate() {
            let fresh = schedule.ports.len();
            let id = *schedule.index.entry(port).or_insert(fresh);
            if id == fresh {
                schedule.ports.push(port);
                schedule.crossings.push(Vec::new());
                indegree.push(0);
                successors.push(Vec::new());
            }
            if let Some(&(before, _)) = hops.last() {
                successors[before].push(id);
                indegree[id] += 1;
            }
            // A simple path never repeats a directed port, so a flow is
            // recorded once per port.
            hops.push((id, schedule.crossings[id].len()));
            schedule.crossings[id].push((flow, k));
        }
        schedule.hops.push(hops);
    }

    // Kahn's topological sort over the ports, always taking the greatest
    // ready port next.
    let mut ready: BinaryHeap<(FabricPort, usize)> = (0..schedule.ports.len())
        .filter(|&id| indegree[id] == 0)
        .map(|id| (schedule.ports[id], id))
        .collect();
    while let Some((_, id)) = ready.pop() {
        schedule.order.push(id);
        for &next in &successors[id] {
            indegree[next] -= 1;
            if indegree[next] == 0 {
                ready.push((schedule.ports[next], next));
            }
        }
    }
    assert_eq!(
        schedule.order.len(),
        schedule.ports.len(),
        "cyclic port dependencies: the fabric's switch graph is not a tree"
    );
    schedule
}

/// What composing a walk's bounds reads: the settings its ports were
/// analysed with, every port's results, and the ports a failed
/// pay-bursts-only-once certificate sent through again on uncut curves,
/// kept for the walk's other messages.
struct Walk<'w, 's, K: Clone> {
    policy: &'w SchedulingPolicy,
    config: &'w NetworkConfig,
    model: EnvelopeModel,
    /// Any flow by its key.
    lookup: &'w dyn Fn(K) -> WalkFlow<'s, K>,
    /// The scheduled ports' numbers and results.
    index: &'w BTreeMap<FabricPort, usize>,
    results: &'w [Option<Cow<'w, PortResults<K>>>],
    /// Every other port's results.
    cache: &'w BTreeMap<FabricPort, PortResults<K>>,
    uncut: RefCell<UncutPorts<'w>>,
}

/// The ports a walk analysed again on uncut curves: each one's inputs, its
/// flows' last-hop flags and its uncut class aggregates.
type UncutPorts<'w> = BTreeMap<FabricPort, (Vec<StageFlow<'w>>, Vec<bool>, UncutAggregates)>;

impl<'w, K: Copy + PartialEq> Walk<'w, '_, K> {
    /// Port `port`'s results: the walk's own, or the cache's for a port
    /// outside its schedule.
    fn results(&self, port: FabricPort) -> &'w PortResults<K> {
        match self.index.get(&port) {
            Some(&id) => at(self.results, id),
            None => &self.cache[&port],
        }
    }

    /// Flow `flow`'s left-over curve at `port` on uncut curves, summing the
    /// port's uncut class aggregates unless the walk already did.
    fn uncut_leftover(&self, port: FabricPort, flow: usize) -> Result<Curve, AnalysisError> {
        let mut uncut = self.uncut.borrow_mut();
        let name = port.to_string();
        let (inputs, last_hop, aggregates) = match uncut.entry(port) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let (inputs, last_hop) = self.inputs(port);
                let aggregates = self
                    .port(port, &name, &inputs, &last_hop)
                    .uncut_aggregates()?;
                entry.insert((inputs, last_hop, aggregates))
            }
        };
        let i = inputs
            .iter()
            .position(|f| f.message == MessageId(flow))
            .expect("a message crosses every port of its path");
        aggregates.leftover_curve(&self.port(port, &name, inputs, last_hop), i)
    }

    /// The inputs `port` was analysed with, rebuilt from the walk's
    /// results: every flow crossing it, in order, with its envelope there,
    /// and whether the port is its last hop.
    fn inputs(&self, port: FabricPort) -> (Vec<StageFlow<'w>>, Vec<bool>) {
        self.results(port)
            .keys
            .iter()
            .map(|&key| {
                let flow = (self.lookup)(key);
                let k = flow
                    .path
                    .iter()
                    .position(|&p| p == port)
                    .expect("a flow crosses only the ports of its path");
                let envelope = match k.checked_sub(1) {
                    None => Cow::Owned(
                        flow.spec
                            .arrival_envelope(self.model, self.config.link_rate),
                    ),
                    Some(before) => {
                        let results = self.results(flow.path[before]);
                        Cow::Borrowed(output(results, results.slot(key)))
                    }
                };
                let input = StageFlow {
                    message: MessageId(flow.index),
                    envelope,
                    priority: flow.spec.priority(),
                    frame: flow.spec.frame_size(),
                };
                (input, k + 1 == flow.path.len())
            })
            .unzip()
    }

    /// `port` of the walk with the given inputs.
    fn port<'p>(
        &'p self,
        port: FabricPort,
        name: &'p str,
        flows: &'p [StageFlow<'p>],
        last_hop: &'p [bool],
    ) -> Port<'p> {
        Port {
            flows,
            last_hop,
            policy: self.policy,
            config: self.config,
            ttechno: port.ttechno(self.config),
            model: self.model,
            name,
        }
    }
}

/// Composes flow `flow`'s end-to-end bounds from its results at every port
/// of `path` (`per_hop`): the stage sum, the per-hop sum, and the
/// pay-bursts-only-once convolution of the hop left-over curves, plus
/// per-link propagation.  `source` is its arrival envelope at its first hop.
///
/// The left-over curves come from horizon-cut curves.  When the
/// pay-bursts-only-once deviation on them cannot be certified equal to the
/// deviation on uncut curves, the flow's left-over curve at every hop whose
/// curve is not wholly exact is rebuilt on uncut curves — from the port's
/// uncut class aggregates, summed once per port and walk from the port's
/// rebuilt inputs, whether the walk analysed the port or read it from its
/// cache — and the deviation is taken on those curves.
fn compose_end_to_end<K: Copy + PartialEq>(
    spec: &MessageSpec,
    flow: usize,
    path: &[FabricPort],
    per_hop: &[&PortFlowAnalysis],
    source: &Envelope,
    walk: &Walk<'_, '_, K>,
) -> Result<MultiHopMessageBound, AnalysisError> {
    let (config, model) = (walk.config, walk.model);
    let links = path.len();
    let propagation = config.propagation * links as u64;
    let hops: Vec<HopBound> = path
        .iter()
        .zip(per_hop)
        .map(|(port, pf)| HopBound {
            port: port.to_string(),
            stage_delay: pf.stage_delay,
            flow_delay: pf.flow_delay,
        })
        .collect();
    let stage_sum: Duration = hops.iter().map(|h| h.stage_delay).sum();
    let hop_sum: Duration = hops.iter().map(|h| h.flow_delay).sum();
    let source_envelope = TokenBucket::new(spec.frame_size(), spec.shaper_rate());
    let network = per_hop[1..]
        .iter()
        .fold(per_hop[0].leftover, |acc, pf| acc.concatenate(&pf.leftover));
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
        let (source_curve, source_bucket) = (source.effective_curve(), source.token_bucket());
        let tail = horizon::early_exit(&source_bucket, &network);
        let curves: Vec<&LeftoverCurve> = per_hop
            .iter()
            .map(|pf| {
                pf.leftover_curve
                    .as_ref()
                    .expect("the staircase model derives left-over curves")
            })
            .collect();
        let (curve, exact) = network_curve(&curves);
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
            let rebuilt = curves
                .iter()
                .zip(path)
                .map(|(curve, &port)| {
                    if curve.exact_until == ALL_EXACT {
                        return Ok(None);
                    }
                    Ok(Some(LeftoverCurve {
                        curve: walk.uncut_leftover(port, flow)?,
                        exact_until: ALL_EXACT,
                        grid_until: ALL_EXACT,
                    }))
                })
                .collect::<Result<Vec<_>, AnalysisError>>()?;
            let uncut: Vec<&LeftoverCurve> = curves
                .iter()
                .zip(&rebuilt)
                .map(|(&curve, rebuilt)| rebuilt.as_ref().unwrap_or(curve))
                .collect();
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
fn network_curve(curves: &[&LeftoverCurve]) -> (Curve, f64) {
    let minorant = |k: usize| {
        let m = curves[k].curve.convex_minorant();
        let exact = minorant_exact_until(&m, curves[k]);
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
