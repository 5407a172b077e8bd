//! The always-on admission engine: incremental re-analysis with a per-port
//! result cache.
//!
//! # How incrementality stays sound
//!
//! Every quantity the multi-hop analysis derives at an output port is
//! *port-local*: it depends only on the ordered set of flows crossing the
//! port and their arrival envelopes **at that port**.  A flow's envelope at
//! hop `k` is the output envelope of its hop `k − 1`, so a mutation can only
//! invalidate a port if (a) the port's flow set changed, or (b) one of its
//! input envelopes changed — and (b) propagates strictly *downstream* along
//! flow paths.  The engine therefore computes the **dirty closure** of a
//! mutation: seed with every port of the mutated flow's path (old and new
//! for a modify), then repeatedly mark, for every flow crossing a dirty
//! port at position `k`, its ports at positions `k + 1…` as dirty, until a
//! fixpoint.  Every port outside the closure keeps byte-identical inputs,
//! so its cached [`PortResults`] — and every bound composed from clean
//! results — remains exact, not approximate.
//!
//! Recomputation is the analysis walk itself
//! ([`rtswitch_core::walk_ports`]), run over the dirty closure with every
//! other port read from the cache, so incremental results are bit-for-bit
//! equal to a fresh
//! [`analyze_multi_hop_with`](rtswitch_core::analyze_multi_hop_with) of the
//! current flow set — a property the crate's `cache_soundness` test
//! enforces after every random mutation.
//!
//! The walk is given only the flows crossing a dirty port: those the
//! cached dirty ports list, less a revoked flow, plus an admitted or
//! modified one on its new path.  Each carries its place in the registration
//! order of the changed flow set, the message index a from-scratch workload
//! would give it.  Registration order is [`FlowId`] order, because ids only
//! grow and flows are only appended or removed, so that place is a binary
//! search on the active flows.  A query therefore costs its dirty closure,
//! not the number of active flows.

use rtswitch_core::{
    flow_ports, walk_ports, AnalysisError, Approach, FabricPort, MultiHopMessageBound,
    MultiHopReport, NetworkConfig, PortResults, WalkFlow, WalkResults,
};

use ethernet::{Fabric, SchedulingPolicy};
use netcalc::EnvelopeModel;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use units::{DataRate, DataSize, Duration};
use workload::{Arrival, MessageId, MessageSpec, StationId, Workload};

/// A stable handle to an admitted flow.
///
/// Ids are allocated per admission *attempt* (a rejected admit consumes an
/// id too), so a batch evaluation assigns the same ids as the equivalent
/// sequential one.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FlowId(pub u64);

impl core::fmt::Display for FlowId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// The wire description of a flow an admission query proposes.
///
/// The station indices refer to the engine's fixed fabric; everything else
/// mirrors [`workload::MessageSpec`] minus the id (the engine allocates
/// those).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Human-readable stream name.
    pub name: String,
    /// Source station index.
    pub source: usize,
    /// Destination station index.
    pub destination: usize,
    /// Payload bytes per frame.
    pub payload: DataSize,
    /// Activation model.
    pub arrival: Arrival,
    /// Application deadline.
    pub deadline: Duration,
}

impl FlowSpec {
    /// The flow as a [`MessageSpec`] at a positional message index — what
    /// the analysis pipeline consumes.
    fn to_message_spec(&self, id: MessageId) -> MessageSpec {
        MessageSpec {
            id,
            name: self.name.clone(),
            source: StationId(self.source),
            destination: StationId(self.destination),
            payload: self.payload,
            arrival: self.arrival,
            deadline: self.deadline,
        }
    }
}

/// One admission-control query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmissionQuery {
    /// Admit a new flow if no deadline breaks.
    Admit {
        /// The proposed flow.
        flow: FlowSpec,
    },
    /// Tear an admitted flow down, releasing its reservations.
    Revoke {
        /// The flow to remove.
        flow: FlowId,
    },
    /// Replace an admitted flow's spec (rate change, reroute, …).
    Modify {
        /// The flow to change.
        flow: FlowId,
        /// Its new spec.
        spec: FlowSpec,
    },
}

/// What the engine decided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Decision {
    /// The flow was admitted; every re-analysed flow still meets its
    /// deadline.
    Admitted,
    /// The flow was removed.
    Revoked,
    /// The flow's new spec was accepted.
    Modified,
    /// A fault set was applied: babble flows joined the analysis and a
    /// failover may have swapped the routing fabric.  Faults are acts of
    /// the network, not requests — they are never deadline-gated.
    Degraded,
    /// The fault set was lifted and the healthy state recomputed.
    Restored,
    /// The query was refused; the engine state is unchanged.
    Rejected {
        /// Why.
        reason: String,
    },
}

/// The deadline margin of one (re-)analysed flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowMargin {
    /// The flow.
    pub flow: FlowId,
    /// Its name.
    pub name: String,
    /// Its end-to-end delay bound.
    pub bound: Duration,
    /// Its deadline.
    pub deadline: Duration,
    /// `deadline − bound` (zero when violated).
    pub margin: Duration,
    /// Whether the bound meets the deadline.
    pub meets_deadline: bool,
}

impl FlowMargin {
    fn from_bound(flow: FlowId, bound: &MultiHopMessageBound) -> Self {
        FlowMargin {
            flow,
            name: bound.name.clone(),
            bound: bound.total_bound,
            deadline: bound.deadline,
            margin: bound.slack(),
            meets_deadline: bound.meets_deadline,
        }
    }
}

/// How much cached state one query reused versus recomputed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CacheStats {
    /// Occupied output ports after the query.
    pub ports_total: usize,
    /// Ports whose curves were recomputed (the dirty closure).
    pub ports_recomputed: usize,
    /// Ports served from the cache.
    pub ports_reused: usize,
    /// Flows whose end-to-end bound was recomposed.
    pub flows_recomputed: usize,
    /// Flows whose bound was kept verbatim.
    pub flows_reused: usize,
    /// The recomputed ports in port order: station uplinks by station, then
    /// trunks by switch pair, then switch output ports by station.
    pub recomputed_ports: Vec<String>,
}

/// The structured answer to one [`AdmissionQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionVerdict {
    /// What the engine decided.
    pub decision: Decision,
    /// The flow the query targeted (the new id for admits — allocated even
    /// when rejected, so batch and sequential evaluation agree).
    pub flow: Option<FlowId>,
    /// The flow's name (empty for revokes of unknown flows).
    pub name: String,
    /// Deadline margins of every flow the query forced a re-analysis of,
    /// in registration order.
    pub margins: Vec<FlowMargin>,
    /// Cache-reuse accounting for this query.
    pub cache: CacheStats,
}

impl AdmissionVerdict {
    /// Whether the query changed the engine state.
    pub fn accepted(&self) -> bool {
        !matches!(self.decision, Decision::Rejected { .. })
    }
}

/// Lifetime counters of an engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct EngineStats {
    /// Queries evaluated.
    pub queries: u64,
    /// Admits accepted.
    pub admitted: u64,
    /// Queries rejected.
    pub rejected: u64,
    /// Revokes applied.
    pub revoked: u64,
    /// Modifies applied.
    pub modified: u64,
    /// Port analyses recomputed across all queries.
    pub ports_recomputed: u64,
    /// Port analyses served from the cache across all queries.
    pub ports_reused: u64,
    /// End-to-end bounds recomposed across all queries.
    pub flows_recomputed: u64,
    /// End-to-end bounds kept verbatim across all queries.
    pub flows_reused: u64,
}

impl EngineStats {
    /// The lifetime port-cache hit rate in `[0, 1]` (1.0 when no port was
    /// ever touched).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.ports_recomputed + self.ports_reused;
        if total == 0 {
            1.0
        } else {
            self.ports_reused as f64 / total as f64
        }
    }
}

/// A scheduled trunk failover as the admission layer sees it: which trunk
/// failed and which backup pair replaced it (see
/// [`ethernet::Fabric::with_failover`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverPlan {
    /// Index of the failed trunk in the fabric's trunk list.
    pub trunk: usize,
    /// The backup switch pair brought up in its place.
    pub backup: (usize, usize),
}

/// What [`AdmissionEngine::degrade`] changed, remembered so
/// [`AdmissionEngine::restore`] can undo it.
#[derive(Debug, Clone)]
struct DegradedState {
    /// The babble flows registered by the degrade, in registration order.
    babble_flows: Vec<FlowId>,
    /// The pre-failover fabric, when the degrade swapped it.
    healthy_fabric: Option<Fabric>,
}

/// Per-port occupancy as reported by [`AdmissionEngine::snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortOccupancy {
    /// The port.
    pub port: String,
    /// The flows crossing it, in registration order.
    pub flows: Vec<FlowId>,
    /// Aggregate token-bucket burst of the port's arrivals.
    pub burst: DataSize,
    /// Aggregate token-bucket rate of the port's arrivals.
    pub rate: DataRate,
}

/// A consistent view of the engine: the active flows, their bounds as a
/// standard [`MultiHopReport`], per-port occupancy and lifetime stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionSnapshot {
    /// Active flows in registration order (positional index = message
    /// index in `report`).
    pub flows: Vec<FlowId>,
    /// The bounds of the active flow set — byte-identical to a fresh
    /// [`analyze_multi_hop_with`](rtswitch_core::analyze_multi_hop_with) of the same flows.
    pub report: MultiHopReport,
    /// Occupancy of every cached port.
    pub ports: Vec<PortOccupancy>,
    /// Lifetime counters.
    pub stats: EngineStats,
}

/// How a committed query changes the flow registry.
#[derive(Debug, Clone)]
pub(crate) enum RegistryOp {
    Add {
        id: FlowId,
        spec: FlowSpec,
        path: Vec<FabricPort>,
    },
    Remove {
        id: FlowId,
    },
    Replace {
        id: FlowId,
        spec: FlowSpec,
        path: Vec<FabricPort>,
    },
}

/// The state change a successful preview wants to commit: a registry op,
/// the recomputed ports' results, the ports that lost their last flow, and
/// the recomposed bounds.
///
/// A delta is expressed as a *difference* (not a whole-state replacement)
/// so several deltas with disjoint dirty closures can commit one after the
/// other within a batch group without clobbering each other's entries.
#[derive(Debug, Clone)]
pub(crate) struct Delta {
    pub(crate) op: RegistryOp,
    pub(crate) ports: BTreeMap<FabricPort, PortResults<FlowId>>,
    pub(crate) removed_ports: Vec<FabricPort>,
    pub(crate) bounds: Vec<(FlowId, MultiHopMessageBound)>,
}

impl RegistryOp {
    /// The flow the op adds, removes or replaces.
    fn id(&self) -> FlowId {
        match self {
            RegistryOp::Add { id, .. }
            | RegistryOp::Remove { id }
            | RegistryOp::Replace { id, .. } => *id,
        }
    }

    /// The flow's spec and path after the op, or `None` when it leaves.
    fn change(&self) -> Option<(&FlowSpec, &[FabricPort])> {
        match self {
            RegistryOp::Add { spec, path, .. } | RegistryOp::Replace { spec, path, .. } => {
                Some((spec, path))
            }
            RegistryOp::Remove { .. } => None,
        }
    }
}

/// A fully evaluated (but uncommitted) query.
#[derive(Debug, Clone)]
pub(crate) struct Preview {
    pub(crate) verdict: AdmissionVerdict,
    pub(crate) delta: Option<Delta>,
}

/// The always-on admission-control engine.
///
/// Loads a fabric and an initial workload once ([`AdmissionEngine::new`]),
/// then answers [`AdmissionQuery`]s against live state: each query
/// recomputes only the ports in its dirty closure and recomposes only the
/// flows crossing them, reusing every other cached curve (see the module
/// docs for why that is exact).  [`AdmissionEngine::snapshot`] exposes the
/// current bounds as a standard [`MultiHopReport`].
#[derive(Debug, Clone)]
pub struct AdmissionEngine {
    config: NetworkConfig,
    approach: Approach,
    model: EnvelopeModel,
    fabric: Fabric,
    policy: SchedulingPolicy,
    stations: Vec<String>,
    /// Active flows in registration order — the message order of the
    /// equivalent workload.
    flows: Vec<FlowId>,
    specs: BTreeMap<FlowId, FlowSpec>,
    paths: BTreeMap<FlowId, Vec<FabricPort>>,
    /// Every occupied port's results, which also list the flows crossing
    /// it: closures read them, so they cost O(closure), not O(flows).
    cache: BTreeMap<FabricPort, PortResults<FlowId>>,
    bounds: BTreeMap<FlowId, MultiHopMessageBound>,
    next_id: u64,
    stats: EngineStats,
    /// The active fault set, when the engine is running degraded.
    degraded: Option<DegradedState>,
}

impl AdmissionEngine {
    /// Builds an engine over `fabric` pre-loaded with `workload`, running
    /// the full analysis once to seed the cache.
    ///
    /// The seed flows are *loaded*, not admitted: a workload whose bounds
    /// already violate deadlines is accepted as-is (the admission policy
    /// only refuses queries that *break previously-feasible* flows).
    ///
    /// # Panics
    /// Panics if the fabric's station count differs from the workload's —
    /// the same loud configuration failure as [`analyze_multi_hop_with`](rtswitch_core::analyze_multi_hop_with).
    pub fn new(
        workload: &Workload,
        fabric: &Fabric,
        config: &NetworkConfig,
        approach: Approach,
        model: EnvelopeModel,
    ) -> Result<Self, AnalysisError> {
        assert_eq!(
            fabric.station_count(),
            workload.stations.len(),
            "fabric and workload disagree on the station count"
        );
        let specs: Vec<FlowSpec> = workload
            .messages
            .iter()
            .map(|m| FlowSpec {
                name: m.name.clone(),
                source: m.source.0,
                destination: m.destination.0,
                payload: m.payload,
                arrival: m.arrival,
                deadline: m.deadline,
            })
            .collect();
        let mut engine = AdmissionEngine {
            config: *config,
            approach,
            model,
            fabric: fabric.clone(),
            policy: approach.scheduling_policy(config.priority_levels),
            stations: workload.stations.iter().map(|s| s.name.clone()).collect(),
            flows: Vec::new(),
            specs: BTreeMap::new(),
            paths: BTreeMap::new(),
            cache: BTreeMap::new(),
            bounds: BTreeMap::new(),
            next_id: specs.len() as u64,
            stats: EngineStats::default(),
            degraded: None,
        };
        // Cold start: every port is recomputed.
        let ids: Vec<FlowId> = (0..engine.next_id).map(FlowId).collect();
        let (paths, walk) =
            engine.recompute_full(&ids, &specs.iter().collect::<Vec<_>>(), fabric)?;
        engine.cache = walk.ports.into_iter().collect();
        engine.bounds = walk.bounds.into_iter().collect();
        engine.specs = ids.iter().copied().zip(specs).collect();
        engine.paths = ids.iter().copied().zip(paths).collect();
        engine.flows = ids;
        Ok(engine)
    }

    /// The engine's network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The analysed multiplexing approach.
    pub fn approach(&self) -> Approach {
        self.approach
    }

    /// The analysed arrival-envelope model.
    pub fn model(&self) -> EnvelopeModel {
        self.model
    }

    /// The fabric flows route over.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// The active flows in registration order.
    pub fn active_flows(&self) -> &[FlowId] {
        &self.flows
    }

    /// The spec of an active flow.
    pub fn flow_spec(&self, flow: FlowId) -> Option<&FlowSpec> {
        self.specs.get(&flow)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Evaluates and (on success) commits an admit query.
    pub fn admit(&mut self, flow: FlowSpec) -> AdmissionVerdict {
        let id = self.allocate_id();
        let preview = self.preview(&AdmissionQuery::Admit { flow }, Some(id), None);
        self.apply(preview)
    }

    /// Evaluates and (on success) commits a revoke query.
    pub fn revoke(&mut self, flow: FlowId) -> AdmissionVerdict {
        let preview = self.preview(&AdmissionQuery::Revoke { flow }, None, None);
        self.apply(preview)
    }

    /// Evaluates and (on success) commits a modify query.
    pub fn modify(&mut self, flow: FlowId, spec: FlowSpec) -> AdmissionVerdict {
        let preview = self.preview(&AdmissionQuery::Modify { flow, spec }, None, None);
        self.apply(preview)
    }

    /// Evaluates an admit query *without* committing or consuming a flow
    /// id — "would this flow fit right now?".
    pub fn probe(&self, flow: FlowSpec) -> AdmissionVerdict {
        self.preview(
            &AdmissionQuery::Admit { flow },
            Some(FlowId(self.next_id)),
            None,
        )
        .verdict
    }

    /// `true` while a fault set applied by [`AdmissionEngine::degrade`] is
    /// active.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Applies a fault set: each `babbler` joins the analysis as an
    /// adversarial flow (highest priority by its spec, exactly like the
    /// degraded-mode analysis in `rtswitch-core`), and `failover` swaps the
    /// routing fabric for the post-failover one.  The whole state is then
    /// recomputed from scratch, so subsequent incremental queries run
    /// against the degraded network.
    ///
    /// Faults are *applied*, not requested: deadline violations they cause
    /// never reject the query (the margins in the verdict report them).
    /// Rejections happen only for invalid inputs — already degraded, a
    /// malformed babbler spec, a failover that disconnects the fabric — or
    /// when no finite bound exists under the fault set (analysis error),
    /// in which case the engine state is unchanged.
    pub fn degrade(
        &mut self,
        babblers: &[FlowSpec],
        failover: Option<FailoverPlan>,
    ) -> AdmissionVerdict {
        if self.degraded.is_some() {
            return self.fault_rejection("degrade", "already degraded; restore first".to_string());
        }
        for spec in babblers {
            if let Err(reason) = self.validate(spec) {
                return self.fault_rejection("degrade", reason);
            }
        }
        let fabric = match failover {
            Some(plan) => match self.fabric.with_failover(plan.trunk, plan.backup) {
                Ok(fabric) => fabric,
                Err(err) => {
                    return self.fault_rejection("degrade", format!("invalid failover: {err}"));
                }
            },
            None => self.fabric.clone(),
        };
        let babble_ids: Vec<FlowId> = babblers.iter().map(|_| self.allocate_id()).collect();
        let ids: Vec<FlowId> = self
            .flows
            .iter()
            .copied()
            .chain(babble_ids.iter().copied())
            .collect();
        let specs: Vec<&FlowSpec> = self
            .flows
            .iter()
            .map(|id| &self.specs[id])
            .chain(babblers.iter())
            .collect();
        let (paths, walk) = match self.recompute_full(&ids, &specs, &fabric) {
            Ok(recomputed) => recomputed,
            Err(err) => return self.fault_rejection("degrade", err.to_string()),
        };
        let healthy_fabric = failover.map(|_| std::mem::replace(&mut self.fabric, fabric));
        for (id, spec) in babble_ids.iter().zip(babblers) {
            self.specs.insert(*id, spec.clone());
        }
        self.degraded = Some(DegradedState {
            babble_flows: babble_ids,
            healthy_fabric,
        });
        self.install_full(ids, paths, walk, Decision::Degraded, "degrade")
    }

    /// Lifts the active fault set: babble flows leave the analysis, the
    /// healthy fabric returns if a failover had swapped it, and the whole
    /// state is recomputed from scratch — byte-identical to an engine that
    /// never degraded (modulo lifetime counters and consumed flow ids).
    pub fn restore(&mut self) -> AdmissionVerdict {
        let Some(state) = self.degraded.clone() else {
            return self.fault_rejection("restore", "not degraded".to_string());
        };
        let fabric = state
            .healthy_fabric
            .clone()
            .unwrap_or_else(|| self.fabric.clone());
        let ids: Vec<FlowId> = self
            .flows
            .iter()
            .copied()
            .filter(|id| !state.babble_flows.contains(id))
            .collect();
        let specs: Vec<&FlowSpec> = ids.iter().map(|id| &self.specs[id]).collect();
        let (paths, walk) = match self.recompute_full(&ids, &specs, &fabric) {
            Ok(recomputed) => recomputed,
            Err(err) => return self.fault_rejection("restore", err.to_string()),
        };
        self.fabric = fabric;
        for id in &state.babble_flows {
            self.specs.remove(id);
        }
        self.degraded = None;
        self.install_full(ids, paths, walk, Decision::Restored, "restore")
    }

    /// From-scratch-equivalent re-analysis of `ids`/`specs` routed over
    /// `fabric`: every port is recomputed, so nothing stale survives.
    /// `ids` must be in registration order, which is id order.  Returns the
    /// routes with the walk.
    fn recompute_full(
        &self,
        ids: &[FlowId],
        specs: &[&FlowSpec],
        fabric: &Fabric,
    ) -> Result<(Vec<Vec<FabricPort>>, WalkResults<FlowId>), AnalysisError> {
        let paths: Vec<Vec<FabricPort>> = specs
            .iter()
            .map(|s| flow_ports(fabric, s.source, s.destination))
            .collect();
        let messages: Vec<MessageSpec> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| spec.to_message_spec(MessageId(i)))
            .collect();
        let flow = |i: usize| WalkFlow {
            key: ids[i],
            index: i,
            path: &paths[i],
            spec: Cow::Borrowed(&messages[i]),
        };
        let flows: Vec<WalkFlow<'_, FlowId>> = (0..ids.len()).map(flow).collect();
        let walk = self.walk(
            &flows,
            |key| {
                flow(
                    ids.binary_search(&key)
                        .expect("the walk asks only for its flows"),
                )
            },
            |_| true,
            &BTreeMap::new(),
        )?;
        Ok((paths, walk))
    }

    /// Installs a full recompute wholesale: flow order, routes, port cache
    /// and bounds are all replaced, which is exactly the cold-start
    /// state for the new flow set (the cache-soundness invariant by
    /// construction).
    fn install_full(
        &mut self,
        ids: Vec<FlowId>,
        paths: Vec<Vec<FabricPort>>,
        walk: WalkResults<FlowId>,
        decision: Decision,
        name: &str,
    ) -> AdmissionVerdict {
        let margins: Vec<FlowMargin> = walk
            .bounds
            .iter()
            .map(|(id, bound)| FlowMargin::from_bound(*id, bound))
            .collect();
        let flows_recomputed = walk.bounds.len();
        self.flows = ids;
        self.debug_assert_id_order();
        self.paths = self.flows.iter().copied().zip(paths).collect();
        self.cache = walk.ports.into_iter().collect();
        self.bounds = walk.bounds.into_iter().collect();
        let cache = CacheStats {
            ports_total: self.cache.len(),
            ports_recomputed: self.cache.len(),
            ports_reused: 0,
            flows_recomputed,
            flows_reused: 0,
            recomputed_ports: self.cache.keys().map(ToString::to_string).collect(),
        };
        self.stats.queries += 1;
        self.stats.ports_recomputed += cache.ports_recomputed as u64;
        self.stats.flows_recomputed += cache.flows_recomputed as u64;
        AdmissionVerdict {
            decision,
            flow: None,
            name: name.to_string(),
            margins,
            cache,
        }
    }

    /// A rejected degrade/restore verdict (state unchanged).
    fn fault_rejection(&mut self, name: &str, reason: String) -> AdmissionVerdict {
        self.stats.queries += 1;
        self.stats.rejected += 1;
        AdmissionVerdict {
            decision: Decision::Rejected { reason },
            flow: None,
            name: name.to_string(),
            margins: Vec::new(),
            cache: CacheStats::default(),
        }
    }

    /// A consistent view of the engine's current state.
    ///
    /// The embedded report is byte-identical (as JSON) to running
    /// [`analyze_multi_hop_with`](rtswitch_core::analyze_multi_hop_with) from scratch on
    /// [`AdmissionEngine::workload`] — the cache-soundness invariant.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let messages = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let mut bound = self.bounds[id].clone();
                // Bounds are stored under stable FlowIds; the equivalent
                // workload indexes messages positionally, and positions
                // compact on revoke.
                bound.message = MessageId(i);
                bound
            })
            .collect();
        let ports = self
            .cache
            .iter()
            .map(|(port, results)| PortOccupancy {
                port: port.to_string(),
                flows: results.flows().to_vec(),
                burst: results.aggregate().burst(),
                rate: results.aggregate().rate(),
            })
            .collect();
        AdmissionSnapshot {
            flows: self.flows.clone(),
            report: MultiHopReport {
                approach: self.approach,
                envelope: self.model,
                config: self.config,
                fabric: self.fabric.clone(),
                messages,
            },
            ports,
            stats: self.stats.clone(),
        }
    }

    /// The engine's active flow set as a plain [`Workload`] — what a
    /// from-scratch analysis of the current state consumes.
    pub fn workload(&self) -> Workload {
        let mut workload = Workload::new();
        for name in &self.stations {
            workload.add_station(name.clone());
        }
        for id in &self.flows {
            let spec = &self.specs[id];
            workload.add_message(
                spec.name.clone(),
                StationId(spec.source),
                StationId(spec.destination),
                spec.payload,
                spec.arrival,
                spec.deadline,
            );
        }
        workload
    }

    /// Allocates the next flow id (consumed per admission *attempt*).
    pub(crate) fn allocate_id(&mut self) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Rejects specs the workload layer would panic on.
    fn validate(&self, spec: &FlowSpec) -> Result<(), String> {
        let stations = self.stations.len();
        if spec.source >= stations {
            return Err(format!(
                "unknown source station {} ({} stations)",
                spec.source, stations
            ));
        }
        if spec.destination >= stations {
            return Err(format!(
                "unknown destination station {} ({} stations)",
                spec.destination, stations
            ));
        }
        if spec.arrival.characteristic_interval().is_zero() {
            return Err("zero characteristic interval".to_string());
        }
        if spec.payload.bytes() > ethernet::frame::MAX_PAYLOAD {
            return Err(format!(
                "payload of {} bytes exceeds the {}-byte MTU",
                spec.payload.bytes(),
                ethernet::frame::MAX_PAYLOAD
            ));
        }
        Ok(())
    }

    /// The dirty-port closure of a mutation: starting from `seed`, every
    /// port *downstream* of a dirty port along any flow's path, walked
    /// over the flows each cached port lists until a fixpoint (the cache
    /// holds exactly the occupied ports).
    ///
    /// Dirtiness only travels downstream because a port's inputs are its
    /// flows' envelopes, and a flow's envelope at hop `k` is produced at
    /// hop `k − 1`; upstream ports never observe downstream state.
    /// Consequently each flow's dirty hops form a *suffix* of its path and
    /// the cached prefix stays valid.  The closure depends only on routes —
    /// never on the scheduling policy or envelope model — so one walk
    /// serves every arm.  Each newly dirty port wakes the flows crossing
    /// it, and every flow is expanded from its earliest dirty hop only, so
    /// the walk costs O(closure) rather than O(flows).
    ///
    /// `drop` excludes the mutated flow's own (stale) crossings — its *new*
    /// path, when it has one, is always wholly in the seed, so propagation
    /// from it is already covered.
    fn closure_indexed(
        &self,
        seed: BTreeSet<FabricPort>,
        drop: Option<FlowId>,
    ) -> BTreeSet<FabricPort> {
        let mut dirty = seed;
        let mut pending: Vec<FabricPort> = dirty.iter().copied().collect();
        // Earliest hop each flow has been expanded from: a later wake at
        // an earlier hop must still mark the longer suffix.
        let mut expanded: BTreeMap<FlowId, usize> = BTreeMap::new();
        while let Some(port) = pending.pop() {
            let Some(results) = self.cache.get(&port) else {
                continue;
            };
            for &flow in results.flows() {
                if Some(flow) == drop {
                    continue;
                }
                let path = &self.paths[&flow];
                let k = path
                    .iter()
                    .position(|&hop| hop == port)
                    .expect("a port lists only flows crossing it");
                if expanded.get(&flow).is_some_and(|&from| k >= from) {
                    continue;
                }
                expanded.insert(flow, k);
                for &downstream in &path[k + 1..] {
                    if dirty.insert(downstream) {
                        pending.push(downstream);
                    }
                }
            }
        }
        dirty
    }

    /// The dirty-port closure a query *would* have, for batch grouping:
    /// two queries with disjoint projections commute.  `None` marks a
    /// query that cannot be projected against the current state (unknown
    /// flow — e.g. one admitted earlier in the same batch).
    pub(crate) fn projected_dirty(&self, query: &AdmissionQuery) -> Option<BTreeSet<FabricPort>> {
        match query {
            AdmissionQuery::Admit { flow } => {
                if self.validate(flow).is_err() {
                    // Invalid specs reject without touching any port.
                    return Some(BTreeSet::new());
                }
                let seed = flow_ports(&self.fabric, flow.source, flow.destination)
                    .into_iter()
                    .collect();
                Some(self.closure_indexed(seed, None))
            }
            AdmissionQuery::Revoke { flow } => {
                let seed = self.paths.get(flow)?.iter().copied().collect();
                Some(self.closure_indexed(seed, Some(*flow)))
            }
            AdmissionQuery::Modify { flow, spec } => {
                let mut seed: BTreeSet<FabricPort> =
                    self.paths.get(flow)?.iter().copied().collect();
                if self.validate(spec).is_ok() {
                    seed.extend(flow_ports(&self.fabric, spec.source, spec.destination));
                }
                Some(self.closure_indexed(seed, Some(*flow)))
            }
        }
    }

    /// Evaluates a query against the current state without committing.
    /// `assigned` is the pre-allocated id for admits (ignored otherwise);
    /// `projected` reuses a closure already walked for this query against
    /// this exact state (the batch evaluator's grouping pass) instead of
    /// walking it again.
    pub(crate) fn preview(
        &self,
        query: &AdmissionQuery,
        assigned: Option<FlowId>,
        projected: Option<BTreeSet<FabricPort>>,
    ) -> Preview {
        match query {
            AdmissionQuery::Admit { flow } => {
                let id = assigned.expect("admits carry a pre-allocated id");
                if let Err(reason) = self.validate(flow) {
                    return Preview::rejected(Some(id), flow.name.clone(), reason);
                }
                let path = flow_ports(&self.fabric, flow.source, flow.destination);
                let seed: BTreeSet<FabricPort> = path.iter().copied().collect();
                let dirty = projected.unwrap_or_else(|| self.closure_indexed(seed, None));
                self.preview_change(
                    RegistryOp::Add {
                        id,
                        spec: flow.clone(),
                        path,
                    },
                    dirty,
                    flow.name.clone(),
                    Decision::Admitted,
                )
            }
            AdmissionQuery::Revoke { flow } => {
                let Some(spec) = self.specs.get(flow) else {
                    return Preview::rejected(
                        Some(*flow),
                        String::new(),
                        format!("unknown {flow}"),
                    );
                };
                let seed: BTreeSet<FabricPort> = self.paths[flow].iter().copied().collect();
                let dirty = projected.unwrap_or_else(|| self.closure_indexed(seed, Some(*flow)));
                self.preview_change(
                    RegistryOp::Remove { id: *flow },
                    dirty,
                    spec.name.clone(),
                    Decision::Revoked,
                )
            }
            AdmissionQuery::Modify { flow, spec } => {
                if !self.specs.contains_key(flow) {
                    return Preview::rejected(
                        Some(*flow),
                        spec.name.clone(),
                        format!("unknown {flow}"),
                    );
                }
                if let Err(reason) = self.validate(spec) {
                    return Preview::rejected(Some(*flow), spec.name.clone(), reason);
                }
                let path = flow_ports(&self.fabric, spec.source, spec.destination);
                // Old and new path both seed the closure: ports the flow
                // leaves lose a member, ports it joins gain one, and the
                // spec change perturbs its envelope everywhere it goes.
                let mut seed: BTreeSet<FabricPort> = self.paths[flow].iter().copied().collect();
                seed.extend(path.iter().copied());
                let dirty = projected.unwrap_or_else(|| self.closure_indexed(seed, Some(*flow)));
                self.preview_change(
                    RegistryOp::Replace {
                        id: *flow,
                        spec: spec.clone(),
                        path,
                    },
                    dirty,
                    spec.name.clone(),
                    Decision::Modified,
                )
            }
        }
    }

    /// Commits a preview (when it carries a delta), folds its cache stats
    /// into the lifetime counters, and returns the verdict.
    pub(crate) fn apply(&mut self, preview: Preview) -> AdmissionVerdict {
        let Preview { mut verdict, delta } = preview;
        match &verdict.decision {
            Decision::Admitted => self.stats.admitted += 1,
            Decision::Revoked => self.stats.revoked += 1,
            Decision::Modified => self.stats.modified += 1,
            Decision::Rejected { .. } => self.stats.rejected += 1,
            // Degrade/restore never flow through previews.
            Decision::Degraded | Decision::Restored => {}
        }
        if let Some(delta) = delta {
            self.commit(delta);
        }
        // The *recomputed* counters measure work actually done and come
        // from the preview; the *reuse* counters are re-derived against
        // the engine's serial commit-time state.  A batched preview runs
        // against its commuting group's start snapshot — which can hold a
        // flow another group member is about to revoke — so deriving
        // reuse here (where batch commits replay the sequential order)
        // keeps batched verdicts byte-identical to sequential ones.
        verdict.cache.ports_total = self.cache.len();
        verdict.cache.ports_reused = self
            .cache
            .len()
            .saturating_sub(verdict.cache.ports_recomputed);
        verdict.cache.flows_reused = self
            .flows
            .len()
            .saturating_sub(verdict.cache.flows_recomputed);
        self.stats.queries += 1;
        self.stats.ports_recomputed += verdict.cache.ports_recomputed as u64;
        self.stats.ports_reused += verdict.cache.ports_reused as u64;
        self.stats.flows_recomputed += verdict.cache.flows_recomputed as u64;
        self.stats.flows_reused += verdict.cache.flows_reused as u64;
        verdict
    }

    /// Applies a delta: the registry op, the recomputed entries, the
    /// vacated ports, and the recomposed bounds.
    pub(crate) fn commit(&mut self, delta: Delta) {
        match delta.op {
            RegistryOp::Add { id, spec, path } => {
                self.flows.push(id);
                self.specs.insert(id, spec);
                self.paths.insert(id, path);
            }
            RegistryOp::Remove { id } => {
                let position = self
                    .flows
                    .binary_search(&id)
                    .expect("a revoked flow is active");
                self.flows.remove(position);
                self.specs.remove(&id);
                self.paths.remove(&id);
                self.bounds.remove(&id);
            }
            RegistryOp::Replace { id, spec, path } => {
                self.specs.insert(id, spec);
                self.paths.insert(id, path);
            }
        }
        self.debug_assert_id_order();
        for port in delta.removed_ports {
            self.cache.remove(&port);
        }
        self.cache.extend(delta.ports);
        self.bounds.extend(delta.bounds);
    }

    /// Registration order is id order: ids only grow, and flows are only
    /// appended or removed.  Previews find a flow's place in it by binary
    /// search.
    fn debug_assert_id_order(&self) {
        debug_assert!(
            self.flows.windows(2).all(|pair| pair[0] < pair[1]),
            "active flows are in id order"
        );
    }

    /// Flow `key` of the registry as `op` leaves it: its place in
    /// registration order, its path and its spec.  The flow `op` removes
    /// has none.
    fn tentative_flow<'a>(&'a self, op: &'a RegistryOp, key: FlowId) -> WalkFlow<'a, FlowId> {
        let position = self.flows.binary_search(&key);
        let (index, spec, path) = match op.change() {
            // An admitted flow is not registered yet and joins at the end.
            Some((spec, path)) if key == op.id() => {
                (position.unwrap_or_else(|end| end), spec, path)
            }
            change => {
                let position = position.expect("a walk asks only for active flows");
                // Flows after a removed one move up one place.
                let shift = usize::from(change.is_none() && key > op.id());
                (
                    position - shift,
                    &self.specs[&key],
                    self.paths[&key].as_slice(),
                )
            }
        };
        WalkFlow {
            key,
            index,
            path,
            spec: Cow::Owned(spec.to_message_spec(MessageId(index))),
        }
    }

    /// Shared tail of every preview: walk the dirty closure over the flows
    /// its ports list, decide, and package the delta.
    fn preview_change(
        &self,
        op: RegistryOp,
        dirty: BTreeSet<FabricPort>,
        name: String,
        success: Decision,
    ) -> Preview {
        let flow = Some(op.id());
        // Every flow crossing a dirty port after the change: the flows the
        // cached dirty ports list, less a removed one, plus an added or
        // replaced one on its new path.  Ids iterate in registration order.
        let mut touched: BTreeSet<FlowId> = dirty
            .iter()
            .filter_map(|port| self.cache.get(port))
            .flat_map(|results| results.flows().iter().copied())
            .collect();
        match op.change() {
            Some(_) => touched.insert(op.id()),
            None => touched.remove(&op.id()),
        };
        let touched: Vec<WalkFlow<'_, FlowId>> = touched
            .into_iter()
            .map(|key| self.tentative_flow(&op, key))
            .collect();
        let walk = match self.walk(
            &touched,
            |key| self.tentative_flow(&op, key),
            |port| dirty.contains(&port),
            &self.cache,
        ) {
            Ok(walk) => walk,
            Err(err) => {
                return Preview::rejected(flow, name, err.to_string());
            }
        };
        let margins: Vec<FlowMargin> = walk
            .bounds
            .iter()
            .map(|(id, bound)| FlowMargin::from_bound(*id, bound))
            .collect();
        // Admission policy: never *introduce* a violation.  The target
        // flow of an admit/modify must meet its deadline, and no flow that
        // met its deadline before may miss it now.  (A revoke only ever
        // removes traffic, so it is always accepted.)
        let rejection = if matches!(success, Decision::Revoked) {
            None
        } else {
            margins.iter().find_map(|m| {
                if m.meets_deadline {
                    return None;
                }
                if Some(m.flow) == flow {
                    Some(format!(
                        "{} misses its deadline: bound {} > deadline {}",
                        m.name, m.bound, m.deadline
                    ))
                } else if self.bounds.get(&m.flow).is_none_or(|b| b.meets_deadline) {
                    Some(format!(
                        "would break previously-feasible {}: bound {} > deadline {}",
                        m.name, m.bound, m.deadline
                    ))
                } else {
                    // Already infeasible before the query (e.g. a seed
                    // workload loaded with violations) — not made worse
                    // in kind, so not a ground for rejection.
                    None
                }
            })
        };
        let ports: BTreeMap<FabricPort, PortResults<FlowId>> = walk.ports.into_iter().collect();
        // Ports occupied before but vacated by this change.  Only a dirty
        // port can vacate — vacating takes the mutated flow leaving, and
        // its ports all seed the closure — and every occupied dirty port is
        // recomputed; only the mutated flow's own ports can vacate, so
        // within a commuting batch group these never collide with another
        // member's ports.
        let removed_ports: Vec<FabricPort> = dirty
            .iter()
            .filter(|port| self.cache.contains_key(port) && !ports.contains_key(port))
            .copied()
            .collect();
        // Occupied ports after the change: the current cache, minus the
        // vacated ports, plus the newly occupied ones.
        let newly_occupied = ports
            .keys()
            .filter(|port| !self.cache.contains_key(port))
            .count();
        let ports_total = self.cache.len() - removed_ports.len() + newly_occupied;
        let flows_recomputed = walk.bounds.len();
        let flows_after = match op {
            RegistryOp::Add { .. } => self.flows.len() + 1,
            RegistryOp::Remove { .. } => self.flows.len() - 1,
            RegistryOp::Replace { .. } => self.flows.len(),
        };
        let cache = CacheStats {
            ports_total,
            ports_recomputed: ports.len(),
            ports_reused: ports_total.saturating_sub(ports.len()),
            flows_recomputed,
            flows_reused: flows_after.saturating_sub(flows_recomputed),
            recomputed_ports: ports.keys().map(ToString::to_string).collect(),
        };
        match rejection {
            Some(reason) => Preview {
                verdict: AdmissionVerdict {
                    decision: Decision::Rejected { reason },
                    flow,
                    name,
                    margins,
                    cache,
                },
                delta: None,
            },
            None => Preview {
                verdict: AdmissionVerdict {
                    decision: success,
                    flow,
                    name,
                    margins,
                    cache,
                },
                delta: Some(Delta {
                    op,
                    ports,
                    removed_ports,
                    bounds: walk.bounds,
                }),
            },
        }
    }

    /// The analysis walk under the engine's settings over `flows`, the
    /// flows crossing a port `recompute` selects, reading every other port
    /// from `cache` and any flow from `lookup`.
    fn walk<'a>(
        &self,
        flows: &[WalkFlow<'a, FlowId>],
        lookup: impl Fn(FlowId) -> WalkFlow<'a, FlowId>,
        recompute: impl Fn(FabricPort) -> bool,
        cache: &BTreeMap<FabricPort, PortResults<FlowId>>,
    ) -> Result<WalkResults<FlowId>, AnalysisError> {
        walk_ports(
            flows,
            lookup,
            recompute,
            cache,
            &self.policy,
            &self.config,
            self.model,
        )
    }
}

impl Preview {
    fn rejected(flow: Option<FlowId>, name: String, reason: String) -> Self {
        Preview {
            verdict: AdmissionVerdict {
                decision: Decision::Rejected { reason },
                flow,
                name,
                margins: Vec::new(),
                cache: CacheStats::default(),
            },
            delta: None,
        }
    }
}
