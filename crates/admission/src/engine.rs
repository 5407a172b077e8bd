//! The always-on admission engine: incremental re-analysis with a per-port
//! curve cache.
//!
//! # How incrementality stays sound
//!
//! Every quantity the multi-hop analysis derives at an output port is
//! *port-local*: it depends only on the ordered set of flows crossing the
//! port and their arrival envelopes **at that port** (see
//! [`rtswitch_core::analyze_port`]).  A flow's envelope at hop `k` is the
//! output envelope of its hop `k − 1`, so a mutation can only invalidate a
//! port if (a) the port's flow set changed, or (b) one of its input
//! envelopes changed — and (b) propagates strictly *downstream* along flow
//! paths.  The engine therefore computes the **dirty closure** of a
//! mutation: seed with every port of the mutated flow's path (old and new
//! for a modify), then repeatedly mark, for every flow crossing a dirty
//! port at position `k`, its ports at positions `k + 1…` as dirty, until a
//! fixpoint.  Every port outside the closure keeps byte-identical inputs,
//! so its cached [`PortEntry`] — and every bound composed from clean
//! entries — remains exact, not approximate.
//!
//! Recomputation then runs the *same code path* as the from-scratch
//! analysis ([`rtswitch_core::analyze_port`] +
//! [`rtswitch_core::compose_end_to_end`]) over only the dirty ports, in
//! the same deterministic topological order, so incremental results are
//! bit-for-bit equal to a fresh [`analyze_multi_hop_with`](rtswitch_core::analyze_multi_hop_with) of the current
//! flow set — a property the crate's `cache_soundness` test enforces after
//! every random mutation.

use rtswitch_core::{
    analyze_port, compose_end_to_end, flow_ports, port_schedule, AnalysisError, Approach,
    FabricPort, HopBound, MultiHopMessageBound, MultiHopReport, NetworkConfig, PolicyArm,
    StageFlow,
};

use ethernet::{Fabric, SchedulingPolicy};
use netcalc::{Curve, Envelope, EnvelopeModel, RateLatency, TokenBucket};
use serde::{Deserialize, Serialize};
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
    /// The recomputed ports, in analysis order.
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

/// The key of one cached port analysis.
///
/// The engine analyses one fixed `(policy arm, envelope model)` pair, but
/// the key carries both so entries from differently-configured engines can
/// never be confused if caches are ever merged or persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CurveKey {
    /// The output port.
    pub port: FabricPort,
    /// The scheduling-policy family.
    pub arm: PolicyArm,
    /// The arrival-envelope model.
    pub model: EnvelopeModel,
}

/// Everything one flow accrues at one cached port.
#[derive(Debug, Clone, PartialEq)]
pub struct PortFlowEntry {
    /// The multiplexer (stage) bound at the port.
    pub stage_delay: Duration,
    /// The flow's own left-over delay at the port.
    pub flow_delay: Duration,
    /// The flow's envelope *after* the port.
    pub output: Envelope,
    /// The packetizer-corrected left-over rate-latency service.
    pub leftover: RateLatency,
    /// The general left-over curve (staircase model only).
    pub leftover_curve: Option<Curve>,
}

/// One cached port analysis: the flows crossing the port in registration
/// order, the port's aggregate arrival envelope, and per-flow results.
#[derive(Debug, Clone, PartialEq)]
pub struct PortEntry {
    /// Flows crossing the port, in registration order.
    pub flows: Vec<FlowId>,
    /// Aggregate token-bucket arrival envelope at the port.
    pub aggregate: TokenBucket,
    /// Per-flow analysis results.
    pub per_flow: BTreeMap<FlowId, PortFlowEntry>,
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
/// the recomputed port entries, the ports that lost their last flow, and
/// the recomposed bounds.
///
/// A delta is expressed as a *difference* (not a whole-state replacement)
/// so several deltas with disjoint dirty closures can commit one after the
/// other within a batch group without clobbering each other's entries.
#[derive(Debug, Clone)]
pub(crate) struct Delta {
    pub(crate) op: RegistryOp,
    pub(crate) entries: BTreeMap<CurveKey, PortEntry>,
    pub(crate) removed_ports: Vec<CurveKey>,
    pub(crate) bounds: BTreeMap<FlowId, MultiHopMessageBound>,
}

/// A fully evaluated (but uncommitted) query.
#[derive(Debug, Clone)]
pub(crate) struct Preview {
    pub(crate) verdict: AdmissionVerdict,
    pub(crate) delta: Option<Delta>,
}

/// One tentative flow during a preview: its id, spec and routed path.
struct TentativeFlow<'a> {
    id: FlowId,
    spec: &'a FlowSpec,
    path: &'a [FabricPort],
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
    /// Route index: which registered flows cross each port, and at which
    /// hop.  Maintained on commit so closures cost O(closure), not
    /// O(flows) — an always-on engine answers queries at cache speed.
    crossings: BTreeMap<FabricPort, Vec<(FlowId, usize)>>,
    cache: BTreeMap<CurveKey, PortEntry>,
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
            crossings: BTreeMap::new(),
            cache: BTreeMap::new(),
            bounds: BTreeMap::new(),
            next_id: specs.len() as u64,
            stats: EngineStats::default(),
            degraded: None,
        };
        let paths: Vec<Vec<FabricPort>> = specs
            .iter()
            .map(|s| flow_ports(&engine.fabric, s.source, s.destination))
            .collect();
        let tentative: Vec<TentativeFlow<'_>> = specs
            .iter()
            .zip(&paths)
            .enumerate()
            .map(|(i, (spec, path))| TentativeFlow {
                id: FlowId(i as u64),
                spec,
                path,
            })
            .collect();
        // Cold start: every occupied port is dirty.
        let dirty: BTreeSet<FabricPort> = paths.iter().flatten().copied().collect();
        let re = engine.reanalyze(&tentative, &dirty)?;
        engine.cache = re.entries;
        for (i, (spec, path)) in specs.into_iter().zip(paths).enumerate() {
            let id = FlowId(i as u64);
            engine.flows.push(id);
            for (k, &port) in path.iter().enumerate() {
                engine.crossings.entry(port).or_default().push((id, k));
            }
            engine.specs.insert(id, spec);
            engine.paths.insert(id, path);
        }
        engine.bounds = re.bounds;
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
        let re = match self.recompute_full(&ids, &specs, &fabric) {
            Ok(re) => re,
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
        self.install_full(ids, re, Decision::Degraded, "degrade")
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
        let re = match self.recompute_full(&ids, &specs, &fabric) {
            Ok(re) => re,
            Err(err) => return self.fault_rejection("restore", err.to_string()),
        };
        self.fabric = fabric;
        for id in &state.babble_flows {
            self.specs.remove(id);
        }
        self.degraded = None;
        self.install_full(ids, re, Decision::Restored, "restore")
    }

    /// From-scratch-equivalent re-analysis of `ids`/`specs` routed over
    /// `fabric`: every previously cached port and every port of the new
    /// routes is dirty, so nothing stale survives.
    fn recompute_full(
        &self,
        ids: &[FlowId],
        specs: &[&FlowSpec],
        fabric: &Fabric,
    ) -> Result<Reanalysis, AnalysisError> {
        let paths: Vec<Vec<FabricPort>> = specs
            .iter()
            .map(|s| flow_ports(fabric, s.source, s.destination))
            .collect();
        let tentative: Vec<TentativeFlow<'_>> = ids
            .iter()
            .zip(specs)
            .zip(&paths)
            .map(|((id, spec), path)| TentativeFlow {
                id: *id,
                spec,
                path,
            })
            .collect();
        let mut dirty: BTreeSet<FabricPort> = self.cache.keys().map(|k| k.port).collect();
        for path in &paths {
            dirty.extend(path.iter().copied());
        }
        let mut re = self.reanalyze(&tentative, &dirty)?;
        re.paths = ids.iter().copied().zip(paths).collect();
        Ok(re)
    }

    /// Installs a full recompute wholesale: flow order, route index, port
    /// cache and bounds are all replaced, which is exactly the cold-start
    /// state for the new flow set (the cache-soundness invariant by
    /// construction).
    fn install_full(
        &mut self,
        ids: Vec<FlowId>,
        re: Reanalysis,
        decision: Decision,
        name: &str,
    ) -> AdmissionVerdict {
        let margins: Vec<FlowMargin> = ids
            .iter()
            .filter_map(|id| {
                re.bounds
                    .get(id)
                    .map(|bound| FlowMargin::from_bound(*id, bound))
            })
            .collect();
        self.flows = ids;
        self.paths = re.paths;
        self.crossings.clear();
        for id in self.flows.clone() {
            let path = self.paths[&id].clone();
            self.index_path(id, &path);
        }
        self.cache = re.entries;
        self.bounds = re.bounds;
        let mut cache = re.cache;
        cache.ports_total = self.cache.len();
        cache.ports_reused = 0;
        cache.flows_reused = 0;
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
            .map(|(key, entry)| PortOccupancy {
                port: key.port.to_string(),
                flows: entry.flows.clone(),
                burst: entry.aggregate.burst(),
                rate: entry.aggregate.rate(),
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

    /// The engine's cache key for a port.
    fn key(&self, port: FabricPort) -> CurveKey {
        CurveKey {
            port,
            arm: self.approach.arm(),
            model: self.model,
        }
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

    /// The dirty-port closure of a mutation, walked over the engine's
    /// route index.  `drop` excludes the mutated flow's own (stale)
    /// crossings — its *new* path, when it has one, is always wholly in
    /// the seed, so propagation from it is already covered.  Matches
    /// [`dirty_closure`] over the tentative route table, at O(closure)
    /// instead of O(flows).
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
            let Some(list) = self.crossings.get(&port) else {
                continue;
            };
            for &(flow, k) in list {
                if Some(flow) == drop || expanded.get(&flow).is_some_and(|&from| k >= from) {
                    continue;
                }
                expanded.insert(flow, k);
                for &downstream in &self.paths[&flow][k + 1..] {
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
                let mut tentative = self.tentative_flows();
                tentative.push(TentativeFlow {
                    id,
                    spec: flow,
                    path: &path,
                });
                self.preview_change(
                    tentative,
                    dirty,
                    Some(id),
                    flow.name.clone(),
                    Decision::Admitted,
                    RegistryOp::Add {
                        id,
                        spec: flow.clone(),
                        path: path.clone(),
                    },
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
                let tentative: Vec<TentativeFlow<'_>> = self
                    .tentative_flows()
                    .into_iter()
                    .filter(|t| t.id != *flow)
                    .collect();
                self.preview_change(
                    tentative,
                    dirty,
                    Some(*flow),
                    spec.name.clone(),
                    Decision::Revoked,
                    RegistryOp::Remove { id: *flow },
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
                let tentative: Vec<TentativeFlow<'_>> = self
                    .tentative_flows()
                    .into_iter()
                    .map(|t| {
                        if t.id == *flow {
                            TentativeFlow {
                                id: t.id,
                                spec,
                                path: &path,
                            }
                        } else {
                            t
                        }
                    })
                    .collect();
                self.preview_change(
                    tentative,
                    dirty,
                    Some(*flow),
                    spec.name.clone(),
                    Decision::Modified,
                    RegistryOp::Replace {
                        id: *flow,
                        spec: spec.clone(),
                        path: path.clone(),
                    },
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
                self.index_path(id, &path);
                self.specs.insert(id, spec);
                self.paths.insert(id, path);
            }
            RegistryOp::Remove { id } => {
                self.flows.retain(|f| *f != id);
                self.unindex_path(id);
                self.specs.remove(&id);
                self.paths.remove(&id);
                self.bounds.remove(&id);
            }
            RegistryOp::Replace { id, spec, path } => {
                self.unindex_path(id);
                self.index_path(id, &path);
                self.specs.insert(id, spec);
                self.paths.insert(id, path);
            }
        }
        for key in delta.removed_ports {
            self.cache.remove(&key);
        }
        for (key, entry) in delta.entries {
            self.cache.insert(key, entry);
        }
        for (id, bound) in delta.bounds {
            self.bounds.insert(id, bound);
        }
    }

    /// Records a flow's path in the route index.
    fn index_path(&mut self, id: FlowId, path: &[FabricPort]) {
        for (k, &port) in path.iter().enumerate() {
            self.crossings.entry(port).or_default().push((id, k));
        }
    }

    /// Drops a flow's (pre-mutation) path from the route index.
    fn unindex_path(&mut self, id: FlowId) {
        for &port in &self.paths[&id] {
            if let Some(list) = self.crossings.get_mut(&port) {
                list.retain(|(f, _)| *f != id);
                if list.is_empty() {
                    self.crossings.remove(&port);
                }
            }
        }
    }

    /// The current flow set as tentative flows.
    fn tentative_flows(&self) -> Vec<TentativeFlow<'_>> {
        self.flows
            .iter()
            .map(|id| TentativeFlow {
                id: *id,
                spec: &self.specs[id],
                path: &self.paths[id],
            })
            .collect()
    }

    /// Shared tail of every preview: re-analyse the dirty closure over the
    /// tentative flow set, decide, and package the delta.
    fn preview_change(
        &self,
        tentative: Vec<TentativeFlow<'_>>,
        dirty: BTreeSet<FabricPort>,
        flow: Option<FlowId>,
        name: String,
        success: Decision,
        op: RegistryOp,
    ) -> Preview {
        let re = match self.reanalyze(&tentative, &dirty) {
            Ok(re) => re,
            Err(err) => {
                return Preview::rejected(flow, name, err.to_string());
            }
        };
        let margins: Vec<FlowMargin> = tentative
            .iter()
            .filter_map(|t| {
                re.bounds
                    .get(&t.id)
                    .map(|b| FlowMargin::from_bound(t.id, b))
            })
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
        let cache = re.cache;
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
                    entries: re.entries,
                    removed_ports: re.removed_ports,
                    bounds: re.bounds,
                }),
            },
        }
    }

    /// Re-analyses an already-closed `dirty` port set over the tentative
    /// flow set: recomputes every dirty port in topological order (clean
    /// ports feed their cached outputs in), then recomposes the
    /// end-to-end bound of every flow crossing a dirty port.
    fn reanalyze(
        &self,
        tentative: &[TentativeFlow<'_>],
        dirty: &BTreeSet<FabricPort>,
    ) -> Result<Reanalysis, AnalysisError> {
        // Touched flows: the ones crossing the dirty closure, by global
        // tentative index.  Every occupant of a dirty port is touched, so
        // the schedule restricted to touched paths still lists each dirty
        // port's complete flow set; and any ordering edge between two
        // dirty ports comes from a flow crossing both — touched by
        // definition — so the restricted topological order stays valid
        // for the dirty subgraph.  Restricting keeps a preview's cost
        // proportional to the closure, not to the whole network.
        let touched: Vec<usize> = (0..tentative.len())
            .filter(|&i| tentative[i].path.iter().any(|p| dirty.contains(p)))
            .collect();
        let touched_paths: Vec<&[FabricPort]> =
            touched.iter().map(|&i| tentative[i].path).collect();
        let (port_flows, order) = port_schedule(&touched_paths);
        // Re-key the schedule from touched-local to global indexes; the
        // touched list ascends, so each port's flow order stays the
        // registration order the full schedule would produce.
        let port_flows: BTreeMap<FabricPort, Vec<usize>> = port_flows
            .into_iter()
            .map(|(p, idxs)| (p, idxs.into_iter().map(|i| touched[i]).collect()))
            .collect();
        // Positional message specs: the analysis labels flows by their
        // index in the tentative registration order, exactly like a
        // from-scratch workload would.  Only touched flows reach the
        // analysis, so only they are materialized.
        let specs: BTreeMap<usize, MessageSpec> = touched
            .iter()
            .map(|&i| (i, tentative[i].spec.to_message_spec(MessageId(i))))
            .collect();
        // Hop position of each touched flow at each of its ports.
        let positions: BTreeMap<usize, BTreeMap<FabricPort, usize>> = touched
            .iter()
            .map(|&i| {
                (
                    i,
                    tentative[i]
                        .path
                        .iter()
                        .enumerate()
                        .map(|(k, &p)| (p, k))
                        .collect(),
                )
            })
            .collect();

        let mut entries: BTreeMap<CurveKey, PortEntry> = BTreeMap::new();
        for &port in &order {
            if !dirty.contains(&port) {
                continue;
            }
            let idxs = &port_flows[&port];
            let ttechno = port_ttechno(port, &self.config);
            let stage_flows: Vec<StageFlow> = idxs
                .iter()
                .map(|&i| {
                    let k = positions[&i][&port];
                    let envelope = if k == 0 {
                        specs[&i].arrival_envelope(self.model, self.config.link_rate)
                    } else {
                        let prev = tentative[i].path[k - 1];
                        self.entry_at(&entries, prev)
                            .expect("predecessor port is clean-cached or already recomputed")
                            .per_flow[&tentative[i].id]
                            .output
                            .clone()
                    };
                    StageFlow {
                        message: MessageId(i),
                        envelope,
                        priority: specs[&i].priority(),
                        frame: specs[&i].frame_size(),
                    }
                })
                .collect();
            let last_hop: Vec<bool> = idxs
                .iter()
                .map(|&i| positions[&i][&port] + 1 == tentative[i].path.len())
                .collect();
            let analysis = analyze_port(
                &stage_flows,
                &last_hop,
                &self.policy,
                &self.config,
                ttechno,
                self.model,
                &port.to_string(),
            )?;
            let mut per_flow = BTreeMap::new();
            for (&i, pf) in idxs.iter().zip(&analysis.flows) {
                per_flow.insert(
                    tentative[i].id,
                    PortFlowEntry {
                        stage_delay: pf.stage_delay,
                        flow_delay: pf.flow_delay,
                        output: pf.output.clone(),
                        leftover: pf.leftover,
                        leftover_curve: pf.leftover_curve.clone(),
                    },
                );
            }
            entries.insert(
                self.key(port),
                PortEntry {
                    flows: idxs.iter().map(|&i| tentative[i].id).collect(),
                    aggregate: analysis.aggregate,
                    per_flow,
                },
            );
        }

        // Recompose every flow whose path crosses the dirty closure.
        let mut bounds: BTreeMap<FlowId, MultiHopMessageBound> = BTreeMap::new();
        let flows_recomputed = touched.len();
        for &i in &touched {
            let t = &tentative[i];
            let mut hops = Vec::with_capacity(t.path.len());
            let mut leftovers = Vec::with_capacity(t.path.len());
            let mut leftover_curves = Vec::new();
            for &port in t.path {
                let entry = self
                    .entry_at(&entries, port)
                    .expect("every port of an active flow is cached or recomputed");
                let pf = &entry.per_flow[&t.id];
                hops.push(HopBound {
                    port: port.to_string(),
                    stage_delay: pf.stage_delay,
                    flow_delay: pf.flow_delay,
                });
                leftovers.push(pf.leftover);
                if let Some(curve) = &pf.leftover_curve {
                    leftover_curves.push(curve.clone());
                }
            }
            let bound = compose_end_to_end(
                &specs[&i],
                t.path.len(),
                hops,
                &leftovers,
                &leftover_curves,
                self.model,
                &self.config,
            )?;
            bounds.insert(t.id, bound);
        }

        // Ports occupied before but vacated by this change.  Only a dirty
        // port can vacate — vacating takes the mutated flow leaving, and
        // its ports all seed the closure — so the restricted schedule is
        // enough to decide; and only the mutated flow's own ports can
        // vacate, so within a commuting batch group these never collide
        // with another member's entries.
        let removed_ports: Vec<CurveKey> = self
            .cache
            .keys()
            .filter(|key| dirty.contains(&key.port) && !port_flows.contains_key(&key.port))
            .copied()
            .collect();

        // Occupied ports after the change: the current cache, minus the
        // vacated ports, plus the newly occupied ones.
        let newly_occupied = entries
            .keys()
            .filter(|key| !self.cache.contains_key(key))
            .count();
        let ports_total = self.cache.len() - removed_ports.len() + newly_occupied;
        let ports_recomputed = entries.len();
        let recomputed_ports = entries.keys().map(|k| k.port.to_string()).collect();
        Ok(Reanalysis {
            entries,
            removed_ports,
            bounds,
            paths: BTreeMap::new(),
            cache: CacheStats {
                ports_total,
                ports_recomputed,
                ports_reused: ports_total.saturating_sub(ports_recomputed),
                flows_recomputed,
                flows_reused: tentative.len().saturating_sub(flows_recomputed),
                recomputed_ports,
            },
        })
    }

    /// A port's entry during re-analysis: freshly recomputed if dirty,
    /// otherwise the cached one.
    fn entry_at<'a>(
        &'a self,
        fresh: &'a BTreeMap<CurveKey, PortEntry>,
        port: FabricPort,
    ) -> Option<&'a PortEntry> {
        let key = self.key(port);
        fresh.get(&key).or_else(|| self.cache.get(&key))
    }
}

/// The product of one dirty-closure re-analysis.
struct Reanalysis {
    entries: BTreeMap<CurveKey, PortEntry>,
    removed_ports: Vec<CurveKey>,
    bounds: BTreeMap<FlowId, MultiHopMessageBound>,
    cache: CacheStats,
    /// The routes the analysis ran over, filled only by the full-recompute
    /// path (degrade/restore), which replaces the route table wholesale.
    paths: BTreeMap<FlowId, Vec<FabricPort>>,
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

/// The relaying latency of a port: zero at station uplinks (shaping
/// happens in the station), `ttechno` inside switches — the same split as
/// the from-scratch multi-hop walk.
fn port_ttechno(port: FabricPort, config: &NetworkConfig) -> Duration {
    match port {
        FabricPort::Uplink { .. } => Duration::ZERO,
        FabricPort::Trunk { .. } | FabricPort::Down { .. } => config.ttechno,
    }
}

/// The dirty-port closure: starting from `seed`, repeatedly mark every
/// port *downstream* of a dirty port along any flow's path, until a
/// fixpoint.
///
/// Dirtiness only travels downstream because a port's inputs are its
/// flows' envelopes, and a flow's envelope at hop `k` is produced at hop
/// `k − 1`; upstream ports never observe downstream state.  Consequently
/// each flow's dirty hops form a *suffix* of its path and the cached
/// prefix stays valid.  The closure depends only on routes — never on the
/// scheduling policy or envelope model — so one walk serves every arm.
pub fn dirty_closure(paths: &[&[FabricPort]], seed: BTreeSet<FabricPort>) -> BTreeSet<FabricPort> {
    // One pass indexes the routes by port, then a worklist propagates
    // dirtiness: each newly dirty port wakes the flows crossing it and
    // marks their downstream suffixes.  Every flow is expanded at most
    // once (from its earliest dirty hop), so the walk is linear in the
    // route table instead of a fixpoint over it.
    let mut by_port: BTreeMap<FabricPort, Vec<(usize, usize)>> = BTreeMap::new();
    for (flow, path) in paths.iter().enumerate() {
        for (k, &port) in path.iter().enumerate() {
            by_port.entry(port).or_default().push((flow, k));
        }
    }
    let mut dirty = seed;
    let mut pending: Vec<FabricPort> = dirty.iter().copied().collect();
    // Earliest hop each flow has been expanded from: a later wake at an
    // earlier hop must still mark the longer suffix.
    let mut expanded_from = vec![usize::MAX; paths.len()];
    while let Some(port) = pending.pop() {
        let Some(crossings) = by_port.get(&port) else {
            continue;
        };
        for &(flow, k) in crossings {
            if k >= expanded_from[flow] {
                continue;
            }
            expanded_from[flow] = k;
            for &downstream in &paths[flow][k + 1..] {
                if dirty.insert(downstream) {
                    pending.push(downstream);
                }
            }
        }
    }
    dirty
}
