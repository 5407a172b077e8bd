//! Degraded-mode analysis: worst-case bounds under injected faults.
//!
//! The healthy analysis ([`analyze_multi_hop_with`]) certifies deadlines for
//! the network as designed.  Certification also asks the dual question: do
//! the bounds still hold when things break?  This module answers it for the
//! fault taxonomy of [`netsim::FaultModel`]:
//!
//! * a **babbling-idiot talker** becomes one extra highest-priority sporadic
//!   message at its attach station ([`degraded_workload`]) — an additional
//!   cross-traffic envelope at the station's uplink and every port the
//!   adversarial stream crosses.  The simulator emits exactly one babbled
//!   frame per interval, so the sporadic staircase `⌊t/T⌋ + 1` (and a
//!   fortiori its token-bucket relaxation) soundly bounds the stream;
//! * a **trunk failover** re-routes crossings onto the backup fabric
//!   ([`ethernet::Fabric::with_failover`]): the augmented workload is
//!   re-analysed on the post-failover routes and each flow's degraded bound
//!   is the worst of the two routings.  This is sound against the simulator
//!   because its reconvergence flush discards any frame still travelling
//!   between switches at the failover instant — every *delivered* frame
//!   traversed exactly one of the two analysed routings (station uplinks
//!   carry the same flow set under both fabrics, so an uplink wait spanning
//!   the failover is covered by either report);
//! * **link error bursts** and **health-monitor isolation** only remove
//!   frames from a work-conserving system, so they never increase the delay
//!   of a surviving frame and need no analytic surcharge;
//! * the verdict ([`DegradedReport::bounds_hold`]) states whether every real
//!   flow still meets its deadline under the full fault set.

use crate::analysis::multi_hop::{analyze_multi_hop_with, MultiHopReport};
use crate::analysis::{end_to_end::AnalysisError, Approach};
use crate::config::NetworkConfig;
use ethernet::Fabric;
use netcalc::EnvelopeModel;
use netsim::{Babbler, FaultModel};
use serde::{Deserialize, Serialize};
use units::Duration;
use workload::{Arrival, MessageId, Workload};

/// The deadline assigned to a modelled babble stream: the P0 boundary, so
/// the adversarial message classifies as urgent-sporadic and competes at the
/// same priority ([`Babbler::PRIORITY`]) the simulator gives babbled frames.
const BABBLE_DEADLINE: Duration = Duration::from_millis(3);

/// The healthy workload plus one highest-priority sporadic message per
/// babbling talker ("babble-0", "babble-1", …, appended in order, so the
/// babble message ids continue past the real workload exactly like the
/// simulator's sentinel message ids).
pub fn degraded_workload(workload: &Workload, babblers: &[Babbler]) -> Workload {
    let mut augmented = workload.clone();
    for (i, b) in babblers.iter().enumerate() {
        augmented.add_message(
            format!("babble-{i}"),
            b.station,
            b.destination,
            b.payload,
            Arrival::Sporadic {
                min_interarrival: b.interval,
            },
            BABBLE_DEADLINE,
        );
    }
    augmented
}

/// One real flow's bound before and after fault injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedFlowBound {
    /// The message stream.
    pub message: MessageId,
    /// Message name (copied for readable reports).
    pub name: String,
    /// The healthy end-to-end bound (no faults).
    pub healthy_bound: Duration,
    /// The degraded end-to-end bound: the worst of the babble-augmented
    /// primary-route and post-failover-route analyses.
    pub degraded_bound: Duration,
    /// `degraded_bound / healthy_bound` (1.0 means the faults cost nothing).
    pub inflation: f64,
    /// The flow's deadline.
    pub deadline: Duration,
    /// `true` when the degraded bound still meets the deadline.
    pub meets_deadline: bool,
}

/// The degraded-mode verdict for one fault scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedReport {
    /// Number of injected faults (babblers + link bursts + failover).
    pub fault_count: usize,
    /// The babble-augmented analysis on the primary routes.
    pub primary: MultiHopReport,
    /// The babble-augmented analysis on the post-failover routes, when the
    /// fault model schedules a trunk failover.
    pub failover: Option<MultiHopReport>,
    /// Per-flow degraded bounds for the *real* messages only (babble
    /// streams are adversarial, not flows with contracts).
    pub flows: Vec<DegradedFlowBound>,
    /// `true` when every real flow still meets its deadline degraded.
    pub bounds_hold: bool,
}

impl DegradedReport {
    /// The degraded bound of one real flow.
    pub fn bound_for(&self, message: MessageId) -> Option<Duration> {
        self.flows
            .iter()
            .find(|f| f.message == message)
            .map(|f| f.degraded_bound)
    }

    /// The worst `degraded / healthy` bound ratio across real flows
    /// (0.0 for an empty workload).
    pub fn max_inflation(&self) -> f64 {
        self.flows.iter().map(|f| f.inflation).fold(0.0, f64::max)
    }

    /// Real flows whose degraded bound misses the deadline.
    pub fn violations(&self) -> Vec<&DegradedFlowBound> {
        self.flows.iter().filter(|f| !f.meets_deadline).collect()
    }
}

/// Analyses the workload under a fault model and reports, per real flow,
/// the worst-case bound that still holds in the degraded network.
///
/// Babblers join the workload as extra highest-priority sporadic messages;
/// a scheduled trunk failover additionally re-analyses the augmented
/// workload on the post-failover fabric, and each flow's degraded bound is
/// the maximum over both routings.  Link faults and the health monitor are
/// loss-only and leave delay bounds untouched.
///
/// This is the healthy [`analyze_multi_hop_with`] followed by
/// [`analyze_degraded_from`]; a caller that already holds the healthy
/// report calls the latter directly.
///
/// Errors propagate from the underlying multi-hop analysis — typically an
/// unstable port once the babble load is added, which is itself a meaningful
/// verdict ("no finite bound survives this fault set").
///
/// # Panics
/// Panics if a scheduled failover's backup does not reconnect the fabric
/// (the same contract as [`netsim::Simulator::with_faults`]).
pub fn analyze_degraded_with(
    workload: &Workload,
    config: &NetworkConfig,
    approach: Approach,
    fabric: &Fabric,
    model: EnvelopeModel,
    faults: &FaultModel,
) -> Result<DegradedReport, AnalysisError> {
    let healthy = analyze_multi_hop_with(workload, config, approach, fabric, model)?;
    analyze_degraded_from(&healthy, workload, faults)
}

/// [`analyze_degraded_with`] on the healthy analysis of `workload` the
/// caller already holds: `healthy` supplies the approach, envelope model,
/// network configuration and fabric the degraded analyses run under, and
/// every flow's healthy bound.
///
/// # Panics
/// Panics if a scheduled failover's backup does not reconnect the fabric.
pub fn analyze_degraded_from(
    healthy: &MultiHopReport,
    workload: &Workload,
    faults: &FaultModel,
) -> Result<DegradedReport, AnalysisError> {
    let (config, approach, fabric, model) = (
        &healthy.config,
        healthy.approach,
        &healthy.fabric,
        healthy.envelope,
    );
    let augmented = degraded_workload(workload, &faults.babblers);
    let primary = analyze_multi_hop_with(&augmented, config, approach, fabric, model)?;
    let failover = match faults.failover {
        Some(f) => {
            let backup_fabric = fabric
                .with_failover(f.trunk, f.backup)
                .expect("failover backup must reconnect the fabric");
            Some(analyze_multi_hop_with(
                &augmented,
                config,
                approach,
                &backup_fabric,
                model,
            )?)
        }
        None => None,
    };
    let flows: Vec<DegradedFlowBound> = workload
        .messages
        .iter()
        .map(|m| {
            let healthy_bound = bound_of(healthy, m.id);
            let primary_bound = bound_of(&primary, m.id);
            let degraded_bound = failover
                .as_ref()
                .map_or(primary_bound, |r| primary_bound.max(bound_of(r, m.id)));
            let inflation =
                degraded_bound.as_nanos() as f64 / healthy_bound.as_nanos().max(1) as f64;
            DegradedFlowBound {
                message: m.id,
                name: m.name.clone(),
                healthy_bound,
                degraded_bound,
                inflation,
                deadline: m.deadline,
                meets_deadline: degraded_bound <= m.deadline,
            }
        })
        .collect();
    let bounds_hold = flows.iter().all(|f| f.meets_deadline);
    Ok(DegradedReport {
        fault_count: faults.fault_count(),
        primary,
        failover,
        flows,
        bounds_hold,
    })
}

fn bound_of(report: &MultiHopReport, message: MessageId) -> Duration {
    report
        .bound_for(message)
        .expect("every workload message is analysed")
        .total_bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HealthMonitor, LinkFault, TrunkFailover};
    use units::{DataRate, DataSize};
    use workload::StationId;

    fn test_config() -> NetworkConfig {
        NetworkConfig {
            link_rate: DataRate::from_mbps(100),
            ..NetworkConfig::paper_default()
        }
    }

    fn small_workload(stations: usize) -> Workload {
        let mut w = Workload::new();
        for i in 0..stations {
            w.add_station(format!("s{i}"));
        }
        w.add_message(
            "urgent",
            StationId(1),
            StationId(0),
            DataSize::from_bytes(64),
            Arrival::Sporadic {
                min_interarrival: Duration::from_millis(20),
            },
            Duration::from_millis(3),
        );
        w.add_message(
            "telemetry",
            StationId(2),
            StationId(0),
            DataSize::from_bytes(256),
            Arrival::Periodic {
                period: Duration::from_millis(20),
            },
            Duration::from_millis(20),
        );
        w.add_message(
            "bulk",
            StationId(0),
            StationId(2),
            DataSize::from_bytes(512),
            Arrival::Periodic {
                period: Duration::from_millis(40),
            },
            Duration::from_millis(160),
        );
        w
    }

    fn one_babbler() -> Babbler {
        Babbler {
            station: StationId(1),
            destination: StationId(0),
            payload: DataSize::from_bytes(200),
            start: Duration::ZERO,
            interval: Duration::from_millis(5),
        }
    }

    #[test]
    fn degraded_workload_appends_babble_messages() {
        let w = small_workload(3);
        let augmented = degraded_workload(&w, &[one_babbler()]);
        assert_eq!(augmented.messages.len(), w.messages.len() + 1);
        let babble = augmented.messages.last().unwrap();
        assert_eq!(babble.name, "babble-0");
        assert_eq!(babble.id, MessageId(w.messages.len()));
        // Highest priority, matching the simulator's babbled frames.
        assert_eq!(babble.priority(), netsim::Babbler::PRIORITY);
        // Same wire size as the simulated babble frames.
        assert_eq!(babble.frame_size(), one_babbler().wire_size());
    }

    #[test]
    fn empty_fault_model_inflates_nothing() {
        let w = small_workload(3);
        let fabric = Fabric::single_switch(3);
        let report = analyze_degraded_with(
            &w,
            &test_config(),
            Approach::StrictPriority,
            &fabric,
            EnvelopeModel::TokenBucket,
            &FaultModel::default(),
        )
        .unwrap();
        assert_eq!(report.fault_count, 0);
        assert!(report.failover.is_none());
        assert!(report.bounds_hold);
        assert_eq!(report.max_inflation(), 1.0);
        for f in &report.flows {
            assert_eq!(f.degraded_bound, f.healthy_bound);
        }
    }

    #[test]
    fn a_babbler_inflates_bounds_at_its_attach_port() {
        let w = small_workload(3);
        let fabric = Fabric::single_switch(3);
        let faults = FaultModel {
            babblers: vec![one_babbler()],
            monitor: Some(HealthMonitor {
                window: Duration::from_millis(40),
            }),
            ..FaultModel::default()
        };
        let report = analyze_degraded_with(
            &w,
            &test_config(),
            Approach::StrictPriority,
            &fabric,
            EnvelopeModel::TokenBucket,
            &faults,
        )
        .unwrap();
        assert_eq!(report.fault_count, 1);
        // The babbler shares the urgent flow's uplink and the victim's
        // delivery port: its bound must strictly grow.
        let urgent = &report.flows[0];
        assert!(urgent.degraded_bound > urgent.healthy_bound);
        assert!(urgent.inflation > 1.0);
        assert!(report.max_inflation() >= urgent.inflation);
        // Only real flows are reported.
        assert_eq!(report.flows.len(), w.messages.len());
        assert!(report.bound_for(MessageId(w.messages.len())).is_none());
    }

    #[test]
    fn failover_takes_the_worst_of_both_routings() {
        let w = small_workload(4);
        let fabric = Fabric::line(3, 4);
        let failed = 0;
        let backup = fabric.backup_for(failed).unwrap();
        let faults = FaultModel {
            failover: Some(TrunkFailover {
                trunk: failed,
                backup,
                at: Duration::from_millis(80),
            }),
            ..FaultModel::default()
        };
        let report = analyze_degraded_with(
            &w,
            &test_config(),
            Approach::StrictPriority,
            &fabric,
            EnvelopeModel::TokenBucket,
            &faults,
        )
        .unwrap();
        let post = report.failover.as_ref().expect("failover analysed");
        for f in &report.flows {
            let primary = report.primary.bound_for(f.message).unwrap().total_bound;
            let rerouted = post.bound_for(f.message).unwrap().total_bound;
            assert_eq!(f.degraded_bound, primary.max(rerouted));
            assert!(f.degraded_bound >= f.healthy_bound);
        }
    }

    #[test]
    fn loss_only_faults_leave_bounds_untouched() {
        let w = small_workload(3);
        let fabric = Fabric::single_switch(3);
        let faults = FaultModel {
            link_faults: vec![LinkFault {
                station: StationId(2),
                start: Duration::from_millis(10),
                duration: Duration::from_millis(30),
            }],
            ..FaultModel::default()
        };
        let report = analyze_degraded_with(
            &w,
            &test_config(),
            Approach::StrictPriority,
            &fabric,
            EnvelopeModel::TokenBucket,
            &faults,
        )
        .unwrap();
        assert_eq!(report.fault_count, 1);
        for f in &report.flows {
            assert_eq!(f.degraded_bound, f.healthy_bound);
        }
        assert!(report.violations().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::validation::{sim_config_for, validation_from_bound_lookup};
    use netsim::{HealthMonitor, Simulator, TrunkFailover};
    use proptest::prelude::*;
    use units::{DataRate, DataSize};
    use workload::{GeneratorConfig, StationId, WorkloadGenerator};

    /// Minimal deterministic generator for expanding a seed into a fault
    /// set, independent of the `rand` shim.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn fault_set_for(seed: u64, stations: usize, fabric: &Fabric) -> FaultModel {
        let mut rng = SplitMix64(seed.wrapping_mul(0x9e37_79b9) + 1);
        let babbler_count = 1 + (rng.next() as usize % 2);
        let intervals = [5u64, 10, 20, 40];
        let babblers = (0..babbler_count)
            .map(|_| {
                let station = rng.next() as usize % stations;
                let destination = (station + 1 + rng.next() as usize % (stations - 1)) % stations;
                Babbler {
                    station: StationId(station),
                    destination: StationId(destination),
                    payload: DataSize::from_bytes(16 + rng.next() % 113),
                    start: Duration::from_millis(rng.next() % 40),
                    interval: Duration::from_millis(intervals[rng.next() as usize % 4]),
                }
            })
            .collect();
        let monitor = rng.next().is_multiple_of(2).then_some(HealthMonitor {
            window: Duration::from_millis(40),
        });
        let failover = (fabric.trunks().len() > 1).then(|| {
            let trunk = rng.next() as usize % fabric.trunks().len();
            TrunkFailover {
                trunk,
                backup: fabric.backup_for(trunk).expect("line fabrics reconnect"),
                at: Duration::from_millis(80),
            }
        });
        FaultModel {
            babblers,
            link_faults: Vec::new(),
            failover,
            monitor,
        }
    }

    proptest! {
        /// Cross-layer soundness: for every seeded fault set, the
        /// degraded-mode analytic bound dominates every simulated delay of
        /// surviving frames — across scheduling policies and envelope
        /// models.
        #[test]
        fn degraded_bounds_dominate_faulty_simulations(seed in 0u64..1_000) {
            let approach = match seed % 3 {
                0 => Approach::Fcfs,
                1 => Approach::StrictPriority,
                _ => Approach::Wrr {
                    weights: ethernet::WrrWeights::new(&[4, 2, 1, 1], ethernet::WrrUnit::Frames),
                },
            };
            let model = if (seed / 3) % 2 == 0 {
                EnvelopeModel::TokenBucket
            } else {
                EnvelopeModel::Staircase
            };
            let generator = GeneratorConfig {
                subsystems: 3 + (seed as usize % 3),
                messages_per_subsystem: 2,
                max_payload_bytes: 256,
                seed,
                ..GeneratorConfig::default()
            };
            let workload = WorkloadGenerator::new(generator).generate();
            let stations = workload.stations.len();
            let fabric = if seed % 2 == 0 {
                Fabric::single_switch(stations)
            } else {
                Fabric::line(3, stations)
            };
            let config = NetworkConfig {
                link_rate: DataRate::from_mbps(100),
                ..NetworkConfig::paper_default()
            };
            let faults = fault_set_for(seed, stations, &fabric);
            let Ok(degraded) =
                analyze_degraded_with(&workload, &config, approach, &fabric, model, &faults)
            else {
                // No finite bound survives this fault set: a legitimate
                // verdict, nothing to compare against.
                return Ok(());
            };
            let horizon = Duration::from_millis(160);
            let sim = Simulator::with_fabric(
                workload.clone(),
                sim_config_for(approach, &config, horizon, seed),
                fabric,
            )
            .with_faults(faults)
            .run();
            let validation =
                validation_from_bound_lookup(&workload, |id| degraded.bound_for(id), sim);
            prop_assert!(
                validation.all_sound(),
                "degraded bound violated: {:?}",
                validation
                    .violations()
                    .iter()
                    .map(|v| (&v.name, v.observed_worst, v.bound))
                    .collect::<Vec<_>>()
            );
        }
    }
}
