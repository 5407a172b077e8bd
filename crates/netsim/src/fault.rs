//! Fault models: what can go wrong in the simulated network.
//!
//! The analytic crates promise worst-case bounds for a *healthy* network;
//! certification cares about the degraded one.  A [`FaultModel`] describes
//! a seeded, fully deterministic set of injected faults:
//!
//! * **babbling-idiot talkers** ([`Babbler`]) — a station emits a periodic
//!   stream of adversarial highest-priority frames outside any workload
//!   contract, the classic failure mode MIL-STD-1553's bus controller
//!   architecture was designed to exclude;
//! * **link error bursts** ([`LinkFault`]) — every frame a station uplink
//!   finishes serializing during the burst window arrives corrupted at the
//!   switch and is discarded (loss, never extra delay, so delay bounds
//!   for delivered frames are unaffected by construction);
//! * **trunk failover** ([`TrunkFailover`]) — a switch-to-switch trunk
//!   dies at a scheduled instant and a backup link takes over, re-routing
//!   all crossing traffic mid-horizon;
//! * a **health monitor** ([`HealthMonitor`]) — the switch-side containment
//!   mechanism: a babbling station is detected and isolated (its uplink
//!   admission blocked) after a configurable window.
//!
//! The corresponding analytic side lives in `rtswitch-core`'s degraded-mode
//! analysis, which turns babblers into extra cross-traffic envelopes and
//! failovers into post-failover route re-analysis.

use serde::{Deserialize, Serialize};
use units::{DataSize, Duration};
use workload::StationId;

/// A babbling-idiot talker: from `start` on, the station emits an
/// adversarial frame of `payload` bytes every `interval`, at the highest
/// priority, outside any shaping contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Babbler {
    /// The faulty station.
    pub station: StationId,
    /// The station the adversarial frames are addressed to.
    pub destination: StationId,
    /// Payload bytes of each adversarial frame.
    pub payload: DataSize,
    /// When the babbling starts (offset from the simulation epoch).
    pub start: Duration,
    /// Emission period of the adversarial stream.
    pub interval: Duration,
}

impl Babbler {
    /// Babbled frames claim the highest priority (queue 0 under every
    /// scheduling policy) — the worst case for legitimate urgent traffic.
    pub const PRIORITY: usize = 0;

    /// Wire size of one babbled frame (padded, tagged Ethernet frame).
    pub fn wire_size(&self) -> DataSize {
        ethernet::frame_size(self.payload)
    }
}

/// An error burst on a station's uplink: every frame whose serialization
/// completes inside `[start, start + duration)` is corrupted and discarded
/// at the receiving switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFault {
    /// The station whose uplink suffers the burst.
    pub station: StationId,
    /// Burst start (offset from the simulation epoch).
    pub start: Duration,
    /// Burst length.
    pub duration: Duration,
}

impl LinkFault {
    /// `true` when a frame completing serialization at `at` (offset from
    /// the epoch) falls inside the burst.
    pub fn corrupts(&self, at: Duration) -> bool {
        at >= self.start && at < self.start + self.duration
    }
}

/// A scheduled trunk failure with failover onto a backup link: at `at`,
/// trunk `trunk` (an index into `Fabric::trunks`) goes down, frames queued
/// on it are lost, and routing switches to the fabric with `backup` in its
/// place (see `Fabric::with_failover`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrunkFailover {
    /// Index of the failing trunk in the fabric's trunk list.
    pub trunk: usize,
    /// The backup switch pair brought up in its place.
    pub backup: (usize, usize),
    /// The failure instant (offset from the simulation epoch).
    pub at: Duration,
}

/// The switch-side health monitor: a babbling station is detected and
/// isolated `window` after it starts babbling — from then on nothing the
/// station sends (babble or legitimate traffic) is admitted at its uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthMonitor {
    /// Detection latency: time from babble onset to isolation.
    pub window: Duration,
}

/// A complete, deterministic fault scenario for one simulation run.
///
/// The default value is the healthy network: no faults, and a run with an
/// empty model is bit-identical to a run without one.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultModel {
    /// Babbling-idiot talkers.
    pub babblers: Vec<Babbler>,
    /// Link error bursts.
    pub link_faults: Vec<LinkFault>,
    /// At most one scheduled trunk failover.
    pub failover: Option<TrunkFailover>,
    /// The health monitor, when containment is deployed.
    pub monitor: Option<HealthMonitor>,
}

impl FaultModel {
    /// `true` when the model injects nothing (the healthy network).
    pub fn is_empty(&self) -> bool {
        self.babblers.is_empty() && self.link_faults.is_empty() && self.failover.is_none()
    }

    /// Number of injected faults (babblers + link bursts + failover).
    pub fn fault_count(&self) -> usize {
        self.babblers.len() + self.link_faults.len() + usize::from(self.failover.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_model_is_empty() {
        let m = FaultModel::default();
        assert!(m.is_empty());
        assert_eq!(m.fault_count(), 0);
        // The monitor alone does not make the network faulty.
        let monitored = FaultModel {
            monitor: Some(HealthMonitor {
                window: Duration::from_millis(40),
            }),
            ..FaultModel::default()
        };
        assert!(monitored.is_empty());
    }

    #[test]
    fn fault_count_sums_the_faults() {
        let m = FaultModel {
            babblers: vec![Babbler {
                station: StationId(1),
                destination: StationId(0),
                payload: DataSize::from_bytes(64),
                start: Duration::ZERO,
                interval: Duration::from_millis(5),
            }],
            link_faults: vec![LinkFault {
                station: StationId(2),
                start: Duration::from_millis(10),
                duration: Duration::from_millis(5),
            }],
            failover: Some(TrunkFailover {
                trunk: 0,
                backup: (0, 2),
                at: Duration::from_millis(80),
            }),
            monitor: None,
        };
        assert!(!m.is_empty());
        assert_eq!(m.fault_count(), 3);
    }

    #[test]
    fn babbled_frames_pay_ethernet_overhead() {
        let b = Babbler {
            station: StationId(0),
            destination: StationId(1),
            payload: DataSize::from_bytes(8),
            start: Duration::ZERO,
            interval: Duration::from_millis(5),
        };
        // 8-byte payload pads to the tagged minimum frame.
        assert_eq!(b.wire_size(), DataSize::from_bytes(68));
        assert_eq!(Babbler::PRIORITY, 0);
    }

    #[test]
    fn link_fault_window_is_half_open() {
        let lf = LinkFault {
            station: StationId(0),
            start: Duration::from_millis(10),
            duration: Duration::from_millis(5),
        };
        assert!(!lf.corrupts(Duration::from_millis(9)));
        assert!(lf.corrupts(Duration::from_millis(10)));
        assert!(lf.corrupts(Duration::from_millis(14)));
        assert!(!lf.corrupts(Duration::from_millis(15)));
    }

    #[test]
    fn fault_model_round_trips_through_json() {
        let m = FaultModel {
            babblers: vec![Babbler {
                station: StationId(3),
                destination: StationId(0),
                payload: DataSize::from_bytes(100),
                start: Duration::from_millis(2),
                interval: Duration::from_millis(10),
            }],
            link_faults: Vec::new(),
            failover: None,
            monitor: Some(HealthMonitor {
                window: Duration::from_millis(40),
            }),
        };
        let json = serde_json::to_string(&m).expect("serializes");
        let back: FaultModel = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, m);
    }
}
