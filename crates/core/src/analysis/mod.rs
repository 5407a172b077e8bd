//! The delay-bound analyses.

pub mod degraded;
pub mod end_to_end;
pub mod horizon;
pub mod jitter;
pub mod multi_hop;
pub(crate) mod port;
pub(crate) mod stage;

use ethernet::{SchedulingPolicy, WrrWeights};
use serde::{Deserialize, Serialize};

/// The multiplexing approaches the analysis compares: the paper's two
/// (FCFS, 4-level strict priority) plus the weighted-round-robin extension
/// that AFDX-class switches ship.
///
/// An `Approach` is the *arm name* of a comparison; it resolves to the
/// workspace's unified [`SchedulingPolicy`] — which every layer from the
/// multiplexer analysis to the simulator consumes — via
/// [`Approach::scheduling_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Approach {
    /// A single FCFS queue per output port.
    Fcfs,
    /// Strict-priority queues per output port (802.1p); the level count
    /// comes from [`crate::NetworkConfig::priority_levels`].
    StrictPriority,
    /// Weighted round robin with the given per-class quanta.
    Wrr {
        /// The per-class quanta of every output port.
        weights: WrrWeights,
    },
}

impl Approach {
    /// Resolves the arm to the concrete [`SchedulingPolicy`] every layer
    /// consumes, using `priority_levels` for the strict-priority queue
    /// count (the paper's 4).
    pub fn scheduling_policy(&self, priority_levels: usize) -> SchedulingPolicy {
        match self {
            Approach::Fcfs => SchedulingPolicy::Fcfs,
            Approach::StrictPriority => SchedulingPolicy::StrictPriority {
                levels: priority_levels.max(1),
            },
            Approach::Wrr { weights } => SchedulingPolicy::Wrr { weights: *weights },
        }
    }

    /// The weight-independent policy family of the arm.
    pub fn arm(&self) -> PolicyArm {
        match self {
            Approach::Fcfs => PolicyArm::Fcfs,
            Approach::StrictPriority => PolicyArm::StrictPriority,
            Approach::Wrr { .. } => PolicyArm::Wrr,
        }
    }
}

/// The policy family of an [`Approach`], with the WRR weights erased —
/// what campaign aggregation buckets by (every WRR scenario draws its own
/// weights, but they all belong to one arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PolicyArm {
    /// A single FCFS queue per output port.
    Fcfs,
    /// Strict-priority queues per output port.
    StrictPriority,
    /// Weighted round robin.
    Wrr,
}

impl core::fmt::Display for Approach {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.arm().fmt(f)
    }
}

impl core::fmt::Display for PolicyArm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PolicyArm::Fcfs => write!(f, "FCFS"),
            PolicyArm::StrictPriority => write!(f, "strict priority"),
            PolicyArm::Wrr => write!(f, "WRR"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethernet::WrrUnit;

    #[test]
    fn display() {
        assert_eq!(Approach::Fcfs.to_string(), "FCFS");
        assert_eq!(Approach::StrictPriority.to_string(), "strict priority");
        let wrr = Approach::Wrr {
            weights: WrrWeights::new(&[2, 1], WrrUnit::Frames),
        };
        assert_eq!(wrr.to_string(), "WRR");
        assert_eq!(wrr.arm(), PolicyArm::Wrr);
    }

    #[test]
    fn arms_resolve_to_the_shared_policy() {
        assert_eq!(Approach::Fcfs.scheduling_policy(4), SchedulingPolicy::Fcfs);
        assert_eq!(
            Approach::StrictPriority.scheduling_policy(4),
            SchedulingPolicy::StrictPriority { levels: 4 }
        );
        assert_eq!(
            Approach::StrictPriority.scheduling_policy(0),
            SchedulingPolicy::StrictPriority { levels: 1 }
        );
        let weights = WrrWeights::new(&[4, 2, 1, 1], WrrUnit::Bytes);
        assert_eq!(
            Approach::Wrr { weights }.scheduling_policy(4),
            SchedulingPolicy::Wrr { weights }
        );
    }
}
