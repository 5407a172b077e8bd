//! Output-port scheduling: the workspace's single [`SchedulingPolicy`]
//! type.

use serde::{Deserialize, Serialize};

/// Maximum number of classes a weighted-round-robin port can carve.
///
/// Kept as a fixed capacity so [`WrrWeights`] (and everything embedding it:
/// [`SchedulingPolicy`], the simulator configuration, campaign scenarios)
/// stays `Copy`.
pub const MAX_WRR_CLASSES: usize = 8;

/// The unit a WRR class quantum is accounted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WrrUnit {
    /// Each visit serves up to `quantum` whole frames (classic WRR).
    Frames,
    /// Each visit serves up to `quantum` bytes, with deficit carry-over
    /// across rounds (deficit round robin).
    Bytes,
}

/// The per-class weights of a weighted-round-robin output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WrrWeights {
    /// Number of active classes (1 ..= [`MAX_WRR_CLASSES`]); class 0 is the
    /// one the classifier maps the most urgent traffic to.
    pub classes: usize,
    /// Per-class quantum, in frames or bytes per visit depending on
    /// [`WrrWeights::unit`]; entries beyond `classes` are ignored.
    pub quanta: [u32; MAX_WRR_CLASSES],
    /// Unit of the quanta.
    pub unit: WrrUnit,
}

impl WrrWeights {
    /// Builds a weight set from per-class quanta (at most
    /// [`MAX_WRR_CLASSES`], at least one class; zero quanta are floored to
    /// one).
    pub fn new(quanta: &[u32], unit: WrrUnit) -> Self {
        let classes = quanta.len().clamp(1, MAX_WRR_CLASSES);
        let mut fixed = [0u32; MAX_WRR_CLASSES];
        for (slot, &q) in fixed.iter_mut().zip(quanta.iter()).take(classes) {
            *slot = q.max(1);
        }
        if quanta.is_empty() {
            fixed[0] = 1;
        }
        WrrWeights {
            classes,
            quanta: fixed,
            unit,
        }
    }

    /// The active per-class quanta (every entry ≥ 1).
    pub fn active_quanta(&self) -> Vec<u64> {
        (0..self.classes.clamp(1, MAX_WRR_CLASSES))
            .map(|c| self.quanta[c].max(1) as u64)
            .collect()
    }
}

/// Output-port scheduling policy of a switch (and, symmetrically, of an end
/// system's transmit path).
///
/// This is the **single** policy type of the workspace: the analytic stack
/// (`rtswitch-core`), the discrete-event simulator (`netsim`, which
/// re-exports it) and the campaign sweep all consume this one enum, so
/// adding a policy means adding one variant here plus its residual-service
/// multiplexer and its simulator service discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// A single FIFO queue per output port.
    Fcfs,
    /// Strict priority with the given number of levels (the paper uses 4);
    /// level 0 is served first, the frame in transmission is never
    /// preempted.
    StrictPriority {
        /// Number of priority levels (≥ 1).
        levels: usize,
    },
    /// Weighted round robin over per-class quanta: the server cycles
    /// through the classes, each visit serving up to the class's quantum
    /// (frames, or bytes with deficit carry-over), without preempting the
    /// frame in transmission.
    Wrr {
        /// Per-class quanta.
        weights: WrrWeights,
    },
}

impl SchedulingPolicy {
    /// The paper's 4-level strict-priority configuration.
    pub fn paper_priority() -> Self {
        SchedulingPolicy::StrictPriority { levels: 4 }
    }

    /// Number of queues an output port needs under this policy (the single
    /// replacement of the old `queue_count()`/`levels()` duplicates).
    pub fn queue_count(&self) -> usize {
        match self {
            SchedulingPolicy::Fcfs => 1,
            SchedulingPolicy::StrictPriority { levels } => (*levels).max(1),
            SchedulingPolicy::Wrr { weights } => weights.classes.clamp(1, MAX_WRR_CLASSES),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_counts() {
        assert_eq!(SchedulingPolicy::Fcfs.queue_count(), 1);
        assert_eq!(
            SchedulingPolicy::StrictPriority { levels: 4 }.queue_count(),
            4
        );
        assert_eq!(
            SchedulingPolicy::StrictPriority { levels: 0 }.queue_count(),
            1
        );
        assert_eq!(SchedulingPolicy::paper_priority().queue_count(), 4);
        let wrr = SchedulingPolicy::Wrr {
            weights: WrrWeights::new(&[4, 2, 1], WrrUnit::Frames),
        };
        assert_eq!(wrr.queue_count(), 3);
    }

    #[test]
    fn wrr_weights_are_floored_and_clamped() {
        let w = WrrWeights::new(&[0, 3], WrrUnit::Bytes);
        assert_eq!(w.classes, 2);
        assert_eq!(w.active_quanta(), vec![1, 3]);
        let empty = WrrWeights::new(&[], WrrUnit::Frames);
        assert_eq!(empty.classes, 1);
        assert_eq!(empty.active_quanta(), vec![1]);
        let many = WrrWeights::new(&[1; 32], WrrUnit::Frames);
        assert_eq!(many.classes, MAX_WRR_CLASSES);
        assert_eq!(many.active_quanta().len(), MAX_WRR_CLASSES);
    }
}
