//! Min-plus operation accounting.
//!
//! Every public min-plus entry point ([`crate::minplus`]'s operators and
//! [`Curve::add`](crate::Curve::add), [`Curve::sub_envelope`](crate::Curve::sub_envelope),
//! [`Curve::min`](crate::Curve::min), [`Curve::max`](crate::Curve::max))
//! records its operator kind into a relaxed, process-global [`AtomicU64`];
//! [`OpCounters::snapshot`] reads them all at once so a campaign run can
//! report the delta of min-plus work it performed without re-profiling.
//! Because the counters are process-global, concurrent runs in one process
//! fold together.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// The operator kinds tracked by the global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Min-plus convolution (`convolve`).
    Convolve,
    /// Min-plus deconvolution (`deconvolve`).
    Deconvolve,
    /// Blind-multiplexing left-over service (`leftover`).
    Leftover,
    /// Pointwise curve addition (`add`).
    Add,
    /// Non-negative envelope difference (`sub_envelope`).
    SubEnvelope,
    /// Pointwise min/max envelope combine (`min`/`max`).
    Combine,
    /// Horizontal deviation (delay bound).
    HorizontalDeviation,
    /// Vertical deviation (backlog bound).
    VerticalDeviation,
}

const OP_KINDS: usize = 8;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; OP_KINDS] = [ZERO; OP_KINDS];

/// Record one operation of the given kind (relaxed; safe from any thread).
pub fn record_op(kind: OpKind) {
    COUNTERS[kind as usize].fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time snapshot of the global min-plus op counters.
///
/// Counters are process-global and monotone; per-run figures are obtained by
/// snapshotting before and after and taking [`OpCounters::delta_since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounters {
    /// Min-plus convolutions performed.
    pub convolve: u64,
    /// Min-plus deconvolutions performed.
    pub deconvolve: u64,
    /// Left-over service computations performed.
    pub leftover: u64,
    /// Pointwise curve additions performed.
    pub add: u64,
    /// Envelope subtractions performed.
    pub sub_envelope: u64,
    /// Pointwise min/max combines performed.
    pub combine: u64,
    /// Horizontal-deviation (delay bound) evaluations performed.
    pub horizontal_deviation: u64,
    /// Vertical-deviation (backlog bound) evaluations performed.
    pub vertical_deviation: u64,
}

impl OpCounters {
    /// Read all global counters at once (relaxed loads).
    pub fn snapshot() -> Self {
        let load = |kind: OpKind| COUNTERS[kind as usize].load(Ordering::Relaxed);
        OpCounters {
            convolve: load(OpKind::Convolve),
            deconvolve: load(OpKind::Deconvolve),
            leftover: load(OpKind::Leftover),
            add: load(OpKind::Add),
            sub_envelope: load(OpKind::SubEnvelope),
            combine: load(OpKind::Combine),
            horizontal_deviation: load(OpKind::HorizontalDeviation),
            vertical_deviation: load(OpKind::VerticalDeviation),
        }
    }

    /// Counter increments between `earlier` and `self` (saturating, so a
    /// stale snapshot never produces a bogus huge delta).
    pub fn delta_since(&self, earlier: &OpCounters) -> OpCounters {
        OpCounters {
            convolve: self.convolve.saturating_sub(earlier.convolve),
            deconvolve: self.deconvolve.saturating_sub(earlier.deconvolve),
            leftover: self.leftover.saturating_sub(earlier.leftover),
            add: self.add.saturating_sub(earlier.add),
            sub_envelope: self.sub_envelope.saturating_sub(earlier.sub_envelope),
            combine: self.combine.saturating_sub(earlier.combine),
            horizontal_deviation: self
                .horizontal_deviation
                .saturating_sub(earlier.horizontal_deviation),
            vertical_deviation: self
                .vertical_deviation
                .saturating_sub(earlier.vertical_deviation),
        }
    }

    /// Total min-plus operator invocations.
    pub fn total_ops(&self) -> u64 {
        self.convolve
            + self.deconvolve
            + self.leftover
            + self.add
            + self.sub_envelope
            + self.combine
            + self.horizontal_deviation
            + self.vertical_deviation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_and_delta() {
        let before = OpCounters::snapshot();
        record_op(OpKind::Convolve);
        record_op(OpKind::Convolve);
        record_op(OpKind::Leftover);
        let delta = OpCounters::snapshot().delta_since(&before);
        assert!(delta.convolve >= 2);
        assert!(delta.leftover >= 1);
        assert!(delta.total_ops() >= 3);
    }
}
