//! Min-plus operation accounting.
//!
//! Every public min-plus entry point ([`crate::minplus`]'s operators and
//! [`Curve::add`](crate::Curve::add), [`Curve::sub_envelope`](crate::Curve::sub_envelope),
//! [`Curve::min`](crate::Curve::min)) records its operator kind into a counter of the calling thread;
//! [`OpCounters::snapshot`] reads that thread's counts.  A campaign worker
//! is a fresh thread, so its snapshot when it finishes is exactly the
//! min-plus work it performed, and summing the workers' snapshots gives a
//! run's own figures whatever else the process is doing.

use std::cell::Cell;
use std::ops::AddAssign;

use serde::{Deserialize, Serialize};

/// The operator kinds tracked by the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Min-plus convolution (`convolve`).
    Convolve,
    /// Blind-multiplexing left-over service (`leftover`).
    Leftover,
    /// Pointwise curve addition (`add`).
    Add,
    /// Non-negative envelope difference (`sub_envelope`).
    SubEnvelope,
    /// Pointwise minimum envelope combine (`min`).
    Combine,
    /// Horizontal deviation (delay bound).
    HorizontalDeviation,
}

const OP_KINDS: usize = 6;

thread_local! {
    static COUNTERS: [Cell<u64>; OP_KINDS] = const { [const { Cell::new(0) }; OP_KINDS] };
}

/// Record one operation of the given kind on the calling thread.
pub fn record_op(kind: OpKind) {
    COUNTERS.with(|counters| {
        let counter = &counters[kind as usize];
        counter.set(counter.get() + 1);
    });
}

/// The min-plus op counts of one thread, or a sum of several threads'.
///
/// Counts are monotone per thread; sum snapshots with `+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounters {
    /// Min-plus convolutions performed.
    pub convolve: u64,
    /// Left-over service computations performed.
    pub leftover: u64,
    /// Pointwise curve additions performed.
    pub add: u64,
    /// Envelope subtractions performed.
    pub sub_envelope: u64,
    /// Pointwise minimum combines performed.
    pub combine: u64,
    /// Horizontal-deviation (delay bound) evaluations performed.
    pub horizontal_deviation: u64,
}

impl OpCounters {
    /// The operations the calling thread has recorded so far.
    pub fn snapshot() -> Self {
        COUNTERS.with(|counters| {
            let load = |kind: OpKind| counters[kind as usize].get();
            OpCounters {
                convolve: load(OpKind::Convolve),
                leftover: load(OpKind::Leftover),
                add: load(OpKind::Add),
                sub_envelope: load(OpKind::SubEnvelope),
                combine: load(OpKind::Combine),
                horizontal_deviation: load(OpKind::HorizontalDeviation),
            }
        })
    }

    /// Total min-plus operator invocations.
    pub fn total_ops(&self) -> u64 {
        self.convolve
            + self.leftover
            + self.add
            + self.sub_envelope
            + self.combine
            + self.horizontal_deviation
    }
}

impl AddAssign for OpCounters {
    fn add_assign(&mut self, other: OpCounters) {
        self.convolve += other.convolve;
        self.leftover += other.leftover;
        self.add += other.add;
        self.sub_envelope += other.sub_envelope;
        self.combine += other.combine;
        self.horizontal_deviation += other.horizontal_deviation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_and_delta() {
        let here = OpCounters::snapshot();
        let recorded = std::thread::spawn(|| {
            record_op(OpKind::Convolve);
            record_op(OpKind::Convolve);
            record_op(OpKind::Leftover);
            OpCounters::snapshot()
        })
        .join()
        .unwrap();
        let expected = OpCounters {
            convolve: 2,
            leftover: 1,
            ..OpCounters::default()
        };
        assert_eq!(recorded, expected);
        assert_eq!(recorded.total_ops(), 3);
        // Another thread's work never shows up in this thread's counts.
        assert_eq!(OpCounters::snapshot(), here);
        let mut sum = recorded;
        sum += recorded;
        assert_eq!(sum.convolve, 4);
        assert_eq!(sum.total_ops(), 6);
    }
}
