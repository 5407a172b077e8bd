//! Operational traffic shaping and multiplexing.
//!
//! [`netcalc`](../netcalc/index.html) reasons about *envelopes*; this crate
//! provides the matching *mechanisms* that the end systems and switch ports
//! of the simulator execute:
//!
//! * [`TokenBucketShaper`] — the per-stream regulator the paper installs in
//!   every local node (`(b_i, r_i = b_i / T_i)`),
//! * [`Regulator`] — a greedy shaper queue that holds packets until their
//!   earliest conforming emission time,
//! * [`FcfsQueue`] and [`PriorityQueues`] — the two multiplexer disciplines
//!   the paper compares (single FIFO vs. 4-queue strict priority),
//! * [`Classifier`] — the mapping from the paper's four traffic classes to
//!   802.1p PCP values and queue indices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod fcfs;
pub mod priority;
pub mod regulator;
pub mod token_bucket;

pub use classifier::{Classifier, TrafficClass};
pub use fcfs::FcfsQueue;
pub use priority::PriorityQueues;
pub use regulator::{Regulator, ReleaseDecision};
pub use token_bucket::TokenBucketShaper;

/// Anything queued by the multiplexers: the discipline only needs to know
/// the wire size of an item to account for buffer occupancy and
/// transmission times.
pub trait Sized64 {
    /// The size of the item in bits on the wire.
    fn size_bits(&self) -> u64;
}

impl Sized64 for units::DataSize {
    fn size_bits(&self) -> u64 {
        self.bits()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use units::{DataSize, Duration, Instant};

    proptest! {
        /// The output of a greedy token-bucket regulator always stays within
        /// the `(b, r)` envelope it enforces: over any window starting at the
        /// first release, at most `b + r·window` bits leave the shaper.
        #[test]
        fn regulator_output_respects_the_envelope(
            burst_bytes in 64u64..2_000,
            period_ms in 1u64..100,
            packet_count in 1usize..60,
        ) {
            let size = DataSize::from_bytes(burst_bytes);
            let bucket = TokenBucketShaper::for_message(size, Duration::from_millis(period_ms));
            let rate = bucket.rate();
            let mut regulator: Regulator<DataSize> = Regulator::new(bucket);
            for _ in 0..packet_count {
                regulator.enqueue(size);
            }
            // Drain greedily, recording release times.
            let mut now = Instant::EPOCH;
            let mut releases = Vec::new();
            loop {
                match regulator.head_decision(now) {
                    ReleaseDecision::Empty => break,
                    ReleaseDecision::ReleaseNow => {
                        regulator.release(now).expect("conforming head");
                        releases.push(now);
                    }
                    ReleaseDecision::WaitUntil(t) => now = t,
                    ReleaseDecision::NeverConforms => unreachable!("packet equals bucket depth"),
                }
            }
            prop_assert_eq!(releases.len(), packet_count);
            // Envelope check over every window anchored at the first release.
            let start = releases[0];
            for (k, &t) in releases.iter().enumerate() {
                let window = t.since(start);
                let sent = size.bits() * (k as u64 + 1);
                let allowed = size.bits() + rate.bits_in(window).bits()
                    // One bit of slack per release for the ceil-rounding of
                    // the shaper rate (`DataRate::per` rounds up).
                    + (k as u64 + 1);
                prop_assert!(
                    sent <= allowed,
                    "window {window}: sent {sent} bits, envelope allows {allowed}"
                );
            }
        }

        /// Strict-priority dequeueing never returns a lower-priority item
        /// while a higher-priority one is waiting, and conserves items.
        #[test]
        fn priority_queues_serve_highest_first_and_conserve_items(
            items in proptest::collection::vec((0usize..4, 64u64..1_600), 1..100),
        ) {
            let mut queues: PriorityQueues<DataSize> = PriorityQueues::new(4);
            for &(priority, bytes) in &items {
                prop_assert!(queues.enqueue(priority, DataSize::from_bytes(bytes)));
            }
            prop_assert_eq!(queues.len(), items.len());
            let mut served = Vec::new();
            while let Some((level, item)) = queues.dequeue() {
                // No higher-priority item may remain queued.
                for higher in 0..level {
                    prop_assert_eq!(queues.backlog_at(higher), DataSize::ZERO);
                }
                served.push((level, item));
            }
            prop_assert_eq!(served.len(), items.len());
            prop_assert!(queues.is_empty());
            prop_assert_eq!(queues.total_backlog(), DataSize::ZERO);
            // Within one priority level the FIFO order is preserved.
            for level in 0..4 {
                let submitted: Vec<u64> = items
                    .iter()
                    .filter(|(p, _)| *p == level)
                    .map(|(_, b)| *b)
                    .collect();
                let got: Vec<u64> = served
                    .iter()
                    .filter(|(l, _)| *l == level)
                    .map(|(_, s)| s.bytes())
                    .collect();
                prop_assert_eq!(submitted, got, "priority {}", level);
            }
        }

        /// A bounded FCFS queue never holds more than its capacity and
        /// accounts every arrival as either queued or dropped.
        #[test]
        fn bounded_fcfs_queue_respects_its_capacity(
            capacity_bytes in 1_000u64..20_000,
            arrivals in proptest::collection::vec(64u64..1_600, 1..200),
        ) {
            let capacity = DataSize::from_bytes(capacity_bytes);
            let mut queue: FcfsQueue<DataSize> = FcfsQueue::bounded(capacity);
            let mut accepted = 0u64;
            for &bytes in &arrivals {
                if queue.enqueue(DataSize::from_bytes(bytes)) {
                    accepted += 1;
                }
                prop_assert!(queue.backlog() <= capacity);
            }
            prop_assert_eq!(accepted + queue.dropped(), arrivals.len() as u64);
            prop_assert_eq!(queue.len() as u64, accepted);
        }
    }
}
