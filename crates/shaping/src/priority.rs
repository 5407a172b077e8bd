//! The N-queue strict-priority multiplexer.

use crate::fcfs::FcfsQueue;
use crate::Sized64;
use units::DataSize;

/// A strict-priority multiplexer: one FIFO per priority level, the lowest
/// index served first, and the item in service never preempted (the caller
/// models non-preemption by only calling [`PriorityQueues::dequeue`] when
/// the output link is idle).
///
/// This is the paper's "4-FCFS multiplexer": priority 0 carries the urgent
/// sporadic messages, priority 1 the periodic ones, priorities 2 and 3 the
/// remaining sporadic classes.
#[derive(Debug, Clone)]
pub struct PriorityQueues<T> {
    queues: Vec<FcfsQueue<T>>,
}

impl<T: Sized64> PriorityQueues<T> {
    /// Creates `levels` unbounded priority queues (at least one).
    pub fn new(levels: usize) -> Self {
        PriorityQueues {
            queues: (0..levels.max(1)).map(|_| FcfsQueue::new()).collect(),
        }
    }

    /// Creates `levels` priority queues each bounded to `capacity`.
    pub fn bounded(levels: usize, capacity: DataSize) -> Self {
        PriorityQueues {
            queues: (0..levels.max(1))
                .map(|_| FcfsQueue::bounded(capacity))
                .collect(),
        }
    }

    /// Enqueues an item at `priority` (clamped to the available levels);
    /// returns `false` if that level's queue dropped it.
    pub fn enqueue(&mut self, priority: usize, item: T) -> bool {
        let level = priority.min(self.queues.len() - 1);
        self.queues[level].enqueue(item)
    }

    /// Dequeues from the highest-priority non-empty level, returning the
    /// item and its level.
    pub fn dequeue(&mut self) -> Option<(usize, T)> {
        let level = self.queues.iter().position(|q| !q.is_empty())?;
        self.queues[level].dequeue().map(|item| (level, item))
    }

    /// The head item of the highest-priority non-empty level.
    pub fn peek(&self) -> Option<(usize, &T)> {
        self.queues
            .iter()
            .enumerate()
            .find_map(|(level, q)| q.peek().map(|item| (level, item)))
    }

    /// The head item of one specific level (`None` when the level is empty
    /// or does not exist) — the hook a round-robin scheduler needs to
    /// inspect a queue without committing to serve it.
    pub fn peek_at(&self, priority: usize) -> Option<&T> {
        self.queues.get(priority).and_then(|q| q.peek())
    }

    /// Dequeues from one specific level, bypassing the strict-priority
    /// order — the hook a round-robin scheduler uses to serve the class its
    /// quantum accounting selected.
    pub fn dequeue_at(&mut self, priority: usize) -> Option<T> {
        self.queues.get_mut(priority).and_then(|q| q.dequeue())
    }

    /// Total number of queued items across all levels.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// `true` when every level is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Backlog of one level.
    pub fn backlog_at(&self, priority: usize) -> DataSize {
        self.queues
            .get(priority)
            .map(|q| q.backlog())
            .unwrap_or(DataSize::ZERO)
    }

    /// Total backlog across all levels.
    pub fn total_backlog(&self) -> DataSize {
        self.queues
            .iter()
            .map(|q| q.backlog())
            .fold(DataSize::ZERO, |a, b| a.saturating_add(b))
    }

    /// Total number of dropped arrivals across all levels.
    pub fn dropped(&self) -> u64 {
        self.queues.iter().map(|q| q.dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Pkt(u64, &'static str);
    impl Sized64 for Pkt {
        fn size_bits(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn strict_priority_order() {
        let mut pq = PriorityQueues::new(4);
        pq.enqueue(3, Pkt(100, "bg"));
        pq.enqueue(1, Pkt(100, "periodic"));
        pq.enqueue(0, Pkt(100, "urgent"));
        pq.enqueue(1, Pkt(100, "periodic2"));
        assert_eq!(pq.len(), 4);
        assert_eq!(pq.peek().unwrap(), (0, &Pkt(100, "urgent")));
        assert_eq!(pq.dequeue().unwrap(), (0, Pkt(100, "urgent")));
        assert_eq!(pq.dequeue().unwrap(), (1, Pkt(100, "periodic")));
        assert_eq!(pq.dequeue().unwrap(), (1, Pkt(100, "periodic2")));
        assert_eq!(pq.dequeue().unwrap(), (3, Pkt(100, "bg")));
        assert_eq!(pq.dequeue(), None);
        assert!(pq.is_empty());
    }

    #[test]
    fn per_level_peek_and_dequeue() {
        let mut pq = PriorityQueues::new(3);
        pq.enqueue(0, Pkt(10, "urgent"));
        pq.enqueue(2, Pkt(30, "bg"));
        assert_eq!(pq.peek_at(2).unwrap().1, "bg");
        assert!(pq.peek_at(1).is_none());
        assert!(pq.peek_at(9).is_none());
        assert_eq!(pq.dequeue_at(2).unwrap().1, "bg");
        assert!(pq.dequeue_at(2).is_none());
        assert!(pq.dequeue_at(9).is_none());
        // The strict-priority path is untouched.
        assert_eq!(pq.dequeue().unwrap(), (0, Pkt(10, "urgent")));
    }

    #[test]
    fn priority_is_clamped_to_levels() {
        let mut pq = PriorityQueues::new(2);
        assert!(pq.enqueue(9, Pkt(10, "x")));
        assert_eq!(pq.dequeue().unwrap().0, 1);
    }

    #[test]
    fn per_level_and_total_backlog() {
        let mut pq = PriorityQueues::new(4);
        pq.enqueue(0, Pkt(100, "a"));
        pq.enqueue(2, Pkt(300, "b"));
        assert_eq!(pq.backlog_at(0), DataSize::from_bits(100));
        assert_eq!(pq.backlog_at(2), DataSize::from_bits(300));
        assert_eq!(pq.backlog_at(1), DataSize::ZERO);
        assert_eq!(pq.backlog_at(9), DataSize::ZERO);
        assert_eq!(pq.total_backlog(), DataSize::from_bits(400));
    }

    #[test]
    fn bounded_levels_drop_independently() {
        let mut pq = PriorityQueues::bounded(2, DataSize::from_bits(150));
        assert!(pq.enqueue(0, Pkt(100, "a")));
        assert!(!pq.enqueue(0, Pkt(100, "b")));
        assert!(pq.enqueue(1, Pkt(100, "c")));
        assert_eq!(pq.dropped(), 1);
        assert_eq!(pq.len(), 2);
    }

    #[test]
    fn zero_levels_degenerates_to_one() {
        let mut pq = PriorityQueues::new(0);
        assert!(pq.enqueue(3, Pkt(1, "x")));
        assert_eq!(pq.dequeue().unwrap(), (0, Pkt(1, "x")));
    }
}
