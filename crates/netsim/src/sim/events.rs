//! A deterministic discrete-event queue.
//!
//! Drives measurement campaigns: the schedulers of `detour-measure` enqueue
//! probe requests at their chosen times and the campaign driver pops them in
//! order. Ties are broken by insertion sequence so identical timestamps
//! (UW4-A's "simultaneous" episodes) replay deterministically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::sim::clock::SimTime;

struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are never NaN")
            .then(other.seq.cmp(&self.seq))
    }
}

/// Min-heap of timestamped events with FIFO tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        assert!(!time.0.is_nan(), "event time must not be NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: time.0,
            seq,
            payload,
        });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (SimTime(e.time), e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(3.0), "c");
        q.push(SimTime(1.0), "a");
        q.push(SimTime(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(0.0), 1);
        q.push(SimTime(1.0), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_times_are_rejected() {
        let mut q = EventQueue::new();
        q.push(SimTime(f64::NAN), ());
    }
}
