//! Bounded, order-preserving handoff queue for pipelined stage overlap.
//!
//! [`Handoff`] connects a producer stage to a consumer stage with a fixed number of
//! in-flight slots. Items carry a sequence number chosen by the producer (the round
//! index in the protocol pipeline) and are delivered strictly in push order, so the
//! completion order of the downstream stage is fixed by sequence number — never by
//! thread timing. The queue itself holds no randomness and performs no arithmetic;
//! it can only reorder *when* work happens, not *what* it computes.
//!
//! Backpressure is the double-buffering contract: with capacity `d`, the producer can
//! run at most `d` items ahead of the consumer before `push` blocks. Either side may
//! [`Handoff::close`] the queue — a closed queue rejects new pushes (returning `false`)
//! and lets the consumer drain what remains before `pop` returns `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A bounded FIFO channel whose delivery order is fixed by producer sequence numbers.
pub struct Handoff<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

struct State<T> {
    queue: VecDeque<(u64, T)>,
    closed: bool,
    last_seq: Option<u64>,
}

impl<T> Handoff<T> {
    /// Creates a handoff with `capacity` in-flight slots (clamped to at least one).
    pub fn new(capacity: usize) -> Self {
        Handoff {
            state: Mutex::new(State { queue: VecDeque::new(), closed: false, last_seq: None }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The number of in-flight slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `(seq, item)`, blocking while all slots are full.
    ///
    /// Sequence numbers must be strictly increasing across pushes — that is what pins
    /// the consumer's completion order to the producer's round order. Returns `false`
    /// (dropping the item) if the queue was closed, which a producer should treat as
    /// "the consumer died early".
    pub fn push(&self, seq: u64, item: T) -> bool {
        let mut state = self.state.lock().expect("handoff lock poisoned");
        while state.queue.len() == self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("handoff lock poisoned");
        }
        if state.closed {
            return false;
        }
        assert!(
            state.last_seq.is_none_or(|last| seq > last),
            "handoff sequence numbers must be strictly increasing (pushed {seq} after {:?})",
            state.last_seq
        );
        state.last_seq = Some(seq);
        state.queue.push_back((seq, item));
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the oldest item, blocking while the queue is empty and open.
    ///
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<(u64, T)> {
        let mut state = self.state.lock().expect("handoff lock poisoned");
        loop {
            if let Some(entry) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(entry);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("handoff lock poisoned");
        }
    }

    /// Closes the queue: pending items stay poppable, new pushes are rejected, and
    /// blocked producers/consumers wake up. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("handoff lock poisoned");
        state.closed = true;
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Closes a [`Handoff`] when dropped.
///
/// A pipeline consumer holds one guard per queue it touches so that a panic mid-stage
/// closes both ends instead of deadlocking the producer against a full queue.
pub struct CloseOnDrop<'a, T>(pub &'a Handoff<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn delivers_items_in_push_order() {
        let q: Handoff<u64> = Handoff::new(3);
        for seq in 0..3 {
            assert!(q.push(seq, seq * 10));
        }
        q.close();
        let drained: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![(0, 0), (1, 10), (2, 20)]);
        assert_eq!(q.pop(), None, "closed and drained");
    }

    #[test]
    fn push_blocks_until_a_slot_frees() {
        let q: Handoff<usize> = Handoff::new(1);
        assert!(q.push(0, 0));
        let pushed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(q.push(1, 1));
                pushed.store(1, Ordering::SeqCst);
            });
            // The queue is full, so the second push must park until we pop.
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(pushed.load(Ordering::SeqCst), 0, "push returned with no free slot");
            assert_eq!(q.pop(), Some((0, 0)));
        });
        assert_eq!(pushed.load(Ordering::SeqCst), 1);
        assert_eq!(q.pop(), Some((1, 1)));
    }

    #[test]
    fn close_rejects_new_pushes_and_unblocks_pop() {
        let q: Handoff<usize> = Handoff::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Parked in pop() on the empty queue until close() wakes it.
                assert_eq!(q.pop(), None);
            });
            std::thread::sleep(Duration::from_millis(20));
            q.close();
        });
        assert!(!q.push(0, 7), "closed queue must reject pushes");
    }

    #[test]
    fn close_on_drop_guard_closes_the_queue() {
        let q: Handoff<usize> = Handoff::new(1);
        {
            let _guard = CloseOnDrop(&q);
        }
        assert!(!q.push(0, 1));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_sequence_numbers_panic() {
        let q: Handoff<usize> = Handoff::new(4);
        q.push(5, 0);
        q.push(5, 1);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let q: Handoff<usize> = Handoff::new(0);
        assert_eq!(q.capacity(), 1);
    }
}
