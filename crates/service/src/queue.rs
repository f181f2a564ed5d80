//! A bounded MPMC submission queue with blocking backpressure.
//!
//! Producers calling [`BoundedQueue::push`] block while the queue is full —
//! that blocking *is* the service's admission control: a client replaying a
//! huge JSONL file is slowed to the pace the worker pool can sustain
//! instead of ballooning memory. Consumers block in
//! [`BoundedQueue::pop`] until an item or shutdown arrives. The service's
//! verifier pool is one too: a chase pops an arena LRU, waiting while all
//! are lent out, and pushes it back when the replay is done.

use std::collections::VecDeque;

use parking_lot::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Error returned when pushing into a closed queue; carries the rejected
/// item back to the caller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueClosed<T>(pub T);

/// A bounded multi-producer multi-consumer queue.
///
/// # Examples
///
/// ```
/// use systolic_service::BoundedQueue;
///
/// let q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert!(q.try_push(3).is_err()); // full: a blocking push would wait
/// assert_eq!(q.pop(), Some(1));
/// q.close();
/// assert_eq!(q.pop(), Some(2)); // drains before reporting closure
/// assert_eq!(q.pop(), None);
/// ```
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues `item`, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns the item in [`QueueClosed`] if the queue was closed before
    /// space became available.
    pub fn push(&self, item: T) -> Result<(), QueueClosed<T>> {
        let mut state = self.state.lock();
        while state.items.len() >= self.capacity && !state.closed {
            self.not_full.wait(&mut state);
        }
        if state.closed {
            return Err(QueueClosed(item));
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// Returns the item if the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), QueueClosed<T>> {
        let mut state = self.state.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(QueueClosed(item));
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    #[must_use]
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.not_empty.wait(&mut state);
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked producers/consumers wake.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// `true` if nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn try_push_reports_full() {
        let q = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(QueueClosed(2)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.push("b"), Err(QueueClosed("b")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_push_blocks_until_a_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2));
        // Give the producer time to block on the full queue.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "blocked producer must not have enqueued");
        assert_eq!(q.pop(), Some(1));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        q.try_push(1).unwrap();
        assert!(q.try_push(2).is_err());
    }
}
