//! Bounded multi-producer/multi-consumer queue.
//!
//! Built on `Mutex<VecDeque> + Condvar` so the whole engine stays std-only.
//! Producers never block: [`BoundedQueue::try_push`] fails fast when the
//! queue is at capacity (the engine's backpressure signal). Consumers call
//! [`BoundedQueue::pop`], which blocks until an item is available and hands
//! it over at once.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused; the rejected value is handed back.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue holds `capacity` items already.
    Full(T),
    /// [`BoundedQueue::close`] was called; no new work is accepted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue. See the module docs for the contract.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BoundedQueue: capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue length (racy; for stats only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty (racy; for stats only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking; fails when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    ///
    /// Returns `None` only when the queue is closed *and* fully drained —
    /// so a consumer loop drains every queued item before exiting, which is
    /// what makes shutdown graceful.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    /// Stops accepting new items and wakes all consumers. Already-queued
    /// items remain poppable until drained.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Removes and returns every still-queued item in FIFO order.
    ///
    /// This is the shutdown fail-fast path: after [`BoundedQueue::close`]
    /// and joining the consumers, anything a consumer never dequeued (no
    /// consumers configured, or a consumer died) is handed back so the
    /// caller can answer each item instead of leaving its producer blocked
    /// forever. Safe to call on an open queue too — it simply empties it.
    pub fn drain_remaining(&self) -> Vec<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.items.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};

    #[test]
    fn push_pop_roundtrip() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_rejects_with_item_back() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn closed_queue_rejects_push_but_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_is_fifo_across_two_consumers() {
        // Every item is popped exactly once, and each consumer's own
        // sequence is increasing: two consumers interleave, but neither
        // ever sees the queue out of FIFO order.
        const N: u32 = 200;
        let q = Arc::new(BoundedQueue::new(N as usize));
        for i in 0..N {
            q.try_push(i).unwrap();
        }
        q.close();
        let (tx, rx) = mpsc::channel();
        let consumers: Vec<_> = (0..2)
            .map(|id| {
                let (q, tx) = (Arc::clone(&q), tx.clone());
                std::thread::spawn(move || {
                    while let Some(item) = q.pop() {
                        tx.send((id, item)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for c in consumers {
            c.join().unwrap();
        }
        let mut last = [None, None];
        let mut seen = Vec::new();
        for (id, item) in rx {
            assert!(last[id] < Some(item), "consumer {id} popped out of order");
            last[id] = Some(item);
            seen.push(item);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn drain_remaining_empties_fifo() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.drain_remaining(), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.drain_remaining(), Vec::<i32>::new());
        // Draining does not close: the queue keeps accepting work.
        q.try_push(9).unwrap();
        assert_eq!(q.drain_remaining(), vec![9]);
    }

    #[test]
    fn drain_remaining_after_close_returns_leftovers() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.drain_remaining(), vec![1, 2]);
        // A consumer arriving after the drain sees closed-and-empty.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let (started_tx, started_rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                q.pop()
            })
        };
        // Whether `close` lands before the consumer blocks or after, `pop`
        // must come back with `None` rather than sleep forever.
        started_rx.recv().unwrap();
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
