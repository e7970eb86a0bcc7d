//! Size-class-keyed buffer recycling for zero-allocation hot paths.
//!
//! A [`BufferPool`] holds free `Vec<f32>` buffers in power-of-two size
//! classes plus a stash of shape vectors. [`BufferPool::alloc`] hands out a
//! **zero-filled** tensor (recycled buffer when one fits, fresh otherwise)
//! and [`BufferPool::recycle`] takes tensors back. Because every pooled
//! tensor starts out zeroed — exactly like `Tensor::zeros` — kernels that
//! accumulate into their destination (matmul) and kernels that overwrite it
//! produce results bit-identical to the allocating path, no matter what the
//! recycled buffer previously held.
//!
//! Pools are deliberately **not** global: each owner (a `Tape`, a serve
//! worker, a pool worker thread via [`with_local`]) has its own arena, so
//! there is no cross-thread sharing, no locking, and no allocator-like
//! contention. Buffers never migrate between threads; determinism is
//! unaffected by which pool served a buffer since contents are always
//! re-zeroed.
//!
//! Class invariant: a buffer lives in class `c = floor(log2(capacity))`,
//! so every buffer in class `c` has capacity ≥ 2^c. A request for `n`
//! elements is served from class `ceil(log2(n))`, whose buffers all have
//! capacity ≥ n — `resize` never reallocates on a pool hit. Fresh misses
//! allocate the full class size (2^ceil(log2(n))) so the buffer re-enters
//! the same class it serves.

use crate::Tensor;
use std::cell::RefCell;

/// Power-of-two size classes: class `c` covers capacities in [2^c, 2^{c+1}).
const CLASSES: usize = 40;

/// Free buffers retained per class; excess buffers are dropped on recycle so
/// a transient spike cannot pin memory forever.
const MAX_PER_CLASS: usize = 128;

/// Shape vectors retained for reuse (tiny, but they are heap allocations).
const MAX_SHAPES: usize = 512;

/// Allocator-pressure counters for one [`BufferPool`].
///
/// `misses` is the number of *fresh heap allocations* the pool performed —
/// the quantity the serve engine reports as `allocs_per_request` and the
/// steady-state tests pin to zero after warm-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer (no heap allocation).
    pub hits: u64,
    /// Requests that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the free lists.
    pub recycled: u64,
    /// Total capacity (in bytes) of buffers returned to the free lists.
    pub bytes_recycled: u64,
}

impl PoolStats {
    /// Counter deltas since an earlier snapshot of the same pool.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            recycled: self.recycled - earlier.recycled,
            bytes_recycled: self.bytes_recycled - earlier.bytes_recycled,
        }
    }

    /// Accumulates another pool's counters into this one (used to sum the
    /// training shard workers' arenas into `ReModel::arena_stats`).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.bytes_recycled += other.bytes_recycled;
    }
}

/// A recycling arena of `Vec<f32>` buffers keyed by power-of-two size class.
///
/// See the module docs for the class invariant and determinism contract.
#[derive(Default)]
pub struct BufferPool {
    classes: Vec<Vec<Vec<f32>>>,
    shapes: Vec<Vec<usize>>,
    stats: PoolStats,
}

/// Smallest class whose buffers can hold `n` elements.
#[inline]
fn class_for_request(n: usize) -> usize {
    (n.max(1).next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1)
}

/// The class a buffer of `cap` elements belongs to (`cap ≥ 1`).
#[inline]
fn class_for_capacity(cap: usize) -> usize {
    ((usize::BITS - 1 - cap.leading_zeros()) as usize).min(CLASSES - 1)
}

impl BufferPool {
    /// An empty pool; every early request is a miss until buffers recycle.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Returns a **zero-filled** tensor of `shape`, reusing a recycled
    /// buffer when one of sufficient capacity is available.
    pub fn alloc(&mut self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        let c = class_for_request(n);
        let mut data = match self.classes.get_mut(c).and_then(Vec::pop) {
            Some(buf) => {
                self.stats.hits += 1;
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::with_capacity(1usize << c)
            }
        };
        data.clear();
        data.resize(n, 0.0);
        let mut s = self.shapes.pop().unwrap_or_default();
        s.clear();
        // Min capacity 4: a recycled rank-1 shape vec re-used for a rank-2
        // request must not reallocate once warm (zero-malloc steady state).
        s.reserve(4.max(shape.len()));
        s.extend_from_slice(shape);
        Tensor::from_parts(s, data)
    }

    /// Takes a tensor back into the free lists for later reuse.
    pub fn recycle(&mut self, t: Tensor) {
        let (shape, data) = t.into_parts();
        if self.shapes.len() < MAX_SHAPES && shape.capacity() > 0 {
            self.shapes.push(shape);
        }
        self.recycle_vec(data);
    }

    /// Takes a raw buffer back into the free lists for later reuse.
    pub fn recycle_vec(&mut self, data: Vec<f32>) {
        let cap = data.capacity();
        if cap == 0 {
            return;
        }
        let c = class_for_capacity(cap);
        if self.classes.len() <= c {
            self.classes.resize_with(c + 1, Vec::new);
        }
        if self.classes[c].len() < MAX_PER_CLASS {
            self.stats.recycled += 1;
            self.stats.bytes_recycled += (cap * std::mem::size_of::<f32>()) as u64;
            self.classes[c].push(data);
        }
    }

    /// Snapshot of the allocator-pressure counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of free buffers currently held across all classes. The
    /// steady-state tests assert this stops changing after warm-up.
    pub fn free_buffers(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

thread_local! {
    static LOCAL: RefCell<BufferPool> = RefCell::new(BufferPool::new());
}

/// Runs `f` with this thread's stash pool.
///
/// Tasks fanned out over the persistent worker threads of [`crate::pool`]
/// use this so each worker keeps its arena warm across batches without any
/// cross-thread buffer sharing. Taking the whole pool out (`std::mem::take`)
/// and putting it back is also fine — the stash is plain thread-local state.
///
/// # Panics
/// If `f` re-enters `with_local` on the same thread (the stash is borrowed
/// mutably for the duration of `f`).
pub fn with_local<R>(f: impl FnOnce(&mut BufferPool) -> R) -> R {
    LOCAL.with(|p| f(&mut p.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_always_zeroed() {
        let mut pool = BufferPool::new();
        let mut t = pool.alloc(&[2, 3]);
        t.data_mut().iter_mut().for_each(|v| *v = 7.5);
        pool.recycle(t);
        let u = pool.alloc(&[5]);
        assert_eq!(u.shape(), &[5]);
        assert!(u.data().iter().all(|&v| v == 0.0), "recycled buffer leaked");
    }

    #[test]
    fn hit_reuses_capacity_without_reallocating() {
        let mut pool = BufferPool::new();
        let t = pool.alloc(&[100]);
        let cap_before = t.data().len();
        assert!(cap_before <= 128);
        pool.recycle(t);
        // 100 and 65 share class 7 (ceil log2 = 128): the same buffer serves.
        let u = pool.alloc(&[65]);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(u.len(), 65);
        pool.recycle(u);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn distinct_classes_do_not_alias() {
        let mut pool = BufferPool::new();
        let small = pool.alloc(&[4]);
        pool.recycle(small);
        // A 1000-element request must not be served by the 4-element buffer.
        let big = pool.alloc(&[1000]);
        assert_eq!(pool.stats().misses, 2);
        let (_, buf) = big.into_parts();
        assert!(buf.capacity() >= 1024);
    }

    #[test]
    fn steady_state_reaches_zero_misses() {
        let mut pool = BufferPool::new();
        for _ in 0..3 {
            let ts: Vec<Tensor> = [[8usize, 8], [3, 40], [1, 17]]
                .iter()
                .map(|s| pool.alloc(s))
                .collect();
            ts.into_iter().for_each(|t| pool.recycle(t));
        }
        let s = pool.stats();
        assert_eq!(s.misses, 3, "only the first round may allocate");
        assert_eq!(s.hits, 6);
        assert_eq!(pool.free_buffers(), 3);
    }

    #[test]
    fn stats_delta_and_merge() {
        let mut pool = BufferPool::new();
        let before = pool.stats();
        let t = pool.alloc(&[10]);
        pool.recycle(t);
        let d = pool.stats().since(&before);
        assert_eq!((d.hits, d.misses, d.recycled), (0, 1, 1));
        assert!(d.bytes_recycled >= 40);
        let mut total = PoolStats::default();
        total.merge(&d);
        total.merge(&d);
        assert_eq!(total.misses, 2);
    }

    #[test]
    fn with_local_persists_across_calls() {
        let misses_before = with_local(|p| {
            let t = p.alloc(&[33]);
            let m = p.stats().misses;
            p.recycle(t);
            m
        });
        let (hits_delta, misses_after) = with_local(|p| {
            let h0 = p.stats().hits;
            let t = p.alloc(&[33]);
            let h1 = p.stats().hits;
            p.recycle(t);
            (h1 - h0, p.stats().misses)
        });
        assert_eq!(hits_delta, 1, "stash did not survive between calls");
        assert_eq!(misses_after, misses_before);
    }
}
