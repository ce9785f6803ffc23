//! A cluster-shared buffer pool: the zero-copy data plane's allocator.
//!
//! Every message payload and every executor scratch buffer is acquired
//! from one [`BufferPool`] shared by all ranks of a cluster. Buffers are
//! size-classed by power-of-two capacity; recycling a buffer shelves it
//! for the next acquire of the same class, so after a warmup pass a
//! steady-state collective performs **zero fresh heap allocations** per
//! round — the benches then measure the algorithm, not the allocator.
//!
//! The pool is metrics-instrumented: [`PoolStats`] counts fresh
//! allocations, shelf hits, and recycles, and is folded into
//! [`crate::RunMetrics`] after each run. The allocation-regression tests
//! assert on exactly these counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Smallest size class in bytes; sub-64-byte requests share one class.
const MIN_CLASS: usize = 64;

/// Maximum shelved buffers per size class (bounds idle memory).
const MAX_SHELF: usize = 256;

/// A snapshot of pool activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers created fresh from the heap.
    pub allocated: u64,
    /// Acquires served from a shelf (no heap allocation).
    pub reused: u64,
    /// Buffers returned to a shelf.
    pub recycled: u64,
}

/// A thread-safe, size-classed pool of reusable byte buffers.
#[derive(Debug, Default)]
pub struct BufferPool {
    shelves: Mutex<HashMap<usize, Vec<Vec<u8>>>>,
    prewarm: AtomicBool,
    allocated: AtomicU64,
    reused: AtomicU64,
    recycled: AtomicU64,
}

/// The power-of-two size class that can hold `len` bytes. A buffer whose
/// capacity is a class is shelved by [`BufferPool::recycle`] where the
/// next [`BufferPool::acquire`] of that length looks; any other capacity
/// lands one class low and is never found again for its own size.
pub(crate) fn class_for(len: usize) -> usize {
    len.next_power_of_two().max(MIN_CLASS)
}

impl BufferPool {
    /// A fresh empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire a buffer of exactly `len` bytes, reusing a shelved one of its
    /// size class when there is one. Not zeroed: a shelved buffer keeps its
    /// last user's bytes, and only bytes past its old length are zeroed.
    #[must_use]
    pub fn acquire(&self, len: usize) -> Vec<u8> {
        let mut buf = self.take(len);
        buf.resize(len, 0);
        buf
    }

    /// Acquire an *empty* buffer with room for `cap` bytes (its capacity
    /// is `cap`'s size class), for a caller that appends every byte
    /// itself — packing a message, landing a frame.
    #[must_use]
    pub fn acquire_empty(&self, cap: usize) -> Vec<u8> {
        let mut buf = self.take(cap);
        buf.clear();
        buf
    }

    /// A buffer of `cap`'s size class: shelved as last left, or fresh.
    fn take(&self, cap: usize) -> Vec<u8> {
        let class = class_for(cap);
        let shelved = if self.prewarm.load(Ordering::Relaxed) {
            None
        } else {
            self.shelves
                .lock()
                .expect("pool mutex poisoned")
                .get_mut(&class)
                .and_then(Vec::pop)
        };
        match shelved {
            Some(buf) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.allocated.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(class)
            }
        }
    }

    /// Return a buffer to the pool for reuse. Buffers too small for the
    /// minimum class, or landing on a full shelf, are dropped.
    pub fn recycle(&self, buf: Vec<u8>) {
        let cap = buf.capacity();
        if cap < MIN_CLASS {
            return;
        }
        // Shelve under the largest class the capacity fully covers, so an
        // acquire from that shelf always has room without reallocating.
        let class = if cap.is_power_of_two() {
            cap
        } else {
            cap.next_power_of_two() / 2
        };
        let mut shelves = self.shelves.lock().expect("pool mutex poisoned");
        let shelf = shelves.entry(class).or_default();
        if shelf.len() < MAX_SHELF {
            shelf.push(buf);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Toggle prewarm mode. While on, every [`acquire`](Self::acquire)
    /// takes the fresh-allocation path even when a shelved buffer would
    /// fit; recycling still shelves normally.
    ///
    /// Rationale: with many ranks sharing one pool, a shelf can be
    /// momentarily empty just because a peer holds (or has in flight) all
    /// the buffers of that class, so steady-state allocation counts
    /// depend on thread timing. Running one barrier-delimited pass of a
    /// collective under prewarm stocks each shelf to the pass's **total**
    /// demand — one buffer per acquire event — after which a steady pass
    /// can never miss: its instantaneous live demand is bounded by its
    /// per-pass acquire count. This is the same discipline RDMA stacks
    /// use for registered-buffer pools.
    pub fn set_prewarm(&self, on: bool) {
        self.prewarm.store(on, Ordering::Relaxed);
    }

    /// Current activity counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocated: self.allocated.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_allocates_then_reuses() {
        let pool = BufferPool::new();
        let a = pool.acquire(100);
        assert_eq!(a.len(), 100);
        assert_eq!(
            pool.stats(),
            PoolStats {
                allocated: 1,
                reused: 0,
                recycled: 0
            }
        );
        pool.recycle(a);
        let b = pool.acquire(90); // same 128-byte class
        assert_eq!(b.len(), 90);
        assert_eq!(
            pool.stats(),
            PoolStats {
                allocated: 1,
                reused: 1,
                recycled: 1
            }
        );
    }

    #[test]
    fn reused_buffers_keep_their_bytes_and_zero_only_new_ones() {
        let pool = BufferPool::new();
        let fresh = pool.acquire(64);
        assert!(fresh.iter().all(|&x| x == 0));
        pool.recycle(fresh);
        let mut a = pool.acquire(40);
        a.iter_mut().for_each(|b| *b = 0xFF);
        pool.recycle(a);
        let b = pool.acquire(64);
        assert!(b[..40].iter().all(|&x| x == 0xFF));
        assert!(b[40..].iter().all(|&x| x == 0));
        assert_eq!(pool.stats().allocated, 1);
    }

    #[test]
    fn acquire_empty_hands_out_room_without_zero_filling() {
        let pool = BufferPool::new();
        let mut a = pool.acquire_empty(100);
        assert!(a.is_empty() && a.capacity() == 128);
        a.extend_from_slice(&[0xFF; 100]);
        pool.recycle(a);
        let b = pool.acquire_empty(70);
        assert!(b.is_empty() && b.capacity() == 128);
        assert_eq!(
            pool.stats(),
            PoolStats {
                allocated: 1,
                reused: 1,
                recycled: 1
            }
        );
    }

    #[test]
    fn size_classes_are_separate() {
        let pool = BufferPool::new();
        pool.recycle(pool.acquire(64));
        // 4096-byte request cannot be served by the 64-byte shelf.
        let big = pool.acquire(4096);
        assert_eq!(big.capacity(), 4096);
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    fn foreign_buffers_shelve_under_covered_class() {
        let pool = BufferPool::new();
        // Capacity 100 covers the 64-byte class but not 128.
        let mut v = Vec::with_capacity(100);
        v.resize(100, 7u8);
        pool.recycle(v);
        let got = pool.acquire(60);
        assert_eq!(pool.stats().reused, 1);
        assert!(got.capacity() >= 60);
    }

    #[test]
    fn tiny_buffers_are_dropped() {
        let pool = BufferPool::new();
        pool.recycle(Vec::new());
        pool.recycle(vec![1, 2, 3]);
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn prewarm_forces_fresh_allocations() {
        let pool = BufferPool::new();
        pool.set_prewarm(true);
        // Both acquires allocate fresh even though the first is shelved
        // in between — that is the point: stock equals total demand.
        pool.recycle(pool.acquire(200));
        pool.recycle(pool.acquire(200));
        assert_eq!(
            pool.stats(),
            PoolStats {
                allocated: 2,
                reused: 0,
                recycled: 2
            }
        );
        pool.set_prewarm(false);
        // Two simultaneously-live buffers are now served without a miss.
        let a = pool.acquire(200);
        let b = pool.acquire(200);
        assert_eq!(pool.stats().allocated, 2);
        assert_eq!(pool.stats().reused, 2);
        pool.recycle(a);
        pool.recycle(b);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let pool = BufferPool::new();
        // Warmup: populate the shelves.
        let bufs: Vec<_> = (0..8).map(|_| pool.acquire(1000)).collect();
        bufs.into_iter().for_each(|b| pool.recycle(b));
        let baseline = pool.stats().allocated;
        for _ in 0..100 {
            let b = pool.acquire(900);
            pool.recycle(b);
        }
        assert_eq!(pool.stats().allocated, baseline, "steady state allocated");
        assert_eq!(pool.stats().reused, 100);
    }
}
