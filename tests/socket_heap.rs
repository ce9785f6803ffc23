//! Heap gate for the Unix-socket data plane: once the cluster's pool is
//! warm, a rank thread makes no heap allocation of 4 KiB or more in a
//! steady lap of `alltoall_into` or `allgather_into` at the tracked
//! benchmark's shape (n = 8, k = 2, 64 KiB blocks). Receive buffers and
//! reassembled payloads come from the pool and sent payloads go back to
//! it, so a fresh fragment-sized buffer per received message fails here.
//! The smaller allocations left per lap (planning, lowering, round
//! bookkeeping) are printed, not asserted.
//!
//! A counting global allocator keeps its counters per thread, so each
//! rank counts only what its own thread allocates.

#![cfg(unix)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Barrier;

use bruck::collectives::verify;
use bruck::net::SocketCluster;
use bruck::prelude::*;

/// Allocations of at least this many bytes are the data plane's.
const LARGE: usize = 4096;

struct Counting;

thread_local! {
    /// `(small allocations, small bytes, large allocations, largest)` on
    /// this thread.
    static SEEN: Cell<(usize, usize, usize, usize)> = const { Cell::new((0, 0, 0, 0)) };
}

fn note(bytes: usize) {
    let _ = SEEN.try_with(|seen| {
        let (small, small_bytes, large, largest) = seen.get();
        seen.set(if bytes >= LARGE {
            (small, small_bytes, large + 1, largest.max(bytes))
        } else {
            (small + 1, small_bytes + bytes, large, largest.max(bytes))
        });
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-locals without destructors, so touching
// them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const N: usize = 8;
const PORTS: usize = 2;
const BLOCK: usize = 64 * 1024;
const WARMUP: usize = 3;
const STEADY: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Alltoall,
    Allgather,
}

/// Per rank: `(small allocations, small bytes, large allocations,
/// largest)` summed over the steady laps of `op`.
fn steady_laps(op: Op) -> Vec<(usize, usize, usize, usize)> {
    let cfg = ClusterConfig::new(N).with_ports(PORTS);
    let rendezvous = &Barrier::new(N);
    let out = SocketCluster::run(&cfg, move |ep| {
        let rank = ep.rank();
        let tuning = Tuning::default();
        let (input, expected) = match op {
            Op::Alltoall => (
                verify::index_input(rank, N, BLOCK),
                verify::index_expected(rank, N, BLOCK),
            ),
            Op::Allgather => (
                verify::concat_input(rank, BLOCK),
                verify::concat_expected(N, BLOCK),
            ),
        };
        let mut out = vec![0u8; N * BLOCK];
        let lap = |ep: &mut Endpoint, out: &mut [u8]| match op {
            Op::Alltoall => alltoall_into(ep, &input, BLOCK, &tuning, out),
            Op::Allgather => allgather_into(ep, &input, &tuning, out),
        };
        // Prewarm stocks every shelf to a lap's total demand, so a
        // steady lap cannot miss whatever the threads' interleaving.
        ep.pool().set_prewarm(true);
        rendezvous.wait();
        for _ in 0..WARMUP {
            lap(ep, &mut out)?;
            rendezvous.wait();
        }
        ep.pool().set_prewarm(false);
        rendezvous.wait();
        let mut total = (0, 0, 0, 0);
        for _ in 0..STEADY {
            SEEN.with(|seen| seen.set((0, 0, 0, 0)));
            lap(ep, &mut out)?;
            let (small, small_bytes, large, largest) = SEEN.with(Cell::get);
            total = (
                total.0 + small,
                total.1 + small_bytes,
                total.2 + large,
                total.3.max(largest),
            );
            rendezvous.wait();
        }
        assert!(out == expected, "{op:?}: rank {rank} got a wrong result");
        Ok(total)
    })
    .expect("run failed");
    out.results
}

#[test]
fn steady_socket_laps_make_no_large_heap_allocation() {
    for op in [Op::Alltoall, Op::Allgather] {
        let per_rank = steady_laps(op);
        for (rank, &(small, small_bytes, large, largest)) in per_rank.iter().enumerate() {
            eprintln!(
                "{op:?} rank {rank}: {:.1} allocations of < {LARGE} B per lap \
                 ({:.0} B), largest {largest} B",
                small as f64 / STEADY as f64,
                small_bytes as f64 / STEADY as f64,
            );
            assert_eq!(
                large, 0,
                "{op:?}: rank {rank} made {large} heap allocations of >= {LARGE} B \
                 in {STEADY} steady laps (largest {largest} B)"
            );
        }
    }
}
