//! Allocation gate for planning: a lowered rank program is two heap
//! allocations — its op list and its transfer list, each sized from the
//! lowering's closed form — whatever its round count (every index plan
//! family, the circulant concatenation under both preferences, the
//! one-port baselines and the tree primitives), and the non-uniform
//! planner picks its median quota candidate without copying the `n×n`
//! size matrix.
//!
//! A counting global allocator keeps its counters per thread, so tests
//! running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bruck::model::cost::LinearModel;
use bruck::model::partition::Preference;
use bruck::model::planner::{quota_candidates, IndexPlan, Planner, VIndexPlan};
use bruck::model::program::{ConcatLowering, RankProgram, ReduceOp};

struct Counting;

thread_local! {
    /// `(allocations, largest allocation in bytes)` on this thread.
    static SEEN: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    let _ = SEEN.try_with(|seen| {
        let (count, largest) = seen.get();
        seen.set((count + 1, largest.max(bytes)));
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

/// `f()` and the `(allocations, largest allocation)` it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    SEEN.with(|seen| seen.set((0, 0)));
    let out = f();
    (out, SEEN.with(Cell::get))
}

/// At most two allocations, and both lists filled to exactly the length
/// they were given.
fn assert_two_allocations(label: &str, (program, (allocations, _)): (RankProgram, (usize, usize))) {
    assert!(
        allocations <= 2,
        "{label} rank {}: {allocations} allocations",
        program.rank
    );
    assert!(exactly_sized(&program), "{label}: sized past what it fills");
}

#[test]
fn every_lowered_program_is_two_allocations() {
    for n in [64usize, 1024] {
        let plans = [
            IndexPlan::Radix(2),
            IndexPlan::Radix(3),
            IndexPlan::Radix(n),
            IndexPlan::Mixed(vec![2, 4, 8, 16]),
            IndexPlan::Direct,
            IndexPlan::Pairwise,
            IndexPlan::Hypercube,
            IndexPlan::Hierarchical {
                node_size: 8,
                radix_local: 2,
                radix_remote: 3,
            },
            IndexPlan::Hierarchical {
                node_size: n,
                radix_local: 2,
                radix_remote: 2,
            },
        ];
        for k in [1usize, 2] {
            for plan in &plans {
                let label = format!("{} n={n} k={k}", plan.label());
                for rank in 0..n {
                    let lowered = counted(|| RankProgram::lower(plan, n, rank, 64, k).unwrap());
                    assert_two_allocations(&label, lowered);
                }
            }
            let concats = [
                (
                    "circulant rounds",
                    ConcatLowering::circulant(n, 64, k, Preference::Rounds),
                ),
                (
                    "circulant bytes",
                    ConcatLowering::circulant(n, 64, k, Preference::Bytes),
                ),
                ("ring", ConcatLowering::ring(n, 64)),
                (
                    "recursive doubling",
                    ConcatLowering::recursive_doubling(n, 64).unwrap(),
                ),
            ];
            for (name, lowering) in &concats {
                let label = format!("{name} n={n} k={k}");
                for rank in 0..n {
                    assert_two_allocations(&label, counted(|| lowering.program(rank)));
                }
            }
            let label = format!("tree primitives n={n} k={k}");
            for rank in 0..n {
                let root = n / 3;
                let broadcast = counted(|| RankProgram::lower_broadcast(n, k, rank, root, 64));
                assert_two_allocations(&label, broadcast);
                let gather = counted(|| RankProgram::lower_gather(n, k, rank, root, 64));
                assert_two_allocations(&label, gather);
                assert_two_allocations(&label, counted(|| RankProgram::lower_barrier(n, k, rank)));
            }
        }
    }
}

/// Whether a program's lists hold exactly what its lowering sized them
/// for.
fn exactly_sized(p: &RankProgram) -> bool {
    (p.ops.len(), p.xfers.len()) == (p.ops.capacity(), p.xfers.capacity())
}

/// The closed-form sizes at the small and degenerate shapes the sweep
/// above skips — a lone rank, `n ≤ k + 1`, one-member groups — for every
/// lowering, the gather + broadcast, tree-primitive, non-uniform and
/// reduction ones included (their byte-run spans allocate on their own): no list is sized
/// past what its lowering fills.
#[test]
fn every_lowering_fills_exactly_the_lists_it_sizes() {
    for n in 1..=17usize {
        let mut plans = vec![IndexPlan::Radix(2), IndexPlan::Radix(3), IndexPlan::Direct];
        plans.push(IndexPlan::Mixed(vec![3, 2, n.max(2)]));
        if n.is_power_of_two() {
            plans.extend([IndexPlan::Pairwise, IndexPlan::Hypercube]);
        }
        for node_size in (1..=n).filter(|s| n % s == 0) {
            plans.push(IndexPlan::Hierarchical {
                node_size,
                radix_local: 2,
                radix_remote: 3,
            });
        }
        // A ragged matrix with empty blocks, its largest entry 5.
        let sizes: Vec<usize> = (0..n * n).map(|e| e * 7 % 6).collect();
        let counts = &sizes[..n];
        for k in 1..=4usize {
            let mut concats = vec![
                ConcatLowering::circulant(n, 3, k, Preference::Rounds),
                ConcatLowering::circulant(n, 3, k, Preference::Bytes),
                ConcatLowering::circulant(n, 0, k, Preference::Rounds),
                ConcatLowering::gather_broadcast(n, 3, k),
                ConcatLowering::ring(n, 3),
            ];
            concats.extend(ConcatLowering::recursive_doubling(n, 3).ok());
            let v_plans = [
                VIndexPlan::Direct,
                VIndexPlan::Padded { radix: 2 },
                VIndexPlan::TwoPhase { radix: 3, quota: 2 },
            ];
            for rank in 0..n {
                let row = &sizes[rank * n..][..n];
                let displs: Vec<usize> = (0..n).map(|j| row[..j].iter().sum()).collect();
                let mut programs: Vec<RankProgram> = plans
                    .iter()
                    .map(|plan| RankProgram::lower(plan, n, rank, 3, k).unwrap())
                    .collect();
                programs.extend(concats.iter().map(|c| c.program(rank)));
                for plan in &v_plans {
                    programs.push(
                        RankProgram::lower_vindex(plan, n, k, rank, &sizes, &displs).unwrap(),
                    );
                }
                programs.push(RankProgram::lower_allgatherv(k, rank, counts));
                programs.push(RankProgram::lower_barrier(n, k, rank));
                for (m, root) in [(0, 0), (n + 2, n - 1)] {
                    programs.extend([
                        RankProgram::lower_broadcast(n, k, rank, root, m),
                        RankProgram::lower_gather(n, k, rank, root, m),
                        RankProgram::lower_reduce(n, k, rank, root, m, ReduceOp::Max),
                        RankProgram::lower_reduce_scatter(n, k, rank, m, ReduceOp::Sum),
                        RankProgram::lower_allreduce(n, k, rank, m, ReduceOp::Min),
                        RankProgram::lower_scan(n, rank, m, ReduceOp::Sum, false),
                        RankProgram::lower_scan(n, rank, m, ReduceOp::Sum, true),
                    ]);
                }
                for (i, p) in programs.iter().enumerate() {
                    assert!(exactly_sized(p), "n={n} k={k} rank={rank} program {i}");
                }
            }
        }
    }
}

/// The planner reads the matrix where it lies: at n = 1 024 no single
/// allocation reaches n² bytes.
#[test]
fn plan_vindex_does_not_copy_the_size_matrix() {
    let n = 1024usize;
    // Zipf(1)-like rows: each source's sizes fall off with the distance,
    // so the two-phase family has a mean and a median to pick.
    let sizes: Vec<u64> = (0..n * n)
        .map(|e| (32_768 / (1 + (e % n + n - e / n) % n)) as u64)
        .collect();
    let model = LinearModel::sp1();
    let planner = Planner::new(&model);
    let (choice, (_, largest)) = counted(|| planner.plan_vindex(n, 2, &sizes));
    assert!(
        largest < n * n,
        "plan_vindex made a {largest}-byte allocation at n = {n}"
    );
    assert_eq!(
        quota_candidates(n, &sizes).len(),
        2,
        "{}",
        choice.plan.label()
    );
}
