//! Property-style and stress tests for the extension operations:
//! v-variants, reductions, scans, mixed-radix, hierarchical, and the
//! appendix-faithful ports.
//!
//! Parameters sweep a fixed number of deterministic pseudo-random cases
//! from a local xorshift generator — reproducible, dependency-free.

use bruck::collectives::api::Tuning;
use bruck::collectives::appendix::{concat_appendix_b, index_appendix_a};
use bruck::collectives::index::IndexAlgorithm;
use bruck::collectives::program_exec::run_plan_into;
use bruck::collectives::reduce::{allreduce, reduce_scatter, ReduceOp};
use bruck::collectives::scan::{exscan, scan};
use bruck::collectives::verify;
use bruck::collectives::vops::{allgatherv_into, alltoallv_into, VLayout};
use bruck::model::planner::IndexPlan;
use bruck::net::{Cluster, ClusterConfig};

/// Deterministic xorshift64 over half-open ranges.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(2654435761).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn op(&mut self) -> ReduceOp {
        [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][self.pick(0, 3)]
    }
}

const CASES: u64 = 40;

/// alltoallv with arbitrary per-pair sizes delivers exactly what was
/// addressed.
#[test]
fn alltoallv_random_sizes() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, k, salt) = (g.pick(1, 12), g.pick(1, 4), g.next());
        let size = |i: usize, j: usize| ((salt as usize).wrapping_mul(31) + i * 7 + j * 13) % 50;
        let cfg = ClusterConfig::new(n).with_ports(k);
        let out = Cluster::run(&cfg, |ep| {
            let rank = ep.rank();
            let counts: Vec<usize> = (0..n).map(|j| size(rank, j)).collect();
            let layout = VLayout::from_counts(&counts);
            let flat: Vec<u8> = (0..n)
                .flat_map(|j| (0..counts[j]).map(move |t| verify::content_byte(rank, j, t)))
                .collect();
            let mut got = Vec::new();
            let recv = alltoallv_into(ep, &flat, &layout, &Tuning::default(), &mut got)?;
            Ok((got, recv))
        })
        .unwrap();
        for (rank, (got, recv)) in out.results.iter().enumerate() {
            for src in 0..n {
                let expected: Vec<u8> = (0..size(src, rank))
                    .map(|t| verify::content_byte(src, rank, t))
                    .collect();
                assert_eq!(
                    recv.slice(got, src),
                    &expected[..],
                    "n={n} k={k} rank={rank} src={src}"
                );
            }
        }
    }
}

/// allgatherv with arbitrary per-rank sizes.
#[test]
fn allgatherv_random_sizes() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, k, salt) = (g.pick(1, 16), g.pick(1, 5), g.next());
        let size = |i: usize| ((salt as usize).wrapping_mul(17) + i * 11) % 40;
        let cfg = ClusterConfig::new(n).with_ports(k);
        let out = Cluster::run(&cfg, |ep| {
            let mine: Vec<u8> = (0..size(ep.rank()))
                .map(|t| verify::content_byte(ep.rank(), 0, t))
                .collect();
            let mut got = Vec::new();
            let layout = allgatherv_into(ep, &mine, &mut got)?;
            Ok((got, layout))
        })
        .unwrap();
        for (got, layout) in &out.results {
            for src in 0..n {
                let expected: Vec<u8> = (0..size(src))
                    .map(|t| verify::content_byte(src, 0, t))
                    .collect();
                assert_eq!(
                    layout.slice(got, src),
                    &expected[..],
                    "n={n} k={k} src={src}"
                );
            }
        }
    }
}

/// Two allreduces in a row agree with a local fold.
#[test]
fn allreduce_strategies_agree() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (d, m_scale, op) = (g.pick(1, 4) as u32, g.pick(1, 4), g.op());
        let n = 1usize << d;
        let m = n * m_scale;
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            let mine: Vec<f64> = (0..m).map(|i| ((ep.rank() * m + i) as f64).sin()).collect();
            let a = allreduce(ep, &mine, op)?;
            let b = allreduce(ep, &mine, op)?;
            Ok((a, b))
        })
        .unwrap();
        let expected: Vec<f64> = (0..m)
            .map(|i| {
                (0..n)
                    .map(|r| ((r * m + i) as f64).sin())
                    .reduce(|a, b| op.apply(a, b))
                    .unwrap()
            })
            .collect();
        for (a, b) in &out.results {
            for ((x, y), e) in a.iter().zip(b).zip(&expected) {
                assert!((x - e).abs() < 1e-9, "n={n} m={m} op={op:?}");
                assert!((y - e).abs() < 1e-9, "n={n} m={m} op={op:?}");
            }
        }
    }
}

/// reduce_scatter segments stitch back into the full reduction.
#[test]
fn reduce_scatter_covers() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, m_scale, op) = (g.pick(1, 10), g.pick(1, 4), g.op());
        let m = n * m_scale;
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            let mine: Vec<f64> = (0..m).map(|i| (ep.rank() + i) as f64).collect();
            reduce_scatter(ep, &mine, op)
        })
        .unwrap();
        let full: Vec<f64> = (0..m)
            .map(|i| {
                (0..n)
                    .map(|r| (r + i) as f64)
                    .reduce(|a, b| op.apply(a, b))
                    .unwrap()
            })
            .collect();
        let stitched: Vec<f64> = out.results.iter().flatten().copied().collect();
        assert_eq!(stitched.len(), full.len(), "n={n} m={m} op={op:?}");
        for (g_, e) in stitched.iter().zip(&full) {
            assert!((g_ - e).abs() < 1e-9, "n={n} m={m} op={op:?}");
        }
    }
}

/// scan/exscan against the sequential prefix.
#[test]
fn scans_match_sequential() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, m, op) = (g.pick(1, 14), g.pick(1, 6), g.op());
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            let mine: Vec<f64> = (0..m).map(|i| (ep.rank() * m + i) as f64 * 0.5).collect();
            let inc = scan(ep, &mine, op)?;
            let exc = exscan(ep, &mine, op)?;
            Ok((inc, exc))
        })
        .unwrap();
        let data = |r: usize| -> Vec<f64> { (0..m).map(|i| (r * m + i) as f64 * 0.5).collect() };
        for (rank, (inc, exc)) in out.results.iter().enumerate() {
            let mut want = data(0);
            for r in 1..=rank {
                op.fold_into(&mut want, &data(r));
            }
            for (got, e) in inc.iter().zip(&want) {
                assert!((got - e).abs() < 1e-9, "rank {rank}");
            }
            match exc {
                None => assert_eq!(rank, 0),
                Some(exc) => {
                    let mut want = data(0);
                    for r in 1..rank {
                        op.fold_into(&mut want, &data(r));
                    }
                    for (got, e) in exc.iter().zip(&want) {
                        assert!((got - e).abs() < 1e-9, "rank {rank}");
                    }
                }
            }
        }
    }
}

/// Mixed-radix index correct for random covering vectors.
#[test]
fn mixed_radix_random_vectors() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, b) = (g.pick(2, 16), g.pick(0, 6));
        let radices = [g.pick(2, 5), g.pick(2, 5), g.pick(2, 5), 16]; // final 16 guarantees coverage
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, b);
            let mut out = vec![0u8; input.len()];
            run_plan_into(ep, &IndexPlan::Mixed(radices.to_vec()), &input, b, &mut out)
                .map(|()| out)
        })
        .unwrap();
        for (rank, result) in out.results.iter().enumerate() {
            assert_eq!(
                result,
                &verify::index_expected(rank, n, b),
                "n={n} b={b} rank={rank}"
            );
        }
    }
}

/// Hierarchical alltoall correct for random node factorizations.
#[test]
fn hierarchical_random_shapes() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (nodes, node_size, b, rl, rr) = (
            g.pick(1, 5),
            g.pick(1, 5),
            g.pick(0, 6),
            g.pick(2, 5),
            g.pick(2, 5),
        );
        let n = nodes * node_size;
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            let input = verify::index_input(ep.rank(), n, b);
            let plan = IndexPlan::Hierarchical {
                node_size,
                radix_local: rl,
                radix_remote: rr,
            };
            let mut out = vec![0u8; input.len()];
            run_plan_into(ep, &plan, &input, b, &mut out).map(|()| out)
        })
        .unwrap();
        for (rank, result) in out.results.iter().enumerate() {
            assert_eq!(
                result,
                &verify::index_expected(rank, n, b),
                "n={n} b={b} rank={rank}"
            );
        }
    }
}

/// The appendix ports agree with the oracle over shuffled process
/// arrays.
#[test]
fn appendix_ports_random() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (n, r, rot) = (g.pick(2, 12), g.pick(2, 12), g.pick(0, 12));
        // A rotated process array (a simple derangement family).
        let a: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        let cfg = ClusterConfig::new(n);
        let out = Cluster::run(&cfg, |ep| {
            let my_rank = a.iter().position(|&p| p == ep.rank()).unwrap();
            let input = verify::index_input(my_rank, n, 2);
            let idx = index_appendix_a(ep, &input, 2, &a, r)?;
            let cat = concat_appendix_b(ep, &verify::concat_input(my_rank, 3), &a)?;
            Ok((my_rank, idx, cat))
        })
        .unwrap();
        for (my_rank, idx, cat) in &out.results {
            assert_eq!(
                idx,
                &verify::index_expected(*my_rank, n, 2),
                "n={n} r={r} rot={rot}"
            );
            assert_eq!(cat, &verify::concat_expected(n, 3), "n={n} r={r} rot={rot}");
        }
    }
}

/// Stress: the full stack at 96 ranks (beyond the paper's 64), one shot.
#[test]
fn stress_96_ranks() {
    let n = 96;
    let b = 8;
    let cfg = ClusterConfig::new(n).with_ports(2);
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::index_input(ep.rank(), n, b);
        IndexAlgorithm::BruckRadix(3).run(ep, &input, b)
    })
    .unwrap();
    for (rank, result) in out.results.iter().enumerate() {
        assert_eq!(result, &verify::index_expected(rank, n, b));
    }
    let out = Cluster::run(&cfg, |ep| {
        let input = verify::concat_input(ep.rank(), b);
        bruck::collectives::concat::ConcatAlgorithm::Bruck(Default::default()).run(ep, &input)
    })
    .unwrap();
    let expected = verify::concat_expected(n, b);
    for result in &out.results {
        assert_eq!(result, &expected);
    }
    // Round-optimality holds out here too.
    let c = out.metrics.global_complexity().unwrap();
    assert_eq!(c.c1, bruck::model::bounds::concat_bounds(n, 2, b).c1);
}
