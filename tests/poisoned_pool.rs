//! Pooled scratch is handed out as its last user left it: the pool zeroes
//! no byte a recycled buffer already held, so every caller must write a
//! byte before it reads it. This suite shelves buffers full of `0xA5` in
//! every size class before each collective — a shelf is a stack, so the
//! next acquires get them first — and runs every collective of `api`,
//! `vops`, `reduce`, `scan` and `primitives` to its oracle, over
//! in-process channels and over Unix sockets. A scratch byte read before
//! it was written reaches a result as `0xA5`.

use bruck::collectives::primitives::{barrier_dissemination, broadcast, gather};
use bruck::collectives::reduce::reduce_scatter;
use bruck::collectives::scan::{exscan, scan};
use bruck::collectives::verify;
use bruck::model::partition::Preference;
use bruck::prelude::*;

#[cfg(unix)]
use bruck::net::SocketCluster;

const POISON: u8 = 0xA5;

/// Shelve two buffers full of [`POISON`] in every size class up to
/// 128 KiB, the Unix-socket receive buffer's.
fn poison(ep: &Endpoint) {
    for class in (6..=17).map(|shift| 1usize << shift) {
        for _ in 0..2 {
            ep.recycle(vec![POISON; class]);
        }
    }
}

/// `count(src, dst)`: ragged, zeros included.
fn vcount(src: usize, dst: usize) -> usize {
    (src * 3 + dst * 5) % 11
}

fn vbyte(src: usize, dst: usize, t: usize) -> u8 {
    (src * 71 + dst * 13 + t * 7 + 1) as u8
}

/// Integer-valued lanes: every fold order gives the same bits.
fn lanes(rank: usize, m: usize) -> Vec<f64> {
    (0..m)
        .map(|i| ((rank * 31 + i * 7) % 17) as f64 - 8.0)
        .collect()
}

fn fold(ranks: std::ops::Range<usize>, m: usize, op: ReduceOp) -> Vec<f64> {
    let mut ranks = ranks.map(|r| lanes(r, m));
    let first = ranks.next().expect("a non-empty prefix");
    ranks.fold(first, |acc, x| {
        acc.iter().zip(&x).map(|(&a, &b)| op.apply(a, b)).collect()
    })
}

fn uniform(ep: &mut Endpoint, label: &str) -> Result<(), NetError> {
    let (n, rank, b) = (ep.size(), ep.rank(), 37);
    let input = verify::index_input(rank, n, b);
    let expected = verify::index_expected(rank, n, b);
    let tunings = [
        ("default", Tuning::default()),
        ("radix 2", Tuning::builder().radix(2).build()),
        ("radix 3", Tuning::builder().radix(3).build()),
        ("radix n", Tuning::builder().radix(n).build()),
        ("planner", Tuning::builder().planner(true).build()),
    ];
    for (name, tuning) in &tunings {
        poison(ep);
        let mut out = vec![0u8; n * b];
        alltoall_into(ep, &input, b, tuning, &mut out)?;
        assert_eq!(
            out, expected,
            "{label}: alltoall_into ({name}), rank {rank}"
        );
        poison(ep);
        assert_eq!(
            alltoall(ep, &input, b, tuning)?,
            expected,
            "{label}: alltoall ({name})"
        );
    }
    poison(ep);
    let res = alltoall_resilient(ep, &input, b, &Tuning::default(), 2)?;
    assert_eq!(
        res.data, expected,
        "{label}: alltoall_resilient, rank {rank}"
    );

    let block = verify::concat_input(rank, b);
    let gathered = verify::concat_expected(n, b);
    let tunings = [
        ("rounds", Tuning::default()),
        (
            "bytes",
            Tuning::builder()
                .concat_preference(Preference::Bytes)
                .build(),
        ),
        ("planner", Tuning::builder().planner(true).build()),
    ];
    for (name, tuning) in &tunings {
        poison(ep);
        let mut out = vec![0u8; n * b];
        allgather_into(ep, &block, tuning, &mut out)?;
        assert_eq!(
            out, gathered,
            "{label}: allgather_into ({name}), rank {rank}"
        );
        poison(ep);
        assert_eq!(
            allgather(ep, &block, tuning)?,
            gathered,
            "{label}: allgather ({name})"
        );
    }
    Ok(())
}

fn ragged(ep: &mut Endpoint, label: &str) -> Result<(), NetError> {
    let (n, rank) = (ep.size(), ep.rank());
    let layout = VLayout::from_counts(&(0..n).map(|j| vcount(rank, j)).collect::<Vec<_>>());
    let sendbuf: Vec<u8> = (0..n)
        .flat_map(|j| (0..vcount(rank, j)).map(move |t| vbyte(rank, j, t)))
        .collect();
    let expected: Vec<u8> = (0..n)
        .flat_map(|src| (0..vcount(src, rank)).map(move |t| vbyte(src, rank, t)))
        .collect();
    let check = |name: &str, got: &[u8], recv: &VLayout| {
        let counts: Vec<usize> = (0..n).map(|src| vcount(src, rank)).collect();
        assert_eq!(
            recv.counts(),
            &counts[..],
            "{label}: {name} layout, rank {rank}"
        );
        assert_eq!(got, &expected[..], "{label}: {name}, rank {rank}");
    };
    let methods = [
        ("auto", None),
        ("direct", Some(VMethod::Direct)),
        ("padded", Some(VMethod::Padded { radix: 2 })),
        (
            "two-phase",
            Some(VMethod::TwoPhase {
                radix: 2,
                quota: None,
            }),
        ),
    ];
    for (name, method) in methods {
        let tuning = match method {
            Some(m) => Tuning::builder().vmethod(m).build(),
            None => Tuning::default(),
        };
        poison(ep);
        let mut out = Vec::new();
        let recv = alltoallv_into(ep, &sendbuf, &layout, &tuning, &mut out)?;
        check(name, &out[..recv.total()], &recv);
    }
    poison(ep);
    let mut out = Vec::new();
    let (recv, _) = alltoallv_auto_into(ep, &sendbuf, &layout, &LinearModel::sp1(), &mut out)?;
    check("alltoallv_auto_into", &out[..recv.total()], &recv);
    poison(ep);
    let res = alltoallv_resilient(ep, &sendbuf, &layout, &Tuning::default(), 2)?;
    check("alltoallv_resilient", &res.data, &res.layout);

    poison(ep);
    let mine: Vec<u8> = (0..vcount(rank, 0)).map(|t| vbyte(rank, 0, t)).collect();
    let mut out = Vec::new();
    let recv = allgatherv_into(ep, &mine, &mut out)?;
    let all: Vec<u8> = (0..n)
        .flat_map(|src| (0..vcount(src, 0)).map(move |t| vbyte(src, 0, t)))
        .collect();
    assert_eq!(
        &out[..recv.total()],
        &all[..],
        "{label}: allgatherv_into, rank {rank}"
    );
    Ok(())
}

fn reductions(ep: &mut Endpoint, label: &str) -> Result<(), NetError> {
    let (n, rank, m) = (ep.size(), ep.rank(), 19);
    let data = lanes(rank, m);
    for op in [ReduceOp::Sum, ReduceOp::Max] {
        let whole = fold(0..n, m, op);
        for root in [0, n - 1] {
            poison(ep);
            let got = reduce(ep, root, &data, op)?;
            let want = (rank == root).then(|| whole.clone());
            assert_eq!(got, want, "{label}: reduce {op:?} to {root}, rank {rank}");
        }
        poison(ep);
        assert_eq!(
            allreduce(ep, &data, op)?,
            whole,
            "{label}: allreduce {op:?}"
        );
        poison(ep);
        let seg = m.div_ceil(n);
        let mine = &whole[(rank * seg).min(m)..((rank + 1) * seg).min(m)];
        assert_eq!(
            reduce_scatter(ep, &data, op)?,
            mine,
            "{label}: reduce_scatter {op:?}, rank {rank}"
        );
        poison(ep);
        assert_eq!(
            scan(ep, &data, op)?,
            fold(0..rank + 1, m, op),
            "{label}: scan {op:?}, rank {rank}"
        );
        poison(ep);
        let want = (rank > 0).then(|| fold(0..rank, m, op));
        assert_eq!(
            exscan(ep, &data, op)?,
            want,
            "{label}: exscan {op:?}, rank {rank}"
        );
    }
    Ok(())
}

fn trees(ep: &mut Endpoint, label: &str) -> Result<(), NetError> {
    let (n, rank, b) = (ep.size(), ep.rank(), 29);
    for root in [0, n / 2] {
        let message = verify::concat_input(root, 3 * b);
        let mut buf = if rank == root {
            message.clone()
        } else {
            vec![0u8; message.len()]
        };
        poison(ep);
        broadcast(ep, root, &mut buf)?;
        assert_eq!(buf, message, "{label}: broadcast from {root}, rank {rank}");
        poison(ep);
        let got = gather(ep, root, &verify::concat_input(rank, b))?;
        let want = (rank == root).then(|| verify::concat_expected(n, b));
        assert_eq!(got, want, "{label}: gather to {root}, rank {rank}");
    }
    poison(ep);
    barrier_dissemination(ep)
}

fn every_collective(ep: &mut Endpoint, label: &str) -> Result<(), NetError> {
    uniform(ep, label)?;
    ragged(ep, label)?;
    reductions(ep, label)?;
    trees(ep, label)
}

const SHAPES: [(usize, usize); 2] = [(8, 2), (7, 3)];

#[test]
fn poisoned_pool_every_collective_on_channels() {
    for (n, k) in SHAPES {
        let cfg = ClusterConfig::new(n).with_ports(k);
        let label = format!("channels n={n} k={k}");
        Cluster::run(&cfg, |ep| every_collective(ep, &label))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[cfg(unix)]
#[test]
fn poisoned_pool_every_collective_on_sockets() {
    for (n, k) in SHAPES {
        let cfg = ClusterConfig::new(n).with_ports(k);
        let label = format!("uds n={n} k={k}");
        SocketCluster::run(&cfg, |ep| every_collective(ep, &label))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}
