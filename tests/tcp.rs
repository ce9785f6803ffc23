//! Event-driven TCP fabric integration: the faultless invariants (a
//! clean stream carries no ARQ traffic and sees no outage),
//! fault-injection smoke over the real loopback streams (under injected
//! wire faults the ARQ + watchdog stack must behave exactly as it does
//! on the other transports) and the multiplexing claim at n = 128.

use std::time::Duration;

use bruck::collectives::verify;
use bruck::model::cost::LinearModel;
use bruck::model::planner::IndexPlan;
use bruck::model::program::{simulate, RankProgram};
use bruck::net::{
    ClusterConfig, FaultPlan, Message, Reliability, TcpFabric, TcpScaleCluster, Transport,
};

fn scale_inputs(n: usize, block: usize) -> Vec<Vec<u8>> {
    (0..n).map(|r| verify::index_input(r, n, block)).collect()
}

/// Every rank's bytes against the transpose oracle and against the same
/// one-port programs run in memory by `simulate`.
fn assert_oracle(results: &[Vec<u8>], plan: &IndexPlan, n: usize, block: usize, label: &str) {
    for (rank, got) in results.iter().enumerate() {
        assert_eq!(
            got,
            &verify::index_expected(rank, n, block),
            "{label} rank={rank}"
        );
    }
    let programs: Vec<RankProgram> = (0..n)
        .map(|rank| RankProgram::lower(plan, n, rank, block, 1).expect("lowerable"))
        .collect();
    let free = LinearModel::free();
    let simulated = simulate(&programs, &scale_inputs(n, block), &free, |_, _, _| {});
    assert_eq!(results, simulated.expect("simulate").outputs, "{label}");
}

/// `with_reliability` on a clean fabric must be free: the stream is
/// already reliable, so not one ack, probe, retransmission, duplicate
/// or escalation — and not one phantom outage below. (The fabric's
/// in-band "delivered N" records, one per read burst, are stream framing
/// that bounds the replay log: no timer, no retransmission, and they are
/// not `LinkStats` traffic — these counters are the ARQ's alone.)
fn assert_quiet(out: &bruck::net::ScaleOutput, label: &str) {
    let link = out.metrics.link_totals();
    assert_eq!(
        (
            link.acks_sent,
            link.probes_sent,
            link.retransmits,
            link.dups_dropped,
            link.stall_escalations
        ),
        (0, 0, 0, 0, 0),
        "{label}: ARQ traffic on a clean stream: {link:?}"
    );
    let fabric = out.metrics.fabric;
    assert_eq!(
        (fabric.link_failures, fabric.reconnects),
        (0, 0),
        "{label}: phantom outage: {fabric:?}"
    );
}

/// One clean `Reliability::default()` run of radix-2 Bruck on 2
/// workers: bit-correct and quiet.
fn assert_clean_run_is_quiet(n: usize, node_size: usize, block: usize) {
    let label = format!("clean n={n} b={block}");
    let cfg = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(60))
        .with_deadline(Duration::from_secs(120));
    let inputs = scale_inputs(n, block);
    let out =
        TcpScaleCluster::run_with_workers(&cfg, &IndexPlan::Radix(2), block, &inputs, Some(2))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_oracle(&out.results, &IndexPlan::Radix(2), n, block, &label);
    assert_quiet(&out, &label);
}

#[test]
fn clean_fabric_carries_no_arq_traffic_at_n128() {
    assert_clean_run_is_quiet(128, 16, 64);
}

#[test]
fn bulk_blocks_complete_bit_correct_on_a_clean_fabric() {
    // The sizes at which the stacked ARQ used to fall off the probe
    // cliff (4 KiB) or end a fault-free run in a false `RanksFailed`
    // (16 KiB).
    for block in [4 << 10, 16 << 10] {
        assert_clean_run_is_quiet(64, 8, block);
    }
}

#[test]
fn lossy_delayed_tcp_loopback_stays_bit_correct() {
    // The same FaultPlan the channel and UDS chaos suites use, riding
    // on the TCP fabric: injected loss must surface as retransmits,
    // never as wrong bytes or a hang.
    let (n, node_size, block) = (16, 4, 8);
    let faults = FaultPlan::new().with_seed(0xB10C).with_loss(0.05);
    let cfg = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(60))
        .with_deadline(Duration::from_secs(120))
        .with_faults(faults);
    let inputs = scale_inputs(n, block);
    let out = TcpScaleCluster::run(&cfg, &IndexPlan::Radix(2), block, &inputs)
        .unwrap_or_else(|e| panic!("lossy tcp run: {e}"));
    assert_oracle(&out.results, &IndexPlan::Radix(2), n, block, "lossy tcp");
    let link = out.metrics.link_totals();
    assert!(
        link.injected_losses > 0,
        "fault plan injected nothing: {link:?}"
    );
    assert!(
        link.retransmits > 0,
        "losses were injected but the ARQ never retransmitted: {link:?}"
    );
}

#[test]
fn lossy_tcp_matches_faultless_run() {
    // Same shape with and without faults: identical results, so the
    // recovery machinery is invisible to the payload.
    let (n, node_size, block) = (12, 3, 5);
    let inputs = scale_inputs(n, block);
    let plan = IndexPlan::Hierarchical {
        node_size,
        radix_local: 3,
        radix_remote: 2,
    };
    let base_cfg = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(60));
    let clean = TcpScaleCluster::run(&base_cfg, &plan, block, &inputs).unwrap();
    let lossy_cfg = base_cfg
        .clone()
        .with_faults(FaultPlan::new().with_seed(7).with_loss(0.08));
    let lossy = TcpScaleCluster::run(&lossy_cfg, &plan, block, &inputs).unwrap();
    assert_eq!(clean.results, lossy.results);
    assert_oracle(&clean.results, &plan, n, block, "clean hier tcp");
    // Which layer did the work: none on the clean stream, the ARQ once
    // the wire can lose a frame.
    assert_quiet(&clean, "clean hier tcp");
    let link = lossy.metrics.link_totals();
    assert!(
        link.retransmits > 0,
        "8% loss healed without a retransmission: {link:?}"
    );
}

#[test]
fn n128_multiplexes_hundreds_of_ranks_onto_a_handful_of_threads() {
    let (n, node_size, block) = (128, 32, 8);
    let inputs = scale_inputs(n, block);
    let plans = [
        IndexPlan::Radix(2),
        IndexPlan::Mixed(vec![4, 8, 4]),
        IndexPlan::Hierarchical {
            node_size,
            radix_local: 2,
            radix_remote: 2,
        },
    ];
    // 3 workers split the ranks 43 / 43 / 42: the ranks of one worker
    // progress independently of each other.
    for (plan, workers) in plans
        .iter()
        .flat_map(|p| [1, 3, 4, n].map(|w| (p.clone(), w)))
    {
        let cfg = ClusterConfig::new(n)
            .with_node_size(node_size)
            .with_reliability(Reliability::default())
            .with_timeout(Duration::from_secs(120))
            .with_deadline(Duration::from_secs(300));
        let out = TcpScaleCluster::run_with_workers(&cfg, &plan, block, &inputs, Some(workers))
            .unwrap_or_else(|e| panic!("{} n=128: {e}", plan.label()));
        assert_oracle(&out.results, &plan, n, block, &plan.label());
        assert_eq!(out.workers, workers, "{}", plan.label());
        assert!(
            out.threads <= workers + 1,
            "{}: {} threads for {n} ranks — the pool leaked",
            plan.label(),
            out.threads
        );
    }
}

#[test]
fn scale_run_moves_its_payloads_through_one_pool() {
    // Counter-based: what a run allocates is bounded by what is in
    // flight at once (a round's messages: packed, on the wire, landed),
    // not by how many rounds it runs.
    let (n, node_size, block) = (64, 8, 2 << 10);
    let cfg = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(60))
        .with_deadline(Duration::from_secs(120));
    let inputs = scale_inputs(n, block);
    let out =
        TcpScaleCluster::run_with_workers(&cfg, &IndexPlan::Radix(2), block, &inputs, Some(2))
            .unwrap_or_else(|e| panic!("pooled run: {e}"));
    assert_oracle(&out.results, &IndexPlan::Radix(2), n, block, "pooled run");
    assert_quiet(&out, "pooled run");
    let pool = out.metrics.pool;
    let per_round = n as u64; // radix 2, one port: one message per rank
    assert_eq!(out.metrics.total_msgs(), per_round * out.rounds as u64);
    assert!(
        pool.reused > pool.allocated,
        "rounds do not reuse each other's buffers: {pool:?}"
    );
    assert!(
        pool.allocated <= 3 * per_round,
        "more buffers than three rounds' worth of messages: {pool:?}"
    );
    // Every payload was returned: by the sender once framed (or by the
    // receiver when it never left the node), and by whoever unpacked it.
    assert!(pool.recycled >= out.metrics.total_msgs(), "{pool:?}");
}

#[test]
fn arena_allocations_do_not_grow_with_the_round_count() {
    // The replay log hands an arena to the pool as soon as the peer
    // confirms its records, and the next sender draws from there — so
    // what a run allocates fresh is bounded by what is in flight, not by
    // how many rounds stage output. Same shape, same per-round traffic,
    // 6 rounds against 14: a log that kept its arenas to the end of the
    // call would allocate one per active stream end per round.
    let (n, node_size, block) = (64, 8, 2 << 10);
    let cfg = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(60))
        .with_deadline(Duration::from_secs(120));
    let inputs = scale_inputs(n, block);
    let fresh = |plan: IndexPlan| {
        let out = TcpScaleCluster::run_with_workers(&cfg, &plan, block, &inputs, Some(2))
            .unwrap_or_else(|e| panic!("{}: {e}", plan.label()));
        assert_oracle(&out.results, &plan, n, block, &plan.label());
        assert_quiet(&out, &plan.label());
        (out.rounds as u64, out.metrics.pool.allocated)
    };
    // One bound for both: two rounds' worth of messages (this shape's
    // payloads and arenas in flight come to 60–90). Every round stages
    // into at least 8 stream ends, so retained arenas would put the long
    // run at 14 × 8 above its ~55 payload buffers.
    for (plan, rounds) in [(IndexPlan::Radix(2), 6), (IndexPlan::Mixed(vec![8, 8]), 14)] {
        let (ran, allocated) = fresh(plan);
        assert_eq!(ran, rounds);
        assert!(
            allocated <= 2 * n as u64,
            "{allocated} fresh buffers over {rounds} rounds: arenas are being retained"
        );
    }
}

#[test]
fn quiet_fabric_parks_instead_of_sweeping() {
    // Counter-based, like tests/idle_wait.rs: the reactor counts its
    // passes over the pairs. Traffic costs a few; a connected, drained
    // fabric left alone costs none, where a sweep-and-nap loop with a
    // 500 µs ceiling made ~400 in the same 200 ms.
    let (fabric, mut ranks) = TcpFabric::new(4, 2).expect("fabric");
    // The 5 MiB message is 80 records: more than one read burst, and
    // more than the 64 a burst reports in one go.
    for (src, dst, len) in [(0usize, 2usize, 4096usize), (3, 1, 5 << 20), (1, 3, 4096)] {
        let msg = Message {
            src,
            dst,
            tag: 7,
            payload: vec![src as u8; len],
            seq: 0,
            ack: 0,
            checksum: None,
        };
        ranks[src].send(msg).expect("send");
        let got = ranks[dst]
            .recv_match(src, 7, Duration::from_secs(10))
            .expect("recv");
        assert!(got.payload == vec![src as u8; len]);
    }
    // Let the last confirmation make its way back, then watch.
    std::thread::sleep(Duration::from_millis(50));
    let before = fabric.stats().reactor_passes;
    assert!(before > 0, "the reactor moved those messages");
    std::thread::sleep(Duration::from_millis(200));
    let idle = fabric.stats().reactor_passes - before;
    assert!(
        idle <= 8,
        "{idle} reactor passes over a drained fabric in 200 ms: it is napping, not parked"
    );
    drop(ranks);
    assert_eq!(fabric.shutdown(), None);

    // And a whole clean call stays clear of the ARQ: the delivered-count
    // records are not acks.
    assert_clean_run_is_quiet(64, 8, 512);
}

#[test]
fn short_circuit_and_aborted_runs_return_with_the_pool_idle() {
    // n = 1 never builds a fabric, hence no pool.
    let one = TcpScaleCluster::run(&ClusterConfig::new(1), &IndexPlan::Direct, 4, &[vec![7; 4]])
        .expect("single rank");
    assert_eq!(one.metrics.pool, bruck::net::PoolStats::default());

    // A frozen stream under a short budget: every worker must come back
    // with the deadline verdict (none parked on a pool shelf another
    // holds), and the next run on the same thread is unaffected.
    let (n, node_size, block) = (16, 4, 512);
    let inputs = scale_inputs(n, block);
    let frozen = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(30))
        .with_deadline(Duration::from_millis(150))
        .with_faults(FaultPlan::new().with_half_open(0, 4, 0, Duration::from_secs(4)));
    let started = std::time::Instant::now();
    let err =
        TcpScaleCluster::run_with_workers(&frozen, &IndexPlan::Radix(2), block, &inputs, Some(2))
            .expect_err("a frozen pair cannot finish inside 150 ms");
    assert!(
        matches!(err, bruck::net::NetError::DeadlineExceeded { .. }),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the aborted run took {:?} to return",
        started.elapsed()
    );
    let clean = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default());
    let out =
        TcpScaleCluster::run_with_workers(&clean, &IndexPlan::Radix(2), block, &inputs, Some(2))
            .expect("clean run after an aborted one");
    assert_oracle(&out.results, &IndexPlan::Radix(2), n, block, "after abort");
    assert!(out.metrics.pool.reused > 0, "{:?}", out.metrics.pool);
}
