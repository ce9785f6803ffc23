//! Hierarchical-plan bit-correctness across substrates — the lowered
//! [`IndexPlan::Hierarchical`] program interpreted on the threaded
//! cluster and on the event-driven TCP fabric —
//! at n = 16, the paper's machine size n = 64 and one n = 128 cell, plus
//! the non-divisible `node_size` error paths.

use bruck::collectives::program_exec::run_plan;
use bruck::collectives::verify;
use bruck::model::planner::IndexPlan;
use bruck::net::{Cluster, ClusterConfig, NetError, Reliability, TcpScaleCluster};
use std::time::Duration;

fn scale_inputs(n: usize, block: usize) -> Vec<Vec<u8>> {
    (0..n).map(|r| verify::index_input(r, n, block)).collect()
}

fn assert_oracle(results: &[Vec<u8>], n: usize, block: usize, label: &str) {
    assert_eq!(results.len(), n, "{label}");
    for (rank, got) in results.iter().enumerate() {
        assert_eq!(
            got,
            &verify::index_expected(rank, n, block),
            "{label} rank={rank}"
        );
    }
}

fn tcp_case(n: usize, node_size: usize, rl: usize, rr: usize, block: usize) {
    let plan = IndexPlan::Hierarchical {
        node_size,
        radix_local: rl,
        radix_remote: rr,
    };
    let cfg = ClusterConfig::new(n)
        .with_node_size(node_size)
        .with_reliability(Reliability::default())
        .with_deadline(Duration::from_secs(120));
    let inputs = scale_inputs(n, block);
    let workers = 3;
    let out = TcpScaleCluster::run_with_workers(&cfg, &plan, block, &inputs, Some(workers))
        .unwrap_or_else(|e| panic!("{} n={n}: {e}", plan.label()));
    assert_oracle(&out.results, n, block, &plan.label());
    // The multiplexing claim, end to end: worker pool + one reactor,
    // never a thread per rank.
    assert!(
        out.threads <= workers + 1,
        "{} n={n}: {} threads for {workers} workers",
        plan.label(),
        out.threads
    );
    // Reliability requested and a deadline armed on a clean fabric cost
    // no ARQ traffic under a two-level plan either (tests/tcp.rs holds
    // flat plans to the same).
    let link = out.metrics.link_totals();
    assert_eq!(
        (link.acks_sent, link.probes_sent, link.retransmits),
        (0, 0, 0),
        "{} n={n}: ARQ traffic on a clean stream: {link:?}",
        plan.label()
    );
}

#[test]
fn tcp_hierarchical_plans_bit_correct_n16() {
    for (node_size, rl, rr) in [(2, 2, 2), (4, 2, 2), (4, 4, 4), (8, 2, 4)] {
        tcp_case(16, node_size, rl, rr, 3);
    }
}

#[test]
fn tcp_hierarchical_plans_bit_correct_n64() {
    // The paper's machine size, both a deep and a shallow factorization.
    for (node_size, rl, rr) in [(8, 2, 2), (16, 4, 2)] {
        tcp_case(64, node_size, rl, rr, 4);
    }
    // And one cell past it: the two-level counterpart of the flat
    // n = 128, 64 B run in tests/tcp.rs.
    tcp_case(128, 32, 2, 2, 64);
}

#[test]
fn threaded_hierarchical_executor_bit_correct_n64() {
    let (n, block, node_size) = (64, 2, 8);
    let out = Cluster::run(&ClusterConfig::new(n), |ep| {
        let input = verify::index_input(ep.rank(), n, block);
        let plan = IndexPlan::Hierarchical {
            node_size,
            radix_local: 2,
            radix_remote: 4,
        };
        run_plan(ep, &plan, &input, block)
    })
    .unwrap();
    assert_oracle(&out.results, n, block, "hierarchical::run n=64");
}

#[test]
fn executor_rejects_non_dividing_node_size() {
    // The lowering's guard, reached through the threaded interpreter.
    let n = 16;
    let err = Cluster::run(&ClusterConfig::new(n), |ep| {
        let input = verify::index_input(ep.rank(), n, 2);
        let plan = IndexPlan::Hierarchical {
            node_size: 5,
            radix_local: 2,
            radix_remote: 2,
        };
        run_plan(ep, &plan, &input, 2)
    })
    .unwrap_err();
    match err {
        NetError::App(msg) => assert!(msg.contains("not divisible"), "{msg}"),
        other => panic!("expected App error, got {other}"),
    }
}

#[test]
fn lowering_rejects_non_dividing_plan_node_size() {
    // Same guard one layer up: a Hierarchical *plan* whose node_size
    // does not partition the ranks must fail cleanly at lowering, not
    // wedge the scale executor.
    let n = 16;
    let plan = IndexPlan::Hierarchical {
        node_size: 5,
        radix_local: 2,
        radix_remote: 2,
    };
    let cfg = ClusterConfig::new(n).with_node_size(4);
    let err = TcpScaleCluster::run(&cfg, &plan, 2, &scale_inputs(n, 2)).unwrap_err();
    assert!(matches!(err, NetError::App(_)), "{err}");
}

#[test]
#[should_panic(expected = "must divide")]
fn config_rejects_non_dividing_topology_node_size() {
    // And the topology guard one layer earlier still: the config
    // builder refuses a node_size that cannot partition the ranks, so
    // a bad topology never reaches the fabric.
    let _ = ClusterConfig::new(16).with_node_size(6);
}
