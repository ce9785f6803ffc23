//! End-to-end virtual-time semantics of every cost model on the live
//! cluster: the paper's linear model and the cited postal/LogP
//! alternatives, plus the hierarchical extension.

use std::sync::Arc;

use bruck::model::cost::{
    CostModel, HierarchicalModel, LinearModel, LogPModel, PostalModel, Sp1Model,
};
use bruck::net::{Cluster, ClusterConfig};

/// One synchronous ring round with `m`-byte messages; returns the common
/// virtual completion time.
fn ring_round_time(model: Arc<dyn CostModel>, n: usize, m: usize) -> f64 {
    let cfg = ClusterConfig::new(n).with_cost(model);
    let out = Cluster::run(&cfg, |ep| {
        let right = (ep.rank() + 1) % ep.size();
        let left = (ep.rank() + ep.size() - 1) % ep.size();
        ep.send_and_recv(right, &vec![0u8; m], left, 0)?;
        Ok(ep.virtual_time())
    })
    .unwrap();
    let t = out.results[0];
    for &x in &out.results {
        assert!((x - t).abs() < 1e-15, "ring round should be symmetric");
    }
    t
}

#[test]
fn linear_round_is_beta_plus_m_tau() {
    let t = ring_round_time(Arc::new(LinearModel::new(10e-6, 1e-8)), 6, 500);
    assert!((t - (10e-6 + 500.0 * 1e-8)).abs() < 1e-15);
}

#[test]
fn postal_round_is_lambda_times_injection() {
    // Delivery completes λ injection-times after the send begins: the
    // receiver (who is also sending) finishes at λ·s(m).
    let wire = LinearModel::new(5e-6, 1e-8);
    let lambda = 3.0;
    let t = ring_round_time(Arc::new(PostalModel::new(wire, lambda)), 5, 200);
    let s = 5e-6 + 200.0 * 1e-8;
    assert!(
        (t - lambda * s).abs() < 1e-15,
        "t = {t}, expected {}",
        lambda * s
    );
}

#[test]
fn logp_round_charges_both_overheads_and_latency() {
    let (l, o, g, big_g) = (7e-6, 2e-6, 3e-6, 1e-8);
    let m = 100usize;
    let t = ring_round_time(Arc::new(LogPModel::new(l, o, g, big_g)), 4, m);
    // sender busy o + max(g, mG); arrival l later; receiver pays o.
    let expected = o + f64::max(g, m as f64 * big_g) + l + o;
    assert!((t - expected).abs() < 1e-15, "t = {t}, expected {expected}");
}

#[test]
fn sp1_gamma_factors_inflate_the_round() {
    let base = ring_round_time(Arc::new(LinearModel::sp1()), 4, 256);
    let inflated = ring_round_time(Arc::new(Sp1Model::calibrated()), 4, 256);
    let expected = 1.5 * 29e-6 + 2.0 * 256.0 * 0.12e-6;
    assert!((inflated - expected).abs() < 1e-12);
    assert!(inflated > base);
}

#[test]
fn hierarchical_round_is_paced_by_remote_links() {
    // Ring over 2 nodes × 2 ranks: every rank either sends or receives
    // across the node boundary, so the whole round runs at remote speed.
    let h = HierarchicalModel::smp_cluster(2);
    let m = 128usize;
    let t = ring_round_time(Arc::new(h), 4, m);
    let remote = LinearModel::sp1();
    let expected = remote.startup + m as f64 * remote.per_byte;
    assert!((t - expected).abs() < 1e-12, "t = {t}, expected {expected}");
}

#[test]
fn hierarchical_local_only_ring_is_fast() {
    // A ring entirely inside one node runs at local speed.
    let h = HierarchicalModel::smp_cluster(4);
    let m = 128usize;
    let t = ring_round_time(Arc::new(h), 4, m);
    let local = LinearModel::new(1e-6, 1e-9);
    let expected = local.startup + m as f64 * local.per_byte;
    assert!((t - expected).abs() < 1e-15, "t = {t}, expected {expected}");
}

#[test]
fn copy_cost_charges_only_configured_models() {
    let plain = Sp1Model::calibrated();
    let copying = Sp1Model::calibrated().with_copy_per_byte(0.05e-6);
    let run = |model: Arc<dyn CostModel>| {
        let cfg = ClusterConfig::new(4).with_cost(model);
        Cluster::run(&cfg, |ep| {
            let input = bruck::collectives::verify::index_input(ep.rank(), 4, 64);
            bruck::collectives::index::IndexAlgorithm::BruckRadix(2).run(ep, &input, 64)?;
            Ok(ep.virtual_time())
        })
        .unwrap()
        .virtual_makespan()
    };
    let t_plain = run(Arc::new(plain));
    let t_copy = run(Arc::new(copying));
    assert!(
        t_copy > t_plain,
        "copy model must charge the pack/rotate work"
    );
}

#[test]
fn postal_latency_overlaps_across_ranks() {
    // A relay chain 0→1→2 with postal latency: rank 2's completion is the
    // sum of both deliveries (no magic overlap for dependent messages).
    let wire = LinearModel::new(1e-6, 0.0);
    let lambda = 4.0;
    let cfg = ClusterConfig::new(3).with_cost(Arc::new(PostalModel::new(wire, lambda)));
    let out = Cluster::run(&cfg, |ep| {
        match ep.rank() {
            0 => {
                ep.round(
                    &[bruck::net::SendSpec {
                        to: 1,
                        tag: 0,
                        payload: &[9],
                    }],
                    &[],
                )?;
            }
            1 => {
                let m = ep.round(&[], &[bruck::net::RecvSpec { from: 0, tag: 0 }])?;
                ep.round(
                    &[bruck::net::SendSpec {
                        to: 2,
                        tag: 1,
                        payload: &m[0].payload,
                    }],
                    &[],
                )?;
            }
            _ => {
                ep.idle_round()?;
                ep.round(&[], &[bruck::net::RecvSpec { from: 1, tag: 1 }])?;
            }
        }
        Ok(ep.virtual_time())
    })
    .unwrap();
    // Delivery 0→1 completes at 4 µs; rank 1's send departs at 5 µs and
    // delivers at 4+4 = 8 µs.
    assert!(
        (out.results[2] - 8e-6).abs() < 1e-15,
        "rank 2 at {}",
        out.results[2]
    );
}
