//! Layer probes: each layer is measured from outside, by timing calls
//! into its public functions at the workload's own `(n, k, b)`. Runs in
//! a session of its own (`Mode::Probes`), each probe inside a span named
//! after the metric it yields.

use std::time::Instant;

use bruck_collectives::blocks;
use bruck_model::planner::IndexPlan;
use bruck_net::transport::Transport;
use bruck_net::{
    Cluster, ClusterConfig, Endpoint, NetError, RecvSpec, Reliability, SendSpec, TcpFabric,
};
use bruck_sched::ScheduleStats;

use crate::ceiling;
use crate::oneshot::TCP_PLAN;
use crate::planwork;
use crate::session::{Report, SessionArgs};
use crate::spec::{Collective, Shape, ZIPF_S};
use crate::stats::median;
use crate::trace::{SpanLog, NONE};
use crate::zipf;

/// Median microseconds of `reps` individually timed calls.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Fewer repetitions for the big shapes, so no probe runs for seconds.
fn reps_for(n: usize) -> usize {
    match n {
        0..=64 => 200,
        65..=512 => 9,
        _ => 5,
    }
}

/// GB/s of `f`, which moves `bytes` per call, over enough calls to move
/// 64 MiB (at most 20 000).
fn gbps(bytes: usize, mut f: impl FnMut()) -> f64 {
    let reps = ((64usize << 20) / bytes.max(1)).clamp(3, 20_000);
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    (bytes * reps) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Run one probe inside a span named after the metric it yields.
fn probe(r: &mut Report, log: &mut SpanLog, name: &'static str, f: impl FnOnce() -> f64) {
    log.begin(name, NONE);
    r.set(name, f());
    log.end();
}

fn model_and_sched(r: &mut Report, log: &mut SpanLog, args: &SessionArgs) {
    let (n, k, b, collective) = match args.workload.shape {
        Shape::RankLoop(l) => (l.n, l.k, l.b, l.collective),
        Shape::TcpOneShot { n, b, .. } => (n, 1, b, Collective::Alltoall),
        Shape::PlanOnly { n, .. } => (
            n,
            planwork::PLAN_PORTS,
            planwork::PLAN_BLOCKS[0],
            Collective::AlltoallvZipf,
        ),
    };
    let reps = reps_for(n);

    probe(r, log, "model.planner.plan_index_us", || {
        median_us(reps, || planwork::plan_index(n, k, b))
    });
    probe(r, log, "model.planner.plan_concat_us", || {
        median_us(reps, || planwork::plan_concat(n, k, b))
    });
    if collective == Collective::AlltoallvZipf {
        let sizes: Vec<u64> = zipf::matrix(n, 256, ZIPF_S, args.seed)
            .into_iter()
            .map(|c| c as u64)
            .collect();
        probe(r, log, "model.planner.plan_vindex_us", || {
            median_us(reps, || planwork::plan_vindex(n, k, &sizes))
        });
    }
    // What the workload's call lowers (TCP) or would lower (the others:
    // the planner's pick, when it has a program lowering).
    let plan = match args.workload.shape {
        Shape::TcpOneShot { .. } => Some(TCP_PLAN),
        Shape::PlanOnly { .. } => Some(IndexPlan::Radix(2)),
        Shape::RankLoop(_) => {
            Some(planwork::plan_index(n, k, b).plan).filter(|p| !matches!(p, IndexPlan::Mixed(_)))
        }
    };
    if let Some(plan) = plan {
        probe(r, log, "model.program.lower_us_per_rank", || {
            median_us(reps.min(20), || planwork::lower_all(&plan, n, b, 1)) / n as f64
        });
    }
    probe(r, log, "model.partition.plan_last_round_us", || {
        median_us(reps, || planwork::last_round(n, k, b))
    });

    let build = || match collective {
        Collective::Allgather => planwork::concat_schedule(n, b, k),
        _ => planwork::index_schedule(n, b, k),
    };
    probe(r, log, "sched.schedule.build_us", || median_us(reps, build));
    let schedule = build();
    probe(r, log, "sched.schedule.validate_us", || {
        median_us(reps, || schedule.validate())
    });
    probe(r, log, "sched.analyze.stats_us", || {
        median_us(reps, || ScheduleStats::of(&schedule))
    });
}

/// Single-thread rates of the local block movement, on buffers of the
/// workload's `n·b` bytes (tiny buffers measure call overhead — that is
/// the point on the start-up-bound workloads).
fn block_rates(r: &mut Report, log: &mut SpanLog, n: usize, b: usize) {
    let bytes = n * b;
    let src: Vec<u8> = (0..bytes).map(|i| i as u8).collect();
    let mut dst = vec![0u8; bytes];
    // The radix-2 index algorithm's first step: every odd block.
    let odd: Vec<usize> = (1..n).step_by(2).collect();
    let mut msg = vec![0u8; odd.len() * b];
    probe(r, log, "core.blocks.rotate_GBps", || {
        gbps(bytes, || {
            blocks::rotate_up_into(&src, n, b, n / 2 + 1, &mut dst)
        })
    });
    probe(r, log, "core.blocks.pack_GBps", || {
        gbps(msg.len(), || blocks::pack_into(&src, b, &odd, &mut msg))
    });
    probe(r, log, "core.blocks.unpack_GBps", || {
        gbps(msg.len(), || blocks::unpack(&mut dst, b, &odd, &msg))
    });
    probe(r, log, "core.blocks.place_GBps", || {
        gbps(bytes, || blocks::phase3_place_into(&src, n, b, 1, &mut dst))
    });
    probe(r, log, "core.blocks.copy_large_GBps", || {
        gbps(bytes, || blocks::copy_large(&mut dst, &src))
    });
}

/// `(64 B round µs, 64 KiB round µs)` of one `Endpoint::round` exchange
/// between two ranks: the measured β and 1/τ of the library's own stack
/// on this transport, with ranks ≤ cores.
fn exchange(ep: &mut Endpoint) -> Result<(f64, f64), NetError> {
    let peer = 1 - ep.rank();
    let mut tag = 0u64;
    let mut timed = |ep: &mut Endpoint, bytes: usize, rounds: usize| -> Result<f64, NetError> {
        let payload = vec![0x5Au8; bytes];
        let mut samples = Vec::with_capacity(rounds);
        for i in 0..rounds + 20 {
            tag += 1;
            let t0 = Instant::now();
            let got = ep.round(
                &[SendSpec {
                    to: peer,
                    tag,
                    payload: &payload,
                }],
                &[RecvSpec { from: peer, tag }],
            )?;
            let took = t0.elapsed().as_nanos() as f64 / 1e3;
            for m in got {
                ep.recycle(m.payload);
            }
            if i >= 20 {
                samples.push(took);
            }
        }
        Ok(median(&samples))
    };
    Ok((timed(ep, 64, 400)?, timed(ep, 64 << 10, 100)?))
}

/// The exchange on a 2-node `TcpFabric` with the reliability sublayer
/// the TCP workloads run under.
fn tcp_exchange() -> Result<(f64, f64), NetError> {
    let (fabric, ranks) = TcpFabric::new(2, 1)?;
    let boxed: Vec<Box<dyn Transport>> = ranks
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect();
    let cfg = ClusterConfig::new(2).with_reliability(Reliability::default());
    let out = Cluster::run_with_transports(&cfg, boxed, exchange);
    fabric.shutdown();
    out.map(|out| out.results[0])
}

fn transport(
    r: &mut Report,
    log: &mut SpanLog,
    run: impl FnOnce() -> Result<(f64, f64), NetError>,
) {
    log.begin("net.transport.round_us", NONE);
    let out = run();
    log.end();
    if let Ok((small_us, large_us)) = out {
        r.set("net.transport.round_us", small_us);
        r.set("net.transport.stream_MBps", (64 << 10) as f64 / large_us);
    }
}

pub fn run(args: &SessionArgs, log: &mut SpanLog) -> Report {
    let mut r = Report::default();
    model_and_sched(&mut r, log, args);

    match args.workload.shape {
        Shape::RankLoop(shape) => {
            let n = shape.n;
            block_rates(&mut r, log, n, shape.b);
            transport(&mut r, log, || {
                shape.run_cluster(2, exchange).map(|out| out.results[0])
            });
            log.begin("net.cluster.spawn_ms", NONE);
            let ms = median_us(5, || shape.run_cluster(n, |_| Ok(()))) / 1e3;
            r.set("net.cluster.spawn_ms", ms);
            log.end();
        }
        Shape::TcpOneShot {
            n, node_size, b, ..
        } => {
            block_rates(&mut r, log, n, b);
            transport(&mut r, log, tcp_exchange);
            log.begin("net.tcp.fabric_setup_ms", NONE);
            let ms = median_us(3, || {
                TcpFabric::new(n, node_size).map(|(fabric, ranks)| {
                    drop(ranks);
                    fabric.shutdown()
                })
            }) / 1e3;
            r.set("net.tcp.fabric_setup_ms", ms);
            log.end();
        }
        Shape::PlanOnly { .. } => {}
    }

    log.begin("ceiling", NONE);
    let c = ceiling::measure();
    log.end();
    r.set("ceiling.memcpy_GBps", c.memcpy_gbps);
    r.set("ceiling.tcp_loopback_MBps", c.tcp_mbps);
    r.set("ceiling.tcp_loopback_rtt_us", c.tcp_rtt_us);
    r.set("ceiling.uds_dgram_MBps", c.uds_mbps);
    r.set("ceiling.uds_dgram_rtt_us", c.uds_rtt_us);
    r.set("ceiling.channel_rtt_us", c.channel_rtt_us);
    r
}
