//! The fixed tables: workloads, end-to-end metrics with their bounds, and
//! per-layer metrics. `BENCHMARK.json` at the repo root mirrors these;
//! `bruck-benchmark check` fails when the two disagree.

use crate::stats::Better;

/// Which raw-transport ceiling a workload is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Channel,
    Uds,
    Tcp,
}

impl Wire {
    pub fn label(self) -> &'static str {
        match self {
            Wire::Channel => "channel",
            Wire::Uds => "uds",
            Wire::Tcp => "tcp-loopback",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    Alltoall,
    Allgather,
    /// `alltoallv_auto_into` on the seeded Zipf matrix.
    AlltoallvZipf,
}

/// One thread per rank calling a collective in a loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopShape {
    pub collective: Collective,
    pub wire: Wire,
    pub n: usize,
    pub k: usize,
    /// Block bytes (Zipf base for the v-op).
    pub b: usize,
    pub warmup: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    RankLoop(LoopShape),
    /// One full `TcpScaleCluster::run_with_workers` call per lap.
    TcpOneShot {
        n: usize,
        node_size: usize,
        b: usize,
        workers: usize,
        warmup: u64,
    },
    /// One plan-and-lower pass per lap, no communication.
    PlanOnly {
        n: usize,
        warmup: u64,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
}

impl Workload {
    pub fn wire(&self) -> Option<Wire> {
        match self.shape {
            Shape::RankLoop(l) => Some(l.wire),
            Shape::TcpOneShot { .. } => Some(Wire::Tcp),
            Shape::PlanOnly { .. } => None,
        }
    }

    /// Child-process sessions of one untraced run; end-to-end metrics are
    /// medians over them. Thread-per-rank sessions differ from one another
    /// by far more than the laps inside one do (±8 % against ±0.5 % on
    /// `uds_bulk_a2a` in the sizing runs) and cost 0.1–0.2 s to set up, so
    /// those workloads run many short ones. A one-shot lap builds its
    /// whole world anew, so one session holds no such state and three
    /// longer ones sample better.
    pub fn sessions(&self) -> usize {
        match self.shape {
            Shape::RankLoop(_) => 9,
            Shape::TcpOneShot { .. } | Shape::PlanOnly { .. } => 3,
        }
    }

    pub fn warmup(&self) -> u64 {
        match self.shape {
            Shape::RankLoop(LoopShape { warmup, .. })
            | Shape::TcpOneShot { warmup, .. }
            | Shape::PlanOnly { warmup, .. } => warmup,
        }
    }
}

/// How long one run measures: `run_seconds` of `BENCHMARK.json` and the
/// default of `run --seconds`.
pub const RUN_SECONDS: u32 = 15;

/// Zipf exponent of the skewed workloads (the BENCH_pr6 shape).
pub const ZIPF_S: f64 = 1.0;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "chan_small",
        why: "start-up-bound alltoall on in-process channels (n=8, 64 B): round engine, wake-ups, per-call re-plan; no sockets, no ARQ; ranks exceed cores 4:1",
        shape: Shape::RankLoop(LoopShape {
            collective: Collective::Alltoall,
            wire: Wire::Channel,
            n: 8,
            k: 1,
            b: 64,
            warmup: 30,
        }),
    },
    Workload {
        name: "uds_bulk_a2a",
        why: "bandwidth-bound alltoall over Unix sockets (n=8, k=2, 64 KiB): rotate/pack, framing, sliding-window ARQ, syscalls; planning is noise",
        shape: Shape::RankLoop(LoopShape {
            collective: Collective::Alltoall,
            wire: Wire::Uds,
            n: 8,
            k: 2,
            b: 65536,
            warmup: 30,
        }),
    },
    Workload {
        name: "uds_bulk_ag",
        why: "allgather on the same cluster and shape: few large asymmetric messages and the partitioned last round load the same net layers differently",
        shape: Shape::RankLoop(LoopShape {
            collective: Collective::Allgather,
            wire: Wire::Uds,
            n: 8,
            k: 2,
            b: 65536,
            warmup: 30,
        }),
    },
    Workload {
        name: "uds_skew_v",
        why: "alltoallv_auto on a seeded Zipf(1.0) matrix (n=8, k=2, base 256 B): metadata exchange, plan_vindex dispatch, padded/two-phase executors",
        shape: Shape::RankLoop(LoopShape {
            collective: Collective::AlltoallvZipf,
            wire: Wire::Uds,
            n: 8,
            k: 2,
            b: 256,
            warmup: 100,
        }),
    },
    Workload {
        name: "tcp_scale",
        why: "n=512 ranks on 2 workers over loopback TCP, 64 B blocks: lowering 512 programs, lockstep pool, reactor sweeps, ARQ and probes; fabric bring-up in every call",
        shape: Shape::TcpOneShot {
            n: 512,
            node_size: 32,
            b: 64,
            workers: 2,
            warmup: 2,
        },
    },
    Workload {
        name: "tcp_bulk",
        why: "same TCP fabric moving bulk data (n=64, 2 KiB, 8 MB a lap): framing, outboxes and the ARQ window over an already reliable stream",
        // Not the 4 KiB of the sizing runs: between 2 and 3 KiB a lap
        // crosses the watchdog's probe interval and falls off a cliff
        // (2 KiB 38 ms, 3 KiB 102 ms, 4 KiB 140 ms with ~470 probes and
        // ~50 retransmits a lap), and beyond it the lap wanders by ±20 %
        // from run to run, too much to put any bound on. See the README.
        shape: Shape::TcpOneShot {
            n: 64,
            node_size: 8,
            b: 2048,
            workers: 2,
            warmup: 2,
        },
    },
    Workload {
        name: "plan_only",
        why: "no communication, n=1024: planners, program lowering, schedule build/validate/stats, last-round partition; isolates model + sched",
        shape: Shape::PlanOnly { n: 1024, warmup: 2 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// What a caller of the collectives sees. `failure_rate` is not in this
/// table: it is 0 at the baseline, so no ratio bound can be put on it;
/// failures are the `attempted` / `failed` counts of every result and
/// `compare` fails on any rise.
///
/// The timing bounds are three times the widest run-to-run spread seen
/// on the 2-core sizing host (7–10 % on `chan_small`, `tcp_bulk`,
/// `plan_only`; the host's own speed drifts by ±6 % over minutes), not
/// what one would like them to be; `compare` reports `unresolved`, not
/// `ok`, wherever a side's spread exceeds the bound.
pub const END_TO_END: [Metric; 5] = [
    m("lap_mid_us", "us", Lower, 0.25),
    m("laps_per_s", "1/s", Higher, 0.25),
    m("cpu_ms_per_lap", "ms", Lower, 0.25),
    m("setup_s", "s", Lower, 0.25),
    m("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics have no bound; 0 means "does not apply to this
/// workload" unless the README says the layer is expected to read 0.
pub const PER_LAYER: &[Metric] = &[
    // Tail and dispersion of the lap: diagnostics until ROADMAP item 2.
    m("lap.samples", "count", Higher, 0.0),
    m("lap.min_us", "us", Lower, 0.0),
    m("lap.p50_us", "us", Lower, 0.0),
    m("lap.p90_us", "us", Lower, 0.0),
    m("lap.p99_us", "us", Lower, 0.0),
    m("lap.iqr_us", "us", Lower, 0.0),
    m("model.planner.plan_index_us", "us", Lower, 0.0),
    m("model.planner.plan_concat_us", "us", Lower, 0.0),
    m("model.planner.plan_vindex_us", "us", Lower, 0.0),
    m("model.program.lower_us_per_rank", "us", Lower, 0.0),
    m("model.partition.plan_last_round_us", "us", Lower, 0.0),
    m("model.plan_share", "ratio", Lower, 0.0),
    m("sched.schedule.build_us", "us", Lower, 0.0),
    m("sched.schedule.validate_us", "us", Lower, 0.0),
    m("sched.analyze.stats_us", "us", Lower, 0.0),
    m("core.blocks.rotate_GBps", "GB/s", Higher, 0.0),
    m("core.blocks.pack_GBps", "GB/s", Higher, 0.0),
    m("core.blocks.unpack_GBps", "GB/s", Higher, 0.0),
    m("core.blocks.place_GBps", "GB/s", Higher, 0.0),
    m("core.blocks.copy_large_GBps", "GB/s", Higher, 0.0),
    m("core.blocks.local_us_per_lap", "us", Lower, 0.0),
    m("core.bytes_copied_per_lap", "bytes", Lower, 0.0),
    m("core.bytes_gathered_per_lap", "bytes", Higher, 0.0),
    m("net.endpoint.rounds_per_lap", "count", Lower, 0.0),
    m("net.endpoint.c2_bytes_per_lap", "bytes", Lower, 0.0),
    m("net.endpoint.msgs_per_lap", "count", Lower, 0.0),
    m("net.endpoint.bytes_per_lap", "bytes", Lower, 0.0),
    m("net.endpoint.c1_over_bound", "ratio", Lower, 0.0),
    m("net.endpoint.c2_over_bound", "ratio", Lower, 0.0),
    m("net.endpoint.send_ms_per_lap", "ms", Lower, 0.0),
    m("net.endpoint.recv_wait_ms_per_lap", "ms", Lower, 0.0),
    m("net.endpoint.recv_wait_share", "ratio", Lower, 0.0),
    m("net.transport.round_us", "us", Lower, 0.0),
    m("net.transport.stream_MBps", "MB/s", Higher, 0.0),
    m("net.reliable.retransmits_per_lap", "count", Lower, 0.0),
    m("net.reliable.acks_per_lap", "count", Lower, 0.0),
    m("net.reliable.piggyback_ratio", "ratio", Higher, 0.0),
    m("net.reliable.window_occupancy", "frames", Higher, 0.0),
    m("net.reliable.probes_per_lap", "count", Lower, 0.0),
    m("net.reliable.dups_dropped_per_lap", "count", Lower, 0.0),
    m("net.reliable.stall_escalations", "count", Lower, 0.0),
    m("net.pool.alloc_per_lap", "count", Lower, 0.0),
    m("net.pool.reuse_ratio", "ratio", Higher, 0.0),
    m("net.cluster.spawn_ms", "ms", Lower, 0.0),
    m("net.tcp.fabric_setup_ms", "ms", Lower, 0.0),
    m("net.tcp.threads", "count", Lower, 0.0),
    m("net.tcp.reconnects_per_lap", "count", Lower, 0.0),
    m("net.tcp.link_failures_per_lap", "count", Lower, 0.0),
    m("net.tcp.outbox_shed_bytes_per_lap", "bytes", Lower, 0.0),
    m("tcp.execute_ms", "ms", Lower, 0.0),
    m("proc.busy_cores", "cores", Lower, 0.0),
    m("proc.sys_share", "ratio", Lower, 0.0),
    m("span.barrier_share", "ratio", Lower, 0.0),
    m("span.collective_share", "ratio", Higher, 0.0),
    m("span.verify_share", "ratio", Lower, 0.0),
    m("trace_overhead_pct", "%", Lower, 0.0),
    m("unattributed_share", "ratio", Lower, 0.0),
    m("ceiling.memcpy_GBps", "GB/s", Higher, 0.0),
    m("ceiling.tcp_loopback_MBps", "MB/s", Higher, 0.0),
    m("ceiling.tcp_loopback_rtt_us", "us", Lower, 0.0),
    m("ceiling.uds_dgram_MBps", "MB/s", Higher, 0.0),
    m("ceiling.uds_dgram_rtt_us", "us", Lower, 0.0),
    m("ceiling.channel_rtt_us", "us", Lower, 0.0),
    m("pct_of_ceiling", "%", Higher, 0.0),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert!((2..=8).contains(&names.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            names.push(m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(names.iter().all(|n| valid_name(n)));
    }
}
