//! Virtual-time semantics of every cost model, as the simulator
//! (`bruck::model::program::simulate`) applies them to hand-built
//! programs: the paper's linear model and the cited postal/LogP
//! alternatives, plus the hierarchical extension and copy charging.

use bruck::model::complexity::Complexity;
use bruck::model::cost::{
    CostModel, HierarchicalModel, LinearModel, LogPModel, PostalModel, Sp1Model,
};
use bruck::model::program::{simulate, ProgramOp, ProgramXfer, RankProgram, Simulation, Span};
use bruck::sched::{Schedule, ScheduleStats};

/// One round of a hand-built program: `(peer, bytes)` sends, then
/// `(peer, bytes)` receives.
type Round = (Vec<(usize, usize)>, Vec<(usize, usize)>);

/// Rank `rank`'s hand-built program among `n`: round `i`'s messages are
/// tagged `i`, and every one is read from or written to the start of one
/// buffer as long as the largest.
fn program(n: usize, rank: usize, rounds: &[Round]) -> RankProgram {
    let messages = rounds
        .iter()
        .flat_map(|(sends, recvs)| sends.iter().chain(recvs));
    let len = messages.map(|&(_, bytes)| bytes).max().unwrap_or(0);
    let (ops, xfers) = (Vec::new(), Vec::new());
    let mut prog = RankProgram {
        n,
        rank,
        block: 1,
        input: len,
        work: len,
        ops,
        xfers,
    };
    for (tag, (sends, recvs)) in (0u64..).zip(rounds) {
        let xfer = |&(peer, bytes): &(usize, usize)| {
            let runs = [(0, bytes)].into();
            let span = Span::Bytes { runs, back: 0 };
            ProgramXfer { peer, tag, span }
        };
        let at = prog.xfers.len();
        prog.xfers.extend(sends.iter().map(xfer));
        let mid = prog.xfers.len();
        prog.xfers.extend(recvs.iter().map(xfer));
        let recvs = mid..prog.xfers.len();
        prog.ops.push(ProgramOp::Round {
            sends: at..mid,
            recvs,
        });
    }
    prog
}

/// Every rank's program, from its rounds.
fn programs(ranks: &[Vec<Round>]) -> Vec<RankProgram> {
    let n = ranks.len();
    (0..n).map(|rank| program(n, rank, &ranks[rank])).collect()
}

/// `programs` simulated under `model` on zero-filled inputs.
fn simulated(programs: &[RankProgram], model: &dyn CostModel) -> Simulation {
    let inputs: Vec<Vec<u8>> = programs.iter().map(|p| vec![0; p.input]).collect();
    simulate(programs, &inputs, model, |_, _, _| {}).expect("hand-built programs run")
}

/// `rounds` synchronous ring rounds of `m`-byte messages on `n` ranks.
fn ring(n: usize, rounds: usize, m: usize) -> Vec<Vec<Round>> {
    let round = |r: usize| (vec![((r + 1) % n, m)], vec![((r + n - 1) % n, m)]);
    (0..n).map(|r| vec![round(r); rounds]).collect()
}

/// One synchronous ring round with `m`-byte messages; returns the common
/// virtual completion time.
fn ring_round_time(model: &dyn CostModel, n: usize, m: usize) -> f64 {
    let sim = simulated(&programs(&ring(n, 1, m)), model);
    let t = sim.times[0];
    for &x in &sim.times {
        assert!((x - t).abs() < 1e-15, "ring round should be symmetric");
    }
    t
}

#[test]
fn linear_round_is_beta_plus_m_tau() {
    let t = ring_round_time(&LinearModel::new(10e-6, 1e-8), 6, 500);
    assert!((t - (10e-6 + 500.0 * 1e-8)).abs() < 1e-15);
}

#[test]
fn virtual_time_linear_model_synchronous() {
    // 3 rounds of 100-byte messages on the SP-1 linear model:
    // T = 3·(29µs + 100·0.12µs).
    let programs = programs(&ring(4, 3, 100));
    let sim = simulated(&programs, &LinearModel::sp1());
    let expected = 3.0 * (29e-6 + 100.0 * 0.12e-6);
    for &t in &sim.times {
        assert!((t - expected).abs() < 1e-12, "t = {t}, expected {expected}");
    }
    let stats = ScheduleStats::of(&Schedule::from_programs(&programs, 1));
    assert_eq!(stats.complexity, Complexity::new(3, 300));
}

#[test]
fn postal_round_is_lambda_times_injection() {
    // Delivery completes λ injection-times after the send begins: the
    // receiver (who is also sending) finishes at λ·s(m).
    let wire = LinearModel::new(5e-6, 1e-8);
    let lambda = 3.0;
    let t = ring_round_time(&PostalModel::new(wire, lambda), 5, 200);
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
    let t = ring_round_time(&LogPModel::new(l, o, g, big_g), 4, m);
    // sender busy o + max(g, mG); arrival l later; receiver pays o.
    let expected = o + f64::max(g, m as f64 * big_g) + l + o;
    assert!((t - expected).abs() < 1e-15, "t = {t}, expected {expected}");
}

#[test]
fn sp1_gamma_factors_inflate_the_round() {
    let base = ring_round_time(&LinearModel::sp1(), 4, 256);
    let inflated = ring_round_time(&Sp1Model::calibrated(), 4, 256);
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
    let t = ring_round_time(&h, 4, m);
    let remote = LinearModel::sp1();
    let expected = remote.startup + m as f64 * remote.per_byte;
    assert!((t - expected).abs() < 1e-12, "t = {t}, expected {expected}");
}

#[test]
fn hierarchical_local_only_ring_is_fast() {
    // A ring entirely inside one node runs at local speed.
    let h = HierarchicalModel::smp_cluster(4);
    let m = 128usize;
    let t = ring_round_time(&h, 4, m);
    let local = LinearModel::new(1e-6, 1e-9);
    let expected = local.startup + m as f64 * local.per_byte;
    assert!((t - expected).abs() < 1e-15, "t = {t}, expected {expected}");
}

#[test]
fn copy_cost_charges_only_configured_models() {
    // A ring round copies its input into the work buffer and scatters
    // what it receives: free under the plain model, charged under one
    // with a per-byte copy time.
    let plain = Sp1Model::calibrated();
    let copying = Sp1Model::calibrated().with_copy_per_byte(0.05e-6);
    let t_plain = ring_round_time(&plain, 4, 64);
    let t_copy = ring_round_time(&copying, 4, 64);
    assert!(
        t_copy > t_plain,
        "copy model must charge the copy-in and the scatter"
    );
}

#[test]
fn postal_latency_overlaps_across_ranks() {
    // A relay chain 0→1→2 with postal latency: rank 2's completion is the
    // sum of both deliveries (no magic overlap for dependent messages).
    let wire = LinearModel::new(1e-6, 0.0);
    let lambda = 4.0;
    let idle: Round = (vec![], vec![]);
    let relay = [
        vec![(vec![(1, 1)], vec![])],
        vec![(vec![], vec![(0, 1)]), (vec![(2, 1)], vec![])],
        vec![idle, (vec![], vec![(1, 1)])],
    ];
    let sim = simulated(&programs(&relay), &PostalModel::new(wire, lambda));
    // Delivery 0→1 completes at 4 µs; rank 1's send departs at 5 µs and
    // delivers at 4+4 = 8 µs.
    assert!(
        (sim.times[2] - 8e-6).abs() < 1e-15,
        "rank 2 at {}",
        sim.times[2]
    );
}

#[test]
fn closed_form_equals_simulation_on_synchronous_programs() {
    let programs = programs(&ring(8, 5, 64));
    let model = LinearModel::sp1();
    let closed = ScheduleStats::of(&Schedule::from_programs(&programs, 1)).predicted_time(&model);
    let sim = simulated(&programs, &model).makespan();
    assert!((closed - sim).abs() < 1e-12, "closed {closed} vs sim {sim}");
}

#[test]
fn simulation_handles_skew() {
    // Rank 0 sends a large message in round 0 while the others idle; in
    // round 1 rank 2 sends to rank 0. The closed form starts round 1
    // after the global round 0; the simulation does not.
    let model = LinearModel::new(0.0, 1e-6);
    let idle: Round = (vec![], vec![]);
    let skewed = [
        vec![(vec![(1, 1000)], vec![]), (vec![], vec![(2, 10)])],
        vec![(vec![], vec![(0, 1000)]), idle.clone()],
        vec![idle, (vec![(0, 10)], vec![])],
    ];
    let programs = programs(&skewed);
    let sim = simulated(&programs, &model).makespan();
    // Rank 2's round-1 send departs at its own clock (0), arrives to
    // rank 0 at 10µs ⇒ makespan dominated by rank 1's 1000µs receive.
    assert!((sim - 1000e-6).abs() < 1e-12, "sim = {sim}");
    let closed = ScheduleStats::of(&Schedule::from_programs(&programs, 1)).predicted_time(&model);
    assert!(closed > sim, "closed form should be pessimistic here");
}

#[test]
fn empty_programs_take_no_time() {
    let sim = simulated(&programs(&vec![Vec::new(); 4]), &LinearModel::sp1());
    assert_eq!(sim.makespan(), 0.0);
}
