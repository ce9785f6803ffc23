//! The schedule data structure and its invariants.

use bruck_model::planner::IndexPlan;
use bruck_model::program::{ConcatLowering, RankProgram};
use bruck_net::trace::Trace;

/// One point-to-point transfer within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Transfer {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message size in bytes.
    pub bytes: u64,
}

/// One communication round: a set of transfers that happen concurrently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Round {
    /// The transfers, kept sorted by `(src, dst)`.
    pub transfers: Vec<Transfer>,
}

impl Round {
    /// Size of the largest message in the round (the round's `C2`
    /// contribution).
    #[must_use]
    pub fn max_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).max().unwrap_or(0)
    }

    /// Total bytes injected in the round.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }
}

/// A complete static communication schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of processors.
    pub n: usize,
    /// Port count the schedule was planned for.
    pub ports: usize,
    /// Rounds in execution order.
    pub rounds: Vec<Round>,
}

impl Schedule {
    /// An empty schedule for `n` ranks and `ports` ports.
    #[must_use]
    pub fn new(n: usize, ports: usize) -> Self {
        Self {
            n,
            ports,
            rounds: Vec::new(),
        }
    }

    /// Append a round from an unsorted transfer list.
    pub fn push_round(&mut self, mut transfers: Vec<Transfer>) {
        transfers.sort_unstable();
        self.rounds.push(Round { transfers });
    }

    /// Number of rounds (`C1`).
    #[must_use]
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The wire schedule of a lowered program set: round `i` holds every
    /// rank's `i`-th [`RankProgram::round`] sends, each message sized by its
    /// slot descriptor. Programs are what executes, so a schedule read
    /// off them cannot describe a different algorithm than the one that
    /// runs.
    #[must_use]
    pub fn from_programs(programs: &[RankProgram], ports: usize) -> Self {
        let mut schedule = Self::new(programs.len(), ports);
        for program in programs {
            schedule.add_program(program);
        }
        schedule.sort_rounds();
        schedule
    }

    /// The schedule of an index plan on `n` ranks with `block`-byte
    /// blocks and `ports` ports: [`from_programs`](Self::from_programs)
    /// over every rank's lowering, one rank at a time, so no more than
    /// one program is alive whatever `n` is.
    ///
    /// # Errors
    ///
    /// The lowering's message when the plan has none at this `n`
    /// ([`RankProgram::lower`]).
    pub fn of_index_plan(
        plan: &IndexPlan,
        n: usize,
        block: usize,
        ports: usize,
    ) -> Result<Self, String> {
        let mut schedule = Self::new(n, ports);
        for rank in 0..n {
            schedule.add_program(&RankProgram::lower(plan, n, rank, block, ports)?);
        }
        schedule.sort_rounds();
        Ok(schedule)
    }

    /// The schedule of a concatenation, read off its programs the same
    /// way, at the ports they use.
    #[must_use]
    pub fn of_concat(lowering: &ConcatLowering) -> Self {
        let mut schedule = Self::new(lowering.n(), lowering.ports());
        for rank in 0..lowering.n() {
            schedule.add_program(&lowering.program(rank));
        }
        schedule.sort_rounds();
        schedule
    }

    /// Append one rank's sends, round by round (unsorted until
    /// [`sort_rounds`](Self::sort_rounds)).
    fn add_program(&mut self, program: &RankProgram) {
        let sent = program.ops.iter().filter_map(|op| program.round(op));
        for (i, sends) in sent.map(|round| round.sends).enumerate() {
            if self.rounds.len() == i {
                let transfers = Vec::with_capacity(self.n * sends.len());
                self.rounds.push(Round { transfers });
            }
            self.rounds[i]
                .transfers
                .extend(sends.iter().map(|s| Transfer {
                    src: program.rank,
                    dst: s.peer,
                    bytes: s.span.bytes(program.block) as u64,
                }));
        }
    }

    /// Restore the `(src, dst)` order [`Round::transfers`] is kept in.
    fn sort_rounds(&mut self) {
        for round in &mut self.rounds {
            round.transfers.sort_unstable();
        }
    }

    /// Rebuild a schedule from a live trace (round indices in the trace
    /// are per-sender; the collectives in this workspace keep them
    /// globally aligned). Zero-byte idle rounds cannot be reconstructed,
    /// so callers compare against plans with empty rounds stripped via
    /// [`Schedule::without_empty_rounds`].
    #[must_use]
    pub fn from_trace(trace: &Trace, n: usize, ports: usize) -> Self {
        let events = trace.snapshot();
        let num_rounds = events.iter().map(|e| e.round + 1).max().unwrap_or(0) as usize;
        let mut rounds = vec![Vec::new(); num_rounds];
        for e in &events {
            rounds[e.round as usize].push(Transfer {
                src: e.src,
                dst: e.dst,
                bytes: e.bytes,
            });
        }
        let mut s = Self::new(n, ports);
        for r in rounds {
            s.push_round(r);
        }
        s
    }

    /// A copy with all empty rounds removed (for comparing against traces,
    /// which cannot observe idle rounds).
    #[must_use]
    pub fn without_empty_rounds(&self) -> Self {
        Self {
            n: self.n,
            ports: self.ports,
            rounds: self
                .rounds
                .iter()
                .filter(|r| !r.transfers.is_empty())
                .cloned()
                .collect(),
        }
    }

    /// Check the k-port model invariants round by round:
    ///
    /// * every rank appears as `src` in at most `ports` transfers and as
    ///   `dst` in at most `ports` transfers per round;
    /// * within a round, a rank's destinations (and sources) are distinct;
    /// * no self-sends; all ranks in `[0, n)`.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let (mut sends, mut recvs) = (vec![0usize; self.n], vec![0usize; self.n]);
        for (ri, round) in self.rounds.iter().enumerate() {
            sends.fill(0);
            recvs.fill(0);
            // Sorted by (src, dst): a repeated pair follows its twin.
            let mut last = None;
            for t in &round.transfers {
                if t.src >= self.n || t.dst >= self.n {
                    return Err(format!("round {ri}: rank out of range in {t:?}"));
                }
                if t.src == t.dst {
                    return Err(format!("round {ri}: self-send in {t:?}"));
                }
                if last.replace((t.src, t.dst)) == Some((t.src, t.dst)) {
                    return Err(format!("round {ri}: duplicate pair {} → {}", t.src, t.dst));
                }
                sends[t.src] += 1;
                recvs[t.dst] += 1;
            }
            for rank in 0..self.n {
                if sends[rank] > self.ports {
                    return Err(format!(
                        "round {ri}: rank {rank} sends {} > k={}",
                        sends[rank], self.ports
                    ));
                }
                if recvs[rank] > self.ports {
                    return Err(format!(
                        "round {ri}: rank {rank} receives {} > k={}",
                        recvs[rank], self.ports
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_round_schedule() -> Schedule {
        let mut s = Schedule::new(3, 1);
        s.push_round(vec![
            Transfer {
                src: 0,
                dst: 1,
                bytes: 4,
            },
            Transfer {
                src: 1,
                dst: 2,
                bytes: 4,
            },
            Transfer {
                src: 2,
                dst: 0,
                bytes: 4,
            },
        ]);
        s.push_round(vec![Transfer {
            src: 1,
            dst: 0,
            bytes: 8,
        }]);
        s
    }

    #[test]
    fn schedule_is_read_off_the_programs() {
        // n = 4, r = 2: two rounds, every rank sending the two blocks
        // with the round's digit set, 1 then 2 ranks to the right.
        let s = Schedule::of_index_plan(&IndexPlan::Radix(2), 4, 8, 1).unwrap();
        s.validate().unwrap();
        assert_eq!((s.n, s.ports, s.num_rounds()), (4, 1, 2));
        for (round, dist) in s.rounds.iter().zip([1, 2]) {
            let want: Vec<Transfer> = (0..4)
                .map(|src| Transfer {
                    src,
                    dst: (src + dist) % 4,
                    bytes: 16,
                })
                .collect();
            assert_eq!(round.transfers, want);
        }
        let programs: Vec<RankProgram> = (0..4)
            .map(|rank| RankProgram::lower(&IndexPlan::Radix(2), 4, rank, 8, 1).unwrap())
            .collect();
        assert_eq!(Schedule::from_programs(&programs, 1), s);
        // One rank has nothing to send; an unfit plan has no schedule.
        let solo = Schedule::of_index_plan(&IndexPlan::Direct, 1, 8, 1).unwrap();
        assert_eq!(solo.num_rounds(), 0);
        let err = Schedule::of_index_plan(&IndexPlan::Mixed(vec![2]), 4, 8, 1).unwrap_err();
        assert!(err.contains("does not cover"), "{err}");
    }

    #[test]
    fn valid_schedule_passes() {
        two_round_schedule().validate().unwrap();
    }

    #[test]
    fn round_aggregates() {
        let s = two_round_schedule();
        assert_eq!(s.rounds[0].max_bytes(), 4);
        assert_eq!(s.rounds[0].total_bytes(), 12);
        assert_eq!(s.rounds[1].max_bytes(), 8);
        assert_eq!(s.num_rounds(), 2);
    }

    #[test]
    fn port_violation_detected() {
        let mut s = Schedule::new(3, 1);
        s.push_round(vec![
            Transfer {
                src: 0,
                dst: 1,
                bytes: 1,
            },
            Transfer {
                src: 0,
                dst: 2,
                bytes: 1,
            },
        ]);
        let err = s.validate().unwrap_err();
        assert!(err.contains("sends 2 > k=1"), "{err}");
    }

    #[test]
    fn recv_port_violation_detected() {
        let mut s = Schedule::new(3, 1);
        s.push_round(vec![
            Transfer {
                src: 0,
                dst: 2,
                bytes: 1,
            },
            Transfer {
                src: 1,
                dst: 2,
                bytes: 1,
            },
        ]);
        let err = s.validate().unwrap_err();
        assert!(err.contains("receives 2 > k=1"), "{err}");
    }

    #[test]
    fn self_send_detected() {
        let mut s = Schedule::new(2, 1);
        s.push_round(vec![Transfer {
            src: 0,
            dst: 0,
            bytes: 1,
        }]);
        assert!(s.validate().unwrap_err().contains("self-send"));
    }

    #[test]
    fn duplicate_pair_detected() {
        let mut s = Schedule::new(2, 2);
        s.push_round(vec![
            Transfer {
                src: 0,
                dst: 1,
                bytes: 1,
            },
            Transfer {
                src: 0,
                dst: 1,
                bytes: 2,
            },
        ]);
        assert!(s.validate().unwrap_err().contains("duplicate pair"));
    }

    #[test]
    fn strip_empty_rounds() {
        let mut s = Schedule::new(2, 1);
        s.push_round(vec![]);
        s.push_round(vec![Transfer {
            src: 0,
            dst: 1,
            bytes: 1,
        }]);
        let stripped = s.without_empty_rounds();
        assert_eq!(stripped.num_rounds(), 1);
    }
}
