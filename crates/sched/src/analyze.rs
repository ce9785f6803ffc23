//! Schedule analysis: complexity measures and predicted time.

use bruck_model::complexity::Complexity;
use bruck_model::cost::CostModel;

use crate::schedule::Schedule;

/// Aggregate statistics of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStats {
    /// `(C1, C2)` per the paper's §1.2 measures.
    pub complexity: Complexity,
    /// Total bytes injected into the network.
    pub total_bytes: u64,
    /// Total number of messages.
    pub total_msgs: u64,
    /// Largest number of bytes sent by any single rank over the whole
    /// schedule (per-node load).
    pub max_rank_bytes: u64,
    /// Largest single message.
    pub max_message: u64,
}

impl ScheduleStats {
    /// Compute stats for a schedule. Empty rounds still count toward `C1`
    /// (they model enforced synchronization steps).
    #[must_use]
    pub fn of(schedule: &Schedule) -> Self {
        let mut complexity = Complexity::ZERO;
        let mut total_bytes = 0u64;
        let mut total_msgs = 0u64;
        let mut rank_bytes = vec![0u64; schedule.n];
        let mut max_message = 0u64;
        for round in &schedule.rounds {
            complexity = complexity.plus_round(round.max_bytes());
            for t in &round.transfers {
                total_bytes += t.bytes;
                total_msgs += 1;
                rank_bytes[t.src] += t.bytes;
                max_message = max_message.max(t.bytes);
            }
        }
        Self {
            complexity,
            total_bytes,
            total_msgs,
            max_rank_bytes: rank_bytes.into_iter().max().unwrap_or(0),
            max_message,
        }
    }

    /// Predicted wall time of the schedule under `model`, assuming
    /// synchronous rounds (the paper's `T = C1·β + C2·τ` shape,
    /// generalized through [`CostModel::estimate`]).
    #[must_use]
    pub fn predicted_time(&self, model: &dyn CostModel) -> f64 {
        model.estimate(self.complexity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Transfer;

    fn ring_schedule(n: usize, rounds: usize, bytes: u64) -> Schedule {
        let mut s = Schedule::new(n, 1);
        for _ in 0..rounds {
            s.push_round(
                (0..n)
                    .map(|r| Transfer {
                        src: r,
                        dst: (r + 1) % n,
                        bytes,
                    })
                    .collect(),
            );
        }
        s
    }

    #[test]
    fn stats_of_ring() {
        let s = ring_schedule(4, 3, 100);
        let stats = ScheduleStats::of(&s);
        assert_eq!(stats.complexity, Complexity::new(3, 300));
        assert_eq!(stats.total_bytes, 1200);
        assert_eq!(stats.total_msgs, 12);
        assert_eq!(stats.max_rank_bytes, 300);
        assert_eq!(stats.max_message, 100);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new(4, 1);
        let stats = ScheduleStats::of(&s);
        assert_eq!(stats.complexity, Complexity::ZERO);
    }
}
