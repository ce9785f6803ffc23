//! Communication tracing.
//!
//! When enabled, every message send is recorded. Traces serve two
//! purposes: (1) `bruck-sched` reconstructs the executed schedule from a
//! trace and cross-checks it against the algorithm's *planned* schedule;
//! (2) the figure harness can dump traffic matrices.

use std::sync::{Arc, Mutex};

use crate::message::Tag;

/// One recorded send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: u64,
    /// The sender's 0-based round index when the send happened.
    pub round: u64,
}

/// A shared, append-only trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl Trace {
    /// A fresh empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event (called by endpoints; cheap, amortized lock).
    pub fn record(&self, event: TraceEvent) {
        self.events
            .lock()
            .expect("trace mutex poisoned")
            .push(event);
    }

    /// Snapshot all events, sorted by `(round, src, dst)` for determinism.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut v = self.events.lock().expect("trace mutex poisoned").clone();
        v.sort_by_key(|a| (a.round, a.src, a.dst, a.tag));
        v
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace mutex poisoned").len()
    }

    /// Whether no event has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `n × n` byte-traffic matrix (`matrix[src][dst]`).
    #[must_use]
    pub fn traffic_matrix(&self, n: usize) -> Vec<Vec<u64>> {
        let mut m = vec![vec![0u64; n]; n];
        for e in self.events.lock().expect("trace mutex poisoned").iter() {
            m[e.src][e.dst] += e.bytes;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: usize, dst: usize, round: u64, bytes: u64) -> TraceEvent {
        TraceEvent {
            src,
            dst,
            tag: 0,
            bytes,
            round,
        }
    }

    #[test]
    fn snapshot_is_sorted() {
        let t = Trace::new();
        t.record(ev(2, 0, 1, 5));
        t.record(ev(0, 1, 0, 3));
        t.record(ev(1, 2, 0, 4));
        let s = t.snapshot();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].src, s[0].round), (0, 0));
        assert_eq!((s[2].src, s[2].round), (2, 1));
    }

    #[test]
    fn traffic_matrix_accumulates() {
        let t = Trace::new();
        t.record(ev(0, 1, 0, 10));
        t.record(ev(0, 1, 1, 7));
        t.record(ev(1, 0, 0, 2));
        let m = t.traffic_matrix(2);
        assert_eq!(m[0][1], 17);
        assert_eq!(m[1][0], 2);
        assert_eq!(m[0][0], 0);
    }

    #[test]
    fn shared_clones_see_same_events() {
        let t = Trace::new();
        let t2 = t.clone();
        t.record(ev(0, 1, 0, 1));
        assert_eq!(t2.len(), 1);
        assert!(!t2.is_empty());
    }
}
