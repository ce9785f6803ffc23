//! In-memory span log owned by the benchmark.
//!
//! Every thread that records spans owns one [`SpanLog`]; nothing is
//! shared while the workload runs. At exit the logs are merged, written
//! once as Chrome trace-event JSON, and reduced to per-name self times
//! (a span's duration minus what its children cover). Spans *inside* the
//! library are a later change: these sit around the calls into it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Marks "no parent" / "no lap" in a [`Span`].
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`NONE`].
    pub parent: u32,
    /// Lap this span belongs to, or [`NONE`] for set-up and probes.
    pub lap: u32,
}

/// One thread's spans. Disabled logs record nothing and cost one branch.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    pub thread: String,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn new(enabled: bool, epoch: Instant, thread: impl Into<String>) -> Self {
        Self {
            enabled,
            epoch,
            thread: thread.into(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, lap: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            lap,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, lap: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(name, lap);
        let out = f(self);
        self.end();
        out
    }

    /// Close anything left open (a lap that returned early on an error).
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }
}

/// Per-name totals over one log: count, total and self nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: duration minus the children's durations
/// (children of one parent on one thread never overlap).
pub fn self_times(log: &SpanLog) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; log.spans.len()];
    for s in &log.spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in log.spans.iter().zip(child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(kids);
    }
    out
}

/// Nanoseconds of `[0, wall_ns)` covered by the log's root spans.
pub fn covered_ns(log: &SpanLog, wall_ns: u64) -> u64 {
    log.spans
        .iter()
        .filter(|s| s.parent == NONE)
        .map(|s| s.end_ns.min(wall_ns).saturating_sub(s.start_ns))
        .sum()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, one lane per thread.
pub fn chrome_trace(process: &str, logs: &[SpanLog]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
    );
    for (tid, log) in logs.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            log.thread
        );
        for (id, s) in log.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
            if s.parent != NONE {
                let _ = write!(out, ",\"parent\":{}", s.parent);
            }
            if s.lap != NONE {
                let _ = write!(out, ",\"lap\":{}", s.lap);
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn log_with(spans: &[(&'static str, u64, u64, u32)]) -> SpanLog {
        let mut log = SpanLog::new(true, Instant::now(), "t");
        for &(name, start_ns, end_ns, parent) in spans {
            log.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                lap: NONE,
            });
        }
        log
    }

    #[test]
    fn self_time_subtracts_children() {
        let log = log_with(&[
            ("lap", 0, 100, NONE),
            ("barrier", 0, 30, 0),
            ("collective", 30, 90, 0),
            ("lap", 100, 150, NONE),
            ("collective", 110, 150, 3),
        ]);
        let t = self_times(&log);
        assert_eq!(t["lap"].count, 2);
        assert_eq!(t["lap"].total_ns, 150);
        assert_eq!(t["lap"].self_ns, 10 + 10);
        assert_eq!(t["collective"].self_ns, 100);
        assert_eq!(t["barrier"].total_ns, 30);
        assert_eq!(covered_ns(&log, 200), 150);
        assert_eq!(covered_ns(&log, 120), 120);
    }

    #[test]
    fn begin_end_nest_and_disabled_logs_stay_empty() {
        let mut log = SpanLog::new(true, Instant::now(), "t");
        log.scope("outer", NONE, |l| {
            l.scope("inner", 7, |_| {});
        });
        log.begin("dangling", NONE);
        log.close_all();
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[1].parent, 0);
        assert_eq!(log.spans[1].lap, 7);
        assert!(log.spans.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = SpanLog::new(false, Instant::now(), "t");
        off.scope("x", NONE, |_| {});
        assert!(off.spans.is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let log = log_with(&[("a", 0, 1500, NONE), ("b", 100, 200, 0)]);
        let text = chrome_trace("w", &[log]);
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[3]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
