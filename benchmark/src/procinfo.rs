//! Process accounting and host provenance from `/proc` (Linux).

use std::time::Instant;

use crate::json::Json;

/// Kernel `USER_HZ`: the unit of the CPU fields in `/proc/<pid>/stat`.
/// It is 100 on every Linux ABI the toolchain targets.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU seconds consumed so far, all threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or_default()
    }

    /// Fields 14 (utime) and 15 (stime), counted after the `(comm)` field,
    /// which may itself contain spaces and parentheses.
    fn parse(stat: &str) -> Option<Self> {
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_ascii_whitespace();
        // `rest` starts at field 3 (state); utime is field 14.
        let utime: f64 = fields.nth(11)?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some(Self {
            user_s: utime / TICKS_PER_S,
            sys_s: stime / TICKS_PER_S,
        })
    }

    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// CPU and wall consumed between two marks.
#[derive(Debug, Clone, Copy)]
pub struct CpuMark {
    cpu: CpuTimes,
    at: Instant,
}

/// What a timed interval cost the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuUse {
    pub cpu_s: f64,
    /// CPU seconds per wall second.
    pub busy_cores: f64,
    /// System share of the CPU time.
    pub sys_share: f64,
}

impl CpuMark {
    pub fn now() -> Self {
        Self {
            cpu: CpuTimes::now(),
            at: Instant::now(),
        }
    }

    pub fn since(&self, start: &CpuMark) -> CpuUse {
        let cpu_s = self.cpu.total_s() - start.cpu.total_s();
        let sys_s = self.cpu.sys_s - start.cpu.sys_s;
        let wall_s = self.at.duration_since(start.at).as_secs_f64();
        CpuUse {
            cpu_s,
            busy_cores: if wall_s > 0.0 { cpu_s / wall_s } else { 0.0 },
            sys_share: if cpu_s > 0.0 { sys_s / cpu_s } else { 0.0 },
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and toolchain provenance stamped into every result file.
pub fn environment() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut env = Json::obj();
    env.set("nproc", Json::Num(nproc as f64))
        .set("cpu_model", Json::Str(cpu_model))
        .set("kernel", Json::Str(kernel))
        .set("rustc", Json::Str(first_line_of("rustc", &["-V"])))
        .set(
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        )
        .set("loopback", Json::Bool(true));
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parse_skips_a_hostile_comm_field() {
        let stat = "123 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 9 0 1 2 3";
        let t = CpuTimes::parse(stat).unwrap();
        assert_eq!(t.user_s, 2.5);
        assert_eq!(t.sys_s, 0.75);
        assert!(CpuTimes::parse("garbage").is_none());
    }

    #[test]
    fn live_readings_are_sane() {
        let a = CpuMark::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let used = CpuMark::now().since(&a);
        assert!(used.cpu_s >= 0.0 && used.busy_cores < 64.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
