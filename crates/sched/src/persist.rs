//! Plain-text persistence for schedules.
//!
//! A schedule round-trips through a small TSV dialect so that offline
//! tools (spreadsheets, plotting scripts, diffing in code review) can
//! consume the exact communication patterns the library executes
//! (columns are tab-separated in the actual files):
//!
//! ```text
//! # bruck-schedule v1
//! n    8    ports    1
//! round    0
//! 0    1    16
//! 1    2    16
//! round    1
//! …
//! ```
//!
//! [`ChaosSchedule`]s get a sibling dialect (`# bruck-chaos v1`, one
//! event per line) so a soak failure's minimized reproducer can be
//! written to disk and replayed later with `bruckctl chaos --replay` —
//! see [`chaos_to_tsv`] / [`chaos_from_tsv`].

use bruck_net::{ChaosEvent, ChaosSchedule};

use crate::schedule::{Schedule, Transfer};

/// Serialize a schedule to the TSV dialect.
#[must_use]
pub fn to_tsv(schedule: &Schedule) -> String {
    let mut out = String::from("# bruck-schedule v1\n");
    out.push_str(&format!("n\t{}\tports\t{}\n", schedule.n, schedule.ports));
    for (i, round) in schedule.rounds.iter().enumerate() {
        out.push_str(&format!("round\t{i}\n"));
        for t in &round.transfers {
            out.push_str(&format!("{}\t{}\t{}\n", t.src, t.dst, t.bytes));
        }
    }
    out
}

/// Parse the TSV dialect back into a schedule.
///
/// # Errors
///
/// A description of the first malformed line.
pub fn from_tsv(text: &str) -> Result<Schedule, String> {
    let mut lines = (1..)
        .zip(text.lines())
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty input")?;
    if !header.starts_with("# bruck-schedule v1") {
        return Err(format!("bad header: {header}"));
    }
    let (_, dims) = lines.next().ok_or("missing dimensions line")?;
    let parts: Vec<&str> = dims.split('\t').collect();
    let [n_key, n_val, p_key, p_val] = parts.as_slice() else {
        return Err(format!("bad dimensions line: {dims}"));
    };
    if *n_key != "n" || *p_key != "ports" {
        return Err(format!("bad dimensions line: {dims}"));
    }
    let n: usize = n_val.parse().map_err(|e| format!("bad n: {e}"))?;
    let ports: usize = p_val.parse().map_err(|e| format!("bad ports: {e}"))?;
    let mut schedule = Schedule::new(n, ports);
    let mut current: Option<Vec<Transfer>> = None;
    for (lineno, line) in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["round", idx] => {
                if let Some(transfers) = current.take() {
                    schedule.push_round(transfers);
                }
                let expected = schedule.num_rounds();
                let got: usize = idx
                    .parse()
                    .map_err(|e| format!("line {lineno}: bad round index: {e}"))?;
                if got != expected {
                    return Err(format!(
                        "line {lineno}: round {got} out of order (expected {expected})"
                    ));
                }
                current = Some(Vec::new());
            }
            [src, dst, bytes] => {
                let t = Transfer {
                    src: src
                        .parse()
                        .map_err(|e| format!("line {lineno}: bad src: {e}"))?,
                    dst: dst
                        .parse()
                        .map_err(|e| format!("line {lineno}: bad dst: {e}"))?,
                    bytes: bytes
                        .parse()
                        .map_err(|e| format!("line {lineno}: bad bytes: {e}"))?,
                };
                current
                    .as_mut()
                    .ok_or(format!("line {lineno}: transfer before any round"))?
                    .push(t);
            }
            _ => return Err(format!("line {lineno}: unrecognized line: {line}")),
        }
    }
    if let Some(transfers) = current.take() {
        schedule.push_round(transfers);
    }
    Ok(schedule)
}

/// Serialize a chaos schedule to the TSV dialect (`# bruck-chaos v1`):
/// a header, a `seed … n …` dimensions line, then one event per line.
/// Rates ride as `f64` through `Display`, whose shortest-round-trip
/// output parses back bit-exact, so replaying a persisted reproducer
/// draws the identical wire-fault verdicts.
#[must_use]
pub fn chaos_to_tsv(schedule: &ChaosSchedule) -> String {
    let mut out = String::from("# bruck-chaos v1\n");
    out.push_str(&format!("seed\t{}\tn\t{}\n", schedule.seed, schedule.n));
    for e in &schedule.events {
        match e {
            ChaosEvent::Loss(r) => out.push_str(&format!("loss\t{r}\n")),
            ChaosEvent::Duplication(r) => out.push_str(&format!("dup\t{r}\n")),
            ChaosEvent::Corruption(r) => out.push_str(&format!("corrupt\t{r}\n")),
            ChaosEvent::AckLoss(r) => out.push_str(&format!("ack-loss\t{r}\n")),
            ChaosEvent::Partition { side, round } => {
                let side: Vec<String> = side.iter().map(ToString::to_string).collect();
                out.push_str(&format!("partition\t{round}\t{}\n", side.join(",")));
            }
            ChaosEvent::Cut { src, dst, round } => {
                out.push_str(&format!("cut\t{src}\t{dst}\t{round}\n"));
            }
            ChaosEvent::Stall {
                rank,
                round,
                millis,
            } => out.push_str(&format!("stall\t{rank}\t{round}\t{millis}\n")),
            ChaosEvent::Kill { rank, round } => out.push_str(&format!("kill\t{rank}\t{round}\n")),
            ChaosEvent::Rejoin { rank } => out.push_str(&format!("rejoin\t{rank}\n")),
            ChaosEvent::ConnReset { src, dst, round } => {
                out.push_str(&format!("reset\t{src}\t{dst}\t{round}\n"));
            }
            ChaosEvent::HalfOpenStall {
                src,
                dst,
                round,
                millis,
            } => out.push_str(&format!("halfopen\t{src}\t{dst}\t{round}\t{millis}\n")),
            ChaosEvent::HandshakeDrop { src, dst, drops } => {
                out.push_str(&format!("hsdrop\t{src}\t{dst}\t{drops}\n"));
            }
            ChaosEvent::ReconnectFlap {
                src,
                dst,
                round,
                flaps,
            } => out.push_str(&format!("flap\t{src}\t{dst}\t{round}\t{flaps}\n")),
        }
    }
    out
}

/// Parse the chaos TSV dialect back into a [`ChaosSchedule`].
///
/// # Errors
///
/// A description of the first malformed line.
pub fn chaos_from_tsv(text: &str) -> Result<ChaosSchedule, String> {
    fn num<T: std::str::FromStr>(lineno: usize, what: &str, s: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        s.parse()
            .map_err(|e| format!("line {lineno}: bad {what}: {e}"))
    }
    let mut lines = (1..)
        .zip(text.lines())
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty input")?;
    if !header.starts_with("# bruck-chaos v1") {
        return Err(format!("bad header: {header}"));
    }
    let (dims_no, dims) = lines.next().ok_or("missing dimensions line")?;
    let parts: Vec<&str> = dims.split('\t').collect();
    let [s_key, s_val, n_key, n_val] = parts.as_slice() else {
        return Err(format!("bad dimensions line: {dims}"));
    };
    if *s_key != "seed" || *n_key != "n" {
        return Err(format!("bad dimensions line: {dims}"));
    }
    let seed: u64 = num(dims_no, "seed", s_val)?;
    let n: usize = num(dims_no, "n", n_val)?;
    let mut events = Vec::new();
    for (lineno, line) in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        let event = match fields.as_slice() {
            ["loss", r] => ChaosEvent::Loss(num(lineno, "rate", r)?),
            ["dup", r] => ChaosEvent::Duplication(num(lineno, "rate", r)?),
            ["corrupt", r] => ChaosEvent::Corruption(num(lineno, "rate", r)?),
            ["ack-loss", r] => ChaosEvent::AckLoss(num(lineno, "rate", r)?),
            ["partition", round, side] => ChaosEvent::Partition {
                round: num(lineno, "round", round)?,
                side: side
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| num(lineno, "side rank", s))
                    .collect::<Result<_, _>>()?,
            },
            ["cut", src, dst, round] => ChaosEvent::Cut {
                src: num(lineno, "src", src)?,
                dst: num(lineno, "dst", dst)?,
                round: num(lineno, "round", round)?,
            },
            ["stall", rank, round, millis] => ChaosEvent::Stall {
                rank: num(lineno, "rank", rank)?,
                round: num(lineno, "round", round)?,
                millis: num(lineno, "millis", millis)?,
            },
            ["kill", rank, round] => ChaosEvent::Kill {
                rank: num(lineno, "rank", rank)?,
                round: num(lineno, "round", round)?,
            },
            ["rejoin", rank] => ChaosEvent::Rejoin {
                rank: num(lineno, "rank", rank)?,
            },
            ["reset", src, dst, round] => ChaosEvent::ConnReset {
                src: num(lineno, "src", src)?,
                dst: num(lineno, "dst", dst)?,
                round: num(lineno, "round", round)?,
            },
            ["halfopen", src, dst, round, millis] => ChaosEvent::HalfOpenStall {
                src: num(lineno, "src", src)?,
                dst: num(lineno, "dst", dst)?,
                round: num(lineno, "round", round)?,
                millis: num(lineno, "millis", millis)?,
            },
            ["hsdrop", src, dst, drops] => ChaosEvent::HandshakeDrop {
                src: num(lineno, "src", src)?,
                dst: num(lineno, "dst", dst)?,
                drops: num(lineno, "drops", drops)?,
            },
            ["flap", src, dst, round, flaps] => ChaosEvent::ReconnectFlap {
                src: num(lineno, "src", src)?,
                dst: num(lineno, "dst", dst)?,
                round: num(lineno, "round", round)?,
                flaps: num(lineno, "flaps", flaps)?,
            },
            _ => return Err(format!("line {lineno}: unrecognized line: {line}")),
        };
        events.push(event);
    }
    Ok(ChaosSchedule { seed, n, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        let mut s = Schedule::new(4, 2);
        s.push_round(vec![
            Transfer {
                src: 0,
                dst: 1,
                bytes: 16,
            },
            Transfer {
                src: 2,
                dst: 3,
                bytes: 8,
            },
        ]);
        s.push_round(vec![]);
        s.push_round(vec![Transfer {
            src: 3,
            dst: 0,
            bytes: 1,
        }]);
        s
    }

    #[test]
    fn round_trip_preserves_schedule() {
        let s = sample();
        let text = to_tsv(&s);
        let back = from_tsv(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn header_is_checked() {
        assert!(from_tsv("nonsense\n").is_err());
        assert!(from_tsv("").is_err());
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let mut text = to_tsv(&sample());
        text.push_str("1\t2\n"); // two fields: invalid
        let err = from_tsv(&text).unwrap_err();
        assert!(err.contains("unrecognized"), "{err}");
    }

    #[test]
    fn malformed_lines_are_numbered_from_one() {
        let text = "# bruck-schedule v1\nn\t2\tports\t1\nround\t0\n1\t2\n";
        let err = from_tsv(text).unwrap_err();
        assert!(err.starts_with("line 4: unrecognized"), "{err}");
        let text = "# bruck-chaos v1\nseed\t7\tn\t4\nloss\t0.01\nkill\tseven\t1\n";
        let err = chaos_from_tsv(text).unwrap_err();
        assert!(err.starts_with("line 4: bad rank"), "{err}");
    }

    #[test]
    fn out_of_order_rounds_rejected() {
        let text = "# bruck-schedule v1\nn\t2\tports\t1\nround\t1\n";
        assert!(from_tsv(text).unwrap_err().contains("out of order"));
    }

    #[test]
    fn transfer_before_round_rejected() {
        let text = "# bruck-schedule v1\nn\t2\tports\t1\n0\t1\t4\n";
        assert!(from_tsv(text).unwrap_err().contains("before any round"));
    }

    /// Pseudo-random valid schedules survive the text round trip exactly.
    /// Deterministic sweep over (n, rounds, seed) with a local xorshift —
    /// same coverage as a property test, no external runner needed.
    #[test]
    fn random_schedules_round_trip() {
        for n in 2usize..20 {
            for rounds in 0usize..8 {
                for seed in (0u64..10_000).step_by(997) {
                    let mut s = Schedule::new(n, 4);
                    let mut state = seed.wrapping_add(1);
                    let mut next = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for _ in 0..rounds {
                        let count = (next() % 4) as usize;
                        let mut transfers = Vec::new();
                        for _ in 0..count {
                            let src = (next() % n as u64) as usize;
                            let dst = (src + 1 + (next() % (n as u64 - 1)) as usize) % n;
                            if transfers
                                .iter()
                                .any(|t: &Transfer| t.src == src && t.dst == dst)
                            {
                                continue;
                            }
                            transfers.push(Transfer {
                                src,
                                dst,
                                bytes: next() % 100_000,
                            });
                        }
                        s.push_round(transfers);
                    }
                    let back = from_tsv(&to_tsv(&s))
                        .unwrap_or_else(|e| panic!("n={n} rounds={rounds} seed={seed}: {e}"));
                    assert_eq!(back, s, "n={n} rounds={rounds} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn chaos_round_trip_preserves_every_event_kind() {
        let s = ChaosSchedule {
            seed: 0xDEAD_BEEF,
            n: 8,
            events: vec![
                ChaosEvent::Loss(0.03),
                ChaosEvent::Duplication(0.001),
                ChaosEvent::Corruption(0.1234567890123),
                ChaosEvent::AckLoss(0.25),
                ChaosEvent::Partition {
                    side: vec![0, 2, 5],
                    round: 3,
                },
                ChaosEvent::Cut {
                    src: 1,
                    dst: 6,
                    round: 0,
                },
                ChaosEvent::Stall {
                    rank: 4,
                    round: 2,
                    millis: 17,
                },
                ChaosEvent::Kill { rank: 7, round: 1 },
                ChaosEvent::Rejoin { rank: 7 },
                ChaosEvent::ConnReset {
                    src: 0,
                    dst: 5,
                    round: 2,
                },
                ChaosEvent::HalfOpenStall {
                    src: 3,
                    dst: 6,
                    round: 1,
                    millis: 12,
                },
                ChaosEvent::HandshakeDrop {
                    src: 2,
                    dst: 7,
                    drops: 64,
                },
                ChaosEvent::ReconnectFlap {
                    src: 1,
                    dst: 4,
                    round: 0,
                    flaps: 3,
                },
            ],
        };
        let back = chaos_from_tsv(&chaos_to_tsv(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn generated_socket_chaos_schedules_round_trip() {
        for seed in 0..256u64 {
            for n in [8usize, 16, 128] {
                let s = ChaosSchedule::generate_socket_chaos(seed, n);
                let back = chaos_from_tsv(&chaos_to_tsv(&s))
                    .unwrap_or_else(|e| panic!("seed {seed} n {n}: {e}"));
                assert_eq!(back, s, "seed {seed} n {n}");
            }
        }
    }

    #[test]
    fn generated_chaos_schedules_round_trip() {
        for seed in 0..256u64 {
            for n in [2usize, 4, 8, 16] {
                let s = ChaosSchedule::generate(seed, n);
                let back = chaos_from_tsv(&chaos_to_tsv(&s))
                    .unwrap_or_else(|e| panic!("seed={seed} n={n}: {e}"));
                assert_eq!(back, s, "seed={seed} n={n}");
            }
        }
    }

    #[test]
    fn chaos_malformed_lines_are_reported_with_position() {
        let mut text = chaos_to_tsv(&ChaosSchedule::generate(3, 4));
        text.push_str("kill\tseven\t1\n");
        let err = chaos_from_tsv(&text).unwrap_err();
        assert!(err.contains("bad rank"), "{err}");
        assert!(
            chaos_from_tsv("# bruck-schedule v1\n")
                .unwrap_err()
                .contains("bad header"),
            "schedule header must not pass for chaos"
        );
        assert!(chaos_from_tsv("# bruck-chaos v1\nseed\t1\n")
            .unwrap_err()
            .contains("bad dimensions"));
    }

    #[test]
    fn retired_delay_lines_are_unrecognized() {
        // `delay` names no fault: a reproducer with such a line is refused
        // by position, not replayed without it.
        let text = "# bruck-chaos v1\nseed\t7\tn\t4\nloss\t0.01\ndelay\t0.1\t0.00001\n";
        let err = chaos_from_tsv(text).unwrap_err();
        assert!(err.starts_with("line "), "{err}");
        assert!(
            err.ends_with(": unrecognized line: delay\t0.1\t0.00001"),
            "{err}"
        );
    }

    #[test]
    fn real_plans_round_trip() {
        // Use the text format on an actual algorithm plan.
        let mut s = Schedule::new(8, 1);
        for x in 0..3u32 {
            s.push_round(
                (0..8)
                    .map(|r| Transfer {
                        src: r,
                        dst: (r + (1 << x)) % 8,
                        bytes: 32,
                    })
                    .collect(),
            );
        }
        assert_eq!(from_tsv(&to_tsv(&s)).unwrap(), s);
    }
}
