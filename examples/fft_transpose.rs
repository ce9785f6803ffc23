//! Distributed FFT via the index operation — §1.1: "The index operation
//! is also used in FFT algorithms".
//!
//! The classic transpose-based distributed FFT of a length-`R·C` signal:
//!
//! 1. view the signal as an `R × C` matrix (column-major), rows
//!    distributed over the processors;
//! 2. local length-`C` FFTs on each row;
//! 3. twiddle by `W_N^{r·c}`;
//! 4. **transpose via one index operation** (the only communication);
//! 5. local length-`R` FFTs on the transposed rows.
//!
//! The result is the DFT of the input (in a permuted order, which we
//! invert when verifying). Checked against a direct `O(N²)` DFT.
//!
//! ```text
//! cargo run --release --example fft_transpose
//! ```

use bruck::model::program::{simulate, RankProgram};
use bruck::prelude::*;
use std::f64::consts::PI;

const P: usize = 4; // processors
const R: usize = 16; // rows  (R % P == 0)
const C: usize = 16; // cols  (C % P == 0)
const N: usize = R * C;

#[derive(Clone, Copy, PartialEq, Debug, Default)]
struct Cpx {
    re: f64,
    im: f64,
}

impl Cpx {
    fn mul(self, o: Cpx) -> Cpx {
        Cpx {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
    fn add(self, o: Cpx) -> Cpx {
        Cpx {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
    fn sub(self, o: Cpx) -> Cpx {
        Cpx {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

fn w(k: f64, n: f64) -> Cpx {
    let a = -2.0 * PI * k / n;
    Cpx {
        re: a.cos(),
        im: a.sin(),
    }
}

/// In-place radix-2 Cooley–Tukey (n a power of two).
fn fft(x: &mut [Cpx]) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two());
    // bit reversal
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        if (j as usize) > i {
            x.swap(i, j as usize);
        }
    }
    let mut len = 2;
    while len <= n {
        for start in (0..n).step_by(len) {
            for off in 0..len / 2 {
                let tw = w(off as f64, len as f64);
                let a = x[start + off];
                let b = x[start + off + len / 2].mul(tw);
                x[start + off] = a.add(b);
                x[start + off + len / 2] = a.sub(b);
            }
        }
        len *= 2;
    }
}

/// The input signal.
fn signal(t: usize) -> Cpx {
    let t = t as f64;
    Cpx {
        re: (2.0 * PI * 5.0 * t / N as f64).sin() + 0.25,
        im: 0.1 * (t / 17.0).cos(),
    }
}

fn encode(v: &[Cpx]) -> Vec<u8> {
    v.iter()
        .flat_map(|c| [c.re.to_le_bytes(), c.im.to_le_bytes()].concat())
        .collect()
}

fn decode(bytes: &[u8]) -> Vec<Cpx> {
    bytes
        .chunks_exact(16)
        .map(|ch| Cpx {
            re: f64::from_le_bytes(ch[..8].try_into().unwrap()),
            im: f64::from_le_bytes(ch[8..].try_into().unwrap()),
        })
        .collect()
}

/// The simulator's makespan for `plan` on `n` ranks of `block`-byte
/// blocks under the SP-1 linear model: the programs `alltoall` ran.
fn virtual_time(plan: &IndexPlan, n: usize, block: usize) -> f64 {
    let lower = |rank| RankProgram::lower(plan, n, rank, block, 1).expect("lowerable");
    let programs: Vec<RankProgram> = (0..n).map(lower).collect();
    let inputs = vec![vec![0; n * block]; n];
    let sim = simulate(&programs, &inputs, &LinearModel::sp1(), |_, _, _| {});
    sim.expect("the programs run").makespan()
}

fn main() {
    assert_eq!(R % P, 0);
    assert_eq!(C % P, 0);
    let rows_per = R / P;
    let cfg = ClusterConfig::new(P);
    let tuning = Tuning::builder().build();

    let out = Cluster::run(&cfg, |ep| {
        let p = ep.rank();
        // Step 1: my rows of the R×C view, column-major indexing:
        // element (r, c) is sample r + c·R.
        let mut rows: Vec<Vec<Cpx>> = (0..rows_per)
            .map(|lr| {
                let r = p * rows_per + lr;
                (0..C).map(|c| signal(r + c * R)).collect()
            })
            .collect();
        // Step 2: local C-point FFTs per row; Step 3: twiddle.
        for (lr, row) in rows.iter_mut().enumerate() {
            fft(row);
            let r = p * rows_per + lr;
            for (c, v) in row.iter_mut().enumerate() {
                *v = v.mul(w((r * c) as f64, N as f64));
            }
        }
        // Step 4: transpose via index. Block for processor q = my rows'
        // entries in q's column range, laid out (local row, col) —
        // exactly the matrix_transpose pattern.
        let cols_per = C / P;
        let block = rows_per * cols_per * 16;
        let mut sendbuf = Vec::with_capacity(P * block);
        for q in 0..P {
            for row in &rows {
                sendbuf.extend(encode(&row[q * cols_per..(q + 1) * cols_per]));
            }
        }
        let arrived = alltoall(ep, &sendbuf, block, &tuning)?;
        // Rebuild my transposed rows: transposed row = original column c
        // in [p·cols_per, (p+1)·cols_per); its entries come from all R
        // original rows.
        let mut trows: Vec<Vec<Cpx>> = vec![vec![Cpx::default(); R]; cols_per];
        for q in 0..P {
            let tile = decode(&arrived[q * block..(q + 1) * block]);
            for lr in 0..rows_per {
                for lc in 0..cols_per {
                    trows[lc][q * rows_per + lr] = tile[lr * cols_per + lc];
                }
            }
        }
        // Step 5: local R-point FFTs on transposed rows.
        for trow in &mut trows {
            fft(trow);
        }
        // Output element: X[c + k·C] = trows[c - p·cols_per][k] for my c.
        Ok((p, trows))
    })
    .expect("distributed FFT failed");

    // Sequential verification: direct DFT.
    let direct: Vec<Cpx> = (0..N)
        .map(|k| {
            (0..N).fold(Cpx::default(), |acc, t| {
                acc.add(signal(t).mul(w((k * t) as f64, N as f64)))
            })
        })
        .collect();
    let cols_per = C / P;
    let block = rows_per * cols_per * 16;
    let mut max_err = 0f64;
    for (p, trows) in &out.results {
        for (lc, trow) in trows.iter().enumerate() {
            let c = p * cols_per + lc;
            for (k, v) in trow.iter().enumerate() {
                // Four-step FFT output index mapping: X[c + k·C].
                let want = direct[c + k * C];
                max_err = max_err.max((v.re - want.re).abs().max((v.im - want.im).abs()));
            }
        }
    }
    assert!(max_err < 1e-8, "max error {max_err}");
    let c = out.metrics.global_complexity().expect("aligned rounds");
    println!("distributed {N}-point FFT over {P} processors (four-step, transpose via index)");
    println!("communication: {c} — one index operation total");
    println!("max |error| vs direct O(N²) DFT: {max_err:.2e} ✓");
    println!(
        "virtual time under SP-1 model: {:.1} µs",
        virtual_time(&tuning.chosen_plan(P, block, 1).plan, P, block) * 1e6
    );
}
