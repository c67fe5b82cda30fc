//! The production solver, Fox's greedy, on dense tables across N and R.
//!
//! The paper picks Fox's greedy scheme over the asymptotically faster
//! alternatives it cites because N and R are modest; these rows time it at
//! those sizes.

use std::hint::black_box;

use streambal_bench::Micro;
use streambal_core::solver::{fox, Problem};

/// Deterministic pseudo-random monotone function over `0..=r`.
fn monotone_function(r: u32, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut f = Vec::with_capacity(r as usize + 1);
    let mut acc = 0.0;
    f.push(0.0);
    for _ in 0..r {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        acc += (state % 1000) as f64 / 1e6;
        f.push(acc);
    }
    f
}

fn main() {
    let m = Micro::new().measure_ms(500);
    println!("== solver ==");
    for &(n, r) in &[(4usize, 1000u32), (16, 1000), (64, 1000), (16, 100)] {
        let funcs: Vec<Vec<f64>> = (0..n).map(|j| monotone_function(r, j as u64)).collect();
        let slices: Vec<&[f64]> = funcs.iter().map(Vec::as_slice).collect();
        let problem = Problem::new(slices, r).unwrap();
        m.run(&format!("solver/fox/n{n}_r{r}"), || {
            fox::solve(black_box(&problem)).unwrap()
        });
    }
}
