//! The optimization layer in isolation: build predictive functions by hand,
//! solve the minimax allocation with Fox's greedy, and print the allocation
//! and its objective — a worked §5.2 example.
//!
//! Run with: `cargo run --release --example solver_playground`

use streambal::core::function::BlockingRateFunction;
use streambal::core::solver::{fox, Problem};

fn main() {
    // Three connections with the paper's Figure 7 shapes:
    //  - "light":  no blocking until ~55% of the load, then gentle;
    //  - "medium": no blocking until ~30%, then moderate;
    //  - "severe": blocking from the very first permille.
    let mut light = BlockingRateFunction::new(1000, 0.5);
    light.observe(550, 0.01);
    light.observe(700, 0.12);
    light.observe(900, 0.55);

    let mut medium = BlockingRateFunction::new(1000, 0.5);
    medium.observe(300, 0.02);
    medium.observe(500, 0.30);
    medium.observe(800, 0.90);

    let mut severe = BlockingRateFunction::new(1000, 0.5);
    severe.observe(10, 0.40);
    severe.observe(50, 0.95);

    println!("predicted blocking rates (weight: light / medium / severe):");
    for w in [0u32, 100, 300, 550, 800, 1000] {
        println!(
            "  {w:>4}:  {:.3} / {:.3} / {:.3}",
            light.value(w),
            medium.value(w),
            severe.value(w)
        );
    }

    let functions = [light.predicted(), medium.predicted(), severe.predicted()];
    let slices: Vec<&[f64]> = functions.iter().map(Vec::as_slice).collect();
    let problem = Problem::new(slices, 1000).expect("valid problem");

    let allocation = fox::solve(&problem).expect("feasible");
    println!(
        "\nminimax allocation (light / medium / severe -> objective):\n  \
         {:>4} / {:>4} / {:>4}  ->  {:.4}",
        allocation.weights[0], allocation.weights[1], allocation.weights[2], allocation.objective
    );
    println!(
        "\nthe severe connection is pushed to a token allocation while light\n\
         absorbs the bulk — the paper's 'minimize the blocking of the weakest\n\
         link' in action."
    );
}
