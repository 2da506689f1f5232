//! Quality ablations of the design choices in DESIGN.md §6: prints the
//! verdict on each choice's claim, with the numbers it was judged on
//! (`vp_experiments::ablations`).
//!
//! Run with: `cargo run --release -p vp-experiments --bin ablations`

use vp_experiments::{hot_potato_splits, load_weighting, probe_order_burstiness, retry_coverage};

fn main() {
    for ablation in [
        probe_order_burstiness,
        hot_potato_splits,
        load_weighting,
        retry_coverage,
    ] {
        println!("{}", ablation());
    }
}
