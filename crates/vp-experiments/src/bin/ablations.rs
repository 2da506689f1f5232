//! Quality ablations of the design choices in DESIGN.md §6: prints what
//! each choice buys (`vp_experiments::ablations`) and whether the
//! documented claim holds.
//!
//! Run with: `cargo run --release -p vp-experiments --bin ablations`

use vp_experiments::ablations::{
    hot_potato_splits, load_weighting, probe_order_burstiness, retry_coverage, BURST_WINDOW,
};

fn verdict(claim: &str, holds: bool) {
    println!("  claim: {claim}: {}", if holds { "holds" } else { "VIOLATED" });
}

fn main() {
    println!("== ablation: probe ordering (burst of probes into one /16 per 256-probe window) ==");
    let b = probe_order_burstiness();
    let w = BURST_WINDOW;
    println!("  sequential (no permutation): worst burst {}/{w}", b.sequential);
    println!("  feistel:                     worst burst {}/{w}", b.feistel);
    println!("  lcg:                         worst burst {}/{w}", b.lcg);
    verdict("both permutations' worst burst is at most 1/10 of sequential", b.holds());
    println!();

    println!("== ablation: hot-potato per-PoP egress (AS catchment splits) ==");
    let h = hot_potato_splits();
    println!("  with hot-potato:    {} of {} ASes split", h.split, h.ases);
    println!(
        "  without hot-potato: 0 ASes split (true by construction: every PoP takes the AS-level route)"
    );
    verdict("hot-potato egress splits some AS", h.holds());
    println!();

    println!("== ablation: load weighting (prediction error at the first site) ==");
    let l = load_weighting();
    println!("  measured load split:      {:.1}%", l.actual * 100.0);
    for (label, p) in [("load-weighted", l.load_weighted), ("block-count", l.block_count)] {
        println!(
            "  {:<26}{:.1}%  (error {:.1} pp)",
            format!("{label} prediction:"),
            p * 100.0,
            (p - l.actual).abs() * 100.0
        );
    }
    verdict("load weighting predicts better than block counts", l.holds());
    println!();

    println!("== ablation: single probe vs one retry round (coverage under churn) ==");
    let r = retry_coverage();
    println!("  single round:  {} blocks mapped", r.single);
    println!(
        "  with retry:    {} blocks mapped (+{:.1}%)",
        r.with_retry,
        100.0 * (r.with_retry - r.single) as f64 / r.single as f64
    );
    println!("  (the paper sends a single probe per target and leaves retries as future work)");
    verdict("a retry round maps more blocks than one round", r.holds());
}
