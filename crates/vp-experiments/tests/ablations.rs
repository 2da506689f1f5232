//! The claims DESIGN.md §6 makes for its ablations, checked on the
//! verdicts `vp_experiments::ablations` computes (the `ablations` binary
//! prints the same verdicts). The Feistel-vs-LCG comparison is not a claim
//! here: on this world the LCG's worst burst is the lower one
//! (EXPERIMENTS.md).

use vp_experiments::{hot_potato_splits, load_weighting, probe_order_burstiness, retry_coverage};

#[test]
fn both_permutations_keep_bursts_far_below_sequential_order() {
    let v = probe_order_burstiness();
    assert!(v.holds, "{v}");
}

#[test]
fn hot_potato_egress_splits_some_ases() {
    let v = hot_potato_splits();
    assert!(v.holds, "{v}");
}

#[test]
fn load_weighting_beats_block_counts() {
    let v = load_weighting();
    assert!(v.holds, "{v}");
}

#[test]
fn a_retry_round_maps_more_blocks() {
    let v = retry_coverage();
    assert!(v.holds, "{v}");
}
