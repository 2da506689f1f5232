//! The claims DESIGN.md §6 makes for its ablations, checked on the numbers
//! `vp_experiments::ablations` computes (the `ablations` binary prints the
//! same numbers). The Feistel-vs-LCG comparison is not a claim here: on
//! this world the LCG's worst burst is the lower one (EXPERIMENTS.md).

use vp_experiments::ablations::{
    hot_potato_splits, load_weighting, probe_order_burstiness, retry_coverage,
};

#[test]
fn both_permutations_keep_bursts_far_below_sequential_order() {
    let b = probe_order_burstiness();
    assert!(b.holds(), "{b:?}");
}

#[test]
fn hot_potato_egress_splits_some_ases() {
    let h = hot_potato_splits();
    assert!(h.holds(), "{h:?}");
}

#[test]
fn load_weighting_beats_block_counts() {
    let l = load_weighting();
    assert!(l.holds(), "{l:?}");
}

#[test]
fn a_retry_round_maps_more_blocks() {
    let r = retry_coverage();
    assert!(r.holds(), "{r:?}");
}
