//! Seeded violations: every rule must fire on this file (18 findings:
//! 4×d1, 4×d2, 1×d3, 2×d4, 5×h1, 2×h2). Note d4 is file-scoped:
//! once `LeakyWallClock` makes this a Clock-implementing file, *every*
//! wall-time read in it fires d4 — including `entropy()`'s SystemTime.
//! This file is fixture input for the lint gate; it is never compiled.

use std::collections::HashMap; // d1
use std::collections::HashSet; // d1

pub struct Counters {
    pub a: u64,
}

impl Counters {
    // No merge-tested marker and no matching test name anywhere: d3.
    pub fn merge(&mut self, other: &Counters) {
        self.a += other.a;
    }
}

pub fn narrowing(x: u64, y: usize) -> u32 {
    let a = x as u32; // h1
    let b = y as u16; // h1
    let c = x as f32; // h1
    (a + b as u32) + c as u32 // h1 twice
}

pub fn entropy(map: &HashMap<u32, u32>) -> u64 {
    // d1 fired on the signature above; three d2 findings below.
    let _ = std::time::SystemTime::now(); // d2 (+ d4, see module doc)
    let _ = std::env::var("SEED"); // d2
    let r = thread_rng(); // d2
    let _ = map.len();
    r
}

pub fn panics(v: Option<u32>, s: &HashSet<u32>) -> u32 {
    // d1 fired on the signature; two h2 findings below.
    let a = v.unwrap(); // h2
    let b = s.get(&a).copied().expect("present"); // h2
    a + b
}

pub struct LeakyWallClock;

impl Clock for LeakyWallClock {
    // A wall-time read in a library file that implements Clock fires both
    // d2 (ambient time) and d4 (wall-backed clocks belong in binaries).
    fn now_nanos(&self) -> u64 {
        std::time::Instant::now().elapsed().as_nanos() as u64 // d2 + d4
    }
}
