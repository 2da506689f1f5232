//! Seeded confinement violations (10 findings, all c5): two per primitive
//! family — threads, locks, atomics/`static mut`, channels,
//! `thread_local!` — plus one audited allow per family. Naming the
//! primitive is the violation; how it is used is never analysed (that is
//! why the rule cannot be argued with). Fixture input for the lint gate;
//! never compiled.

// Threads.
fn rogue_spawn(work: u64) -> u64 {
    let h = std::thread::spawn(move || work);
    drop(h);
    work
}

fn rogue_scope(work: u64) -> u64 {
    std::thread::scope(|s| drop(s));
    work
}

fn sanctioned_probe(work: u64) -> u64 {
    // vp-lint: allow(c5): fixture — a vouched one-off probe thread.
    let h = std::thread::spawn(move || work);
    drop(h);
    work
}

// Locks: the retired c2/c3 fixtures (lock-order cycles, blocking under a
// guard) start by naming a lock type — which is now the whole finding.
pub struct SharedTally {
    total: std::sync::Mutex<u64>,
}

fn wait_for_turn(gate: &std::sync::Condvar) {
    drop(gate);
}

pub struct VouchedTally {
    // vp-lint: allow(c5): fixture — a vouched lock that never nests.
    total: std::sync::RwLock<u64>,
}

// Atomics and mutable statics: the retired c1 fixture's `static mut`.
static mut POOL_TOTAL: u64 = 0;

fn bump(counter: &std::sync::atomic::AtomicU64) -> u64 {
    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

// vp-lint: allow(c5): fixture — a vouched statistics counter that publishes no other data.
static PROBES_SEEN: AtomicUsize = AtomicUsize::new(0);

// Channels: the retired c4 fixture (an arrival-order fold) needs a
// receiver, and a receiver needs `mpsc`.
fn arrival_fold(work: u64) -> u64 {
    let (tx, rx) = std::sync::mpsc::channel();
    drop(tx);
    let mut acc = work;
    while let Ok(got) = rx.recv() {
        acc = merge(acc, got);
    }
    acc
}

fn merge(a: u64, b: u64) -> u64 {
    a + b
}

fn bounded_handoff() -> u64 {
    let pair = mpsc::sync_channel::<u64>(1);
    drop(pair);
    0
}

fn vouched_handoff() -> u64 {
    // vp-lint: allow(c5): fixture — this channel carries shard-id-tagged results refolded later.
    let pair = mpsc::sync_channel::<u64>(1);
    drop(pair);
    0
}

// Thread-locals: per-thread state is shard-placement-dependent state.
thread_local! {
    static SCRATCH: u64 = 0;
}

thread_local!(static DEPTH: u64 = 0);

// vp-lint: allow(c5): fixture — a vouched per-thread scratch buffer that never feeds a result.
thread_local!(static VOUCHED: u64 = 0);

// `&'static mut` is a lifetime, not a mutable static: must not fire.
fn leak(slot: &'static mut u64) -> u64 {
    *slot
}
