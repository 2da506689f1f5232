//! DESIGN.md §17 witness: **zero steady-state heap allocations per
//! probe**, and a scan working set that is O(batch), not O(schedule).
//! A counting allocator wraps the system allocator for this test binary;
//! a scan over 10^5 hitlist blocks must
//!
//! * allocate orders of magnitude fewer times than it sends probes —
//!   every per-probe structure lives in pre-sized columns, reused batch
//!   buffers, zero-copy `Bytes` views, or amortized-doubling logs
//!   (O(log n) allocations per scan);
//! * keep its peak live heap under a per-probe ceiling — the round's
//!   columns (send times, kept observations, the result tables), never a
//!   queued schedule or a capture log.
//!
//! Holds for the K=1 round (`run_scan`) and at K=8 on real OS threads.
//! This measurement — with the repo benchmark — *is* the hot-path cost
//! contract: no static rule guesses at allocations any more, so the count
//! budget is pinned just above what a round measures, and a new
//! per-batch or per-probe allocation fails here.
//!
//! The same allocator witnesses the snapshot format (DESIGN.md §10)
//! without a clock: writing a round allocates a constant number of times,
//! loading one allocates O(log n) times and holds little more than its
//! text and its columns, at 30 000 and at 300 000 entries alike (a legacy
//! string-ordered round within the sort's ceilings), and the origins
//! sidecar, written and read by the same code, within a round's ceilings.
//! And the monitor that reads those
//! rounds forever holds a day of them: a week of rounds leaves its
//! `DriftTracker` no larger than a day did.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_macros,
    reason = "a counting global allocator keeps atomic and per-thread counters, and its tests take turns on one lock"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vp_experiments::bench_scenario_scaled;
use vp_hitlist::{Hitlist, HitlistConfig};
use vp_monitor::alert::AlertConfig;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::{load_origins, load_round_file, origins_to_json};
use vp_monitor::stream::DriftTracker;
use vp_sim::exec::ShardExecutor;
use vp_sim::{CatchmentOracle, FaultConfig, StaticOracle};
use verfploeter_suite::bgp::SiteId;
use verfploeter_suite::net::{Asn, Block24, SimTime};
use verfploeter_suite::vp::CatchmentMap;
use verfploeter_suite::vp::scan::{run_scan, run_scan_sharded_on, ScanConfig, ScanResult};

/// Counts every allocation and reallocation (each realloc of a doubling
/// log is one more allocation), and tracks live bytes with their peak,
/// process-wide and per thread.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Bytes this thread allocated minus bytes it freed: the live heap of
    /// single-threaded work, blind to what the test harness's other
    /// threads allocate meanwhile. Const-initialised and without a
    /// destructor, so the allocator can touch it without allocating.
    static THREAD_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// This thread's allocations, and the peak of its live bytes.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|t| t.set(t.get() + 1));
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    let here = THREAD_LIVE_BYTES.with(|t| {
        t.set(t.get() + bytes as i64);
        t.get()
    });
    THREAD_PEAK_BYTES.with(|p| p.set(p.get().max(here)));
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
    THREAD_LIVE_BYTES.with(|t| t.set(t.get() - bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator and returns its result; the counters are side tables that
// never influence a pointer or a layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TARGETS: usize = 100_000;

/// Allocations one 10^5-probe round may make: (serial, K=8 threaded).
/// Measured in release: 632 serial, the same every run, and 1 174–1 178 at
/// K=8 (thread spawn and channel setup vary by a handful; the executor
/// runs twice, once for the schedule's permutation chunks) — per-engine
/// setup (one route column, one probe stage, one pending-capture vector
/// and the doubling growth of one parked-arrival deque per engine among
/// it), plus O(log n) growth of the kept-observation column and of the
/// cleaner's duplicate side list. The budgets sit within 10 % above the
/// measurements: one more allocation per refill batch is
/// ~+98 per round and fails; one per probe is +100 000. Re-measure (the
/// test prints its counts) and re-pin when a change moves them on purpose.
const ALLOCS_PER_ROUND: (u64, u64) = (693, 1_225);

/// Peak live heap per probe a scan may add on top of what was live when
/// it started: (serial, K=8). Measured at this scale: 35 B/probe serial
/// and 42–58 B at K=8 (how many shards' columns are live at once is the
/// OS scheduler's choice), where eager injection peaked at 246 B and
/// 216 B — a queued event per probe plus the capture log and its copies.
/// An engine's probe stage (128 probes), pending captures (one probe's)
/// and parked arrivals (one delay window of the schedule, 48 bytes each)
/// are noise here. What remains is the round's own columns: 8 B send
/// time per probe, 16 B schedule slice per probe when sharded (paced from
/// a 4 B/probe permuted walk, freed chunk by chunk), 24 B per
/// kept observation (doubling slack included) and the result tables. The
/// ceilings sit at ~1.5× the measurements and under half the old figures.
const PEAK_BYTES_PER_PROBE: (u64, u64) = (55, 100);

/// The counters are process-wide and the test harness runs tests on
/// parallel threads: each test holds this for its whole body, so nothing
/// else allocates while it measures. A poisoned lock only means another
/// witness failed; this one still measures alone.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Measured<T> {
    result: T,
    allocs: u64,
    /// Peak live bytes above the level the measured work started from.
    peak_bytes: u64,
}

fn measured<T>(work: impl FnOnce() -> T) -> Measured<T> {
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live_before, Ordering::Relaxed);
    let result = work();
    Measured {
        result,
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs_before,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed) - live_before,
    }
}

/// [`measured`] for work that runs on the calling thread alone, counted
/// on that thread: blind to whatever the harness's other threads allocate
/// or free meanwhile.
fn measured_here<T>(work: impl FnOnce() -> T) -> Measured<T> {
    let allocs_before = THREAD_ALLOCS.with(Cell::get);
    let live_before = THREAD_LIVE_BYTES.with(Cell::get);
    THREAD_PEAK_BYTES.with(|p| p.set(live_before));
    let result = work();
    Measured {
        result,
        allocs: THREAD_ALLOCS.with(Cell::get) - allocs_before,
        peak_bytes: (THREAD_PEAK_BYTES.with(Cell::get) - live_before) as u64,
    }
}

/// The allocation-count budget only binds in release builds: the hot
/// paths carry `debug_assert!`s that deliberately recompute reply images
/// and checksum parts through allocating reference encoders, so a debug
/// run measures the asserts, not the steady state the contract is about.
/// Debug runs still execute both scans (exercising those asserts at 10^5
/// blocks).
fn assert_budget(kind: &str, m: &Measured<ScanResult>, allocs: u64, peak_bytes_per_probe: u64) {
    let probes = m.result.probes_sent;
    assert_eq!(probes, TARGETS as u64);
    // The memory gate holds in every build: it does not depend on what the
    // debug asserts allocate transiently.
    assert!(
        m.peak_bytes < probes * peak_bytes_per_probe,
        "{kind} scan peaked at {} live bytes for {probes} probes ({} B/probe, ceiling \
         {peak_bytes_per_probe}): an O(schedule) buffer crept back in",
        m.peak_bytes,
        m.peak_bytes / probes
    );
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        m.allocs <= allocs,
        "{kind} scan allocated {} times for {probes} probes \
         (budget {allocs}): a per-batch or per-probe allocation crept back in",
        m.allocs
    );
}

#[test]
fn steady_state_allocations_stay_sublinear_in_probes() {
    let _alone = alone();
    // World + hitlist construction may allocate freely: it is setup,
    // outside the measured round.
    let s = bench_scenario_scaled(33, TARGETS);
    let hl = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let table = s.routing();
    let config = ScanConfig::default();

    // Oracle construction is cold setup (it deep-copies the converged
    // routing table once); a round builds one oracle over that copy
    // through `StaticOracle::shared` and lends it to every engine, so
    // oracle setup inside the measured region is one refcount bump and
    // one box per round plus one borrowed-oracle box per engine.
    let shared_table = Arc::new(table.clone());

    // The K=1 round.
    let oracle = Box::new(StaticOracle::shared(shared_table.clone()));
    let serial = measured(|| {
        run_scan(
            &s.world,
            &hl,
            &s.announcement,
            oracle,
            FaultConfig::default(),
            SimTime::ZERO,
            &config,
            0xbe9c,
        )
    });
    assert_eq!(serial.result.obs.shard_probes.len(), 1);
    assert_budget("serial", &serial, ALLOCS_PER_ROUND.0, PEAK_BYTES_PER_PROBE.0);

    // K=8 on real OS threads through the blessed executor.
    let exec = ShardExecutor::new(8);
    let sharded = measured(|| {
        run_scan_sharded_on(
            &exec,
            &s.world,
            &hl,
            &s.announcement,
            &|| Box::new(StaticOracle::shared(shared_table.clone())) as Box<dyn CatchmentOracle>,
            FaultConfig::default(),
            SimTime::ZERO,
            &config,
            0xbe9c,
            8,
        )
    });
    assert_eq!(sharded.result.obs.shard_probes.len(), 8);
    assert_budget("K=8 threaded", &sharded, ALLOCS_PER_ROUND.1, PEAK_BYTES_PER_PROBE.1);
    eprintln!(
        "serial: {} allocations/round, {} B/probe peak; K=8: {} allocations/round, {} B/probe peak",
        serial.allocs,
        serial.peak_bytes / TARGETS as u64,
        sharded.allocs,
        sharded.peak_bytes / TARGETS as u64,
    );
}

/// A synthetic catchment round of `entries` blocks over nine sites. The
/// blocks straddle the 7-/8-digit boundary, so the round's legacy
/// document ([`legacy_json`]) is not in block order.
fn synthetic_round(entries: usize) -> CatchmentMap {
    const STRIDE: u32 = 29;
    let entries = entries as u32;
    let first = 10_000_000 - STRIDE * (entries / 4);
    let rows = (0..entries)
        .map(|i| first + STRIDE * i)
        .map(|b| (Block24(b), SiteId((b % 9) as u8)));
    CatchmentMap::from_pairs("synthetic/r0", rows)
}

/// `map` as round files were written before block order: through a
/// `Value::Object`, keys in string order.
fn legacy_json(map: &CatchmentMap) -> String {
    let entries: BTreeMap<Block24, SiteId> = map.iter().collect();
    serde_json::to_string(&serde_json::json!({ "name": map.name, "map": entries }))
        .expect("legacy round renders")
}

/// Allocations one block-ordered round-file load may make, at any size:
/// the file's text, the name and two columns grown by doubling
/// (2·log2 n): 37 at 300 000 entries. The tree-building reader made ~1.6
/// per entry.
const LOAD_ALLOCS: u64 = 40;

/// Live heap a block-ordered load may hold per entry on top of the
/// file's text: the two columns, 5 B an entry and under 10 B with
/// doubling slack (8.7 B at 300 000 entries).
const LOAD_BYTES_PER_ENTRY: u64 = 9;

/// The same two ceilings for a legacy string-ordered round, which also
/// pays the sort's exact-size second copy of the columns.
const LEGACY_LOAD_ALLOCS: u64 = 64;
const LEGACY_LOAD_BYTES_PER_ENTRY: u64 = 16;

/// Origins for [`synthetic_round`]'s blocks.
fn synthetic_origins(entries: usize) -> Origins {
    let round = synthetic_round(entries);
    round.iter().map(|(block, _)| (block, Asn(block.0 % 4_000))).collect()
}

/// Live heap a 30 000-entry sidecar load may hold per entry on top of
/// the file's text: its two columns, 8 B an entry grown by doubling to
/// 32 768 rows (8.7 B measured).
const SIDECAR_LOAD_BYTES_PER_ENTRY: u64 = 9;

/// Writes `text` to a file, loads it back with `load` as `want`, and
/// holds the load to `allocs` allocations and text + `bytes_per_entry`
/// of live heap.
fn witness_load<T: PartialEq + std::fmt::Debug>(
    kind: &str,
    (want, entries): (&T, usize),
    text: &str,
    (allocs, bytes_per_entry): (u64, u64),
    load: fn(&std::path::Path) -> Result<T, String>,
) {
    let entries = entries as u64;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("vp-alloc-witness-{kind}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create witness dir");
    let path = dir.join(format!("{entries}.json"));
    std::fs::write(&path, text).expect("write the file");
    let load = measured_here(|| load(&path).expect("the file loads"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(&load.result, want);
    eprintln!(
        "{kind}, {entries} entries: {} allocations, peak {} B = text + {} B/entry",
        load.allocs,
        load.peak_bytes,
        load.peak_bytes.saturating_sub(text.len() as u64) / entries
    );
    assert!(
        load.allocs <= allocs,
        "{kind}: loading {entries} entries allocated {} times (budget {allocs}): \
         a per-entry allocation crept back in",
        load.allocs
    );
    assert!(
        load.peak_bytes <= text.len() as u64 + bytes_per_entry * entries,
        "{kind}: loading {entries} entries peaked at {} live bytes for {} bytes of text \
         (ceiling: text + {bytes_per_entry} B/entry): an intermediate copy crept back in",
        load.peak_bytes,
        text.len()
    );
}

#[test]
fn snapshot_ingest_allocates_logarithmically_and_holds_text_plus_columns() {
    let _alone = alone();
    for entries in [30_000, 300_000] {
        let map = synthetic_round(entries);
        let ceilings = (LOAD_ALLOCS, LOAD_BYTES_PER_ENTRY);
        witness_load("block order", (&map, entries), &map.to_json(), ceilings, load_round_file);
    }
    // The sidecar is a block column written in block order too, so it
    // loads within a round file's allocation ceiling.
    let origins = synthetic_origins(30_000);
    let (text, ceilings) = (origins_to_json(&origins), (LOAD_ALLOCS, SIDECAR_LOAD_BYTES_PER_ENTRY));
    witness_load("origins sidecar", (&origins, origins.len()), &text, ceilings, load_origins);
}

/// A round written before block order still loads within the ceilings
/// that held when every round went through the sort.
#[test]
fn legacy_string_ordered_ingest_stays_within_the_sort_ceilings() {
    let _alone = alone();
    for entries in [30_000, 300_000] {
        let map = synthetic_round(entries);
        let text = legacy_json(&map);
        assert_ne!(text, map.to_json(), "the legacy document is out of block order");
        let ceilings = (LEGACY_LOAD_ALLOCS, LEGACY_LOAD_BYTES_PER_ENTRY);
        witness_load("string order", (&map, entries), &text, ceilings, load_round_file);
    }
}

/// Allocations [`CatchmentMap::to_json`] may make at any size: the
/// escaped name (three) and the one string sized for the whole document.
const WRITE_ALLOCS: u64 = 4;

/// Allocations [`origins_to_json`] may make at any size: the one string.
const SIDECAR_WRITE_ALLOCS: u64 = 1;

/// Writing a round or a sidecar streams its columns into one pre-sized
/// string: a constant number of allocations, where a `String` or `Value`
/// per entry made two or more per entry.
#[test]
fn snapshot_write_allocates_a_constant_number_of_times() {
    let _alone = alone();
    let map = synthetic_round(300_000);
    let origins = synthetic_origins(300_000);
    let writes = [
        ("round", measured_here(|| map.to_json()), WRITE_ALLOCS),
        ("origins sidecar", measured_here(|| origins_to_json(&origins)), SIDECAR_WRITE_ALLOCS),
    ];
    for (kind, write, budget) in writes {
        eprintln!(
            "writing a {kind} of 300000 entries: {} allocations, peak {} B for {} B of text",
            write.allocs,
            write.peak_bytes,
            write.result.len()
        );
        assert!(
            write.allocs <= budget,
            "writing a {kind} of 300000 entries allocated {} times (budget {budget})",
            write.allocs
        );
        assert_eq!(write.result.capacity(), write.result.len(), "the {kind} string was sized exactly");
    }
}

/// Blocks of each drifting round.
const BLOCKS: u32 = 256;

/// Round `r` of a drifting stream over [`BLOCKS`] blocks: every other round a
/// quarter of them move site and, every fourth, another quarter stops
/// answering, so flips, share moves and coverage drops fire and clear
/// alerts all through the stream.
fn drifting_round(r: u32) -> CatchmentMap {
    let phase = (r / 2) % 2;
    let rows = (0..BLOCKS).filter_map(|b| match b % 4 {
        0 => Some((Block24(b), SiteId(phase as u8))),
        1 if phase == 1 => None,
        _ => Some((Block24(b), SiteId((b % 3) as u8))),
    });
    CatchmentMap::from_pairs(&format!("drift/r{r}"), rows)
}

/// Rounds in a day and a week of the paper's 15-minute cadence.
const DAY: u32 = 96;
const WEEK: u32 = 7 * DAY;

#[test]
fn a_week_of_rounds_holds_what_a_day_does() {
    let _alone = alone();
    let origins: Origins = (0..BLOCKS).map(|b| (Block24(b), Asn(64_500 + b % 16))).collect();
    let config = AlertConfig {
        trigger_rounds: 1,
        clear_rounds: 1,
        ..AlertConfig::default()
    };
    // The tracker runs on this thread alone, so this thread's count is
    // all of its heap and none of the harness's.
    let live = || THREAD_LIVE_BYTES.with(Cell::get);
    let before = live();
    let map_bytes = {
        let map = drifting_round(0);
        let bytes = live() - before;
        drop(map);
        bytes
    };
    let mut tracker = DriftTracker::new(config, 8, Some(origins));
    let mut feed = |rounds: std::ops::Range<u32>| {
        for r in rounds {
            tracker.observe_round(drifting_round(r), None);
        }
        live() - before
    };
    let day = feed(0..DAY);
    let week = feed(DAY..WEEK);
    assert!(tracker.summary().flips_by_as.len() > 1, "the stream must attribute flips");
    assert!(tracker.transitions().len() > 1, "the stream must fire and clear alerts");
    eprintln!("tracker: {day} B live after a day, {week} B after a week; one map {map_bytes} B");
    assert!(
        week <= day + map_bytes,
        "a week of rounds holds {week} live bytes, a day {day} (+ one map: {map_bytes}): \
         a history outgrew its tail"
    );
}
