//! What the harness reads from the host: wall time, process CPU time,
//! resident memory, core count and a fixed calibration kernel.

use std::time::Instant;

use vp_obs::Clock;

/// The harness's one wall clock: nanoseconds since the process started
/// measuring. Shared (behind an `Arc`) with the scan's wall flight channel
/// so spans recorded inside `run_scan` and spans recorded around it are on
/// one timeline.
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    pub fn start() -> WallClock {
        WallClock {
            // vp-lint: allow(d2): timing real work is what a benchmark is for; wall time reaches only benchmark metrics, and every simulated output is digest-checked to be independent of it.
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of this process, all threads (running and
/// exited), in nanoseconds. `/proc/self/stat` reports the same quantity in
/// 10 ms ticks, too coarse to bracket a 20 ms round; the clock behind it
/// is read directly instead.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the cfg above pins) and the call
    // writes nothing else; libc is already linked by std.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
        * 1024
}

/// Peak resident set size of this process so far (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Current resident set size (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed integer/memory kernel — a dependent pseudo-random walk over a
/// 8 MiB table — timed so that runs on different hosts can be related.
/// Best of three, in nanoseconds.
pub fn calibration_ns(clock: &WallClock) -> u64 {
    const WORDS: usize = 1 << 20;
    const STEPS: usize = 1 << 20;
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut best = u64::MAX;
    for _ in 0..3 {
        let t0 = clock.now_nanos();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..STEPS {
            let slot = &mut table[(x >> 44) as usize % WORDS];
            x = (x ^ *slot)
                .wrapping_mul(0x0000_0100_0000_01b3)
                .rotate_left(17);
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(x);
        best = best.min(clock.now_nanos() - t0);
    }
    std::hint::black_box(&table);
    best
}
