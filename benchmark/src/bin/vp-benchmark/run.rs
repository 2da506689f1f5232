//! One workload in this process: set-up, warm-up, the untraced phase, the
//! traced phase when asked for, the reference checks, then the report.
//!
//! A process measures one workload only, so `VmHWM` is that workload's
//! peak and nothing else's.

use std::sync::Arc;

use serde_json::json;
use vp_obs::Clock;

use crate::daemon::DaemonLive;
use crate::host::{self, WallClock};
use crate::replay::{Replay, Snapshots};
use crate::scan::Scan;
use crate::spec::{self, Metrics, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::{run_phase, Phase, Round, Workload};
use crate::{alloc, digest, Options};

/// Set-up is repeated (fresh each time, the median reported) until this
/// much time has gone into it or [`MAX_SETUP_REPS`] are in: a 10 ms set-up
/// is sampled 25 times, a two-second one twice.
const SETUP_BUDGET_NS: u64 = 2_000_000_000;
const MAX_SETUP_REPS: usize = 25;
/// Share of the measuring time a `--trace 1` run spends untraced, to have
/// the base of `trace.overhead_ratio` from the same process.
const UNTRACED_SHARE_OF_TRACE_RUN: u64 = 3;

/// Layer metrics read off the trace: `(metric, span, self time only)`.
const SPAN_LAYERS: [(&str, &str, bool); 14] = [
    ("scan.run_scan_s", "scan.run_scan", false),
    ("scan.result_drop_s", "scan.result_drop", false),
    ("scan.schedule_walk_s", "scan.schedule_walk", false),
    ("scan.sim_dispatch_s", "scan.sim_dispatch", false),
    ("scan.cleaning_s", "scan.cleaning", false),
    ("scan.catchment_build_s", "scan.catchment_build", false),
    // What `scan.round` does itself: the collector's split and forward.
    ("scan.round_self_s", "scan.round", true),
    // What `run_scan` does outside its round: simulator construction and
    // the observability snapshot.
    ("scan.outside_round_s", "scan.run_scan", true),
    ("daemon.run_round_s", "daemon.run_round", false),
    ("daemon.status_doc_s", "daemon.status_doc", false),
    ("daemon.scrape_s", "daemon.scrape", false),
    ("daemon.publish_write_s", "daemon.publish_write", false),
    ("ingest.load_round_file_s", "ingest.load_round_file", false),
    ("monitor.observe_round_s", "monitor.observe_round", false),
];

fn build(
    workload: &str,
    opts: &Options,
    clock: &Arc<WallClock>,
    snapshots: Option<&Snapshots>,
    setup: &mut Metrics,
) -> Result<Box<dyn Workload>, String> {
    Ok(match (workload, snapshots) {
        ("daemon-live", _) => Box::new(DaemonLive::setup(opts, clock, setup)),
        ("monitor-replay", Some(s)) => Box::new(Replay::setup(s, clock, setup)?),
        ("monitor-replay", None) => return Err("monitor-replay without snapshots".to_owned()),
        _ => Box::new(Scan::setup(workload, opts, clock, setup)),
    })
}

/// Median of each set-up component over the repetitions.
fn median_setup(reps: &[Metrics]) -> Metrics {
    let mut names: Vec<&'static str> = reps.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let xs: Vec<f64> = reps.iter().filter_map(|m| m.get(name).copied()).collect();
            (name, stats::median(&xs))
        })
        .collect()
}

/// Everything one run found out.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Untraced measured rounds behind the timing metrics.
    pub samples: usize,
    pub traced_rounds: usize,
    pub setup_reps: usize,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// The untraced phase, round by round, for the detail file.
    pub untraced: Phase,
}

impl Report {
    /// How many samples a printed metric summarises: set-up repetitions,
    /// traced rounds, untraced rounds, or a single reading.
    fn samples_behind(&self, metric: &str) -> usize {
        const SETUP: [&str; 6] = [
            "setup_s",
            "topology.generate_s",
            "hitlist.build_s",
            "bgp.route_s",
            "daemon.new_s",
            "ingest.load_origins_s",
        ];
        const ROUNDS: [&str; 3] = ["ns_per_block", "blocks_per_s", "cpu_ns_per_block"];
        if SETUP.contains(&metric) {
            self.setup_reps
        } else if SPAN_LAYERS.iter().any(|(m, _, _)| *m == metric) || metric.starts_with("alloc.") {
            self.traced_rounds
        } else if ROUNDS.contains(&metric) || metric.starts_with("round.") {
            self.samples
        } else {
            1
        }
    }
}

/// The per-layer metrics of a `--trace 1` run, from the untraced phase
/// (tails, throughput, the overhead ratio's base), the traced phase's spans
/// and allocator counts, and the workload's own counts.
fn layer_metrics(
    w: &dyn Workload,
    untraced: &Phase,
    traced: &Phase,
    spans: &[trace::Span],
    allocs: alloc::AllocStats,
    m: &mut Metrics,
) {
    let ns_per_block = untraced.ns_per_block();
    m.insert("round.samples", ns_per_block.len() as f64);
    m.insert("round.median_ns_per_block", stats::median(&ns_per_block));
    m.insert("round.max_ns_per_block", stats::max(&ns_per_block));
    if let Some(p) = stats::tail_percentile(ns_per_block.len()) {
        m.insert("round.tail_percentile", p);
        m.insert(
            "round.tail_ns_per_block",
            stats::percentile(&ns_per_block, p),
        );
    }
    // Mean-based, so stragglers count.
    m.insert(
        "blocks_per_s",
        untraced.blocks() as f64 / (untraced.wall_ns().max(1) as f64 / 1e9),
    );
    m.insert(
        "trace.overhead_ratio",
        stats::fast_decile(&traced.ns_per_block()) / stats::fast_decile(&ns_per_block),
    );

    let by_span = trace::per_round(spans);
    for (metric, span, self_only) in SPAN_LAYERS {
        if let Some(rounds) = by_span.get(span) {
            let ns: Vec<f64> = rounds
                .values()
                .map(|(total, own)| if self_only { *own } else { *total } as f64)
                .collect();
            m.insert(metric, stats::fast_decile(&ns) / 1e9);
        }
    }

    let traced_blocks = traced.blocks().max(1) as f64;
    let round_blocks = traced.rounds.first().map_or(1, |r| r.blocks.max(1)) as f64;
    m.insert("alloc.count_per_block", allocs.count as f64 / traced_blocks);
    m.insert("alloc.bytes_per_block", allocs.bytes as f64 / traced_blocks);
    m.insert(
        "alloc.peak_live_bytes_per_block",
        allocs.peak_live_bytes as f64 / round_blocks,
    );

    w.layer_metrics(untraced, m);
    let of = |m: &Metrics, k: &str| m.get(k).copied().filter(|v| *v > 0.0);
    if let (Some(events), Some(s)) = (of(m, "sim.events"), of(m, "scan.sim_dispatch_s")) {
        m.insert("engine.events_per_s", events / s);
    }
    if let (Some(bytes), Some(s)) = (
        of(m, "ingest.bytes_per_round"),
        of(m, "ingest.load_round_file_s"),
    ) {
        m.insert("ingest.mib_per_s", bytes / s / (1u64 << 20) as f64);
    }
}

fn measure(opts: &Options, workload: &str) -> Result<Report, String> {
    let clock = Arc::new(WallClock::start());
    let mut tracer = Tracer::new(clock.clone());
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let mut m = Metrics::new();

    // The harness's own preparation: not the system's set-up.
    let mut snapshots = None;
    if workload == "monitor-replay" {
        let t0 = clock.now_nanos();
        snapshots = Some(Snapshots::make(opts)?);
        m.insert("harness.prep_s", (clock.now_nanos() - t0) as f64 / 1e9);
    }

    // Set-up, fresh each time; the last instance is the one measured.
    let mut setups: Vec<Metrics> = Vec::new();
    let mut instance: Option<Box<dyn Workload>> = None;
    let setup_start = clock.now_nanos();
    while setups.len() < MAX_SETUP_REPS
        && (setups.is_empty() || clock.now_nanos() - setup_start < SETUP_BUDGET_NS)
    {
        drop(instance.take());
        let mut setup = Metrics::new();
        instance = Some(build(
            workload,
            opts,
            &clock,
            snapshots.as_ref(),
            &mut setup,
        )?);
        setups.push(setup);
    }
    let mut w = instance.ok_or("no set-up ran")?;
    m.extend(median_setup(&setups));
    m.insert("setup.rss_bytes", host::rss_bytes() as f64);

    // `--quick`: exactly two rounds a phase, whatever the clock says.
    let (budget_ns, min_rounds) = if opts.quick {
        (0, 2)
    } else {
        (opts.seconds * 1_000_000_000, w.min_rounds())
    };
    let untraced_budget_ns = if opts.trace {
        budget_ns / UNTRACED_SHARE_OF_TRACE_RUN
    } else {
        budget_ns
    };
    let untraced_min = if opts.trace {
        min_rounds.min(2)
    } else {
        min_rounds
    };
    let warmup_rounds = w.warmup_rounds();
    let warmup = run_phase(w.as_mut(), &mut tracer, &clock, 0, warmup_rounds);
    let untraced = run_phase(
        w.as_mut(),
        &mut tracer,
        &clock,
        untraced_budget_ns,
        untraced_min,
    );
    // Before the traced phase and the reference checks can raise it.
    let peak_rss = host::peak_rss_bytes();

    let mut traced = Phase::default();
    let mut allocs = alloc::AllocStats::default();
    if opts.trace {
        tracer.set_enabled(true);
        alloc::set_counting(true);
        let budget = budget_ns - untraced_budget_ns;
        traced = run_phase(w.as_mut(), &mut tracer, &clock, budget, min_rounds);
        alloc::set_counting(false);
        allocs = alloc::stats();
        tracer.set_enabled(false);
    }

    let failures = w.verify();
    let phases = [&warmup, &untraced, &traced];
    let rounds: u64 = phases.iter().map(|p| p.rounds.len() as u64).sum();
    let failed_rounds: u64 = phases.iter().map(|p| p.failed()).sum();
    // A failed reference check is one more operation, and a failed one.
    let attempted = rounds + failures.len() as u64;
    let failed = failed_rounds + failures.len() as u64;

    if opts.trace {
        let mismatches: u64 = phases.iter().map(|p| p.mismatches()).sum();
        m.insert("error_rate", failed as f64 / attempted.max(1) as f64);
        m.insert("output_mismatch", mismatches as f64);
        m.insert("host.nproc", host::nproc() as f64);
        m.insert("host.calibration_ns", host::calibration_ns(&clock) as f64);
        layer_metrics(
            w.as_ref(),
            &untraced,
            &traced,
            tracer.spans(),
            allocs,
            &mut m,
        );
        let path = opts.out_dir.join(format!("trace-{workload}.json"));
        let text = serde_json::to_string(&trace::to_json(workload, tracer.spans()))
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans over {} rounds -> {} (worst child overrun {:.4}% of its parent)",
            tracer.spans().len(),
            traced.rounds.len(),
            path.display(),
            trace::worst_overrun(tracer.spans()) * 100.0
        );
    } else {
        let round_blocks = untraced.rounds.first().map_or(1, |r| r.blocks.max(1)) as f64;
        m.insert("ns_per_block", stats::fast_decile(&untraced.ns_per_block()));
        m.insert(
            "cpu_ns_per_block",
            stats::fast_decile(&untraced.cpu_ns_per_block()),
        );
        m.insert("rss_bytes_per_block", peak_rss as f64 / round_blocks);
    }

    Ok(Report {
        attempted,
        failed,
        digest: w.output_digest(),
        samples: untraced.rounds.len(),
        traced_rounds: traced.rounds.len(),
        setup_reps: setups.len(),
        failures,
        metrics: m,
        untraced,
    })
}

/// Runs `--workload`, prints every metric by name with its unit and sample
/// count, writes the run's detail file, and ends with the one-line result
/// the benchmark contract asks for.
pub fn run(opts: &Options) -> Result<bool, String> {
    let workload = opts.workload.as_deref().ok_or("no --workload")?;
    let report = measure(opts, workload)?;
    let defs: &[spec::MetricDef] = if opts.trace { &PER_LAYER } else { &END_TO_END };

    println!(
        "{workload}: seed {} {}s trace {} {}- {} rounds measured, set-up x{}, digest {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick {
            "QUICK (not comparable) "
        } else {
            ""
        },
        report.samples,
        report.setup_reps,
        digest::hex(report.digest),
    );
    for d in defs {
        // A layer this workload does not exercise is absent (0 in the JSON).
        let Some(v) = report.metrics.get(d.name).copied() else {
            println!("  {:<34} {:>18} {:<6}", d.name, "absent", d.unit);
            continue;
        };
        let n = report.samples_behind(d.name);
        let v = if v != 0.0 && v.abs() < 1e-3 {
            format!("{v:.3e}")
        } else {
            format!("{v:.6}")
        };
        println!("  {:<34} {v:>18} {:<6} n={n}", d.name, d.unit);
    }
    for f in &report.failures {
        println!("  FAILED CHECK: {f}");
    }

    let metrics = spec::render(defs, &report.metrics);
    // Round by round, so a later comparison can look at distributions.
    let column =
        |f: fn(&Round) -> u64| -> Vec<u64> { report.untraced.rounds.iter().map(f).collect() };
    let detail = json!({
        "workload": workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "comparable": !opts.quick,
        "output_digest": digest::hex(report.digest),
        "samples": report.samples,
        "attempted": report.attempted,
        "failed": report.failed,
        "failures": report.failures,
        "metrics": metrics,
        "round_wall_ns": column(|r| r.wall_ns),
        "round_cpu_ns": column(|r| r.cpu_ns),
        "round_blocks": column(|r| r.blocks),
    });
    let path = opts
        .out_dir
        .join(format!("run-{workload}-trace{}.json", u8::from(opts.trace)));
    let text = serde_json::to_string_pretty(&detail).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;

    let result = json!({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(true)
}
