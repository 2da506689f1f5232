//! The repo's benchmark harness (see `benchmark/README.md`).
//!
//! Times scan, daemon and replay rounds **from outside**: every span is
//! recorded in this binary's own files around calls into public entry
//! points; no crate under `crates/` or `vendor/` is instrumented for it.
//!
//! ```text
//! vp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//! vp-benchmark [--runs <n>] [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
//!     every workload, each in a child process, into one results file
//! vp-benchmark --compare <a.json> <b.json>
//!     verdict per workload and end-to-end metric, by BENCHMARK.json's bounds
//! ```
//!
//! Every file of the harness sits under `src/bin/`: this is a binary that
//! reads wall clocks by design (lint rules d2/d4), confined to
//! [`host::WallClock::start`] and [`argv`].

mod alloc;
mod compare;
mod daemon;
mod digest;
mod host;
mod replay;
mod run;
mod scan;
mod spec;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// World seed when none is given: `bench_scan`'s.
const DEFAULT_SEED: u64 = 33;
/// Measuring time per run when none is given: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 20;

fn argv() -> Vec<String> {
    // vp-lint: allow(d2): the CLI reads its own argv; arguments select the workload, seed and output paths, never a simulated result.
    std::env::args().collect()
}

/// Parsed command line. Flags may come in any order.
#[derive(Debug, Clone)]
pub struct Options {
    /// Path this executable was started as, for spawning children.
    pub exe: String,
    pub out_dir: PathBuf,
    pub spec: PathBuf,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub runs: usize,
    pub out: Option<PathBuf>,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub prepare_replay: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        exe: args.first().cloned().ok_or("empty argv")?,
        out_dir: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        compare: None,
        prepare_replay: None,
    };
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag} wants a number, got {v:?}"))
        }
        match flag.as_str() {
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            "--spec" => o.spec = PathBuf::from(value()?),
            "--workload" => {
                let w = value()?;
                if !spec::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (one of {:?})",
                        spec::WORKLOADS
                    ));
                }
                o.workload = Some(w);
            }
            "--seed" => o.seed = number(flag, value()?)?,
            "--seconds" => o.seconds = number(flag, value()?)?,
            "--runs" => o.runs = number::<usize>(flag, value()?)?.max(1),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--compare" => o.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--prepare-replay" => o.prepare_replay = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse(&argv()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(dir) = &opts.prepare_replay {
        replay::prepare(dir, opts.seed, opts.quick, &host::WallClock::start()).map(|()| true)
    } else if let Some((a, b)) = &opts.compare {
        compare::run(a, b, &opts.spec)
    } else if opts.workload.is_some() {
        run::run(&opts)
    } else {
        suite::run(&opts)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
