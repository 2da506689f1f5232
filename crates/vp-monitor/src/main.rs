//! The `vp-monitor` CLI: continuous catchment monitoring over vp-obs
//! artifacts.
//!
//! ```text
//! vp-monitor diff --rounds <dir> [--origins <file>] [--obs-report <file>]
//!                 [--source <name>] [--out <dir>]
//! vp-monitor watch --rounds <dir> [--origins <file>] [--obs-report <file>]
//!                  [--follow] [--until-rounds <n>] [--poll-ms <ms>]
//! vp-monitor validate <file|dir>...
//! vp-monitor profile <flight.json> [--top <n>] [--chrome <out.json>]
//! ```
//!
//! * `diff` runs the whole pipeline over a snapshot directory and writes
//!   the canonical `drift.json` + `alerts.json` under `--out` (printing
//!   the summary either way). Both commands number diffs from the
//!   directory's first round file: `r005.json` → `r006.json` is round 6.
//! * `watch` replays the same sequence round by round through the
//!   streaming [`DriftTracker`], printing each alert transition as it
//!   happens. With `--follow` it keeps polling the directory and ingests
//!   new round files as they land — tailing a live `vp_daemon
//!   --snapshots`-style producer — until `--until-rounds` rounds have
//!   been seen (or forever without it). A round that lands out of turn
//!   stops it with an error naming the file.
//! * Both refuse a round file holding a block the origins in use
//!   (`--origins`, else the sidecar) do not list, naming the file and the
//!   block: its flips would drop out of the per-AS attribution.
//! * `validate` checks any tagged document (obs report, drift, alert,
//!   daemon status, flight) against its embedded schema snapshot;
//!   directory arguments validate every `*.json` inside.
//! * `profile` renders the attribution report for a `vp-obs-flight/v2`
//!   document — per-phase self/total times, per-shard compute imbalance,
//!   critical-path estimate — and with `--chrome` also writes a
//!   chrome://tracing / Perfetto-loadable trace.

use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::ExitCode;

use vp_monitor::alert::AlertConfig;
use vp_monitor::diff::Origins;
use vp_monitor::ingest::{
    load_obs_report, load_origins, load_origins_sidecar, load_round_listed, load_rounds_dir,
    write_atomic, RoundTail,
};
use vp_monitor::run_diff_pipeline;
use vp_monitor::schema::validate_tagged;
use vp_monitor::stream::DriftTracker;
use vp_monitor::{parse_flight_doc, render_report};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vp-monitor <diff|watch|validate|profile> [options]\n\
         \n\
         diff     --rounds <dir> [--origins <file>] [--obs-report <file>]\n\
         \x20        [--source <name>] [--out <dir>]\n\
         watch    --rounds <dir> [--origins <file>] [--obs-report <file>]\n\
         \x20        [--follow] [--until-rounds <n>] [--poll-ms <ms>]\n\
         validate <file|dir>...\n\
         profile  <flight.json> [--top <n>] [--chrome <out.json>]"
    );
    ExitCode::from(2)
}

/// Options shared by `diff` and `watch` (the follow trio is watch-only;
/// `diff` rejects it).
struct DiffArgs {
    rounds: PathBuf,
    origins: Option<PathBuf>,
    obs_report: Option<PathBuf>,
    source: String,
    out: Option<PathBuf>,
    follow: bool,
    /// A count of rounds; zero is refused, as it would stop before any.
    until_rounds: Option<NonZeroU64>,
    poll_ms: u64,
}

fn parse_diff_args(args: &[String]) -> Result<DiffArgs, String> {
    let mut rounds = None;
    let mut origins = None;
    let mut obs_report = None;
    let mut source = None;
    let mut out = None;
    let mut follow = false;
    let mut until_rounds = None;
    let mut poll_ms = 500u64;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} wants a value", args[i]))
        };
        match args[i].as_str() {
            "--follow" => {
                follow = true;
                i += 1;
                continue;
            }
            "--rounds" => rounds = Some(PathBuf::from(value(i)?)),
            "--origins" => origins = Some(PathBuf::from(value(i)?)),
            "--obs-report" => obs_report = Some(PathBuf::from(value(i)?)),
            "--source" => source = Some(value(i)?.clone()),
            "--out" => out = Some(PathBuf::from(value(i)?)),
            "--until-rounds" => {
                let v = value(i)?;
                until_rounds = Some(v.parse().map_err(|e| format!("--until-rounds {v:?}: {e}"))?);
            }
            "--poll-ms" => {
                poll_ms = value(i)?.parse().map_err(|e| format!("--poll-ms: {e}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let rounds = rounds.ok_or("--rounds is required")?;
    let source = source.unwrap_or_else(|| {
        rounds
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "rounds".to_owned())
    });
    Ok(DiffArgs {
        rounds,
        origins,
        obs_report,
        source,
        out,
        follow,
        until_rounds,
        poll_ms,
    })
}

/// What a diff/watch run reads besides the rounds: the origins (a file,
/// else the rounds directory's sidecar) and the per-round scan durations.
type Context = (Option<Origins>, Option<BTreeMap<u32, u64>>);

fn load_context(args: &DiffArgs) -> Result<Context, String> {
    let origins = match &args.origins {
        Some(path) => Some(load_origins(path)?),
        None => load_origins_sidecar(&args.rounds)?,
    };
    let durations = match &args.obs_report {
        Some(path) => Some(load_obs_report(path)?.round_durations()),
        None => None,
    };
    Ok((origins, durations))
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_diff_args(args)?;
    if args.follow || args.until_rounds.is_some() {
        return Err("diff runs once over a complete directory; use watch --follow".to_owned());
    }
    let (origins, durations) = load_context(&args)?;
    let (first, rounds) = load_rounds_dir(&args.rounds, origins.as_ref())?;
    let out = run_diff_pipeline(
        &args.source,
        first,
        rounds,
        origins,
        durations.as_ref(),
        &AlertConfig::default(),
    );
    println!("{}", out.summary_text());
    for t in &out.transitions {
        println!("  {t}");
    }
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        for (name, doc) in [("drift.json", &out.drift_doc), ("alerts.json", &out.alert_doc)] {
            let path = dir.join(name);
            let text = serde_json::to_string_pretty(doc)
                .map_err(|e| format!("serialize {name}: {e}"))?;
            write_atomic(&path, &text)?;
            println!("wrote {}", path.display());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Rolling-window width for the watch tracker, matching the daemon's
/// default status windows.
const WATCH_WINDOW: usize = 8;

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_diff_args(args)?;
    if args.out.is_some() {
        return Err("watch does not write documents; use diff --out".to_owned());
    }
    // Origins and durations load once up front; round files stream.
    let (origins, durations) = load_context(&args)?;

    // The same streaming tracker the daemon publishes from, proven
    // byte-equal to the batch pipeline — so plain `watch` prints exactly
    // what `diff` computes, and `--follow` extends it to a live tail. It
    // starts at the first round file read, which fixes the numbering.
    let mut tracker: Option<DriftTracker> = None;
    let ingested = |t: &Option<DriftTracker>| t.as_ref().map_or(0, DriftTracker::rounds_ingested);
    let mut rounds = RoundTail::new(&args.rounds);
    'tail: loop {
        for (round, file) in rounds.poll()? {
            if args.until_rounds.is_some_and(|n| ingested(&tracker) >= n.get()) {
                break 'tail;
            }
            let map = load_round_listed(&file, origins.as_ref())?;
            let tracker = match &mut tracker {
                Some(tracker) => tracker,
                None => tracker.insert(DriftTracker::with_start_round(
                    AlertConfig::default(),
                    WATCH_WINDOW,
                    origins.clone(),
                    round,
                )),
            };
            let dur = durations
                .as_ref()
                .and_then(|m| m.get(&tracker.next_round()).copied());
            let step = tracker.observe_round(map, dur);
            if let Some(d) = &step.diff {
                println!(
                    "round {r}: {stable} stable, {flipped} flipped ({rate} permille), \
                     {to_nr} to-NR, {from_nr} from-NR, {blocks} blocks",
                    r = d.round,
                    stable = d.stable,
                    flipped = d.flipped,
                    rate = d.flip_rate_permille,
                    to_nr = d.to_nr,
                    from_nr = d.from_nr,
                    blocks = d.cur_blocks,
                );
            }
            for t in &step.transitions {
                println!("  ** {t}");
            }
        }
        let reached = args.until_rounds.is_some_and(|n| ingested(&tracker) >= n.get());
        if reached || !args.follow {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(args.poll_ms));
    }
    let Some(tracker) = tracker else {
        return Err(format!("no r*.json round files in {}", args.rounds.display()));
    };
    let alerts = tracker.alerts_snapshot();
    let active = alerts.iter().filter(|a| a.cleared_round.is_none()).count();
    println!("{} alerts listed (newest cleared + active), {active} still active", alerts.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("validate wants at least one file or directory".to_owned());
    }
    let mut failures = 0usize;
    for arg in args {
        let path = PathBuf::from(arg);
        // A directory argument means every *.json document inside it.
        let targets = if path.is_dir() {
            let entries = std::fs::read_dir(&path)
                .map_err(|e| format!("cannot read {arg}: {e}"))?;
            let mut files = Vec::new();
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read {arg}: {e}"))?;
                let p = entry.path();
                if p.extension().is_some_and(|ext| ext == "json") {
                    files.push(p);
                }
            }
            files.sort_unstable();
            if files.is_empty() {
                return Err(format!("{arg}: no *.json documents inside"));
            }
            files
        } else {
            vec![path]
        };
        for file in targets {
            let name = file.display().to_string();
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("cannot read {name}: {e}"))?;
            let doc =
                serde_json::from_str(&text).map_err(|e| format!("{name}: invalid JSON: {e}"))?;
            let errors = validate_tagged(&doc);
            if errors.is_empty() {
                println!("{name}: ok");
            } else {
                failures += 1;
                for e in &errors {
                    eprintln!("{name}: {e}");
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("validate: {failures} document(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(args: &[String]) -> Result<ExitCode, String> {
    let mut file = None;
    let mut top_n = 8usize;
    let mut chrome = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} wants a value", args[i]))
        };
        match args[i].as_str() {
            "--top" => {
                top_n = value(i)?.parse().map_err(|e| format!("--top: {e}"))?;
                i += 2;
            }
            "--chrome" => {
                chrome = Some(PathBuf::from(value(i)?));
                i += 2;
            }
            other if file.is_none() && !other.starts_with("--") => {
                file = Some(PathBuf::from(other));
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let file = file.ok_or("profile wants a flight document path")?;
    let name = file.display().to_string();
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("cannot read {name}: {e}"))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("{name}: invalid JSON: {e}"))?;
    // A document that fails its schema could still half-parse; refuse it
    // outright so the report never quietly elides fields.
    let errors = validate_tagged(&value);
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("{name}: {e}");
        }
        return Err(format!("{name}: not a valid vp-obs-flight/v2 document"));
    }
    let doc = parse_flight_doc(&value, &name)?;
    print!("{}", render_report(&doc, top_n));
    if let Some(path) = chrome {
        write_atomic(&path, &doc.to_chrome_trace())?;
        println!("wrote chrome trace to {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "the CLI reads its own argv; no measurement-path entropy."
    )]
    let args: Vec<String> = std::env::args().collect();
    let Some(command) = args.get(1) else {
        return usage();
    };
    let rest = &args[2..];
    let result = match command.as_str() {
        "diff" => cmd_diff(rest),
        "watch" => cmd_watch(rest),
        "validate" => cmd_validate(rest),
        "profile" => cmd_profile(rest),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vp-monitor {command}: {e}");
            ExitCode::from(2)
        }
    }
}
