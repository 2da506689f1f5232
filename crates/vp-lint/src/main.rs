//! The `vp-lint` CLI.
//!
//! ```text
//! cargo run -p vp-lint -- --workspace [--format text|json]
//! cargo run -p vp-lint -- [--root DIR] [--format text|json] PATH...
//! cargo run -p vp-lint -- graph [--dot] [--root DIR]
//! cargo run -p vp-lint -- bench [--reps N] [--budget-per-rule-ms M] [--root DIR]
//! ```
//!
//! Exit status: 0 clean, 1 findings (or bench over budget), 2 usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

// vp-lint: allow(d2): the CLI reads its own argv; no measurement-path entropy.
use std::env;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("graph") => run_graph(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("vp-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Resolves `--root` (or walks up to the workspace root).
fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, String> {
    match root {
        Some(r) => Ok(r),
        None => {
            let cwd = env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            vp_lint::find_workspace_root(&cwd)
                .ok_or_else(|| "no workspace root found (pass --root)".to_string())
        }
    }
}

/// `vp-lint graph [--dot] [--root DIR]` — dump the call graph.
fn run_graph(args: &[String]) -> Result<ExitCode, String> {
    let mut dot = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dot" => dot = true,
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?)),
            other => return Err(format!("unknown graph flag `{other}`")),
        }
    }
    let root = resolve_root(root)?;
    let g = vp_lint::build_graph(&root).map_err(|e| format!("graph: {e}"))?;
    let out = if dot { g.to_dot() } else { g.to_summary() };
    // Ignore EPIPE: `vp-lint graph --dot | head` closing the pipe early
    // is normal use of a dump, not an error.
    use std::io::Write;
    let _ = std::io::stdout().write_all(out.as_bytes());
    Ok(ExitCode::SUCCESS)
}

/// `vp-lint bench [--reps N] [--budget-per-rule-ms M] [--root DIR]` —
/// time the full workspace scan (min of N reps, the same estimator
/// `vp-bench` uses) and fail when it exceeds the budget. The budget
/// scales with [`RuleId::ALL`], so adding a rule grows the allowance
/// instead of silently eating the remaining headroom of a hard constant.
/// Keeps the analyzer fast enough to stay inside tier-1.
fn run_bench(args: &[String]) -> Result<ExitCode, String> {
    let mut reps: u32 = 5;
    let mut budget_per_rule_ms: u128 = 135;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .ok_or("--reps needs a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
            }
            "--budget-per-rule-ms" => {
                budget_per_rule_ms = it
                    .next()
                    .ok_or("--budget-per-rule-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("--budget-per-rule-ms: {e}"))?;
            }
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?)),
            other => return Err(format!("unknown bench flag `{other}`")),
        }
    }
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let budget_ms = budget_per_rule_ms * vp_lint::RuleId::ALL.len() as u128;
    let root = resolve_root(root)?;
    let mut best_ms = u128::MAX;
    let mut findings = 0usize;
    for _ in 0..reps {
        // vp-lint: allow(d2): bench measures the analyzer's own wall time; results never feed it back.
        let started = Instant::now();
        let fs = vp_lint::scan_workspace(&root).map_err(|e| format!("scan: {e}"))?;
        let elapsed = started.elapsed().as_millis();
        best_ms = best_ms.min(elapsed);
        findings = fs.len();
    }
    println!(
        "vp-lint bench: min-of-{reps} full scan = {best_ms} ms \
         ({findings} findings), budget {budget_ms} ms"
    );
    Ok(if best_ms <= budget_ms {
        ExitCode::SUCCESS
    } else {
        eprintln!("vp-lint bench: over budget");
        ExitCode::FAILURE
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut format = "text".to_string();
    let mut root: Option<PathBuf> = None;
    let mut workspace = false;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--format" => {
                let v = it.next().ok_or("--format needs a value (text|json)")?;
                if v != "text" && v != "json" {
                    return Err(format!("unknown format `{v}` (expected text|json)"));
                }
                format = v.clone();
            }
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "vp-lint: workspace determinism-and-hygiene analyzer\n\n\
                     USAGE:\n  vp-lint --workspace [--root DIR] [--format text|json]\n  \
                     vp-lint [--root DIR] [--format text|json] PATH...\n  \
                     vp-lint graph [--dot] [--root DIR]\n  \
                     vp-lint bench [--reps N] [--budget-per-rule-ms M] [--root DIR]\n\n\
                     Token rules: d1 hash-order, d2 ambient entropy, d3 merge-tested,\n\
                     d4 wall-time Clock impls outside binaries/vp-bench,\n\
                     h1 narrowing casts (hot crates), h2 unwrap/expect in libraries,\n\
                     c5 concurrency primitives (threads, locks, channels, atomics,\n\
                     thread-locals) named outside the blessed executor.\n\
                     Graph rules: g1 panic-reachability and g2 nondeterminism taint\n\
                     over the public API of policed crates (with witness paths),\n\
                     g3 stale allow directives.\n\
                     Suppress with `// vp-lint: allow(<rule>): <justification>`."
                );
                return Ok(ExitCode::SUCCESS);
            }
            p if !p.starts_with('-') => paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }

    let root = resolve_root(root)?;

    let files = if workspace || paths.is_empty() {
        vp_lint::workspace::collect_rs_files(&root)
    } else {
        let mut files = Vec::new();
        for p in &paths {
            let p = if p.is_absolute() { p.clone() } else { root.join(p) };
            if p.is_dir() {
                files.extend(
                    vp_lint::workspace::collect_rs_files(&p)
                        .map_err(|e| format!("{}: {e}", p.display()))?,
                );
            } else {
                files.push(p);
            }
        }
        files.sort();
        Ok(files)
    }
    .map_err(|e| format!("walking {}: {e}", root.display()))?;

    // vp-lint: allow(d2): the clock only annotates JSON pass timings; findings never depend on it.
    let started = Instant::now();
    let clock = move || started.elapsed().as_millis();
    let (findings, times) =
        vp_lint::scan_files_timed(&root, &files, &clock).map_err(|e| format!("scan: {e}"))?;

    match format.as_str() {
        "json" => print!("{}", vp_lint::to_json_timed(&findings, &times)),
        _ => print!("{}", vp_lint::to_text(&findings)),
    }

    Ok(if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
