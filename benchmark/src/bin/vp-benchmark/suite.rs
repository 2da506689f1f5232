//! Every workload, one child process at a time, into one results file.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::{json, Value};

use crate::spec::{END_TO_END, WORKLOADS};
use crate::{stats, Options};

pub const RESULTS_SCHEMA: &str = "vp-benchmark-results/v1";
/// Where a full run's results go; a `--quick` run may not be written here.
const FULL_RESULTS: &str = "results.json";
const QUICK_RESULTS: &str = "results-quick.json";

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in a child of this executable, one at a time, and
/// returns the detail document the child wrote.
fn child(opts: &Options, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let mut cmd = Command::new(&opts.exe);
    cmd.arg("--out-dir").arg(&opts.out_dir);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &opts.seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("spawn {}: {e}", opts.exe))?;
    if !status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace}) exited with {status}"
        ));
    }
    read_json(
        &opts
            .out_dir
            .join(format!("run-{workload}-trace{}.json", u8::from(trace))),
    )
}

fn count(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or(0)
}

pub fn run(opts: &Options) -> Result<bool, String> {
    let default_name = if opts.quick {
        QUICK_RESULTS
    } else {
        FULL_RESULTS
    };
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| opts.out_dir.join(default_name));
    if opts.quick && out.file_name().is_some_and(|n| n == FULL_RESULTS) {
        return Err(format!(
            "refusing to write a --quick result to {}: that name is for full, comparable runs",
            out.display()
        ));
    }

    let mut workloads = BTreeMap::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        // End-to-end metrics: tracing off, `--runs` times, another seed each.
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut digests = Vec::new();
        let mut samples = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for i in 0..opts.runs as u64 {
            let doc = child(opts, workload, opts.seed + i, false)?;
            for d in END_TO_END {
                let v = doc["metrics"][d.name]["value"]
                    .as_f64()
                    .ok_or_else(|| format!("{workload}: no {} in the child's report", d.name))?;
                values.entry(d.name).or_default().push(v);
            }
            digests.push(doc["output_digest"].clone());
            samples.push(doc["samples"].clone());
            attempted += count(&doc, "attempted");
            failed += count(&doc, "failed");
        }
        // Per-layer metrics: one traced run on the first seed.
        let traced = child(opts, workload, opts.seed, true)?;
        attempted += count(&traced, "attempted");
        failed += count(&traced, "failed");
        all_correct &= failed == 0;

        let end_to_end: BTreeMap<&str, Value> = END_TO_END
            .iter()
            .map(|d| {
                let xs = &values[d.name];
                let summary = json!({
                    "unit": d.unit,
                    "value": stats::median(xs),
                    "values": xs,
                    "spread": stats::quartile_spread(xs),
                });
                (d.name, summary)
            })
            .collect();
        let summary = json!({
            "output_digests": digests,
            "samples": samples,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        });
        workloads.insert(workload.to_owned(), summary);
    }

    println!(
        "\nend to end, median of {} run(s) per workload{}:",
        opts.runs,
        if opts.quick {
            " — QUICK, not comparable"
        } else {
            ""
        }
    );
    for name in WORKLOADS {
        let w = &workloads[name];
        println!(
            "{name}: digest {} failed {}/{}",
            w["output_digests"][0].as_str().unwrap_or("?"),
            count(w, "failed"),
            count(w, "attempted"),
        );
        for d in END_TO_END {
            let m = &w["end_to_end"][d.name];
            let spread = m["spread"].as_f64().map_or("spread n/a".to_owned(), |s| {
                format!("spread {:.2}%", s * 100.0)
            });
            println!(
                "  {:<22} {:>18.6} {:<4} {spread}",
                d.name,
                m["value"].as_f64().unwrap_or(0.0),
                d.unit
            );
        }
    }

    let doc = json!({
        "schema": RESULTS_SCHEMA,
        "comparable": !opts.quick,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "runs": opts.runs,
        "workloads": workloads,
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out, text).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if !all_correct {
        println!("FAILED: error_rate or output_mismatch is non-zero on some workload");
    }
    Ok(all_correct)
}
