//! `--compare <a.json> <b.json>`: is `b` no worse than `a`, metric by
//! metric and workload by workload, by the bounds `BENCHMARK.json` fixes?

use std::path::Path;

use serde_json::Value;

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats;
use crate::suite::{read_json, RESULTS_SCHEMA};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs' own spread is wider than the bound, so a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when `b` is better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The verdict on one metric of one workload from each side's runs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = [a, b]
        .iter()
        .filter_map(|xs| stats::quartile_spread(xs))
        .fold(0.0, f64::max);
    if spread > bound {
        // Too noisy to resolve — unless every run of `b` reads better than
        // every run of `a`.
        let clean_win = a.iter().all(|x| {
            b.iter().all(|y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if clean_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(a, b, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(doc: &Value, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    doc["workloads"][workload]["end_to_end"][metric]["values"]
        .as_array()
        .map(|xs| xs.iter().filter_map(Value::as_f64).collect::<Vec<f64>>())
        .filter(|xs| !xs.is_empty())
        .ok_or_else(|| format!("no values for {metric} on {workload}"))
}

/// The bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds(spec: &Value) -> Result<Vec<f64>, String> {
    END_TO_END
        .iter()
        .map(|d| {
            spec["end_to_end"]
                .as_array()
                .into_iter()
                .flatten()
                .find(|m| m["name"].as_str() == Some(d.name))
                .and_then(|m| m["bound"].as_f64())
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", d.name))
        })
        .collect()
}

fn comparable(doc: &Value, what: &str) -> Result<(), String> {
    if doc["schema"].as_str() != Some(RESULTS_SCHEMA) {
        return Err(format!("{what} is not a {RESULTS_SCHEMA} document"));
    }
    if doc["comparable"].as_bool() != Some(true) {
        return Err(format!("{what} is a --quick result: not comparable"));
    }
    Ok(())
}

/// One line per workload × metric, plus one per digest mismatch; `true`
/// when nothing regressed and every digest matches.
pub fn compare_docs(a: &Value, b: &Value, spec: &Value) -> Result<(Vec<String>, bool), String> {
    comparable(a, "the first file")?;
    comparable(b, "the second file")?;
    let bounds = bounds(spec)?;
    let mut lines = Vec::new();
    let mut pass = true;
    for workload in WORKLOADS {
        let digests = |doc: &Value| doc["workloads"][workload]["output_digests"].clone();
        if digests(a) != digests(b) || digests(a).is_null() {
            lines.push(format!(
                "{workload}: OUTPUT DIGESTS DIFFER — the simulated results changed"
            ));
            pass = false;
        }
        for (d, bound) in END_TO_END.iter().zip(&bounds) {
            let (xa, xb) = (values(a, workload, d.name)?, values(b, workload, d.name)?);
            let v = verdict(&xa, &xb, d.better, *bound);
            pass &= v != Verdict::Regressed;
            lines.push(format!(
                "{workload:<15} {:<20} {:>16.4} -> {:>16.4} {:<4} {:>+8.2}% worse (bound {:.0}%)  {}",
                d.name,
                stats::median(&xa),
                stats::median(&xb),
                d.unit,
                worsening(&xa, &xb, d.better) * 100.0,
                bound * 100.0,
                v.name(),
            ));
        }
    }
    Ok((lines, pass))
}

pub fn run(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let (lines, pass) = compare_docs(&read_json(a)?, &read_json(b)?, &read_json(spec)?)?;
    for line in lines {
        println!("{line}");
    }
    println!(
        "{}",
        if pass {
            "compare: ok"
        } else {
            "compare: FAILED"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-made results file: every metric of every workload reads about
    /// 100 on four runs, except `ns_per_block` on `scan-large`.
    fn results(scan_large_ns: &[f64], digest: &str, comparable: bool) -> Value {
        let list = |xs: &[f64]| {
            let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
            format!("[{}]", items.join(","))
        };
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                let metrics: Vec<String> = END_TO_END
                    .iter()
                    .map(|d| {
                        let xs = if *w == "scan-large" && d.name == "ns_per_block" {
                            list(scan_large_ns)
                        } else {
                            list(&[100.0, 101.0, 99.0, 100.5])
                        };
                        format!(
                            "\"{}\": {{\"unit\": \"{}\", \"values\": {xs}}}",
                            d.name, d.unit
                        )
                    })
                    .collect();
                format!(
                    "\"{w}\": {{\"output_digests\": [\"{digest}\"], \"end_to_end\": {{{}}}}}",
                    metrics.join(",")
                )
            })
            .collect();
        let text = format!(
            "{{\"schema\": \"{RESULTS_SCHEMA}\", \"comparable\": {comparable}, \"workloads\": {{{}}}}}",
            workloads.join(",")
        );
        serde_json::from_str(&text).expect("hand-made results parse")
    }

    fn spec() -> Value {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|d| format!("{{\"name\": \"{}\", \"bound\": 0.1}}", d.name))
            .collect();
        serde_json::from_str(&format!("{{\"end_to_end\": [{}]}}", metrics.join(","))).expect("spec")
    }

    fn line_for<'a>(lines: &'a [String], workload: &str, metric: &str) -> &'a str {
        lines
            .iter()
            .find(|l| l.starts_with(workload) && l.contains(metric))
            .expect("a line per workload and metric")
    }

    #[test]
    fn same_numbers_are_ok() {
        let a = results(&[4600.0, 4650.0, 4580.0, 4610.0], "aa", true);
        let (lines, pass) = compare_docs(&a, &a, &spec()).expect("compare");
        assert!(pass);
        assert_eq!(lines.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(lines.iter().all(|l| l.ends_with(" ok")), "{lines:#?}");
    }

    #[test]
    fn a_worsening_beyond_the_bound_is_regressed_and_fails() {
        let a = results(&[4600.0, 4650.0, 4580.0, 4610.0], "aa", true);
        let b = results(&[5300.0, 5350.0, 5280.0, 5310.0], "aa", true);
        let (lines, pass) = compare_docs(&a, &b, &spec()).expect("compare");
        assert!(!pass);
        assert!(line_for(&lines, "scan-large", "ns_per_block").ends_with("regressed"));
        assert!(line_for(&lines, "scan-small", "ns_per_block").ends_with(" ok"));
        // The same change the other way round is an improvement.
        let (lines, pass) = compare_docs(&b, &a, &spec()).expect("compare");
        assert!(pass);
        assert!(line_for(&lines, "scan-large", "ns_per_block").ends_with(" ok"));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = results(&[4000.0, 5200.0, 4400.0, 5600.0], "aa", true);
        let worse = results(&[4500.0, 5900.0, 5000.0, 6300.0], "aa", true);
        let (lines, pass) = compare_docs(&noisy, &worse, &spec()).expect("compare");
        assert!(pass, "unresolved is reported, not failed");
        assert!(line_for(&lines, "scan-large", "ns_per_block").ends_with("unresolved"));
        let clean_win = results(&[3000.0, 3100.0, 2900.0, 3050.0], "aa", true);
        let (lines, _) = compare_docs(&noisy, &clean_win, &spec()).expect("compare");
        assert!(line_for(&lines, "scan-large", "ns_per_block").ends_with(" ok"));
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        assert_eq!(
            verdict(&[100.0], &[80.0], Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[100.0], &[120.0], Better::Higher, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[100.0], &[120.0], Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(verdict(&[100.0], &[109.0], Better::Lower, 0.1), Verdict::Ok);
    }

    #[test]
    fn digests_must_match_exactly() {
        let a = results(&[4600.0, 4650.0], "aa", true);
        let b = results(&[4600.0, 4650.0], "ab", true);
        let (lines, pass) = compare_docs(&a, &b, &spec()).expect("compare");
        assert!(!pass);
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("DIGESTS DIFFER"))
                .count(),
            WORKLOADS.len()
        );
    }

    #[test]
    fn quick_results_are_refused() {
        let full = results(&[1.0, 1.0], "aa", true);
        let quick = results(&[1.0, 1.0], "aa", false);
        let err = compare_docs(&full, &quick, &spec()).expect_err("quick must be refused");
        assert!(err.contains("--quick"), "{err}");
    }
}
