//! Gates on the committed golden flight document
//! (`results/obs/flight_scan15k.json`, written by `bench_scan --flight`):
//! it must validate against the embedded `vp-obs-flight/v2` schema, its
//! wall timeline must carry per-shard executor spans, and the chrome-trace
//! export must be well-formed JSON.

use serde_json::Value;
use vp_monitor::schema::validate_tagged;
use vp_monitor::{parse_flight_doc, profile_channel, render_report};

const GOLDEN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/obs/flight_scan15k.json"
));

fn golden() -> vp_obs::FlightDoc {
    let value: Value =
        serde_json::from_str(GOLDEN).unwrap_or_else(|e| panic!("golden is not JSON: {e}"));
    assert_eq!(
        validate_tagged(&value),
        Vec::<String>::new(),
        "golden flight doc fails its schema"
    );
    parse_flight_doc(&value, "flight_scan15k.json").unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn wall_channel_reports_per_shard_imbalance() {
    let doc = golden();
    let p = profile_channel(&doc.wall, 8);
    assert!(
        !p.shards.is_empty(),
        "wall channel must carry per-shard executor spans"
    );
    assert_eq!(p.shards.len(), 8, "bench flight run shards at K=8");
    for (i, &(k, _)) in p.shards.iter().enumerate() {
        assert_eq!(k as usize, i, "shard compute rows must be id-ordered");
    }
    assert!(p.imbalance_permille.is_some());
    assert!(p.imbalance_permille.unwrap_or(0) <= 1000);
    assert!(p.critical_path_ns.is_some());
    assert!(
        doc.wall
            .spans
            .iter()
            .any(|s| s.name == "shard.compute" && s.shard.is_some()),
        "wall channel must include shard.compute intervals"
    );
}

#[test]
fn report_covers_the_wall_channel() {
    let doc = golden();
    let text = render_report(&doc, 5);
    assert!(text.contains("== wall channel"), "{text}");
    assert!(text.contains("scan.round"), "{text}");
    assert!(text.contains("imbalance"), "{text}");
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let doc = golden();
    let trace: Value = serde_json::from_str(&doc.to_chrome_trace())
        .unwrap_or_else(|e| panic!("chrome trace is not valid JSON: {e}"));
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("chrome trace has no traceEvents array"));
    assert_eq!(events.len(), doc.wall.spans.len());
    for ev in events {
        assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
        assert!(ev.get("name").and_then(Value::as_str).is_some());
        assert_eq!(ev.get("pid").and_then(Value::as_u64), Some(1));
    }
    // Round-tripping the golden through parse keeps the canonical bytes.
    assert_eq!(doc.to_canonical_json(), GOLDEN);
}
