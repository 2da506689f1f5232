//! Schema snapshots and the mini JSON-schema validator.
//!
//! Public by path: the benchmark harness imports `vp_monitor::schema::validate_tagged`.
//!
//! The monitor validates every tagged document family — obs reports,
//! flight and daemon status documents plus its own drift and alert
//! documents. The checked-in `schema/*.schema.json` snapshots are
//! embedded at compile time, so `vp-monitor validate` needs no file
//! lookup at run time and every consumer pins the same bytes.
//!
//! Supported JSON-Schema subset: `type` (a name or an array of names),
//! `required`, `properties`, `additionalProperties` (a schema, or
//! `false`), `items`, `enum` and `minimum`.

use serde_json::Value;

/// Schema snapshot for `vp-obs-report/v2` (the vp-experiments run
/// reports).
pub const OBS_REPORT_SCHEMA: &str = include_str!("../schema/obs_report.schema.json");
/// Schema snapshot for `vp-monitor-drift/v1`.
pub(crate) const DRIFT_SCHEMA: &str = include_str!("../schema/drift.schema.json");
/// Schema snapshot for `vp-monitor-alert/v1`.
pub(crate) const ALERT_SCHEMA: &str = include_str!("../schema/alert.schema.json");
/// Schema snapshot for `vp-obs-flight/v2` flight-recorder documents.
pub(crate) const FLIGHT_SCHEMA: &str = include_str!("../schema/flight.schema.json");
/// Schema snapshot for `vp-daemon-status/v2` daemon status documents.
pub(crate) const DAEMON_STATUS_SCHEMA: &str = include_str!("../schema/daemon_status.schema.json");

/// Picks the embedded schema for a document by its `schema` tag.
pub(crate) fn schema_for(tag: &str) -> Option<&'static str> {
    match tag {
        "vp-obs-report/v2" => Some(OBS_REPORT_SCHEMA),
        "vp-monitor-drift/v1" => Some(DRIFT_SCHEMA),
        "vp-monitor-alert/v1" => Some(ALERT_SCHEMA),
        "vp-obs-flight/v2" => Some(FLIGHT_SCHEMA),
        "vp-daemon-status/v2" => Some(DAEMON_STATUS_SCHEMA),
        _ => None,
    }
}

/// Validates a document against the embedded schema matching its
/// `schema` tag. Returns one message per violation.
pub fn validate_tagged(doc: &Value) -> Vec<String> {
    let Some(tag) = doc.get("schema").and_then(Value::as_str) else {
        return vec!["$: document has no schema tag".to_owned()];
    };
    let Some(schema_text) = schema_for(tag) else {
        return vec![format!("$: unknown schema tag {tag:?}")];
    };
    match serde_json::from_str(schema_text) {
        Ok(schema) => validate_schema(doc, &schema),
        Err(e) => vec![format!("$: embedded schema for {tag:?} unreadable: {e}")],
    }
}

/// Validates `value` against the supported JSON-Schema subset. Returns
/// one message per violation; an empty vector means the document
/// conforms.
pub fn validate_schema(value: &Value, schema: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    check(value, schema, "$", &mut errors);
    errors
}

fn type_name(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::I64(_) | Value::U64(_) => "integer",
        Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// JSON Schema semantics: every integer is also a number.
fn type_matches(got: &'static str, want: &str) -> bool {
    got == want || (want == "number" && got == "integer")
}

fn check(value: &Value, schema: &Value, path: &str, errors: &mut Vec<String>) {
    let Value::Object(schema) = schema else {
        errors.push(format!("{path}: schema node is not an object"));
        return;
    };

    match schema.get("type") {
        Some(Value::Str(want)) => {
            let got = type_name(value);
            if !type_matches(got, want) {
                errors.push(format!("{path}: expected {want}, got {got}"));
                return;
            }
        }
        Some(Value::Array(options)) => {
            let got = type_name(value);
            let ok = options
                .iter()
                .filter_map(Value::as_str)
                .any(|want| type_matches(got, want));
            if !ok {
                errors.push(format!("{path}: type {got} not among allowed types"));
                return;
            }
        }
        _ => {}
    }

    if let Some(Value::Array(allowed)) = schema.get("enum") {
        if !allowed.iter().any(|a| a == value) {
            errors.push(format!("{path}: value not in enum"));
        }
    }

    if let Some(min) = schema.get("minimum").and_then(Value::as_i64) {
        if let Some(v) = value.as_i64() {
            if v < min {
                errors.push(format!("{path}: {v} below minimum {min}"));
            }
        }
    }

    if let Value::Object(obj) = value {
        if let Some(Value::Array(required)) = schema.get("required") {
            for key in required {
                if let Value::Str(key) = key {
                    if !obj.contains_key(key) {
                        errors.push(format!("{path}: missing required key {key:?}"));
                    }
                }
            }
        }
        let props = match schema.get("properties") {
            Some(Value::Object(p)) => Some(p),
            _ => None,
        };
        for (key, child) in obj {
            let child_path = format!("{path}.{key}");
            if let Some(prop_schema) = props.and_then(|p| p.get(key)) {
                check(child, prop_schema, &child_path, errors);
            } else {
                match schema.get("additionalProperties") {
                    Some(Value::Bool(false)) => {
                        errors.push(format!("{path}: unexpected key {key:?}"));
                    }
                    Some(extra @ Value::Object(_)) => check(child, extra, &child_path, errors),
                    _ => {}
                }
            }
        }
    }

    if let (Value::Array(items), Some(item_schema)) = (value, schema.get("items")) {
        for (i, item) in items.iter().enumerate() {
            check(item, item_schema, &format!("{path}[{i}]"), errors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{build_alert_doc, AlertConfig};
    use crate::diff::{diff_rounds, DriftSummary, Origins};
    use crate::pipeline::build_drift_doc;
    use verfploeter::CatchmentMap;
    use vp_bgp::SiteId;
    use vp_net::{Asn, Block24};

    const ALERT_DOC: &str = r#"{
  "alerts": [
    {
      "cleared_round": 5,
      "fired_round": 2,
      "peak_round": 3,
      "peak_value": 30,
      "rule": "flip-rate",
      "threshold": 5
    },
    {
      "cleared_round": null,
      "fired_round": 7,
      "peak_round": 7,
      "peak_value": 80,
      "rule": "load-skew",
      "threshold": 50
    }
  ],
  "config": {
    "clear_rounds": 2,
    "coverage_drop_permille": 100,
    "duration_baseline_rounds": 4,
    "duration_blowup_permille": 1500,
    "flip_rate_permille": 5,
    "share_delta_permille": 50,
    "trigger_rounds": 2
  },
  "rounds": 9,
  "schema": "vp-monitor-alert/v1",
  "source": "t"
}"#;
    const DRIFT_DOC: &str = r#"{
  "rounds": [
    {
      "coverage_delta_permille": -250,
      "cur": "r1",
      "cur_blocks": 3,
      "flip_rate_permille": 666,
      "flipped": 2,
      "flips_by_as": {
        "64500": 1,
        "64501": 1
      },
      "from_nr": 0,
      "max_share_delta_permille": 500,
      "prev": "r0",
      "prev_blocks": 4,
      "round": 1,
      "site_shares_permille": {
        "1": 1000
      },
      "stable": 1,
      "to_nr": 1
    }
  ],
  "schema": "vp-monitor-drift/v1",
  "source": "t",
  "summary": {
    "flipped": 2,
    "flips_by_as": {
      "64500": 1,
      "64501": 1
    },
    "from_nr": 0,
    "max_coverage_drop_permille": 250,
    "max_flip_rate_permille": 666,
    "max_flipped": 2,
    "max_share_delta_permille": 500,
    "rounds": 1,
    "stable": 1,
    "to_nr": 1
  }
}"#;

    #[test]
    fn embedded_schemas_parse() {
        for (tag, text) in [
            ("vp-obs-report/v2", OBS_REPORT_SCHEMA),
            ("vp-monitor-drift/v1", DRIFT_SCHEMA),
            ("vp-monitor-alert/v1", ALERT_SCHEMA),
            ("vp-obs-flight/v2", FLIGHT_SCHEMA),
            ("vp-daemon-status/v2", DAEMON_STATUS_SCHEMA),
        ] {
            assert!(
                serde_json::from_str(text).is_ok(),
                "schema for {tag} does not parse"
            );
            assert!(schema_for(tag).is_some());
        }
        assert!(schema_for("nope/v9").is_none());
        // Retired tags are refused by name: no v1 reader is kept.
        for retired in ["vp-obs-flight/v1", "vp-obs-report/v1", "vp-daemon-status/v1"] {
            assert!(schema_for(retired).is_none(), "{retired}");
            let doc = serde_json::json!({ "schema": retired });
            assert_eq!(validate_tagged(&doc), vec![format!("$: unknown schema tag {retired:?}")]);
        }
    }

    #[test]
    fn validator_flags_missing_and_mistyped_fields() {
        let schema: Value = serde_json::from_str(
            r#"{"type":"object","required":["a"],"properties":{"a":{"type":"integer","minimum":0},"b":{"type":"array","items":{"type":"string"}}},"additionalProperties":false}"#,
        )
        .unwrap();
        let good: Value = serde_json::from_str(r#"{"a":3,"b":["x"]}"#).unwrap();
        assert!(validate_schema(&good, &schema).is_empty());

        let missing: Value = serde_json::from_str(r#"{"b":[]}"#).unwrap();
        assert_eq!(validate_schema(&missing, &schema).len(), 1);

        let bad_type: Value = serde_json::from_str(r#"{"a":"no"}"#).unwrap();
        assert!(!validate_schema(&bad_type, &schema).is_empty());

        let extra: Value = serde_json::from_str(r#"{"a":1,"z":true}"#).unwrap();
        assert!(validate_schema(&extra, &schema)
            .iter()
            .any(|e| e.contains("unexpected key")));

        let bad_item: Value = serde_json::from_str(r#"{"a":1,"b":[4]}"#).unwrap();
        assert!(!validate_schema(&bad_item, &schema).is_empty());
    }

    #[test]
    fn type_arrays_allow_nullable_fields() {
        let schema: Value =
            serde_json::from_str(r#"{"type":["integer","null"],"minimum":1}"#).unwrap();
        assert!(validate_schema(&Value::Null, &schema).is_empty());
        assert!(validate_schema(&Value::U64(3), &schema).is_empty());
        assert!(!validate_schema(&Value::U64(0), &schema).is_empty());
        assert!(!validate_schema(&Value::Str("x".to_owned()), &schema).is_empty());
    }

    #[test]
    fn pipeline_documents_conform_to_their_schemas() {
        // An alert doc with one cleared and one active alert.
        let alerts = vec![
            crate::alert::Alert {
                rule: "flip-rate".to_owned(),
                fired_round: 2,
                cleared_round: Some(5),
                peak_value: 30,
                peak_round: 3,
                threshold: 5,
            },
            crate::alert::Alert {
                rule: "load-skew".to_owned(),
                fired_round: 7,
                cleared_round: None,
                peak_value: 80,
                peak_round: 7,
                threshold: 50,
            },
        ];
        let doc = build_alert_doc("t", 9, &AlertConfig::default(), &alerts);
        assert_eq!(validate_tagged(&doc), Vec::<String>::new());
        // Text, not `Value`s: the same integer may be held as `U64` or `I64`.
        assert_eq!(serde_json::to_string_pretty(&doc).ok().as_deref(), Some(ALERT_DOC));

        let drift = build_drift_doc("t", &[], &crate::diff::DriftSummary::default());
        assert_eq!(validate_tagged(&drift), Vec::<String>::new());

        // One diff whose coverage shrank and whose flips have an origin AS.
        let map = |name: &str, pairs: &[(u32, u8)]| {
            CatchmentMap::from_pairs(name, pairs.iter().map(|&(b, s)| (Block24(b), SiteId(s))))
        };
        let origins: Origins = [(Block24(1), Asn(64500)), (Block24(2), Asn(64501))].into_iter().collect();
        let prev = map("r0", &[(1, 0), (2, 0), (3, 1), (4, 1)]);
        let cur = map("r1", &[(1, 1), (2, 1), (3, 1)]);
        let d = diff_rounds(&prev, &cur, 1, Some(&origins));
        let drift = build_drift_doc("t", [&d], &DriftSummary::from_diff(&d));
        assert_eq!(validate_tagged(&drift), Vec::<String>::new());
        assert_eq!(serde_json::to_string_pretty(&drift).ok().as_deref(), Some(DRIFT_DOC));

        let untagged: Value = serde_json::from_str("{}").unwrap();
        assert!(!validate_tagged(&untagged).is_empty());
    }
}
