//! Merge-algebra metrics: counters, gauges, and fixed-bucket histograms
//! keyed by `(name, labels)` over `BTreeMap`s, so iteration — and therefore
//! every exposition format — is canonically ordered.
//!
//! The registry obeys the same merge-algebra contract as `SimStats` and
//! `CatchmentMap` in the scan pipeline: [`Registry::merge`] is associative
//! and commutative with the empty registry as identity. That is what lets
//! a `run_scan_sharded_on` round fold K per-shard registries into a result
//! that is byte-identical to the serial scan's registry for every K, provided the
//! recorded values themselves are shard-count-invariant (pure sums over
//! per-packet or per-index contributions — see DESIGN.md §9).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric identity: name plus a sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub labels: BTreeMap<String, String>,
}

impl MetricKey {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey {
            name: name.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        }
    }
}

/// A monotone event count. Merge = sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

/// A signed level. Merge = sum, so gauges recorded per shard must be
/// per-shard *contributions* (deltas), not absolute readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge(pub i64);

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper bounds per bucket; one implicit overflow
/// bucket catches everything above the last bound. Two histograms merge by
/// element-wise bucket addition, which is only meaningful when their bounds
/// agree — merging mismatched bounds is a programming error and panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    pub fn new(bounds: Vec<u64>) -> Histogram {
        debug_assert!(bounds.is_sorted_by(|a, b| a < b), "bounds not sorted");
        let buckets = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            buckets,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Log-spaced bounds: `start, start*factor_num/factor_den, ...` —
    /// integer arithmetic so bucket layout is identical on every platform.
    pub fn exponential(start: u64, factor_num: u64, factor_den: u64, count: usize) -> Histogram {
        debug_assert!(start > 0 && factor_num > factor_den && factor_den > 0);
        let mut bounds = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            bounds.push(b);
            b = (b.saturating_mul(factor_num) / factor_den).max(b + 1);
        }
        Histogram::new(bounds)
    }

    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        if let Some(bucket) = self.buckets.get_mut(idx) {
            *bucket += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Linearly interpolated q-quantile estimate.
    ///
    /// Locates the continuous 0-based rank `q * (count - 1)` in the
    /// cumulative bucket distribution and interpolates between the
    /// holding bucket's lower and upper bounds, clamped to the observed
    /// `[min, max]`; samples are taken as evenly spread across their
    /// bucket, so p90 stays below max even at single-digit sample counts
    /// (`bench_scan`'s p90 column relies on that). `q` of 0 and 1 are the
    /// observed min and max. Returns 0 for an empty histogram.
    pub fn quantile_interpolated(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The extreme quantiles are observed values, not estimates.
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 {
            return self.max;
        }
        let target = q * (self.count - 1) as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let first_rank = cum as f64;
            cum += n;
            let last_rank = (cum - 1) as f64;
            if target <= last_rank {
                // Samples in bucket i are assumed evenly spread across the
                // bucket's value range; clamp to what was actually seen.
                let lower = match i.checked_sub(1).and_then(|j| self.bounds.get(j)) {
                    Some(&bound) => bound.clamp(self.min(), self.max),
                    None => self.min(),
                };
                let upper = self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or(self.max)
                    .clamp(lower, self.max);
                let frac = if n > 1 {
                    (target - first_rank) / (n - 1) as f64
                } else {
                    0.5
                };
                let est = lower as f64 + frac * (upper - lower) as f64;
                return (est.round() as u64).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Element-wise bucket sum. Panics on mismatched bounds; an empty
    /// histogram with the same bounds is the identity.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One recorded metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The metric store: a canonically ordered map from [`MetricKey`] to
/// [`Metric`]. Recording under an existing key with a different metric
/// kind is a programming error and panics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    metrics: BTreeMap<MetricKey, Metric>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &Metric)> {
        self.metrics.iter()
    }

    #[expect(
        clippy::panic,
        reason = "a name registered as two metric kinds is a programmer error at a static call site; kind-mismatch panics are the registry's documented contract."
    )]
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        let key = MetricKey::new(name, labels);
        match self
            .metrics
            .entry(key)
            .or_insert(Metric::Counter(Counter(0)))
        {
            Metric::Counter(c) => c.0 += n,
            other => panic!("{name}: counter_add on a {}", other.kind()),
        }
    }

    #[expect(
        clippy::panic,
        reason = "a name registered as two metric kinds is a programmer error at a static call site; kind-mismatch panics are the registry's documented contract."
    )]
    pub fn gauge_add(&mut self, name: &str, labels: &[(&str, &str)], delta: i64) {
        let key = MetricKey::new(name, labels);
        match self.metrics.entry(key).or_insert(Metric::Gauge(Gauge(0))) {
            Metric::Gauge(g) => g.0 += delta,
            other => panic!("{name}: gauge_add on a {}", other.kind()),
        }
    }

    /// Observes `value` into the named histogram, creating it with
    /// `bounds` on first use. Later calls must pass the same bounds.
    #[expect(
        clippy::panic,
        reason = "a name registered as two metric kinds is a programmer error at a static call site; kind-mismatch panics are the registry's documented contract."
    )]
    pub fn histogram_observe(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
        value: u64,
    ) {
        let key = MetricKey::new(name, labels);
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds.to_vec())))
        {
            Metric::Histogram(h) => {
                debug_assert_eq!(h.bounds(), bounds, "{name}: bucket bounds changed");
                h.observe(value);
            }
            other => panic!("{name}: histogram_observe on a {}", other.kind()),
        }
    }

    /// Inserts a pre-built histogram (a scan's finished RTT histogram).
    /// Panics if the key already exists.
    pub fn insert_histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: Histogram) {
        let key = MetricKey::new(name, labels);
        let prev = self.metrics.insert(key, Metric::Histogram(hist));
        assert!(prev.is_none(), "{name}: histogram already registered");
    }

    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(Metric::Counter(c)) => c.0,
            _ => 0,
        }
    }

    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(Metric::Gauge(g)) => g.0,
            _ => 0,
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Folds `other` into `self`: counters and gauges sum, histograms add
    /// element-wise, keys present on one side only are copied. Associative
    /// and commutative, with the empty registry as identity — the same
    /// contract as `SimStats::merge`, so per-shard registries fold in any
    /// grouping to the same result.
    #[expect(
        clippy::panic,
        reason = "kind-mismatch panics are the registry's documented contract, same as the typed accessors."
    )]
    pub fn merge(&mut self, other: &Registry) {
        for (key, metric) in &other.metrics {
            match self.metrics.get_mut(key) {
                None => {
                    self.metrics.insert(key.clone(), metric.clone());
                }
                Some(mine) => match (mine, metric) {
                    (Metric::Counter(a), Metric::Counter(b)) => a.0 += b.0,
                    (Metric::Gauge(a), Metric::Gauge(b)) => a.0 += b.0,
                    (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
                    (mine, theirs) => panic!(
                        "{}: merging a {} into a {}",
                        key.name,
                        theirs.kind(),
                        mine.kind()
                    ),
                },
            }
        }
    }

    /// Canonical JSON exposition: one object per metric, sorted by
    /// `(name, labels)`. Byte-identical across platforms and shard counts
    /// for equal registries, so tests compare registries by this string.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, (key, metric)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":{}", json_string(&key.name));
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in key.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(k), json_string(v));
            }
            let _ = write!(out, "}},\"type\":\"{}\"", metric.kind());
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ",\"value\":{}", c.0);
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ",\"value\":{}", g.0);
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"bounds\":{},\"buckets\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
                        u64_array(&h.bounds),
                        u64_array(&h.buckets),
                        h.count,
                        h.sum,
                        h.min(),
                        h.max
                    );
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text exposition (v0.0.4): `.`/`-` in names become `_`,
    /// histograms expand to cumulative `_bucket{le=...}` plus `_sum` and
    /// `_count` series. Ordering follows the registry's canonical order.
    /// `help` is keyed by the *recorded* metric name (pre-sanitization,
    /// e.g. `"scan.probes"`): a metric with an entry gets a `# HELP` line
    /// before its `# TYPE`, its backslashes and newlines escaped per the
    /// exposition format.
    pub fn to_prometheus_text(&self, help: &BTreeMap<String, String>) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for (key, metric) in &self.metrics {
            let name = prom_name(&key.name);
            if name != last_name {
                if let Some(text) = help.get(&key.name) {
                    let _ = writeln!(out, "# HELP {name} {}", prom_help_escape(text));
                }
                let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
                last_name = name.clone();
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {}", prom_labels(&key.labels, None), c.0);
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name}{} {}", prom_labels(&key.labels, None), g.0);
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, n) in h.buckets.iter().enumerate() {
                        cum += n;
                        let le = match h.bounds.get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_owned(),
                        };
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cum}",
                            prom_labels(&key.labels, Some(&le))
                        );
                    }
                    let _ = writeln!(out, "{name}_sum{} {}", prom_labels(&key.labels, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        prom_labels(&key.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }
}

fn u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// `# HELP` value escaping per the text exposition format: only `\` and
/// newline are special.
fn prom_help_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Sanitizes a recorded metric (or label) name into the Prometheus
/// identifier charset: non-alphanumerics become `_`, and a leading digit
/// gets a `_` prefix — `[a-zA-Z_:][a-zA-Z0-9_:]*` is the format's grammar,
/// so `4xx.count` must expose as `_4xx_count`, not an invalid `4xx_count`.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn prom_labels(labels: &BTreeMap<String, String>, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}={}", prom_name(k), json_string(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// JSON string literal with the escapes canonical serializers emit.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut r = Registry::new();
        r.counter_add("scan.probes", &[], 3);
        r.counter_add("scan.probes", &[], 4);
        r.gauge_add("queue.depth", &[("site", "LAX")], 5);
        r.gauge_add("queue.depth", &[("site", "LAX")], -2);
        assert_eq!(r.counter_value("scan.probes", &[]), 7);
        assert_eq!(r.gauge_value("queue.depth", &[("site", "LAX")]), 3);
        assert_eq!(r.counter_value("missing", &[]), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = Registry::new();
        r.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.counter_value("c", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for v in [1, 5, 10, 11, 99, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.buckets(), &[3, 3, 0, 1]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1 + 5 + 10 + 11 + 99 + 100 + 5000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5000);
        // Median rank 3 is the first of the second bucket's three samples:
        // its lower bound.
        assert_eq!(h.quantile_interpolated(0.5), 10);
        // p100 lands in the overflow bucket → observed max.
        assert_eq!(h.quantile_interpolated(1.0), 5000);
        assert_eq!(Histogram::new(vec![1]).quantile_interpolated(0.5), 0);
    }

    #[test]
    fn values_on_bucket_edges_land_in_the_bounded_bucket() {
        // An upper bound is inclusive: a sample exactly on a bucket edge
        // belongs to that bucket, never the next one up.
        let mut h = Histogram::new(vec![10, 100, 1000]);
        h.observe(10);
        h.observe(100);
        h.observe(1000);
        assert_eq!(h.buckets(), &[1, 1, 1, 0]);
        // One past each edge spills into the following bucket.
        h.observe(11);
        h.observe(101);
        h.observe(1001);
        assert_eq!(h.buckets(), &[1, 2, 2, 1]);
    }

    #[test]
    fn values_above_the_top_bucket_overflow() {
        let mut h = Histogram::new(vec![10]);
        h.observe(u64::MAX);
        h.observe(11);
        assert_eq!(h.buckets(), &[0, 2]);
        assert_eq!(h.max(), u64::MAX);
        // The overflow bucket has no upper bound, so quantiles report the
        // observed max rather than inventing one.
        assert_eq!(h.quantile_interpolated(1.0), u64::MAX);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new(vec![10, 100]);
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(h.quantile_interpolated(q), 0);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn interpolated_quantiles_do_not_pin_to_max() {
        // Nine samples spread over one wide bucket, whose bound is far
        // above them: interpolation places p90 inside the observed range,
        // strictly below max.
        let mut h = Histogram::new(vec![1_000_000]);
        for v in [100, 200, 300, 400, 500, 600, 700, 800, 900] {
            h.observe(v);
        }
        let p90 = h.quantile_interpolated(0.9);
        assert!(p90 < h.max(), "interpolated p90 {p90} still pinned to max");
        assert!(p90 > h.quantile_interpolated(0.5), "p90 not above median");
        // A single sample is every quantile.
        let mut one = Histogram::new(vec![1_000_000]);
        one.observe(42);
        assert_eq!(one.quantile_interpolated(0.0), 42);
        assert_eq!(one.quantile_interpolated(0.5), 42);
        assert_eq!(one.quantile_interpolated(1.0), 42);
    }

    #[test]
    fn exponential_bounds_strictly_increase() {
        let h = Histogram::exponential(1_000, 3, 2, 32);
        assert_eq!(h.bounds().len(), 32);
        assert!(h.bounds().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(h.bounds()[0], 1_000);
        assert_eq!(h.bounds()[1], 1_500);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("c", &[], 1);
        b.counter_add("c", &[], 2);
        b.counter_add("only_b", &[], 9);
        a.histogram_observe("h", &[], &[10, 100], 5);
        b.histogram_observe("h", &[], &[10, 100], 50);
        a.merge(&b);
        assert_eq!(a.counter_value("c", &[]), 3);
        assert_eq!(a.counter_value("only_b", &[]), 9);
        let h = a.histogram("h", &[]).map(Histogram::buckets);
        assert_eq!(h, Some(&[1, 1, 0][..]));
    }

    #[test]
    fn canonical_json_is_sorted_and_escaped() {
        let mut r = Registry::new();
        r.counter_add("z.last", &[], 1);
        r.counter_add("a.first", &[("site", "says \"hi\"")], 2);
        let json = r.to_canonical_json();
        let a = json.find("a.first").unwrap_or(usize::MAX);
        let z = json.find("z.last").unwrap_or(0);
        assert!(a < z, "not sorted: {json}");
        assert!(json.contains("says \\\"hi\\\""), "not escaped: {json}");
    }

    #[test]
    fn prometheus_label_values_escape_quotes_and_backslashes() {
        let mut r = Registry::new();
        r.counter_add("c", &[("path", "C:\\scan\\run")], 1);
        r.counter_add("c", &[("path", "says \"hi\"")], 2);
        let text = r.to_prometheus_text(&BTreeMap::new());
        // Prometheus text format escapes backslash and double-quote inside
        // label values exactly like JSON string literals do.
        assert!(
            text.contains("c{path=\"C:\\\\scan\\\\run\"} 1"),
            "backslash not escaped: {text}"
        );
        assert!(
            text.contains("c{path=\"says \\\"hi\\\"\"} 2"),
            "quote not escaped: {text}"
        );
    }

    #[test]
    fn prometheus_label_values_escape_newlines() {
        let mut r = Registry::new();
        r.gauge_add("g", &[("note", "a\nb")], 3);
        let text = r.to_prometheus_text(&BTreeMap::new());
        assert!(
            text.contains("g{note=\"a\\nb\"} 3"),
            "newline not escaped: {text}"
        );
        // Escaping must not leave a raw newline splitting the sample line.
        let sample_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("g{")).collect();
        assert_eq!(sample_lines.len(), 1, "{text}");
    }

    #[test]
    fn prometheus_text_shape() {
        let mut r = Registry::new();
        r.counter_add("scan.probes", &[("site", "LAX")], 7);
        r.histogram_observe("rtt.ns", &[], &[10, 100], 5);
        r.histogram_observe("rtt.ns", &[], &[10, 100], 500);
        let text = r.to_prometheus_text(&BTreeMap::new());
        assert!(text.contains("# TYPE scan_probes counter"), "{text}");
        assert!(text.contains("scan_probes{site=\"LAX\"} 7"), "{text}");
        assert!(text.contains("rtt_ns_bucket{le=\"10\"} 1"), "{text}");
        assert!(text.contains("rtt_ns_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("rtt_ns_count 2"), "{text}");
    }

    #[test]
    fn prometheus_type_lines_cover_every_metric_kind() {
        let mut r = Registry::new();
        r.counter_add("scan.probes", &[], 1);
        r.gauge_add("queue.depth", &[], 2);
        r.histogram_observe("rtt.ns", &[], &[10], 5);
        let text = r.to_prometheus_text(&BTreeMap::new());
        assert!(text.contains("# TYPE scan_probes counter"), "{text}");
        assert!(text.contains("# TYPE queue_depth gauge"), "{text}");
        // Histogram TYPE announces the base name; the series carry the
        // _bucket/_sum/_count suffixes.
        assert!(text.contains("# TYPE rtt_ns histogram"), "{text}");
        assert!(!text.contains("# TYPE rtt_ns_bucket"), "{text}");
        // Exactly one TYPE line per metric name.
        assert_eq!(text.matches("# TYPE").count(), 3, "{text}");
    }

    #[test]
    fn prometheus_type_appears_once_per_name_run_across_label_sets() {
        let mut r = Registry::new();
        r.counter_add("scan.probes", &[("site", "LAX")], 7);
        r.counter_add("scan.probes", &[("site", "MIA")], 3);
        let text = r.to_prometheus_text(&BTreeMap::new());
        assert_eq!(text.matches("# TYPE scan_probes counter").count(), 1, "{text}");
        let type_idx = text.find("# TYPE scan_probes").unwrap_or(usize::MAX);
        let first_sample = text.find("scan_probes{").unwrap_or(0);
        assert!(type_idx < first_sample, "TYPE must precede samples: {text}");
    }

    #[test]
    fn prometheus_names_never_start_with_a_digit() {
        let mut r = Registry::new();
        r.counter_add("4xx.count", &[("2nd", "x")], 1);
        let text = r.to_prometheus_text(&BTreeMap::new());
        // Metric and label names alike get the `_` prefix; label values
        // are free-form and untouched.
        assert!(text.contains("# TYPE _4xx_count counter"), "{text}");
        assert!(text.contains("_4xx_count{_2nd=\"x\"} 1"), "{text}");
        assert!(!text.contains("\n4xx"), "{text}");
    }

    #[test]
    fn prometheus_help_lines_precede_type_once_per_name() {
        let mut r = Registry::new();
        r.counter_add("scan.probes", &[("site", "LAX")], 7);
        r.counter_add("scan.probes", &[("site", "MIA")], 3);
        r.gauge_add("queue.depth", &[], 2);
        let mut help = BTreeMap::new();
        help.insert(
            "scan.probes".to_owned(),
            "Probes sent per site.".to_owned(),
        );
        let text = r.to_prometheus_text(&help);
        // One HELP line per metric name (not per label set), directly
        // before its TYPE line; unhelped metrics keep just the TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        let help_idx = lines
            .iter()
            .position(|l| *l == "# HELP scan_probes Probes sent per site.")
            .unwrap_or_else(|| panic!("missing HELP line: {text}"));
        assert_eq!(lines.get(help_idx + 1), Some(&"# TYPE scan_probes counter"));
        assert_eq!(
            text.matches("# HELP").count(),
            1,
            "HELP must appear once per name run: {text}"
        );
        assert!(text.contains("# TYPE queue_depth gauge"), "{text}");
    }

    #[test]
    fn prometheus_help_escapes_backslashes_and_newlines() {
        let mut r = Registry::new();
        r.counter_add("c", &[], 1);
        let mut help = BTreeMap::new();
        help.insert("c".to_owned(), "path C:\\scan\nsecond line".to_owned());
        let text = r.to_prometheus_text(&help);
        assert!(
            text.contains("# HELP c path C:\\\\scan\\nsecond line"),
            "help not escaped: {text}"
        );
        // The escaped help must stay a single physical line.
        let help_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP")).collect();
        assert_eq!(help_lines.len(), 1, "{text}");
    }
}
