//! Every metric the benchmark reports, by name and unit, and the collector
//! that refuses to emit anything else. `BENCHMARK.json` declares the same
//! two lists; a test keeps them equal.

use std::collections::BTreeMap;

/// Metrics a user of `xsort` sees, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mb_s", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("logical_ios", "blocks"),
    ("setup_s", "s"),
];

/// Metrics of single layers, from the traced run. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The calls `xsort sort` makes, in order, mirrored in-process.
    ("cli.read_input_ms", "ms"),
    ("baseline.stage_input_ms", "ms"),
    ("core.sort_xml_extent_ms", "ms"),
    ("baseline.sort_xml_extent_ms", "ms"),
    ("core.to_recs_ms", "ms"),
    ("baseline.to_recs_ms", "ms"),
    ("xml.rec_emit_ms", "ms"),
    ("xml.events_to_xml_ms", "ms"),
    ("cli.write_output_ms", "ms"),
    ("trace.coverage", "ratio"),
    // The fused sort split into separate calls on the same bytes.
    ("xml.parse_events_ms", "ms"),
    ("xml.events_to_recs_ms", "ms"),
    ("xml.rec_encode_ms", "ms"),
    ("core.sort_rec_extent_ms", "ms"),
    ("baseline.sort_rec_extent_ms", "ms"),
    ("extmem.disk_replay_ms", "ms"),
    // Exact counts of the mirrored sort.
    ("extmem.io.input_read", "blocks"),
    ("extmem.io.data_stack", "blocks"),
    ("extmem.io.path_stack", "blocks"),
    ("extmem.io.run_write", "blocks"),
    ("extmem.io.run_read", "blocks"),
    ("extmem.io.sort_scratch", "blocks"),
    ("extmem.io.output_write", "blocks"),
    ("core.subtree_sorts", "count"),
    ("core.internal_sorts", "count"),
    ("core.external_sorts", "count"),
    ("core.degenerate_merges", "count"),
    ("baseline.passes", "count"),
    ("baseline.initial_runs", "count"),
    ("baseline.fan_in", "count"),
    ("baseline.pathed_mb", "MB"),
    ("xml.records", "count"),
    // The daemon, seen from the client and from its replies.
    ("net.ping_ms_p50", "ms"),
    ("net.submit_ms_p50", "ms"),
    ("net.wait_ms_p50", "ms"),
    ("net.fetch_ms_p50", "ms"),
    ("server.json_parse_submit_ms", "ms"),
    ("server.json_parse_chunk_ms", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("core.job_sort_ms_p50", "ms"),
    ("server.conns_per_job", "count"),
    ("server.requests_per_job", "count"),
    ("trace.overhead", "ratio"),
];

/// Metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`; it must be declared in one of the two lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared in metrics.rs");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The values of `declared`, in declaration order; an error names any
    /// declared metric that was not set or is not a finite number.
    pub fn select(&self, declared: &[(&'static str, &'static str)]) -> Result<Vec<Row>, String> {
        declared
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(value) if value.is_finite() => Ok(Row { name, value, unit }),
                Some(value) => Err(format!("metric {name} came out as {value}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The declared unit of `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_server::json::{parse, Value};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn emitted_metrics_are_exactly_those_benchmark_json_declares() {
        assert_eq!(owned(END_TO_END), declared_in_benchmark_json("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared_in_benchmark_json("per_layer"));
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "{name} must match [A-Za-z0-9_.-]+");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "metric names are used once");
    }

    #[test]
    fn select_reports_missing_metrics_and_keeps_order() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.01);
        m.set("throughput_mb_s", 20.0);
        let err = m.select(END_TO_END).unwrap_err();
        assert!(err.contains("peak_rss_mb"), "{err}");
        let rows = m.select(&[("throughput_mb_s", "MB/s"), ("setup_s", "s")]).unwrap();
        assert_eq!(rows[0], Row { name: "throughput_mb_s", value: 20.0, unit: "MB/s" });
        assert_eq!(rows[1].name, "setup_s");
        m.set("setup_s", f64::NAN);
        assert!(m.select(&[("setup_s", "s")]).is_err(), "NaN is not valid JSON");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("made_up_ms", 1.0);
    }
}
