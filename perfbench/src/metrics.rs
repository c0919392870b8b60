//! The metric names, units and bounds this benchmark reports: the
//! contract `BENCHMARK.json` records. An untraced run reports every
//! [`END_TO_END`] metric, a traced run every [`PER_LAYER`] metric.

use std::collections::BTreeMap;

/// An end-to-end metric: `(name, unit, better, bound)`. `bound` is the
/// share of the parent's median by which it may worsen.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const END_TO_END: [EndToEnd; 7] = [
    ("bfs_ms_p50", "ms", "lower", 0.25),
    ("bfs_gteps", "GTEPS", "higher", 0.25),
    ("serve_goodput_qps", "qps", "higher", 0.15),
    ("pagerank_s", "s", "lower", 0.25),
    ("sssp_ms_p50", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.15),
];

pub const PER_LAYER: [PerLayer; 53] = [
    ("simd.min_add_ns", "ns", "lower"),
    ("simd.gather_ns", "ns", "lower"),
    ("simd.blend_ns", "ns", "lower"),
    ("chunk_mv.ns_per_cell", "ns", "lower"),
    ("chunk_mv.gbps_computed", "GB/s", "higher"),
    ("build.slimsell_s", "s", "lower"),
    ("build.dep_graph_s", "s", "lower"),
    ("build.weighted_s", "s", "lower"),
    ("build.server_start_s", "s", "lower"),
    ("storage.slimsell_mb", "MB", "lower"),
    ("storage.sell_mb", "MB", "lower"),
    ("storage.padding_frac", "ratio", "lower"),
    // Reported without a bound: CPU steal on a shared host stretches the
    // slowest BFS runs, and on road this tail's spread across ten seeds
    // reached 0.4 of the median.
    ("bfs_ms_p90", "ms", "lower"),
    ("bfs.iters", "count", "lower"),
    ("bfs.col_steps", "count", "lower"),
    ("bfs.cells", "count", "lower"),
    ("bfs.activations", "count", "lower"),
    ("bfs.worklist_iters", "count", "lower"),
    ("bfs.mode_switches", "count", "lower"),
    ("bfs.lane_util", "ratio", "higher"),
    ("bfs.skip_frac", "ratio", "higher"),
    ("bfs.full_ms", "ms", "lower"),
    ("bfs.worklist_ms", "ms", "lower"),
    ("bfs.outside_ms", "ms", "lower"),
    ("bfs.iter_us_p50", "us", "lower"),
    ("bfs.ms_p50_1t", "ms", "lower"),
    ("bfs.par_eff", "ratio", "higher"),
    ("msbfs.batch1_ms", "ms", "lower"),
    ("msbfs.batch8_ms", "ms", "lower"),
    ("msbfs.col_steps", "count", "lower"),
    // Serve latencies are reported here, without a bound: on a host with
    // two shared vCPUs, how fast an idle vCPU wakes for each query
    // dominates them, and their spread across ten seeds (0.2 to 0.7 of
    // the median) exceeds any usable bound.
    ("serve_lo_p50_ms", "ms", "lower"),
    ("serve_lo_p90_ms", "ms", "lower"),
    ("serve_hi_p50_ms", "ms", "lower"),
    ("serve_hi_p99_ms", "ms", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_fill", "count", "higher"),
    ("serve.mask_splits", "count", "lower"),
    ("serve.lane_util", "ratio", "higher"),
    ("serve.served", "count", "higher"),
    ("serve.expired", "count", "lower"),
    ("serve.cancelled", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.gen_lag_ms", "ms", "lower"),
    ("serve.backlog_end", "count", "lower"),
    ("pagerank.iters", "count", "lower"),
    ("pagerank.ns_per_arc_iter", "ns", "lower"),
    ("sssp.iters", "count", "lower"),
    ("sssp.col_steps", "count", "lower"),
    ("sssp.ns_per_cell", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
];

/// The per-layer metrics that depend only on the workload and the seed,
/// not on timing: two traced runs of one seed must report them bit for
/// bit. Serve batch counts depend on timing and are not among them.
pub const EXACT: [&str; 15] = [
    "bfs.iters",
    "bfs.col_steps",
    "bfs.cells",
    "bfs.activations",
    "bfs.worklist_iters",
    "bfs.mode_switches",
    "bfs.lane_util",
    "bfs.skip_frac",
    "msbfs.col_steps",
    "sssp.iters",
    "sssp.col_steps",
    "pagerank.iters",
    "storage.slimsell_mb",
    "storage.sell_mb",
    "storage.padding_frac",
];

/// Metric values collected by one run, by name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.0.insert(name, value).is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line over `(name, unit)` pairs.
    /// Panics if a listed metric was not measured.
    pub fn to_json<'a>(&self, names: impl Iterator<Item = (&'a str, &'a str)>) -> String {
        let body: Vec<String> = names
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or_else(|| panic!("metric {name} not measured"));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The `name` values of the objects in one top-level array of
    /// `BENCHMARK.json`, in order.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better, bound) in END_TO_END {
            assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
            assert!(better == "lower" || better == "higher");
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(seen.insert(name), "{name} twice");
        }
        for (name, unit, better) in PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
            assert!(better == "lower" || better == "higher");
            assert!(seen.insert(name), "{name} twice");
        }
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.0 == name), "exact counter {name} not per-layer");
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3), "setup_s has the largest bound");
    }

    #[test]
    fn names_agree_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn values_serialize_in_the_listed_order() {
        let mut v = Values::default();
        v.set("b", 0.5);
        v.set("a", 1.25);
        assert_eq!(
            v.to_json([("a", "ms"), ("b", "s")].into_iter()),
            "{\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
    }
}
