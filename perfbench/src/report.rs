//! Metric tables and the two output lines: a detail object, then the result.

use microrec_json::Json;

use crate::gates::Gate;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sat_qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("slo_qps", "1/s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("runtime.submit_us_p50", "us"),
    ("runtime.submit_us_p99", "us"),
    ("runtime.queue_len_p99", "count"),
    ("runtime.mean_batch", "count"),
    ("runtime.deadline_close_share", "ratio"),
    ("runtime.service_p50_ms", "ms"),
    ("runtime.service_p99_ms", "ms"),
    ("runtime.gen_late_ms_p99", "ms"),
    ("runtime.gen_late_share_1ms", "ratio"),
    ("runtime.obs_error_ms_p99", "ms"),
    ("engine.batch_us", "us"),
    ("engine.unattributed_us", "us"),
    ("embedding.gather_us", "us"),
    ("embedding.self_us_per_item", "us"),
    ("embedding.cache_hit_rate", "ratio"),
    ("embedding.bytes_from_memory_per_item", "B"),
    ("embedding.cold_reads_per_item", "count"),
    ("embedding.prefetch_hit_share", "ratio"),
    ("embedding.gather_gbs", "GB/s"),
    ("embedding.ceiling_gbs", "GB/s"),
    ("memsim.lookup_us_per_item", "us"),
    ("dnn.quantize_us", "us"),
    ("dnn.fc0_us", "us"),
    ("dnn.fc1_us", "us"),
    ("dnn.fc2_us", "us"),
    ("dnn.fc3_us", "us"),
    ("dnn.fc0_gmacs", "GMAC/s"),
    ("dnn.fc1_gmacs", "GMAC/s"),
    ("dnn.fc2_gmacs", "GMAC/s"),
    ("dnn.fc3_gmacs", "GMAC/s"),
    ("dnn.ceiling_gmacs", "GMAC/s"),
    ("setup.placement_s", "s"),
    ("setup.build_s", "s"),
    ("setup.start_s", "s"),
    ("overhead.sat_qps", "1/s"),
    ("overhead.p50_ms", "ms"),
    ("overhead.p99_ms", "ms"),
    ("trace.replay_mismatches", "count"),
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    metrics: Vec<(&'static str, f64)>,
    /// Extra labelled figures for the detail line.
    pub detail: Vec<(String, Json)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn note(&mut self, key: impl Into<String>, value: Json) {
        self.detail.push((key.into(), value));
    }

    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|g| g.passed)
    }

    /// The result object for the metric table of this run's mode; a
    /// metric the run did not set reports 0.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                // A non-finite value (e.g. a latency quantile that landed on
                // a failed request) is reported as the largest finite one.
                let value = if value.is_finite() { value } else { f64::MAX };
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted.max(1))),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_compact()
    }

    pub fn gates_json(&self) -> Json {
        Json::Arr(
            self.gates
                .iter()
                .map(|g| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(g.name.into())),
                        ("passed".into(), Json::Bool(g.passed)),
                        ("detail".into(), Json::Str(g.detail.clone())),
                    ])
                })
                .collect(),
        )
    }
}

pub fn num(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { f64::MAX })
}
