//! The declared metric names, their units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics of the untraced run, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_keys_per_s", "keys/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("build_s", "s"),
    ("weighted_fpr", "ratio"),
    ("bits_per_key", "bits"),
    ("success_frac", "ratio"),
];

/// Per-layer metrics of the traced run, named by module.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.gen_s", "s"),
    ("hashing.hash_ns_per_key", "ns/key"),
    ("core.tpjo.collision_keys", "count"),
    ("core.tpjo.optimized", "count"),
    ("core.tpjo.failed", "count"),
    ("core.tpjo.requeued", "count"),
    ("core.tpjo.optimized_frac", "ratio"),
    ("core.hash_expressor.entries", "count"),
    ("core.hash_expressor.fill_ratio", "ratio"),
    ("core.habf.round2_frac", "ratio"),
    ("core.habf.member_ns_per_key", "ns/key"),
    ("core.habf.nonmember_ns_per_key", "ns/key"),
    ("core.registry.encode_s", "s"),
    ("core.registry.load_mmap_s", "s"),
    ("core.registry.load_owned_s", "s"),
    ("probe.batch_ns_per_key", "ns/key"),
    ("probe.scalar_ns_per_key", "ns/key"),
    ("probe.batch_over_scalar", "ratio"),
    ("core.tenant.contains_batch_ns_per_key", "ns/key"),
    ("core.tenant.record_fp_ns", "ns"),
    ("core.tenant.rebuild_s", "s"),
    ("core.tenant.rebuilds", "count"),
    ("core.tenant.hints", "count"),
    ("serve.protocol.decode_ns_per_frame", "ns"),
    ("serve.protocol.encode_ns_per_frame", "ns"),
    ("serve.protocol.request_bytes_per_key", "bytes"),
    ("serve.protocol.reply_bytes_per_key", "bytes"),
    ("serve.reactor.ping_rtt_us", "us"),
    ("serve.reactor.wait_us", "us"),
    ("serve.reactor.stall_max_us", "us"),
    ("serve.reactor.busy_refusals", "count"),
    ("client.cpu_share", "ratio"),
    ("client.send_ns_per_frame", "ns"),
    ("client.recv_ns_per_frame", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Operation accounting: every attempt, and every failure among them
/// (false negatives, ERROR or BUSY replies, timeouts, wrong answer
/// counts, wrong answers).
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub false_negatives: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.false_negatives += other.false_negatives;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Values measured by one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Measured {
    values: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Sets a metric; the name must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in the metric tables"
        );
        self.values.insert(name, value);
    }

    /// The result line: exactly the declared metrics of the run's mode.
    /// A metric the run did not produce is reported as 0; a non-finite
    /// value is reported as 0 and marks the run incorrect.
    pub fn result_line(&self, trace: bool, correct: bool, ops: Ops) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut finite = true;
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let mut v = self.values.get(name).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    finite = false;
                    v = 0.0;
                }
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            correct && finite,
            ops.attempted.max(1),
            ops.failed,
            body.join(",")
        )
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names and units as `BENCHMARK.json` declares them, read with
    /// a minimal scan (the file is flat JSON written by hand).
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let open = start + text[start..].find('[').expect("array");
        let close = open + text[open..].find(']').expect("array end");
        text[open..close]
            .split('{')
            .skip(1)
            .map(|obj| {
                let field = |key: &str| {
                    let at = obj.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                    let rest = &obj[at..];
                    let q = rest.find('"').expect("value quote") + 1;
                    let end = q + rest[q..].find('"').expect("closing quote");
                    rest[q..end].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_the_declared_benchmark() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_carries_exactly_the_declared_names() {
        let mut m = Measured::default();
        m.set("setup_s", 1.5);
        m.set("client.cpu_share", 0.5);
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = m.result_line(trace, true, Ops::default());
            let metrics = &line[line.find("\"metrics\":").expect("metrics key")..];
            // Each name is the last quoted string before a `{"value"`.
            let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
            let names: Vec<&str> = chunks[..chunks.len() - 1]
                .iter()
                .filter_map(|chunk| chunk.rsplit('"').nth(1))
                .collect();
            let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want);
        }
    }

    #[test]
    fn non_finite_values_mark_the_run_incorrect() {
        let mut m = Measured::default();
        m.set("setup_s", f64::NAN);
        let line = m.result_line(false, true, Ops::default());
        assert!(line.starts_with("{\"correct\":false,"), "{line}");
    }
}
