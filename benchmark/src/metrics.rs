//! The benchmark's vocabulary — workload names, end-to-end and per-layer
//! metric definitions (mirrored one-to-one by `BENCHMARK.json`, which a
//! test pins) — plus the percentile arithmetic and the one-line JSON
//! result the driver reads.

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; read only by the test that pins
    /// `BENCHMARK.json` to these tables.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

pub const WORKLOADS: [&str; 4] = [
    "gate_f64_m2",
    "gate_approx38_m3",
    "serve_bitwise16",
    "wire_adder4",
];

/// What a user of the system sees; printed by every untraced run.
pub const END_TO_END: [MetricDef; 4] = [
    lower("op_ms_p50", "ms"),
    higher("ops_per_s", "1/s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// The layer ledger; printed by every traced run. The layer is the name's
/// first dotted component and equals the library module it measures
/// (`host`, `tail` and `trace` describe the run itself).
pub const PER_LAYER: [MetricDef; 73] = [
    lower("fft.f64.forward_us", "us"),
    lower("fft.f64.backward_us", "us"),
    lower("fft.approx38.forward_us", "us"),
    lower("fft.approx38.backward_us", "us"),
    lower("fft.transforms_per_gate.m2", "count"),
    lower("fft.transforms_per_gate.m3", "count"),
    lower("tgsw.extprod_us.f64_m2", "us"),
    lower("tgsw.extprod_us.approx38_m3", "us"),
    lower("tgsw.nonfft_share.f64_m2", "ratio"),
    lower("tgsw.nonfft_share.approx38_m3", "ratio"),
    lower("bku.bundle_us.f64_m2", "us"),
    lower("bku.bundle_us.approx38_m3", "us"),
    lower("bku.steps.m2", "count"),
    lower("bku.steps.m3", "count"),
    lower("bku.key_mb.m2", "MB"),
    lower("bku.key_mb.m3", "MB"),
    lower("bku.keygen_s.f64_m2", "s"),
    lower("bku.keygen_s.approx38_m3", "s"),
    lower("bootstrap.blind_rotate_ms.f64_m2", "ms"),
    lower("bootstrap.blind_rotate_ms.approx38_m3", "ms"),
    lower("bootstrap.unattributed_share.f64_m2", "ratio"),
    lower("bootstrap.unattributed_share.approx38_m3", "ratio"),
    lower("keyswitch.switch_ms", "ms"),
    lower("keyswitch.key_mb", "MB"),
    lower("gates.apply_ms.f64_m2", "ms"),
    lower("gates.apply_ms.approx38_m3", "ms"),
    lower("gates.unattributed_share.f64_m2", "ratio"),
    lower("gates.unattributed_share.approx38_m3", "ratio"),
    lower("batch.task_overhead_us", "us"),
    higher("batch.scaling_w2", "ratio"),
    lower("circuit.execute_ms.adder4", "ms"),
    lower("circuit.execute_ms.bitwise16", "ms"),
    lower("circuit.bootstraps.adder4", "count"),
    lower("circuit.waves.adder4", "count"),
    lower("circuit.bootstraps.bitwise16", "count"),
    lower("circuit.waves.bitwise16", "count"),
    lower("server.submit_wait_ms.adder4", "ms"),
    lower("server.op_ms.bitwise16", "ms"),
    lower("server.overhead_share.adder4", "ratio"),
    lower("server.overhead_share.bitwise16", "ratio"),
    lower("server.dispatches_per_op.adder4", "count"),
    lower("server.dispatches_per_op.bitwise16", "count"),
    higher("server.slot_utilization", "ratio"),
    lower("server.not_completed", "count"),
    lower("analyze.analyze_us.adder4", "us"),
    lower("analyze.equiv_proof_us.adder4", "us"),
    lower("analyze.equiv_nodes.adder4", "count"),
    lower("packing.pack_us_per_bit", "us"),
    lower("packing.extract_bit_ms", "ms"),
    lower("codec.submit_bytes.adder4", "bytes"),
    lower("codec.outcome_bytes.adder4", "bytes"),
    lower("codec.submit_decode_us", "us"),
    lower("codec.outcome_encode_us", "us"),
    lower("session.op_ms", "ms"),
    lower("session.submit_ms", "ms"),
    lower("session.wait_ms", "ms"),
    lower("session.decrypt_us", "us"),
    lower("session.wire_overhead_ms", "ms"),
    lower("session.unattributed_share", "ratio"),
    lower("accel.sim_gate_latency_us.m3", "us"),
    higher("accel.sim_gates_per_s.m3", "1/s"),
    higher("accel.sim_gates_per_s_per_w.m3", "1/s/W"),
    lower("host.slow_down", "ratio"),
    lower("host.probe_us_quiet", "us"),
    lower("host.probe_us_mean", "us"),
    lower("host.cpu_per_wall", "ratio"),
    lower("host.run_delay_share", "ratio"),
    lower("host.steal_share", "ratio"),
    higher("host.simd", "count"),
    lower("trace.overhead_share", "ratio"),
    lower("tail.op_ms_p90", "ms"),
    lower("tail.op_ms_p99", "ms"),
    higher("tail.samples", "count"),
];

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` with linear interpolation
/// between closest ranks, so `quantile(v, 0.5)` is the textbook median.
///
/// # Panics
///
/// Panics on an empty sample or a non-finite value: a metric computed from
/// nothing must not print as a number.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// What one run reports: verified-op counts and named metric values.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.metrics.iter().all(|(n, _)| *n != name),
            "metric {name} set twice"
        );
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} read before it was set"))
            .1
    }

    /// `correct` also demands every value be a finite number: a NaN from
    /// a division by an empty measurement is a broken run, not a metric.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The driver's result line: every metric of `defs`, in table order.
    ///
    /// # Panics
    ///
    /// Panics if the run did not produce exactly the metrics of `defs`.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        assert_eq!(
            self.metrics.len(),
            defs.len(),
            "run produced a different metric set than its table"
        );
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name);
                // JSON has no NaN/inf; `correct` is already false for them.
                let v = if v.is_finite() { v } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn quantiles_of_hand_made_samples() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        // Eleven samples 0..=10: rank = q * 10 exactly.
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert!((quantile(&v, 0.99) - 9.9).abs() < 1e-12);
    }

    /// The names inside one top-level array of `BENCHMARK.json`, with their
    /// `unit` and `better` where the entries carry them. The file is flat
    /// enough (no nested arrays, no brackets in strings) for a scan.
    fn section(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = start + json[start..].find('[').unwrap();
        let close = open + json[open..].find(']').unwrap();
        let field = |entry: &str, name: &str| -> String {
            let Some(at) = entry.find(&format!("\"{name}\"")) else {
                return String::new();
            };
            let rest = &entry[at + name.len() + 2..];
            let from = rest.find('"').unwrap() + 1;
            let to = from + rest[from..].find('"').unwrap();
            rest[from..to].to_string()
        };
        json[open + 1..close]
            .split('}')
            .filter(|e| e.contains("\"name\""))
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let json = include_str!("../../BENCHMARK.json");
        let workloads: Vec<String> = section(json, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(section(json, "end_to_end"), table(&END_TO_END));
        assert_eq!(section(json, "per_layer"), table(&PER_LAYER));
    }

    /// The build measured is the build shipped: this package repeats the
    /// root workspace's release profile, which it cannot inherit.
    #[test]
    fn release_profile_equals_the_repositorys() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .map(str::trim)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the root manifest lost its release profile"
        );
        assert_eq!(release_profile(include_str!("../Cargo.toml")), root);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(ok(name, "_.-", 64), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(d.unit, "_/%.-", 16), "bad unit {}", d.unit);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_carries_every_metric_and_flags_failures() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Default::default()
        };
        r.set("op_ms_p50", 1.5);
        r.set("ops_per_s", 2.0);
        r.set("setup_s", 0.25);
        r.set("peak_rss_mb", 80.0);
        let line = r.to_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        r.failed = 1;
        assert!(r.to_json(&END_TO_END).starts_with("{\"correct\": false"));
    }
}
