//! Metric collection and the output format: one human-readable line per
//! metric (name, value, unit, sample count), then the result as a single
//! JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
/// Must match `end_to_end` in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("msips", "Minstr/s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("goodput_share", "share"),
];

/// The models in `hidisc::Model::ALL` order, named as in the fig10 CSV
/// header.
pub const MODELS: [&str; 4] = ["superscalar", "cp_ap", "cp_cmp", "hidisc"];

/// Per-layer metrics, reported by every workload with tracing on (zero
/// where a workload bypasses the layer). Must match `per_layer` in
/// BENCHMARK.json.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("workloads.gen_s".into(), "s"),
        ("isa.assemble_s".into(), "s"),
        ("slicer.compile_s".into(), "s"),
        ("verify.verify_s".into(), "s"),
    ];
    for (prefix, unit) in [
        ("core.sim_s", "s"),
        ("core.ns_per_cycle", "ns"),
        ("core.ns_per_stepped_cycle", "ns"),
    ] {
        for m in MODELS {
            v.push((format!("{prefix}.{m}"), unit));
        }
    }
    for (name, unit) in [
        ("core.ff_skip_share", "share"),
        ("core.cycles", "count"),
        ("core.committed", "count"),
        ("core.cmp_threads", "count"),
        ("core.cmp_useful_prefetch_share", "share"),
        ("ooo.lod_events", "count"),
        ("ooo.queue_stall_cycles", "count"),
        ("mem.l1_accesses", "count"),
        ("mem.l1_miss_share", "share"),
        ("mem.l2_miss_share", "share"),
        ("bench.pool_idle_s", "s"),
        ("bench.render_s", "s"),
        ("bench.table2_err_pp", "pp"),
        ("serve.run_p50_ms", "ms"),
        ("serve.run_tail_ms", "ms"),
        ("serve.run_light_tail_ms", "ms"),
        ("serve.hit_tail_ms", "ms"),
        ("serve.sweep_p50_ms", "ms"),
        ("serve.post_hit_ms", "ms"),
        ("serve.post_submit_ms", "ms"),
        ("serve.post_program_ms", "ms"),
        ("serve.poll_ms", "ms"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.sim_run_ms", "ms"),
        ("serve.serialize_ms", "ms"),
        ("serve.worker_busy_share", "share"),
        ("serve.hit_share", "share"),
        ("serve.coalesced", "count"),
        ("serve.rejected", "count"),
        ("serve.warm_restores", "count"),
        ("sweep.points_cached", "count"),
        ("sweep.points_simulated", "count"),
        ("client.late_p99_ms", "ms"),
        ("trace.overhead_s", "s"),
        ("trace.accounted_share", "share"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// How many observations the value summarises.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (wrong results); any makes `correct` false.
    pub check_failures: Vec<String>,
    /// Free-form lines printed before the metrics (digests, shares).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                samples,
            },
        );
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes and every metric for humans, then the result
    /// line restricted to `names`. Every name must have been set.
    pub fn print(&self, names: &[(String, &str)]) {
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.check_failures {
            println!("# CHECK FAILED: {f}");
        }
        for (name, m) in &self.metrics {
            println!(
                "metric {name} = {} {} (n={})",
                fmt_num(m.value),
                m.unit,
                m.samples
            );
        }
        let error_rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "metric error_rate = {} share (n={})",
            fmt_num(error_rate),
            self.attempted
        );
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let m = self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert_eq!(m.unit, *unit, "unit of {name}");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_num(m.value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A finite number as JSON, with all its digits.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream: a stable digest that does not depend on
/// the standard library's hasher.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
