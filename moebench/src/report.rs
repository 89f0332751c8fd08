//! What a run reports: named metrics with units, operation counts, and
//! the run header, all printed as JSON lines.

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Operations attempted and failed, with a reason per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations run (train steps, served requests, probe steps).
    pub attempted: u64,
    /// Operations that returned a typed error or failed their oracle.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; a false `ok` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Marks an already counted operation as failed.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.reasons.push(reason);
    }
}

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tokens_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("loss_final", "mse"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order. A
/// workload that does not run a layer leaves its metrics at 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.forward_ms_p50", "ms"),
    ("core.backward_ms_p50", "ms"),
    ("core.update_ms_p50", "ms"),
    ("gate.route_us_p50", "us"),
    ("gate.bin_max_over_mean", "ratio"),
    ("kernels.encode_us_p50", "us"),
    ("kernels.decode_us_p50", "us"),
    ("kernels.bwd_us_p50", "us"),
    ("experts.ffn_ms_p50", "ms"),
    ("experts.ffn_bwd_ms_p50", "ms"),
    ("experts.ffn_gflops", "GFLOP/s"),
    ("experts.slice_ms_p50", "ms"),
    ("experts.slice_mb_per_step", "MB"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("comm.launch_us_p50", "us"),
    ("comm.a2a_us_p50", "us"),
    ("comm.a2a_calls_per_step", "count"),
    ("comm.a2a_elems_per_step", "count"),
    ("serve.pump_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.engine_overhead_frac", "ratio"),
    ("serve.rows_per_step", "count"),
    ("serve.slot_fill_frac", "ratio"),
    ("serve.pad_rows_frac", "ratio"),
    ("rt.pool_jobs_per_step", "count"),
    ("rt.pool_worker_frac", "ratio"),
    ("rt.pool_steals_per_step", "count"),
    ("rt.arena_hit_frac", "ratio"),
    ("rt.arena_evictions", "count/step"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting.
    pub tally: Tally,
    /// Metrics of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// An outcome listing every metric of the run's kind at 0.
    pub fn new(trace: bool) -> Self {
        let table = if trace { PER_LAYER } else { END_TO_END };
        Outcome {
            tally: Tally::default(),
            metrics: table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                })
                .collect(),
        }
    }

    /// Sets a listed metric.
    ///
    /// # Panics
    ///
    /// On a name the run's table does not list: a bug in this benchmark.
    pub fn put(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not listed for this run"));
        m.value = value;
    }

    /// The value of a listed metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every operation and oracle passed and every value is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        )
    }
}

/// The run header printed just before the result: host, build and run
/// settings recorded beside the metrics, and the share of CPU time the
/// hypervisor took from this host while the run lasted (`steal_frac`),
/// which explains a run slower than its neighbours.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool, steal_frac: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"header\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {cores}, \"commit\": \"{}\", \"date\": \"{}\", \
         \"TUTEL_THREADS\": \"{}\", \"TUTEL_SIMD\": \"{}\", \"simd_mode\": \"{:?}\", \
         \"pool_workers\": {}, \"steal_frac\": {steal_frac:.4}}}}}",
        commit(),
        utc_date(),
        env("TUTEL_THREADS"),
        env("TUTEL_SIMD"),
        tutel_tensor::simd_mode(),
        tutel_rt::pool_stats().workers,
    )
}

/// The checked-out commit, or `unknown` outside a git work tree.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Today's UTC date as `YYYY-MM-DD`.
fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (proleptic Gregorian), days since 1970-01-01.
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Share of the host's CPU time the hypervisor took (steal) since the
/// meter started, from `/proc/stat`; 0 where the counter is missing.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter {
    total: u64,
    steal: u64,
}

impl StealMeter {
    /// Starts measuring now.
    pub fn start() -> Self {
        let (total, steal) = cpu_ticks();
        StealMeter { total, steal }
    }

    /// Steal share of the CPU ticks since [`StealMeter::start`].
    pub fn frac(&self) -> f64 {
        let (total, steal) = cpu_ticks();
        (steal - self.steal) as f64 / (total - self.total).max(1) as f64
    }
}

/// Cumulative (total, steal) CPU ticks of the host.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
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
