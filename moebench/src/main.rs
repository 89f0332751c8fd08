//! Wall-clock MoE benchmark.
//!
//! ```text
//! cargo run --release --manifest-path moebench/Cargo.toml -- \
//!     --workload <train|serve_tiny|serve_wide> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process. `--trace 0` measures the end-to-end
//! metrics with nothing traced; `--trace 1` records spans around the
//! benchmark's own calls into each crate and prints the per-layer
//! metrics. Both check every output against its oracle. The last stdout
//! line is the result object; the line before it is the run header.
//! The process exits 0 only when every operation and oracle passed.
//! See `README.md` beside this crate for why each workload exists.

mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

use report::Outcome;
use serve::ServeSpec;
use train::TrainSpec;
use tutel_rt::{arena, pool_stats, ArenaStats, PoolStats};

/// Error type of a run: any typed error from the crates under test.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPEATS: usize = 9;

/// Seed of every model's weights. The model is part of the workload's
/// definition; `--seed` draws only its inputs, so a metric's spread
/// across seeds reflects the inputs and the host, not the weights.
pub const MODEL_SEED: u64 = 7;

/// Lowest and highest stage-sum share of the measured step the traced
/// run accepts.
pub const COVERAGE_BOUNDS: (f64, f64) = (0.95, 1.05);

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

/// A benchmarked workload.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// A `MoeLayer` train step.
    Train(TrainSpec),
    /// Closed-loop serving.
    Serve(ServeSpec),
}

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "train" => Some(Workload::Train(TrainSpec::standard())),
            "serve_tiny" => Some(Workload::Serve(ServeSpec::tiny())),
            "serve_wide" => Some(Workload::Serve(ServeSpec::wide())),
            _ => None,
        }
    }

    /// Runs the workload and applies the stage coverage check to a
    /// traced run.
    pub fn run(&self, run: &Run) -> Res<Outcome> {
        let mut o = match self {
            Workload::Train(spec) => train::run(spec, run)?,
            Workload::Serve(spec) => serve::run(spec, run)?,
        };
        if let (true, Some(v)) = (run.trace, o.get("trace.coverage_frac")) {
            let (lo, hi) = COVERAGE_BOUNDS;
            if !(lo..=hi).contains(&v) {
                o.tally.fail(format!(
                    "stage sum is {v:.4} of the measured step, outside {lo}..{hi}"
                ));
            }
        }
        Ok(o)
    }
}

/// Change in the `rt` pool and arena counters across measured steps.
#[derive(Debug, Default, Clone, Copy)]
pub struct RtDelta {
    pool: PoolStats,
    arena: ArenaStats,
}

impl RtDelta {
    /// Current cumulative counters.
    pub fn snapshot() -> Self {
        RtDelta {
            pool: pool_stats(),
            arena: arena().stats(),
        }
    }

    /// Adds the counters' growth since `before`.
    pub fn add_since(&mut self, before: &RtDelta) {
        let now = RtDelta::snapshot();
        self.pool.jobs += now.pool.jobs - before.pool.jobs;
        self.pool.chunks += now.pool.chunks - before.pool.chunks;
        self.pool.worker_chunks += now.pool.worker_chunks - before.pool.worker_chunks;
        self.pool.steals += now.pool.steals - before.pool.steals;
        self.arena.hits += now.arena.hits - before.arena.hits;
        self.arena.misses += now.arena.misses - before.arena.misses;
        self.arena.evictions += now.arena.evictions - before.arena.evictions;
    }
}

/// The `rt.*` per-layer metrics over `steps` measured steps.
pub fn rt_metrics(o: &mut Outcome, d: &RtDelta, steps: usize) {
    let steps = steps.max(1) as f64;
    o.put("rt.pool_jobs_per_step", d.pool.jobs as f64 / steps);
    o.put("rt.pool_worker_frac", d.pool.utilization());
    o.put("rt.pool_steals_per_step", d.pool.steals as f64 / steps);
    o.put("rt.arena_hit_frac", d.arena.hit_rate());
    o.put("rt.arena_evictions", d.arena.evictions as f64 / steps);
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(bad("whole seconds in 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("moebench: {e}");
            eprintln!("usage: moebench --workload <train|serve_tiny|serve_wide> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::by_name(&args.workload) else {
        eprintln!("moebench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let steal = report::StealMeter::start();
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
    };
    let outcome = workload.run(&run).unwrap_or_else(|e| {
        // A typed error aborts the workload: one attempted, failed op.
        let mut o = Outcome::new(run.trace);
        o.tally.check(false, || format!("aborted: {e}"));
        o
    });
    for reason in &outcome.tally.reasons {
        eprintln!("moebench: FAILED: {reason}");
    }
    println!(
        "{}",
        report::header(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            steal.frac()
        )
    );
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric listed under `section` in the
    /// repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let end = text[start..].find(']').unwrap() + start;
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
            entry[at..at + entry[at..].find('"').unwrap()].to_string()
        };
        text[start..end]
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    /// The three workloads at shapes small enough for a test; the
    /// sample-count floors still apply, so every percentile is real.
    fn small_workloads() -> Vec<(&'static str, Workload)> {
        let train = TrainSpec {
            model_dim: 16,
            hidden_dim: 32,
            experts: 4,
            tokens: 64,
            ..TrainSpec::standard()
        };
        let tiny = ServeSpec::tiny();
        let wide = ServeSpec {
            slots: 4,
            users: 8,
            tokens_max: 4,
            ..ServeSpec::wide()
        };
        vec![
            ("train", Workload::Train(train)),
            ("serve_tiny", Workload::Serve(tiny)),
            ("serve_wide", Workload::Serve(wide)),
        ]
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let want = declared(section);
            assert!(!want.is_empty());
            for (name, w) in small_workloads() {
                let run = Run {
                    seed: 5,
                    seconds: 0.01,
                    trace,
                };
                let o = w.run(&run).unwrap_or_else(|e| panic!("{name}: {e}"));
                let got: Vec<(String, String)> = o
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, want, "{name} {section}");
                if !trace {
                    assert!(
                        o.metrics.iter().all(|m| m.value > 0.0),
                        "{name}: {:?}",
                        o.metrics
                    );
                }
                assert!(o.tally.attempted > 0, "{name} {section}");
                // At toy shapes a probe stage can be too short to time
                // against its step; every other check must pass.
                let real: Vec<_> = o
                    .tally
                    .reasons
                    .iter()
                    .filter(|r| !r.starts_with("stage sum"))
                    .collect();
                assert!(real.is_empty(), "{name} {section}: {real:?}");
                assert!(o.to_json().starts_with("{\"correct\": "));
            }
        }
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload train --seed 1 --seconds 5 --trace 1")).is_ok());
        assert!(parse_args(&args("--workload train --seed 1 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&args("--workload train --seed x --seconds 5 --trace 1")).is_err());
        assert!(parse_args(&args("--workload train --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&args("--workload train --seed 1 --seconds 5")).is_err());
        assert!(Workload::by_name("nope").is_none());
    }
}
