//! In-memory spans recorded by the benchmark around its own calls into
//! each crate's public functions.
//!
//! A span carries its layer-qualified name, the step it belongs to, the
//! rank that ran it (0 for single-threaded work) and its duration.
//! Spans stay in memory; the run reduces them to per-layer metrics.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified stage name, e.g. `kernels.encode`.
    pub name: &'static str,
    /// Step (or probe iteration) the call belongs to.
    pub step: u64,
    /// Rank whose thread ran the call.
    pub rank: usize,
    /// Wall seconds.
    pub secs: f64,
}

/// Spans of one run, in recording order.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records `f` as a span of `name` on `rank` at `step`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        step: u64,
        rank: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(name, step, rank, t0.elapsed().as_secs_f64());
        out
    }

    /// Records a span measured by the caller.
    pub fn record(&mut self, name: &'static str, step: u64, rank: usize, secs: f64) {
        self.spans.push(Span {
            name,
            step,
            rank,
            secs,
        });
    }

    /// Appends every span of `other`.
    pub fn extend(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Durations of every single call to `name` on `rank`.
    pub fn calls(&self, name: &str, rank: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rank == rank)
            .map(|s| s.secs)
            .collect()
    }

    /// Per-step totals of `name` on `rank`, one value per step that
    /// called it.
    pub fn per_step(&self, name: &str, rank: usize) -> Vec<f64> {
        let mut out: Vec<(u64, f64)> = Vec::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.rank == rank)
        {
            match out.last_mut() {
                Some((step, total)) if *step == s.step => *total += s.secs,
                _ => out.push((s.step, s.secs)),
            }
        }
        out.into_iter().map(|(_, t)| t).collect()
    }

    /// Sum of every span on `rank` at `step`: the step's stage sum.
    pub fn stage_sum(&self, step: u64, rank: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.step == step && s.rank == rank)
            .map(|s| s.secs)
            .sum()
    }
}
