//! The deterministic concurrency sweep: drives `tutel-comm`'s
//! scheduler-backed runtime (`feature = "check-sched"`) across a
//! seeded family of adversarial schedules per collective, comparing
//! every run bit-for-bit against the sequential reference and
//! reporting any deadlock, value corruption, or message leak as an
//! [`explore`](crate::explore) [`Finding`] carrying the seed that
//! replays it.
//!
//! The All-to-All sweeps drive the production primitive,
//! `ialltoall_v`, on both routes with uneven per-destination counts
//! (empty buffers included), alone and with two handles in flight,
//! against the ragged oracle [`ragged_all_to_all`].

use std::collections::HashSet;
use std::ops::Range;

use crate::explore::Finding;

use tutel_comm::runtime::Communicator;
use tutel_comm::sched::run_sched;
use tutel_comm::{linear_all_to_all, ragged_all_to_all, AllToAllAlgo, CommError, RankBuffers};
use tutel_simgpu::Topology;

/// Sweep parameters: the topology and how many seeds to explore.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    pub nnodes: usize,
    pub gpus_per_node: usize,
    pub seeds: u64,
    /// Elements each rank contributes per peer (the ragged sweeps
    /// vary it from 0 to `chunk + 1`).
    pub chunk: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        // The paper's minimal hierarchical case: 2 nodes × 2 GPUs.
        SweepConfig {
            nnodes: 2,
            gpus_per_node: 2,
            seeds: 128,
            chunk: 3,
        }
    }
}

/// Sweep outcome for one collective.
#[derive(Debug)]
pub struct CollectiveSweep {
    pub name: &'static str,
    /// Schedules executed (= seeds).
    pub schedules: u64,
    /// Distinct schedule signatures observed.
    pub distinct: usize,
    /// Schedule failures as framework findings (`rule` in
    /// {deadlock, mailbox-leak, message-leak, rank-error, corruption}).
    pub failures: Vec<Finding>,
}

impl CollectiveSweep {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn labeled(n: usize, chunk: usize, salt: usize) -> RankBuffers {
    (0..n)
        .map(|r| {
            (0..n * chunk)
                .map(|i| (salt * 100_000 + r * n * chunk + i) as f32)
                .collect()
        })
        .collect()
}

/// Per-rank ragged All-to-All sends: rank `r` sends
/// `(r + 2d + salt) % (chunk + 2)` labeled values to rank `d`, so
/// counts are uneven and some buffers on the wire are empty.
fn ragged(n: usize, chunk: usize, salt: usize) -> Vec<Vec<Vec<f32>>> {
    (0..n)
        .map(|r| {
            (0..n)
                .map(|d| {
                    (0..(r + 2 * d + salt) % (chunk + 2))
                        .map(|i| (salt * 100_000 + r * 1000 + d * 10 + i) as f32)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Judges one scheduled run against its oracle.
fn judge<T: PartialEq>(
    name: &'static str,
    seed: u64,
    results: &[Result<T, CommError>],
    report: &tutel_comm::sched::SchedReport,
    expect: &[T],
    failures: &mut Vec<Finding>,
) {
    if let Some(detail) = &report.deadlock {
        failures.push(Finding::new("deadlock", seed, format!("{name}: {detail}")));
        return;
    }
    for (rank, leaked) in &report.mailbox_leaks {
        failures.push(Finding::new(
            "mailbox-leak",
            seed,
            format!("{name}: rank {rank} ended with {leaked} parked message(s)"),
        ));
    }
    if report.undelivered > 0 {
        failures.push(Finding::new(
            "message-leak",
            seed,
            format!("{name}: {} message(s) never delivered", report.undelivered),
        ));
    }
    for (rank, res) in results.iter().enumerate() {
        match res {
            Err(e) => failures.push(Finding::new(
                "rank-error",
                seed,
                format!("{name}: rank {rank}: {e}"),
            )),
            Ok(got) if *got != expect[rank] => failures.push(Finding::new(
                "corruption",
                seed,
                format!(
                    "{name}: rank {rank} result diverged from the sequential reference \
                     (tag-collision style mixing)"
                ),
            )),
            Ok(_) => {}
        }
    }
}

/// Sweeps one collective across the `seeds` schedules.
fn sweep_one<T, F>(
    name: &'static str,
    cfg: &SweepConfig,
    seeds: Range<u64>,
    expect: &[T],
    collective: F,
) -> CollectiveSweep
where
    T: PartialEq + Send,
    F: Fn(&mut Communicator) -> Result<T, CommError> + Send + Sync,
{
    let topo = Topology::new(cfg.nnodes, cfg.gpus_per_node);
    let mut signatures = HashSet::new();
    let mut failures = Vec::new();
    let schedules = seeds.end - seeds.start;
    for seed in seeds {
        let (results, report) = run_sched(topo, seed, &collective);
        signatures.insert(report.signature);
        judge(name, seed, &results, &report, expect, &mut failures);
    }
    CollectiveSweep {
        name,
        schedules,
        distinct: signatures.len(),
        failures,
    }
}

/// A rank program issuing `ialltoall_v` of its row of `sends` over
/// `algo`, then waiting.
fn exchange(
    sends: &[Vec<Vec<f32>>],
    algo: AllToAllAlgo,
) -> impl Fn(&mut Communicator) -> Result<Vec<Vec<f32>>, CommError> + Send + Sync + '_ {
    move |c| c.ialltoall_v(sends[c.rank()].clone(), algo)?.wait(c)
}

/// Runs the full sweep: `ialltoall_v` on each route, two handles in
/// flight, and the two rings.
pub fn sweep_collectives(cfg: &SweepConfig) -> Vec<CollectiveSweep> {
    let topo = Topology::new(cfg.nnodes, cfg.gpus_per_node);
    let n = topo.world_size();

    let lin_in = ragged(n, cfg.chunk, 1);
    let lin_expect = ragged_all_to_all(&lin_in);
    let twodh_in = ragged(n, cfg.chunk, 2);
    let twodh_expect = ragged_all_to_all(&twodh_in);
    // Two handles in flight at once, one per route, waited in issue
    // order: their messages must never mix.
    let both_expect: Vec<_> = lin_expect
        .iter()
        .cloned()
        .zip(twodh_expect.iter().cloned())
        .collect();
    let both_in_flight = |c: &mut Communicator| {
        let rank = c.rank();
        let mut a = c.ialltoall_v(lin_in[rank].clone(), AllToAllAlgo::Linear)?;
        let b = c.ialltoall_v(twodh_in[rank].clone(), AllToAllAlgo::TwoDh)?;
        a.poll(c)?;
        Ok((a.wait(c)?, b.wait(c)?))
    };

    let gather_in: RankBuffers = (0..n)
        .map(|r| (0..cfg.chunk).map(|i| (r * 10 + i) as f32).collect())
        .collect();
    let gather_flat: Vec<f32> = gather_in.iter().flatten().copied().collect();
    let gather_expect: RankBuffers = vec![gather_flat; n];

    let reduce_in = labeled(n, cfg.chunk, 3);
    let mut reduce_sum = vec![0.0f32; n * cfg.chunk];
    for r in &reduce_in {
        for (o, v) in reduce_sum.iter_mut().zip(r) {
            *o += v;
        }
    }
    let reduce_expect: RankBuffers = vec![reduce_sum; n];

    let seeds = || 0..cfg.seeds;
    vec![
        sweep_one(
            "ialltoall_v/lin",
            cfg,
            seeds(),
            &lin_expect,
            exchange(&lin_in, AllToAllAlgo::Linear),
        ),
        sweep_one(
            "ialltoall_v/2dh",
            cfg,
            seeds(),
            &twodh_expect,
            exchange(&twodh_in, AllToAllAlgo::TwoDh),
        ),
        sweep_one("ialltoall_v/x2", cfg, seeds(), &both_expect, both_in_flight),
        sweep_one("all_gather", cfg, seeds(), &gather_expect, |c| {
            c.all_gather(&gather_in[c.rank()])
        }),
        sweep_one("all_reduce_sum", cfg, seeds(), &reduce_expect, |c| {
            c.all_reduce_sum(&reduce_in[c.rank()])
        }),
    ]
}

/// A hand-rolled linear All-to-All that (incorrectly) reuses one
/// fixed tag for every round — the canonical tag-collision bug the
/// monotone `fresh_tag` discipline exists to prevent.
fn manual_all_to_all(
    comm: &mut Communicator,
    input: &[f32],
    tag: u64,
) -> Result<Vec<f32>, CommError> {
    let n = comm.world_size();
    let rank = comm.rank();
    let chunk = input.len() / n;
    for peer in 0..n {
        if peer != rank {
            comm.send(peer, tag, input[peer * chunk..(peer + 1) * chunk].to_vec())?;
        }
    }
    let mut out = vec![0.0f32; input.len()];
    out[rank * chunk..(rank + 1) * chunk].copy_from_slice(&input[rank * chunk..(rank + 1) * chunk]);
    for src in 0..n {
        if src != rank {
            let payload = comm.recv(src, tag)?;
            out[src * chunk..(src + 1) * chunk].copy_from_slice(&payload);
        }
    }
    Ok(out)
}

/// Self-test for the checker: two back-to-back all-to-alls sharing a
/// tag MUST be caught mixing messages under some schedule. Returns
/// the sweep (whose failures carry the replayable seed) — an *empty*
/// failure list here means the checker has lost its teeth.
pub fn broken_tag_selftest(cfg: &SweepConfig) -> CollectiveSweep {
    broken_tag_sweep(cfg, 0..cfg.seeds)
}

/// Replays a single seed of the broken-tag program and reports
/// whether it failed — used to confirm a reported seed reproduces.
pub fn broken_tag_replay(cfg: &SweepConfig, seed: u64) -> Vec<Finding> {
    broken_tag_sweep(cfg, seed..seed + 1).failures
}

fn broken_tag_sweep(cfg: &SweepConfig, seeds: Range<u64>) -> CollectiveSweep {
    let n = cfg.nnodes * cfg.gpus_per_node;
    let round1 = labeled(n, cfg.chunk, 4);
    let round2 = labeled(n, cfg.chunk, 5);
    // The per-rank oracle is the concatenation of both rounds.
    let expect: RankBuffers = linear_all_to_all(&round1)
        .into_iter()
        .zip(linear_all_to_all(&round2))
        .map(|(a, b)| [a, b].concat())
        .collect();
    sweep_one("broken_tag", cfg, seeds, &expect, |comm| {
        let rank = comm.rank();
        let mut out = manual_all_to_all(comm, &round1[rank], 7)?;
        out.extend(manual_all_to_all(comm, &round2[rank], 7)?);
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SweepConfig {
        SweepConfig {
            seeds: 128,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn clean_collectives_survive_the_sweep() {
        for sweep in sweep_collectives(&small()) {
            assert!(
                sweep.passed(),
                "{}: {:?}",
                sweep.name,
                sweep.failures.first()
            );
            assert!(
                sweep.distinct >= 100,
                "{}: only {} distinct schedules in {}",
                sweep.name,
                sweep.distinct,
                sweep.schedules
            );
        }
    }

    #[test]
    fn broken_tag_is_caught_and_seed_replays() {
        let sweep = broken_tag_selftest(&small());
        assert!(
            !sweep.passed(),
            "checker failed to catch the intentional tag collision"
        );
        let corruption = sweep
            .failures
            .iter()
            .find(|f| f.rule == "corruption")
            .expect("tag collision should surface as corruption");
        // The reported seed must reproduce deterministically.
        let replay = broken_tag_replay(&small(), corruption.seed);
        assert!(
            replay.iter().any(|f| f.rule == "corruption"),
            "seed {} did not replay the corruption",
            corruption.seed
        );
    }
}
