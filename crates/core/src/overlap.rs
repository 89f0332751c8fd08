//! The executed adaptive-pipelining fast path: a software two-stream
//! schedule overlapping non-blocking All-to-All with chunked expert
//! compute (Section 3.3 of the paper, executed rather than modeled).
//!
//! # Stream model
//!
//! Real Tutel runs the All-to-All on one CUDA stream and the expert
//! FFN on another; here the "communication stream" is the set of peer
//! rank threads draining their channels, and the "compute stream" is
//! this rank's thread (plus the `rt` pool it fans kernels onto). The
//! schedule for degree `d` is:
//!
//! ```text
//! issue disp[0]
//! for i in 0..d:
//!     if i+1 < d: issue disp[i+1]        // next chunk's dispatch in flight
//!     flex = drain(disp[i])              // the only blocking comm point
//!     y    = compute(i, flex)            // expert FFN on the rt pool
//!     issue comb[i]                      // combine departs immediately
//!     poll unfinished comb handles       // non-blocking progress
//! drain comb[0..d] in order              // final drain
//! ```
//!
//! Every issue and every drain happens in identical program order on
//! every rank, so the communicator's tag counters — and, under the
//! reliability layer, the ack epochs — stay in lockstep without any
//! extra synchronization.
//!
//! # Determinism contract
//!
//! The chunk grid is a fixed function of the problem shape (`degree`
//! chunks supplied by the caller), each chunk's arithmetic is the
//! caller's `compute` applied to exactly the bytes the serial path
//! would see, and chunk results are never reduced across chunks by
//! this module — so the combined output is **bitwise identical** to
//! the chunk-serial schedule at every degree and every
//! `TUTEL_THREADS`. Overlap changes *when* work happens, never *what*
//! is computed.
//!
//! # Measured feedback
//!
//! Each chunk's compute time and the whole schedule's wall-clock are
//! reported in [`OverlapRun`]; the caller feeds the wall-clock into
//! [`crate::pipeline::MeasuredStrategySearch`] so Algorithm 2 ranks
//! strategies by what execution actually cost, not only by the simgpu
//! prior. The `Instant`s taken here never influence any computed
//! value — timing is observed, not consumed.

use std::time::Instant;

use tutel_comm::runtime::{CommHandle, Communicator};
use tutel_comm::{AllToAllAlgo, CommError};
use tutel_obs::trace::{TRACK_RT, TRACK_STREAM_COMM, TRACK_STREAM_COMPUTE};
use tutel_rt::arena;

/// What one overlapped dispatch → compute → combine schedule produced.
pub struct OverlapRun {
    /// Per-chunk combine results, in chunk order — concatenating them
    /// reproduces the serial path's combined buffer bitwise.
    pub combined: Vec<Vec<f32>>,
    /// Wall-clock seconds each chunk's `compute` took.
    pub chunk_compute_s: Vec<f64>,
    /// When each chunk's dispatch All-to-All was issued.
    pub dispatch_issued: Vec<Instant>,
    /// When each chunk's combine All-to-All was issued.
    pub combine_issued: Vec<Instant>,
    /// Wall-clock seconds for the whole schedule (first issue to last
    /// drain).
    pub wall_s: f64,
}

/// Issues the non-blocking All-to-All of a flat `(W, chunk)` buffer:
/// chunk `d` goes to rank `d` ([`CommError::Indivisible`] otherwise).
fn issue(
    comm: &mut Communicator,
    algo: AllToAllAlgo,
    buf: &[f32],
) -> Result<CommHandle, CommError> {
    comm.ialltoall_v(comm.uniform_sends(buf)?, algo)
}

/// Blocks for a handle's completion and flattens the received chunks
/// back into the `(W, chunk)` layout, in source order. The *only*
/// place in this module allowed to wait: the steady-state loop must
/// stay non-blocking on the combine side (`check`'s
/// `no_block_in_overlap` rule enforces this).
// check:overlap-drain
fn drain(handle: CommHandle, comm: &mut Communicator) -> Result<Vec<f32>, CommError> {
    Ok(handle.wait(comm)?.concat())
}

/// Runs the two-stream overlapped schedule over `dispatch_chunks`.
///
/// For each chunk `i`, `compute(i, flex)` receives the dispatched
/// (received) wire buffer and returns the expert output to combine.
/// Chunks are computed strictly in index order; `compute` may carry
/// per-chunk state. Degree 1 degenerates to the serial
/// dispatch → compute → combine schedule.
///
/// Received buffers are handed to `compute` owned (recycle them via
/// `tutel_rt::arena` if profitable); combine payloads are recycled
/// into the arena by this function once their sends have departed.
///
/// Under the reliability layer, the retry/ack budget must cover one
/// chunk's compute time: a peer still computing chunk `i` cannot
/// acknowledge chunk `i+1`'s dispatch epilogue until it reaches that
/// wait itself.
///
/// # Errors
///
/// Propagates the first [`CommError`] from any issue, poll, or drain.
/// On error, every still-open handle is drained best-effort first so
/// no mailbox messages are stranded behind the failure.
// check:hot
pub fn run_overlapped<C>(
    comm: &mut Communicator,
    algo: AllToAllAlgo,
    dispatch_chunks: &[Vec<f32>],
    mut compute: C,
) -> Result<OverlapRun, CommError>
where
    C: FnMut(usize, Vec<f32>) -> Vec<f32>,
{
    let d = dispatch_chunks.len();
    let mut combined: Vec<Vec<f32>> = Vec::with_capacity(d);
    let mut chunk_compute_s: Vec<f64> = Vec::with_capacity(d);
    let mut dispatch_issued: Vec<Instant> = Vec::with_capacity(d);
    let mut combine_issued: Vec<Instant> = Vec::with_capacity(d);
    let started = Instant::now();
    if d == 0 {
        return Ok(OverlapRun {
            combined,
            chunk_compute_s,
            dispatch_issued,
            combine_issued,
            wall_s: 0.0,
        });
    }
    if let Some(first) = dispatch_chunks.first() {
        // Warm the arena class for the wire buffers recycled below.
        tutel_rt::request_prewarm(first.len(), 2);
    }

    // The two overlap streams record onto the rank's causal tracer
    // (disabled → every call is one branch): blocking drain windows
    // become spans, issues become instants, and the rt pool's chunk /
    // steal deltas around each compute become an rt-track span — so a
    // merged timeline shows what each stream was doing while the
    // other progressed.
    let tracer = comm.tracer().clone();
    let traced = tracer.is_enabled();
    let mut disp: Vec<Option<CommHandle>> = Vec::with_capacity(d);
    let mut comb: Vec<Option<CommHandle>> = Vec::with_capacity(d);
    let run = (|| -> Result<(), CommError> {
        dispatch_issued.push(started);
        tracer.instant(TRACK_STREAM_COMM, "dispatch.issue");
        disp.push(Some(issue(comm, algo, &dispatch_chunks[0])?));
        // Structural order markers for the race sweep: the issue /
        // drain order of both streams is part of the determinism
        // contract, so the checker folds it into the per-seed
        // structure signature.
        #[cfg(feature = "check-race")]
        tutel_rt::chk::order_mark("overlap.dispatch", 0);
        for i in 0..d {
            if i + 1 < d {
                dispatch_issued.push(Instant::now());
                tracer.instant(TRACK_STREAM_COMM, "dispatch.issue");
                disp.push(Some(issue(comm, algo, &dispatch_chunks[i + 1])?));
                #[cfg(feature = "check-race")]
                tutel_rt::chk::order_mark("overlap.dispatch", (i + 1) as u64);
            }
            // disp[i] is issued above before ever being drained, so
            // the take always yields; the fallback only quiets the
            // Option without a panic path.
            let Some(handle) = disp[i].take() else {
                continue;
            };
            let drain_t0 = tracer.now_us();
            let flex = drain(handle, comm)?;
            tracer.span_at_args(
                TRACK_STREAM_COMM,
                "dispatch.drain",
                drain_t0,
                tracer.now_us(),
                &[("chunk", i as f64)],
            );
            let rt0 = if traced {
                tutel_rt::pool_stats()
            } else {
                tutel_rt::PoolStats::default()
            };
            let compute_t0 = tracer.now_us();
            let t0 = Instant::now();
            let y = compute(i, flex);
            chunk_compute_s.push(t0.elapsed().as_secs_f64());
            let compute_t1 = tracer.now_us();
            tracer.span_at_args(
                TRACK_STREAM_COMPUTE,
                "compute",
                compute_t0,
                compute_t1,
                &[("chunk", i as f64)],
            );
            if traced {
                // Process-global pool counters: the deltas bound this
                // chunk's share (concurrent ranks also contribute).
                let rt1 = tutel_rt::pool_stats();
                tracer.span_at_args(
                    TRACK_RT,
                    "rt",
                    compute_t0,
                    compute_t1,
                    &[
                        ("chunks", rt1.chunks.saturating_sub(rt0.chunks) as f64),
                        (
                            "worker_chunks",
                            rt1.worker_chunks.saturating_sub(rt0.worker_chunks) as f64,
                        ),
                        ("steals", rt1.steals.saturating_sub(rt0.steals) as f64),
                    ],
                );
            }
            combine_issued.push(Instant::now());
            tracer.instant(TRACK_STREAM_COMM, "combine.issue");
            comb.push(Some(issue(comm, algo, &y)?));
            #[cfg(feature = "check-race")]
            tutel_rt::chk::order_mark("overlap.combine", i as u64);
            arena().put(y);
            // Opportunistic progress on earlier combines while the
            // next chunk's dispatch is still in flight.
            for handle in comb.iter_mut().flatten() {
                if !handle.is_complete() {
                    handle.poll(comm)?;
                }
            }
        }
        for (idx, slot) in comb.iter_mut().enumerate() {
            if let Some(handle) = slot.take() {
                let drain_t0 = tracer.now_us();
                combined.push(drain(handle, comm)?);
                #[cfg(feature = "check-race")]
                tutel_rt::chk::order_mark("overlap.combine_drain", idx as u64);
                tracer.span_at_args(
                    TRACK_STREAM_COMM,
                    "combine.drain",
                    drain_t0,
                    tracer.now_us(),
                    &[("chunk", idx as f64)],
                );
            }
        }
        Ok(())
    })();
    if let Err(err) = run {
        // A failed schedule must not strand peers' messages: drain
        // every open handle (their errors are secondary to `err`).
        for slot in disp.iter_mut().chain(comb.iter_mut()) {
            if let Some(handle) = slot.take() {
                let _ = drain(handle, comm);
            }
        }
        return Err(err);
    }
    Ok(OverlapRun {
        combined,
        chunk_compute_s,
        dispatch_issued,
        combine_issued,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_comm::runtime::run_threaded;
    use tutel_simgpu::Topology;

    /// A per-rank input: `world * per` elements per chunk, labeled so
    /// misrouted chunks change the output.
    fn chunks(rank: usize, world: usize, degree: usize, per: usize) -> Vec<Vec<f32>> {
        (0..degree)
            .map(|c| {
                (0..world * per)
                    .map(|i| (rank * 1000 + c * 100 + i) as f32 * 0.25)
                    .collect()
            })
            .collect()
    }

    /// The sequential oracle: dispatch → compute → combine chunk by
    /// chunk over all ranks at once, per-rank combine results in chunk
    /// order.
    fn serial(
        topo: &Topology,
        algo: AllToAllAlgo,
        degree: usize,
        per: usize,
        f: impl Fn(usize, &[f32]) -> Vec<f32>,
    ) -> Vec<Vec<Vec<f32>>> {
        let world = topo.world_size();
        let inputs: Vec<_> = (0..world).map(|r| chunks(r, world, degree, per)).collect();
        let mut per_rank = vec![Vec::new(); world];
        for c in 0..degree {
            let disp: Vec<Vec<f32>> = inputs.iter().map(|i| i[c].clone()).collect();
            let y: Vec<Vec<f32>> = algo.run(&disp, topo).iter().map(|x| f(c, x)).collect();
            for (r, out) in algo.run(&y, topo).into_iter().enumerate() {
                per_rank[r].push(out);
            }
        }
        per_rank
    }

    fn toy_compute(i: usize, flex: &[f32]) -> Vec<f32> {
        flex.iter().map(|v| v * 1.5 + i as f32).collect()
    }

    #[test]
    fn overlapped_matches_serial_bitwise_for_both_algos() {
        let topo = Topology::new(2, 2);
        let world = topo.world_size();
        for algo in [AllToAllAlgo::Linear, AllToAllAlgo::TwoDh] {
            for degree in [1usize, 2, 4] {
                let expect = serial(&topo, algo, degree, 3, toy_compute);
                let got = run_threaded(topo, |mut comm| {
                    let input = chunks(comm.rank(), world, degree, 3);
                    let run =
                        run_overlapped(&mut comm, algo, &input, |i, flex| toy_compute(i, &flex))
                            .unwrap();
                    assert_eq!(comm.parked_messages(), 0);
                    assert_eq!(run.chunk_compute_s.len(), degree);
                    run.combined
                });
                assert_eq!(expect, got, "{algo:?} at degree {degree}");
            }
        }
    }

    #[test]
    fn degrees_agree_with_each_other_bitwise() {
        // The determinism contract: the concatenated combine output is
        // the same at every degree (chunks carry disjoint data and the
        // per-chunk compute here is degree-independent).
        let topo = Topology::new(2, 1);
        let world = topo.world_size();
        let flat_at = |degree: usize| {
            run_threaded(topo, move |mut comm| {
                let whole = chunks(comm.rank(), world, 1, 8).remove(0);
                let per = whole.len() / degree / world;
                // Same bytes re-chunked: chunk c takes rows c·per..(c+1)·per
                // of each destination block.
                let input: Vec<Vec<f32>> = (0..degree)
                    .map(|c| {
                        (0..world)
                            .flat_map(|w| {
                                let block = &whole[w * (whole.len() / world)..];
                                block[c * per..(c + 1) * per].to_vec()
                            })
                            .collect()
                    })
                    .collect();
                let run = run_overlapped(&mut comm, AllToAllAlgo::Linear, &input, |_, flex| {
                    flex.iter().map(|v| v * 2.0).collect()
                })
                .unwrap();
                run.combined.concat()
            })
        };
        let d1 = flat_at(1);
        for d in [2usize, 4] {
            let dn = flat_at(d);
            for (rank, (a, b)) in d1.iter().zip(&dn).enumerate() {
                let a_sorted = {
                    let mut v: Vec<u32> = a.iter().map(|f| f.to_bits()).collect();
                    v.sort_unstable();
                    v
                };
                let b_sorted = {
                    let mut v: Vec<u32> = b.iter().map(|f| f.to_bits()).collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(a_sorted, b_sorted, "rank {rank} degree {d}");
            }
        }
    }

    #[test]
    fn indivisible_chunk_is_a_typed_error() {
        let topo = Topology::single_node(2);
        let runs = run_threaded(topo, |mut comm| {
            run_overlapped(
                &mut comm,
                AllToAllAlgo::TwoDh,
                &[vec![1.0; 3]],
                |_, flex| flex,
            )
            .err()
        });
        for r in runs {
            assert_eq!(r, Some(CommError::Indivisible { len: 3, chunks: 2 }));
        }
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let topo = Topology::single_node(2);
        let runs = run_threaded(topo, |mut comm| {
            run_overlapped(&mut comm, AllToAllAlgo::Linear, &[], |_, flex| flex)
                .unwrap()
                .combined
        });
        assert!(runs.iter().all(Vec::is_empty));
    }

    #[test]
    fn issue_timestamps_cover_every_chunk() {
        let topo = Topology::single_node(2);
        let world = topo.world_size();
        let degree = 4;
        run_threaded(topo, |mut comm| {
            let input = chunks(comm.rank(), world, degree, 2);
            let run = run_overlapped(&mut comm, AllToAllAlgo::Linear, &input, |i, flex| {
                toy_compute(i, &flex)
            })
            .unwrap();
            assert_eq!(run.dispatch_issued.len(), degree);
            assert_eq!(run.combine_issued.len(), degree);
            assert!(run.wall_s >= 0.0);
            // Chunk i+1's dispatch departs before chunk i's combine:
            // that is the overlap.
            assert!(run.dispatch_issued[1] <= run.combine_issued[0]);
        });
    }
}
