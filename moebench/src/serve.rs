//! The serving workloads: a closed loop of users with zero think time
//! driving `tutel_serve::Engine` on the threaded runtime (P1, Linear
//! All-to-All, pipeline degree 2, world 2, one compute thread per rank,
//! dropless).
//!
//! Users submit a request, wait for its last token, and submit the next
//! one at once. Requests are issued in epochs of a fixed count: at the
//! end of an epoch the engine drains, every completed request is checked
//! against `reference_rows` outside the timed region, and a fresh engine
//! starts the next epoch. Epochs bound the memory the engine keeps for
//! finished requests, so `peak_rss_mb` does not grow with throughput.
//!
//! The traced run adds a stage probe: one serving step rebuilt from the
//! public functions of `gate`, `kernels`, `experts` and `comm`, which
//! must reproduce `execute_step` bit for bit (the P1 contract) and whose
//! stage sum must account for the measured `execute_step`.

use std::time::Instant;

use tutel_comm::runtime::{run_threaded, Communicator};
use tutel_comm::AllToAllAlgo;
use tutel_experts::ExpertsBlock;
use tutel_gate::{route, RaggedRouting, Router};
use tutel_kernels::{ragged_decode, ragged_encode};
use tutel_obs::Telemetry;
use tutel_rt::with_parallelism_limit;
use tutel_serve::exec::topology_for;
use tutel_serve::{
    execute_step, reference_rows, BatcherConfig, Engine, EngineConfig, ExecConfig, ModelDims,
    Request, RequestOutcome, ServeModel, ServiceModel, Strategy,
};
use tutel_tensor::{grouped_gemm, Rng, Tensor};

use crate::report::{peak_rss_mb, Outcome, StealMeter, Tally};
use crate::stats::{clean_windows, median, min_samples, percentile};
use crate::trace::Trace;
use crate::train::bin_max_over_mean;
use crate::{rt_metrics, Res, RtDelta, Run, MODEL_SEED, SETUP_REPEATS};

/// `execute_step`s that warm a freshly materialized model.
const WARM_STEPS: usize = 4;

/// Length of the slices the untraced closed loop is cut into. Each slice
/// is kept or dropped whole by the host steal measured over it (see
/// `stats::clean_windows`); requests count in the slice they complete in.
const WINDOW_S: f64 = 0.05;

/// Fewest slices the end-to-end metrics are taken over.
const MIN_WINDOWS: usize = 20;

/// Requests whose outputs make up the serving `loss_final`.
const QUALITY_REQUESTS: u64 = 512;

/// Shape of a serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Served layer.
    pub dims: ModelDims,
    /// Batcher slots: rows per full step.
    pub slots: usize,
    /// Closed-loop users, each with one request outstanding.
    pub users: usize,
    /// Token rows per request are drawn from `1..=tokens_max`.
    pub tokens_max: usize,
    /// Requests issued per engine epoch.
    pub epoch_requests: usize,
}

impl ServeSpec {
    /// `serve_tiny`: `ModelDims::small(2)`, 8 slots, 16 users.
    pub fn tiny() -> Self {
        ServeSpec {
            dims: ModelDims::small(2),
            slots: 8,
            users: 16,
            tokens_max: 16,
            epoch_requests: 256,
        }
    }

    /// `serve_wide`: M=128, H=512, 4 experts per rank, 16 slots, 32 users.
    pub fn wide() -> Self {
        ServeSpec {
            dims: ModelDims {
                model_dim: 128,
                hidden_dim: 512,
                local_experts: 4,
                world: 2,
                top_k: 2,
                shards: 2,
            },
            slots: 16,
            users: 32,
            tokens_max: 16,
            epoch_requests: 256,
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            batcher: BatcherConfig {
                max_batch_tokens: self.slots,
                max_inflight: self.slots,
                admit_timeout_us: 0,
            },
            // The engine's virtual clock; wall time is measured here.
            service: ServiceModel {
                step_floor_us: 100,
                per_token_us: 10,
            },
            queue_capacity: self.users,
            exec: ExecConfig {
                strategy: Strategy::P1,
                algo: AllToAllAlgo::Linear,
                degree: 2,
                world: self.dims.world,
                threads: 1,
                dropless: true,
            },
        }
    }
}

/// Seeded full-occupancy batches for warm-up and the stage probe.
fn full_batches(spec: &ServeSpec, seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = Rng::seed(seed ^ 0x0ba7_c4e5);
    (0..n)
        .map(|_| rng.normal_tensor(&[spec.slots, spec.dims.model_dim], 0.0, 1.0))
        .collect()
}

/// Materializes the model and warms the step path; median over
/// [`SETUP_REPEATS`] set-ups.
fn setup(spec: &ServeSpec, warm: &Tensor) -> Res<(f64, ServeModel)> {
    let exec = spec.engine_config().exec;
    let mut times = Vec::new();
    let mut model = None;
    for _ in 0..SETUP_REPEATS {
        drop(model.take());
        let t0 = Instant::now();
        let m = ServeModel::materialize(spec.dims, MODEL_SEED)?;
        for _ in 0..WARM_STEPS {
            execute_step(&m, &exec, warm)?;
        }
        times.push(t0.elapsed().as_secs_f64());
        model = Some(m);
    }
    Ok((median(&times), model.expect("SETUP_REPEATS > 0")))
}

/// Checks every outcome against its request's solo `reference_rows`,
/// one operation per request.
pub fn check_outcomes(
    model: &ServeModel,
    reqs: &[Request],
    outcomes: &[RequestOutcome],
    tally: &mut Tally,
) -> Res<()> {
    let base = reqs.first().map_or(0, |r| r.id);
    for o in outcomes {
        let req = o.id.checked_sub(base).and_then(|i| reqs.get(i as usize));
        let Some(req) = req else {
            tally.check(false, || format!("request {} was never submitted", o.id));
            continue;
        };
        let reference = reference_rows(model, &req.tokens)?;
        tally.check(o.output.as_slice() == reference.as_slice(), || {
            format!("request {} differs from reference_rows", o.id)
        });
    }
    Ok(())
}

/// One slice of the untraced closed loop.
#[derive(Default)]
struct Window {
    secs: f64,
    rows: u64,
    /// Seconds, kept as `f32` so a fast run's samples do not swell the
    /// process's own peak memory.
    pumps: Vec<f32>,
    latencies: Vec<f32>,
}

/// The slice being filled, with its start and steal meter.
struct OpenWindow {
    start: Instant,
    steal: StealMeter,
    w: Window,
}

impl OpenWindow {
    fn new() -> Self {
        OpenWindow {
            start: Instant::now(),
            steal: StealMeter::start(),
            w: Window::default(),
        }
    }

    /// Files the slice with its steal share into `out` and opens the next.
    fn close(&mut self, out: &mut Vec<(f64, Window)>) {
        let mut done = std::mem::replace(self, OpenWindow::new());
        done.w.secs = done.start.elapsed().as_secs_f64();
        out.push((done.steal.frac(), done.w));
    }
}

/// What the closed loop measured.
#[derive(Default)]
struct LoopStats {
    /// Total wall time of the untraced pumps.
    plain_secs: f64,
    /// Wall time of every traced `Engine::pump`.
    traced_pumps: Vec<f64>,
    /// Wall time of `execute_step` on a full batch after each traced
    /// pump.
    execs: Vec<f64>,
    /// Rows served by untraced and traced pumps.
    rows_plain: u64,
    rows_traced: u64,
    /// Requests completed.
    requests: u64,
    /// Rows served, steps executed, zero rows padded to a multiple of
    /// the world size.
    rows: u64,
    steps: u64,
    pad_rows: u64,
    /// Timed seconds (pumps plus the loop's own bookkeeping).
    busy: f64,
    /// Slices of an untraced run with the host's steal share over each.
    windows: Vec<(f64, Window)>,
    /// Squared error sum and count of the quality requests.
    quality: (f64, f64),
    rt: RtDelta,
}

/// Runs closed-loop epochs until `seconds` of serving, the quality
/// requests and [`MIN_WINDOWS`] slices are done; in a traced run every
/// other pump is traced.
fn closed_loop(
    spec: &ServeSpec,
    model: &ServeModel,
    run: &Run,
    seconds: f64,
    full: &Tensor,
    tally: &mut Tally,
) -> Res<LoopStats> {
    let cfg = spec.engine_config();
    let tel = Telemetry::disabled();
    let m = spec.dims.model_dim;
    let world = spec.dims.world as u64;
    let mut gen = Rng::seed(run.seed ^ 0x5e_12e5);
    let mut st = LoopStats::default();
    let mut next_id: u64 = 0;
    let mut done = Vec::new();
    while st.busy < seconds
        || next_id < QUALITY_REQUESTS
        || (!run.trace && st.windows.len() < MIN_WINDOWS)
    {
        // The epoch's requests are drawn before its timed region.
        let base = next_id;
        let reqs: Vec<Request> = (0..spec.epoch_requests as u64)
            .map(|i| {
                let rows = 1 + gen.below(spec.tokens_max);
                Request {
                    id: base + i,
                    tokens: gen.normal_tensor(&[rows, m], 0.0, 1.0),
                    arrival_us: 0,
                    deadline_us: u64::MAX,
                }
            })
            .collect();
        next_id += reqs.len() as u64;
        let mut submitted: Vec<Option<Instant>> = vec![None; reqs.len()];

        let t_epoch = Instant::now();
        let mut win = OpenWindow::new();
        let mut engine = Engine::new(model, &cfg, &tel)?;
        let mut issued = 0usize;
        let mut outstanding = 0usize;
        while issued < spec.users.min(reqs.len()) {
            submit(&mut engine, &reqs[issued], &mut submitted[issued]);
            issued += 1;
            outstanding += 1;
        }
        let (mut epoch_steps, mut epoch_occ) = (0u64, 0u64);
        while engine.has_work() {
            // Every outstanding request is queued or in flight, and the
            // batcher runs one token of each in-flight request per step.
            let occ = outstanding.min(spec.slots) as u64;
            let traced = run.trace && st.steps % 2 == 1;
            let snap = traced.then(RtDelta::snapshot);
            let t0 = Instant::now();
            engine.pump()?;
            let t1 = Instant::now();
            let secs = (t1 - t0).as_secs_f64();
            if let Some(snap) = snap {
                st.rt.add_since(&snap);
                st.traced_pumps.push(secs);
                st.rows_traced += occ;
                // The bare executor at full occupancy, under the same
                // conditions as the pumps around it.
                let t2 = Instant::now();
                execute_step(model, &cfg.exec, full)?;
                st.execs.push(t2.elapsed().as_secs_f64());
            } else {
                st.plain_secs += secs;
                win.w.pumps.push(secs as f32);
                win.w.rows += occ;
                st.rows_plain += occ;
            }
            st.steps += 1;
            epoch_steps += 1;
            epoch_occ += occ;
            st.pad_rows += occ.div_ceil(world) * world - occ;
            done.clear();
            done.extend_from_slice(engine.completed_last_pump());
            for &id in &done {
                let at =
                    submitted[(id - base) as usize].ok_or("completed a request never submitted")?;
                st.requests += 1;
                win.w.latencies.push((t1 - at).as_secs_f32());
                outstanding -= 1;
                if issued < reqs.len() {
                    submit(&mut engine, &reqs[issued], &mut submitted[issued]);
                    issued += 1;
                    outstanding += 1;
                }
            }
            if !run.trace && win.start.elapsed().as_secs_f64() >= WINDOW_S {
                win.close(&mut st.windows);
            }
        }
        st.busy += t_epoch.elapsed().as_secs_f64();
        if !run.trace {
            win.close(&mut st.windows);
        }

        // Untimed: the oracle and the accounting cross-checks.
        let report = engine.finish();
        if report.steps != epoch_steps || report.outcomes.len() != reqs.len() {
            return Err(format!(
                "epoch at request {base}: engine ran {} steps and finished {} requests, loop saw {epoch_steps} and {}",
                report.steps,
                report.outcomes.len(),
                reqs.len()
            )
            .into());
        }
        let served: u64 = reqs.iter().map(|r| r.num_tokens() as u64).sum();
        if served != epoch_occ {
            return Err(format!(
                "epoch at request {base}: {served} rows served but occupancy summed to {epoch_occ}"
            )
            .into());
        }
        st.rows += served;
        check_outcomes(model, &reqs, &report.outcomes, tally)?;
        for o in report.outcomes.iter().filter(|o| o.id < QUALITY_REQUESTS) {
            let target = quality_target(run.seed, o.id, o.output.dims());
            for (y, t) in o.output.as_slice().iter().zip(target.as_slice()) {
                st.quality.0 += f64::from(y - t).powi(2);
            }
            st.quality.1 += o.output.len() as f64;
        }
    }
    Ok(st)
}

/// Submits `req` stamped "now" on the engine's virtual clock, so the
/// batcher admits it at the next pump, and notes the wall time.
fn submit(engine: &mut Engine<'_>, req: &Request, at: &mut Option<Instant>) {
    let mut req = req.clone();
    req.arrival_us = engine.now_us();
    *at = Some(Instant::now());
    engine.submit(req);
}

/// The fixed target of quality request `id`.
fn quality_target(seed: u64, id: u64, dims: &[usize]) -> Tensor {
    Rng::seed(seed ^ 0x9a_1175 ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .normal_tensor(dims, 0.0, 0.5)
}

/// One rank's side of a probe step.
struct RankProbe {
    output: Vec<f32>,
    trace: Trace,
    start: Instant,
    end: Instant,
    /// Routed rows per global expert.
    bins: Vec<f64>,
    /// Bin offsets of the first received chunk (grouped GEMM shape).
    recv_offsets: Vec<usize>,
    ffn_flops: f64,
    a2a_calls: u64,
}

/// The executing rank's slice of the global expert bank, rebuilt the
/// way the serving step rebuilds it every step.
fn local_block(model: &ServeModel, rank: usize) -> Res<ExpertsBlock> {
    let (w1, b1, w2, b2) = model.experts.weights();
    let slice =
        |t: &Tensor| -> Res<Tensor> { Ok(t.split_axis(0, model.dims.world)?[rank].clone()) };
    Ok(ExpertsBlock::from_weights(
        slice(w1)?,
        slice(b1)?,
        slice(w2)?,
        slice(b2)?,
    )?)
}

/// Bytes the per-step slice rebuild writes across all ranks: each rank
/// splits every weight tensor (a full copy), clones its part, and
/// allocates zeroed gradients of the part's size.
fn slice_bytes(model: &ServeModel) -> f64 {
    let (w1, b1, w2, b2) = model.experts.weights();
    let full = (w1.len() + b1.len() + w2.len() + b2.len()) as f64 * 4.0;
    let world = model.dims.world as f64;
    world * (full + 2.0 * full / world)
}

/// One rank of the probe: the dropless P1 step of `execute_step`, stage
/// by stage.
fn probe_rank(
    model: &ServeModel,
    cfg: &ExecConfig,
    padded: &Tensor,
    per_rank: usize,
    step: u64,
    mut comm: Communicator,
) -> Res<RankProbe> {
    let start = Instant::now();
    let dims = model.dims;
    let (world, rank, m, le) = (cfg.world, comm.rank(), dims.model_dim, dims.local_experts);
    let mut tr = Trace::default();
    let x = tr.time("serve.deal", step, rank, || -> Res<Tensor> {
        let mut rows = Vec::with_capacity(per_rank * m);
        let src = padded.as_slice();
        for local in 0..per_rank {
            let g = local * world + rank;
            rows.extend_from_slice(&src[g * m..(g + 1) * m]);
        }
        Ok(Tensor::from_vec(rows, &[per_rank, m])?)
    })?;
    let (routing, ragged) = tr.time("gate.route", step, rank, || -> Res<_> {
        let probs = model.router.logits(&x)?.softmax_last();
        let routing = route(&probs, &dims.route_config())?;
        let ragged = RaggedRouting::from_routing(&routing);
        Ok((routing, ragged))
    })?;
    let enc = tr.time("kernels.encode", step, rank, || {
        ragged_encode(&x, &routing, &ragged)
    })?;
    let es = enc.as_slice();
    let block = tr.time("experts.slice", step, rank, || local_block(model, rank))?;

    let bin_chunk = |e: usize, c: usize| -> (usize, usize) {
        let s = ragged.offsets[e];
        let len = ragged.offsets[e + 1] - s;
        (s + len * c / cfg.degree, s + len * (c + 1) / cfg.degree)
    };
    let mut y_packed = tr.time("serve.regroup", step, rank, || {
        vec![0.0f32; ragged.total() * m]
    });
    let mut recv_offsets = Vec::new();
    let mut ffn_flops = 0.0;
    let mut a2a_calls = 0;
    for c in 0..cfg.degree {
        let sends: Vec<Vec<f32>> = tr.time("serve.regroup", step, rank, || {
            (0..world)
                .map(|d| {
                    let mut buf = Vec::new();
                    for e in d * le..(d + 1) * le {
                        let (s, t) = bin_chunk(e, c);
                        buf.push((t - s) as f32);
                    }
                    for e in d * le..(d + 1) * le {
                        let (s, t) = bin_chunk(e, c);
                        buf.extend_from_slice(&es[s * m..t * m]);
                    }
                    buf
                })
                .collect()
        });
        let recvd = tr.time("comm.a2a", step, rank, || comm.all_to_all_v(&sends))?;
        a2a_calls += 1;
        let (gx, offsets, place, seg_len) =
            tr.time("serve.regroup", step, rank, || -> Res<_> {
                let mut seg_len = vec![vec![0usize; le]; world];
                for (s_rank, buf) in recvd.iter().enumerate() {
                    for e in 0..le {
                        seg_len[s_rank][e] = buf[e] as usize;
                    }
                }
                let mut offsets = vec![0usize; le + 1];
                for e in 0..le {
                    offsets[e + 1] = offsets[e] + (0..world).map(|s| seg_len[s][e]).sum::<usize>();
                }
                let total = offsets[le];
                let mut gx = vec![0.0f32; total * m];
                let mut place = vec![vec![0usize; le]; world];
                let mut at = 0usize;
                for e in 0..le {
                    for (s_rank, buf) in recvd.iter().enumerate() {
                        let skip: usize = seg_len[s_rank][..e].iter().sum();
                        let n = seg_len[s_rank][e];
                        let from = le + skip * m;
                        gx[at * m..(at + n) * m].copy_from_slice(&buf[from..from + n * m]);
                        place[s_rank][e] = at;
                        at += n;
                    }
                }
                Ok((Tensor::from_vec(gx, &[total, m])?, offsets, place, seg_len))
            })?;
        let total = offsets[le];
        let back: Vec<Vec<f32>> = if total == 0 {
            vec![Vec::new(); world]
        } else {
            let y = tr.time("experts.ffn", step, rank, || {
                block.infer_grouped(&gx, &offsets)
            })?;
            ffn_flops += 4.0 * (total * m * dims.hidden_dim) as f64;
            if recv_offsets.is_empty() {
                recv_offsets = offsets.clone();
            }
            tr.time("serve.regroup", step, rank, || {
                let ys = y.as_slice();
                (0..world)
                    .map(|s_rank| {
                        let mut buf = Vec::new();
                        for e in 0..le {
                            let at = place[s_rank][e];
                            let n = seg_len[s_rank][e];
                            buf.extend_from_slice(&ys[at * m..(at + n) * m]);
                        }
                        buf
                    })
                    .collect()
            })
        };
        let returned = tr.time("comm.a2a", step, rank, || comm.all_to_all_v(&back))?;
        a2a_calls += 1;
        tr.time("serve.regroup", step, rank, || {
            for (d, buf) in returned.iter().enumerate() {
                let mut at = 0usize;
                for e in d * le..(d + 1) * le {
                    let (s, t) = bin_chunk(e, c);
                    let n = (t - s) * m;
                    y_packed[s * m..t * m].copy_from_slice(&buf[at..at + n]);
                    at += n;
                }
            }
        });
    }
    let output = tr.time("kernels.decode", step, rank, || -> Res<Vec<f32>> {
        let y_t = Tensor::from_vec(y_packed, &[ragged.total(), m])?;
        Ok(ragged_decode(&y_t, &routing, &ragged, per_rank)?
            .as_slice()
            .to_vec())
    })?;
    Ok(RankProbe {
        output,
        trace: tr,
        start,
        end: Instant::now(),
        bins: routing.counts.iter().map(|&c| c as f64).collect(),
        recv_offsets,
        ffn_flops,
        a2a_calls,
    })
}

/// A whole probe step under `run_threaded`: returns the stitched
/// outputs and rank 0's spans, with launch/join and the calling thread's
/// row dealing and stitching added as spans.
fn probe_step(
    model: &ServeModel,
    cfg: &ExecConfig,
    batch: &Tensor,
    step: u64,
) -> Res<(Tensor, RankProbe)> {
    let t_start = Instant::now();
    let m = model.dims.model_dim;
    let world = cfg.world;
    let b = batch.dims()[0];
    let bp = b.div_ceil(world) * world;
    let mut padded = batch.as_slice().to_vec();
    padded.resize(bp * m, 0.0);
    let padded = Tensor::from_vec(padded, &[bp, m])?;
    let topo = topology_for(world);
    let t_launch = Instant::now();
    let results = run_threaded(topo, |comm| {
        with_parallelism_limit(cfg.threads, || {
            probe_rank(model, cfg, &padded, bp / world, step, comm)
        })
    });
    let t_joined = Instant::now();
    let mut ranks = Vec::with_capacity(world);
    for r in results {
        ranks.push(r.map_err(|e| e.to_string())?);
    }
    let mut stitched = vec![0.0f32; b * m];
    for (i, row) in stitched.chunks_mut(m).enumerate() {
        let local = i / world;
        row.copy_from_slice(&ranks[i % world].output[local * m..(local + 1) * m]);
    }
    let out = Tensor::from_vec(stitched, &[b, m])?;
    let t_end = Instant::now();
    let mut r0 = ranks.swap_remove(0);
    let launch = (r0.start - t_launch) + (t_joined - r0.end);
    r0.trace
        .record("comm.launch", step, 0, launch.as_secs_f64());
    let deal = (t_launch - t_start) + (t_end - t_joined);
    r0.trace.record("serve.deal", step, 0, deal.as_secs_f64());
    Ok((out, r0))
}

/// Runs a serving workload; see the module docs.
pub fn run(spec: &ServeSpec, run: &Run) -> Res<Outcome> {
    let batches = full_batches(spec, run.seed, 8);
    let (setup_s, model) = setup(spec, &batches[0])?;
    let mut tally = Tally::default();
    let loop_s = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let st = closed_loop(spec, &model, run, loop_s, &batches[0], &mut tally)?;
    // Before the statistics below copy the samples.
    let peak_rss = peak_rss_mb();
    let mut o = Outcome::new(run.trace);
    if !run.trace {
        o.put("setup_s", setup_s);
        // Over the slices the host did not steal from, so a stall on the
        // host drops a slice instead of moving the result.
        let all = st.windows.len();
        let kept = clean_windows(st.windows, MIN_WINDOWS);
        let pooled = |f: fn(&Window) -> &Vec<f32>| -> Vec<f64> {
            kept.iter()
                .flat_map(|w| f(w).iter().map(|&v| f64::from(v)))
                .collect()
        };
        let (pumps, latencies) = (pooled(|w| &w.pumps), pooled(|w| &w.latencies));
        let rows: u64 = kept.iter().map(|w| w.rows).sum();
        let secs: f64 = kept.iter().map(|w| w.secs).sum();
        o.put("tokens_per_s", rows as f64 / secs);
        o.put("step_ms_p50", 1e3 * percentile(&pumps, 0.5)?);
        o.put("step_ms_p90", 1e3 * percentile(&pumps, 0.9)?);
        o.put("latency_ms_p50", 1e3 * percentile(&latencies, 0.5)?);
        o.put("latency_ms_p90", 1e3 * percentile(&latencies, 0.9)?);
        o.put("loss_final", st.quality.0 / st.quality.1);
        o.put("peak_rss_mb", peak_rss);
        o.tally = tally;
        eprintln!(
            "serve: {} requests, {} steps, {} rows in {:.2} s timed; {} of {all} slices kept",
            st.requests,
            st.steps,
            st.rows,
            st.busy,
            kept.len()
        );
        return Ok(o);
    }

    // Probe phase: execute_step, the stage probe and a no-op launch on
    // the same seeded full-occupancy batch, in turn.
    let exec = spec.engine_config().exec;
    let mut tr = Trace::default();
    let (mut launches, mut coverage, mut a2a_elems, mut bins) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ffn_flops, mut a2a_calls, mut recv_offsets) = (0.0, 0u64, Vec::new());
    let need = min_samples(0.5);
    let t_probe = Instant::now();
    let mut it = 0u64;
    while t_probe.elapsed().as_secs_f64() < run.seconds / 2.0 || (it as usize) < need {
        let batch = &batches[it as usize % batches.len()];
        let pair_steal = StealMeter::start();
        let timed_exec = || -> Res<_> {
            let t0 = Instant::now();
            let step = execute_step(&model, &exec, batch)?;
            Ok((step, t0.elapsed().as_secs_f64()))
        };
        // Alternate which of the pair runs first, so neither gains from
        // the caches the other leaves behind.
        let ((step, exec_s), (out, r0)) = if it.is_multiple_of(2) {
            (timed_exec()?, probe_step(&model, &exec, batch, it)?)
        } else {
            let probe = probe_step(&model, &exec, batch, it)?;
            (timed_exec()?, probe)
        };
        let t1 = Instant::now();
        run_threaded(topology_for(exec.world), |_comm| ());
        launches.push(t1.elapsed().as_secs_f64());

        a2a_elems.push(step.a2a_elems as f64);
        coverage.push((pair_steal.frac(), r0.trace.stage_sum(it, 0) / exec_s));
        bins.push(bin_max_over_mean(&r0.bins));
        ffn_flops += r0.ffn_flops;
        a2a_calls += r0.a2a_calls;
        if recv_offsets.is_empty() {
            recv_offsets = r0.recv_offsets;
        }
        tr.extend(r0.trace);
        tally.check(out.as_slice() == step.outputs.as_slice(), || {
            format!("probe step {it} differs from execute_step")
        });
        if (it as usize) < batches.len() {
            let ok = reference_rows(&model, batch)?.as_slice() == step.outputs.as_slice();
            tally.check(ok, || {
                format!("execute_step on probe batch {it} differs from reference_rows")
            });
        }
        it += 1;
    }

    let p50 = |name: &str| percentile(&tr.per_step(name, 0), 0.5);
    let ffn_s: f64 = tr.calls("experts.ffn", 0).iter().sum();
    let pump_p50 = percentile(&st.traced_pumps, 0.5)?;
    let exec_p50 = percentile(&st.execs, 0.5)?;
    let tps_plain = st.rows_plain as f64 / st.plain_secs;
    let tps_traced = st.rows_traced as f64 / st.traced_pumps.iter().sum::<f64>();
    o.put("gate.route_us_p50", 1e6 * p50("gate.route")?);
    o.put("gate.bin_max_over_mean", median(&bins));
    o.put("kernels.encode_us_p50", 1e6 * p50("kernels.encode")?);
    o.put("kernels.decode_us_p50", 1e6 * p50("kernels.decode")?);
    o.put("experts.ffn_ms_p50", 1e3 * p50("experts.ffn")?);
    o.put("experts.ffn_gflops", ffn_flops / ffn_s / 1e9);
    o.put("experts.slice_ms_p50", 1e3 * p50("experts.slice")?);
    o.put("experts.slice_mb_per_step", slice_bytes(&model) / 1e6);
    o.put("tensor.gemm_gflops", gemm_gflops(&spec.dims, &recv_offsets));
    o.put("comm.launch_us_p50", 1e6 * percentile(&launches, 0.5)?);
    o.put(
        "comm.a2a_us_p50",
        1e6 * percentile(&tr.calls("comm.a2a", 0), 0.5)?,
    );
    o.put("comm.a2a_calls_per_step", a2a_calls as f64 / it as f64);
    o.put("comm.a2a_elems_per_step", median(&a2a_elems));
    o.put("serve.pump_ms_p50", 1e3 * pump_p50);
    o.put("serve.exec_ms_p50", 1e3 * exec_p50);
    o.put("serve.engine_overhead_frac", 1.0 - exec_p50 / pump_p50);
    let rows_per_step = st.rows as f64 / st.steps as f64;
    o.put("serve.rows_per_step", rows_per_step);
    o.put("serve.slot_fill_frac", rows_per_step / spec.slots as f64);
    o.put("serve.pad_rows_frac", st.pad_rows as f64 / st.rows as f64);
    rt_metrics(&mut o, &st.rt, st.traced_pumps.len());
    o.put(
        "trace.coverage_frac",
        median(&clean_windows(coverage, need)),
    );
    o.put("trace.overhead_frac", 1.0 - tps_traced / tps_plain);
    o.tally = tally;
    eprintln!(
        "serve traced: {} steps in the loop, {it} probe steps",
        st.steps
    );
    Ok(o)
}

/// `grouped_gemm` throughput at a received chunk's first-layer bin
/// shapes, on one thread as each rank computes.
fn gemm_gflops(dims: &ModelDims, offsets: &[usize]) -> f64 {
    let (k, n) = (dims.model_dim, dims.hidden_dim);
    let total = offsets.last().copied().unwrap_or(0);
    let groups = offsets.len().saturating_sub(1);
    let mut rng = Rng::seed(2);
    let a = rng.normal_tensor(&[total.max(1), k], 0.0, 1.0);
    let b = rng.normal_tensor(&[groups.max(1), k, n], 0.0, 1.0);
    let mut out = vec![0.0f32; total * n];
    // Enough launches to time a few-microsecond GEMM in bulk.
    let reps = 200;
    let times: Vec<f64> = (0..min_samples(0.5))
        .map(|_| {
            let t0 = Instant::now();
            with_parallelism_limit(1, || {
                for _ in 0..reps {
                    grouped_gemm(
                        &a.as_slice()[..total * k],
                        b.as_slice(),
                        &mut out,
                        offsets,
                        k,
                        n,
                    );
                }
            });
            std::hint::black_box(&out);
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    2.0 * (total * k * n) as f64 / percentile(&times, 0.5).unwrap_or(f64::NAN) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_output_counts_as_a_failed_request() {
        let spec = ServeSpec::tiny();
        let model = ServeModel::materialize(spec.dims, MODEL_SEED).unwrap();
        let mut rng = Rng::seed(3);
        let reqs: Vec<Request> = (0..6)
            .map(|id| Request {
                id,
                tokens: rng.normal_tensor(&[1 + id as usize, spec.dims.model_dim], 0.0, 1.0),
                arrival_us: 0,
                deadline_us: u64::MAX,
            })
            .collect();
        let tel = Telemetry::disabled();
        let report =
            tutel_serve::engine::run_trace(&model, &spec.engine_config(), reqs.clone(), &tel)
                .unwrap();
        let mut outcomes = report.outcomes;

        let mut clean = Tally::default();
        check_outcomes(&model, &reqs, &outcomes, &mut clean).unwrap();
        assert_eq!((clean.attempted, clean.failed), (6, 0));

        let v = &mut outcomes[2].output.as_mut_slice()[0];
        *v = f32::from_bits(v.to_bits() ^ 1);
        let mut corrupted = Tally::default();
        check_outcomes(&model, &reqs, &outcomes, &mut corrupted).unwrap();
        assert_eq!((corrupted.attempted, corrupted.failed), (6, 1));
    }
}
