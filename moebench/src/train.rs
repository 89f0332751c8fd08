//! The `train` workload: one `tutel::MoeLayer` trained with an MSE loss,
//! forward + backward + update per step, on the `rt` pool.
//!
//! The traced run also drives a stage probe: the same step rebuilt from
//! the public stage functions of `gate`, `kernels` and `experts`, run on
//! a copy of the layer's weights taken through `export_state`. The probe
//! must reproduce the layer's forward output and input gradient bit for
//! bit, and its stage sum must account for the measured layer step.

use std::time::Instant;

use tutel::checkpoint::StateDict;
use tutel::{MoeConfig, MoeLayer, RouterKind};
use tutel_experts::ExpertsBlock;
use tutel_gate::{aux_loss, aux_loss_grad, route, LinearRouter, RaggedRouting, Router};
use tutel_kernels::{
    fast_decode, fast_encode, ragged_decode, ragged_decode_backward, ragged_encode,
    ragged_encode_backward,
};
use tutel_tensor::{grouped_gemm, scratch, Rng, Tensor};

use crate::report::{peak_rss_mb, Outcome, StealMeter, Tally};
use crate::stats::{clean_windows, median, min_samples, percentile, STEAL_CLEAN};
use crate::trace::Trace;
use crate::{rt_metrics, Res, RtDelta, Run, MODEL_SEED, SETUP_REPEATS};

/// Shape of the trained layer and its data.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Token width `M`.
    pub model_dim: usize,
    /// Expert hidden width `H`.
    pub hidden_dim: usize,
    /// Experts `E`.
    pub experts: usize,
    /// Experts per token.
    pub top_k: usize,
    /// Token rows per step `T`.
    pub tokens: usize,
    /// Distinct seeded batches the steps cycle through.
    pub batches: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Step after which `loss_final` is taken, fixed so the loss
    /// depends on the seed alone.
    pub loss_steps: usize,
}

impl TrainSpec {
    /// The benchmarked shape: M=256, H=1024, E=8, top-2, T=512.
    pub fn standard() -> Self {
        TrainSpec {
            model_dim: 256,
            hidden_dim: 1024,
            experts: 8,
            top_k: 2,
            tokens: 512,
            batches: 4,
            lr: 0.05,
            loss_steps: 40,
        }
    }

    fn config(&self) -> MoeConfig {
        // Capacity factor 0 is AutoMin: dropless routing, grouped GEMM.
        MoeConfig::new(self.model_dim, self.hidden_dim, self.experts)
            .with_top_k(self.top_k)
            .with_capacity_factor(0.0)
            .with_router(RouterKind::Linear)
    }
}

/// Seeded inputs and fixed targets.
struct Data {
    xs: Vec<Tensor>,
    targets: Vec<Tensor>,
}

impl Data {
    fn new(spec: &TrainSpec, seed: u64) -> Self {
        let mut rng = Rng::seed(seed ^ 0x7a11_da7a);
        let dims = [spec.tokens, spec.model_dim];
        let xs = (0..spec.batches)
            .map(|_| rng.normal_tensor(&dims, 0.0, 1.0))
            .collect();
        let targets = (0..spec.batches)
            .map(|_| rng.normal_tensor(&dims, 0.0, 0.5))
            .collect();
        Data { xs, targets }
    }
}

/// Mean squared error of `y` against `target`, and its gradient.
fn mse(y: &Tensor, target: &Tensor) -> (f64, Tensor) {
    let n = y.len() as f64;
    let mut grad = y.clone();
    let mut sum = 0.0f64;
    for (g, &t) in grad.as_mut_slice().iter_mut().zip(target.as_slice()) {
        let d = *g - t;
        sum += f64::from(d) * f64::from(d);
        *g = (2.0 * f64::from(d) / n) as f32;
    }
    (sum / n, grad)
}

/// Builds a layer and warms it up with one forward and backward whose
/// gradients are then discarded, so the layer leaves set-up bitwise
/// equal to a fresh one. Returns the median set-up time over
/// [`SETUP_REPEATS`] builds and the last layer.
fn setup(spec: &TrainSpec, data: &Data) -> Res<(f64, MoeLayer)> {
    let mut times = Vec::new();
    let mut layer = None;
    for _ in 0..SETUP_REPEATS {
        drop(layer.take());
        let t0 = Instant::now();
        let mut l = MoeLayer::new(&spec.config(), &mut Rng::seed(MODEL_SEED))?;
        let out = l.forward(&data.xs[0])?;
        let (_, d) = mse(&out.output, &data.targets[0]);
        l.backward(&d)?;
        l.set_frozen(true);
        l.step(0.0);
        l.set_frozen(false);
        times.push(t0.elapsed().as_secs_f64());
        layer = Some(l);
    }
    Ok((median(&times), layer.expect("SETUP_REPEATS > 0")))
}

/// The layer's parameters as exported by `export_state`: router weight,
/// then the experts' `w1`, `b1`, `w2`, `b2`.
fn exported(layer: &MoeLayer) -> Res<[Tensor; 5]> {
    let mut sd = StateDict::new();
    layer.export_state("moe", &mut sd);
    let mut take = |k: &str| {
        sd.take(&format!("moe.{k}"))
            .ok_or_else(|| format!("export_state has no moe.{k}"))
    };
    Ok([
        take("router.weight")?,
        take("experts.w1")?,
        take("experts.b1")?,
        take("experts.w2")?,
        take("experts.b2")?,
    ])
}

/// An independent copy of the layer's router and experts that the
/// stage probe trains.
struct Probe {
    router: LinearRouter,
    experts: ExpertsBlock,
}

impl Probe {
    fn of(layer: &MoeLayer, spec: &TrainSpec) -> Res<Self> {
        let [r, w1, b1, w2, b2] = exported(layer)?;
        let mut router = LinearRouter::new(spec.model_dim, spec.experts, &mut Rng::seed(0));
        router.set_weights(r)?;
        let experts = ExpertsBlock::from_weights(w1, b1, w2, b2)?;
        Ok(Probe { router, experts })
    }

    /// Copies the layer's current weights in, keeping the probe's own
    /// (already touched) gradient buffers.
    fn sync(&mut self, layer: &MoeLayer) -> Res<()> {
        let [r, w1, b1, w2, b2] = exported(layer)?;
        self.router.set_weights(r)?;
        self.experts.set_weights(w1, b1, w2, b2)?;
        Ok(())
    }
}

/// The padded oracle chain: fast_encode → ExpertsBlock::infer →
/// fast_decode with the same weights and the same dropless routing.
fn padded_forward(spec: &TrainSpec, layer: &MoeLayer, x: &Tensor) -> Res<Tensor> {
    let p = Probe::of(layer, spec)?;
    let probs = p.router.logits(x)?.softmax_last();
    let routing = route(&probs, &spec.config().route_config())?;
    let enc = fast_encode(x, &routing)?;
    let y = p.experts.infer(&enc)?;
    Ok(fast_decode(&y, &routing, spec.tokens)?)
}

/// What a probe step produced, for the bitwise checks.
struct ProbeOut {
    output: Tensor,
    d_x: Tensor,
    offsets: Vec<usize>,
    ffn_flops: f64,
}

/// One train step rebuilt from public stage functions, each call
/// recorded as a span. Mirrors `MoeLayer::forward`, `backward` and
/// `step` on the dropless path, buffer recycling included.
fn probe_step(
    spec: &TrainSpec,
    probe: &mut Probe,
    x: &Tensor,
    target: &Tensor,
    step: u64,
    tr: &mut Trace,
) -> Res<ProbeOut> {
    let cfg = spec.config();
    let t = spec.tokens;
    let Probe { router, experts } = probe;
    let (probs, routing, ragged) = tr.time("gate.route", step, 0, || -> Res<_> {
        let probs = router.logits(x)?.softmax_last();
        let routing = route(&probs, &cfg.route_config())?;
        let ragged = RaggedRouting::from_routing(&routing);
        Ok((probs, routing, ragged))
    })?;
    let x_saved = tr.time("core.save_input", step, 0, || x.clone());
    let packed = tr.time("kernels.encode", step, 0, || {
        ragged_encode(x, &routing, &ragged)
    })?;
    let y = tr.time("experts.ffn", step, 0, || {
        experts.forward_grouped(&packed, &ragged.offsets)
    })?;
    let output = tr.time("kernels.decode", step, 0, || -> Res<_> {
        scratch::recycle(packed);
        Ok(ragged_decode(&y, &routing, &ragged, t)?)
    })?;
    tr.time("gate.aux", step, 0, || aux_loss(&probs, &routing))?;
    let (_, d_out) = tr.time("train.loss", step, 0, || mse(&output, target));

    let (d_packed_out, d_gates) = tr.time("kernels.bwd", step, 0, || {
        ragged_decode_backward(&d_out, &y, &routing, &ragged)
    })?;
    let d_packed_in = tr.time("experts.ffn_bwd", step, 0, || -> Res<_> {
        scratch::recycle(y);
        Ok(experts.backward_grouped(&d_packed_out)?)
    })?;
    let mut d_x = tr.time("kernels.bwd", step, 0, || -> Res<_> {
        scratch::recycle(d_packed_out);
        let d_x = ragged_encode_backward(&d_packed_in, &routing, &ragged, t)?;
        scratch::recycle(d_packed_in);
        Ok(d_x)
    })?;
    tr.time("gate.bwd", step, 0, || -> Res<()> {
        // Gate-value gradients → probability gradients through the
        // top-k renormalization, plus the auxiliary loss, then through
        // softmax and the router: `MoeLayer::backward`'s gate half.
        let mut d_probs = scratch::zeroed(probs.dims());
        for (tok, (sel, dg)) in routing.expert_of.iter().zip(&d_gates).enumerate() {
            if cfg.top_k > 1 {
                let vals: Vec<f32> = sel.iter().map(|&e| probs.at(&[tok, e])).collect();
                let s: f32 = vals.iter().sum::<f32>().max(1e-9);
                let gates: Vec<f32> = vals.iter().map(|v| v / s).collect();
                let dot: f32 = dg.iter().zip(&gates).map(|(d, g)| d * g).sum();
                for (i, &e) in sel.iter().enumerate() {
                    d_probs.set(&[tok, e], (dg[i] - dot) / s);
                }
            } else if let (Some(&e), Some(&d)) = (sel.first(), dg.first()) {
                d_probs.set(&[tok, e], d);
            }
        }
        let d_aux = aux_loss_grad(&probs, &routing)?;
        d_probs.axpy(cfg.aux_weight, &d_aux)?;
        scratch::recycle(d_aux);
        let d_logits = probs.softmax_last_backward(&d_probs)?;
        scratch::recycle(d_probs);
        let d_x_router = router.backward(&x_saved, &d_logits)?;
        scratch::recycle(d_logits);
        d_x.axpy(1.0, &d_x_router)?;
        scratch::recycle(d_x_router);
        Ok(())
    })?;
    tr.time("experts.update", step, 0, || {
        experts.step(spec.lr);
        router.step(spec.lr);
    });
    scratch::recycle(probs);
    scratch::recycle(x_saved);
    let rows = ragged.total() as f64;
    Ok(ProbeOut {
        output,
        d_x,
        offsets: ragged.offsets,
        ffn_flops: 4.0 * rows * (spec.model_dim * spec.hidden_dim) as f64,
    })
}

/// One timed layer step; returns the forward output and input gradient
/// with the step's phase times.
struct LayerStep {
    output: Tensor,
    d_x: Tensor,
    loss: f64,
    forward_s: f64,
    backward_s: f64,
    update_s: f64,
}

impl LayerStep {
    fn total(&self) -> f64 {
        self.forward_s + self.backward_s + self.update_s
    }
}

fn layer_step(
    spec: &TrainSpec,
    layer: &mut MoeLayer,
    x: &Tensor,
    target: &Tensor,
) -> Res<LayerStep> {
    let t0 = Instant::now();
    let out = layer.forward(x)?;
    let t1 = Instant::now();
    let (loss, d_out) = mse(&out.output, target);
    let d_x = layer.backward(&d_out)?;
    let t2 = Instant::now();
    layer.step(spec.lr);
    let t3 = Instant::now();
    Ok(LayerStep {
        output: out.output,
        d_x,
        loss,
        forward_s: (t1 - t0).as_secs_f64(),
        backward_s: (t2 - t1).as_secs_f64(),
        update_s: (t3 - t2).as_secs_f64(),
    })
}

/// Runs the workload; see the module docs.
pub fn run(spec: &TrainSpec, run: &Run) -> Res<Outcome> {
    let data = Data::new(spec, run.seed);
    let (setup_s, mut layer) = setup(spec, &data)?;
    let mut tally = Tally::default();
    let rows = spec.tokens as f64;

    // The padded-chain oracle for step 0, on the weights before it.
    let padded0 = padded_forward(spec, &layer, &data.xs[0])?;
    let mut loss0 = f64::NAN;
    let mut loss_final = f64::NAN;

    // Untraced run: steps until the time is up and p90 has its tail.
    // Traced run: two traced steps for every plain one, and every traced
    // step is paired with a stage probe on the same batch.
    let min_plain = if run.trace { 0 } else { min_samples(0.9) };
    let min_traced = if run.trace { min_samples(0.5) } else { 0 };
    // Plain steps with the host's steal share over each.
    let mut plain: Vec<(f64, f64)> = Vec::new();
    let mut traced: Vec<LayerStep> = Vec::new();
    let mut tr = Trace::default();
    let mut coverage = Vec::new();
    let mut rt = RtDelta::default();
    let mut offsets = Vec::new();
    let mut ffn_flops = 0.0;
    let mut probe: Option<Probe> = None;
    let mut step = 0usize;
    let loop_start = Instant::now();
    while loop_start.elapsed().as_secs_f64() < run.seconds
        || plain.len() < min_plain
        || traced.len() < min_traced
        || step < spec.loss_steps
    {
        let b = step % spec.batches;
        let (x, target) = (&data.xs[b], &data.targets[b]);
        let probed = run.trace && step % 3 != 2;
        if probed {
            match probe.as_mut() {
                Some(p) => p.sync(&layer)?,
                None => probe = Some(Probe::of(&layer, spec)?),
            }
        }
        // On probed steps the probe runs on the weights the layer step
        // starts from, before or after it in turn, so neither gains from
        // the caches the other leaves behind.
        let pair_steal = StealMeter::start();
        let mut probe_tr = Trace::default();
        let mut probe_first = None;
        if let (true, Some(p)) = (probed && step % 3 == 1, probe.as_mut()) {
            probe_first = Some(probe_step(spec, p, x, target, step as u64, &mut probe_tr)?);
        }
        let snap = RtDelta::snapshot();
        let steal = StealMeter::start();
        let ls = layer_step(spec, &mut layer, x, target)?;
        let steal = steal.frac();
        let ok = ls.output.as_slice().iter().all(|v| v.is_finite());
        tally.check(ok, || format!("step {step}: non-finite output"));
        if step == 0 {
            loss0 = ls.loss;
            if ls.output.as_slice() != padded0.as_slice() {
                tally.fail("step 0: forward differs from the padded chain".into());
            }
        }
        if let (true, Some(probe)) = (probed, probe.as_mut()) {
            rt.add_since(&snap);
            tr.record("core.forward", step as u64, 0, ls.forward_s);
            tr.record("core.backward", step as u64, 0, ls.backward_s);
            tr.record("core.update", step as u64, 0, ls.update_s);
            let p = match probe_first {
                Some(p) => p,
                None => probe_step(spec, probe, x, target, step as u64, &mut probe_tr)?,
            };
            let ratio = probe_tr.stage_sum(step as u64, 0) / ls.total();
            coverage.push((pair_steal.frac(), ratio));
            tr.extend(probe_tr);
            if p.output.as_slice() != ls.output.as_slice() || p.d_x.as_slice() != ls.d_x.as_slice()
            {
                tally.fail(format!("step {step}: stage probe differs from MoeLayer"));
            }
            offsets = p.offsets;
            ffn_flops = p.ffn_flops;
            traced.push(ls);
        } else {
            plain.push((steal, ls.total()));
        }
        step += 1;
        if step == spec.loss_steps {
            let out = layer.infer(&data.xs[0])?;
            loss_final = mse(&out.output, &data.targets[0]).0;
            if !(loss_final.is_finite() && loss_final < loss0) {
                tally.fail(format!(
                    "loss after {step} steps {loss_final} not below step-0 loss {loss0}"
                ));
            }
        }
    }
    let wall = loop_start.elapsed().as_secs_f64();
    let mut o = Outcome::new(run.trace);
    o.tally = tally;
    if !run.trace {
        // Steps the host did not steal from (see `stats::clean_windows`),
        // so a stall on the host moves one step, not the result.
        // Each percentile over the clean steps, topped up to the steps it
        // needs.
        let kept = |q: f64| clean_windows(plain.clone(), min_samples(q));
        let (p50, p90) = (percentile(&kept(0.5), 0.5)?, percentile(&kept(0.9), 0.9)?);
        o.put("setup_s", setup_s);
        o.put("tokens_per_s", rows / p50);
        o.put("step_ms_p50", 1e3 * p50);
        o.put("step_ms_p90", 1e3 * p90);
        // A train step is one request of T rows: its latency is the step.
        o.put("latency_ms_p50", 1e3 * p50);
        o.put("latency_ms_p90", 1e3 * p90);
        o.put("loss_final", loss_final);
        o.put("peak_rss_mb", peak_rss_mb());
        eprintln!(
            "train: {step} steps in {wall:.1} s wall, {} with at most {STEAL_CLEAN} steal; step-0 loss {loss0:.6}",
            plain.iter().filter(|p| p.0 <= STEAL_CLEAN).count()
        );
        return Ok(o);
    }

    // Tracing overhead: traced against plain layer steps of the same run.
    let traced_s: Vec<f64> = traced.iter().map(LayerStep::total).collect();
    let tps_plain = rows * plain.len() as f64 / plain.iter().map(|p| p.1).sum::<f64>();
    let tps_traced = rows * traced_s.len() as f64 / traced_s.iter().sum::<f64>();
    let p50 = |name: &str| percentile(&tr.per_step(name, 0), 0.5);
    let gemm = gemm_gflops(spec, &offsets);
    let ffn_s = tr.calls("experts.ffn", 0).iter().sum::<f64>();
    let ffn_n = tr.calls("experts.ffn", 0).len() as f64;
    let bins: Vec<f64> = offsets.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    o.put("core.forward_ms_p50", 1e3 * p50("core.forward")?);
    o.put("core.backward_ms_p50", 1e3 * p50("core.backward")?);
    o.put("core.update_ms_p50", 1e3 * p50("core.update")?);
    o.put("gate.route_us_p50", 1e6 * p50("gate.route")?);
    o.put("gate.bin_max_over_mean", bin_max_over_mean(&bins));
    o.put("kernels.encode_us_p50", 1e6 * p50("kernels.encode")?);
    o.put("kernels.decode_us_p50", 1e6 * p50("kernels.decode")?);
    o.put("kernels.bwd_us_p50", 1e6 * p50("kernels.bwd")?);
    o.put("experts.ffn_ms_p50", 1e3 * p50("experts.ffn")?);
    o.put("experts.ffn_bwd_ms_p50", 1e3 * p50("experts.ffn_bwd")?);
    o.put("experts.ffn_gflops", ffn_flops * ffn_n / ffn_s / 1e9);
    o.put("tensor.gemm_gflops", gemm);
    o.put("serve.rows_per_step", rows);
    rt_metrics(&mut o, &rt, traced.len());
    o.put(
        "trace.coverage_frac",
        median(&clean_windows(coverage, min_samples(0.5))),
    );
    o.put("trace.overhead_frac", 1.0 - tps_traced / tps_plain);
    eprintln!(
        "train traced: {step} steps ({} probed) in {wall:.1} s wall",
        traced.len()
    );
    Ok(o)
}

/// Largest routed bin over the mean bin.
pub fn bin_max_over_mean(bins: &[f64]) -> f64 {
    let mean = bins.iter().sum::<f64>() / bins.len().max(1) as f64;
    bins.iter().copied().fold(0.0, f64::max) / mean
}

/// `grouped_gemm` throughput at the step's first-layer bin shapes
/// `(R, M) · (M, H)`, median of repeated launches.
fn gemm_gflops(spec: &TrainSpec, offsets: &[usize]) -> f64 {
    let (k, n) = (spec.model_dim, spec.hidden_dim);
    let total = offsets.last().copied().unwrap_or(0);
    let groups = offsets.len().saturating_sub(1);
    let mut rng = Rng::seed(1);
    let a = rng.normal_tensor(&[total.max(1), k], 0.0, 1.0);
    let b = rng.normal_tensor(&[groups.max(1), k, n], 0.0, 1.0);
    let mut out = vec![0.0f32; total * n];
    let times: Vec<f64> = (0..min_samples(0.5))
        .map(|_| {
            let t0 = Instant::now();
            grouped_gemm(
                &a.as_slice()[..total * k],
                b.as_slice(),
                &mut out,
                offsets,
                k,
                n,
            );
            std::hint::black_box(&out);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * (total * k * n) as f64 / percentile(&times, 0.5).unwrap_or(f64::NAN) / 1e9
}
