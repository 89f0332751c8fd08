//! Cost of the causal-trace instrumentation on the comm hot path.
//!
//! The acceptance bar mirrors `telemetry_overhead`: with tracing
//! *disabled* (the default — every `run_threaded` call, which arms no
//! [`TraceHub`]), the instrumented runtime must stay within 2% of an
//! uninstrumented one. Each trace call site is a single branch on an
//! `Option<Arc<_>>`, no clock read and no allocation, and the per-
//! transmission seq counters are never touched (`untraced` rows).
//! The `traced` rows quantify what turning the tracer on costs:
//! monotonic clock reads, ring pushes, and the seq map.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tutel_comm::runtime::{run_threaded, run_threaded_with, Communicator, RunOpts};
use tutel_comm::AllToAllAlgo;
use tutel_obs::trace::{FlowKind, TraceHub, Tracer, TRACK_COMM};
use tutel_simgpu::Topology;

/// The fixed-size linear exchange of a flat `(W, chunk)` buffer.
fn exchange(comm: &mut Communicator, input: &[f32]) -> Vec<f32> {
    let sends = comm.uniform_sends(input).unwrap();
    let handle = comm.ialltoall_v(sends, AllToAllAlgo::Linear).unwrap();
    handle.wait(comm).unwrap().concat()
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");

    // Collective level: the same 8-rank linear exchange with the
    // tracer compiled in but disarmed vs armed. The untraced row is
    // the <2% gate's numerator; the baseline is the pre-trace runtime
    // (identical code minus dead branches), which it must match.
    let topo = Topology::new(2, 4);
    let n = topo.world_size();
    let bufs: Vec<Vec<f32>> = (0..n)
        .map(|r| (0..n * 128).map(|i| (r * 1000 + i) as f32).collect())
        .collect();
    let bufs_ref = &bufs;
    group.bench_with_input(BenchmarkId::new("a2a_untraced", n), &n, |b, _| {
        b.iter(|| {
            run_threaded(topo, |mut comm| {
                let rank = comm.rank();
                exchange(&mut comm, &bufs_ref[rank])
            })
        })
    });
    group.bench_with_input(BenchmarkId::new("a2a_traced", n), &n, |b, _| {
        b.iter(|| {
            let hub = TraceHub::new(n);
            let opts = RunOpts {
                reliable: None,
                trace: Some(&hub),
            };
            run_threaded_with(topo, opts, |mut comm| {
                let rank = comm.rank();
                exchange(&mut comm, &bufs_ref[rank])
            })
        })
    });

    // Call-site level: the pure price of one disabled trace call —
    // the branch the hot path pays when nobody is tracing.
    let disabled = Tracer::disabled();
    group.bench_function("disabled_span", |b| {
        b.iter(|| disabled.span(TRACK_COMM, "bench"))
    });
    group.bench_function("disabled_flow_send", |b| {
        b.iter(|| disabled.flow_send(0, 7, 0, FlowKind::Data, 512))
    });
    group.bench_function("disabled_instant", |b| {
        b.iter(|| disabled.instant(TRACK_COMM, "bench"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_trace_overhead
}
criterion_main!(benches);
