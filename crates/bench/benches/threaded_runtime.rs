//! Benches for the threaded message-passing runtime: per-collective
//! overhead of the real multi-thread execution vs the sequential
//! functional reference, and the fixed cost of one launch (an empty
//! rank program: hand each rank to a parked worker, wait for all).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tutel_comm::runtime::{run_threaded, Communicator};
use tutel_comm::{linear_all_to_all, AllToAllAlgo, RankBuffers};
use tutel_simgpu::Topology;

/// The fixed-size exchange of a flat `(W, chunk)` buffer: the
/// uniform-count `ialltoall_v`, waited and flattened back.
fn exchange(comm: &mut Communicator, input: &[f32], algo: AllToAllAlgo) -> Vec<f32> {
    let sends = comm.uniform_sends(input).unwrap();
    let handle = comm.ialltoall_v(sends, algo).unwrap();
    handle.wait(comm).unwrap().concat()
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_runtime");
    for &(nnodes, gpn) in &[(1usize, 4usize), (2, 4)] {
        let topo = Topology::new(nnodes, gpn);
        let n = topo.world_size();
        let bufs: RankBuffers = (0..n)
            .map(|r| (0..n * 128).map(|i| (r * 1000 + i) as f32).collect())
            .collect();
        let bufs_ref = &bufs;
        group.bench_with_input(BenchmarkId::new("sequential_linear", n), &n, |b, _| {
            b.iter(|| linear_all_to_all(bufs_ref))
        });
        group.bench_with_input(BenchmarkId::new("threaded_linear", n), &n, |b, _| {
            b.iter(|| {
                run_threaded(topo, |mut comm| {
                    let rank = comm.rank();
                    exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::Linear)
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("threaded_2dh", n), &n, |b, _| {
            b.iter(|| {
                run_threaded(topo, |mut comm| {
                    let rank = comm.rank();
                    exchange(&mut comm, &bufs_ref[rank], AllToAllAlgo::TwoDh)
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("threaded_allreduce", n), &n, |b, _| {
            b.iter(|| {
                run_threaded(topo, |mut comm| {
                    let mine = vec![comm.rank() as f32; n * 64];
                    comm.all_reduce_sum(&mine).unwrap()
                })
            })
        });
    }
    for n in [2usize, 8] {
        let topo = Topology::new(1, n);
        group.bench_with_input(BenchmarkId::new("noop_launch", n), &n, |b, _| {
            b.iter(|| run_threaded(topo, |_comm| ()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime
}
criterion_main!(benches);
