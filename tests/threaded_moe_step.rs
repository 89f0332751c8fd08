//! The capstone integration test: a complete distributed MoE forward
//! step executed by real threads over the message-passing runtime —
//! per-rank gating, fast encode, Flexible-All-to-All-equivalent
//! exchange (via the threaded 2DH collective), rank-local expert
//! compute, combine exchange, fast decode — compared against the
//! single-process reference layer.

use tutel_suite::comm::runtime::{run_threaded, Communicator};
use tutel_suite::comm::AllToAllAlgo;
use tutel_suite::experts::ExpertsBlock;
use tutel_suite::gate::{route, LinearRouter, RouteConfig, Router};
use tutel_suite::kernels::{fast_decode, fast_encode};
use tutel_suite::simgpu::Topology;
use tutel_suite::tensor::{Rng, Tensor};

/// The 2DH exchange of a flat `(W, chunk)` buffer: chunk `d` goes to
/// rank `d`; the received chunks come back flat in source order.
fn exchange_2dh(comm: &mut Communicator, buf: &[f32]) -> Vec<f32> {
    let sends = comm.uniform_sends(buf).unwrap();
    let handle = comm.ialltoall_v(sends, AllToAllAlgo::TwoDh).unwrap();
    handle.wait(comm).unwrap().concat()
}

/// Flex-dispatch wire format: flatten the (E, dC, M) buffer so that the
/// per-destination-rank chunk is contiguous (experts are rank-major),
/// which is exactly what the All-to-All expects.
fn run_distributed_step(topology: Topology, k: usize, seed: u64) {
    let w = topology.world_size();
    let local_experts = 2usize;
    let experts = w * local_experts;
    let (tokens, m, v) = (18usize, 6usize, 10usize);

    // Shared (replicated) parameters, built once.
    let mut rng = Rng::seed(seed);
    let router = LinearRouter::new(m, experts, &mut rng);
    let global_experts = ExpertsBlock::new(experts, m, v, &mut rng);
    let inputs: Vec<Tensor> = (0..w)
        .map(|_| rng.normal_tensor(&[tokens, m], 0.0, 1.0))
        .collect();

    // Reference: rank-local routing + global expert application.
    let reference: Vec<Tensor> = inputs
        .iter()
        .map(|x| {
            let probs = router.logits(x).unwrap().softmax_last();
            let cfg = RouteConfig {
                k,
                ..RouteConfig::top1()
            };
            let routing = route(&probs, &cfg).unwrap();
            let enc = fast_encode(x, &routing).unwrap();
            let out = global_experts.infer(&enc).unwrap();
            fast_decode(&out, &routing, tokens).unwrap()
        })
        .collect();

    // Distributed: every rank is a thread running the real program.
    let router_ref = &router;
    let experts_ref = &global_experts;
    let inputs_ref = &inputs;
    let results = run_threaded(topology, move |mut comm| {
        let rank = comm.rank();
        let x = &inputs_ref[rank];
        // Gate + route + encode, all rank-local.
        let probs = router_ref.logits(x).unwrap().softmax_last();
        let cfg = RouteConfig {
            k,
            ..RouteConfig::top1()
        };
        let routing = route(&probs, &cfg).unwrap();
        let enc = fast_encode(x, &routing).unwrap(); // (E, dC, M)
        let cap = routing.capacity;

        // Dispatch: the (E, dC, M) buffer is already rank-major along
        // E, so a plain All-to-All ships each destination rank its
        // experts' slabs; the receiving side holds (W, dE, dC, M).
        let received = exchange_2dh(&mut comm, enc.as_slice());

        // Rearrange to the flexible (dE, C = W·dC, M) layout locally
        // and run this rank's experts.
        let recv_t = Tensor::from_vec(received, &[w, local_experts, cap, m]).unwrap();
        let flex = recv_t.permute(&[1, 0, 2, 3]).unwrap();
        let flex = flex.reshape(&[local_experts, w * cap, m]).unwrap();
        let (w1, b1, w2, b2) = experts_ref.weights();
        let slice = |t: &Tensor| t.split_axis(0, w).unwrap()[rank].clone();
        let local = ExpertsBlock::from_weights(slice(w1), slice(b1), slice(w2), slice(b2)).unwrap();
        let expert_out = local.infer(&flex).unwrap();

        // Combine: invert the layout and ship each source its tokens.
        let back = expert_out
            .reshape(&[local_experts, w, cap, m])
            .unwrap()
            .permute(&[1, 0, 2, 3])
            .unwrap();
        let combined = exchange_2dh(&mut comm, back.as_slice());
        let combined = Tensor::from_vec(combined, &[experts, cap, m]).unwrap();
        fast_decode(&combined, &routing, tokens).unwrap()
    });

    for (rank, (got, expect)) in results.iter().zip(&reference).enumerate() {
        let diff = got.sub(expect).unwrap().max_abs();
        assert!(diff < 1e-4, "rank {rank} diverged by {diff}");
    }
}

#[test]
fn threaded_moe_step_four_ranks_top1() {
    run_distributed_step(Topology::single_node(4), 1, 11);
}

#[test]
fn threaded_moe_step_multi_node_top2() {
    run_distributed_step(Topology::new(2, 2), 2, 12);
}

#[test]
fn threaded_moe_step_eight_ranks() {
    run_distributed_step(Topology::new(2, 4), 2, 13);
}
