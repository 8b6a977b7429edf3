//! The tape records and computes nothing: once its leaves and inputs exist,
//! recording a node of every `Op` runs no kernel and takes no pool buffer.
//! Every value comes from the plan VM, which this test also holds to the
//! reference oracle's forward.
//!
//! Pool counters are process-global, so this file holds exactly one test.

use focus_autograd::{oracle, Graph};
use focus_tensor::{pool, Tensor};

fn ramp(dims: &[usize], seed: f32) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec((0..n).map(|i| ((i as f32 * 0.37 + seed).sin()) * 0.5).collect(), dims)
}

#[test]
fn recording_every_op_takes_no_pool_buffer() {
    let mut g = Graph::new();
    // Leaves and inputs first: each holds the tensor it is given.
    let w = g.leaf(ramp(&[3, 4], 0.1)); // Leaf (trainable)
    let bias = g.leaf(ramp(&[4], 0.2));
    let gamma = g.leaf(ramp(&[4], 0.3));
    let beta = g.constant(ramp(&[4], 0.4)); // Leaf (constant)
    let x = g.input(ramp(&[2, 5, 3], 0.5)); // Input
    let route = g.route(vec![0, 1, 2, 2, 1, 0, 0, 0, 1, 2]); // B·l = 2·5, k = 3

    let before = pool::lookups();
    let flat = g.reshape(x, &[10, 3]); // Reshape
    let h = g.matmul(flat, w); // Matmul [10, 4]
    let h = g.add_row_broadcast(h, bias); // AddRowBroadcast
    let h = g.layer_norm(h, gamma, beta, 1e-5); // LayerNormLast
    let h3 = g.reshape(h, &[2, 5, 4]);
    let scores = g.matmul_broadcast_nt(w, h3); // MatmulBroadcastNt [2, 3, 5]
    let attn = g.softmax_last(scores); // SoftmaxLast
    let head = g.bmm(attn, h3); // Bmm [2, 3, 4]
    let routed = g.route_one_hot(head, route, 5); // RouteOneHot [2, 5, 4]
    let q = g.bmm_nt(routed, h3); // BmmNt [2, 5, 5]
    let qt = g.transpose_last2(q); // TransposeLast2
    let qs = g.swap_axes01(qt); // SwapAxes01 [5, 2, 5]
    let xt = g.transpose(flat); // Transpose2 [3, 10]
    let cat = g.concat_last(routed, h3); // ConcatLast [2, 5, 8]
    let sl = g.slice_last(cat, 2, 6); // SliceLast [2, 5, 4]
    let sum = g.add(sl, h3); // Add
    let dif = g.sub(sum, routed); // Sub
    let prod = g.mul(dif, dif); // Mul
    let neg = g.neg(prod); // Neg
    let scaled = g.scale(neg, 0.5); // Scale
    let shifted = g.add_scalar(scaled, 0.25); // AddScalar
    let r = g.relu(shifted); // Relu
    let ge = g.gelu(r); // Gelu
    let si = g.sigmoid(ge); // Sigmoid
    let th = g.tanh(si); // Tanh
    let ab = g.abs(th); // Abs
    let l1 = g.mean_all(ab); // MeanAll
    let l2 = g.sum_all(qs); // SumAll
    let l3 = g.mean_all(xt);
    let l12 = g.add(l1, l2);
    let loss = g.add(l12, l3);
    assert_eq!(pool::lookups(), before, "recording must take no pool buffer");
    assert_eq!(g.dims(qs), &[5, 2, 5]);
    assert_eq!(g.dims(loss), &[] as &[usize]);

    // The recorded tape still evaluates: the VM's value of every op above
    // equals the oracle's, which runs no plan.
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&g.value(loss)), bits(&oracle::forward(&g, loss)));
}
