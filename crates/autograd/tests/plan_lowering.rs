//! A tape op that names a kernel another op already names lowers to the
//! same instructions: a rank-2 product is a batched product of one batch,
//! and a rank-2 transpose is a batched transpose of one batch. Each test
//! records one small model twice, once with the rank-2 op and once with
//! its batched twin over batch-1 reshapes, and requires equal train and
//! forward plans.

use focus_autograd::plan::{self, Plan};
use focus_autograd::{Graph, ParamId, ParamStore, Var};
use focus_tensor::Tensor;

const M: usize = 5;
const K: usize = 3;
const H: usize = 7;
const N: usize = 2;

fn pseudo(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(seed.wrapping_mul(0x9e37_79b9));
            let h = h ^ (h >> 13);
            (((h % 2000) as f32 / 1000.0) - 1.0) * 0.4
        })
        .collect()
}

fn store() -> (ParamStore, [ParamId; 2]) {
    let mut store = ParamStore::new();
    let w1 = store.add("w1", Tensor::from_vec(pseudo(K * H, 1), &[K, H]));
    let w2 = store.add("w2", Tensor::from_vec(pseudo(H * N, 2), &[H, N]));
    (store, [w1, w2])
}

/// Records a two-layer model on `store` with `layer` building each product
/// and `flip` the transpose of its result, compiles the train plan (MSE
/// against an input target) and the forward plan of the prediction.
fn compile(
    layer: impl Fn(&mut Graph, Var, Var) -> Var,
    flip: impl Fn(&mut Graph, Var) -> Var,
) -> (Plan, Plan) {
    let (store, [w1, w2]) = store();
    let record = |g: &mut Graph| {
        let pv = store.register(g);
        let x = g.input(Tensor::from_vec(pseudo(M * K, 10), &[M, K]));
        let tgt = g.input(Tensor::from_vec(pseudo(N * M, 11), &[N, M]));
        let h = layer(g, x, pv.var(w1));
        let h = g.tanh(h);
        let y = layer(g, h, pv.var(w2));
        let pred = flip(g, y);
        (pv, pred, tgt)
    };
    let mut g = Graph::new();
    let (pv, pred, tgt) = record(&mut g);
    let loss = g.mse(pred, tgt);
    let train = plan::compile_train(&g, loss, &pv).expect("the model compiles");
    let mut g = Graph::new();
    let (pv, pred, _) = record(&mut g);
    let forward = plan::compile_forward(&g, pred, &pv).expect("the model compiles");
    (train, forward)
}

/// `a·b` as a batch of one: `[1, m, k]·[1, k, n]`, reshaped back.
fn bmm_of_one(g: &mut Graph, a: Var, b: Var) -> Var {
    let (ad, bd) = (g.dims(a).to_vec(), g.dims(b).to_vec());
    let a = g.reshape(a, &[1, ad[0], ad[1]]);
    let b = g.reshape(b, &[1, bd[0], bd[1]]);
    let y = g.bmm(a, b);
    g.reshape(y, &[ad[0], bd[1]])
}

/// `aᵀ` as a batch of one: `[1, m, n]` with its last two axes swapped,
/// reshaped back.
fn transpose_of_one(g: &mut Graph, a: Var) -> Var {
    let ad = g.dims(a).to_vec();
    let a = g.reshape(a, &[1, ad[0], ad[1]]);
    let t = g.transpose_last2(a);
    g.reshape(t, &[ad[1], ad[0]])
}

#[test]
fn a_rank_2_matmul_lowers_like_a_bmm_of_one_batch() {
    let rank2 = compile(|g, a, b| g.matmul(a, b), |g, y| g.transpose(y));
    let batched = compile(bmm_of_one, |g, y| g.transpose(y));
    assert_eq!(rank2.0, batched.0, "train plans differ");
    assert_eq!(rank2.1, batched.1, "forward plans differ");
}

#[test]
fn a_rank_2_transpose_lowers_like_a_transpose_last2_of_one_batch() {
    let rank2 = compile(|g, a, b| g.matmul(a, b), |g, y| g.transpose(y));
    let batched = compile(|g, a, b| g.matmul(a, b), transpose_of_one);
    assert_eq!(rank2.0, batched.0, "train plans differ");
    assert_eq!(rank2.1, batched.1, "forward plans differ");
}
