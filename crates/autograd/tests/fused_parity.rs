//! Parity guarantees for the fused kernels the plan VM dispatches.
//!
//! The fused kernels (LayerNorm, softmax, the Gelu family, the broadcast
//! score product, AdamW) promise to be *bitwise identical* to the serial
//! reference loops in `focus_autograd::oracle` and invariant to the worker
//! thread count. These tests run the VM ([`Graph::backward`], which lowers
//! the tape and runs the plan) against the oracle at 1, 2 and 4 threads,
//! plus finite-difference gradchecks through the VM.
//!
//! `set_threads` is a process global, so every test that sets it
//! serialises on one mutex and restores the default before releasing it.

use std::sync::{Mutex, MutexGuard};

use focus_autograd::{gradcheck, oracle, AdamW, Graph, ParamStore};
use focus_tensor::{par, Tensor};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock_globals() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic pseudo-random fill in roughly [-0.5, 0.5] — no RNG state,
/// so every mode/thread-count run sees identical inputs.
fn filled(dims: &[usize], seed: u32) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed * 97 + 13);
            (h >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect();
    Tensor::from_vec(data, dims)
}

/// Forward + backward of a net that exercises every fused kernel:
/// LayerNorm, Gelu, sigmoid, tanh and trailing-axis softmax, through the VM
/// or (`reference`) the oracle. Returns the loss value, the gradients of all
/// leaves, and the LayerNorm output next to the oracle's forward loop on the
/// same inputs.
fn run_net(inputs: &[Tensor], reference: bool) -> (f32, Vec<Tensor>, [Tensor; 2]) {
    let mut g = Graph::new();
    let vars: Vec<_> = inputs.iter().map(|t| g.leaf(t.clone())).collect();
    let [x, gamma, beta, w, target] = vars[..] else {
        panic!("run_net expects 5 inputs")
    };
    let ln = g.layer_norm(x, gamma, beta, 1e-5);
    let act = g.gelu(ln);
    let sig = g.sigmoid(act);
    let mixed = g.matmul(sig, w);
    let th = g.tanh(mixed);
    let sm = g.softmax_last(th);
    let loss = g.mse(sm, target);
    let loss_value = if reference {
        oracle::backward(&mut g, loss)
    } else {
        g.backward(loss);
        g.value(loss)
    };
    let grads = vars
        .iter()
        .map(|&v| g.grad(v).cloned().unwrap_or_else(|| Tensor::zeros(&[1])))
        .collect();
    let (ln_ref, _) = oracle::layer_norm(&inputs[0], inputs[1].data(), inputs[2].data(), 1e-5);
    (loss_value.item(), grads, [g.value(ln), ln_ref])
}

/// Inputs for `run_net` with `rows × width` LayerNorm input: width 7 is all
/// lane remainder, width 19 is two full 8-lane chunks plus a tail, and 300
/// rows split across workers at 2 and 4 threads.
fn net_inputs_sized(rows: usize, width: usize) -> Vec<Tensor> {
    vec![
        filled(&[rows, width], 1), // x
        filled(&[width], 2),       // gamma
        filled(&[width], 3),       // beta
        filled(&[width, 5], 4),    // w
        filled(&[rows, 5], 5),     // target
    ]
}

fn net_inputs() -> Vec<Tensor> {
    net_inputs_sized(6, 7)
}

const PARITY_SIZES: [(usize, usize); 2] = [(6, 7), (300, 19)];

fn assert_bitwise_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn fused_kernels_pass_gradcheck() {
    let rep = gradcheck::check(&net_inputs(), 1e-2, |g, v| {
        let ln = g.layer_norm(v[0], v[1], v[2], 1e-5);
        let act = g.gelu(ln);
        let sig = g.sigmoid(act);
        let mixed = g.matmul(sig, v[3]);
        let th = g.tanh(mixed);
        let sm = g.softmax_last(th);
        g.mse(sm, v[4])
    });
    assert!(rep.max_rel_err < 0.05, "rel err {}", rep.max_rel_err);
}

#[test]
fn vm_is_bitwise_equal_to_oracle_at_1_2_4_threads() {
    let _guard = lock_globals();
    for (rows, width) in PARITY_SIZES {
        let inputs = net_inputs_sized(rows, width);
        par::set_threads(1);
        let (loss_ref, grads_ref, _) = run_net(&inputs, true);
        for threads in [1, 2, 4] {
            par::set_threads(threads);
            let (loss, grads, [ln, ln_ref]) = run_net(&inputs, false);
            let at = format!("{threads} threads, [{rows}, {width}]");
            assert_eq!(loss_ref.to_bits(), loss.to_bits(), "loss differs at {at}");
            for (i, (r, f)) in grads_ref.iter().zip(&grads).enumerate() {
                assert_bitwise_eq(r, f, &format!("grad of leaf {i} at {at}"));
            }
            assert_bitwise_eq(&ln_ref, &ln, &format!("LayerNorm forward at {at}"));
        }
    }
    par::set_threads(0);
}

#[test]
fn broadcast_score_forward_matches_oracle_at_1_2_4_threads() {
    let _guard = lock_globals();
    // 33 batches cross the batch-parallel threshold of the score kernel.
    for (k, bsz, l, d) in [(3, 2, 5, 4), (8, 33, 12, 32)] {
        let a = filled(&[k, d], 21);
        let x = filled(&[bsz, l, d], 22);
        let reference = oracle::matmul_broadcast_nt(&a, &x);
        for threads in [1, 2, 4] {
            par::set_threads(threads);
            let mut g = Graph::new();
            let (av, xv) = (g.constant(a.clone()), g.constant(x.clone()));
            let s = g.matmul_broadcast_nt(av, xv);
            assert_bitwise_eq(&reference, &g.value(s), &format!("[{k}, {bsz}, {l}, {d}] at {threads} threads"));
        }
    }
    par::set_threads(0);
}

/// Runs `steps` AdamW updates on a two-parameter model and returns the final
/// parameter tensors: through the VM and the fused AdamW, or (`reference`)
/// through the oracle's backward and reference AdamW. Fresh optimizer state
/// each call.
fn train_params(steps: usize, reference: bool) -> Vec<Tensor> {
    let mut store = ParamStore::new();
    let w = store.add("w", filled(&[4, 6], 11));
    let b = store.add("b", filled(&[6], 12));
    let x = filled(&[3, 4], 13);
    let target = filled(&[3, 6], 14);

    let mut opt = AdamW::new(1e-2, 1e-3);
    let mut opt_ref = oracle::AdamW::new(1e-2, 1e-3);
    let mut g = Graph::new();
    for _ in 0..steps {
        g.reset();
        let vars = store.register(&mut g);
        let xv = g.constant(x.clone());
        let tv = g.constant(target.clone());
        let h = g.matmul(xv, vars.var(w));
        let hb = g.add_row_broadcast(h, vars.var(b));
        let act = g.gelu(hb);
        let loss = g.mse(act, tv);
        if reference {
            oracle::backward(&mut g, loss);
            store.step(&mut opt_ref, &g, &vars);
        } else {
            g.backward(loss);
            store.step(&mut opt, &g, &vars);
        }
    }
    store.snapshot()
}

#[test]
fn fused_adamw_matches_reference_bitwise_across_thread_counts() {
    let _guard = lock_globals();
    par::set_threads(1);
    let reference = train_params(5, true);
    for threads in [1, 2, 4] {
        par::set_threads(threads);
        let fused = train_params(5, false);
        for (i, (r, f)) in reference.iter().zip(&fused).enumerate() {
            assert_bitwise_eq(r, f, &format!("param {i} at {threads} threads"));
        }
    }
    par::set_threads(0);
}
