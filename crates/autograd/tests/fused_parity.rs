//! Parity guarantees for the fused kernel path.
//!
//! The fused kernels (LayerNorm, softmax, Gelu family, AdamW) promise to be
//! *bitwise identical* to the unfused reference path and invariant to the
//! worker thread count. These tests pin both promises, plus finite-difference
//! gradchecks run with the fused path active.
//!
//! `set_fused` and `set_threads` are process globals, so every test that
//! toggles them serialises on one mutex and restores the defaults before
//! releasing it.

use std::sync::{Mutex, MutexGuard};

use focus_autograd::{gradcheck, set_fused, AdamW, Graph, ParamStore};
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
/// LayerNorm, Gelu, sigmoid, tanh and trailing-axis softmax. Returns the
/// loss value and the gradients of all leaves.
fn run_net(inputs: &[Tensor]) -> (f32, Vec<Tensor>) {
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
    g.backward(loss);
    let grads = vars
        .iter()
        .map(|&v| g.grad(v).cloned().unwrap_or_else(|| Tensor::zeros(&[1])))
        .collect();
    (g.value(loss).item(), grads)
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
    let _guard = lock_globals();
    set_fused(true);
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
fn fused_path_is_bitwise_equal_to_reference() {
    let _guard = lock_globals();
    for (rows, width) in PARITY_SIZES {
        let inputs = net_inputs_sized(rows, width);

        set_fused(false);
        let (loss_ref, grads_ref) = run_net(&inputs);
        set_fused(true);
        let (loss_fused, grads_fused) = run_net(&inputs);

        assert_eq!(loss_ref.to_bits(), loss_fused.to_bits(), "loss differs at [{rows}, {width}]");
        for (i, (r, f)) in grads_ref.iter().zip(&grads_fused).enumerate() {
            assert_bitwise_eq(r, f, &format!("grad of leaf {i} at [{rows}, {width}]"));
        }
    }
}

#[test]
fn fused_kernels_are_thread_count_invariant() {
    let _guard = lock_globals();
    set_fused(true);
    for (rows, width) in PARITY_SIZES {
        let inputs = net_inputs_sized(rows, width);

        par::set_threads(1);
        let (loss_1, grads_1) = run_net(&inputs);
        for threads in [2, 4] {
            par::set_threads(threads);
            let (loss_t, grads_t) = run_net(&inputs);
            assert_eq!(
                loss_1.to_bits(),
                loss_t.to_bits(),
                "loss differs at {threads} threads, [{rows}, {width}]"
            );
            for (i, (a, b)) in grads_1.iter().zip(&grads_t).enumerate() {
                assert_bitwise_eq(
                    a,
                    b,
                    &format!("grad of leaf {i} at {threads} threads, [{rows}, {width}]"),
                );
            }
        }
    }
    par::set_threads(0);
}

/// Runs `steps` AdamW updates on a two-parameter model and returns the final
/// parameter tensors. Fresh optimizer state each call, so the only variable
/// between calls is the global mode/thread configuration.
fn train_params(steps: usize) -> Vec<Tensor> {
    let mut store = ParamStore::new();
    let w = store.add("w", filled(&[4, 6], 11));
    let b = store.add("b", filled(&[6], 12));
    let x = filled(&[3, 4], 13);
    let target = filled(&[3, 6], 14);

    let mut opt = AdamW::new(1e-2, 1e-3);
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
        g.backward(loss);
        store.step(&mut opt, &g, &vars);
    }
    store.snapshot()
}

#[test]
fn fused_adamw_matches_reference_bitwise_across_thread_counts() {
    let _guard = lock_globals();

    set_fused(false);
    let reference = train_params(5);

    set_fused(true);
    for threads in [1, 2, 4] {
        par::set_threads(threads);
        let fused = train_params(5);
        for (i, (r, f)) in reference.iter().zip(&fused).enumerate() {
            assert_bitwise_eq(r, f, &format!("param {i} at {threads} threads"));
        }
    }
    par::set_threads(0);
}
