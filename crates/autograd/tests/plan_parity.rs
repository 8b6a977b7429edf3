//! Parity suite for the plan compiler and VM against the reference oracle.
//!
//! The VM is the only backward: an uncached step compiles its tape and runs
//! the plan once, a cached step replays it. Both must produce bit for bit
//! the parameters and losses of `focus_autograd::oracle` — the serial
//! reference rules and the reference AdamW update — at every thread count.
//! These tests drive a small model that touches every op in the tape —
//! dense and batched matmuls, the broadcast-NT prototype product, one-hot
//! routing, LayerNorm, softmax, every pointwise nonlinearity, concat/slice,
//! reshape/transpose/swap and the scalar reductions, including a mean whose
//! gradient is computed rather than constant — through the plan cache and
//! compare against the oracle.
//!
//! Plan caching and the thread override are process-global, so every test
//! takes a shared lock, and a test that flips caching restores it on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use focus_autograd::plan::{self, OpCode, PlanCache};
use focus_autograd::{oracle, AdamW, Graph, Optimizer, ParamId, ParamStore, ParamVars, Sgd, Var};
use focus_tensor::{par, Tensor};

const B: usize = 2;
const D: usize = 3;
const H: usize = 8;
const K: usize = 3;
/// Default window length; the invalidation test switches to another value.
const SEQ: usize = 4;

/// Serializes tests: plan caching and the thread override are
/// process-global, and each test compares two runs that must see identical
/// settings throughout.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

/// Sets plan caching until dropped, then restores the previous setting, also
/// when a failing assertion unwinds.
struct Caching(bool);

impl Caching {
    fn set(on: bool) -> Caching {
        let prev = plan::enabled();
        plan::set_enabled(on);
        Caching(prev)
    }
}

impl Drop for Caching {
    fn drop(&mut self) {
        plan::set_enabled(self.0);
    }
}

/// Deterministic pseudo-random data so both runs of a pair see identical
/// bytes without a RNG dependency.
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

struct Model {
    store: ParamStore,
    ids: Vec<ParamId>,
}

fn init_model() -> Model {
    let mut store = ParamStore::new();
    let mut ids = Vec::new();
    ids.push(store.add("w1", Tensor::from_vec(pseudo(D * H, 1), &[D, H])));
    ids.push(store.add("b1", Tensor::from_vec(pseudo(H, 2), &[H])));
    let gamma: Vec<f32> = pseudo(H, 3).iter().map(|v| 1.0 + 0.1 * v).collect();
    ids.push(store.add("gamma", Tensor::from_vec(gamma, &[H])));
    ids.push(store.add("beta", Tensor::from_vec(pseudo(H, 4), &[H])));
    ids.push(store.add("proto", Tensor::from_vec(pseudo(K * H, 5), &[K, H])));
    ids.push(store.add("w2", Tensor::from_vec(pseudo(H + 2, 6), &[H + 2, 1])));
    Model { store, ids }
}

/// One training window: input, target and routing indices vary per step the
/// way real windows do, so steady-state replay sees fresh data each call.
fn sample(seq: usize, step: u32) -> (Tensor, Tensor, Vec<u32>) {
    let x = Tensor::from_vec(pseudo(B * seq * D, 100 + step), &[B, seq, D]);
    let t = Tensor::from_vec(pseudo(B * seq, 200 + step), &[B * seq]);
    let routes: Vec<u32> = (0..B * seq)
        .map(|i| ((i as u32).wrapping_mul(7).wrapping_add(step)) % K as u32)
        .collect();
    (x, t, routes)
}

/// Records the full test model onto `g` and returns `(loss, pred)`: the
/// window is input 0, the target input 1, the routing indices route 0. The
/// graph deliberately routes `h3` through many consumers so gradient
/// accumulation chains (the bitwise-sensitive part) are exercised hard.
fn build_loss(
    g: &mut Graph,
    pv: &ParamVars,
    ids: &[ParamId],
    seq: usize,
    x_t: &Tensor,
    tgt_t: &Tensor,
    routes: &[u32],
) -> (Var, Var) {
    let (w1, b1) = (pv.var(ids[0]), pv.var(ids[1]));
    let (gamma, beta) = (pv.var(ids[2]), pv.var(ids[3]));
    let (proto, w2) = (pv.var(ids[4]), pv.var(ids[5]));
    let x = g.input(x_t.clone());
    let tgt = g.input(tgt_t.clone());
    let route = g.route(routes.to_vec());

    let flat = g.reshape(x, &[B * seq, D]);
    let h1 = g.matmul(flat, w1);
    let h1 = g.add_row_broadcast(h1, b1);
    let h1 = g.gelu(h1);
    let h1 = g.layer_norm(h1, gamma, beta, 1e-5);
    let h3 = g.reshape(h1, &[B, seq, H]);
    let scores = g.matmul_broadcast_nt(proto, h3); // [B, K, seq]
    let attn = g.softmax_last(scores);
    let summ = g.bmm(attn, h3); // [B, K, H]
    let routed = g.route_one_hot(summ, route, seq); // [B, seq, H]
    let cat = g.concat_last(h3, routed); // [B, seq, 2H]
    let sl = g.slice_last(cat, 1, H + 3); // [B, seq, H+2]
    let flat2 = g.reshape(sl, &[B * seq, H + 2]);
    let pred = g.matmul(flat2, w2); // [B*seq, 1]
    let pred = g.tanh(pred);
    let pred = g.scale(pred, 1.5);
    let pred = g.add_scalar(pred, 0.1);
    let predf = g.reshape(pred, &[B * seq]);
    let l_mse = g.mse(predf, tgt);

    // Coverage branches: elementwise ops, the remaining transposes and both
    // batched-matmul adjoints, all feeding small scalar penalties.
    let dif = g.sub(h3, routed);
    let sq = g.mul(dif, dif);
    let l_sq = g.mean_all(sq);
    let ab = g.abs(dif);
    let l_abs = g.mean_all(ab);
    let q = g.bmm_nt(h3, h3); // [B, seq, seq]
    let q2 = g.sigmoid(q);
    let l_q = g.mean_all(q2);
    let sw = g.swap_axes01(h3); // [seq, B, H]
    let swt = g.transpose_last2(sw); // [seq, H, B]
    let rl = g.relu(swt);
    let l_r = g.sum_all(rl);
    let xt = g.transpose(flat); // [D, B*seq]
    let w1t = g.transpose(w1); // [H, D]
    let alt = g.matmul(w1t, xt); // [H, B*seq]
    let aa = g.abs(alt);
    let l_alt = g.mean_all(aa);
    let na = g.neg(l_alt);
    // A mean whose gradient is computed at run time (the product of two
    // scalars), not folded: lowers to `Splat`.
    let m_h = g.mean_all(h3);
    let m_sq = g.mul(m_h, m_h);
    // A fan-out whose shared gradient register takes a later contribution
    // while its other reader is still to run: the backward's copy on write.
    let fan = g.add(sq, ab);
    let l_fan = g.mean_all(fan);

    let s1 = g.scale(l_sq, 0.05);
    let s2 = g.scale(l_abs, 0.05);
    let s3 = g.scale(l_q, 0.02);
    let s4 = g.scale(l_r, 0.001);
    let t1 = g.add(l_mse, s1);
    let t2 = g.add(s2, s3);
    let t3 = g.sub(t1, na); // == t1 + l_alt
    let t4 = g.add(t2, s4);
    let t5 = g.add(t4, m_sq);
    let s5 = g.scale(l_fan, 0.01);
    let t6 = g.add(t5, s5);
    (g.add(t3, t6), pred)
}

/// One oracle step: record, reference backward, reference update.
fn oracle_step(
    model: &mut Model,
    opt: &mut oracle::AdamW,
    seq: usize,
    x: &Tensor,
    tgt: &Tensor,
    routes: &[u32],
) -> f32 {
    let mut g = Graph::new();
    let pv = model.store.register(&mut g);
    let (loss, _) = build_loss(&mut g, &pv, &model.ids, seq, x, tgt, routes);
    let loss = oracle::backward(&mut g, loss);
    model.store.step(opt, &g, &pv);
    loss.data()[0]
}

/// One VM step with the core train loop's control flow: replay the cached
/// plan if it matches, else record the tape, compile it and run that plan.
/// Returns the loss and whether the step replayed.
fn vm_step<O: Optimizer>(
    model: &mut Model,
    opt: &mut O,
    cache: &mut PlanCache,
    seq: usize,
    x: &Tensor,
    tgt: &Tensor,
    routes: &[u32],
) -> (f32, bool) {
    if let Some(lv) = cache.try_replay_train(&[x, tgt], &[routes], &mut model.store, opt) {
        return (lv, true);
    }
    let mut g = Graph::new();
    let pv = model.store.register(&mut g);
    let (loss, _) = build_loss(&mut g, &pv, &model.ids, seq, x, tgt, routes);
    let lv = cache
        .run_train(&g, loss, &pv, &mut model.store, opt)
        .expect("the corpus model lowers");
    (lv, false)
}

/// Forward-only loss evaluation (for finite differences).
fn eval_loss(model: &Model, seq: usize, x: &Tensor, tgt: &Tensor, routes: &[u32]) -> f32 {
    let mut g = Graph::new();
    let pv = model.store.register(&mut g);
    let (loss, _) = build_loss(&mut g, &pv, &model.ids, seq, x, tgt, routes);
    g.value(loss).data()[0]
}

fn run_oracle(n_steps: u32) -> (Vec<Tensor>, Vec<f32>) {
    let mut model = init_model();
    let mut opt = oracle::AdamW::new(1e-2, 0.0);
    let mut losses = Vec::new();
    for s in 0..n_steps {
        let (x, t, r) = sample(SEQ, s);
        losses.push(oracle_step(&mut model, &mut opt, SEQ, &x, &t, &r));
    }
    (model.store.snapshot(), losses)
}

fn run_vm(n_steps: u32) -> (Vec<Tensor>, Vec<f32>, u32) {
    let mut model = init_model();
    let mut opt = AdamW::new(1e-2, 0.0);
    let mut cache = PlanCache::new();
    let mut losses = Vec::new();
    let mut replays = 0;
    for s in 0..n_steps {
        let (x, t, r) = sample(SEQ, s);
        let (lv, replayed) = vm_step(&mut model, &mut opt, &mut cache, SEQ, &x, &t, &r);
        replays += u32::from(replayed);
        losses.push(lv);
    }
    (model.store.snapshot(), losses, replays)
}

fn assert_bitwise_eq(a: &[Tensor], b: &[Tensor], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: param count");
    for (i, (ta, tb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ta.dims(), tb.dims(), "{ctx}: param {i} dims");
        let ba: Vec<u32> = ta.data().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = tb.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ba, bb, "{ctx}: param {i} bits");
    }
}

fn assert_losses_eq(a: &[f32], b: &[f32], ctx: &str) {
    for (s, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: loss at step {s} ({x} vs {y})");
    }
}

#[test]
fn vm_training_is_bitwise_equal_to_oracle_at_1_2_4_threads() {
    let _lock = guard();
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        let (params_o, losses_o) = run_oracle(8);
        // Cached: step 0 compiles and runs its plan, 1..8 replay it.
        let caching = Caching::set(true);
        let (params_c, losses_c, replays) = run_vm(8);
        assert_eq!(replays, 7, "threads={threads}: replay count");
        assert_bitwise_eq(&params_o, &params_c, &format!("cached, threads={threads}"));
        assert_losses_eq(&losses_o, &losses_c, &format!("cached, threads={threads}"));
        drop(caching);
        // Never cached: every step compiles and runs its own plan.
        let _caching = Caching::set(false);
        let (params_u, losses_u, replays) = run_vm(8);
        assert_eq!(replays, 0, "threads={threads}: caching disabled");
        assert_bitwise_eq(&params_o, &params_u, &format!("uncached, threads={threads}"));
        assert_losses_eq(&losses_o, &losses_u, &format!("uncached, threads={threads}"));
    }
    par::set_threads(0);
}

#[test]
fn graph_backward_is_bitwise_equal_to_oracle_at_1_2_4_threads() {
    let _lock = guard();
    let model = init_model();
    let (x, t, r) = sample(SEQ, 3);
    let grads = |oracle_side: bool| {
        let mut g = Graph::new();
        let pv = model.store.register(&mut g);
        let (loss, _) = build_loss(&mut g, &pv, &model.ids, SEQ, &x, &t, &r);
        if oracle_side {
            oracle::backward(&mut g, loss);
        } else {
            g.backward(loss);
        }
        model
            .ids
            .iter()
            .map(|&id| g.grad(pv.var(id)).expect("every parameter feeds the loss").clone())
            .collect::<Vec<_>>()
    };
    par::set_threads(1);
    let reference = grads(true);
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        assert_bitwise_eq(&reference, &grads(false), &format!("gradients, threads={threads}"));
    }
    par::set_threads(0);
}

#[test]
fn gradcheck_through_a_replayed_plan() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let lr = 1e-3f32;
    let mut model = init_model();
    let mut opt = Sgd::new(lr);
    let mut cache = PlanCache::new();
    let (x, t, r) = sample(SEQ, 0);
    vm_step(&mut model, &mut opt, &mut cache, SEQ, &x, &t, &r);
    assert!(cache.is_ready(), "one compiled step keeps its plan");

    let before = model.store.snapshot();
    cache
        .try_replay_train(&[&x, &t], &[&r], &mut model.store, &mut opt)
        .expect("ready cache must replay a matching step");
    let after = model.store.snapshot();

    // SGD: p' = p − lr·g, so (p − p') / lr recovers the replayed gradient up
    // to one rounding. Check it against central differences of the
    // tape's forward loss.
    model.store.restore(&before);
    let eps = 1e-2f32;
    let mut max_rel = 0.0f32;
    for (pi, id) in model.ids.iter().enumerate() {
        for j in 0..before[pi].numel() {
            let orig = model.store.get(*id).data()[j];
            model.store.get_mut(*id).data_mut()[j] = orig + eps;
            let lp = eval_loss(&model, SEQ, &x, &t, &r);
            model.store.get_mut(*id).data_mut()[j] = orig - eps;
            let lm = eval_loss(&model, SEQ, &x, &t, &r);
            model.store.get_mut(*id).data_mut()[j] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = (before[pi].data()[j] - after[pi].data()[j]) / lr;
            let rel = (analytic - numeric).abs() / numeric.abs().max(1.0);
            max_rel = max_rel.max(rel);
        }
    }
    assert!(max_rel < 5e-2, "replayed-plan gradcheck failed: max rel err {max_rel}");
}

#[test]
fn shape_change_invalidates_and_recompiles() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let mut model = init_model();
    let mut opt = AdamW::new(1e-2, 0.0);
    let mut cache = PlanCache::new();

    // One compiled step at SEQ keeps the plan; the next window replays it.
    let (x, t, r) = sample(SEQ, 0);
    vm_step(&mut model, &mut opt, &mut cache, SEQ, &x, &t, &r);
    assert!(cache.is_ready());
    let (x, t, r) = sample(SEQ, 1);
    assert!(cache.try_replay_train(&[&x, &t], &[&r], &mut model.store, &mut opt).is_some());

    // A different window length must refuse to replay and drop the plan
    // instead of replaying a stale one.
    let wide = SEQ + 2;
    let (x6, t6, r6) = sample(wide, 2);
    assert!(
        cache.try_replay_train(&[&x6, &t6], &[&r6], &mut model.store, &mut opt).is_none(),
        "a plan compiled for seq={SEQ} must not replay seq={wide} inputs"
    );
    assert!(!cache.is_ready(), "a shape mismatch drops the plan");

    // One step at the new geometry compiles and keeps its plan again.
    let (x6, t6, r6) = sample(wide, 3);
    vm_step(&mut model, &mut opt, &mut cache, wide, &x6, &t6, &r6);
    assert!(cache.is_ready(), "cache recompiles at the new geometry");
    let (x6, t6, r6) = sample(wide, 4);
    assert!(cache.try_replay_train(&[&x6, &t6], &[&r6], &mut model.store, &mut opt).is_some());
}

/// Records the test model's forward pass on `g`, for
/// `ParamStore::run_forward`.
fn record_pred(g: &mut Graph, model: &Model, x: &Tensor, t: &Tensor, r: &[u32]) -> (Var, ParamVars) {
    let pv = model.store.register(g);
    let (_, pred) = build_loss(g, &pv, &model.ids, SEQ, x, t, r);
    (pred, pv)
}

fn tensor_bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn forward_replay_matches_the_tape() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let model = init_model();

    let (x, t, r) = sample(SEQ, 0);
    model
        .store
        .run_forward(&[&x, &t], &[&r], |g| record_pred(g, &model, &x, &t, &r))
        .expect("the corpus model lowers");

    let (x, t, r) = sample(SEQ, 7);
    let replayed = model
        .store
        .run_forward(&[&x, &t], &[&r], |_| unreachable!("the kept plan matches and replays"))
        .expect("a replay compiles nothing");
    let mut g = Graph::new();
    let (pred, _) = record_pred(&mut g, &model, &x, &t, &r);
    let reference = g.value(pred);
    assert_eq!(reference.dims(), replayed.dims());
    assert_eq!(tensor_bits(&reference), tensor_bits(&replayed), "forward replay must be bitwise equal");
}

/// Replay checks every route index against the plan's prototype count: the
/// routing kernels index unchecked, so an index of `K` at batch 0 would
/// quietly read batch 1's first row.
#[test]
#[should_panic(expected = "route 0: routing index 3 at position 0 out of range for k = 3")]
fn out_of_range_route_fails_the_replay() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let model = init_model();
    let (x, t, r) = sample(SEQ, 0);
    model
        .store
        .run_forward(&[&x, &t], &[&r], |g| record_pred(g, &model, &x, &t, &r))
        .expect("the corpus model lowers");
    let mut bad = r.clone();
    bad[0] = K as u32;
    let _ = model.store.run_forward(&[&x, &t], &[&bad], |_| unreachable!("the kept plan matches"));
}

/// Runs `f`, which must panic, and returns its panic message.
fn panic_message(f: impl FnOnce()) -> String {
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("the call must panic");
    match panic.downcast::<String>() {
        Ok(msg) => *msg,
        Err(panic) => panic.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string()),
    }
}

/// `sample(SEQ, 0)` with one index out of range: value `K + 1` at position
/// 5, and the message every never-cached path must fail with.
fn bad_route() -> (Tensor, Tensor, Vec<u32>, &'static str) {
    let (x, t, mut r) = sample(SEQ, 0);
    r[5] = K as u32 + 1;
    (x, t, r, "routing index 4 at position 5 out of range for k = 3")
}

/// A never-cached step has no kept plan to check its routes against: the
/// tape checks every index when it records the route, before any kernel
/// runs, so the first `run_train` step fails naming the index and updates
/// nothing.
#[test]
fn out_of_range_route_fails_the_first_train_step() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let mut model = init_model();
    let mut opt = AdamW::new(1e-2, 0.0);
    let mut cache = PlanCache::new();
    let (x, t, bad, want) = bad_route();
    let before = model.store.snapshot();
    let msg = panic_message(|| {
        vm_step(&mut model, &mut opt, &mut cache, SEQ, &x, &t, &bad);
    });
    assert!(msg.contains(want), "the message names the index: {msg}");
    assert!(!cache.is_ready(), "a failed step keeps no plan");
    assert_bitwise_eq(&before, &model.store.snapshot(), "no parameter may change");
}

/// As above, for the first `ParamStore::run_forward`: the recording fails
/// before the pass compiles, and the next pass records afresh.
#[test]
fn out_of_range_route_fails_the_first_forward_pass() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let model = init_model();
    let (x, t, bad, want) = bad_route();
    let before = model.store.snapshot();
    let msg = panic_message(|| {
        let _ = model.store.run_forward(&[&x, &t], &[&bad], |g| record_pred(g, &model, &x, &t, &bad));
    });
    assert!(msg.contains(want), "the message names the index: {msg}");
    assert_bitwise_eq(&before, &model.store.snapshot(), "no parameter may change");
    let (x, t, r) = sample(SEQ, 0);
    let mut recorded = false;
    model
        .store
        .run_forward(&[&x, &t], &[&r], |g| {
            recorded = true;
            record_pred(g, &model, &x, &t, &r)
        })
        .expect("the corpus model lowers");
    assert!(recorded, "the failed pass kept no plan");
}

/// As above, for `Graph::backward`.
#[test]
fn out_of_range_route_fails_graph_backward() {
    let _lock = guard();
    let model = init_model();
    let (x, t, bad, want) = bad_route();
    let before = model.store.snapshot();
    let msg = panic_message(|| {
        let mut g = Graph::new();
        let pv = model.store.register(&mut g);
        let (loss, _) = build_loss(&mut g, &pv, &model.ids, SEQ, &x, &t, &bad);
        g.backward(loss);
    });
    assert!(msg.contains(want), "the message names the index: {msg}");
    assert_bitwise_eq(&before, &model.store.snapshot(), "no parameter may change");
}

/// The VM's forward — a never-cached pass, a replay and `Graph::value` —
/// equals the oracle's reference forward, which runs no plan, bit for bit
/// at 1, 2 and 4 threads.
#[test]
fn vm_forward_is_bitwise_equal_to_the_oracle_at_1_2_4_threads() {
    let _lock = guard();
    let model = init_model();
    let pass = |x: &Tensor, t: &Tensor, r: &[u32]| {
        model
            .store
            .run_forward(&[x, t], &[r], |g| record_pred(g, &model, x, t, r))
            .expect("the corpus model lowers")
    };
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        let (x, t, r) = sample(SEQ, 5);
        let mut g = Graph::new();
        let (pred, _) = record_pred(&mut g, &model, &x, &t, &r);
        let reference = tensor_bits(&oracle::forward(&g, pred));
        assert_eq!(tensor_bits(&g.value(pred)), reference, "Graph::value, threads={threads}");
        {
            let _caching = Caching::set(false);
            assert_eq!(tensor_bits(&pass(&x, &t, &r)), reference, "never cached, threads={threads}");
        }
        let _caching = Caching::set(true);
        let (x0, t0, r0) = sample(SEQ, 0);
        pass(&x0, &t0, &r0);
        assert_eq!(tensor_bits(&pass(&x, &t, &r)), reference, "replayed, threads={threads}");
    }
    par::set_threads(0);
}

/// A pass that panics while holding the store's forward lock poisons it. A
/// replay that unwound mid-sweep can leave slot buffers taken, so the next
/// pass must drop the kept plan and record afresh instead of replaying it.
#[test]
fn a_panicked_forward_pass_drops_the_kept_plan() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let model = init_model();
    let (x, t, r) = sample(SEQ, 0);
    let first = model
        .store
        .run_forward(&[&x, &t], &[&r], |g| record_pred(g, &model, &x, &t, &r))
        .expect("the corpus model lowers");
    let mut bad = r.clone();
    bad[0] = K as u32;
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        model.store.run_forward(&[&x, &t], &[&bad], |_| unreachable!("the kept plan matches"))
    }));
    assert!(unwound.is_err(), "an out-of-range route fails the replay");

    let mut recorded = false;
    let again = model
        .store
        .run_forward(&[&x, &t], &[&r], |g| {
            recorded = true;
            record_pred(g, &model, &x, &t, &r)
        })
        .expect("the corpus model lowers");
    assert!(recorded, "the pass after a panic records instead of replaying");
    assert_eq!(tensor_bits(&again), tensor_bits(&first));
    let replayed = model
        .store
        .run_forward(&[&x, &t], &[&r], |_| unreachable!("the re-kept plan replays"))
        .expect("a replay compiles nothing");
    assert_eq!(tensor_bits(&replayed), tensor_bits(&first));
}

/// The parity corpus is the ground truth the `opcode-coverage` lint rule
/// checks test coverage against: every opcode the compiler can emit must be
/// exercised (and named) here, and the ones it structurally cannot emit are
/// listed explicitly so a new opcode cannot slip in uncovered. The two lists
/// must partition [`OpCode::ALL`] exactly.
#[test]
fn opcode_corpus_coverage_is_exhaustive() {
    let _lock = guard();
    let model = init_model();
    let (x, t, r) = sample(SEQ, 0);

    let mut g = Graph::new();
    let pv = model.store.register(&mut g);
    let (loss, _) = build_loss(&mut g, &pv, &model.ids, SEQ, &x, &t, &r);
    let train = plan::compile_train(&g, loss, &pv).expect("compiles");
    let mut g = Graph::new();
    let pv = model.store.register(&mut g);
    let (_, pred) = build_loss(&mut g, &pv, &model.ids, SEQ, &x, &t, &r);
    let fwd = plan::compile_forward(&g, pred, &pv).expect("compiles");

    /// Opcodes the corpus model's train + forward plans emit — today that is
    /// the whole instruction set, and this list keeps it that way: adding an
    /// `OpCode` variant fails the partition check below until the corpus
    /// model is extended (or the gap is consciously recorded) here.
    const EMITTED: &[OpCode] = &[
        OpCode::ZipAdd,
        OpCode::ZipSub,
        OpCode::ZipMul,
        OpCode::ZipReluBwd,
        OpCode::ZipGeluBwd,
        OpCode::ZipAbsBwd,
        OpCode::ZipSigmoidBwd,
        OpCode::ZipTanhBwd,
        OpCode::MapScale,
        OpCode::MapAddScalar,
        OpCode::MapRelu,
        OpCode::MapGelu,
        OpCode::MapSigmoid,
        OpCode::MapTanh,
        OpCode::MapAbs,
        OpCode::BmmNn,
        OpCode::BmmNt,
        OpCode::BmmTn,
        OpCode::BcastNtDa,
        OpCode::RouteGather,
        OpCode::RouteScatter,
        OpCode::AddRowBcast,
        OpCode::BiasGrad,
        OpCode::Softmax,
        OpCode::SoftmaxBwd,
        OpCode::LayerNormFwd,
        OpCode::LayerNormBwd,
        OpCode::TransposeLast2,
        OpCode::Swap01,
        OpCode::ConcatLast,
        OpCode::SliceCols,
        OpCode::ScatterCols,
        OpCode::MeanAll,
        OpCode::SumAll,
        OpCode::Fill,
        OpCode::Splat,
        OpCode::Copy,
        OpCode::Axpy,
    ];
    /// Opcodes the corpus cannot emit, with the structural reason.
    const NOT_EMITTED: &[OpCode] = &[];

    let mut partition: Vec<&str> =
        EMITTED.iter().chain(NOT_EMITTED).map(|o| o.name()).collect();
    partition.sort_unstable();
    let mut all: Vec<&str> = OpCode::ALL.iter().map(|o| o.name()).collect();
    all.sort_unstable();
    assert_eq!(partition, all, "EMITTED and NOT_EMITTED must partition OpCode::ALL");

    let used: std::collections::BTreeSet<&str> =
        train.instrs().iter().chain(fwd.instrs()).map(|i| i.op.name()).collect();
    let expected: std::collections::BTreeSet<&str> =
        EMITTED.iter().map(|o| o.name()).collect();
    assert_eq!(used, expected, "corpus plans drifted from the declared EMITTED set");
}
