//! The plan verifier at its public boundary: compiled plans pass it, and a
//! rejection fails the step with the verifier's positioned message instead
//! of running anything. The corrupted-plan corpus, which needs the plan's
//! crate-private tables, lives in the verifier's unit tests.

use std::sync::{Mutex, MutexGuard, OnceLock};

use focus_autograd::plan::{self, Plan, PlanCache};
use focus_autograd::verify::{self, verify_plan};
use focus_autograd::{Graph, ParamId, ParamStore, ParamVars, Sgd, Var};
use focus_tensor::Tensor;

const N: usize = 4;
const D: usize = 3;
const H: usize = 8;

/// The plan gate is process-global; serialize the tests in this binary.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
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

fn small_store() -> (ParamStore, Vec<ParamId>) {
    let mut store = ParamStore::new();
    let ids = vec![
        store.add("w1", Tensor::from_vec(pseudo(D * H, 1), &[D, H])),
        store.add("b1", Tensor::from_vec(pseudo(H, 2), &[H])),
        store.add("w2", Tensor::from_vec(pseudo(H, 3), &[H, 1])),
    ];
    (store, ids)
}

/// Records a small MLP (matmul → bias → gelu → matmul) against an input
/// target, returning the registration, the prediction `[N, 1]` and the MSE.
fn record(g: &mut Graph, store: &ParamStore, ids: &[ParamId]) -> (ParamVars, Var, Var) {
    let pv = store.register(g);
    let (w1, b1, w2) = (pv.var(ids[0]), pv.var(ids[1]), pv.var(ids[2]));
    let x = g.input(Tensor::from_vec(pseudo(N * D, 10), &[N, D]));
    let tgt = g.input(Tensor::from_vec(pseudo(N, 11), &[N]));
    let h = g.matmul(x, w1);
    let h = g.add_row_broadcast(h, b1);
    let h = g.gelu(h);
    let p = g.matmul(h, w2);
    let pf = g.reshape(p, &[N]);
    let loss = g.mse(pf, tgt);
    (pv, p, loss)
}

/// The compiler already verifies internally (a `Rejected` compile error
/// would fail the `expect`s); this re-checks both plan kinds through the
/// public entry point.
#[test]
fn compiler_emitted_plans_pass_the_verifier() {
    let _lock = guard();
    let (store, ids) = small_store();
    let mut g = Graph::new();
    let (pv, pred, loss) = record(&mut g, &store, &ids);
    let plans: [Plan; 2] = [
        plan::compile_train(&g, loss, &pv).expect("small model compiles"),
        plan::compile_forward(&g, pred, &pv).expect("small model compiles"),
    ];
    for p in &plans {
        verify_plan(p).expect("compiled plans verify");
    }
}

#[test]
fn verifier_rejection_fails_the_step_with_its_position() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let (mut store, ids) = small_store();
    let mut cache = PlanCache::new();
    let mut opt = Sgd::new(1e-2);
    let mut g = Graph::new();
    let (pv, _, loss) = record(&mut g, &store, &ids);
    let before = store.snapshot();

    // The failpoint is per thread; it is cleared before any assertion can
    // unwind past it.
    verify::set_fail_all(true);
    let res = cache.run_train(&g, loss, &pv, &mut store, &mut opt);
    verify::set_fail_all(false);

    let err = res.expect_err("an armed failpoint rejects the plan");
    assert!(
        matches!(&err, plan::CompileError::Rejected(e) if e.instr == Some(0)),
        "rejection carries the verifier's position: {err:?}"
    );
    assert_eq!(
        err.to_string(),
        "plan verify: instr 0: verification failpoint enabled"
    );
    // Nothing ran and nothing was kept: no executor is left to fall back
    // to, so the step fails instead of quietly taking another path.
    assert!(!cache.is_ready());
    for (a, b) in before.iter().zip(&store.snapshot()) {
        assert_eq!(
            a.data(),
            b.data(),
            "a rejected step must not update parameters"
        );
    }
    // With the failpoint cleared the same tape compiles, runs and is kept.
    let lv = cache
        .run_train(&g, loss, &pv, &mut store, &mut opt)
        .expect("the small model lowers");
    assert!(lv.is_finite());
    assert!(cache.is_ready());
}

#[test]
#[should_panic(expected = "plan verify: instr 0: verification failpoint enabled")]
fn graph_backward_panics_with_the_rejection() {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            verify::set_fail_all(false);
        }
    }
    let _reset = Reset;
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
    let loss = g.sum_all(x);
    verify::set_fail_all(true);
    g.backward(loss);
}
