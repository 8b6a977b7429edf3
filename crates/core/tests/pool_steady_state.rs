//! Regression test for the zero-allocation steady-state invariant: once a
//! few training steps have populated the tensor buffer pool, further steps of
//! the dual-branch model must recycle every buffer — `pool::fresh_allocs()`
//! stays flat.
//!
//! This file holds exactly one test so the process-global pool counters are
//! not perturbed by unrelated tests sharing the binary.

use focus_autograd::{AdamW, Graph};
use focus_core::model::{Focus, FocusConfig};
use focus_core::{Forecaster, WindowInputs};
use focus_data::{Benchmark, MtsDataset, Split};
use focus_nn::revin::{instance_norm, normalise_target};
use focus_tensor::pool;

#[test]
fn steady_state_training_performs_no_fresh_allocations() {
    let (lookback, horizon) = (64, 16);
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(6, 1_600), 13);
    let mut cfg = FocusConfig::new(lookback, horizon);
    cfg.segment_len = 8;
    cfg.n_prototypes = 6;
    cfg.d = 16;
    cfg.readout = 4;
    cfg.cluster_iters = 8;
    let mut model = Focus::fit_offline(&ds, cfg, 17);
    let windows = ds.windows(Split::Train, lookback, horizon, 24);
    assert!(windows.len() >= 3, "need distinct training windows");

    let mut opt = AdamW::new(1e-3, 1e-4);
    let mut g = Graph::new();
    let mut step = |model: &mut Focus, g: &mut Graph, i: usize| {
        let w = &windows[i % windows.len()];
        let (x_norm, stats) = instance_norm(&w.x);
        let y_norm = normalise_target(&w.y, &stats);
        g.reset();
        let rec = model.record_window(g, &WindowInputs::new(model, x_norm, Some(y_norm)));
        let loss = g.mse(rec.pred, rec.target.expect("the window carries its target"));
        g.backward(loss);
        model.params_mut().step(&mut opt, g, &rec.pv);
        assert!(g.value(loss).item().is_finite(), "loss diverged at step {i}");
    };

    // Warm-up: the first windows grow the pool's shelves.
    for i in 0..3 {
        step(&mut model, &mut g, i);
    }

    // Steady state: every tensor the step needs must now come off a shelf.
    let warm = pool::fresh_allocs();
    for i in 3..13 {
        step(&mut model, &mut g, i);
        assert_eq!(
            pool::fresh_allocs(),
            warm,
            "step {i} allocated fresh buffers after warm-up"
        );
    }
}
