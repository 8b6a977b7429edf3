//! The counted cost of a forward pass is a property of the model and the
//! window, not of the run: it must not depend on the thread count, and a
//! `predict` that replays its kept plan must count the FLOPs of the
//! never-cached `predict` that compiled it.

use focus_baselines::{BaselineConfig, ModelKind};
use focus_core::count_predict;
use focus_data::{Benchmark, MtsDataset};
use focus_tensor::{par, work};

fn dataset() -> MtsDataset {
    MtsDataset::generate(Benchmark::Pems08.scaled(16, 2_400), 3)
}

#[test]
fn focus_and_patchtst_count_the_same_at_1_2_and_4_threads() {
    let _threads = par::threads_guard();
    let ds = dataset();
    // Long enough that the GEMMs, the elementwise kernels (a [16, 96, 32]
    // embedding is over two 16K-element grains) and the assignment sweep
    // split across workers.
    let (lookback, horizon) = (768, 48);
    let x = ds.window_at(0, lookback, horizon).x;
    let cfg = BaselineConfig {
        d: 32,
        ..BaselineConfig::new(lookback, horizon)
    };
    for kind in [ModelKind::Focus, ModelKind::PatchTst] {
        let model = cfg.build(kind, &ds);
        let counts: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                par::set_threads(threads);
                count_predict(&*model, &x)
            })
            .collect();
        par::set_threads(0);
        assert!(
            counts[0].flops > 0 && counts[0].peak_bytes > 0,
            "{kind:?}: {:?}",
            counts[0]
        );
        assert_eq!(counts[1], counts[0], "{kind:?}: 2 threads against 1");
        assert_eq!(counts[2], counts[0], "{kind:?}: 4 threads against 1");
    }
}

#[test]
fn a_replayed_predict_counts_the_flops_of_a_never_cached_one() {
    let ds = dataset();
    let (lookback, horizon) = (96, 24);
    let x = ds.window_at(0, lookback, horizon).x;
    let cfg = BaselineConfig::new(lookback, horizon);
    for kind in ModelKind::ALL {
        let model = cfg.build(kind, &ds);
        let first = work::measure(|| model.predict(&x)).1;
        let replayed = work::measure(|| model.predict(&x)).1;
        assert!(first.flops > 0, "{kind:?}");
        assert_eq!(replayed.flops, first.flops, "{kind:?}");
    }
}
