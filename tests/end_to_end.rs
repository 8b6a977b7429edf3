//! Cross-crate integration tests: the full offline → online → forecast
//! pipeline, exercised through the umbrella crate's public API only.

use focus::{
    Benchmark, Focus, FocusConfig, Forecaster, MtsDataset, Split, TrainOptions,
};

fn small_ds(seed: u64) -> MtsDataset {
    MtsDataset::generate(Benchmark::Pems08.scaled(8, 2_000), seed)
}

fn small_cfg() -> FocusConfig {
    let mut cfg = FocusConfig::new(64, 16);
    cfg.segment_len = 8;
    cfg.n_prototypes = 8;
    cfg.d = 16;
    cfg.readout = 4;
    cfg.cluster_iters = 10;
    cfg
}

#[test]
fn offline_online_forecast_pipeline() {
    let ds = small_ds(1);
    let mut model = Focus::fit_offline(&ds, small_cfg(), 1);
    let report = model.train(
        &ds,
        &TrainOptions {
            epochs: 3,
            max_windows: 32,
            ..Default::default()
        },
    );
    assert_eq!(report.epoch_losses.len(), 3);
    assert!(
        report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
        "training did not reduce loss: {:?}",
        report.epoch_losses
    );
    let m = model.evaluate(&ds, Split::Test, 32);
    assert!(m.mse().is_finite() && m.mae().is_finite());
    assert!(m.count() > 0);
}

#[test]
fn focus_beats_climatology_after_training() {
    // Predicting "no change from the window mean" is the natural floor; a
    // trained FOCUS must beat it on structured periodic data.
    let ds = small_ds(2);
    let mut model = Focus::fit_offline(&ds, small_cfg(), 2);
    model.train(
        &ds,
        &TrainOptions {
            epochs: 6,
            max_windows: 64,
            ..Default::default()
        },
    );

    let mut model_metrics = focus::Metrics::new();
    let mut mean_metrics = focus::Metrics::new();
    for w in ds.windows(Split::Test, 64, 16, 32) {
        let pred = model.predict(&w.x);
        model_metrics.update(&pred, &w.y);
        // Climatology baseline: repeat the window mean.
        let stats = w.x.row_mean_std();
        let mut naive = focus::Tensor::zeros(&[8, 16]);
        for (e, (mean, _)) in stats.iter().enumerate() {
            for t in 0..16 {
                naive.data_mut()[e * 16 + t] = *mean;
            }
        }
        mean_metrics.update(&naive, &w.y);
    }
    assert!(
        model_metrics.mse() < mean_metrics.mse(),
        "FOCUS MSE {} >= climatology {}",
        model_metrics.mse(),
        mean_metrics.mse()
    );
}

#[test]
fn prototypes_round_trip_through_disk() {
    // Offline phase on one process, online phase on "another": the paper's
    // deployment story. Prototypes must survive serialisation and produce
    // identical forecasts.
    let ds = small_ds(3);
    let cfg = small_cfg();
    let model_a = Focus::fit_offline(&ds, cfg.clone(), 3);

    let dir = std::env::temp_dir().join("focus-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("protos.txt");
    model_a.prototypes().save(&path).unwrap();

    let protos = focus::Prototypes::load(&path).unwrap();
    let model_b = Focus::with_prototypes(cfg, protos, 3);
    let w = ds.window_at(0, 64, 16);
    assert_eq!(
        model_a.predict(&w.x).data(),
        model_b.predict(&w.x).data(),
        "same seed + same prototypes must give identical forecasts"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn zoo_models_share_the_pipeline() {
    use focus::{BaselineConfig, ModelKind};
    let ds = small_ds(4);
    let cfg = BaselineConfig {
        d: 8,
        n_prototypes: 4,
        ..BaselineConfig::new(48, 12)
    };
    for kind in [ModelKind::DLinear, ModelKind::PatchTst, ModelKind::Focus] {
        let mut model = cfg.build(kind, &ds);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 2,
                max_windows: 12,
                ..Default::default()
            },
        );
        assert!(r.epoch_losses.iter().all(|l| l.is_finite()), "{kind:?}");
        let m = model.evaluate(&ds, Split::Val, 48);
        assert!(m.mse().is_finite(), "{kind:?}");
    }
}

#[test]
fn ablation_variants_run_through_public_api() {
    use focus::{AblationVariant, FocusAblation};
    let ds = small_ds(5);
    let cfg = small_cfg();
    let protos = cfg.cluster(&ds.train_matrix(), 5);
    for v in AblationVariant::ALL {
        let model = FocusAblation::with_prototypes(v, cfg.clone(), &protos, 5);
        let w = ds.window_at(10, 64, 16);
        let pred = model.predict(&w.x);
        assert_eq!(pred.dims(), &[8, 16], "{v:?}");
        assert!(pred.all_finite(), "{v:?}");
    }
}

#[test]
fn grid_search_selects_from_validation() {
    use focus::core::tune;
    let ds = small_ds(8);
    let mut base = small_cfg();
    base.cluster_iters = 4;
    base.d = 8;
    let report = tune::grid_search(
        &ds,
        &base,
        &[8, 16],
        &[4, 8],
        &TrainOptions {
            epochs: 1,
            max_windows: 8,
            ..Default::default()
        },
        3,
    );
    assert_eq!(report.points.len(), 4);
    let best = report.best_point();
    assert!(report.points.iter().all(|p| p.val_mse >= best.val_mse));
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let ds = small_ds(6);
        let mut model = Focus::fit_offline(&ds, small_cfg(), 6);
        model.train(
            &ds,
            &TrainOptions {
                epochs: 1,
                max_windows: 8,
                ..Default::default()
            },
        );
        let w = ds.window_at(0, 64, 16);
        model.predict(&w.x).into_vec()
    };
    assert_eq!(run(), run(), "end-to-end pipeline must be reproducible");
}
