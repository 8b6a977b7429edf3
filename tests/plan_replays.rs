//! Every in-repo forecaster must reach plan replay: after the two compiled
//! warmup steps of a `train` call, each further window replays the cached
//! plan. A model whose tape bakes per-window data (route indices, a soft
//! mixture, a decomposed input) without surfacing it through
//! `Forecaster::window_operands` would instead compile every step.

use focus::{
    AblationVariant, Assignment, BaselineConfig, Benchmark, Focus, FocusAblation, FocusConfig,
    Forecaster, ModelKind, MtsDataset, TrainOptions,
};

#[test]
fn every_in_repo_forecaster_replays_after_two_warmup_steps() {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 21);
    let zoo = BaselineConfig {
        d: 8,
        n_prototypes: 4,
        ..BaselineConfig::new(48, 12)
    };
    let mut models: Vec<Box<dyn Forecaster>> = ModelKind::ALL
        .iter()
        .map(|&kind| zoo.build(kind, &ds))
        .collect();
    let mut cfg = FocusConfig::new(48, 12);
    cfg.segment_len = 8;
    cfg.n_prototypes = 4;
    cfg.d = 8;
    cfg.cluster_iters = 4;
    let protos = cfg.cluster(&ds.train_matrix(), 21);
    for v in AblationVariant::ALL {
        models.push(Box::new(FocusAblation::with_prototypes(
            v,
            cfg.clone(),
            &protos,
            21,
        )));
    }
    cfg.assignment = Assignment::Soft { temperature: 1.0 };
    models.push(Box::new(Focus::with_prototypes(cfg, protos, 21)));
    assert_eq!(
        models.len(),
        13,
        "8 zoo models, 4 ablation rows, soft FOCUS"
    );

    let opts = TrainOptions {
        epochs: 1,
        max_windows: 12,
        ..Default::default()
    };
    let mut stuck = Vec::new();
    for model in &mut models {
        let report = model.train(&ds, &opts);
        assert_eq!(report.windows_per_epoch, 12, "{}", model.name());
        if report.plan_replays != 10 {
            stuck.push(format!("{}: {} of 12", model.name(), report.plan_replays));
        }
    }
    assert!(
        stuck.is_empty(),
        "models that did not replay 10 of 12 windows: {stuck:?}"
    );
}
