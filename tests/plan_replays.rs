//! Every in-repo forecaster must compile one plan per shape and replay it
//! soundly. Plans bind a window's data by identity — the tape records the
//! window, the target and `Forecaster::window_operands` as inputs and routes
//! — so one compiled step serves every later window of the same shapes. A
//! model that records window data as a `Graph::constant` would instead bake
//! the first window into its plan; the compile-twice test catches that.
//!
//! `Forecaster::predict` keeps one forward plan per model, in its
//! `ParamStore`, and replays it for every later window; the predict guards
//! hold it bitwise equal to never-cached prediction, and to the model's own
//! bits when two models of equal shapes interleave.
//!
//! focus-lint requires every `impl Forecaster` type to be named in this
//! file, so a new model cannot skip these guards.

use std::sync::{Mutex, MutexGuard, OnceLock};

use focus::autograd::plan::{self, PlanCache};
use focus::autograd::{AdamW, Graph};
use focus::core::{Loss, WindowInputs};
use focus::nn::revin::{instance_norm, normalise_target};
use focus::{
    AblationVariant, Assignment, BaselineConfig, Benchmark, Focus, FocusAblation, FocusConfig,
    Forecaster, ModelKind, MtsDataset, Split, Tensor, TrainOptions,
};

/// Plan caching is process-global and these tests run concurrently: every
/// test that depends on it holds this lock.
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

fn dataset() -> MtsDataset {
    MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 21)
}

/// All 13 in-repo forecasters: the 8 zoo models (FOCUS, PatchTst,
/// Crossformer, Mtgnn, GraphWavenet, TimesNet, LightCts, DLinear), the 4
/// FocusAblation rows and soft-routed FOCUS.
fn forecasters(ds: &MtsDataset) -> Vec<Box<dyn Forecaster>> {
    let zoo = BaselineConfig {
        d: 8,
        n_prototypes: 4,
        ..BaselineConfig::new(48, 12)
    };
    let kinds = [
        ModelKind::Focus,
        ModelKind::PatchTst,
        ModelKind::Crossformer,
        ModelKind::Mtgnn,
        ModelKind::GraphWavenet,
        ModelKind::TimesNet,
        ModelKind::LightCts,
        ModelKind::DLinear,
    ];
    let mut models: Vec<Box<dyn Forecaster>> =
        kinds.iter().map(|&kind| zoo.build(kind, ds)).collect();
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
    models
}

/// The normalised window and target of `(x, y)`.
fn normalised(x: &Tensor, y: &Tensor) -> (Tensor, Tensor) {
    let (x_norm, stats) = instance_norm(x);
    (x_norm, normalise_target(y, &stats))
}

#[test]
fn every_in_repo_forecaster_replays_after_one_warmup_step() {
    let _lock = guard();
    let _caching = Caching::set(true);
    let ds = dataset();
    let opts = TrainOptions {
        epochs: 1,
        max_windows: 12,
        ..Default::default()
    };
    let mut stuck = Vec::new();
    for mut model in forecasters(&ds) {
        let report = model.train(&ds, &opts);
        assert_eq!(report.windows_per_epoch, 12, "{}", model.name());
        if report.plan_replays != 11 {
            stuck.push(format!("{}: {} of 12", model.name(), report.plan_replays));
        }
    }
    assert!(
        stuck.is_empty(),
        "models that did not replay 11 of 12 windows: {stuck:?}"
    );
}

/// One model's training run over `windows` through `Forecaster::train_step`:
/// the bits of every step's loss and of the final parameters, and the
/// number of replayed steps.
fn train_bits(
    model: &mut dyn Forecaster,
    windows: &[(Tensor, Tensor)],
) -> (Vec<u32>, Vec<Vec<u32>>, usize) {
    let mut g = Graph::new();
    let mut pcache = PlanCache::new();
    let mut opt = AdamW::new(2e-3, 1e-4);
    let (mut losses, mut replays) = (Vec::new(), 0);
    for (x, y) in windows {
        let (x_norm, y_norm) = normalised(x, y);
        let (loss, replayed) = model
            .train_step(&mut g, &mut pcache, &mut opt, x_norm, y_norm, Loss::Mse)
            .expect("every in-repo step lowers");
        losses.push(loss.to_bits());
        replays += usize::from(replayed);
    }
    let params = model
        .params()
        .snapshot()
        .iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    (losses, params, replays)
}

/// A flat series normalises to an all-zero window. On one, operands that
/// differ on real windows coincide: DLinear's trend and seasonal parts equal
/// the window, hard FOCUS's temporal and entity routes hold the same
/// indices, soft FOCUS's two mixtures the same weights. A plan compiled on
/// such a window must still bind each operand to its own source, so cached
/// training stays bitwise equal to never-cached training afterwards.
#[test]
fn flat_warmup_windows_replay_like_never_cached_training() {
    let _lock = guard();
    let ds = dataset();
    let flat = (Tensor::full(&[4, 48], 2.5), Tensor::full(&[4, 12], 2.5));
    let mut windows = vec![flat.clone(), flat];
    windows.extend(
        ds.windows(Split::Train, 48, 12, 8)
            .into_iter()
            .take(6)
            .map(|w| (w.x, w.y)),
    );
    assert_eq!(windows.len(), 8);

    let mut diverged = Vec::new();
    for mut model in forecasters(&ds) {
        let init = model.params().snapshot();
        let cached = {
            let _caching = Caching::set(true);
            train_bits(&mut *model, &windows)
        };
        model.params_mut().restore(&init);
        let uncached = {
            let _caching = Caching::set(false);
            train_bits(&mut *model, &windows)
        };
        assert_eq!(
            cached.2,
            windows.len() - 1,
            "{}: every step after the first replays",
            model.name()
        );
        assert_eq!(uncached.2, 0, "{}: caching disabled", model.name());
        if (&cached.0, &cached.1) != (&uncached.0, &uncached.1) {
            diverged.push(model.name().to_string());
        }
    }
    assert!(
        diverged.is_empty(),
        "cached training diverged from never-cached for {diverged:?}"
    );
}

/// Nothing at run time checks that a model records no window data through
/// `Graph::constant`; such data is baked into the plan, so two windows
/// would compile to different plans.
#[test]
fn two_windows_compile_to_the_same_train_plan() {
    let ds = dataset();
    let windows = ds.windows(Split::Train, 48, 12, 8);
    for model in forecasters(&ds) {
        let compile = |i: usize| {
            let (x_norm, y_norm) = normalised(&windows[i].x, &windows[i].y);
            let mut g = Graph::new();
            let rec =
                model.record_window(&mut g, &WindowInputs::new(&*model, x_norm, Some(y_norm)));
            let loss = g.mse(rec.pred, rec.target.expect("the window carries its target"));
            plan::compile_train(&g, loss, &rec.pv).expect("every in-repo step lowers")
        };
        assert!(
            compile(0) == compile(1),
            "{}: two windows compiled to different plans",
            model.name()
        );
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `model.predict(x)` with plan caching on, and how many plan replays it
/// made (focus-trace's `plan/replays`, counted while tracing is on).
fn cached_predict(model: &dyn Forecaster, x: &Tensor) -> (Vec<u32>, u64) {
    let replays = || {
        focus::trace::snapshot_counters()
            .into_iter()
            .find(|&(name, _)| name == "plan/replays")
            .map_or(0, |(_, n)| n)
    };
    let _caching = Caching::set(true);
    focus::trace::set_enabled(true);
    let before = replays();
    let y = bits(&model.predict(x));
    let replayed = replays() - before;
    focus::trace::set_enabled(false);
    (y, replayed)
}

/// `model.predict(x)` with plan caching off: a recorded forward pass.
fn uncached_predict(model: &dyn Forecaster, x: &Tensor) -> Vec<u32> {
    let _caching = Caching::set(false);
    bits(&model.predict(x))
}

/// Kept-plan prediction must equal never-cached prediction bit for bit: on
/// two flat windows (where operands that differ on real windows coincide),
/// then on real ones, then again after a `train` call has changed the
/// parameters the kept plan reads. Every call after the first replays.
#[test]
fn kept_plan_predict_matches_never_cached_predict() {
    let _lock = guard();
    let ds = dataset();
    let flat = Tensor::full(&[4, 48], 2.5);
    let mut xs = vec![flat.clone(), flat];
    xs.extend(
        ds.windows(Split::Test, 48, 12, 12)
            .into_iter()
            .take(3)
            .map(|w| w.x),
    );
    let opts = TrainOptions {
        epochs: 1,
        max_windows: 4,
        ..Default::default()
    };

    let (mut diverged, mut stuck) = (Vec::new(), Vec::new());
    for mut model in forecasters(&ds) {
        let mut replays = 0;
        for trained in [false, true] {
            if trained {
                let _caching = Caching::set(true);
                model.train(&ds, &opts);
            }
            for (i, x) in xs.iter().enumerate() {
                let (cached, replayed) = cached_predict(&*model, x);
                if cached != uncached_predict(&*model, x) {
                    diverged.push(format!("{}: window {i}, trained {trained}", model.name()));
                }
                replays += replayed;
            }
        }
        let calls = 2 * xs.len() as u64;
        if replays != calls - 1 {
            stuck.push(format!("{}: {replays} of {calls}", model.name()));
        }
    }
    assert!(
        diverged.is_empty(),
        "kept-plan predict diverged from never-cached predict: {diverged:?}"
    );
    assert!(
        stuck.is_empty(),
        "models whose predicts did not all replay after the first: {stuck:?}"
    );
}

/// Each model keeps its own forward plan. Two FOCUS models with equal shapes
/// but different seeds bake different prototypes into their plans, so a
/// plan shared between them would hand one model the other's constants.
#[test]
fn models_of_equal_shapes_predict_through_their_own_plans() {
    let _lock = guard();
    let ds = dataset();
    let mut cfg = FocusConfig::new(48, 12);
    cfg.segment_len = 8;
    cfg.n_prototypes = 4;
    cfg.d = 8;
    cfg.cluster_iters = 4;
    let models = [
        Focus::fit_offline(&ds, cfg.clone(), 1),
        Focus::fit_offline(&ds, cfg, 2),
    ];
    let xs: Vec<Tensor> = ds
        .windows(Split::Test, 48, 12, 12)
        .into_iter()
        .take(3)
        .map(|w| w.x)
        .collect();
    let expected: Vec<Vec<Vec<u32>>> = models
        .iter()
        .map(|m| xs.iter().map(|x| uncached_predict(m, x)).collect())
        .collect();
    assert_ne!(
        expected[0], expected[1],
        "the two models must forecast differently"
    );
    for (i, x) in xs.iter().enumerate() {
        for (m, model) in models.iter().enumerate() {
            assert_eq!(
                cached_predict(model, x).0,
                expected[m][i],
                "model {m} on window {i} must return its own never-cached bits"
            );
        }
    }
}
