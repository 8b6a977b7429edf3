//! The [`Forecaster`] trait: the shared contract between FOCUS, its
//! ablations and every baseline model.
//!
//! A forecaster exposes a differentiable `forward_window` over an
//! instance-normalised lookback window; the provided methods supply the
//! common train / predict / evaluate machinery so all models in the
//! repository are compared under an identical pipeline (same normalisation,
//! same optimiser, same window sampling).

use focus_autograd::plan::{CompileError, PlanCache};
use focus_autograd::{AdamW, Graph, ParamStore, ParamVars, Route, Var};
use focus_data::{Metrics, MtsDataset, Split};
use focus_nn::revin::{instance_denorm, instance_norm, normalise_target};
use focus_tensor::work::{self, Work};
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loss {
    /// Mean squared error (the convention of the paper's Table III models).
    Mse,
    /// Mean absolute error — more robust to outliers; used by some traffic
    /// baselines and exposed for the robustness studies.
    Mae,
}

/// Knobs of the online training loop.
#[derive(Clone, Debug)]
pub struct TrainOptions {
    /// Passes over the (subsampled) training windows.
    pub epochs: usize,
    /// AdamW learning rate.
    pub lr: f32,
    /// AdamW decoupled weight decay.
    pub weight_decay: f32,
    /// Stride between consecutive training windows.
    pub stride: usize,
    /// Cap on windows per epoch (they are shuffled first).
    pub max_windows: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Training objective.
    pub loss: Loss,
    /// Early stopping: stop after this many epochs without validation-MSE
    /// improvement and restore the best weights. `None` trains for exactly
    /// `epochs` epochs. `epochs` is the cap either way.
    pub patience: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 3,
            lr: 2e-3,
            weight_decay: 1e-4,
            stride: 8,
            max_windows: 96,
            seed: 0,
            loss: Loss::Mse,
            patience: None,
        }
    }
}

/// Summary of one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean normalised-space MSE per epoch.
    pub epoch_losses: Vec<f64>,
    /// Windows actually used per epoch.
    pub windows_per_epoch: usize,
    /// Steps that replayed the cached plan; every other step compiled and
    /// ran its own.
    pub plan_replays: usize,
    /// Validation MSE per epoch, when early stopping was enabled.
    pub val_losses: Vec<f64>,
    /// Epoch whose weights were kept (best validation), when early stopping
    /// was enabled.
    pub best_epoch: Option<usize>,
}

/// The per-window operands a model computes from the window outside the
/// graph: index vectors consumed by `RouteOneHot` ops, and dense tensors (a
/// soft routing matrix, a decomposed input). [`Forecaster::record_window`]
/// records them as tape routes and inputs, so a cached plan binds each
/// window's own operands instead of baking in the ones it was compiled from.
#[derive(Clone, Debug, Default)]
pub struct WindowOperands {
    /// Route index sources, in the order the model reads them.
    pub routes: Vec<Vec<u32>>,
    /// Dense per-window tensors, in the order the model reads them.
    pub tensors: Vec<Tensor>,
}

/// [`WindowOperands`] as recorded on the tape: the handles
/// `forward_window` reads, in the same order.
#[derive(Clone, Debug, Default)]
pub struct OperandVars {
    /// One registered route per [`WindowOperands::routes`] entry.
    pub routes: Vec<Route>,
    /// One tape input per [`WindowOperands::tensors`] entry.
    pub tensors: Vec<Var>,
}

/// Everything a plan binds for one window: the instance-normalised window,
/// the normalised target when training, and the model's [`WindowOperands`].
/// A replay binds [`WindowInputs::tensors`] and [`WindowInputs::routes`];
/// [`Forecaster::record_window`] records the same lists, so the plan a
/// recorded step compiles reads them in the same order.
pub struct WindowInputs {
    x_norm: Tensor,
    target: Option<Tensor>,
    operands: WindowOperands,
}

impl WindowInputs {
    /// `x_norm`'s inputs under `model`, with the target when training.
    pub fn new<F: Forecaster + ?Sized>(model: &F, x_norm: Tensor, target: Option<Tensor>) -> Self {
        let operands = model.window_operands(&x_norm);
        WindowInputs { x_norm, target, operands }
    }

    /// The plan inputs in binding order: the window, the target, then the
    /// operand tensors.
    pub fn tensors(&self) -> Vec<&Tensor> {
        let mut inputs = vec![&self.x_norm];
        inputs.extend(&self.target);
        inputs.extend(&self.operands.tensors);
        inputs
    }

    /// The plan routes in binding order.
    pub fn routes(&self) -> Vec<&[u32]> {
        self.operands.routes.iter().map(Vec::as_slice).collect()
    }
}

/// One window recorded by [`Forecaster::record_window`].
pub struct RecordedWindow {
    /// The parameters' trainable leaves.
    pub pv: ParamVars,
    /// The normalised forecast `[N, L_f]`.
    pub pred: Var,
    /// The normalised target `[N, L_f]`, when the window carried one.
    pub target: Option<Var>,
}

/// A trainable multivariate forecaster over fixed-size windows.
pub trait Forecaster {
    /// Display name used in experiment tables.
    fn name(&self) -> &str;

    /// Lookback window length `L`.
    fn lookback(&self) -> usize;

    /// Forecast horizon `L_f`.
    fn horizon(&self) -> usize;

    /// The model's trainable parameters.
    fn params(&self) -> &ParamStore;

    /// Mutable access to the parameters (for the optimiser step).
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Differentiable forward pass over the instance-normalised window
    /// `x: [N, L]`, a tape input, producing the normalised forecast
    /// `[N, L_f]`. `operands` holds the handles of this window's
    /// [`Forecaster::window_operands`].
    ///
    /// Everything recorded here that depends on the window must come from
    /// `x` or `operands`: a `Graph::constant` is baked into the compiled
    /// plan and replayed unchanged for every later window.
    fn forward_window(&self, g: &mut Graph, pv: &ParamVars, x: Var, operands: &OperandVars) -> Var;

    /// The per-window operands `forward_window` reads, computed from the
    /// window outside the graph (see [`WindowOperands`]). The default,
    /// nothing per-window, suits models that compute everything in-graph.
    fn window_operands(&self, _x_norm: &Tensor) -> WindowOperands {
        WindowOperands::default()
    }

    /// Records one window on `g`: registers the parameters, records `w`'s
    /// tensors as tape inputs and its routes as tape routes — in the order
    /// [`WindowInputs::tensors`] and [`WindowInputs::routes`] list them, the
    /// order a plan binds them in — and runs `forward_window` over them.
    fn record_window(&self, g: &mut Graph, w: &WindowInputs) -> RecordedWindow {
        let pv = self.params().register(g);
        let mut inputs = w.tensors().into_iter().map(|t| g.input(t.clone()));
        let x = inputs.next().expect("the window is the first plan input");
        let target = w
            .target
            .as_ref()
            .map(|_| inputs.next().expect("the target follows the window"));
        let tensors = inputs.collect();
        let routes = w.operands.routes.iter().map(|r| g.route(r.clone())).collect();
        let pred = self.forward_window(g, &pv, x, &OperandVars { routes, tensors });
        RecordedWindow { pv, pred, target }
    }

    /// One AdamW step on a window: replays `pcache`'s plan when it matches
    /// the window's shapes; otherwise resets `g`, records the window on it,
    /// compiles the step, runs it and keeps its plan. Returns the loss and
    /// whether the step replayed.
    ///
    /// # Errors
    /// If the recorded step does not lower or fails verification (a compiler
    /// bug); no parameter has changed then.
    fn train_step(
        &mut self,
        g: &mut Graph,
        pcache: &mut PlanCache,
        opt: &mut AdamW,
        x_norm: Tensor,
        y_norm: Tensor,
        loss: Loss,
    ) -> Result<(f32, bool), CompileError> {
        let w = WindowInputs::new(self, x_norm, Some(y_norm));
        let replayed = pcache.try_replay_train(&w.tensors(), &w.routes(), self.params_mut(), opt);
        if let Some(loss) = replayed {
            return Ok((loss, true));
        }
        g.reset();
        let rec = self.record_window(g, &w);
        let target = rec.target.expect("a training window carries its target");
        let loss = match loss {
            Loss::Mse => g.mse(rec.pred, target),
            Loss::Mae => g.mae(rec.pred, target),
        };
        Ok((pcache.run_train(g, loss, &rec.pv, self.params_mut(), opt)?, false))
    }

    /// End-to-end prediction on a window `x: [N, L]`: instance-normalise,
    /// forward, de-normalise.
    ///
    /// The forward pass runs through the plan the model's [`ParamStore`]
    /// keeps ([`ParamStore::run_forward`]): the first call records the pass,
    /// compiles it, runs it and keeps the plan, and every later call with
    /// the same shapes replays it, with the same bits as a never-cached pass. A shape
    /// change drops the plan and compiles a new one. Keeping the plan is
    /// sound because no forecaster has a `&mut self` method besides
    /// `params_mut` and `train`: the constants a model records, which the
    /// plan bakes in, are fixed while its store lives, and the parameters
    /// are read at their current values. Concurrent calls on one model wait
    /// for each other.
    ///
    /// # Panics
    /// If a value of `x` is NaN or infinite: the entity branch mixes
    /// entities, so it would reach every entity's forecast. The message
    /// names the entity and time index of the first such value. Also if the
    /// recorded pass's plan fails verification (a compiler bug); the message
    /// names `predict` and the verifier's position.
    fn predict(&self, x: &Tensor) -> Tensor {
        assert_finite_window(x);
        traced_pass(|| {
            let (x_norm, stats) = instance_norm(x);
            let w = WindowInputs::new(self, x_norm, None);
            let y_norm = self
                .params()
                .run_forward(&w.tensors(), &w.routes(), |g| {
                    let rec = self.record_window(g, &w);
                    (rec.pred, rec.pv)
                })
                .unwrap_or_else(|e| {
                    // focus-lint: allow(panic-hygiene) -- documented panic: a plan that fails verification is a compiler bug, and the message names predict and the verifier's position
                    panic!("predict failed: {e}")
                });
            instance_denorm(&y_norm, &stats)
        })
    }

    /// Trains on the dataset's training split with AdamW and an MSE loss.
    ///
    /// The first step records its tape, compiles it and keeps the plan; every
    /// later window of the same shapes replays it (see
    /// [`Forecaster::train_step`]).
    ///
    /// # Panics
    /// If the training split holds no full window, if `opts.max_windows` is
    /// 0, if a step's plan fails verification (a compiler bug), or if a
    /// step's loss is not finite (the run diverged). The last two name the
    /// epoch and window.
    fn train(&mut self, ds: &MtsDataset, opts: &TrainOptions) -> TrainReport {
        let (lookback, horizon) = (self.lookback(), self.horizon());
        // Shuffle the window starts and build only the kept windows: the
        // shuffle's draws depend only on the count, so the order is that of
        // shuffling `ds.windows(Split::Train, ..)` itself.
        let mut starts = window_starts(ds, Split::Train, lookback + horizon, opts.stride);
        assert!(
            !starts.is_empty(),
            "training split too short for lookback {lookback} + horizon {horizon}"
        );
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x7ea1);
        starts.shuffle(&mut rng);
        starts.truncate(opts.max_windows);
        assert!(!starts.is_empty(), "max_windows is 0: no training windows to train on");
        let windows: Vec<_> = starts.iter().map(|&s| ds.window_at(s, lookback, horizon)).collect();

        // Validation windows for early stopping (a small fixed set).
        let val_windows: Vec<_> = if opts.patience.is_some() {
            let all = ds.windows(Split::Val, self.lookback(), self.horizon(), self.horizon().max(1));
            let keep = all.len().div_ceil(16).max(1);
            all.into_iter().step_by(keep).take(16).collect()
        } else {
            Vec::new()
        };

        let mut opt = AdamW::new(opts.lr, opts.weight_decay);
        let mut epoch_losses = Vec::with_capacity(opts.epochs);
        let mut val_losses = Vec::new();
        let mut best: Option<(usize, f64, Vec<focus_tensor::Tensor>)> = None;
        let mut stale = 0usize;
        let mut plan_replays = 0;
        // One tape for the whole run: `reset` keeps the node/grad capacity,
        // so uncached steps stop paying per-window tape reallocation.
        let mut g = Graph::new();
        // The first step's plan replays with pre-resolved buffer slots and
        // never touches the tape; a shape change drops it.
        let mut pcache = PlanCache::new();
        for epoch in 0..opts.epochs {
            let mut total = 0.0f64;
            for (wi, w) in windows.iter().enumerate() {
                focus_trace::span!("train/step");
                let (loss, replayed) = traced_pass(|| {
                    let (x_norm, stats) = instance_norm(&w.x);
                    let y_norm = normalise_target(&w.y, &stats);
                    self.train_step(&mut g, &mut pcache, &mut opt, x_norm, y_norm, opts.loss)
                })
                .unwrap_or_else(|e| {
                    // focus-lint: allow(panic-hygiene) -- documented panic: no other executor is left, and the message names the step and the verifier's position
                    panic!("training step failed at epoch {epoch}, window {wi}: {e}")
                });
                plan_replays += usize::from(replayed);
                assert!(
                    loss.is_finite(),
                    "training diverged: loss {loss} at epoch {epoch}, window {wi}"
                );
                total += loss as f64;
            }
            epoch_losses.push(total / windows.len() as f64);

            if let Some(patience) = opts.patience {
                if !val_windows.is_empty() {
                    let mut m = Metrics::new();
                    for w in &val_windows {
                        m.update(&self.predict(&w.x), &w.y);
                    }
                    let val = m.mse();
                    val_losses.push(val);
                    let improved = best.as_ref().map(|(_, b, _)| val < *b).unwrap_or(true);
                    if improved {
                        best = Some((epoch, val, self.params().snapshot()));
                        stale = 0;
                    } else {
                        stale += 1;
                        if stale >= patience {
                            break;
                        }
                    }
                }
            }
        }
        let best_epoch = if let Some((epoch, _, snapshot)) = best {
            self.params_mut().restore(&snapshot);
            Some(epoch)
        } else {
            None
        };
        if focus_trace::enabled() {
            println!("{} training phases:", self.name());
            print!("{}", focus_trace::report::phase_table(&focus_trace::snapshot_spans()));
        }
        TrainReport {
            epoch_losses,
            windows_per_epoch: windows.len(),
            plan_replays,
            val_losses,
            best_epoch,
        }
    }

    /// Evaluates on a split, accumulating MSE/MAE in the dataset's z-scored
    /// space (the paper's metric convention). Each window is one
    /// [`Forecaster::predict`], so the first compiles the model's forward
    /// plan (unless an earlier call kept it) and the rest replay it.
    ///
    /// # Panics
    /// If the split holds no full window, or as [`Forecaster::predict`] does.
    fn evaluate(&self, ds: &MtsDataset, split: Split, stride: usize) -> Metrics {
        let windows = ds.windows(split, self.lookback(), self.horizon(), stride);
        assert!(!windows.is_empty(), "no evaluation windows in {split:?}");
        let mut m = Metrics::new();
        for w in &windows {
            m.update(&self.predict(&w.x), &w.y);
        }
        m
    }
}

/// Runs one pass — a training step or a `predict` — and, when tracing is
/// on, adds the FLOPs it counts to the `flops/counted` trace counter, so a
/// traced run reports the work of every pass, replays included.
fn traced_pass<R>(pass: impl FnOnce() -> R) -> R {
    if !focus_trace::enabled() {
        return pass();
    }
    let (out, counted) = work::measure(pass);
    focus_trace::counter_add("flops/counted", counted.flops);
    out
}

/// Counts one forward pass of `model` on the window `x: [N, L]`, the way
/// the paper's Fig. 6 measures it: the FLOPs and the peak buffer bytes of a
/// [`Forecaster::predict`] that replays the model's kept plan (after one
/// `predict` that compiles it, whose tape also holds copies of the
/// parameters). The bytes are the plan's slots and the tensor buffers the
/// pass takes: the normalised window, dense per-window operands, the
/// routing's segment panels and the output. Parameters belong to the model,
/// and route index vectors are not tensor buffers; neither counts. See
/// [`focus_tensor::work`] for what each kernel counts.
pub fn count_predict<F: Forecaster + ?Sized>(model: &F, x: &Tensor) -> Work {
    model.predict(x);
    work::measure(|| model.predict(x)).1
}

/// Start indices of the windows [`MtsDataset::windows`] draws from `split`
/// with `need` (lookback + horizon) steps each, in its order: every
/// `stride` steps, then the split's last admissible start if the stride
/// missed it.
fn window_starts(ds: &MtsDataset, split: Split, need: usize, stride: usize) -> Vec<usize> {
    assert!(stride > 0, "stride must be positive");
    let r = ds.range(split);
    if r.len() < need {
        return Vec::new();
    }
    let last = r.end - need;
    let mut starts: Vec<usize> = (r.start..=last).step_by(stride).collect();
    if starts.last().is_some_and(|&s| s < last) {
        starts.push(last);
    }
    starts
}

/// Checks that a window `x: [N, L]` holds only finite values.
///
/// # Panics
/// On the first NaN or infinite value, naming its entity and time index.
fn assert_finite_window(x: &Tensor) {
    let len = x.dims().last().copied().unwrap_or(1).max(1);
    for (e, row) in x.data().chunks_exact(len).enumerate() {
        let bad = row.iter().position(|v| !v.is_finite());
        assert!(
            bad.is_none(),
            "window value {} at entity {e}, time index {} is not finite",
            row[bad.unwrap_or(0)],
            bad.unwrap_or(0)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_nn::revin::InstanceStats;

    #[test]
    fn normalise_target_uses_window_stats() {
        let stats = InstanceStats {
            means: vec![10.0, -5.0],
            stds: vec![2.0, 0.5],
        };
        let y = Tensor::from_vec(vec![12.0, 14.0, -5.5, -4.5], &[2, 2]);
        let n = normalise_target(&y, &stats);
        assert_eq!(n.data(), &[1.0, 2.0, -1.0, 1.0]);
    }

    #[test]
    fn window_starts_follow_dataset_windows() {
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(2, 400), 1);
        for split in [Split::Train, Split::Val, Split::Test] {
            for (lookback, horizon, stride) in [(48, 12, 1), (48, 12, 7), (96, 24, 24), (20, 4, 1000), (500, 1, 1)] {
                let want: Vec<usize> = ds.windows(split, lookback, horizon, stride).iter().map(|w| w.start).collect();
                let got = window_starts(&ds, split, lookback + horizon, stride);
                assert_eq!(got, want, "{split:?} lookback {lookback} horizon {horizon} stride {stride}");
            }
        }
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        use crate::model::{Focus, FocusConfig};
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_600), 3);
        let mut cfg = FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.cluster_iters = 4;
        let mut model = Focus::fit_offline(&ds, cfg, 1);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 12,
                max_windows: 16,
                patience: Some(2),
                ..Default::default()
            },
        );
        let best = r.best_epoch.expect("early stopping must record a best epoch");
        assert!(!r.val_losses.is_empty());
        // The recorded best epoch must actually be the argmin.
        let argmin = r
            .val_losses
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("validation ran at least one epoch")
            .0;
        assert_eq!(best, argmin);
        // And the restored model must reproduce that validation score.
        let val_windows = ds.windows(Split::Val, 48, 12, 12);
        let mut m = Metrics::new();
        for w in val_windows
            .iter()
            .step_by(val_windows.len().div_ceil(16).max(1))
            .take(16)
        {
            m.update(&model.predict(&w.x), &w.y);
        }
        assert!((m.mse() - r.val_losses[best]).abs() < 1e-9);
    }

    #[test]
    fn mae_loss_trains_too() {
        use crate::model::{Focus, FocusConfig};
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 2);
        let mut cfg = FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.cluster_iters = 4;
        let mut model = Focus::fit_offline(&ds, cfg, 1);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 3,
                max_windows: 16,
                loss: Loss::Mae,
                ..Default::default()
            },
        );
        assert!(
            r.epoch_losses.last().expect("training ran at least one epoch") < &r.epoch_losses[0],
            "MAE training did not improve: {:?}",
            r.epoch_losses
        );
    }

    fn tiny_focus(ds: &MtsDataset, seed: u64) -> crate::model::Focus {
        let mut cfg = crate::model::FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.cluster_iters = 4;
        crate::model::Focus::fit_offline(ds, cfg, seed)
    }

    /// Sets plan caching until dropped, then restores the previous setting,
    /// also when a failing assertion unwinds.
    struct Caching(bool);

    impl Caching {
        fn set(on: bool) -> Caching {
            let prev = focus_autograd::plan::enabled();
            focus_autograd::plan::set_enabled(on);
            Caching(prev)
        }
    }

    impl Drop for Caching {
        fn drop(&mut self) {
            focus_autograd::plan::set_enabled(self.0);
        }
    }

    fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
        ts.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// `Forecaster::train`'s window schedule, stepped through the reference
    /// oracle: reference backward rules and the reference AdamW update.
    fn oracle_train(model: &mut dyn Forecaster, ds: &MtsDataset, opts: &TrainOptions) -> Vec<f64> {
        let (lookback, horizon) = (model.lookback(), model.horizon());
        let mut windows = ds.windows(Split::Train, lookback, horizon, opts.stride);
        windows.shuffle(&mut StdRng::seed_from_u64(opts.seed ^ 0x7ea1));
        windows.truncate(opts.max_windows);
        let mut opt = focus_autograd::oracle::AdamW::new(opts.lr, opts.weight_decay);
        let mut losses = Vec::new();
        for _ in 0..opts.epochs {
            let mut total = 0.0f64;
            for w in &windows {
                let (x_norm, stats) = instance_norm(&w.x);
                let y_norm = normalise_target(&w.y, &stats);
                let mut g = Graph::new();
                let w = WindowInputs::new(&*model, x_norm, Some(y_norm));
                let rec = model.record_window(&mut g, &w);
                let loss = g.mse(rec.pred, rec.target.expect("the window carries its target"));
                let loss = focus_autograd::oracle::backward(&mut g, loss);
                model.params_mut().step(&mut opt, &g, &rec.pv);
                total += loss.item() as f64;
            }
            losses.push(total / windows.len() as f64);
        }
        losses
    }

    #[test]
    fn vm_training_is_bitwise_equal_to_the_oracle() {
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 7);
        let opts = TrainOptions {
            epochs: 2,
            max_windows: 12,
            ..Default::default()
        };
        let mut reference = tiny_focus(&ds, 9);
        let losses_o = oracle_train(&mut reference, &ds, &opts);
        let _cached = Caching::set(true);
        let mut model = tiny_focus(&ds, 9);
        let report = model.train(&ds, &opts);
        assert_eq!(report.plan_replays, 23, "one compiled step, then every step replays");
        assert_eq!(bits(&model.params().snapshot()), bits(&reference.params().snapshot()));
        assert_eq!(report.epoch_losses, losses_o, "epoch losses must match bitwise");
        // Evaluation through the inference plan matches the tape's forward.
        let base = {
            let _uncached = Caching::set(false);
            model.evaluate(&ds, Split::Test, 24)
        };
        let planned = model.evaluate(&ds, Split::Test, 24);
        assert_eq!(base.mse().to_bits(), planned.mse().to_bits());
        assert_eq!(base.mae().to_bits(), planned.mae().to_bits());
    }

    #[test]
    fn verifier_rejection_fails_training_and_predict_with_its_position() {
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 11);
        let mut model = tiny_focus(&ds, 3);
        let before = bits(&model.params().snapshot());
        let opts = TrainOptions {
            epochs: 1,
            max_windows: 4,
            ..Default::default()
        };
        // Resets the (per-thread) failpoint even if training panics.
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                focus_autograd::verify::set_fail_all(false);
            }
        }
        let x = &ds.windows(Split::Test, 48, 12, 12)[0].x;
        let (train_panic, predict_panic) = {
            let _disarm = Disarm;
            focus_autograd::verify::set_fail_all(true);
            let catch = |f: &mut dyn FnMut()| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                    .expect_err("a rejected plan must fail the call")
            };
            (catch(&mut || drop(model.train(&ds, &opts))), catch(&mut || drop(model.predict(x))))
        };
        let message = |p: &Box<dyn std::any::Any + Send>| {
            p.downcast_ref::<String>()
                .expect("the panic carries a formatted message")
                .clone()
        };
        let position = "plan verify: instr 0: verification failpoint enabled";
        let msg = message(&train_panic);
        assert!(
            msg.contains("epoch 0, window 0") && msg.contains(position),
            "message names the step and the verifier's position: {msg}"
        );
        let msg = message(&predict_panic);
        assert!(
            msg.contains("predict failed") && msg.contains(position),
            "message names predict and the verifier's position: {msg}"
        );
        assert_eq!(bits(&model.params().snapshot()), before, "no update may land");
        // Disarmed, the same model trains and predicts.
        assert!(model.train(&ds, &opts).epoch_losses[0].is_finite());
        assert!(model.predict(x).all_finite());
    }

    #[test]
    #[should_panic(expected = "max_windows is 0")]
    fn zero_max_windows_is_rejected() {
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 5);
        let mut model = tiny_focus(&ds, 5);
        model.train(
            &ds,
            &TrainOptions {
                epochs: 2,
                max_windows: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "training diverged: loss")]
    fn diverging_run_fails_at_the_first_non_finite_loss() {
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 5);
        let mut model = tiny_focus(&ds, 5);
        model.train(
            &ds,
            &TrainOptions {
                epochs: 2,
                max_windows: 12,
                lr: 1e10,
                ..Default::default()
            },
        );
    }

    /// The entity branch mixes entities, so one non-finite value would turn
    /// every entity's forecast non-finite; `predict` rejects the window
    /// instead, naming the value's position.
    #[test]
    fn predict_rejects_a_non_finite_window_naming_its_position() {
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 5);
        let model = tiny_focus(&ds, 5);
        let x = &ds.windows(Split::Test, 48, 12, 12)[0].x;
        let cases = [
            (0, 5, f32::NAN, "window value NaN at entity 0, time index 5 is not finite"),
            (3, 47, f32::INFINITY, "window value inf at entity 3, time index 47 is not finite"),
        ];
        for (entity, time, value, want) in cases {
            let mut bad = x.clone();
            bad.data_mut()[entity * 48 + time] = value;
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.predict(&bad)))
                .expect_err("a non-finite window must be rejected");
            let msg = panic
                .downcast_ref::<String>()
                .expect("the panic carries a formatted message");
            assert!(msg.contains(want), "message names the value's position: {msg}");
        }
        assert!(model.predict(x).all_finite(), "the model still serves finite windows");
    }

    #[test]
    fn normalise_target_guards_zero_std() {
        let stats = InstanceStats {
            means: vec![1.0],
            stds: vec![0.0],
        };
        let y = Tensor::from_vec(vec![2.0], &[1, 1]);
        let n = normalise_target(&y, &stats);
        assert!(n.all_finite());
    }
}
