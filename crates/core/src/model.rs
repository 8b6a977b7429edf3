//! The complete FOCUS model: offline prototypes + dual-branch online network.

use crate::extractor::DualBranchExtractor;
use crate::forecaster::{Forecaster, OperandVars, WindowOperands};
use crate::fusion::ParallelFusion;
use crate::protoattn::Assignment;
use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use focus_cluster::{segment_matrix, ClusterConfig, Objective, ProtoUpdate, Prototypes};
use focus_data::MtsDataset;
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use crate::forecaster::{TrainOptions, TrainReport};

/// Hyper-parameters of a FOCUS instance.
///
/// Defaults follow §VIII-A ("Implementation Details"): correlation weight
/// `α = 0.2`, `m = 6` readout queries for horizon ≤ 96 and `21` beyond,
/// hard assignment, single-layer extractors.
#[derive(Clone, Debug)]
pub struct FocusConfig {
    /// Lookback window length `L` (must be divisible by `segment_len`).
    pub lookback: usize,
    /// Forecast horizon `L_f`.
    pub horizon: usize,
    /// Segment (patch) length `p`.
    pub segment_len: usize,
    /// Number of prototypes `k`.
    pub n_prototypes: usize,
    /// Embedding width `d`.
    pub d: usize,
    /// Number of readout queries `m`.
    pub readout: usize,
    /// Correlation weight `α` of the offline objective (Eq. 10);
    /// `0` selects the *Rec Only* objective of Fig. 8.
    pub alpha: f32,
    /// Online assignment mode (hard in the paper).
    pub assignment: Assignment,
    /// Prototype update rule of the offline phase.
    pub cluster_update: ProtoUpdate,
    /// Outer iterations of the offline clustering.
    pub cluster_iters: usize,
}

impl FocusConfig {
    /// A config with paper-style defaults for the given window sizes.
    ///
    /// # Panics
    /// If the derived segment length does not divide `lookback`.
    pub fn new(lookback: usize, horizon: usize) -> Self {
        let segment_len = if lookback.is_multiple_of(16) && lookback >= 128 { 16 } else { 8 };
        let cfg = FocusConfig {
            lookback,
            horizon,
            segment_len,
            n_prototypes: 16,
            d: 64,
            readout: if horizon <= 96 { 6 } else { 21 },
            alpha: 0.2,
            assignment: Assignment::Hard,
            cluster_update: ProtoUpdate::paper_default(),
            cluster_iters: 20,
        };
        cfg.validate();
        cfg
    }

    /// Paper defaults specialised per dataset: `d = 128` for the PEMS
    /// datasets and `64` elsewhere (§VIII-A).
    pub fn for_dataset(spec: &focus_data::DatasetSpec, lookback: usize, horizon: usize) -> Self {
        let mut cfg = Self::new(lookback, horizon);
        if spec.name.starts_with("PEMS") {
            cfg.d = 128;
        }
        cfg
    }

    /// Number of temporal segments `l = L / p`.
    pub fn n_segments(&self) -> usize {
        self.lookback / self.segment_len
    }

    /// Panics with a description if the config is inconsistent.
    pub fn validate(&self) {
        assert!(self.lookback > 0 && self.horizon > 0, "window sizes must be positive");
        assert!(
            self.lookback.is_multiple_of(self.segment_len),
            "lookback {} not divisible by segment length {}",
            self.lookback,
            self.segment_len
        );
        assert!(self.n_prototypes > 0, "need at least one prototype");
        assert!(self.d > 0 && self.readout > 0, "d and m must be positive");
        self.assignment.validate();
    }

    /// Runs the offline clustering phase on a training matrix `[N, T_train]`
    /// (Algorithm 1), returning the prototype set this config describes.
    pub fn cluster(&self, train_matrix: &Tensor, seed: u64) -> Prototypes {
        let segments = segment_matrix(train_matrix, self.segment_len);
        ClusterConfig::new(self.n_prototypes, self.segment_len)
            .with_objective(if self.alpha > 0.0 {
                Objective::rec_corr(self.alpha)
            } else {
                Objective::RecOnly
            })
            .with_update(self.cluster_update)
            .with_max_iters(self.cluster_iters)
            .fit(&segments, seed)
    }
}

/// The FOCUS forecaster.
pub struct Focus {
    cfg: FocusConfig,
    ps: ParamStore,
    extractor: DualBranchExtractor,
    fusion: ParallelFusion,
    prototypes: Prototypes,
}

impl Focus {
    /// Runs the offline clustering phase on `ds`'s training split, then
    /// builds the online network around the learned prototypes.
    pub fn fit_offline(ds: &MtsDataset, cfg: FocusConfig, seed: u64) -> Focus {
        cfg.validate();
        let prototypes = cfg.cluster(&ds.train_matrix(), seed);
        Self::with_prototypes(cfg, prototypes, seed)
    }

    /// Builds the online network around an existing prototype set (e.g. one
    /// loaded from disk, or fitted under a different objective for Fig. 8).
    ///
    /// # Panics
    /// If the prototypes' segment length disagrees with the config.
    pub fn with_prototypes(cfg: FocusConfig, prototypes: Prototypes, seed: u64) -> Focus {
        cfg.validate();
        assert_eq!(
            prototypes.segment_len(),
            cfg.segment_len,
            "prototype segment length {} != config {}",
            prototypes.segment_len(),
            cfg.segment_len
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf0c5);
        let mut ps = ParamStore::new();
        let extractor = DualBranchExtractor::new(
            &mut ps,
            "extractor",
            &prototypes,
            cfg.d,
            cfg.n_segments(),
            cfg.assignment,
            &mut rng,
        );
        let fusion = ParallelFusion::new(&mut ps, "fusion", cfg.readout, cfg.d, cfg.horizon, &mut rng);
        Focus {
            cfg,
            ps,
            extractor,
            fusion,
            prototypes,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &FocusConfig {
        &self.cfg
    }

    /// The offline prototype set.
    pub fn prototypes(&self) -> &Prototypes {
        &self.prototypes
    }

    /// The dual-branch extractor (exposed for the case-study harness).
    pub fn extractor(&self) -> &DualBranchExtractor {
        &self.extractor
    }
}

impl Forecaster for Focus {
    fn name(&self) -> &str {
        "FOCUS"
    }

    fn lookback(&self) -> usize {
        self.cfg.lookback
    }

    fn horizon(&self) -> usize {
        self.cfg.horizon
    }

    fn params(&self) -> &ParamStore {
        &self.ps
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.ps
    }

    fn forward_window(&self, g: &mut Graph, pv: &ParamVars, x: Var, operands: &OperandVars) -> Var {
        focus_trace::span!("model/forward");
        let dims = g.dims(x);
        assert_eq!(dims.len(), 2, "window must be [N, L]");
        assert_eq!(
            dims[1], self.cfg.lookback,
            "window length {} != lookback {}",
            dims[1], self.cfg.lookback
        );
        let (h_t, h_e) = self.extractor.forward(g, pv, x, operands);
        self.fusion.forward(g, pv, h_t, h_e)
    }

    fn window_operands(&self, x_norm: &Tensor) -> WindowOperands {
        self.extractor.window_operands(x_norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::Forecaster;
    use focus_data::{Benchmark, Split};

    fn tiny_dataset() -> MtsDataset {
        MtsDataset::generate(Benchmark::Pems08.scaled(6, 1_600), 13)
    }

    pub(crate) fn tiny_config() -> FocusConfig {
        let mut cfg = FocusConfig::new(64, 16);
        cfg.segment_len = 8;
        cfg.n_prototypes = 6;
        cfg.d = 16;
        cfg.readout = 4;
        cfg.cluster_iters = 8;
        cfg
    }

    #[test]
    fn config_defaults_follow_paper() {
        let c96 = FocusConfig::new(512, 96);
        assert_eq!(c96.readout, 6);
        assert_eq!(c96.alpha, 0.2);
        let c336 = FocusConfig::new(512, 336);
        assert_eq!(c336.readout, 21);
        let pems = FocusConfig::for_dataset(&Benchmark::Pems04.spec(), 512, 96);
        assert_eq!(pems.d, 128);
        let ett = FocusConfig::for_dataset(&Benchmark::Etth1.spec(), 512, 96);
        assert_eq!(ett.d, 64);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn config_rejects_indivisible_lookback() {
        let mut cfg = FocusConfig::new(64, 16);
        cfg.segment_len = 7;
        cfg.validate();
    }

    /// Runs `build`, which must panic naming `temperature`.
    fn rejects_temperature(entry: &str, temperature: f32, build: impl FnOnce()) {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
            .expect_err(&format!("{entry} accepted temperature {temperature}"));
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            msg.contains("temperature") && msg.contains(&temperature.to_string()),
            "{entry} rejected {temperature} with {msg:?}"
        );
    }

    #[test]
    fn config_rejects_a_nan_or_non_positive_soft_temperature() {
        use crate::ablation::{AblationVariant, FocusAblation};
        let ds = tiny_dataset();
        let protos = Prototypes::from_centers(Tensor::zeros(&[6, 8]), Objective::RecOnly);
        for temperature in [f32::NAN, -1.0, 0.0] {
            let mut cfg = tiny_config();
            cfg.assignment = Assignment::Soft { temperature };
            rejects_temperature("fit_offline", temperature, || drop(Focus::fit_offline(&ds, cfg.clone(), 1)));
            rejects_temperature("with_prototypes", temperature, || {
                drop(Focus::with_prototypes(cfg.clone(), protos.clone(), 1))
            });
            rejects_temperature("the ablation builder", temperature, || {
                drop(FocusAblation::with_prototypes(AblationVariant::Full, cfg.clone(), &protos, 1))
            });
        }
    }

    #[test]
    fn predict_shape_and_determinism() {
        let ds = tiny_dataset();
        let model = Focus::fit_offline(&ds, tiny_config(), 1);
        let w = ds.window_at(0, 64, 16);
        let p1 = model.predict(&w.x);
        let p2 = model.predict(&w.x);
        assert_eq!(p1.dims(), &[6, 16]);
        assert_eq!(p1.data(), p2.data(), "prediction must be deterministic");
        assert!(p1.all_finite());
    }

    #[test]
    fn training_reduces_loss() {
        let ds = tiny_dataset();
        let mut model = Focus::fit_offline(&ds, tiny_config(), 2);
        let opts = TrainOptions {
            epochs: 4,
            max_windows: 24,
            ..Default::default()
        };
        let report = model.train(&ds, &opts);
        assert_eq!(report.epoch_losses.len(), 4);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().expect("training ran at least one epoch");
        assert!(last < first, "loss did not improve: {:?}", report.epoch_losses);
    }

    #[test]
    fn trained_model_beats_untrained_on_test() {
        let ds = tiny_dataset();
        let cfg = tiny_config();
        let untrained = Focus::fit_offline(&ds, cfg.clone(), 3);
        let base = untrained.evaluate(&ds, Split::Test, 32);
        let mut trained = Focus::fit_offline(&ds, cfg, 3);
        trained.train(
            &ds,
            &TrainOptions {
                epochs: 5,
                max_windows: 48,
                ..Default::default()
            },
        );
        let tuned = trained.evaluate(&ds, Split::Test, 32);
        assert!(
            tuned.mse() < base.mse(),
            "trained MSE {} >= untrained {}",
            tuned.mse(),
            base.mse()
        );
    }

    #[test]
    fn cost_scales_linearly_with_lookback() {
        let ds = tiny_dataset();
        let mut cfg_long = tiny_config();
        cfg_long.lookback = 128;
        let short = Focus::fit_offline(&ds, tiny_config(), 4);
        let long = Focus::fit_offline(&ds, cfg_long, 4);
        let count = |model: &Focus| {
            let lookback = model.config().lookback;
            crate::forecaster::count_predict(model, &ds.window_at(0, lookback, 16).x)
        };
        let (cs, cl) = (count(&short), count(&long));
        let ratio = cl.flops as f64 / cs.flops as f64;
        assert!(ratio < 2.6, "lookback doubling grew FLOPs {ratio}x");
        assert!(ratio > 1.2, "cost must still grow with lookback: {ratio}");
    }
}
