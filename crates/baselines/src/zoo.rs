//! The model zoo: build any of the paper's eight models (FOCUS + 7
//! baselines) behind one [`focus_core::Forecaster`] interface — the entry
//! point the Table III / Fig. 6 harness iterates over.

use crate::{Crossformer, DLinear, GraphWavenet, LightCts, Mtgnn, PatchTst, TimesNet};
use focus_core::{Focus, FocusConfig, Forecaster};
use focus_data::{MtsDataset, Split};

/// Which model to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// FOCUS (this paper).
    Focus,
    /// PatchTST (Nie et al., ICLR 2023).
    PatchTst,
    /// Crossformer (Zhang & Yan, ICLR 2023).
    Crossformer,
    /// MTGNN (Wu et al., KDD 2020).
    Mtgnn,
    /// Graph WaveNet (Wu et al., IJCAI 2019).
    GraphWavenet,
    /// TimesNet (Wu et al., ICLR 2023).
    TimesNet,
    /// LightCTS (Lai et al., SIGMOD 2023).
    LightCts,
    /// DLinear (Zeng et al., AAAI 2023).
    DLinear,
}

impl ModelKind {
    /// All eight models in the paper's Table III column order.
    pub const ALL: [ModelKind; 8] = [
        ModelKind::Focus,
        ModelKind::PatchTst,
        ModelKind::Crossformer,
        ModelKind::Mtgnn,
        ModelKind::GraphWavenet,
        ModelKind::TimesNet,
        ModelKind::LightCts,
        ModelKind::DLinear,
    ];

    /// The display name used in the experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Focus => "FOCUS",
            ModelKind::PatchTst => "PatchTST",
            ModelKind::Crossformer => "Crossformer",
            ModelKind::Mtgnn => "MTGNN",
            ModelKind::GraphWavenet => "GraphWavenet",
            ModelKind::TimesNet => "TimesNet",
            ModelKind::LightCts => "LightCTS",
            ModelKind::DLinear => "DLinear",
        }
    }
}

/// Shared sizing for a zoo build, so every model sees the same window and a
/// comparable capacity budget.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Lookback window `L`.
    pub lookback: usize,
    /// Forecast horizon `L_f`.
    pub horizon: usize,
    /// Patch/segment length shared by the patching models.
    pub patch: usize,
    /// Embedding width.
    pub d: usize,
    /// Prototype count for FOCUS.
    pub n_prototypes: usize,
    /// Build seed.
    pub seed: u64,
}

impl BaselineConfig {
    /// A small CPU-friendly default.
    pub fn new(lookback: usize, horizon: usize) -> Self {
        BaselineConfig {
            lookback,
            horizon,
            patch: 8,
            d: 24,
            n_prototypes: 12,
            seed: 0,
        }
    }

    /// The [`FocusConfig`] equivalent of this sizing.
    pub fn focus_config(&self) -> FocusConfig {
        let mut cfg = FocusConfig::new(self.lookback, self.horizon);
        cfg.segment_len = self.patch;
        cfg.n_prototypes = self.n_prototypes;
        cfg.d = self.d;
        cfg
    }

    /// Instantiates `kind` for `ds` (the dataset supplies the entity count
    /// for the graph models, the offline clustering input for FOCUS and the
    /// calibration window for TimesNet).
    pub fn build(&self, kind: ModelKind, ds: &MtsDataset) -> Box<dyn Forecaster> {
        let n = ds.spec().entities;
        match kind {
            ModelKind::Focus => Box::new(Focus::fit_offline(ds, self.focus_config(), self.seed)),
            ModelKind::PatchTst => Box::new(PatchTst::new(
                self.lookback,
                self.horizon,
                self.patch,
                self.d,
                self.seed,
            )),
            ModelKind::Crossformer => Box::new(Crossformer::new(
                self.lookback,
                self.horizon,
                self.patch,
                self.d,
                self.seed,
            )),
            ModelKind::Mtgnn => Box::new(Mtgnn::new(
                self.lookback,
                self.horizon,
                n,
                self.patch,
                self.d,
                self.seed,
            )),
            ModelKind::GraphWavenet => Box::new(GraphWavenet::new(
                self.lookback,
                self.horizon,
                n,
                self.patch,
                self.d,
                self.seed,
            )),
            ModelKind::TimesNet => {
                let r = ds.range(Split::Train);
                let calib_len = r.len().min(self.lookback * 4);
                let calib = ds.window_at(r.start, calib_len.saturating_sub(1).max(1), 1).x;
                Box::new(TimesNet::with_estimated_period(
                    &calib,
                    self.lookback,
                    self.horizon,
                    self.d,
                    self.seed,
                ))
            }
            ModelKind::LightCts => Box::new(LightCts::new(
                self.lookback,
                self.horizon,
                self.patch,
                self.d,
                self.seed,
            )),
            ModelKind::DLinear => Box::new(DLinear::new(self.lookback, self.horizon, self.seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::count_predict;
    use focus_data::Benchmark;

    #[test]
    fn every_model_builds_and_predicts() {
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 15);
        let cfg = BaselineConfig {
            d: 8,
            n_prototypes: 4,
            ..BaselineConfig::new(48, 12)
        };
        let w = ds.window_at(0, 48, 12);
        for kind in ModelKind::ALL {
            let model = cfg.build(kind, &ds);
            assert_eq!(model.name(), kind.label());
            let pred = model.predict(&w.x);
            assert_eq!(pred.dims(), &[4, 12], "{kind:?}");
            assert!(pred.all_finite(), "{kind:?}");
            let flops = count_predict(&*model, &w.x).flops;
            assert!(flops > 0 && model.params().scalar_count() > 0, "{kind:?}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = ModelKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }
}
