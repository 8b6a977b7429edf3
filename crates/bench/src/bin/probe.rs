//! Developer probe: FOCUS hyper-parameter sensitivity on the Table III
//! PEMS08 setting, to pick the grid the table3 harness searches.

use focus_bench::settings;
use focus_core::{Focus, FocusConfig, Forecaster, TrainOptions};
use focus_data::{Benchmark, MtsDataset, Split};

fn main() {
    let ds = MtsDataset::generate(
        Benchmark::Pems08.scaled(16, 6_000),
        settings::seed_for("table3-data", Benchmark::Pems08 as u64),
    );
    let opts = TrainOptions {
        epochs: 40,
        max_windows: 96,
        patience: Some(10),
        ..Default::default()
    };
    for (p, k, d) in [
        (8usize, 12usize, 32usize), // current table3 config
        (8, 24, 32),
        (8, 48, 32),
        (16, 24, 32),
        (8, 24, 48),
        (12, 24, 32),
    ] {
        let mut cfg = FocusConfig::new(192, 48);
        cfg.segment_len = p;
        cfg.n_prototypes = k;
        cfg.d = d;
        let mut model = Focus::fit_offline(&ds, cfg, settings::seed_for("table3-model", 48));
        let r = model.train(&ds, &opts);
        let m = model.evaluate(&ds, Split::Test, 48);
        println!(
            "p={p:<3} k={k:<3} d={d:<3}: MSE {:.4} MAE {:.4} (epochs {}, best {:?})",
            m.mse(),
            m.mae(),
            r.epoch_losses.len(),
            r.best_epoch
        );
    }
}
