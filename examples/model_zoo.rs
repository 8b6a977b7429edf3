//! League table: train every model in the zoo (FOCUS + 7 baselines) on the
//! same dataset and print accuracy next to the efficiency metrics counted on
//! one forward pass — a miniature of the paper's Table III + Fig. 6.
//!
//! Run with: `cargo run --release --example model_zoo`

use focus::core::count_predict;
use focus::{BaselineConfig, Benchmark, ModelKind, MtsDataset, Split, TrainOptions};

fn main() {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(12, 3_000), 33);
    println!(
        "dataset: {}-like, {} entities × {} steps; lookback 96 → horizon 24\n",
        ds.spec().name,
        ds.spec().entities,
        ds.spec().len
    );

    let cfg = BaselineConfig {
        d: 24,
        n_prototypes: 10,
        ..BaselineConfig::new(96, 24)
    };
    let opts = TrainOptions {
        epochs: 10,
        max_windows: 64,
        ..Default::default()
    };

    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "model", "MSE", "MAE", "MFLOPs", "Mem(MiB)", "Params(K)"
    );
    let x = ds.window_at(ds.range(Split::Test).start, 96, 24).x;
    let mut rows = Vec::new();
    for kind in ModelKind::ALL {
        let mut model = cfg.build(kind, &ds);
        model.train(&ds, &opts);
        let m = model.evaluate(&ds, Split::Test, 48);
        let work = count_predict(&*model, &x);
        rows.push((kind.label(), m.mse(), m.mae(), work, model.params().scalar_count()));
    }
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (name, mse, mae, work, params) in rows {
        println!(
            "{name:<14} {mse:>8.4} {mae:>8.4} {:>10.2} {:>10.3} {:>10.1}",
            work.flops as f64 / 1e6,
            work.peak_bytes as f64 / (1024.0 * 1024.0),
            params as f64 / 1e3
        );
    }
    println!("\n(sorted by MSE; FLOPs and peak memory counted on one forward pass)");
}
