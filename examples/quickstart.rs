//! Quickstart: the full FOCUS pipeline in ~50 lines.
//!
//! 1. Generate a small PEMS08-like traffic dataset.
//! 2. Run the offline clustering phase to discover prototypes.
//! 3. Train the online network for a few epochs.
//! 4. Forecast and report accuracy.
//!
//! Tracing is switched on up front, so the run ends with a per-phase
//! wall-clock table (offline fit, forward, backward, optimizer, ...).
//!
//! Run with: `cargo run --release --example quickstart`

use focus::core::count_predict;
use focus::{trace, Benchmark, Focus, FocusConfig, Forecaster, MtsDataset, Split, TrainOptions};

fn main() {
    // Collect spans/counters for the whole run; disabled by default
    // everywhere else because the probes then cost a single atomic load.
    trace::set_enabled(true);

    // A laptop-scale stand-in for PEMS08: 16 sensors, ~14 days of 5-minute
    // readings (see DESIGN.md §4 for why synthetic data preserves the
    // relevant structure).
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(16, 4_032), 42);
    println!(
        "dataset: {} — {} entities × {} steps",
        ds.spec().name,
        ds.spec().entities,
        ds.spec().len
    );

    // Offline phase: cluster training segments into k prototypes.
    let mut cfg = FocusConfig::new(96, 24);
    cfg.segment_len = 12;
    cfg.n_prototypes = 12;
    cfg.d = 32;
    let mut model = Focus::fit_offline(&ds, cfg, 7);
    println!(
        "offline phase done: {} prototypes of length {}",
        model.prototypes().k(),
        model.prototypes().segment_len()
    );

    // Online phase: train the dual-branch network.
    let report = model.train(
        &ds,
        &TrainOptions {
            epochs: 5,
            max_windows: 64,
            ..Default::default()
        },
    );
    println!("training loss per epoch: {:?}", report.epoch_losses);

    // Forecast on the held-out test split.
    let metrics = model.evaluate(&ds, Split::Test, 24);
    println!(
        "test accuracy over {} points: MSE {:.4}, MAE {:.4}",
        metrics.count(),
        metrics.mse(),
        metrics.mae()
    );

    // Show one concrete forecast.
    let test_range = ds.range(Split::Test);
    let w = ds.window_at(test_range.start, 96, 24);
    let pred = model.predict(&w.x);
    println!("\nentity 0, first 8 forecast steps vs truth:");
    for t in 0..8 {
        println!("  t+{t:<2} pred {:+.3}   true {:+.3}", pred.at2(0, t), w.y.at2(0, t));
    }

    // The efficiency story: what one forward pass counts at the kernels.
    let work = count_predict(&model, &w.x);
    println!(
        "\nforward-pass cost: {:.1} MFLOPs, {:.2} MiB peak, {:.1}K params",
        work.flops as f64 / 1e6,
        work.peak_bytes as f64 / (1024.0 * 1024.0),
        model.params().scalar_count() as f64 / 1e3
    );

    // Where the whole run (offline fit + training + evaluation + the
    // forecast above) spent its time, from the trace registry.
    println!("\nrun phases:");
    print!("{}", trace::report::phase_table(&trace::snapshot_spans()));
}
