//! Table IV: ablation study — FOCUS vs FOCUS-Attn vs FOCUS-LnrFusion vs
//! FOCUS-AllLnr on PEMS08-like and Electricity-like data, reporting
//! MSE / MAE / FLOPs / peak memory / parameter count, the cost columns
//! counted on one forward pass (`focus_core::count_predict`).
//!
//! Usage: `cargo run --release -p focus-bench --bin table4 [--fast|--full] [--csv]`

use focus_bench::report::{f4, Table};
use focus_bench::settings::{self, Cli};
use focus_core::{count_predict, AblationVariant, FocusAblation, FocusConfig, Forecaster};
use focus_data::{Benchmark, MtsDataset, Split};

fn main() {
    let cli = Cli::parse();
    let (max_entities, max_len) = settings::dataset_size(cli.scale);
    let (lookback, horizons) = settings::window_size(cli.scale);
    let horizon = horizons[0];
    let opts = settings::train_options(cli.scale);

    let mut table = Table::new(&[
        "dataset", "model", "MSE", "MAE", "FLOPs(M)", "Mem(MB)", "Param(K)",
    ]);

    for bench in [Benchmark::Pems08, Benchmark::Electricity] {
        let ds = MtsDataset::generate(
            bench.scaled(max_entities, max_len),
            settings::seed_for("table4", bench as u64),
        );
        let mut cfg = FocusConfig::new(lookback, horizon);
        cfg.segment_len = 8;
        cfg.n_prototypes = 12;
        cfg.d = 24;
        // All variants share one offline prototype set, isolating the online
        // architecture.
        let protos = cfg.cluster(&ds.train_matrix(), settings::seed_for("table4-proto", 0));

        eprintln!("== {} ==", ds.spec().name);
        for variant in AblationVariant::ALL {
            let mut model = FocusAblation::with_prototypes(
                variant,
                cfg.clone(),
                &protos,
                settings::seed_for("table4-model", variant as u64),
            );
            model.train(&ds, &opts);
            let m = model.evaluate(&ds, Split::Test, horizon);
            let work = count_predict(&model, &ds.window_at(0, lookback, horizon).x);
            let mflops = work.flops as f64 / 1e6;
            let mib = work.peak_bytes as f64 / (1024.0 * 1024.0);
            let kparams = model.params().scalar_count() as f64 / 1e3;
            eprintln!(
                "  {:<16} MSE {:.4}  FLOPs {mflops:.1}M  Mem {mib:.2}MB  Params {kparams:.0}K",
                variant.label(),
                m.mse(),
            );
            table.row(vec![
                ds.spec().name.clone(),
                variant.label().to_string(),
                f4(m.mse()),
                f4(m.mae()),
                format!("{mflops:.1}"),
                format!("{mib:.2}"),
                format!("{kparams:.0}"),
            ]);
        }
    }

    println!("\n# Table IV — ablation study\n");
    println!("{}", table.to_markdown());
    println!("\npaper findings to check:");
    println!("  FOCUS-Attn: higher FLOPs/memory, negligible accuracy gain");
    println!("  FOCUS-LnrFusion: cheaper but less accurate, more parameters");
    println!("  FOCUS-AllLnr: cheapest, least accurate");

    if cli.csv {
        let path = table
            .save_csv(std::path::Path::new(env!("CARGO_MANIFEST_DIR")), "table4")
            .expect("write csv");
        println!("csv: {}", path.display());
    }
}
