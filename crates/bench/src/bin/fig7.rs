//! Fig. 7: parameter study on the PEMS08-like dataset —
//! (a) prototype count `k`, (b) embedding size `d`, (c) input window `L`,
//! (d) patch length `p`. Each sweep reports accuracy (MSE/MAE) alongside
//! the FLOPs and peak memory counted on one forward pass
//! (`focus_core::count_predict`), mirroring the paper's twin-axis plots.
//!
//! Usage: `cargo run --release -p focus-bench --bin fig7 [--part a|b|c|d] [--fast|--full] [--csv]`

use focus_bench::report::{f4, Table};
use focus_bench::settings::{self, Cli, Scale};
use focus_core::{count_predict, Focus, FocusConfig, Forecaster};
use focus_data::{Benchmark, MtsDataset, Split};

fn main() {
    let cli = Cli::parse();
    let parts: Vec<char> = match cli.opt("part") {
        Some(p) => p.chars().collect(),
        None => vec!['a', 'b', 'c', 'd'],
    };
    let (max_entities, max_len) = settings::dataset_size(cli.scale);
    // Fixed budget across sweep points: the figure compares configurations,
    // so every point gets the identical training schedule.
    let opts = focus_core::TrainOptions {
        epochs: if cli.scale == Scale::Fast { 4 } else { 12 },
        max_windows: 64,
        patience: None,
        ..settings::train_options(cli.scale)
    };
    let ds = MtsDataset::generate(
        Benchmark::Pems08.scaled(max_entities, max_len),
        settings::seed_for("fig7", 1),
    );

    let base = |lookback: usize| -> FocusConfig {
        let mut cfg = FocusConfig::new(lookback, 24);
        cfg.segment_len = 8;
        cfg.n_prototypes = 12;
        cfg.d = 24;
        cfg
    };
    let fast = cli.scale == Scale::Fast;

    let mut table = Table::new(&["part", "setting", "MSE", "MAE", "MFLOPs", "Mem(MiB)"]);
    let mut run = |part: char, setting: String, cfg: FocusConfig| {
        let mut model = Focus::fit_offline(&ds, cfg, settings::seed_for("fig7-model", part as u64));
        model.train(&ds, &opts);
        let m = model.evaluate(&ds, Split::Test, 24);
        let work = count_predict(&model, &ds.window_at(0, model.lookback(), model.horizon()).x);
        let mflops = work.flops as f64 / 1e6;
        eprintln!("  {part}/{setting}: MSE {:.4} FLOPs {mflops:.2}M", m.mse());
        table.row(vec![
            part.to_string(),
            setting,
            f4(m.mse()),
            f4(m.mae()),
            format!("{mflops:.2}"),
            format!("{:.3}", work.peak_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    };

    for part in parts {
        match part {
            'a' => {
                eprintln!("== (a) prototype count k ==");
                let ks: &[usize] = if fast { &[4, 16] } else { &[4, 8, 16, 32, 64] };
                for &k in ks {
                    let mut cfg = base(96);
                    cfg.n_prototypes = k;
                    run('a', format!("k={k}"), cfg);
                }
            }
            'b' => {
                eprintln!("== (b) embedding size d ==");
                let dims: &[usize] = if fast { &[8, 32] } else { &[8, 16, 32, 64, 128] };
                for &d in dims {
                    let mut cfg = base(96);
                    cfg.d = d;
                    run('b', format!("d={d}"), cfg);
                }
            }
            'c' => {
                eprintln!("== (c) input window L ==");
                let ls: &[usize] = if fast { &[48, 96] } else { &[48, 96, 192, 384] };
                for &l in ls {
                    run('c', format!("L={l}"), base(l));
                }
            }
            'd' => {
                eprintln!("== (d) patch length p ==");
                let ps: &[usize] = if fast { &[8, 24] } else { &[4, 8, 12, 24, 48] };
                for &p in ps {
                    let mut cfg = base(96);
                    cfg.segment_len = p;
                    run('d', format!("p={p}"), cfg);
                }
            }
            other => eprintln!("unknown part {other:?}, skipping"),
        }
    }

    println!("\n# Fig. 7 — FOCUS parameter study (PEMS08-like)\n");
    println!("{}", table.to_markdown());
    println!("\npaper trends to check:");
    println!("  (a) FLOPs grow with k; accuracy gains plateau past a threshold");
    println!("  (b) FLOPs grow with d; accuracy improves with diminishing returns");
    println!("  (c) longer L steadily improves accuracy at higher cost");
    println!("  (d) shorter p improves accuracy but costs more");

    if cli.csv {
        let path = table
            .save_csv(std::path::Path::new(env!("CARGO_MANIFEST_DIR")), "fig7")
            .expect("write csv");
        println!("csv: {}", path.display());
    }
}
