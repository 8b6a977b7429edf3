//! Fig. 6: FLOPs, peak memory and parameter count of every model as the
//! input length grows — the paper's efficiency headline (FOCUS scales
//! linearly; the transformer baselines quadratically).
//!
//! The paper measured these platform-independent metrics with profilers.
//! Here each model and length counts one `predict`
//! (`focus_core::count_predict`): FLOPs at the kernels, `thop`-style, and
//! the most buffer bytes the pass holds at once; parameters come from
//! `ParamStore::scalar_count`.
//!
//! The binary exits non-zero unless FOCUS's FLOPs slope over the sweep is
//! at most 1.05 and PatchTST's and Crossformer's slopes both exceed it,
//! claims that hold at every scale.
//!
//! Usage: `cargo run --release -p focus-bench --bin fig6 [--fast|--full] [--csv]`

use std::process::ExitCode;

use focus_baselines::{BaselineConfig, ModelKind};
use focus_bench::report::{f1, Table};
use focus_bench::settings::{self, Cli, Scale};
use focus_core::count_predict;
use focus_data::{Benchmark, MtsDataset};

fn main() -> ExitCode {
    let cli = Cli::parse();
    let (max_entities, max_len) = settings::dataset_size(cli.scale);
    let lengths: &[usize] = match cli.scale {
        Scale::Fast => &[96, 192],
        Scale::Standard => &[96, 192, 384, 768, 1536],
        Scale::Full => &[96, 192, 384, 768, 1536, 3072],
    };
    let horizon = 48;

    // The efficiency study is architecture-only; one dataset supplies the
    // entity count, the FOCUS prototypes and the counted windows.
    let spec = Benchmark::Pems08.scaled(max_entities, max_len);
    let entities = spec.entities;
    let ds = MtsDataset::generate(spec, settings::seed_for("fig6", 0));

    let mut table = Table::new(&["model", "L", "MFLOPs", "Mem(MiB)", "Params(K)"]);
    let mut slopes = Vec::new();
    for kind in ModelKind::ALL {
        let mut points = Vec::new();
        for &len in lengths {
            let cfg = BaselineConfig {
                d: 32,
                n_prototypes: 12,
                ..BaselineConfig::new(len, horizon)
            };
            let model = cfg.build(kind, &ds);
            let work = count_predict(&*model, &ds.window_at(0, len, horizon).x);
            table.row(vec![
                kind.label().to_string(),
                len.to_string(),
                format!("{:.2}", work.flops as f64 / 1e6),
                format!("{:.3}", work.peak_bytes as f64 / (1024.0 * 1024.0)),
                f1(model.params().scalar_count() as f64 / 1e3),
            ]);
            points.push(((len as f64).ln(), (work.flops as f64).ln()));
        }
        slopes.push((kind, slope(&points)));
    }

    println!("# Fig. 6 — efficiency vs input length (N = {entities})\n");
    println!("{}", table.to_markdown());

    // Scaling-exponent summary: fit log(flops) ~ a·log(L).
    println!("\nempirical FLOPs scaling exponents (log–log slope over the sweep):");
    for (kind, slope) in &slopes {
        println!("  {:<14} {slope:.2}", kind.label());
    }
    println!("\n(FOCUS ≈ 1.0 = linear; PatchTST/Crossformer trend toward 2.0 = quadratic)");

    if cli.csv {
        let path = table
            .save_csv(std::path::Path::new(env!("CARGO_MANIFEST_DIR")), "fig6")
            .expect("write csv");
        println!("csv: {}", path.display());
    }

    let slope_of = |kind: ModelKind| slopes.iter().find(|(k, _)| *k == kind).map_or(f64::NAN, |s| s.1);
    let focus = slope_of(ModelKind::Focus);
    let (patchtst, crossformer) = (slope_of(ModelKind::PatchTst), slope_of(ModelKind::Crossformer));
    if focus <= 1.05 && patchtst > focus && crossformer > focus {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fig6: FOCUS's FLOPs slope must be at most 1.05 and below PatchTST's and Crossformer's; \
             got FOCUS {focus:.3}, PatchTST {patchtst:.3}, Crossformer {crossformer:.3}"
        );
        ExitCode::FAILURE
    }
}

fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}
