//! Wall-clock forward-pass comparison of every model in the zoo (the
//! runtime counterpart of Fig. 6's analytic FLOPs), plus one training step
//! of FOCUS (forward + backward + AdamW).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_autograd::{AdamW, Graph};
use focus_baselines::{BaselineConfig, ModelKind};
use focus_core::{Focus, FocusConfig, Forecaster, WindowInputs};
use focus_data::{Benchmark, MtsDataset};
use focus_nn::revin::instance_norm;
use std::hint::black_box;

fn bench_forward_per_model(c: &mut Criterion) {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(12, 2_400), 5);
    let cfg = BaselineConfig {
        d: 24,
        n_prototypes: 12,
        ..BaselineConfig::new(96, 24)
    };
    let w = ds.window_at(0, 96, 24);

    let mut group = c.benchmark_group("forward_pass");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for kind in ModelKind::ALL {
        let model = cfg.build(kind, &ds);
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, _| {
            b.iter(|| black_box(model.predict(&w.x)))
        });
    }
    group.finish();
}

fn bench_focus_train_step(c: &mut Criterion) {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(12, 2_400), 6);
    let mut cfg = FocusConfig::new(96, 24);
    cfg.segment_len = 8;
    cfg.n_prototypes = 12;
    cfg.d = 24;
    let mut model = Focus::fit_offline(&ds, cfg, 1);
    let w = ds.window_at(0, 96, 24);
    let (x_norm, stats) = instance_norm(&w.x);
    let y_norm = focus_core::forecaster::normalise_target(&w.y, &stats);
    let inputs = WindowInputs::new(&model, x_norm, Some(y_norm));
    let mut opt = AdamW::new(1e-3, 0.0);

    c.bench_function("focus_train_step", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let rec = model.record_window(&mut g, &inputs);
            let loss = g.mse(rec.pred, rec.target.expect("the window carries its target"));
            g.backward(loss);
            model.params_mut().step(&mut opt, &g, &rec.pv);
            black_box(g.value(loss).item())
        })
    });
}

fn bench_offline_phase(c: &mut Criterion) {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(12, 2_400), 7);
    let mut cfg = FocusConfig::new(96, 24);
    cfg.segment_len = 8;
    cfg.n_prototypes = 12;
    cfg.cluster_iters = 10;
    let train = ds.train_matrix();

    c.bench_function("offline_phase", |b| {
        b.iter(|| black_box(cfg.cluster(&train, 1)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_forward_per_model, bench_focus_train_step, bench_offline_phase
}
criterion_main!(benches);
