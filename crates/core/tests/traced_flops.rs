//! A traced run publishes the counted FLOPs of every pass as the
//! `flops/counted` trace counter: training steps and predicts, plan replays
//! included. The counter is process-global, so this target holds one test.

use focus_core::model::{Focus, FocusConfig};
use focus_core::{Forecaster, TrainOptions};
use focus_data::{Benchmark, MtsDataset};
use focus_tensor::work;

fn published() -> u64 {
    focus_trace::snapshot_counters()
        .into_iter()
        .find(|&(name, _)| name == "flops/counted")
        .map_or(0, |(_, flops)| flops)
}

#[test]
fn every_traced_pass_publishes_its_counted_flops() {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 7);
    let mut cfg = FocusConfig::new(48, 12);
    cfg.segment_len = 8;
    cfg.n_prototypes = 4;
    cfg.d = 12;
    cfg.cluster_iters = 4;
    let mut model = Focus::fit_offline(&ds, cfg, 9);
    let opts = TrainOptions { epochs: 1, max_windows: 4, ..Default::default() };
    let x = ds.window_at(0, 48, 12).x;

    focus_trace::reset();
    focus_trace::set_enabled(true);
    // Four training steps (one compiles, three replay), then a predict that
    // compiles and two that replay.
    let ((), trained) = work::measure(|| drop(model.train(&ds, &opts)));
    let after_training = published();
    let predicts: Vec<u64> = (0..3).map(|_| work::measure(|| model.predict(&x)).1.flops).collect();
    let total = published();
    focus_trace::set_enabled(false);

    assert!(trained.flops > 0);
    assert_eq!(after_training, trained.flops, "the training steps' FLOPs");
    assert_eq!(predicts[1], predicts[0], "a replayed predict counts the never-cached one's FLOPs");
    assert_eq!(total - after_training, predicts.iter().sum::<u64>(), "every predict, replays included");
}
