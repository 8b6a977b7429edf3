//! Golden digest of a tiny seeded FOCUS run: `fit_offline` then `train`,
//! hashing the final parameter bits and the per-epoch training losses.
//!
//! `crates/cluster/tests/golden.rs` pins the offline clustering fit; this
//! digest pins the online network on top of it — the shared `exp`, softmax,
//! sigmoid and LayerNorm kernels, GEMMs, plan replay and AdamW. A change that
//! moves it changes what every user of the crate trains: it must update
//! `GOLDEN` below and explain why in CHANGES.md.

use focus_core::model::{Focus, FocusConfig};
use focus_core::{Forecaster, TrainOptions};
use focus_data::{Benchmark, MtsDataset};
use focus_tensor::par;

/// FNV-1a 64 over the little-endian bits of every parameter tensor in store
/// order, then of each epoch's mean training loss (f64).
const GOLDEN: u64 = 0x087d_1e8f_5ebd_6bba;

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn trained_digest() -> (u64, Vec<f64>) {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 7);
    let mut cfg = FocusConfig::new(48, 12);
    cfg.segment_len = 8;
    cfg.n_prototypes = 4;
    cfg.d = 12;
    cfg.cluster_iters = 4;
    let opts = TrainOptions {
        epochs: 2,
        max_windows: 12,
        ..Default::default()
    };
    let mut model = Focus::fit_offline(&ds, cfg, 9);
    let report = model.train(&ds, &opts);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for t in model.params().snapshot() {
        for v in t.data() {
            digest = fnv1a(digest, &v.to_bits().to_le_bytes());
        }
    }
    for l in &report.epoch_losses {
        digest = fnv1a(digest, &l.to_bits().to_le_bytes());
    }
    (digest, report.epoch_losses)
}

#[test]
fn fit_offline_then_train_digest_is_pinned() {
    let _threads = par::threads_guard();
    for threads in [1, 2] {
        par::set_threads(threads);
        let (digest, losses) = trained_digest();
        assert_eq!(
            digest, GOLDEN,
            "trained digest moved to {digest:#018x} at {threads} thread(s) (epoch losses {losses:?}); \
             update GOLDEN only for an intended change"
        );
    }
    par::set_threads(0);
}
