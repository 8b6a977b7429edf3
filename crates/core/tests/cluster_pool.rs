//! Regression test: repeated offline fits leave the tensor pool as they
//! found it. `segment_matrix` once built its buffer outside the pool, and
//! each drop filed that buffer under a capacity class no fit requests
//! again, so the pool's resident bytes grew by one segment matrix per
//! `FocusConfig::cluster` call until they reached the pool's cap.
//!
//! This file holds exactly one test so the process-global pool counters are
//! not perturbed by unrelated tests sharing the binary.

use focus_core::model::FocusConfig;
use focus_data::{Benchmark, MtsDataset};
use focus_tensor::pool;

#[test]
fn repeated_offline_fits_keep_pool_resident_bytes_flat() {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(8, 1_200), 3);
    let train = ds.train_matrix();
    let mut cfg = FocusConfig::new(96, 24);
    cfg.segment_len = 8;
    cfg.n_prototypes = 8;
    cfg.cluster_iters = 3;
    let segments = train.dims()[0] * (train.dims()[1] / 8);
    assert!(!(segments * 8).is_power_of_two(), "the segment matrix must not fill a capacity class exactly");

    drop(cfg.cluster(&train, 1));
    let warm = pool::stats().resident_bytes;
    for call in 2..12 {
        drop(cfg.cluster(&train, 1));
        assert_eq!(
            pool::stats().resident_bytes,
            warm,
            "call {call} left the pool holding more bytes than the first"
        );
    }
}
