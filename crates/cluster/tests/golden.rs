//! Golden digests of seeded fits: the fitted prototype bits and the
//! per-iteration loss trace of Rec+Corr / AdamW runs (the paper defaults),
//! one tiny and one at perfbench `offline-cluster`'s shape.
//!
//! Bitwise parity is otherwise checked only within one version of the code
//! (thread counts, plan replay); these digests pin results across versions.
//! A change that moves one changes the prototypes every user of the crate
//! fits: it must update its constant below and explain why in CHANGES.md.

use focus_cluster::{ClusterConfig, FitTrace, Prototypes};
use focus_tensor::{par, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64 over the little-endian bytes of the fitted centers, then of
/// `loss_per_iter`.
const GOLDEN: u64 = 0xeaba_e17e_a2d0_d4e1;

/// [`GOLDEN`]'s digest for the 4 800 × 8, k = 8, 6-iteration fit.
const GOLDEN_4800X8_K8: u64 = 0xa0e6_e269_d670_1660;

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn fit_digest(protos: &Prototypes, trace: &FitTrace) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in protos.centers().data() {
        digest = fnv1a(digest, &v.to_bits().to_le_bytes());
    }
    for l in &trace.loss_per_iter {
        digest = fnv1a(digest, &l.to_bits().to_le_bytes());
    }
    digest
}

#[test]
fn rec_corr_adamw_fit_digest_is_pinned() {
    // Uniform draws from the integer-only RNG shim, plus two flat rows, so
    // the data is the same on every host.
    let (n, p) = (48, 8);
    let mut rng = StdRng::seed_from_u64(2025);
    let mut data: Vec<f32> = (0..(n - 2) * p).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
    data.extend([1.5f32; 8]);
    data.extend([-2.0f32; 8]);
    let segments = Tensor::from_vec(data, &[n, p]);

    let (protos, trace) = ClusterConfig::new(4, p).with_max_iters(6).fit_traced(&segments, 7);
    let digest = fit_digest(&protos, &trace);
    assert_eq!(
        digest, GOLDEN,
        "fit digest moved to {digest:#018x} (loss trace {:?}); update GOLDEN only for an intended change",
        trace.loss_per_iter
    );
}

#[test]
fn offline_cluster_shape_fit_digest_is_pinned() {
    // 32 series of 1 200 steps cut into 4 800 segments of 8, as perfbench
    // `offline-cluster` fits: past the sweeps' parallel grain, with
    // neighbouring segments of one series often sharing a bucket. Each
    // series is an AR(1) walk on uniform shim draws; every 1 000th segment
    // is flat.
    let (series, steps, p) = (32, 1200, 8);
    let mut rng = StdRng::seed_from_u64(4800);
    let mut data = Vec::with_capacity(series * steps);
    for _ in 0..series {
        let mut x = 0.0f32;
        for _ in 0..steps {
            x = 0.9 * x + rng.gen_range(-1.0f32..1.0);
            data.push(x);
        }
    }
    for (i, row) in data.chunks_exact_mut(p).enumerate().step_by(1000) {
        row.fill(i as f32 / 1000.0 - 2.0);
    }
    let segments = Tensor::from_vec(data, &[series * steps / p, p]);

    let _g = par::threads_guard();
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        let (protos, trace) = ClusterConfig::new(8, p).with_max_iters(6).fit_traced(&segments, 7);
        let digest = fit_digest(&protos, &trace);
        assert_eq!(
            digest, GOLDEN_4800X8_K8,
            "fit digest at {threads} threads moved to {digest:#018x} (loss trace {:?}); update GOLDEN_4800X8_K8 only for an intended change",
            trace.loss_per_iter
        );
    }
    par::set_threads(0);
}
