//! Golden digest of a tiny seeded fit: the fitted prototype bits and the
//! per-iteration loss trace of a Rec+Corr / AdamW run (the paper defaults).
//!
//! Bitwise parity is otherwise checked only within one version of the code
//! (thread counts, plan replay); this digest pins results across versions.
//! A change that moves it changes the prototypes every user of the crate
//! fits: it must update `GOLDEN` below and explain why in CHANGES.md.

use focus_cluster::ClusterConfig;
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64 over the little-endian bytes of the fitted centers, then of
/// `loss_per_iter`.
const GOLDEN: u64 = 0xeaba_e17e_a2d0_d4e1;

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
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
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in protos.centers().data() {
        digest = fnv1a(digest, &v.to_bits().to_le_bytes());
    }
    for l in &trace.loss_per_iter {
        digest = fnv1a(digest, &l.to_bits().to_le_bytes());
    }
    assert_eq!(
        digest, GOLDEN,
        "fit digest moved to {digest:#018x} (loss trace {:?}); update GOLDEN only for an intended change",
        trace.loss_per_iter
    );
}
