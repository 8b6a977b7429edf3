//! Weight initialisation.

use focus_tensor::Tensor;
use rand::Rng;

/// Xavier/Glorot uniform initialisation for a `[fan_in, fan_out]` weight.
///
/// Samples `U(−a, a)` with `a = sqrt(6 / (fan_in + fan_out))`, the standard
/// choice for tanh/linear units and the one used by the transformer-family
/// baselines.
pub fn xavier_uniform<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(&[fan_in, fan_out], -a, a, rng)
}

/// Small-scale normal initialisation, `N(0, std²)`, for embeddings and
/// readout queries.
pub fn normal<R: Rng + ?Sized>(dims: &[usize], std: f32, rng: &mut R) -> Tensor {
    Tensor::randn(dims, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = xavier_uniform(64, 64, &mut rng);
        let a = (6.0 / 128.0f32).sqrt();
        assert!(w.data().iter().all(|&v| v > -a && v < a));
        assert_eq!(w.dims(), &[64, 64]);
    }
}
