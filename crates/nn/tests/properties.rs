//! Property-based tests for the layer library.

use focus_autograd::{Graph, ParamStore};
use focus_nn::mlp::{Activation, Mlp};
use focus_nn::revin::{instance_denorm, instance_norm};
use focus_nn::{LayerNorm, Linear, SelfAttention};
use focus_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn matrix(m: usize, n: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0f32..3.0, m * n).prop_map(move |v| Tensor::from_vec(v, &[m, n]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn linear_is_affine(x in matrix(4, 5), y in matrix(4, 5), a in -2.0f32..2.0) {
        // f(a·x + (1−a)·y) = a·f(x) + (1−a)·f(y) for an affine map.
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 5, 3, &mut rng);
        let apply = |input: &Tensor| -> Tensor {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let xv = g.constant(input.clone());
            let out = lin.forward(&mut g, &pv, xv);
            g.value(out)
        };
        let mixed = x.scale(a).add(&y.scale(1.0 - a));
        let lhs = apply(&mixed);
        let rhs = apply(&x).scale(a).add(&apply(&y).scale(1.0 - a));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn layer_norm_is_shift_and_scale_invariant(x in matrix(3, 6), shift in -5.0f32..5.0, scale in 0.5f32..3.0) {
        let mut ps = ParamStore::new();
        let ln = LayerNorm::new(&mut ps, "ln", 6);
        let apply = |input: &Tensor| -> Tensor {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let xv = g.constant(input.clone());
            let out = ln.forward(&mut g, &pv, xv);
            g.value(out)
        };
        let base = apply(&x);
        let transformed = apply(&x.scale(scale).add_scalar(shift));
        // Row-wise standardisation kills affine transforms of the row.
        prop_assert!(base.max_abs_diff(&transformed) < 2e-2);
    }

    #[test]
    fn self_attention_rows_mix_but_shape_holds(x in matrix(6, 4)) {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let sa = SelfAttention::new(&mut ps, "sa", 4, &mut rng);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let xv = g.constant(x.reshape(&[1, 6, 4]));
        let out = sa.forward(&mut g, &pv, xv);
        prop_assert_eq!(g.dims(out), &[1, 6, 4]);
        prop_assert!(g.value(out).all_finite());
    }

    #[test]
    fn mlp_is_deterministic(x in matrix(5, 3)) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let mlp = Mlp::new(&mut ps, "m", 3, 7, 2, Activation::Gelu, &mut rng);
        let apply = || -> Tensor {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let xv = g.constant(x.clone());
            let out = mlp.forward(&mut g, &pv, xv);
            g.value(out)
        };
        let first = apply();
        let second = apply();
        prop_assert_eq!(first.data(), second.data());
    }

    #[test]
    fn revin_round_trip(x in matrix(3, 12)) {
        let (normed, stats) = instance_norm(&x);
        prop_assert!(normed.all_finite());
        let back = instance_denorm(&normed, &stats);
        prop_assert!(back.max_abs_diff(&x) < 1e-3);
    }

    #[test]
    fn revin_output_is_standardised(x in matrix(2, 16)) {
        let (normed, _) = instance_norm(&x);
        for e in 0..2 {
            let row = normed.row(e);
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            prop_assert!(mean.abs() < 1e-4, "row {e} mean {mean}");
        }
    }
}
