//! Property-based tests for the FOCUS model's structural invariants.

use focus_autograd::{Graph, ParamStore};
use focus_cluster::{Objective, Prototypes};
use focus_core::protoattn::{Assignment, ProtoAttn, Routing};
use focus_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const P: usize = 4;
const K: usize = 3;

fn prototypes() -> Prototypes {
    Prototypes::from_centers(
        Tensor::from_vec(
            vec![
                -1.0, -0.3, 0.3, 1.0, // rising
                1.0, 0.3, -0.3, -1.0, // falling
                0.0, 1.0, 0.0, -1.0, // peak
            ],
            &[K, P],
        ),
        Objective::rec_corr(0.2),
    )
}

fn segments(b: usize, l: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0f32..3.0, b * l * P)
        .prop_map(move |v| Tensor::from_vec(v, &[b, l, P]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hard_assignment_rows_are_one_hot(segs in segments(2, 5)) {
        let protos = prototypes();
        let a = Assignment::Hard.matrix(&segs, &protos);
        for b in 0..2 {
            for i in 0..5 {
                let row: Vec<f32> = (0..K).map(|j| a.at3(b, i, j)).collect();
                let ones = row.iter().filter(|&&v| v == 1.0).count();
                let zeros = row.iter().filter(|&&v| v == 0.0).count();
                prop_assert_eq!(ones, 1);
                prop_assert_eq!(zeros, K - 1);
            }
        }
    }

    #[test]
    fn soft_assignment_approaches_hard_as_temperature_drops(segs in segments(1, 4)) {
        let protos = prototypes();
        let hard = Assignment::Hard.matrix(&segs, &protos);
        let cold = Assignment::Soft { temperature: 1e-3 }.matrix(&segs, &protos);
        // At near-zero temperature the soft distribution concentrates on the
        // hard choice.
        for i in 0..4 {
            let hard_j = (0..K).max_by(|&a, &b| hard.at3(0, i, a).total_cmp(&hard.at3(0, i, b))).unwrap();
            prop_assert!(cold.at3(0, i, hard_j) > 0.95, "segment {i} not concentrated");
        }
    }

    #[test]
    fn protoattn_output_is_bucket_constant(segs in segments(1, 6)) {
        // Eq. 19: identical assignment ⇒ identical ProtoAttn output rows.
        let protos = prototypes();
        let mut rng = StdRng::seed_from_u64(9);
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 8, &mut rng);
        let indices = Assignment::indices(&segs, &protos);
        let a = Assignment::Hard.matrix(&segs, &protos);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let seg_v = g.input(segs.clone());
        let route = g.route(indices);
        let out = pa.forward(&mut g, &pv, seg_v, Routing::Hard(route));
        let out = g.value(out);
        let assigned: Vec<usize> = (0..6)
            .map(|i| (0..K).position(|j| a.at3(0, i, j) == 1.0).unwrap())
            .collect();
        for i in 0..6 {
            for j in (i + 1)..6 {
                if assigned[i] == assigned[j] {
                    let ri: Vec<f32> = (0..8).map(|d| out.at3(0, i, d)).collect();
                    let rj: Vec<f32> = (0..8).map(|d| out.at3(0, j, d)).collect();
                    prop_assert_eq!(ri, rj);
                }
            }
        }
    }

    #[test]
    fn protoattn_is_permutation_equivariant(segs in segments(1, 5)) {
        // Reversing the segment order must reverse the outputs (ProtoAttn
        // itself carries no positional term; position enters via the
        // embedding upstream).
        let protos = prototypes();
        let mut rng = StdRng::seed_from_u64(10);
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 6, &mut rng);

        let run = |input: &Tensor| -> Tensor {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let seg_v = g.input(input.clone());
            let route = g.route(Assignment::indices(input, &protos));
            let out = pa.forward(&mut g, &pv, seg_v, Routing::Hard(route));
            g.value(out)
        };

        let forward = run(&segs);
        let mut rev_data = Vec::with_capacity(segs.numel());
        for i in (0..5).rev() {
            rev_data.extend_from_slice(&segs.data()[i * P..(i + 1) * P]);
        }
        let reversed = run(&Tensor::from_vec(rev_data, &[1, 5, P]));
        for i in 0..5 {
            for d in 0..6 {
                let a = forward.at3(0, i, d);
                let b = reversed.at3(0, 4 - i, d);
                prop_assert!((a - b).abs() < 1e-5, "mismatch at ({i}, {d}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn dependency_matrix_is_row_stochastic(segs in segments(2, 4)) {
        let protos = prototypes();
        let mut rng = StdRng::seed_from_u64(11);
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 6, &mut rng);
        let a = Assignment::Hard.matrix(&segs, &protos);
        let dep = pa.dependency_matrix(&ps, &segs, &a);
        for b in 0..2 {
            for i in 0..4 {
                let sum: f32 = (0..4).map(|j| dep.at3(b, i, j)).sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                for j in 0..4 {
                    prop_assert!(dep.at3(b, i, j) >= 0.0);
                }
            }
        }
    }
}
