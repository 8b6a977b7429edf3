//! Property-based tests for the tensor kernels: the algebraic identities that
//! must hold for arbitrary (finite, bounded) inputs, and the bitwise parity
//! of the tiled/parallel kernels with their serial references.

use focus_tensor::{par, reference, stats, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a matrix of the given dims with bounded finite entries.
fn matrix(m: usize, n: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, m * n).prop_map(move |v| Tensor::from_vec(v, &[m, n]))
}

proptest! {
    #[test]
    fn matmul_distributes_over_addition(
        a in matrix(3, 4),
        b in matrix(4, 2),
        c in matrix(4, 2),
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-3);
    }

    #[test]
    fn transpose_of_product_is_reversed_product(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.max_abs_diff(&right) < 1e-3);
    }

    #[test]
    fn matmul_nt_tn_agree_with_naive(a in matrix(3, 5), b in matrix(4, 5), c in matrix(3, 4)) {
        prop_assert!(a.matmul_nt(&b).max_abs_diff(&a.matmul(&b.transpose())) < 1e-3);
        prop_assert!(c.matmul_tn(&a).max_abs_diff(&c.transpose().matmul(&a)) < 1e-3);
    }

    #[test]
    fn softmax_rows_are_distributions(a in matrix(4, 6)) {
        let s = a.softmax_last();
        prop_assert!(s.all_finite());
        for i in 0..4 {
            let row = s.row(i);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_is_stable_under_large_row_offsets(
        a in matrix(3, 8),
        magnitude in 80.0f32..3.0e4,
        flip in 0u32..2,
    ) {
        let offset = if flip == 0 { magnitude } else { -magnitude };
        // Without the max-subtract rewrite, exp(x) overflows to inf (or
        // flushes every entry to 0) long before |x| reaches 1e4. Shifting a
        // whole row must leave the softmax a distribution: shift-invariance
        // means the result should also stay close to the unshifted one.
        let base = a.softmax_last();
        let shifted = a.add_scalar(offset).softmax_last();
        prop_assert!(shifted.all_finite());
        for i in 0..3 {
            let row = shifted.row(i);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {} sums to {}", i, sum);
        }
        prop_assert!(base.max_abs_diff(&shifted) < 1e-3);
    }

    #[test]
    fn softmax_preserves_argmax(a in matrix(1, 8)) {
        let s = a.softmax_last();
        prop_assert_eq!(a.argmax(), s.argmax());
    }

    #[test]
    fn pearson_is_bounded_and_symmetric(
        x in prop::collection::vec(-100.0f32..100.0, 16),
        y in prop::collection::vec(-100.0f32..100.0, 16),
    ) {
        let r = stats::pearson(&x, &y);
        prop_assert!((-1.0..=1.0).contains(&r));
        let r2 = stats::pearson(&y, &x);
        prop_assert!((r - r2).abs() < 1e-5);
    }

    #[test]
    fn pearson_self_is_one_unless_flat(x in prop::collection::vec(-100.0f32..100.0, 16)) {
        let (_, s) = stats::mean_std(&x);
        let r = stats::pearson(&x, &x);
        if s > 1e-3 {
            prop_assert!((r - 1.0).abs() < 1e-4, "r = {r}, std = {s}");
        } else {
            // Near-constant input: correlation defined as 0 or 1 depending on
            // exact variance; only boundedness is guaranteed.
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn sq_euclidean_is_a_metric_squared(
        x in prop::collection::vec(-50.0f32..50.0, 8),
        y in prop::collection::vec(-50.0f32..50.0, 8),
    ) {
        prop_assert!(stats::sq_euclidean(&x, &y) >= 0.0);
        prop_assert!((stats::sq_euclidean(&x, &y) - stats::sq_euclidean(&y, &x)).abs() < 1e-3);
        prop_assert!(stats::sq_euclidean(&x, &x) < 1e-6);
    }

    #[test]
    fn concat_split_round_trip(a in matrix(3, 4), b in matrix(3, 2)) {
        let c = a.concat_last(&b);
        let (x, y) = c.split_last(4);
        prop_assert_eq!(x.data(), a.data());
        prop_assert_eq!(y.data(), b.data());
    }

    #[test]
    fn stack_index_round_trip(a in matrix(2, 3), b in matrix(2, 3)) {
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        let s0 = s.index_axis0(0);
        let s1 = s.index_axis0(1);
        prop_assert_eq!(s0.data(), a.data());
        prop_assert_eq!(s1.data(), b.data());
    }

    #[test]
    fn reshape_preserves_sum(a in matrix(3, 8)) {
        let r = a.reshape(&[2, 3, 4]);
        prop_assert!((r.sum_all() - a.sum_all()).abs() < 1e-3);
    }
}

/// Serialises tests that flip the process-global [`par::set_threads`]
/// override, so one test's thread sweep can't disturb another's baseline.
/// Shares the crate-wide guard so the policy lives in one place.
fn lock_threads() -> std::sync::MutexGuard<'static, ()> {
    par::threads_guard()
}

/// Builds GEMM test data: exact `+0.0` at a quarter of the entries and
/// `−0.0` at a few percent (a chain over zero terms must stay `+0.0`, never
/// turn `−0.0`), and arbitrary finite values; with `specials`, also `±inf`
/// and NaN at a few percent each, so `0·inf`, `0·NaN` and non-finite
/// propagation are pinned too.
fn gemm_operand(dims: &[usize], specials: bool, rng: &mut StdRng) -> Tensor {
    use rand::Rng;
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|_| match rng.gen_range(0u32..100) {
            0..=24 => 0.0,
            25..=27 => -0.0,
            28..=30 if specials => f32::INFINITY,
            31..=33 if specials => f32::NEG_INFINITY,
            34..=35 if specials => f32::NAN,
            _ => rng.gen_range(-4.0f32..4.0),
        })
        .collect();
    Tensor::from_vec(data, dims)
}

/// Finite test data with exact zeros, for the row-wise (non-GEMM) kernels.
fn finite_operand(dims: &[usize], rng: &mut StdRng) -> Tensor {
    use rand::Rng;
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|_| {
            if rng.gen_bool(0.25) {
                0.0
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Tensor::from_vec(data, dims)
}

/// Bitwise equality of two outputs, where any NaN matches any NaN (NaN
/// payloads are not part of the contract). Unlike `==`, this tells `−0.0`
/// from `+0.0`.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// A contraction depth for a generated case: a third of the cases take
/// `k ≤ 3`, where a chain's first product decides a `±0.0` result.
fn depth(k: usize, pick: u32) -> usize {
    if pick == 0 {
        k % 4
    } else {
        k
    }
}

/// Runs `exec::{bcast_nt, bcast_nt_dx, bcast_nt_da}` at `[bsz, k, l, d]`
/// against the per-batch reference chains they replace, at 1, 2 and 4
/// threads, and names the first mismatch. `bcast_nt` is `a·x[b]ᵀ` per
/// batch, `bcast_nt_dx` is `g[b]ᵀ·a` per batch, and `bcast_nt_da` adds each
/// zeroed per-batch `g[b]·x[b]` into a zeroed `da` in ascending batch
/// order. Outputs start as NaN, so any element an entry point fails to
/// write shows.
fn bcast_mismatch(
    seed: u64,
    (bsz, k, l, d): (usize, usize, usize, usize),
    specials: bool,
) -> Option<String> {
    use focus_tensor::exec;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gemm_operand(&[k, d], specials, &mut rng);
    let x = gemm_operand(&[bsz, l, d], specials, &mut rng);
    let g = gemm_operand(&[bsz, k, l], specials, &mut rng);
    let (a, x, g) = (a.data(), x.data(), g.data());

    let mut scores = vec![0.0f32; bsz * k * l];
    let mut dx = vec![0.0f32; bsz * l * d];
    let mut da = vec![0.0f32; k * d];
    let mut tmp = vec![0.0f32; k * d];
    for bi in 0..bsz {
        let (xb, gb) = (
            &x[bi * l * d..(bi + 1) * l * d],
            &g[bi * k * l..(bi + 1) * k * l],
        );
        reference::gemm_nt(k, d, l, a, xb, &mut scores[bi * k * l..(bi + 1) * k * l]);
        reference::gemm_tn(l, k, d, gb, a, &mut dx[bi * l * d..(bi + 1) * l * d]);
        tmp.fill(0.0);
        reference::gemm(k, l, d, gb, xb, &mut tmp);
        for (o, &t) in da.iter_mut().zip(&tmp) {
            *o += 1.0 * t;
        }
    }

    let shape = format!("[{bsz},{k},{l},{d}]");
    let mut mismatch = None;
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        let mut got = vec![f32::NAN; bsz * k * l];
        exec::bcast_nt(bsz, k, d, l, a, x, &mut got);
        if !same_bits(&got, &scores) {
            mismatch.get_or_insert(format!("bcast_nt {shape} t{threads}"));
        }
        let mut got = vec![f32::NAN; bsz * l * d];
        exec::bcast_nt_dx(g, a, bsz, k, l, d, &mut got);
        if !same_bits(&got, &dx) {
            mismatch.get_or_insert(format!("bcast_nt_dx {shape} t{threads}"));
        }
        let mut got = vec![f32::NAN; k * d];
        exec::bcast_nt_da(g, x, bsz, k, l, d, &mut got);
        if !same_bits(&got, &da) {
            mismatch.get_or_insert(format!("bcast_nt_da {shape} t{threads}"));
        }
    }
    par::set_threads(0);
    mismatch
}

/// The broadcast sweeps at a size that splits batches across threads (the
/// generated shapes above stay below the parallel threshold).
#[test]
fn bcast_family_splits_batches_bitwise() {
    let _guard = lock_threads();
    assert_eq!(bcast_mismatch(0xbca5, (100, 6, 12, 40), true), None);
    assert_eq!(bcast_mismatch(0xbca6, (100, 6, 12, 40), false), None);
}

/// The left operand a tile-rule case feeds the kernels: generated data with
/// exact `±0.0`, `±∞` and NaN, dense values with no zero, or all `±0.0`
/// (against `±∞` or NaN on the right, `0·±∞` and `0·NaN` turn an output NaN
/// as in the reference chain, and elsewhere every chain must end at `+0.0`).
#[derive(Clone, Copy, Debug)]
enum Left {
    Specials,
    Dense,
    Zeros,
}

fn left_operand(len: usize, kind: Left, rng: &mut StdRng) -> Vec<f32> {
    use rand::Rng;
    let dense = |rng: &mut StdRng| -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(0.5f32..4.0) * if rng.gen_bool(0.5) { -1.0 } else { 1.0 }).collect()
    };
    match kind {
        Left::Specials => gemm_operand(&[len], true, rng).into_vec(),
        Left::Dense => dense(rng),
        Left::Zeros => (0..len).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 }).collect(),
    }
}

/// Runs the `exec` GEMM entry the plan VM calls for `opcode` (`gemm` or
/// `bmm`) at `[bt, m, k, n]` against per-batch reference chains, at 1, 2
/// and 4 threads, and names the first mismatch. Outputs start as NaN.
fn gemm_mismatch(opcode: &str, trans: focus_tensor::exec::Trans, (bt, m, k, n): (usize, usize, usize, usize), left: Left) -> Option<String> {
    use focus_tensor::exec::{self, Trans};
    let mut rng = StdRng::seed_from_u64((bt * 1_000_003 + m * 10_007 + k * 101 + n) as u64);
    let a = left_operand(bt * m * k, left, &mut rng);
    let b = gemm_operand(&[bt * k * n], true, &mut rng).into_vec();
    let reference = match trans {
        Trans::Nn => reference::gemm,
        Trans::Nt => reference::gemm_nt,
        Trans::Tn => reference::gemm_tn,
    };
    let mut want = vec![0.0f32; bt * m * n];
    for (bi, c) in want.chunks_exact_mut(m * n).enumerate() {
        reference(m, k, n, &a[bi * m * k..][..m * k], &b[bi * k * n..][..k * n], c);
    }
    let mut mismatch = None;
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        let mut got = vec![f32::NAN; bt * m * n];
        if opcode == "gemm" {
            exec::gemm(trans, m, k, n, &a, &b, &mut got);
        } else {
            exec::bmm(trans, bt, m, k, n, &a, &b, &mut got);
        }
        if !same_bits(&got, &want) {
            mismatch.get_or_insert(format!("{opcode} {trans:?} [{bt},{m},{k},{n}] {left:?} t{threads}"));
        }
    }
    par::set_threads(0);
    mismatch
}

/// Every GEMM-family shape of the FOCUS bench model's train plan (32
/// entities, L = 96, H = 24, p = k = 8, d = 32, m = 6; dims in the plan's
/// dispatch order), and one shape on each side of each tile rule: the
/// 24-lane tile for outputs 17 to 24 wide, the 4-row tile, and the narrow
/// `a·bᵀ` orientation for at most 8 rows; each with every kind of left
/// operand, bit for bit against the reference at 1, 2 and 4 threads.
#[test]
fn plan_shapes_and_tile_rule_edges_bitwise_match_reference() {
    use focus_tensor::exec::Trans::{Nn, Nt, Tn};
    let _guard = lock_threads();
    let plan = [
        ("gemm", Nn, (1, 384, 8, 32)),
        ("gemm", Nn, (1, 256, 8, 32)),
        ("gemm", Nn, (1, 96, 8, 32)),
        ("gemm", Nn, (1, 8, 8, 32)),
        ("gemm", Nn, (1, 192, 64, 32)),
        ("gemm", Nn, (1, 32, 192, 24)),
        ("gemm", Nt, (1, 32, 24, 192)),
        ("gemm", Nt, (1, 192, 32, 64)),
        ("gemm", Nt, (1, 96, 32, 8)),
        ("gemm", Nt, (1, 256, 32, 8)),
        ("gemm", Tn, (1, 192, 32, 24)),
        ("gemm", Tn, (1, 64, 192, 32)),
        ("gemm", Tn, (1, 8, 96, 32)),
        ("gemm", Tn, (1, 8, 8, 32)),
        ("gemm", Tn, (1, 8, 256, 32)),
        ("gemm", Tn, (1, 8, 384, 32)),
        ("bmm", Nn, (32, 8, 12, 8)),
        ("bmm", Nn, (12, 8, 32, 8)),
        ("bmm", Nn, (32, 6, 12, 32)),
        ("bmm", Nt, (32, 6, 32, 12)),
        ("bmm", Nt, (12, 8, 8, 32)),
        ("bmm", Nt, (32, 8, 8, 12)),
        ("bmm", Tn, (32, 12, 6, 32)),
    ];
    let mut cases = plan.to_vec();
    for trans in [Nn, Nt, Tn] {
        // Widths 16 | 17 and 24 | 25 straddle the 24-lane tile; 3 and 9
        // rows run short tiles of it, 4 and 32 full ones.
        for n in [16, 17, 24, 25] {
            for m in [3, 4, 9, 32] {
                cases.push(("gemm", trans, (1, m, 6, n)));
            }
            cases.push(("bmm", trans, (3, 5, 8, n)));
        }
        // Row counts 4 | 6 and 24 | 28 straddle the 4-row tile; 8 | 9 rows
        // and widths 8 | 9 straddle the narrow a·bᵀ orientation.
        for (m, n) in [(4, 33), (6, 33), (24, 33), (28, 33), (8, 9), (9, 9), (8, 8), (6, 12)] {
            cases.push(("bmm", trans, (3, m, 7, n)));
        }
    }
    // Above the parallel threshold at 2 and 4 threads: the narrow a·bᵀ split
    // into row blocks of 6 and 2, and a batched call split by batches.
    cases.push(("gemm", Nt, (1, 8, 64, 600)));
    cases.push(("bmm", Nn, (128, 8, 32, 8)));
    for (opcode, trans, dims) in cases {
        for left in [Left::Specials, Left::Dense, Left::Zeros] {
            assert_eq!(gemm_mismatch(opcode, trans, dims, left), None);
        }
    }
    // The broadcast opcodes' plan shapes, as `[bsz, k, l, d]`:
    // `bcast_nt` [32,8,8,12], [12,8,8,32], [32,6,32,12], [1,8,32,8] and the
    // `bcast_nt_da`/`_dx` shapes at the same `[bsz, k, l, d]`.
    for (i, dims) in [(32, 8, 12, 8), (12, 8, 32, 8), (32, 6, 12, 32), (1, 8, 8, 32)].into_iter().enumerate() {
        assert_eq!(bcast_mismatch(0x9a7e + i as u64, dims, true), None);
        assert_eq!(bcast_mismatch(0x9b7e + i as u64, dims, false), None);
    }
}

/// `0·±∞` and `0·NaN` are NaN and no chain skips a zero term, so each
/// reference chain gives NaN wherever a `±0.0` left entry meets a
/// non-finite right entry, and `+0.0` where every term is a `±0.0`
/// product. The GEMM sweeps in this file hold every tiled and parallel
/// entry point to these chains bit for bit.
#[test]
fn reference_chains_give_nan_for_zero_times_non_finite() {
    for gemm in [reference::gemm, reference::gemm_tn, reference::gemm_nt] {
        for a in [0.0f32, -0.0] {
            for b in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let mut c = [0.0f32];
                gemm(1, 1, 1, &[a], &[b], &mut c);
                assert!(c[0].is_nan(), "{a} · {b} gave {}", c[0]);
            }
        }
    }
    // `[2×3]·[3×2]` and `[3×2]ᵀ·[3×2]` over `Left::Zeros`: the `∞` in
    // column 0 of the right operand turns that column NaN.
    let mut rng = StdRng::seed_from_u64(0);
    let a = left_operand(6, Left::Zeros, &mut rng);
    let b = [1.0, 2.0, f32::INFINITY, -3.0, 0.5, 4.0];
    let want = [f32::NAN, 0.0, f32::NAN, 0.0];
    for gemm in [reference::gemm, reference::gemm_tn] {
        let mut c = [0.0f32; 4];
        gemm(2, 3, 2, &a, &b, &mut c);
        assert!(same_bits(&c, &want), "{c:?}");
    }
}

// Bitwise parity of the tiled + parallel matmul family with the serial
// reference. Shapes deliberately straddle the tile edges: empty and
// single-row cases, dims off every MR/NR multiple, `k` from 0 up past 256,
// and products large enough for the multithreaded path. For each shape the
// product is recomputed under 1, 2 and 4 worker threads and must be
// bit-for-bit equal every time.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_family_bitwise_matches_reference(
        seed in 0u64..1u64 << 48,
        m in 0usize..70,
        k in 0usize..300,
        n in 0usize..70,
        pick in 0u32..3,
        specials in 0u32..2,
    ) {
        let _guard = lock_threads();
        let mut rng = StdRng::seed_from_u64(seed);
        let (k, sp) = (depth(k, pick), specials == 1);
        let a = gemm_operand(&[m, k], sp, &mut rng);
        let b = gemm_operand(&[k, n], sp, &mut rng);
        let bt = gemm_operand(&[n, k], sp, &mut rng);
        let at = gemm_operand(&[k, m], sp, &mut rng);

        let mut c_nn = Tensor::zeros(&[m, n]);
        reference::gemm(m, k, n, a.data(), b.data(), c_nn.data_mut());
        let mut c_nt = Tensor::zeros(&[m, n]);
        reference::gemm_nt(m, k, n, a.data(), bt.data(), c_nt.data_mut());
        let mut c_tn = Tensor::zeros(&[m, n]);
        reference::gemm_tn(m, k, n, at.data(), b.data(), c_tn.data_mut());

        for threads in [1usize, 2, 4] {
            par::set_threads(threads);
            let (nn, nt, tn) = (a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b));
            prop_assert!(same_bits(nn.data(), c_nn.data()), "gemm {}x{}x{} t{}", m, k, n, threads);
            prop_assert!(same_bits(nt.data(), c_nt.data()), "nt {}x{}x{} t{}", m, k, n, threads);
            prop_assert!(same_bits(tn.data(), c_tn.data()), "tn {}x{}x{} t{}", m, k, n, threads);
        }
        par::set_threads(0);
    }

    #[test]
    fn bmm_family_bitwise_matches_reference(
        seed in 0u64..1u64 << 48,
        bt in 1usize..9,
        m in 1usize..40,
        k in 1usize..80,
        n in 1usize..40,
        pick in 0u32..3,
        specials in 0u32..2,
    ) {
        let _guard = lock_threads();
        let mut rng = StdRng::seed_from_u64(seed);
        let (k, sp) = (depth(k, pick), specials == 1);
        let a = gemm_operand(&[bt, m, k], sp, &mut rng);
        let b = gemm_operand(&[bt, k, n], sp, &mut rng);
        let b_t = gemm_operand(&[bt, n, k], sp, &mut rng);
        let a_t = gemm_operand(&[bt, k, m], sp, &mut rng);

        let mut c_nn = Tensor::zeros(&[bt, m, n]);
        let mut c_nt = Tensor::zeros(&[bt, m, n]);
        let mut c_tn = Tensor::zeros(&[bt, m, n]);
        for bi in 0..bt {
            let c = &mut c_nn.data_mut()[bi * m * n..(bi + 1) * m * n];
            reference::gemm(m, k, n, &a.data()[bi * m * k..(bi + 1) * m * k], &b.data()[bi * k * n..(bi + 1) * k * n], c);
            let c = &mut c_nt.data_mut()[bi * m * n..(bi + 1) * m * n];
            reference::gemm_nt(m, k, n, &a.data()[bi * m * k..(bi + 1) * m * k], &b_t.data()[bi * n * k..(bi + 1) * n * k], c);
            let c = &mut c_tn.data_mut()[bi * m * n..(bi + 1) * m * n];
            reference::gemm_tn(m, k, n, &a_t.data()[bi * k * m..(bi + 1) * k * m], &b.data()[bi * k * n..(bi + 1) * k * n], c);
        }

        for threads in [1usize, 2, 4] {
            par::set_threads(threads);
            let (nn, nt, tn) = (a.bmm(&b), a.bmm_nt(&b_t), a_t.bmm_tn(&b));
            prop_assert!(same_bits(nn.data(), c_nn.data()), "bmm {}: {}x{}x{} t{}", bt, m, k, n, threads);
            prop_assert!(same_bits(nt.data(), c_nt.data()), "bmm_nt {}: {}x{}x{} t{}", bt, m, k, n, threads);
            prop_assert!(same_bits(tn.data(), c_tn.data()), "bmm_tn {}: {}x{}x{} t{}", bt, m, k, n, threads);
        }
        par::set_threads(0);
    }

    /// The plan VM's broadcast-score entry points against the per-batch
    /// reference chains they replace, at ragged shapes (see
    /// [`bcast_mismatch`]).
    #[test]
    fn bcast_family_bitwise_matches_reference(
        seed in 0u64..1u64 << 48,
        bsz in 1usize..9,
        k in 1usize..20,
        l in 1usize..40,
        d in 1usize..40,
        pick in 0u32..3,
        specials in 0u32..2,
    ) {
        let _guard = lock_threads();
        let mismatch = bcast_mismatch(seed, (bsz, k, l, depth(d, pick)), specials == 1);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    #[test]
    fn parallel_row_ops_bitwise_match_serial(seed in 0u64..1u64 << 48, rows in 1usize..600, cols in 1usize..48) {
        let _guard = lock_threads();
        let mut rng = StdRng::seed_from_u64(seed);
        let t = finite_operand(&[rows, cols], &mut rng);
        // Serial baselines (thread override 1 forces the inline path).
        par::set_threads(1);
        let sm = t.softmax_last();
        let sl = t.sum_last();
        let ms = t.row_mean_std();
        let mp = t.map(|v| v * 1.5 - 0.25);
        for threads in [2usize, 4] {
            par::set_threads(threads);
            let (sm2, sl2, mp2) = (t.softmax_last(), t.sum_last(), t.map(|v| v * 1.5 - 0.25));
            prop_assert_eq!(sm2.data(), sm.data());
            prop_assert_eq!(sl2.data(), sl.data());
            prop_assert_eq!(t.row_mean_std(), ms.clone());
            prop_assert_eq!(mp2.data(), mp.data());
        }
        par::set_threads(0);
    }
}

/// Row widths for the edge-value tests: on and off softmax's 4-wide steps,
/// LayerNorm's 8 lanes and the 16-column strips of the cross-row sums.
const EDGE_WIDTHS: [usize; 10] = [1, 3, 4, 5, 12, 15, 16, 17, 32, 33];

/// `w` values of one edge kind: random finite values with exact zeros,
/// all `+0.0`, all `−0.0`, negatives with a `−0.0` maximum beside a `+0.0`
/// one, one NaN, all NaN, one `+∞`, one `−∞`, or all `−∞`.
fn edge_values(kind: u32, w: usize, rng: &mut StdRng) -> Vec<f32> {
    use rand::Rng;
    let mut v: Vec<f32> =
        (0..w).map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(-4.0f32..4.0) }).collect();
    let at = rng.gen_range(0..w);
    match kind {
        1 => v.fill(0.0),
        2 => v.fill(-0.0),
        3 => {
            for x in &mut v {
                *x = -1.0 - x.abs();
            }
            v[at] = -0.0;
            if w > 1 {
                v[(at + rng.gen_range(1..w)) % w] = 0.0;
            }
        }
        4 => v[at] = f32::NAN,
        5 => v.fill(f32::NAN),
        6 => v[at] = f32::INFINITY,
        7 => v[at] = f32::NEG_INFINITY,
        8 => v.fill(f32::NEG_INFINITY),
        _ => {}
    }
    v
}

/// `rows` rows of width `w`, each of a random edge kind.
fn edge_rows(rows: usize, w: usize, rng: &mut StdRng) -> Vec<f32> {
    use rand::Rng;
    (0..rows).flat_map(|_| edge_values(rng.gen_range(0..10), w, rng)).collect()
}

/// `[rows, w]` whose columns are each of a random edge kind, plus one
/// column of all `−0.0`, which sums to `+0.0` from a `+0.0` start but to
/// `−0.0` from a start seeded with its first row.
fn edge_columns(rows: usize, w: usize, rng: &mut StdRng) -> Vec<f32> {
    use rand::Rng;
    let mut cols = edge_rows(w, rows, rng);
    cols[rng.gen_range(0..w) * rows..][..rows].fill(-0.0);
    (0..rows * w).map(|i| cols[(i % w) * rows + i / w]).collect()
}

/// Rows that cross every width's parallel threshold: `min_len` elements in
/// all, and a ragged last block.
fn edge_row_count(w: usize, min_len: usize) -> usize {
    min_len / w + 37
}

/// `f` at 1, 2 and 4 threads, each result required bit-equal to `want`.
fn at_each_thread_count(what: &str, want: &[f32], f: impl Fn() -> Vec<f32>) {
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        let got = f();
        let first = got.iter().zip(want).position(|(g, w)| !same_bits(&[*g], &[*w]));
        assert!(got.len() == want.len() && first.is_none(), "{what} t{threads}: first mismatch at {first:?}");
    }
    par::set_threads(0);
}

#[test]
fn map_scale_and_add_scalar_match_serial_loops_on_edge_values() {
    use focus_tensor::exec;
    let _guard = lock_threads();
    let mut rng = StdRng::seed_from_u64(0xed6e);
    let x = edge_rows(40_000 / 17, 17, &mut rng);
    for alpha in [0.176_776_7f32, -1.5, -0.0, f32::INFINITY] {
        let scaled: Vec<f32> = x.iter().map(|&v| v * alpha).collect();
        let shifted: Vec<f32> = x.iter().map(|&v| v + alpha).collect();
        at_each_thread_count(&format!("map_scale {alpha}"), &scaled, || {
            let mut out = vec![f32::NAN; x.len()];
            exec::map_scale(&x, alpha, &mut out);
            out
        });
        at_each_thread_count(&format!("map_add_scalar {alpha}"), &shifted, || {
            let mut out = vec![f32::NAN; x.len()];
            exec::map_add_scalar(&x, alpha, &mut out);
            out
        });
    }
}

#[test]
fn softmax_matches_serial_loop_on_edge_rows() {
    use focus_tensor::{exec, fused};
    let _guard = lock_threads();
    let mut rng = StdRng::seed_from_u64(0x50f7);
    for w in EDGE_WIDTHS {
        let x = edge_rows(edge_row_count(w, 8192), w, &mut rng);
        let mut want = x.clone();
        for row in want.chunks_exact_mut(w) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for v in row.iter_mut() {
                *v = fused::exp(*v - max);
            }
            let inv = 1.0 / row.iter().fold(0.0f32, |s, &v| s + v);
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        at_each_thread_count(&format!("softmax width {w}"), &want, || {
            let mut out = vec![f32::NAN; x.len()];
            exec::softmax_last(&x, w, &mut out);
            out
        });
    }
}

#[test]
fn add_row_broadcast_matches_serial_loop_on_edge_values() {
    use focus_tensor::exec;
    let _guard = lock_threads();
    let mut rng = StdRng::seed_from_u64(0xadd5);
    for w in EDGE_WIDTHS {
        let rows = edge_row_count(w, 40_000);
        let (x, row) = (edge_rows(rows, w, &mut rng), edge_rows(1, w, &mut rng));
        let want: Vec<f32> = x.iter().enumerate().map(|(i, &v)| v + row[i % w]).collect();
        at_each_thread_count(&format!("add_row_broadcast width {w}"), &want, || {
            let mut out = vec![f32::NAN; x.len()];
            exec::add_row_broadcast(&x, &row, w, &mut out);
            out
        });
    }
}

/// Column sums of `[rows, n]` in the serial chain: ascending rows from
/// `+0.0`.
fn serial_column_sums(rows: usize, n: usize, term: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut sums = vec![0.0f32; n];
    for r in 0..rows {
        for (j, s) in sums.iter_mut().enumerate() {
            *s += term(r, j);
        }
    }
    sums
}

#[test]
fn bias_grad_matches_serial_column_sums_on_edge_columns() {
    use focus_tensor::exec;
    let _guard = lock_threads();
    let mut rng = StdRng::seed_from_u64(0xb1a5);
    // The widths, then one wide enough to split its columns across threads
    // (the split aligns to whole strips, leaving a ragged tail strip).
    let shapes = EDGE_WIDTHS.iter().map(|&w| (29, w)).chain([(24, 1400)]);
    for (rows, n) in shapes {
        let g = edge_columns(rows, n, &mut rng);
        let want = serial_column_sums(rows, n, |r, j| g[r * n + j]);
        at_each_thread_count(&format!("bias_grad [{rows}, {n}]"), &want, || {
            let mut out = vec![f32::NAN; n];
            exec::bias_grad(&g, rows, n, &mut out);
            out
        });
    }
}

#[test]
fn layer_norm_param_grads_match_serial_column_sums_on_edge_columns() {
    use focus_tensor::exec;
    let _guard = lock_threads();
    let mut rng = StdRng::seed_from_u64(0x1a7e);
    let shapes = EDGE_WIDTHS.iter().map(|&w| (29, w)).chain([(24, 1400)]);
    for (rows, n) in shapes {
        let (x, g) = (edge_columns(rows, n, &mut rng), edge_columns(rows, n, &mut rng));
        let (gamma, beta) = (edge_rows(1, n, &mut rng), vec![0.0f32; n]);
        let (mut y, mut cache) = (vec![0.0f32; rows * n], vec![0.0f32; 2 * rows]);
        exec::layer_norm_fwd(&x, n, &gamma, &beta, 1e-5, &mut y, &mut cache);
        let xhat = |r: usize, j: usize| (x[r * n + j] - cache[2 * r]) * cache[2 * r + 1];
        let mut want = serial_column_sums(rows, n, |r, j| g[r * n + j] * xhat(r, j));
        want.extend(serial_column_sums(rows, n, |r, j| g[r * n + j]));
        at_each_thread_count(&format!("layer_norm dgamma/dbeta [{rows}, {n}]"), &want, || {
            let (mut dx, mut dgamma, mut dbeta) = (vec![0.0f32; rows * n], vec![f32::NAN; n], vec![f32::NAN; n]);
            exec::layer_norm_bwd(&x, n, &gamma, &cache, &g, &mut dx, &mut dgamma, &mut dbeta);
            dgamma.extend(dbeta);
            dgamma
        });
    }
}
