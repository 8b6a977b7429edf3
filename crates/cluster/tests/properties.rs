//! Property-based tests for the clustering engine's invariants.

use focus_cluster::{fit_passes, segment_matrix, ClusterConfig, Objective, ProtoUpdate, Prototypes};
use focus_tensor::{par, reference, stats, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn segments(n: usize, p: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-5.0f32..5.0, n * p).prop_map(move |v| Tensor::from_vec(v, &[n, p]))
}

/// Rows that may be exactly constant (magnitudes up to 1e8, where `sxx` is
/// still exactly 0), near-constant (tiny noise on a base — at large
/// bases the noise vanishes below the f32 ulp, at small bases it survives),
/// or ordinary random rows. Exercises the zero-variance guard on both sides.
fn mixed_rows(n: usize, p: usize) -> impl Strategy<Value = Tensor> {
    let row = prop_oneof![
        (-1.0e8f32..1.0e8).prop_map(move |v| vec![v; p]),
        ((-1.0e4f32..1.0e4), prop::collection::vec(-1.0e-6f32..1.0e-6, p))
            .prop_map(|(base, noise)| noise.iter().map(|&e| base + e).collect()),
        prop::collection::vec(-5.0f32..5.0, p),
    ];
    prop::collection::vec(row, n).prop_map(move |rows| Tensor::from_vec(rows.concat(), &[n, p]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn assignment_is_nearest_under_objective(segs in segments(24, 6), alpha in 0.0f32..1.0) {
        let objective = if alpha < 0.05 { Objective::RecOnly } else { Objective::rec_corr(alpha) };
        let protos = ClusterConfig::new(4, 6)
            .with_objective(objective)
            .with_max_iters(8)
            .fit(&segs, 1);
        for i in 0..24 {
            let seg = segs.row(i);
            let assigned = protos.assign(seg);
            let d_assigned = objective.distance(seg, protos.centers().row(assigned));
            for j in 0..4 {
                let d = objective.distance(seg, protos.centers().row(j));
                prop_assert!(
                    d_assigned <= d + 1e-4,
                    "segment {i}: assigned bucket {assigned} at {d_assigned} but bucket {j} at {d}"
                );
            }
        }
    }

    #[test]
    fn prototypes_are_finite_and_shaped(segs in segments(16, 8)) {
        let protos = ClusterConfig::new(3, 8).with_max_iters(6).fit(&segs, 2);
        prop_assert_eq!(protos.centers().dims(), &[3, 8]);
        prop_assert!(protos.centers().all_finite());
    }

    #[test]
    fn every_bucket_is_used_when_data_has_spread(shift in 1.0f32..5.0) {
        // Three well-separated constant levels: every prototype must attract
        // at least one segment (the empty-bucket reseeding invariant).
        let mut data = Vec::new();
        for c in 0..3 {
            for _ in 0..10 {
                data.extend(std::iter::repeat_n(c as f32 * shift, 4));
            }
        }
        let segs = Tensor::from_vec(data, &[30, 4]);
        let protos = ClusterConfig::new(3, 4)
            .with_objective(Objective::RecOnly)
            .with_update(ProtoUpdate::ClosedFormMean)
            .with_max_iters(10)
            .fit(&segs, 3);
        let mut used = [false; 3];
        for a in protos.assign_all(&segs) {
            used[a] = true;
        }
        prop_assert!(used.iter().all(|&u| u), "unused bucket: {used:?}");
    }

    #[test]
    fn persistence_round_trip(segs in segments(12, 5)) {
        let protos = ClusterConfig::new(2, 5).with_max_iters(4).fit(&segs, 4);
        let restored = focus_cluster::Prototypes::from_text(&protos.to_text()).unwrap();
        prop_assert_eq!(protos.centers().data(), restored.centers().data());
        // Assignments must be identical after the round trip.
        for i in 0..12 {
            prop_assert_eq!(protos.assign(segs.row(i)), restored.assign(segs.row(i)));
        }
    }

    #[test]
    fn segment_matrix_row_count(entities in 1usize..5, t in 8usize..40, p in 2usize..8) {
        let series = Tensor::zeros(&[entities, t]);
        let segs = segment_matrix(&series, p);
        prop_assert_eq!(segs.dims(), &[entities * (t / p), p]);
    }

    #[test]
    fn assign_all_and_fit_bitwise_match_serial(segs in segments(900, 6), seed in 0u64..1 << 32) {
        // Parallel assignment sweeps must be indistinguishable from serial:
        // same bucket per segment from `assign_all`, and — because the fit
        // loop's assignment step and the k-means++ init also run on the pool
        // — bit-for-bit identical fitted prototypes at every thread count.
        // (900 segments is past the sweep's parallel grain, so threads > 1
        // genuinely engage.)
        let cfg = ClusterConfig::new(5, 6).with_max_iters(4);
        // Serialise the process-global thread override against other tests.
        let _g = focus_tensor::par::threads_guard();
        focus_tensor::par::set_threads(1);
        let protos_serial = cfg.fit(&segs, seed);
        let serial: Vec<usize> = (0..segs.dims()[0]).map(|i| protos_serial.assign(segs.row(i))).collect();
        for threads in [2usize, 4] {
            focus_tensor::par::set_threads(threads);
            let protos = cfg.fit(&segs, seed);
            prop_assert_eq!(
                protos.centers().data(), protos_serial.centers().data(),
                "fit diverged at {} threads", threads
            );
            prop_assert_eq!(&protos_serial.assign_all(&segs), &serial, "assign_all diverged at {} threads", threads);
        }
        focus_tensor::par::set_threads(0);
    }

    #[test]
    fn gemm_distances_match_scalar_oracle(
        segs in segments(37, 9),
        centers in segments(5, 9),
        alpha in 0.0f32..1.0,
    ) {
        // The batched two-GEMM distance kernel (‖x‖² − 2x·c + ‖c‖² plus the
        // normalised-dot correlation term) must agree with the scalar
        // per-pair oracle to f32 roundoff, and pick the same argmin whenever
        // the scalar best/second-best margin exceeds that roundoff.
        let objective = if alpha < 0.05 { Objective::RecOnly } else { Objective::rec_corr(alpha) };
        let protos = Prototypes::from_centers(centers, objective);
        let d = protos.distances(&segs);
        let assigned = protos.assign_all(&segs);
        for (i, &assigned_i) in assigned.iter().enumerate() {
            let mut scalar = [0.0f32; 5];
            for (j, s) in scalar.iter_mut().enumerate() {
                *s = objective.distance(segs.row(i), protos.centers().row(j));
            }
            let mut tol_max = 0.0f32;
            for (j, &s) in scalar.iter().enumerate() {
                let tol = 1e-4 * s.abs().max(1.0);
                tol_max = tol_max.max(tol);
                prop_assert!(
                    (d.at2(i, j) - s).abs() <= tol,
                    "d[{i},{j}] gemm {} vs scalar {s}", d.at2(i, j)
                );
            }
            let best = (0..5).min_by(|&a, &b| scalar[a].partial_cmp(&scalar[b]).unwrap()).unwrap();
            let runner_up = (0..5)
                .filter(|&j| j != best)
                .map(|j| scalar[j] - scalar[best])
                .fold(f32::INFINITY, f32::min);
            if runner_up > 2.0 * tol_max {
                prop_assert_eq!(
                    assigned_i, best,
                    "row {} (margin {}): gemm argmin diverged from scalar", i, runner_up
                );
            }
        }
    }

    #[test]
    fn gemm_and_scalar_sweeps_agree_on_separated_data(shift in 2.0f32..6.0, seed in 0u64..1 << 16) {
        // On data with real cluster structure (no engineered near-ties) the
        // GEMM sweep and the scalar oracle sweep must assign identically.
        let mut data = Vec::new();
        for c in 0..4 {
            for s in 0..24 {
                for t in 0..8 {
                    let wobble = ((seed as f32 + (s * 8 + t) as f32) * 0.37).sin() * 0.3;
                    data.push(c as f32 * shift + wobble);
                }
            }
        }
        let segs = Tensor::from_vec(data, &[96, 8]);
        let protos = ClusterConfig::new(4, 8).with_max_iters(6).fit(&segs, seed);
        prop_assert_eq!(protos.assign_all(&segs), protos.assign_all_scalar(&segs));
    }

    #[test]
    fn constant_and_near_constant_rows_assign_consistently(
        segs in mixed_rows(40, 8),
        centers in mixed_rows(6, 8),
        alpha in 0.0f32..1.0,
    ) {
        // Constant (zero-variance) rows at magnitudes up to 1e8 and
        // near-constant rows must normalise to a zero or genuine unit row,
        // never a division by a zero norm. Every distance must be
        // finite and agree with the scalar oracle to f32 roundoff of the
        // *cancelled* terms (‖x‖² and ‖c‖², not the small result), and the
        // two sweeps must assign identically wherever the scalar margin
        // exceeds that roundoff.
        let objective = if alpha < 0.05 { Objective::RecOnly } else { Objective::rec_corr(alpha) };
        let protos = Prototypes::from_centers(centers, objective);
        let d = protos.distances(&segs);
        let assigned = protos.assign_all(&segs);
        let scalar_assigned = protos.assign_all_scalar(&segs);
        let sq = |row: &[f32]| row.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        for i in 0..40 {
            let x2 = sq(segs.row(i));
            let mut scalar = [0.0f32; 6];
            let mut tol_max = 0.0f32;
            for (j, s) in scalar.iter_mut().enumerate() {
                *s = objective.distance(segs.row(i), protos.centers().row(j));
                prop_assert!(s.is_finite(), "scalar d[{}, {}] not finite: {}", i, j, s);
                let g = d.at2(i, j);
                prop_assert!(g.is_finite(), "gemm d[{}, {}] not finite: {}", i, j, g);
                let tol = 1e-4 * ((x2 + sq(protos.centers().row(j))) as f32).max(1.0);
                prop_assert!(
                    (g - *s).abs() <= tol,
                    "d[{}, {}]: gemm {} vs scalar {} (tol {})", i, j, g, s, tol
                );
                tol_max = tol_max.max(tol);
            }
            let best = (0..6).min_by(|&a, &b| scalar[a].partial_cmp(&scalar[b]).expect("finite")).expect("non-empty");
            let margin = (0..6)
                .filter(|&j| j != best)
                .map(|j| scalar[j] - scalar[best])
                .fold(f32::INFINITY, f32::min);
            if margin > 2.0 * tol_max {
                prop_assert_eq!(assigned[i], best, "row {} (margin {}): gemm argmin diverged", i, margin);
                prop_assert_eq!(scalar_assigned[i], best, "row {} (margin {}): scalar argmin diverged", i, margin);
            }
        }
    }

    #[test]
    fn duplicate_prototypes_tie_break_to_lowest_index(segs in segments(20, 6)) {
        // Bit-identical distance columns (duplicated centers) must resolve to
        // the lowest index on both the GEMM and the scalar path.
        let proto_row: Vec<f32> = segs.row(0).to_vec();
        let mut stacked = Vec::new();
        for _ in 0..3 {
            stacked.extend_from_slice(&proto_row);
        }
        let protos = Prototypes::from_centers(Tensor::from_vec(stacked, &[3, 6]), Objective::rec_corr(0.2));
        let gemm = protos.assign_all(&segs);
        let scalar = protos.assign_all_scalar(&segs);
        prop_assert!(gemm.iter().all(|&j| j == 0), "gemm path broke the tie upward: {gemm:?}");
        prop_assert_eq!(gemm, scalar);
    }
}

/// `n` rows of width `p` cycling through the shapes the sweep must keep
/// bit-exact: flat rows, flat and varying rows at 1e8 magnitude, rows of
/// `±0.0`, and ordinary random rows.
fn contract_rows(n: usize, p: usize, rng: &mut StdRng) -> Tensor {
    let start = rng.gen_range(0..6usize);
    let mut data = Vec::with_capacity(n * p);
    for i in 0..n {
        let level = rng.gen_range(-3.0f32..3.0);
        data.extend((0..p).map(|t| match (start + i) % 6 {
            0 => level,
            1 => 1.0e8 * level,
            2 => 1.0e8 * rng.gen_range(-1.0f32..1.0),
            3 => [0.0, -0.0][(t + i) % 2],
            _ => rng.gen_range(-5.0f32..5.0),
        }));
    }
    Tensor::from_vec(data, &[n, p])
}

/// The centred-normalised rows `(x − mean) / ‖x − mean‖` of `m`, f64
/// statistics rounded once, all-zero where `stats::zero_variance` calls the
/// row flat.
fn unit_rows(m: &Tensor) -> Vec<f32> {
    let p = m.dims()[1];
    let mut out = Vec::with_capacity(m.numel());
    for i in 0..m.dims()[0] {
        let row = m.row(i);
        let mean = row.iter().map(|&x| x as f64).sum::<f64>() / p as f64;
        let (mut sxx, mut max_abs) = (0.0f64, 0.0f64);
        for &x in row {
            let d = x as f64 - mean;
            sxx += d * d;
            max_abs = max_abs.max((x as f64).abs());
        }
        if stats::zero_variance(sxx, p, max_abs) {
            out.extend(std::iter::repeat_n(0.0, p));
        } else {
            let inv = 1.0 / sxx.sqrt();
            out.extend(row.iter().map(|&x| ((x as f64 - mean) * inv) as f32));
        }
    }
    out
}

/// Eq. 6 the unfused way, as `[n, k]`: `reference::gemm_nt` chains for
/// `X·Cᵀ` and `X̂·Ĉᵀ`, then `max(‖x‖² − 2·x·c + ‖c‖², 0) + α·(1 − clamp(x̂·ĉ,
/// −1, 1))` per element, the norms f64-accumulated and rounded once.
fn reference_distances(segs: &Tensor, centers: &Tensor, alpha: f32) -> Vec<f32> {
    let (n, p, k) = (segs.dims()[0], segs.dims()[1], centers.dims()[0]);
    let sq = |row: &[f32]| row.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() as f32;
    let mut dots = vec![0.0f32; n * k];
    reference::gemm_nt(n, p, k, segs.data(), centers.data(), &mut dots);
    let mut unit_dots = vec![0.0f32; n * k];
    if alpha > 0.0 {
        reference::gemm_nt(n, p, k, &unit_rows(segs), &unit_rows(centers), &mut unit_dots);
    }
    let mut d = vec![0.0f32; n * k];
    for i in 0..n {
        for j in 0..k {
            let rec = (sq(segs.row(i)) - 2.0 * dots[i * k + j] + sq(centers.row(j))).max(0.0);
            let corr = alpha * (1.0 - unit_dots[i * k + j].clamp(-1.0, 1.0));
            d[i * k + j] = if alpha > 0.0 { rec + corr } else { rec };
        }
    }
    d
}

/// The fit's k-means++ seeding recomputed on reference distances: the
/// engine's RNG stream, a first uniform pick, then each pick weighted by
/// the running minimum distance (uniform once every distance is ~0).
fn reference_kmeans_pp(segs: &Tensor, k: usize, alpha: f32, seed: u64) -> Vec<f32> {
    let n = segs.dims()[0];
    let p = segs.dims()[1];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a5_7e12u64.rotate_left(3));
    let mut pick = rng.gen_range(0..n);
    let mut centers = Vec::with_capacity(k * p);
    let mut dists = vec![f32::INFINITY; n];
    for j in 0..k {
        centers.extend_from_slice(segs.row(pick));
        let center = Tensor::from_vec(segs.row(pick).to_vec(), &[1, p]);
        for (d, &nd) in dists.iter_mut().zip(&reference_distances(segs, &center, alpha)) {
            if nd < *d {
                *d = nd;
            }
        }
        if j + 1 == k {
            break;
        }
        let total: f64 = dists.iter().map(|&d| d.max(0.0) as f64).sum();
        pick = if total <= f64::EPSILON {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d.max(0.0) as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
    }
    centers
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn fused_sweep_matches_reference_gemm_chains_bitwise() {
    // The fused kernel computes each dot as the reference `a·bᵀ` chain and
    // applies the Eq. 6 epilogue in registers, so `distances`,
    // `assign_all` and the fit's k-means++ sweeps must reproduce the
    // unfused route bit for bit, on every panel edge and at every thread
    // count.
    let _g = par::threads_guard();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for n in [1usize, 15, 16, 17, 4800] {
        for k in [1usize, 8, 9, 64] {
            // 12: a length whose mean is not a power-of-two scaling.
            for p in [1usize, 8, 12, 32] {
                let segs = contract_rows(n, p, &mut rng);
                let centers = contract_rows(k, p, &mut rng);
                for alpha in [0.0f32, 0.2] {
                    let objective = if alpha > 0.0 { Objective::rec_corr(alpha) } else { Objective::RecOnly };
                    let case = format!("n {n}, k {k}, p {p}, α {alpha}");
                    let want = reference_distances(&segs, &centers, alpha);
                    let nearest: Vec<usize> = want
                        .chunks_exact(k)
                        .map(|row| (0..k).fold(0, |b, j| if row[j] < row[b] { j } else { b }))
                        .collect();
                    let seeds = (n >= k).then(|| reference_kmeans_pp(&segs, k, alpha, 3));
                    let protos = Prototypes::from_centers(centers.clone(), objective);
                    for threads in [1usize, 2, 4] {
                        par::set_threads(threads);
                        let got = protos.distances(&segs);
                        assert_eq!(bits(got.data()), bits(&want), "distances, {case}, {threads} threads");
                        assert_eq!(protos.assign_all(&segs), nearest, "assign_all, {case}, {threads} threads");
                        if let Some(seeds) = &seeds {
                            let cfg = ClusterConfig::new(k, p).with_objective(objective).with_max_iters(0);
                            let fitted = cfg.fit(&segs, 3);
                            assert_eq!(bits(fitted.centers().data()), bits(seeds), "k-means++, {case}, {threads} threads");
                        }
                    }
                }
            }
        }
    }
    par::set_threads(0);
}

/// The update step's bucket pass as one row-by-row loop in ascending `i`:
/// per member, its count, then each column of its row added into the f64
/// sums, then each column of its unit row into `U`.
fn reference_bucket_sums(
    segs: &Tensor,
    unit_rows: &[f32],
    assignment: &[usize],
    k: usize,
) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
    let p = segs.dims()[1];
    let mut counts = vec![0usize; k];
    let mut sums = vec![0.0f64; k * p];
    let mut unit_sums = vec![0.0f64; if unit_rows.is_empty() { 0 } else { k * p }];
    for (i, &a) in assignment.iter().enumerate() {
        counts[a] += 1;
        for t in 0..p {
            sums[a * p + t] += segs.row(i)[t] as f64;
            if !unit_rows.is_empty() {
                unit_sums[a * p + t] += unit_rows[i * p + t] as f64;
            }
        }
    }
    (counts, sums, unit_sums)
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn bucket_pass_matches_serial_order_bitwise() {
    // The pass adds every row straight into its bucket's sums, a
    // fixed-width column group at a time, and takes the counts from the pass
    // that copies the assignment; every f64 sum must still be the
    // ascending-`i` chain. Values span 1e8 to 1e-3, so a sum taken in
    // another order rounds differently; runs are long (40), short and
    // singleton, or the bucket changes at every row; for k ≥ 3 the last
    // bucket stays empty and a singleton bucket holds a row of −0.0, whose
    // sum is +0.0 only when it starts from +0.0. Twelve cases draw k from
    // 3..9, then k = 1, 2 and 64 run the same way, then k = 2 and 64 change
    // bucket at every row.
    let mut rng = StdRng::seed_from_u64(0xb0c7);
    for p in [1usize, 3, 5, 8, 12, 16, 17] {
        for case in 0..17 {
            let (k, every_row) = match case {
                0..12 => (rng.gen_range(3..9usize), false),
                12 => (1, false),
                13 => (2, false),
                14 => (64, false),
                15 => (2, true),
                _ => (64, true),
            };
            let runs = if k >= 3 { k - 2 } else { k };
            let mut assignment: Vec<usize> = Vec::new();
            while assignment.len() < 200 {
                if every_row {
                    // Any bucket but the previous row's.
                    let prev = assignment.last().copied().unwrap_or(0);
                    assignment.push((prev + rng.gen_range(1..runs)) % runs);
                    continue;
                }
                let len = [1, 1, 2, 3, 40][rng.gen_range(0..5usize)];
                let bucket = rng.gen_range(0..runs);
                assignment.extend(std::iter::repeat_n(bucket, len));
            }
            let zero_row = rng.gen_range(0..assignment.len());
            if k >= 3 {
                assignment[zero_row] = k - 2;
            }
            if every_row {
                assert!(assignment.windows(2).all(|w| w[0] != w[1]), "k {k}: a bucket repeats");
            }
            let n = assignment.len();
            let data: Vec<f32> = (0..n * p)
                .map(|v| match v / p {
                    i if i == zero_row => -0.0,
                    _ => rng.gen_range(-1.0f32..1.0) * [1.0e8, 1.0, 1.0e-3][rng.gen_range(0..3usize)],
                })
                .collect();
            let segs = Tensor::from_vec(data, &[n, p]);
            let unit: Vec<f32> = (0..n * p).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            for unit_rows in [&unit[..], &[]] {
                let case = format!("p {p}, case {case}, k {k}, unit rows {}", !unit_rows.is_empty());
                let (counts, sums, unit_sums) = fit_passes::bucket_sums(&segs, unit_rows, &assignment, k);
                let (want_counts, want_sums, want_unit) = reference_bucket_sums(&segs, unit_rows, &assignment, k);
                assert_eq!(counts, want_counts, "counts, {case}");
                assert_eq!(bits64(&sums), bits64(&want_sums), "sums, {case}");
                assert_eq!(bits64(&unit_sums), bits64(&want_unit), "unit sums, {case}");
                if k >= 3 {
                    assert_eq!(counts[k - 1], 0, "the last bucket stays empty, {case}");
                    let zero_sum = &sums[(k - 2) * p..(k - 1) * p];
                    assert!(zero_sum.iter().all(|s| s.to_bits() == 0), "−0.0 row sums to +0.0, {case}");
                }
            }
        }
    }
}

/// `n` rows of width `p`, each a copy of one of `distinct` random rows, so
/// k-means++ runs out of spread and picks duplicate centers, whose exact
/// ties must break to the lower index.
fn repeated_rows(n: usize, p: usize, distinct: usize, rng: &mut StdRng) -> Tensor {
    let pool: Vec<Vec<f32>> = (0..distinct).map(|_| (0..p).map(|_| rng.gen_range(-3.0f32..3.0)).collect()).collect();
    let rows: Vec<f32> = (0..n).flat_map(|_| pool[rng.gen_range(0..distinct)].clone()).collect();
    Tensor::from_vec(rows, &[n, p])
}

#[test]
fn kmeans_pp_hand_off_matches_a_fresh_assignment_bitwise() {
    // Iteration 0 of a fit takes k-means++'s running (nearest pick,
    // distance) instead of sweeping: it must equal a fresh assignment on
    // the seeded centers, bit for bit, at every thread count. 4 800 rows at
    // p = 32 and 9 000 at p = 8 pass the sweeps' parallel grain.
    let _g = par::threads_guard();
    let mut rng = StdRng::seed_from_u64(0x4a4d);
    for (n, p, k) in [(37usize, 6usize, 5usize), (4800, 32, 8), (9000, 8, 8)] {
        for distinct in [3usize, n] {
            let segs = if distinct < n { repeated_rows(n, p, distinct, &mut rng) } else { contract_rows(n, p, &mut rng) };
            for alpha in [0.0f32, 0.2] {
                let objective = if alpha > 0.0 { Objective::rec_corr(alpha) } else { Objective::RecOnly };
                let cfg = ClusterConfig::new(k, p).with_objective(objective).with_max_iters(1);
                for threads in [1usize, 2, 4] {
                    par::set_threads(threads);
                    let case = format!("n {n}, p {p}, {distinct} distinct rows, α {alpha}, {threads} threads");
                    let (centers, hand_off) = fit_passes::kmeans_pp(&cfg, &segs, 9);
                    let protos = Prototypes::from_centers(centers, objective);
                    let nearest = protos.assign_all(&segs);
                    let d = protos.distances(&segs);
                    for (i, (&(j, dist), &want)) in hand_off.iter().zip(&nearest).enumerate() {
                        assert_eq!(j, want, "segment {i}'s nearest pick, {case}");
                        assert_eq!(dist.to_bits(), d.at2(i, want).to_bits(), "segment {i}'s distance, {case}");
                    }
                    // The fit's first loss is the mean of the handed-off distances.
                    let (_, trace) = cfg.fit_traced(&segs, 9);
                    let total: f64 = hand_off.iter().map(|&(_, d)| d as f64).sum();
                    assert_eq!(trace.loss_per_iter[0].to_bits(), (total / n as f64).to_bits(), "first loss, {case}");
                }
            }
        }
    }
    par::set_threads(0);
}

#[test]
fn untraced_fits_match_fit_traced_bitwise() {
    // `try_fit` and `fit` skip the loss fold that only `fit_traced` runs;
    // their prototypes must be `fit_traced`'s, bit for bit, at every thread
    // count. 4 800 rows pass the sweeps' parallel grain. With 3 distinct
    // rows and k = 5, k-means++ seeds duplicate centers whose buckets stay
    // empty (ties break to the lower index), so every iteration reseeds.
    let _g = par::threads_guard();
    let mut rng = StdRng::seed_from_u64(0x7ace);
    for (n, p, k, distinct) in [(4800usize, 8usize, 8usize, 4800usize), (200, 6, 5, 3)] {
        let segs = repeated_rows(n, p, distinct, &mut rng);
        for update in [ProtoUpdate::paper_default(), ProtoUpdate::ClosedFormMean] {
            let cfg = ClusterConfig::new(k, p).with_update(update).with_max_iters(6);
            for threads in [1usize, 2, 4] {
                par::set_threads(threads);
                let case = format!("n {n}, {distinct} distinct rows, {update:?}, {threads} threads");
                let want = bits(cfg.fit_traced(&segs, 5).0.centers().data());
                assert_eq!(bits(cfg.fit(&segs, 5).centers().data()), want, "fit, {case}");
                let tried = cfg.try_fit(&segs, 5).expect("finite segments");
                assert_eq!(bits(tried.centers().data()), want, "try_fit, {case}");
            }
        }
    }
    par::set_threads(0);
}

/// Parses `text` as a prototype dump: it must yield `Ok` or a format error
/// naming its line, and never panic.
fn parse_never_panics(text: &str) -> Result<(), String> {
    match std::panic::catch_unwind(|| Prototypes::from_text(text)) {
        Err(_) => Err(format!("from_text panicked on {text:?}")),
        Ok(Err(e)) if !e.to_string().starts_with("format error: line ") => {
            Err(format!("unpositioned error {e} for {text:?}"))
        }
        Ok(_) => Ok(()),
    }
}

/// Tokens a corrupted prototype file plausibly carries.
const NASTY: [&str; 16] = [
    "0", "1", "-1", "4294967296", "18446744073709551615", "99999999999999999999", "NaN",
    "inf", "-inf", "1e39", "k", "p", "rec", "reccorr", "alpha", "\u{e9}",
];

fn mutate(text: &str, rng: &mut rand::rngs::StdRng) -> String {
    use rand::Rng;
    let mut lines: Vec<Vec<&str>> = text.lines().map(|l| l.split_whitespace().collect()).collect();
    if lines.is_empty() {
        return text.to_string();
    }
    match rng.gen_range(0..4u32) {
        0 => {
            let mut cut = rng.gen_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_string();
        }
        1 | 2 => {
            let li = rng.gen_range(0..lines.len());
            if !lines[li].is_empty() {
                let ti = rng.gen_range(0..lines[li].len());
                lines[li][ti] = NASTY[rng.gen_range(0..NASTY.len())];
            }
        }
        _ => {
            let li = rng.gen_range(0..lines.len());
            if rng.gen_range(0..2u32) == 0 {
                lines.remove(li);
            } else {
                lines.insert(li, lines[li].clone());
            }
        }
    }
    lines.iter().map(|l| l.join(" ") + "\n").collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fuzzed_prototype_text_never_panics(seed in 0u64..u64::MAX, alpha in 0.0f32..1.0) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let centers: Vec<f32> = (0..3 * 5).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        let objective = if alpha < 0.3 { Objective::RecOnly } else { Objective::rec_corr(alpha) };
        let real =
            Prototypes::from_centers(Tensor::from_vec(centers, &[3, 5]), objective).to_text();
        prop_assert!(parse_never_panics(&real).is_ok());
        let bytes: Vec<u8> =
            (0..rng.gen_range(0..64usize)).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let noise = String::from_utf8_lossy(&bytes).into_owned();
        let header_noise = format!("focus-prototypes v1\n{noise}");
        let mut mutated = mutate(&real, &mut rng);
        if rng.gen_range(0..4u32) == 0 {
            mutated = mutate(&mutated, &mut rng);
        }
        for text in [noise, header_noise, mutated] {
            if let Err(e) = parse_never_panics(&text) {
                prop_assert!(false, "{e}");
            }
        }
    }
}
