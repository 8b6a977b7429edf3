//! Kernel sweeps: each hot kernel's naive path against its fast replacement,
//! the fast path at 1/2/4/max worker threads (see
//! [`focus_bench::measure::Sweep`]):
//!
//! * the serial reference GEMMs against the register-tiled ones
//!   (`a·b`, `a·bᵀ`, `aᵀ·b` at 256³), outputs bitwise equal;
//! * every GEMM-shaped plan opcode at the FOCUS bench model's shapes
//!   (p = 8, k = 6–8 prototypes, l = 12 segments, d = 32, 32 entities) plus
//!   the offline-cluster assignment GEMM: the reference kernel per batch, in
//!   each opcode's exact chain, against the `focus_tensor::exec` entry point
//!   the plan VM calls, outputs bitwise equal;
//! * the scalar per-pair `assign_all_scalar` against the blocked two-GEMM
//!   `assign_all`, under Rec Only and Rec+Corr, assignments equal;
//! * one-hot routing: the dense `[B,l,k]·[B,k,d]` bmm against the
//!   `route_gather` index kernel, and the dense `bmm_tn` backward against
//!   `route_scatter_add`, outputs bitwise equal.
//!
//! The run rewrites `BENCH_kernels.json` at the repository root, then fails
//! if any fast path disagreed with its naive path. Thread counts beyond the
//! host's cores cannot speed anything up, so the report records the core
//! count next to the sweeps.

use focus_bench::measure::{write_report, Sweep};
use focus_cluster::{ClusterConfig, Objective, ProtoUpdate};
use focus_tensor::exec::{self, Trans};
use focus_tensor::{par, reference, route, Tensor};
use focus_trace::report::RunReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timed calls per series, after one warm-up call.
const SAMPLES: usize = 11;

/// A raw reference GEMM: `(m, k, n, a, b, c)`, accumulating into `c`.
type RawGemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// Calls per timed sample of a FOCUS-shape sweep: one call takes
/// microseconds, so a sample times this many back to back.
const REPS: usize = 20;

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && bits_eq(a.data(), b.data())
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The serial reference GEMMs against the tiled ones at 256³.
fn gemm_sweeps() -> [Sweep; 3] {
    let n = 256;
    let mut rng = StdRng::seed_from_u64(0x6e3a);
    let a = Tensor::randn(&[n, n], 1.0, &mut rng);
    let b = Tensor::randn(&[n, n], 1.0, &mut rng);
    let bt = Tensor::randn(&[n, n], 1.0, &mut rng);
    let at = Tensor::randn(&[n, n], 1.0, &mut rng);
    // The reference kernels accumulate, so each call starts from zeros.
    let naive = |gemm: RawGemm, x: &Tensor, y: &Tensor| {
        let mut c = Tensor::zeros(&[n, n]);
        gemm(n, n, n, x.data(), y.data(), c.data_mut());
        c
    };
    [
        Sweep::run("gemm_256", SAMPLES, || naive(reference::gemm, &a, &b), || a.matmul(&b), same_bits),
        Sweep::run(
            "gemm_nt_256",
            SAMPLES,
            || naive(reference::gemm_nt, &a, &bt),
            || a.matmul_nt(&bt),
            same_bits,
        ),
        Sweep::run(
            "gemm_tn_256",
            SAMPLES,
            || naive(reference::gemm_tn, &at, &b),
            || at.matmul_tn(&b),
            same_bits,
        ),
    ]
}

/// One GEMM-shaped opcode: `naive` (reference kernels, accumulating into a
/// zeroed output) against `fast` (the `exec` entry point, written through),
/// each sample [`REPS`] calls. Both outputs are allocated once; each fast
/// sample starts from NaN, so an element the kernel fails to write cannot
/// match.
fn opcode_sweep(
    label: &'static str,
    out_len: usize,
    mut naive: impl FnMut(&mut [f32]),
    fast: impl Fn(&mut [f32]),
) -> Sweep {
    let (mut want, mut out) = (vec![0.0f32; out_len], vec![0.0f32; out_len]);
    Sweep::run(
        label,
        SAMPLES,
        || {
            for _ in 0..REPS {
                want.fill(0.0);
                naive(&mut want);
            }
            want.clone()
        },
        || {
            out.fill(f32::NAN);
            for _ in 0..REPS {
                fast(&mut out);
            }
            out.clone()
        },
        |x, y| bits_eq(x, y),
    )
}

/// The per-batch reference chain of one batched opcode: `gemm` on batch
/// `bi`'s operands (`a` and `b` advance by `a_step` and `b_step` floats,
/// 0 for a broadcast operand) into batch `bi`'s `[m × n]` output block.
fn per_batch(
    gemm: RawGemm,
    bt: usize,
    (m, k, n): (usize, usize, usize),
    (a, a_step): (&[f32], usize),
    (b, b_step): (&[f32], usize),
    c: &mut [f32],
) {
    for (bi, c_one) in c.chunks_exact_mut(m * n).enumerate().take(bt) {
        gemm(m, k, n, &a[bi * a_step..][..m * k], &b[bi * b_step..][..k * n], c_one);
    }
}

/// Every GEMM-shaped plan opcode at the bench model's shapes, plus the
/// offline-cluster assignment GEMM (`[4800, 8] · [8, 8]ᵀ`).
fn opcode_sweeps() -> Vec<Sweep> {
    let mut rng = StdRng::seed_from_u64(0xf0c5);
    let mut v = |n: usize| Tensor::randn(&[n], 1.0, &mut rng).into_vec();
    let reference_of = |trans| -> RawGemm {
        match trans {
            Trans::Nn => reference::gemm,
            Trans::Nt => reference::gemm_nt,
            Trans::Tn => reference::gemm_tn,
        }
    };
    let gemm = |label, trans, (m, k, n): (usize, usize, usize), a: Vec<f32>, b: Vec<f32>| {
        let naive = reference_of(trans);
        opcode_sweep(label, m * n, |c| naive(m, k, n, &a, &b, c), |c| exec::gemm(trans, m, k, n, &a, &b, c))
    };
    let bmm = |label, trans, (bt, m, k, n): (usize, usize, usize, usize), a: Vec<f32>, b: Vec<f32>| {
        let naive = reference_of(trans);
        opcode_sweep(
            label,
            bt * m * n,
            |c| per_batch(naive, bt, (m, k, n), (&a, m * k), (&b, k * n), c),
            |c| exec::bmm(trans, bt, m, k, n, &a, &b, c),
        )
    };
    // [bsz, k, l, d] = 32 entities' windows, 6 prototypes, 12 segments, d = 32;
    // the `x8` sweeps take 8 prototypes, the other side of the 4-row tile's cut.
    let (bsz, kp, l, d) = (32usize, 6usize, 12usize, 32usize);
    let (a, x, g, g8) = (v(kp * d), v(bsz * l * d), v(bsz * kp * l), v(bsz * 8 * l));
    // The autograd rule's chain: each per-batch product into a zeroed
    // scratch, added into the zeroed gradient in ascending batch order.
    let bcast_da = |label, kp: usize, g: &[f32]| {
        let mut tmp = vec![0.0f32; kp * d];
        let x = &x;
        opcode_sweep(
            label,
            kp * d,
            move |da| {
                for bi in 0..bsz {
                    tmp.fill(0.0);
                    reference::gemm(kp, l, d, &g[bi * kp * l..][..kp * l], &x[bi * l * d..][..l * d], &mut tmp);
                    for (o, &t) in da.iter_mut().zip(&tmp) {
                        *o += 1.0 * t;
                    }
                }
            },
            move |c| exec::bcast_nt_da(g, x, bsz, kp, l, d, c),
        )
    };
    vec![
        gemm("gemm_nn_384x8x32", Trans::Nn, (384, 8, 32), v(384 * 8), v(8 * 32)),
        gemm("gemm_tn_8x384x32", Trans::Tn, (8, 384, 32), v(384 * 8), v(384 * 32)),
        gemm("gemm_nt_192x32x64", Trans::Nt, (192, 32, 64), v(192 * 32), v(64 * 32)),
        gemm("gemm_tn_192x32x24", Trans::Tn, (192, 32, 24), v(32 * 192), v(32 * 24)),
        gemm("assign_gemm_nt_4800x8x8", Trans::Nt, (4800, 8, 8), v(4800 * 8), v(8 * 8)),
        bmm("bmm_nn_32x6x12x32", Trans::Nn, (bsz, kp, l, d), g.clone(), x.clone()),
        bmm("bmm_nn_32x8x12x32", Trans::Nn, (bsz, 8, l, d), g8.clone(), x.clone()),
        bmm("bmm_nt_32x6x32x12", Trans::Nt, (bsz, kp, d, l), v(bsz * kp * d), x.clone()),
        bmm("bmm_tn_32x12x6x32", Trans::Tn, (bsz, l, kp, d), g.clone(), v(bsz * kp * d)),
        opcode_sweep(
            "bcast_nt_32x6x32x12",
            bsz * kp * l,
            |c| per_batch(reference::gemm_nt, bsz, (kp, d, l), (&a, 0), (&x, l * d), c),
            |c| exec::bcast_nt(bsz, kp, d, l, &a, &x, c),
        ),
        opcode_sweep(
            "bcast_nt_dx_32x6x12x32",
            bsz * l * d,
            |c| per_batch(reference::gemm_tn, bsz, (l, kp, d), (&g, kp * l), (&a, 0), c),
            |c| exec::bcast_nt_dx(&g, &a, bsz, kp, l, d, c),
        ),
        bcast_da("bcast_nt_da_32x6x12x32", kp, &g),
        bcast_da("bcast_nt_da_32x8x12x32", 8, &g8),
    ]
}

/// The scalar per-pair assignment sweep against the blocked two-GEMM kernel
/// on 20 000×32 segments at k = 64.
fn assign_sweep(label: &'static str, objective: Objective) -> Sweep {
    let (n, p, k) = (20_000usize, 32usize, 64usize);
    let mut rng = StdRng::seed_from_u64(0xa551);
    let segs = Tensor::randn(&[n, p], 1.0, &mut rng);
    let protos = ClusterConfig::new(k, p)
        .with_objective(objective)
        .with_update(ProtoUpdate::ClosedFormMean)
        .with_max_iters(3)
        .fit(&segs, 1);
    Sweep::run(
        label,
        SAMPLES,
        || protos.assign_all_scalar(&segs),
        || protos.assign_all(&segs),
        |a, b| a == b,
    )
}

/// Dense one-hot bmm against the sparse gather (forward) and scatter-add
/// (backward) routing kernels at ProtoAttn-scale shapes.
fn routing_sweeps() -> [Sweep; 2] {
    let (b, l, k, d) = (64usize, 128usize, 64usize, 64usize);
    let mut rng = StdRng::seed_from_u64(0x307e);
    let head = Tensor::randn(&[b, k, d], 1.0, &mut rng);
    let dout = Tensor::randn(&[b, l, d], 1.0, &mut rng);
    let indices: Vec<u32> = (0..b * l).map(|_| rng.gen_range(0..k) as u32).collect();
    let one_hot = route::one_hot_matrix(&indices, b, l, k);
    [
        Sweep::run(
            "route_gather_b64_l128_k64_d64",
            SAMPLES,
            || one_hot.bmm(&head),
            || route::route_gather(&head, &indices, l),
            same_bits,
        ),
        Sweep::run(
            "route_scatter_add_b64_l128_k64_d64",
            SAMPLES,
            || one_hot.bmm_tn(&dout),
            || route::route_scatter_add(&dout, &indices, k),
            same_bits,
        ),
    ]
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("kernel sweeps (host cores: {cores}; {SAMPLES} timed calls per series)");
    let mut sweeps = Vec::from(gemm_sweeps());
    sweeps.push(assign_sweep("assign_all_rec_only_20000x32_k64", Objective::RecOnly));
    sweeps.push(assign_sweep("assign_all_rec_corr_20000x32_k64", Objective::rec_corr(0.2)));
    sweeps.extend(routing_sweeps());
    sweeps.extend(opcode_sweeps());

    let mut report = RunReport::new("kernels");
    report
        .setting("samples", SAMPLES)
        .setting("gemm", "256x256x256")
        .setting(
            "opcodes",
            format!("plan-opcode shapes (dims as in each label), {REPS} calls per timed sample"),
        )
        .setting("assign", "20000x32 segments, k=64, rec-only and rec+corr(0.2)")
        .setting("routing", "b=64, l=128, k=64, d=64");
    for s in &sweeps {
        s.record(&mut report);
    }
    // Record the worker pool's dispatch stats (par/*) for the whole run.
    focus_trace::set_enabled(true);
    par::publish_trace_stats();
    focus_trace::set_enabled(false);
    report.capture_trace();
    write_report(&report, concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json"));

    for s in &sweeps {
        assert!(s.matches, "{}: the fast path's output differs from the naive path's", s.label);
    }
}
