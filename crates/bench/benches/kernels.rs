//! Kernel sweeps: each hot kernel's naive path against its fast replacement,
//! the fast path at 1/2/4/max worker threads (see
//! [`focus_bench::measure::Sweep`]):
//!
//! * the serial reference GEMMs against the cache-blocked, tiled ones
//!   (`a·b`, `a·bᵀ`, `aᵀ·b` at 256³), outputs bitwise equal;
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
use focus_tensor::{par, reference, route, Tensor};
use focus_trace::report::RunReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timed calls per series, after one warm-up call.
const SAMPLES: usize = 11;

/// A raw reference GEMM: `(m, k, n, a, b, c)`, accumulating into `c`.
type RawGemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
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

    let mut report = RunReport::new("kernels");
    report
        .setting("samples", SAMPLES)
        .setting("gemm", "256x256x256")
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
