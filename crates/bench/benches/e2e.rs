//! Wall-clock backing for the paper's efficiency claims, at 1 thread:
//!
//! * Fig. 6 — ProtoAttn (linear in the segment count `l`) against full
//!   self-attention (quadratic) over `l` = 16 → 256; hard against soft
//!   routing; and every zoo model's forward pass next to the FLOPs and peak
//!   bytes it counts (`focus_tensor::work`), the wall-clock twin of the
//!   counted figure, with FOCUS's forward plan's exact liveness peak next to
//!   the bytes of its power-of-two slots;
//! * Fig. 8 — the offline phase: Rec Only against Rec+Corr, the closed-form
//!   mean against AdamW prototype updates, and `FocusConfig::cluster` on a
//!   PEMS08 profile and at perfbench `offline-cluster`'s shape; every timed
//!   fit must repeat its warm-up fit's centers bit for bit
//!   (`…/output_match`);
//! * §VII-B — the Parallel Fusion Module against gated linear fusion over
//!   the entity count `N`;
//! * and last, a few traced fits at perfbench `offline-cluster`'s shape,
//!   whose span tree (`cluster/{fit,init,assign,update}`) the report
//!   carries; no other call of the run is traced.
//!
//! Series that are compared with each other are timed in interleaved rounds
//! ([`time_each`]). Forwards run on the path serving takes: `predict` for
//! whole models and `ParamStore::run_forward` for single blocks. The warm-up
//! call of each series compiles the plan, and its output must be finite.
//!
//! The run rewrites `BENCH_e2e.json` at the repository root.

use focus_autograd::plan::compile_forward;
use focus_autograd::{Graph, ParamStore, ParamVars, Route, Var};
use focus_baselines::{BaselineConfig, ModelKind};
use focus_bench::measure::{time_each, write_report, Timing};
use focus_cluster::{ClusterConfig, Objective, Prototypes, ProtoUpdate};
use focus_core::fusion::ParallelFusion;
use focus_core::protoattn::{Assignment, ProtoAttn, Routing};
use focus_core::{FocusConfig, WindowInputs};
use focus_data::{Benchmark, MtsDataset};
use focus_nn::revin::instance_norm;
use focus_nn::{Linear, SelfAttention};
use focus_tensor::{par, work, Tensor};
use focus_trace::report::RunReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::hint::black_box;

/// Timed calls per series, after one warm-up call: enough that ten samples
/// lie beyond the p90.
const SAMPLES: usize = 101;
/// Traced fits that end the run.
const TRACED_FITS: usize = 5;
/// Attention series: feature width `d`, segment length `p`, prototypes `k`.
const D: usize = 32;
const P: usize = 8;
const K: usize = 16;

/// One forward of a block through `ps`'s kept plan: `body` reads the tape's
/// `inputs` and `routes`, in order.
fn run_block(
    ps: &ParamStore,
    inputs: &[&Tensor],
    routes: &[&[u32]],
    body: impl FnOnce(&mut Graph, &ParamVars, &[Var], &[Route]) -> Var,
) -> Tensor {
    ps.run_forward(inputs, routes, |g| {
        let pv = ps.register(g);
        let xs: Vec<Var> = inputs.iter().map(|t| g.input((*t).clone())).collect();
        let rs: Vec<Route> = routes.iter().map(|r| g.route(r.to_vec())).collect();
        (body(g, &pv, &xs, &rs), pv)
    })
    .expect("the block's forward lowers and verifies")
}

/// Times `series` with [`time_each`] and records each under its key,
/// returning the timings and the warm-up outputs.
fn record_each<T, const N: usize>(
    report: &mut RunReport,
    keys: [String; N],
    series: [&mut dyn FnMut() -> T; N],
) -> ([Timing; N], [T; N]) {
    let (timings, warm) = time_each(SAMPLES, series);
    for (key, timing) in keys.iter().zip(&timings) {
        timing.record(report, key);
    }
    (timings, warm)
}

/// [`record_each`] for forward passes, whose warm-up outputs must be finite.
fn record_forwards<const N: usize>(
    report: &mut RunReport,
    keys: [String; N],
    series: [&mut dyn FnMut() -> Tensor; N],
) -> [Timing; N] {
    let (timings, warm) = record_each(report, keys.clone(), series);
    for (key, out) in keys.iter().zip(&warm) {
        assert!(out.data().iter().all(|v| v.is_finite()), "{key}: the forward is not finite");
    }
    timings
}

fn attention_prototypes(rng: &mut StdRng) -> Prototypes {
    ClusterConfig::new(K, P)
        .with_objective(Objective::RecOnly)
        .with_update(ProtoUpdate::ClosedFormMean)
        .with_max_iters(10)
        .fit(&Tensor::randn(&[256, P], 1.0, rng), 1)
}

/// ProtoAttn against embedding + self-attention on `[1, l, P]` segments.
fn attention_scaling(report: &mut RunReport) {
    let mut rng = StdRng::seed_from_u64(1);
    let protos = attention_prototypes(&mut rng);
    for l in [16usize, 32, 64, 128, 256] {
        let segments = Tensor::randn(&[1, l, P], 1.0, &mut rng);
        let mut pa_ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut pa_ps, "pa", &protos, D, &mut rng);
        let indices = Assignment::indices(&segments, &protos);
        let mut sa_ps = ParamStore::new();
        let embed = Linear::new(&mut sa_ps, "embed", P, D, &mut rng);
        let sa = SelfAttention::new(&mut sa_ps, "sa", D, &mut rng);
        let keys = ["protoattn", "self_attention"].map(|arm| format!("attention_scaling/{arm}/{l}"));
        record_forwards(report, keys, [
            &mut || {
                run_block(&pa_ps, &[&segments], &[&indices], |g, pv, x, r| {
                    pa.forward(g, pv, x[0], Routing::Hard(r[0]))
                })
            },
            &mut || {
                run_block(&sa_ps, &[&segments], &[], |g, pv, x, _| {
                    let emb = embed.forward(g, pv, x[0]);
                    sa.forward(g, pv, emb)
                })
            },
        ]);
    }
}

/// `Assignment::plan`, the routing `window_operands` runs, on 8×64 segments.
fn assignment(report: &mut RunReport) {
    let mut rng = StdRng::seed_from_u64(2);
    let protos = attention_prototypes(&mut rng);
    let segments = Tensor::randn(&[8, 64, P], 1.0, &mut rng);
    let soft = Assignment::Soft { temperature: 1.0 };
    record_each(report, ["assignment/hard".into(), "assignment/soft".into()], [
        &mut || Assignment::Hard.plan(&segments, &protos),
        &mut || soft.plan(&segments, &protos),
    ]);
}

/// `n` length-16 segments: noisy sinusoids at a few phases, so clusters exist.
fn sinusoid_segments(n: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(42);
    let mut data = Vec::with_capacity(n * 16);
    for i in 0..n {
        let phase = (i % 8) as f32 * 0.7;
        data.extend((0..16).map(|j| (2.0 * std::f32::consts::PI * j as f32 / 16.0 + phase).sin()));
    }
    Tensor::from_vec(data, &[n, 16]).add(&Tensor::randn(&[n, 16], 0.1, &mut rng))
}

/// Wraps a fit so that every call after the first checks its centers
/// against the first call's (the warm-up's), bit for bit, clearing `same`
/// on a mismatch.
fn repeat_checked<'a>(mut fit: impl FnMut() -> Prototypes + 'a, same: &'a Cell<bool>) -> impl FnMut() -> Prototypes + 'a {
    let mut first: Option<Vec<u32>> = None;
    move || {
        let protos = fit();
        let bits: Vec<u32> = protos.centers().data().iter().map(|v| v.to_bits()).collect();
        match &first {
            None => first = Some(bits),
            Some(first) => same.set(same.get() && *first == bits),
        }
        protos
    }
}

/// Records `{key}/output_match` for each fit series: 1 when every timed fit
/// returned its warm-up fit's centers. Returns whether all did.
fn record_matches(report: &mut RunReport, keys: &[String], same: &[Cell<bool>]) -> bool {
    for (key, same) in keys.iter().zip(same) {
        println!("{key}: every fit repeats the warm-up's centers: {}", same.get());
        report.metric(&format!("{key}/output_match"), f64::from(u8::from(same.get())));
    }
    same.iter().all(Cell::get)
}

/// Algorithm 1 at p = k = 16 over 10 iterations (the two objectives, then
/// the two prototype update rules), then FOCUS's whole offline phase, at
/// this bench's PEMS08 profile and at perfbench `offline-cluster`'s shape.
/// Every timed fit must repeat its warm-up fit bit for bit; returns whether
/// all did.
fn clustering(report: &mut RunReport) -> bool {
    let config = |objective, update| {
        ClusterConfig::new(16, 16).with_objective(objective).with_update(update).with_max_iters(10)
    };
    let mut all_match = true;
    for n in [512usize, 2048] {
        let segs = sinusoid_segments(n);
        let rec_only = config(Objective::RecOnly, ProtoUpdate::paper_default());
        let rec_corr = config(Objective::rec_corr(0.2), ProtoUpdate::paper_default());
        let keys = ["rec_only", "rec_corr"].map(|obj| format!("clustering_objective/{obj}/{n}"));
        let same = [(); 2].map(|()| Cell::new(true));
        record_each(
            report,
            keys.clone(),
            [&mut repeat_checked(|| rec_only.fit(&segs, 1), &same[0]), &mut repeat_checked(|| rec_corr.fit(&segs, 1), &same[1])],
        );
        all_match &= record_matches(report, &keys, &same);
    }
    let segs = sinusoid_segments(1024);
    let mean = config(Objective::RecOnly, ProtoUpdate::ClosedFormMean);
    let adamw = config(Objective::rec_corr(0.2), ProtoUpdate::paper_default());
    let keys = ["closed_form_mean", "adamw"].map(|rule| format!("clustering_update/{rule}"));
    let same = [(); 2].map(|()| Cell::new(true));
    record_each(
        report,
        keys.clone(),
        [&mut repeat_checked(|| mean.fit(&segs, 2), &same[0]), &mut repeat_checked(|| adamw.fit(&segs, 2), &same[1])],
    );
    all_match &= record_matches(report, &keys, &same);

    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(12, 2_400), 7);
    let mut cfg = FocusConfig::new(96, 24);
    cfg.segment_len = 8;
    cfg.n_prototypes = 12;
    cfg.cluster_iters = 10;
    let train = ds.train_matrix();
    let (bench_cfg, bench_train) = offline_cluster_shape();
    let keys = ["offline_phase".to_string(), "offline_phase_4800x8_k8".to_string()];
    let same = [(); 2].map(|()| Cell::new(true));
    record_each(
        report,
        keys.clone(),
        [
            &mut repeat_checked(|| cfg.cluster(&train, 1), &same[0]),
            &mut repeat_checked(|| bench_cfg.cluster(&bench_train, 1), &same[1]),
        ],
    );
    all_match & record_matches(report, &keys, &same)
}

/// perfbench `offline-cluster`'s fit: 32 series of 2 000 steps (a 32 × 1 200
/// training matrix, 4 800 segments), p = k = 8, 6 iterations.
fn offline_cluster_shape() -> (FocusConfig, Tensor) {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(32, 2_000), 7);
    let mut cfg = FocusConfig::new(96, 24);
    cfg.segment_len = 8;
    cfg.n_prototypes = 8;
    cfg.cluster_iters = 6;
    (cfg, ds.train_matrix())
}

/// Fits at perfbench `offline-cluster`'s shape with tracing on, the run's
/// only traced calls, whose span tree the report then carries: a fit's
/// time split into `cluster/{fit,init,assign,update}`.
fn traced_offline_fits(report: &mut RunReport) {
    let (cfg, train) = offline_cluster_shape();
    report.setting("traced", format!("{TRACED_FITS} fits at the offline_phase_4800x8_k8 shape"));
    focus_trace::reset();
    focus_trace::set_enabled(true);
    for _ in 0..TRACED_FITS {
        black_box(cfg.cluster(&train, 1));
    }
    focus_trace::set_enabled(false);
    report.capture_trace();
}

/// Every zoo model's `predict` on one window, next to the FLOPs and peak
/// bytes it counts. Each model's first predict compiles its plan; every
/// timed predict replays it and must count the same FLOPs.
fn forward_pass(report: &mut RunReport) {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(12, 2_400), 5);
    let cfg = BaselineConfig { d: 24, n_prototypes: 12, ..BaselineConfig::new(96, 24) };
    let x = &ds.window_at(0, 96, 24).x;
    let models = ModelKind::ALL.map(|kind| cfg.build(kind, &ds));
    let keys = ModelKind::ALL.map(|kind| format!("forward_pass/{}", kind.label()));
    let first = models.each_ref().map(|model| work::measure(|| model.predict(x)).1.flops);
    let mut predicts: [_; 8] = std::array::from_fn(|i| {
        let (model, key, flops) = (&models[i], &keys[i], first[i]);
        move || {
            let (y, counted) = work::measure(|| model.predict(x));
            assert_eq!(
                counted.flops, flops,
                "{key}: a replayed predict must count its never-cached predict's FLOPs"
            );
            y
        }
    });
    let series = predicts.each_mut().map(|f| f as &mut dyn FnMut() -> Tensor);
    let timings = record_forwards(report, keys.clone(), series);
    for (((key, model), timing), flops) in keys.iter().zip(&models).zip(&timings).zip(first) {
        let peak_bytes = work::measure(|| model.predict(x)).1.peak_bytes;
        report
            .metric(&format!("{key}/flops"), flops as f64)
            .metric(&format!("{key}/gflops_per_s"), flops as f64 / timing.median_ns)
            .metric(&format!("{key}/peak_bytes"), peak_bytes as f64);
    }
    // FOCUS's forward plan as `predict` keeps it: what its values hold at
    // once, and what its power-of-two slots hold.
    let focus = &models[0]; // `ModelKind::ALL` lists FOCUS first
    let (x_norm, _) = instance_norm(x);
    let mut g = Graph::new();
    let rec = focus.record_window(&mut g, &WindowInputs::new(&**focus, x_norm, None));
    let plan =
        compile_forward(&g, rec.pred, &rec.pv).expect("FOCUS's forward pass lowers and verifies");
    report
        .metric("forward_pass/FOCUS/plan_live_peak_bytes", plan.live_peak_bytes() as f64)
        .metric("forward_pass/FOCUS/plan_slot_bytes", plan.slot_bytes() as f64);
}

/// The Parallel Fusion Module against gated linear fusion of two `[N, 24,
/// 32]` branches into a 24-step forecast.
fn fusion_scaling(report: &mut RunReport) {
    let (l, d, m, horizon) = (24usize, 32usize, 6usize, 24usize);
    let mut rng = StdRng::seed_from_u64(3);
    for n in [8usize, 32, 128] {
        let h_t = Tensor::randn(&[n, l, d], 1.0, &mut rng);
        let h_e = Tensor::randn(&[n, l, d], 1.0, &mut rng);
        let mut pf_ps = ParamStore::new();
        let fusion = ParallelFusion::new(&mut pf_ps, "fusion", m, d, horizon, &mut rng);
        let mut gl_ps = ParamStore::new();
        let w1 = Linear::new(&mut gl_ps, "w1", 2 * l * d, horizon, &mut rng);
        let w2 = Linear::new(&mut gl_ps, "w2", 2 * l * d, horizon, &mut rng);
        let (flat_t, flat_e) = (h_t.reshape(&[n, l * d]), h_e.reshape(&[n, l * d]));
        let keys = ["parallel_fusion", "gated_linear"].map(|arm| format!("fusion_scaling/{arm}/{n}"));
        record_forwards(report, keys, [
            &mut || run_block(&pf_ps, &[&h_t, &h_e], &[], |g, pv, x, _| fusion.forward(g, pv, x[0], x[1])),
            &mut || {
                run_block(&gl_ps, &[&flat_t, &flat_e], &[], |g, pv, x, _| {
                    let z = g.concat_last(x[0], x[1]);
                    let lin = w1.forward(g, pv, z);
                    let gate_logits = w2.forward(g, pv, z);
                    let gate = g.sigmoid(gate_logits);
                    g.mul(lin, gate)
                })
            },
        ]);
    }
}

fn main() {
    println!("e2e: the paper's efficiency claims as wall clock (1 thread; {SAMPLES} timed calls per series)");
    par::set_threads(1);
    let mut report = RunReport::new("e2e");
    report
        .setting("samples", SAMPLES)
        .setting("threads", 1)
        .setting("attention", "[1, l, p=8] segments, d=32, k=16")
        .setting("assignment", "[8, 64, p=8] segments, k=16")
        .setting("clustering", "p=16, k=16, 10 iterations; update rules on 1024 segments")
        .setting("offline_phase", "PEMS08 profile, 12 entities x 2400 steps, p=8, k=12, 10 iterations")
        .setting("offline_phase_4800x8_k8", "perfbench offline-cluster: 32 entities x 2000 steps, p=8, k=8, 6 iterations")
        .setting("forward_pass", "predict, 12 entities, L=96, L_f=24, d=24, k=12")
        .setting("fusion", "[N, 24, 32] branches, m=6, horizon 24");
    attention_scaling(&mut report);
    assignment(&mut report);
    let fits_match = clustering(&mut report);
    forward_pass(&mut report);
    fusion_scaling(&mut report);
    traced_offline_fits(&mut report);
    write_report(&report, concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e2e.json"));
    assert!(fits_match, "a timed fit returned other centers than its warm-up fit");
}
