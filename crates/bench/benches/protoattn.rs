//! Wall-clock backing for Fig. 6's headline: ProtoAttn (linear in the
//! segment count) vs full self-attention (quadratic), at growing sequence
//! lengths, plus hard vs soft assignment cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_autograd::{Graph, ParamStore};
use focus_cluster::{ClusterConfig, Objective, ProtoUpdate, Prototypes};
use focus_core::protoattn::{Assignment, ProtoAttn, Routing};
use focus_nn::SelfAttention;
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const D: usize = 32;
const P: usize = 8;
const K: usize = 16;

fn make_prototypes(rng: &mut StdRng) -> Prototypes {
    let segs = Tensor::randn(&[256, P], 1.0, rng);
    ClusterConfig::new(K, P)
        .with_objective(Objective::RecOnly)
        .with_update(ProtoUpdate::ClosedFormMean)
        .with_max_iters(10)
        .fit(&segs, 1)
}

fn bench_attention_scaling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let protos = make_prototypes(&mut rng);

    let mut group = c.benchmark_group("attention_scaling");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for l in [16usize, 32, 64, 128, 256] {
        let segments = Tensor::randn(&[1, l, P], 1.0, &mut rng);

        // ProtoAttn: linear in l.
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, D, &mut rng);
        let indices = Assignment::indices(&segments, &protos);
        group.bench_with_input(BenchmarkId::new("protoattn", l), &l, |b, _| {
            b.iter(|| {
                let mut g = Graph::new();
                let pv = ps.register(&mut g);
                let seg_v = g.input(segments.clone());
                let route = g.route(indices.clone());
                let out = pa.forward(&mut g, &pv, seg_v, Routing::Hard(route));
                black_box(g.value(out).sum_all())
            })
        });

        // Full self-attention: quadratic in l.
        let mut ps2 = ParamStore::new();
        let embed = focus_nn::Linear::new(&mut ps2, "embed", P, D, &mut rng);
        let sa = SelfAttention::new(&mut ps2, "sa", D, &mut rng);
        group.bench_with_input(BenchmarkId::new("self_attention", l), &l, |b, _| {
            b.iter(|| {
                let mut g = Graph::new();
                let pv = ps2.register(&mut g);
                let seg_v = g.constant(segments.clone());
                let emb = embed.forward(&mut g, &pv, seg_v);
                let out = sa.forward(&mut g, &pv, emb);
                black_box(g.value(out).sum_all())
            })
        });
    }
    group.finish();
}

fn bench_assignment_modes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let protos = make_prototypes(&mut rng);
    let segments = Tensor::randn(&[8, 64, P], 1.0, &mut rng);

    let mut group = c.benchmark_group("assignment");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("hard", |b| {
        b.iter(|| black_box(Assignment::Hard.matrix(&segments, &protos)))
    });
    group.bench_function("soft", |b| {
        b.iter(|| black_box(Assignment::Soft { temperature: 1.0 }.matrix(&segments, &protos)))
    });
    group.finish();
}

criterion_group!(benches, bench_attention_scaling, bench_assignment_modes);
criterion_main!(benches);
