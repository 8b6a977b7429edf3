//! Ablation variants of FOCUS (paper §VIII-C, Table IV):
//!
//! * **FOCUS-Attn** — the ProtoAttn extractors are replaced with full
//!   self-attention layers (quadratic in `l` and `N`);
//! * **FOCUS-LnrFusion** — the Parallel Fusion Module is replaced by a gated
//!   linear layer over the flattened branch features;
//! * **FOCUS-AllLnr** — both the extractors *and* the fusion are linear.
//!
//! All variants share the [`Forecaster`] pipeline, so Table IV compares
//! architectures under identical training.

use crate::extractor::{DualBranchExtractor, SegmentEmbedding};
use crate::forecaster::{Forecaster, OperandVars, WindowOperands};
use crate::fusion::ParallelFusion;
use crate::model::FocusConfig;
use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use focus_cluster::Prototypes;
use focus_nn::{LayerNorm, Linear, SelfAttention};
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which Table IV variant to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AblationVariant {
    /// The full model (ProtoAttn extractors + Parallel Fusion).
    Full,
    /// Self-attention extractors + Parallel Fusion.
    Attn,
    /// ProtoAttn extractors + gated linear fusion.
    LnrFusion,
    /// Linear extractors + gated linear fusion.
    AllLnr,
}

impl AblationVariant {
    /// All four variants in the Table IV row order.
    pub const ALL: [AblationVariant; 4] = [
        AblationVariant::Full,
        AblationVariant::Attn,
        AblationVariant::LnrFusion,
        AblationVariant::AllLnr,
    ];

    /// The row label used in Table IV.
    pub fn label(&self) -> &'static str {
        match self {
            AblationVariant::Full => "FOCUS",
            AblationVariant::Attn => "FOCUS-Attn",
            AblationVariant::LnrFusion => "FOCUS-LnrFusion",
            AblationVariant::AllLnr => "FOCUS-AllLnr",
        }
    }
}

/// Feature-extraction stage of an ablation model.
enum Extract {
    Proto(DualBranchExtractor),
    Attn {
        embed: SegmentEmbedding,
        attn_t: SelfAttention,
        attn_e: SelfAttention,
        ln_t: LayerNorm,
        ln_e: LayerNorm,
    },
    Linear {
        embed: SegmentEmbedding,
        ln: LayerNorm,
    },
}

/// Fusion stage of an ablation model.
enum Fuse {
    Parallel(ParallelFusion),
    /// Gated linear unit over the concatenated flattened branches:
    /// `y = (z·W₁) ⊙ σ(z·W₂)`, `z = [flat(H_t); flat(H_e)]`.
    GatedLinear {
        w1: Linear,
        w2: Linear,
    },
}

/// One Table IV model.
pub struct FocusAblation {
    variant: AblationVariant,
    cfg: FocusConfig,
    ps: ParamStore,
    extract: Extract,
    fuse: Fuse,
}

impl FocusAblation {
    /// Builds a variant around an already-fitted prototype set (variants
    /// share prototypes so only the online architecture differs).
    pub fn with_prototypes(
        variant: AblationVariant,
        cfg: FocusConfig,
        prototypes: &Prototypes,
        seed: u64,
    ) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xab1a);
        let mut ps = ParamStore::new();
        let (p, d) = (cfg.segment_len, cfg.d);
        let l = cfg.n_segments();

        let extract = match variant {
            AblationVariant::Full | AblationVariant::LnrFusion => {
                Extract::Proto(DualBranchExtractor::new(
                    &mut ps,
                    "extractor",
                    prototypes,
                    d,
                    l,
                    cfg.assignment,
                    &mut rng,
                ))
            }
            AblationVariant::Attn => Extract::Attn {
                embed: SegmentEmbedding::new(&mut ps, "extractor.embed", p, d, l, &mut rng),
                attn_t: SelfAttention::new(&mut ps, "extractor.attn_t", d, &mut rng),
                attn_e: SelfAttention::new(&mut ps, "extractor.attn_e", d, &mut rng),
                ln_t: LayerNorm::new(&mut ps, "extractor.ln_t", d),
                ln_e: LayerNorm::new(&mut ps, "extractor.ln_e", d),
            },
            AblationVariant::AllLnr => Extract::Linear {
                embed: SegmentEmbedding::new(&mut ps, "extractor.embed", p, d, l, &mut rng),
                ln: LayerNorm::new(&mut ps, "extractor.ln", d),
            },
        };

        let fuse = match variant {
            AblationVariant::Full | AblationVariant::Attn => Fuse::Parallel(ParallelFusion::new(
                &mut ps,
                "fusion",
                cfg.readout,
                d,
                cfg.horizon,
                &mut rng,
            )),
            AblationVariant::LnrFusion | AblationVariant::AllLnr => Fuse::GatedLinear {
                w1: Linear::new(&mut ps, "fusion.w1", 2 * l * d, cfg.horizon, &mut rng),
                w2: Linear::new(&mut ps, "fusion.w2", 2 * l * d, cfg.horizon, &mut rng),
            },
        };

        FocusAblation {
            variant,
            cfg,
            ps,
            extract,
            fuse,
        }
    }

    /// The variant this model implements.
    pub fn variant(&self) -> AblationVariant {
        self.variant
    }

    /// Runs the extraction stage on the window `x: [N, L]`, returning
    /// `(H_t, H_e)`, each `[N, l, d]`.
    fn extract(&self, g: &mut Graph, pv: &ParamVars, x: Var, operands: &OperandVars) -> (Var, Var) {
        let n = g.dims(x)[0];
        let (l, p) = (self.cfg.n_segments(), self.cfg.segment_len);
        match &self.extract {
            Extract::Proto(ext) => ext.forward(g, pv, x, operands),
            Extract::Attn {
                embed,
                attn_t,
                attn_e,
                ln_t,
                ln_e,
            } => {
                let p_t = g.reshape(x, &[n, l, p]);
                let emb_t = embed.forward(g, pv, p_t); // [N, l, d]
                let at = attn_t.forward(g, pv, emb_t);
                let sum_t = g.add(at, emb_t);
                let h_t = ln_t.forward(g, pv, sum_t);

                let emb_e = g.swap_axes01(emb_t); // [l, N, d]
                let ae = attn_e.forward(g, pv, emb_e);
                let sum_e = g.add(ae, emb_e);
                let h_e_raw = ln_e.forward(g, pv, sum_e);
                let h_e = g.swap_axes01(h_e_raw);
                (h_t, h_e)
            }
            Extract::Linear { embed, ln } => {
                let p_t = g.reshape(x, &[n, l, p]);
                let emb = embed.forward(g, pv, p_t);
                let h = ln.forward(g, pv, emb);
                // Without mixing there is a single feature tensor; both
                // "branches" are that tensor.
                (h, h)
            }
        }
    }

    /// Runs the fusion stage on aligned `[N, l, d]` branches.
    fn fuse(&self, g: &mut Graph, pv: &ParamVars, h_t: Var, h_e: Var) -> Var {
        match &self.fuse {
            Fuse::Parallel(fusion) => fusion.forward(g, pv, h_t, h_e),
            Fuse::GatedLinear { w1, w2 } => {
                let dims = g.dims(h_t).to_vec();
                let (n, l, d) = (dims[0], dims[1], dims[2]);
                let flat_t = g.reshape(h_t, &[n, l * d]);
                let flat_e = g.reshape(h_e, &[n, l * d]);
                let z = g.concat_last(flat_t, flat_e); // [N, 2ld]
                let lin = w1.forward(g, pv, z);
                let gate_logits = w2.forward(g, pv, z);
                let gate = g.sigmoid(gate_logits);
                g.mul(lin, gate)
            }
        }
    }
}

impl Forecaster for FocusAblation {
    fn name(&self) -> &str {
        self.variant.label()
    }

    fn lookback(&self) -> usize {
        self.cfg.lookback
    }

    fn horizon(&self) -> usize {
        self.cfg.horizon
    }

    fn params(&self) -> &ParamStore {
        &self.ps
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.ps
    }

    fn forward_window(&self, g: &mut Graph, pv: &ParamVars, x: Var, operands: &OperandVars) -> Var {
        let (h_t, h_e) = self.extract(g, pv, x, operands);
        self.fuse(g, pv, h_t, h_e)
    }

    fn window_operands(&self, x_norm: &Tensor) -> WindowOperands {
        match &self.extract {
            Extract::Proto(ext) => ext.window_operands(x_norm),
            Extract::Attn { .. } | Extract::Linear { .. } => WindowOperands::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::{count_predict, TrainOptions};
    use focus_data::{Benchmark, MtsDataset, Split};
    use focus_tensor::work::Work;

    /// One forward pass of `variant` counted on a `[64, 48]` window: more
    /// entities than the fixture's data, so the quadratic terms dominate as
    /// in the paper's PEMS08 setting.
    fn counted(v: AblationVariant, cfg: &FocusConfig, protos: &Prototypes, seed: u64) -> Work {
        let model = FocusAblation::with_prototypes(v, cfg.clone(), protos, seed);
        let values = (0..64 * 48).map(|i| (i as f32 * 0.1).sin()).collect();
        count_predict(&model, &Tensor::from_vec(values, &[64, 48]))
    }

    fn fixture() -> (MtsDataset, FocusConfig, Prototypes) {
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(5, 1_200), 17);
        let mut cfg = FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.readout = 3;
        cfg.cluster_iters = 6;
        let protos = cfg.cluster(&ds.train_matrix(), 1);
        (ds, cfg, protos)
    }

    #[test]
    fn all_variants_forward_and_train() {
        let (ds, cfg, protos) = fixture();
        for variant in AblationVariant::ALL {
            let mut model = FocusAblation::with_prototypes(variant, cfg.clone(), &protos, 2);
            let w = ds.window_at(0, 48, 12);
            let pred = model.predict(&w.x);
            assert_eq!(pred.dims(), &[5, 12], "{variant:?}");
            assert!(pred.all_finite(), "{variant:?}");
            let report = model.train(
                &ds,
                &TrainOptions {
                    epochs: 2,
                    max_windows: 12,
                    ..Default::default()
                },
            );
            assert!(
                report.epoch_losses[1].is_finite(),
                "{variant:?} produced NaN loss"
            );
        }
    }

    #[test]
    fn attn_variant_costs_more_flops_than_full() {
        // Table IV: FOCUS-Attn has higher FLOPs and memory than FOCUS.
        let (_, cfg, protos) = fixture();
        let cf = counted(AblationVariant::Full, &cfg, &protos, 3);
        let ca = counted(AblationVariant::Attn, &cfg, &protos, 3);
        assert!(ca.flops > cf.flops, "attn {} <= full {}", ca.flops, cf.flops);
        assert!(ca.peak_bytes > cf.peak_bytes, "attn {} B <= full {} B", ca.peak_bytes, cf.peak_bytes);
    }

    #[test]
    fn all_lnr_is_cheapest() {
        // Table IV: FOCUS-AllLnr has the lowest FLOPs and memory.
        let (_, cfg, protos) = fixture();
        let costs: Vec<(AblationVariant, Work)> =
            AblationVariant::ALL.iter().map(|&v| (v, counted(v, &cfg, &protos, 4))).collect();
        let all_lnr = costs
            .iter()
            .find(|(v, _)| *v == AblationVariant::AllLnr)
            .expect("AllLnr is one of the swept variants")
            .1;
        for (v, c) in &costs {
            if *v != AblationVariant::AllLnr {
                assert!(
                    all_lnr.flops <= c.flops,
                    "AllLnr {} > {v:?} {}",
                    all_lnr.flops,
                    c.flops
                );
            }
        }
    }

    #[test]
    fn lnr_fusion_has_more_params_than_full() {
        // Table IV: FOCUS-LnrFusion's flattened gated-linear head inflates
        // the parameter count relative to FOCUS.
        let (_, cfg, protos) = fixture();
        let full = FocusAblation::with_prototypes(AblationVariant::Full, cfg.clone(), &protos, 5);
        let lnr = FocusAblation::with_prototypes(AblationVariant::LnrFusion, cfg.clone(), &protos, 5);
        assert!(lnr.params().scalar_count() > full.params().scalar_count());
    }

    #[test]
    fn variants_can_be_evaluated() {
        let (ds, cfg, protos) = fixture();
        let model = FocusAblation::with_prototypes(AblationVariant::AllLnr, cfg, &protos, 7);
        let m = model.evaluate(&ds, Split::Test, 48);
        assert!(m.mse().is_finite());
    }
}
