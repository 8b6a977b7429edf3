//! Parameter storage and optimizers.
//!
//! Parameters live outside the per-step [`Graph`] in a [`ParamStore`]. Each
//! training step registers them as trainable leaves, runs forward/backward,
//! then hands the collected gradients to an [`Optimizer`].
//!
//! The FOCUS paper optimises both the offline prototypes (§V) and the online
//! network with AdamW; at zero decay it is plain Adam. [`Sgd`] is provided
//! for tests.

use std::sync::Mutex;

use crate::plan::{CompileError, PlanCache};
use crate::{Graph, Var};
use focus_tensor::{fused, Tensor};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// A named collection of trainable tensors, and the forward plan kept for
/// the model that owns them.
///
/// A store belongs to one model. [`ParamStore::run_forward`] compiles that
/// model's recorded forward pass once and replays it for every later window
/// of the same shapes. The plan reads the parameters from this store at
/// their current values, so training never makes it stale; it bakes in the
/// constants the model recorded, so the owning model's constants must stay
/// fixed for the store's lifetime. A change of shape, the parameters'
/// included, drops the plan.
#[derive(Default)]
pub struct ParamStore {
    tensors: Vec<Tensor>,
    names: Vec<String>,
    /// The kept forward plan, locked for the whole of one forward pass.
    forward: Mutex<PlanCache>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, t: Tensor) -> ParamId {
        self.tensors.push(t);
        self.names.push(name.into());
        ParamId(self.tensors.len() - 1)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True if the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar parameters, for the paper's `Param` metric.
    pub fn scalar_count(&self) -> u64 {
        self.tensors.iter().map(|t| t.numel() as u64).sum()
    }

    /// Read a parameter tensor.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access to a parameter tensor.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// The name a parameter was registered with.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Deep copy of all parameter tensors (for early-stopping snapshots).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.tensors.clone()
    }

    /// Restores a snapshot taken by [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// If the snapshot's length or tensor shapes disagree with the store.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(
            snapshot.len(),
            self.tensors.len(),
            "snapshot holds {} tensors, store has {}",
            snapshot.len(),
            self.tensors.len()
        );
        for (dst, src) in self.tensors.iter_mut().zip(snapshot) {
            assert!(
                dst.shape().same_as(src.shape()),
                "snapshot shape {} != parameter shape {}",
                src.shape(),
                dst.shape()
            );
            dst.data_mut().copy_from_slice(src.data());
        }
    }

    /// Iterates over `(id, name, tensor)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.tensors
            .iter()
            .zip(&self.names)
            .enumerate()
            .map(|(i, (t, n))| (ParamId(i), n.as_str(), t))
    }

    /// Registers every parameter as a trainable leaf in `g`, in id order.
    ///
    /// The returned vector is indexed by `ParamId`, so
    /// `vars[id] == leaf-for-id`.
    pub fn register(&self, g: &mut Graph) -> ParamVars {
        let vars = self.tensors.iter().map(|t| g.leaf(t.clone())).collect();
        ParamVars { vars }
    }

    /// Applies one optimizer step from the gradients recorded in `g`.
    ///
    /// Parameters whose leaves received no gradient (unused in this step's
    /// forward pass) are left untouched.
    pub fn step<O: Optimizer>(&mut self, opt: &mut O, g: &Graph, vars: &ParamVars) {
        focus_trace::span!("autograd/optimizer");
        opt.begin_step(self.tensors.len());
        for (i, var) in vars.vars.iter().enumerate() {
            if let Some(grad) = g.grad(*var) {
                opt.update(i, &mut self.tensors[i], grad);
            }
        }
    }

    /// One forward pass through this store's kept forward plan, returning
    /// the output's value.
    ///
    /// Replays the kept plan when it was compiled for the shapes of
    /// `inputs`, `routes` and this store. Otherwise `record` records the pass
    /// on a fresh tape, registering this store's parameters and recording
    /// `inputs` as the tape's inputs and `routes` as its routes, in order,
    /// and returns the output and the parameter leaves. The tape is compiled,
    /// its plan kept (unless caching is off, see [`crate::plan::set_enabled`])
    /// and its value returned. Both ways give the same bits.
    ///
    /// The lock is held for the whole pass, so concurrent calls on one store
    /// wait for each other. After a pass panicked while holding it, the next
    /// call drops the kept plan and records afresh: a replay that unwound
    /// can leave slot buffers taken.
    ///
    /// # Errors
    /// If the recorded pass does not lower, or its plan fails verification;
    /// no plan is kept then.
    ///
    /// # Panics
    /// If a route index is out of range for the kept plan.
    pub fn run_forward(
        &self,
        inputs: &[&Tensor],
        routes: &[&[u32]],
        record: impl FnOnce(&mut Graph) -> (Var, ParamVars),
    ) -> Result<Tensor, CompileError> {
        let mut cache = self.forward.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            *cache = PlanCache::new();
            self.forward.clear_poison();
            cache
        });
        cache.run_forward(inputs, routes, self, record)
    }

    /// Parameter tensor by raw index, for the plan VM's update loop.
    pub(crate) fn tensor_at(&self, i: usize) -> &Tensor {
        &self.tensors[i]
    }

    /// Mutable parameter tensor by raw index, for the plan VM's update loop.
    pub(crate) fn tensor_mut_at(&mut self, i: usize) -> &mut Tensor {
        &mut self.tensors[i]
    }

    /// Global L2 norm of all gradients in `g` for this store's leaves.
    pub fn grad_norm(&self, g: &Graph, vars: &ParamVars) -> f32 {
        let mut ss = 0.0f64;
        for var in &vars.vars {
            if let Some(grad) = g.grad(*var) {
                ss += grad.data().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
            }
        }
        ss.sqrt() as f32
    }
}

/// The graph leaves for one registration of a [`ParamStore`].
pub struct ParamVars {
    vars: Vec<Var>,
}

impl ParamVars {
    /// The leaf for parameter `id`.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }

    /// All leaves in id order, for the plan compiler's leaf classification.
    pub(crate) fn raw(&self) -> &[Var] {
        &self.vars
    }
}

/// A first-order optimizer updating one parameter tensor at a time.
pub trait Optimizer {
    /// Called once per [`ParamStore::step`] with the parameter count, so
    /// implementations can lazily size their state.
    fn begin_step(&mut self, n_params: usize);

    /// Updates parameter `idx` in place given its gradient.
    fn update(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor);
}

/// Plain stochastic gradient descent: `θ ← θ − lr · ∇`.
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self, _n: usize) {}

    fn update(&mut self, _idx: usize, param: &mut Tensor, grad: &Tensor) {
        param.axpy(-self.lr, grad);
    }
}

/// AdamW's per-parameter first/second moment state.
#[derive(Default)]
struct Moments {
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Moments {
    fn ensure(&mut self, n: usize) {
        // Lazily sized on first use; shapes are filled in per update.
        while self.m.len() < n {
            self.m.push(Tensor::zeros(&[0]));
            self.v.push(Tensor::zeros(&[0]));
        }
    }

    fn ensure_shape(&mut self, idx: usize, grad: &Tensor) {
        if self.m[idx].numel() != grad.numel() {
            self.m[idx] = Tensor::zeros(grad.dims());
            self.v[idx] = Tensor::zeros(grad.dims());
        }
    }

    /// One fused update: decoupled decay, moment updates, bias correction and
    /// the parameter write-back in a single pass over the buffers — no `dir`
    /// temporary. `weight_decay = 0` gives plain Adam. Bitwise-identical to
    /// the separate passes of the reference `crate::oracle::AdamW`.
    #[allow(clippy::too_many_arguments)]
    fn fused_update(
        &mut self,
        idx: usize,
        param: &mut Tensor,
        grad: &Tensor,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) {
        self.ensure_shape(idx, grad);
        fused::adamw_step(
            param.data_mut(),
            grad.data(),
            self.m[idx].data_mut(),
            self.v[idx].data_mut(),
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            self.t,
        );
    }
}

/// AdamW (Loshchilov & Hutter): Adam with *decoupled* weight decay, the
/// optimizer used for both phases of FOCUS.
pub struct AdamW {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight-decay coefficient λ; applied as `θ ← θ(1 − lr·λ)`.
    pub weight_decay: f32,
    state: Moments,
    step_started: bool,
}

impl AdamW {
    /// AdamW with conventional moments and the given decay.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            state: Moments::default(),
            step_started: false,
        }
    }
}

impl Optimizer for AdamW {
    fn begin_step(&mut self, n: usize) {
        self.state.ensure(n);
        self.state.t += 1;
        self.step_started = true;
    }

    fn update(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) {
        debug_assert!(self.step_started, "begin_step must precede update");
        self.state.fused_update(
            idx,
            param,
            grad,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.weight_decay,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Minimises L(w) = mean((w·x − y)²) and checks convergence.
    fn converges<O: Optimizer>(mut opt: O, steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(&[1, 2]));
        // Well-conditioned design matrix (near-orthogonal rows).
        let x = Tensor::from_vec(vec![1.0, 0.5, -0.3, -0.5, 1.0, 0.4], &[2, 3]);
        let target = Tensor::from_vec(vec![2.0, 1.0, -0.6], &[1, 3]); // exact w* = [2, 0]
        let mut last = f32::MAX;
        for _ in 0..steps {
            let mut g = Graph::new();
            let vars = store.register(&mut g);
            let xv = g.constant(x.clone());
            let tv = g.constant(target.clone());
            let pred = g.matmul(vars.var(w), xv);
            let loss = g.mse(pred, tv);
            g.backward(loss);
            store.step(&mut opt, &g, &vars);
            last = g.value(loss).item();
        }
        last
    }

    #[test]
    fn sgd_converges_on_linear_problem() {
        assert!(converges(Sgd::new(0.1), 300) < 1e-3);
    }

    #[test]
    fn adamw_converges_on_linear_problem() {
        // Zero decay is plain Adam.
        assert!(converges(AdamW::new(0.05, 0.0), 400) < 1e-3);
        assert!(converges(AdamW::new(0.05, 1e-4), 400) < 1e-2);
    }

    #[test]
    fn adamw_decay_shrinks_unused_direction() {
        // With zero gradient signal, AdamW decay alone should shrink weights.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::ones(&[4]));
        let mut opt = AdamW::new(0.1, 0.5);
        for _ in 0..10 {
            let mut g = Graph::new();
            let vars = store.register(&mut g);
            let s = g.sum_all(vars.var(w));
            let zero = g.scale(s, 0.0);
            g.backward(zero);
            store.step(&mut opt, &g, &vars);
        }
        assert!(store.get(w).data()[0] < 0.7);
    }

    #[test]
    fn param_store_bookkeeping() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(&[2, 3]));
        let b = store.add("b", Tensor::zeros(&[5]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.scalar_count(), 11);
        assert_eq!(store.name(a), "a");
        assert_eq!(store.get(b).numel(), 5);
    }

    #[test]
    fn unused_params_are_untouched_by_step() {
        let mut store = ParamStore::new();
        let used = store.add("used", Tensor::ones(&[1]));
        let unused = store.add("unused", Tensor::ones(&[1]));
        let mut opt = Sgd::new(1.0);
        let mut g = Graph::new();
        let vars = store.register(&mut g);
        let loss = g.sum_all(vars.var(used));
        g.backward(loss);
        store.step(&mut opt, &g, &vars);
        assert_eq!(store.get(used).data()[0], 0.0);
        assert_eq!(store.get(unused).data()[0], 1.0);
    }
}
