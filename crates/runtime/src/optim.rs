//! Optimizers beyond plain SGD: momentum and weight decay, as used for the
//! paper's ImageNet training runs.

use crate::params::{NodeParams, ParamGrads, ParamSet};

/// SGD with classical momentum and L2 weight decay.
///
/// `v = momentum * v + g + weight_decay * p; p -= lr * v`
#[derive(Debug, Clone)]
pub struct MomentumSgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight-decay coefficient (0 disables). Not applied to biases or
    /// batch-norm parameters, per common practice
    /// ([`ParamSet::decays`]).
    pub weight_decay: f32,
    /// Per node, zeroed on the first gradient the node receives.
    velocity: Vec<Option<NodeParams>>,
}

impl MomentumSgd {
    /// Creates the optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        MomentumSgd { lr, momentum, weight_decay, velocity: Vec::new() }
    }

    /// Applies one update step to every node that has a gradient.
    pub fn step(&mut self, params: &mut ParamSet, grads: &[Option<ParamGrads>]) {
        self.velocity.resize(grads.len(), None);
        for (i, (g, v)) in grads.iter().zip(&mut self.velocity).enumerate() {
            let weight_decay = if params.decays(i) { self.weight_decay } else { 0.0 };
            let (Some(g), Some(p)) = (g, params.get_mut(i)) else { continue };
            let v = v.get_or_insert_with(|| {
                let mut v = g.clone();
                v.tensors_mut().for_each(|t| t.data_mut().fill(0.0));
                v
            });
            // Main first: the only tensor weight decay can apply to.
            let decays = [weight_decay, 0.0];
            for (((p, g), v), decay) in
                p.tensors_mut().zip(g.tensors()).zip(v.tensors_mut()).zip(decays)
            {
                for ((v, &gv), &pv) in v.data_mut().iter_mut().zip(g.data()).zip(p.data()) {
                    *v = self.momentum * *v + gv + decay * pv;
                }
                p.add_scaled(v, -self.lr).expect("shapes fixed at init");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;
    use crate::exec::Executor;
    use crate::spec::ExecMode;

    #[test]
    fn zero_momentum_matches_plain_sgd() {
        let g = gist_models::tiny_convnet(4, 3);
        let mut a = Executor::new(g.clone(), ExecMode::Baseline, 5).unwrap();
        let mut b = Executor::new(g, ExecMode::Baseline, 5).unwrap();
        let mut opt = MomentumSgd::new(0.05, 0.0, 0.0);
        let mut ds = SyntheticImages::new(3, 16, 0.3, 1);
        let (x, y) = ds.minibatch(4);
        // a: plain sgd via step(); b: momentum(0) optimizer.
        a.step(&x, &y, 0.05).unwrap();
        let (_, grads) = b.forward_backward(&x, &y).unwrap();
        opt.step(&mut b.params, &grads);
        let (la, _) = a.forward_backward(&x, &y).unwrap();
        let (lb, _) = b.forward_backward(&x, &y).unwrap();
        assert_eq!(la.loss, lb.loss);
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        // Two steps with the same gradient: with momentum the second update
        // is larger than the first.
        let g = gist_models::tiny_convnet(4, 3);
        let mut e = Executor::new(g, ExecMode::Baseline, 5).unwrap();
        let mut opt = MomentumSgd::new(0.01, 0.9, 0.0);
        let mut ds = SyntheticImages::new(3, 16, 0.0, 1);
        let (x, y) = ds.minibatch(4);
        let w0 = first_conv_weight(&e);
        let (_, g1) = e.forward_backward(&x, &y).unwrap();
        opt.step(&mut e.params, &g1);
        let w1 = first_conv_weight(&e);
        opt.step(&mut e.params, &g1); // same gradients again
        let w2 = first_conv_weight(&e);
        let d1: f32 = w0.iter().zip(&w1).map(|(a, b)| (a - b).abs()).sum();
        let d2: f32 = w1.iter().zip(&w2).map(|(a, b)| (a - b).abs()).sum();
        assert!(d2 > 1.5 * d1, "momentum should grow the step: {d1} then {d2}");
    }

    /// Zero gradients for every parameter tensor of `e`.
    fn zero_grads(e: &Executor) -> Vec<Option<ParamGrads>> {
        let mut grads: Vec<_> = (0..e.graph().len()).map(|i| e.params.get(i).cloned()).collect();
        for t in grads.iter_mut().flatten().flat_map(|g| g.tensors_mut()) {
            t.data_mut().fill(0.0);
        }
        grads
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradients() {
        let g = gist_models::tiny_convnet(4, 3);
        let mut e = Executor::new(g, ExecMode::Baseline, 5).unwrap();
        let mut opt = MomentumSgd::new(0.1, 0.0, 0.1);
        let w0: f32 = first_conv_weight(&e).iter().map(|v| v.abs()).sum();
        // Zero gradients, decay only.
        let zeros = zero_grads(&e);
        opt.step(&mut e.params, &zeros);
        let w1: f32 = first_conv_weight(&e).iter().map(|v| v.abs()).sum();
        assert!(w1 < w0, "decay should shrink weights: {w0} -> {w1}");
        assert!((w1 / w0 - 0.99).abs() < 1e-3, "p *= (1 - lr*decay) = 0.99");
    }

    #[test]
    fn weight_decay_skips_batchnorm_scale_and_every_secondary() {
        let g = gist_models::resnet_cifar(1, 2);
        let mut e = Executor::new(g, ExecMode::Baseline, 5).unwrap();
        let before = e.params.clone();
        let zeros = zero_grads(&e);
        MomentumSgd::new(0.1, 0.0, 0.1).step(&mut e.params, &zeros);
        let mut moved = [0, 0];
        for i in 0..e.graph().len() {
            let (Some(b), Some(a)) = (before.get(i), e.params.get(i)) else { continue };
            assert_eq!(b.main != a.main, e.params.decays(i), "only conv/linear weights decay");
            assert_eq!(b.secondary, a.secondary, "biases and batch-norm shifts never decay");
            moved[usize::from(e.params.decays(i))] += 1;
        }
        assert!(moved[0] > 0 && moved[1] > 0, "both kinds exist in a ResNet");
    }

    fn first_conv_weight(e: &Executor) -> Vec<f32> {
        let idx = e
            .graph()
            .nodes()
            .iter()
            .position(|n| matches!(n.op, gist_graph::OpKind::Conv { .. }))
            .unwrap();
        e.params.get(idx).unwrap().main.data().to_vec()
    }
}
