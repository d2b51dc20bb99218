//! Optimizers beyond plain SGD: momentum and weight decay, as used for the
//! paper's ImageNet training runs.

use crate::params::{NodeParams, ParamGrads, ParamSet};
use gist_tensor::Tensor;

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
    /// batch-norm parameters, per common practice.
    pub weight_decay: f32,
    velocity: Vec<Option<(Tensor, Option<Tensor>)>>,
}

impl MomentumSgd {
    /// Creates the optimizer for a parameter set of `num_nodes` slots.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32, num_nodes: usize) -> Self {
        MomentumSgd { lr, momentum, weight_decay, velocity: (0..num_nodes).map(|_| None).collect() }
    }

    /// Applies one update step.
    ///
    /// # Panics
    ///
    /// Panics if `grads` has a different node count than configured.
    pub fn step(&mut self, params: &mut ParamSet, grads: &[Option<ParamGrads>]) {
        assert_eq!(grads.len(), self.velocity.len(), "node count mismatch");
        for (i, g) in grads.iter().enumerate() {
            let Some(g) = g else { continue };
            let Some(p) = params.get_mut(i) else { continue };
            let decay = match p {
                NodeParams::Conv { .. } | NodeParams::Linear { .. } => self.weight_decay,
                NodeParams::BatchNorm { .. } => 0.0,
            };
            let (main_p, sec_p): (&mut Tensor, Option<&mut Tensor>) = match p {
                NodeParams::Conv { weight, bias } | NodeParams::Linear { weight, bias } => {
                    (weight, bias.as_mut())
                }
                NodeParams::BatchNorm { gamma, beta } => (gamma, Some(beta)),
            };
            let slot = &mut self.velocity[i];
            if slot.is_none() {
                *slot = Some((
                    Tensor::zeros(g.main.shape()),
                    g.secondary.as_ref().map(|s| Tensor::zeros(s.shape())),
                ));
            }
            let (vm, vs) = slot.as_mut().expect("velocity just initialized");
            // v = momentum*v + g + decay*p
            for ((v, &gv), &pv) in vm.data_mut().iter_mut().zip(g.main.data()).zip(main_p.data()) {
                *v = self.momentum * *v + gv + decay * pv;
            }
            main_p.add_scaled(vm, -self.lr).expect("shapes fixed at init");
            if let (Some(sp), Some(sv), Some(sg)) = (sec_p, vs.as_mut(), g.secondary.as_ref()) {
                // No weight decay on biases.
                for (v, &gv) in sv.data_mut().iter_mut().zip(sg.data()) {
                    *v = self.momentum * *v + gv;
                }
                sp.add_scaled(sv, -self.lr).expect("shapes fixed at init");
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
        let mut opt = MomentumSgd::new(0.05, 0.0, 0.0, a.graph().len());
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
        let mut opt = MomentumSgd::new(0.01, 0.9, 0.0, e.graph().len());
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

    #[test]
    fn weight_decay_shrinks_weights_without_gradients() {
        let g = gist_models::tiny_convnet(4, 3);
        let mut e = Executor::new(g, ExecMode::Baseline, 5).unwrap();
        let mut opt = MomentumSgd::new(0.1, 0.0, 0.1, e.graph().len());
        let w0: f32 = first_conv_weight(&e).iter().map(|v| v.abs()).sum();
        // Zero gradients, decay only.
        let zeros: Vec<Option<ParamGrads>> = e
            .graph()
            .nodes()
            .iter()
            .map(|n| {
                e.params.get(n.id.index()).map(|p| match p {
                    NodeParams::Conv { weight, bias } | NodeParams::Linear { weight, bias } => {
                        ParamGrads {
                            main: Tensor::zeros(weight.shape()),
                            secondary: bias.as_ref().map(|b| Tensor::zeros(b.shape())),
                        }
                    }
                    NodeParams::BatchNorm { gamma, beta } => ParamGrads {
                        main: Tensor::zeros(gamma.shape()),
                        secondary: Some(Tensor::zeros(beta.shape())),
                    },
                })
            })
            .collect();
        opt.step(&mut e.params, &zeros);
        let w1: f32 = first_conv_weight(&e).iter().map(|v| v.abs()).sum();
        assert!(w1 < w0, "decay should shrink weights: {w0} -> {w1}");
        assert!((w1 / w0 - 0.99).abs() < 1e-3, "p *= (1 - lr*decay) = 0.99");
    }

    fn first_conv_weight(e: &Executor) -> Vec<f32> {
        let idx = e
            .graph()
            .nodes()
            .iter()
            .position(|n| matches!(n.op, gist_graph::OpKind::Conv { .. }))
            .unwrap();
        match e.params.get(idx).unwrap() {
            NodeParams::Conv { weight, .. } => weight.data().to_vec(),
            _ => unreachable!(),
        }
    }
}
