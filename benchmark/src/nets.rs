//! The networks and inputs the workloads run. Shapes are fixed here and
//! never depend on the seed; the seed picks the inputs — dataset
//! prototypes, sample noise, job-mix order.

use gist::graph::Graph;
use gist::runtime::SyntheticImages;
use gist::tensor::ops::{conv::ConvParams, pool::PoolParams};
use gist::tensor::{Shape, Tensor};

pub const CLASSES: usize = 10;

/// Parameter initialisation is part of the program's configuration, not of
/// its input, and is the same in every run. (With eight channels a layer's
/// ReLU sparsity swings with its initial weights, and with it the SSDC
/// cost: a per-run init would make the Gist overhead of `train_stash`
/// differ by +-6% from seed to seed for no reason a change could act on.)
pub const PARAM_SEED: u64 = 7;

/// `train_conv`: VGG-style, 3x32x32 input, 3x3 convs at widths
/// 16-16 / 32-32 / 64-64-64 each followed by ReLU, a 2x2 max-pool after
/// each group, FC128-ReLU, FC10. Conv/GEMM dominated.
pub fn conv_net(batch: usize) -> Graph {
    let mut g = Graph::new("BenchConvNet");
    let mut x = g.input(Shape::nchw(batch, 3, 32, 32));
    let groups: [&[usize]; 3] = [&[16, 16], &[32, 32], &[64, 64, 64]];
    for (gi, widths) in groups.iter().enumerate() {
        for (ci, &w) in widths.iter().enumerate() {
            let name = format!("conv{}_{}", gi + 1, ci + 1);
            let c = g.conv(x, w, ConvParams::new(3, 1, 1), true, name.clone());
            x = g.relu(c, format!("{name}_relu"));
        }
        x = g.max_pool(x, PoolParams::new(2, 2, 0), format!("pool{}", gi + 1));
    }
    let f = g.linear(x, 128, true, "fc1");
    let r = g.relu(f, "fc1_relu");
    let out = g.linear(r, CLASSES, true, "fc2");
    g.softmax_loss(out, "loss");
    g
}

/// `train_stash`: 3x64x64 input, six (1x1 conv to 8 channels, ReLU) with a
/// 2x2 max-pool after every second pair, FC10. About 50 FLOPs per stashed
/// element, so the stash codecs are a large share of a Gist step.
pub fn stash_net(batch: usize) -> Graph {
    let mut g = Graph::new("BenchStashNet");
    let mut x = g.input(Shape::nchw(batch, 3, 64, 64));
    for i in 1..=6 {
        let c = g.conv(x, 8, ConvParams::new(1, 1, 0), true, format!("conv{i}"));
        x = g.relu(c, format!("conv{i}_relu"));
        if i % 2 == 0 {
            x = g.max_pool(x, PoolParams::new(2, 2, 0), format!("pool{}", i / 2));
        }
    }
    let out = g.linear(x, CLASSES, true, "fc");
    g.softmax_loss(out, "loss");
    g
}

/// `exchange_mlp`: 3x16x16 input, FC1024-ReLU, FC1024-ReLU, FC10 — 1.85 M
/// parameters, so one gradient copy is 7.4 MB and the exchange outweighs
/// the local compute.
pub fn wide_mlp(batch: usize) -> Graph {
    let mut g = Graph::new("BenchWideMLP");
    let x = g.input(Shape::nchw(batch, 3, 16, 16));
    let f1 = g.linear(x, 1024, true, "fc1");
    let r1 = g.relu(f1, "fc1_relu");
    let f2 = g.linear(r1, 1024, true, "fc2");
    let r2 = g.relu(f2, "fc2_relu");
    let out = g.linear(r2, CLASSES, true, "fc3");
    g.softmax_loss(out, "loss");
    g
}

/// One minibatch.
pub type Batch = (Tensor, Vec<usize>);

/// `count` minibatches of `batch` RGB images at `size`x`size`, drawn from
/// a dataset seeded by `seed`.
pub fn minibatches(seed: u64, size: usize, batch: usize, count: usize) -> Vec<Batch> {
    let mut ds = SyntheticImages::rgb(CLASSES, size, 0.3, seed);
    (0..count).map(|_| ds.minibatch(batch)).collect()
}

/// A splitmix64 stream for the few choices the benchmark itself makes from
/// the seed (job-mix order, per-job seeds).
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_inputs_but_not_shapes() {
        let a = minibatches(1, 32, 4, 2);
        let b = minibatches(2, 32, 4, 2);
        let a2 = minibatches(1, 32, 4, 2);
        assert_eq!(a[0].0.shape(), b[0].0.shape());
        assert_eq!(a[0].0, a2[0].0, "same seed, same inputs");
        assert_eq!(a[1].1, a2[1].1);
        assert_ne!(a[0].0, b[0].0, "another seed, other inputs");
        for g in [conv_net(4), stash_net(8), wide_mlp(4)] {
            assert!(g.infer_shapes().is_ok(), "{}", g.name());
        }
    }

    #[test]
    fn wide_mlp_gradient_is_7_4_mb() {
        let numels = gist::runtime::param_tensor_numels(&wide_mlp(4)).unwrap();
        let scalars: usize = numels.iter().sum();
        assert_eq!(scalars, 768 * 1024 + 1024 + 1024 * 1024 + 1024 + 1024 * 10 + 10);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..48).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
