//! Deterministic synthetic image datasets.
//!
//! ImageNet is not available in this environment, so training experiments
//! run on a synthetic classification task: each class is a fixed random
//! prototype image, and samples are prototypes plus Gaussian-ish noise.
//! The task is learnable by a small CNN in a few epochs, which is all the
//! accuracy-tracking experiments (Figure 12) and sparsity-ramp experiments
//! (Figure 14) require.

use crate::program::find_node;
use crate::RuntimeError;
use gist_graph::{Graph, OpKind};
use gist_tensor::{Shape, Tensor};
use gist_testkit::Rng;

/// A deterministic synthetic labelled-image stream.
#[derive(Debug, Clone)]
pub struct SyntheticImages {
    prototypes: Vec<Vec<f32>>,
    channels: usize,
    size: usize,
    noise: f32,
    rng: Rng,
}

/// Class count and input shape of the task `graph` trains on.
fn task_of(graph: &Graph) -> Result<(usize, Shape), RuntimeError> {
    let shapes = graph.infer_shapes()?;
    let input = find_node(graph, "input node", |op| matches!(op, OpKind::Input(_)))?;
    let loss = find_node(graph, "loss head", |op| matches!(op, OpKind::SoftmaxLoss))?;
    Ok((shapes[loss.inputs[0].index()].as_matrix().1, shapes[input.id.index()]))
}

impl SyntheticImages {
    /// Single-channel dataset of `classes` prototypes at `size`×`size`.
    pub fn new(classes: usize, size: usize, noise: f32, seed: u64) -> Self {
        Self::with_channels(classes, 1, size, noise, seed)
    }

    /// Three-channel (RGB-like) dataset.
    pub fn rgb(classes: usize, size: usize, noise: f32, seed: u64) -> Self {
        Self::with_channels(classes, 3, size, noise, seed)
    }

    /// The dataset `graph` trains on: class count from the width of the
    /// loss head's producer, channels and (square) geometry from the input
    /// node — both found by op, as the lowering finds them.
    ///
    /// # Errors
    ///
    /// Shape-inference failures, or [`RuntimeError::Trace`] for a graph
    /// without an input node or a loss head.
    pub fn for_graph(graph: &Graph, noise: f32, seed: u64) -> Result<Self, RuntimeError> {
        let (classes, image) = task_of(graph)?;
        Ok(Self::with_channels(classes, image.c(), image.h(), noise, seed))
    }

    fn with_channels(classes: usize, channels: usize, size: usize, noise: f32, seed: u64) -> Self {
        assert!(classes > 0, "need at least one class");
        let mut rng = Rng::seed_from_u64(seed);
        let prototypes = (0..classes)
            .map(|_| (0..channels * size * size).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        SyntheticImages { prototypes, channels, size, noise, rng }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.prototypes.len()
    }

    /// The NCHW shape a minibatch of `batch` images will have.
    pub fn batch_shape(&self, batch: usize) -> Shape {
        Shape::nchw(batch, self.channels, self.size, self.size)
    }

    /// Draws the next minibatch: images plus integer labels.
    pub fn minibatch(&mut self, batch: usize) -> (Tensor, Vec<usize>) {
        let per_image = self.channels * self.size * self.size;
        let mut data = Vec::with_capacity(batch * per_image);
        let mut labels = Vec::with_capacity(batch);
        for _ in 0..batch {
            let label = self.rng.gen_range(0..self.prototypes.len());
            labels.push(label);
            let noise = self.noise;
            for &p in &self.prototypes[label] {
                // Sum of two uniforms approximates a triangular (near-
                // Gaussian) noise distribution; deterministic per seed.
                let n = (self.rng.gen_range(-1.0f32..1.0) + self.rng.gen_range(-1.0f32..1.0)) / 2.0;
                data.push(p + noise * n);
            }
        }
        let t = Tensor::from_vec(self.batch_shape(batch), data).expect("sized correctly");
        (t, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SyntheticImages::new(4, 8, 0.2, 9);
        let mut b = SyntheticImages::new(4, 8, 0.2, 9);
        let (xa, ya) = a.minibatch(6);
        let (xb, yb) = b.minibatch(6);
        assert_eq!(xa, xb);
        assert_eq!(ya, yb);
    }

    #[test]
    fn for_graph_matches_every_zoo_model() {
        for name in gist_models::MODEL_NAMES {
            let g = gist_models::by_name(name, 2).expect("canonical name");
            let shapes = g.infer_shapes().unwrap();
            let input = g.nodes().iter().find(|n| matches!(n.op, OpKind::Input(_))).unwrap();
            let loss = g.nodes().iter().find(|n| matches!(n.op, OpKind::SoftmaxLoss)).unwrap();
            let (classes, image) = task_of(&g).expect(name);
            assert_eq!(image, shapes[input.id.index()], "{name}");
            assert_eq!(classes, shapes[loss.inputs[0].index()].as_matrix().1, "{name}");
            // ImageNet-sized prototypes are hundreds of MB; build the
            // dataset itself only for the trainable small nets.
            if classes * image.numel() < 1 << 16 {
                let mut ds = SyntheticImages::for_graph(&g, 0.3, 1).expect(name);
                assert_eq!(ds.classes(), classes, "{name}");
                let (x, y) = ds.minibatch(2);
                assert_eq!(x.shape(), image, "{name}");
                assert!(y.iter().all(|&l| l < classes), "{name}");
            }
        }
        let mut headless = Graph::new("headless");
        headless.input(Shape::nchw(1, 1, 4, 4));
        assert!(matches!(
            SyntheticImages::for_graph(&headless, 0.3, 1),
            Err(RuntimeError::Trace(_))
        ));
    }

    #[test]
    fn labels_in_range_and_shape_correct() {
        let mut ds = SyntheticImages::rgb(5, 12, 0.1, 3);
        let (x, y) = ds.minibatch(10);
        assert_eq!(x.shape(), Shape::nchw(10, 3, 12, 12));
        assert!(y.iter().all(|&l| l < 5));
        assert_eq!(y.len(), 10);
    }

    #[test]
    fn noise_zero_reproduces_prototypes() {
        let mut ds = SyntheticImages::new(2, 4, 0.0, 1);
        let (x, y) = ds.minibatch(4);
        for (i, &label) in y.iter().enumerate() {
            let img = &x.data()[i * 16..(i + 1) * 16];
            assert_eq!(img, &ds.prototypes[label][..]);
        }
    }

    #[test]
    fn samples_of_same_class_are_near_prototype() {
        let mut ds = SyntheticImages::new(3, 6, 0.1, 5);
        let (x, y) = ds.minibatch(8);
        for (i, &label) in y.iter().enumerate() {
            let img = &x.data()[i * 36..(i + 1) * 36];
            let max_dev = img
                .iter()
                .zip(&ds.prototypes[label])
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_dev <= 0.1 + 1e-6);
        }
    }
}
