//! Forward and backward CPU kernels for the layer types used by the paper's
//! six CNNs (AlexNet, NiN, Overfeat, VGG16, Inception, ResNet).

pub mod batchnorm;
pub mod conv;
pub mod dropout;
pub mod elementwise;
pub mod linear;
pub mod lrn;
pub mod pool;
pub mod relu;
pub mod softmax;
