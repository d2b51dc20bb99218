#![warn(missing_docs)]

//! # gist-models
//!
//! The model zoo: execution graphs for the six CNNs of the paper's
//! evaluation (AlexNet, NiN, Overfeat, VGG16, Inception/GoogLeNet and
//! ResNet) at their genuine ImageNet-era layer shapes, plus small trainable
//! networks used by the runtime experiments (accuracy curves, sparsity
//! probes).
//!
//! Only shapes matter for the paper's memory results, so each builder takes
//! the minibatch size as a parameter; the default image geometry matches
//! what each network was published with (224x224 for most, 231x231 for
//! Overfeat, 32x32 for CIFAR-style ResNet).
//!
//! ```
//! let g = gist_models::alexnet(64);
//! assert!(g.infer_shapes().is_ok());
//! ```

use gist_graph::{Graph, NodeId};
use gist_tensor::ops::conv::ConvParams;
use gist_tensor::ops::lrn::LrnParams;
use gist_tensor::ops::pool::PoolParams;
use gist_tensor::Shape;

/// ImageNet class count used by all large models.
pub const IMAGENET_CLASSES: usize = 1000;

/// Adds `conv -> relu`, returning the relu id.
fn conv_relu(g: &mut Graph, x: NodeId, out_c: usize, p: ConvParams, name: &str) -> NodeId {
    let c = g.conv(x, out_c, p, true, name.to_string());
    g.relu(c, format!("{name}_relu"))
}

/// Adds `linear -> relu`, returning the relu id.
fn fc_relu(g: &mut Graph, x: NodeId, out_f: usize, name: &str) -> NodeId {
    let f = g.linear(x, out_f, true, name.to_string());
    g.relu(f, format!("{name}_relu"))
}

/// AlexNet (Krizhevsky et al. 2012), single-tower variant without LRN.
pub fn alexnet(batch: usize) -> Graph {
    let mut g = Graph::new("AlexNet");
    let x = g.input(Shape::nchw(batch, 3, 224, 224));
    let r1 = conv_relu(&mut g, x, 96, ConvParams::new(11, 4, 2), "conv1");
    let p1 = g.max_pool(r1, PoolParams::new(3, 2, 0), "pool1");
    let r2 = conv_relu(&mut g, p1, 256, ConvParams::new(5, 1, 2), "conv2");
    let p2 = g.max_pool(r2, PoolParams::new(3, 2, 0), "pool2");
    let r3 = conv_relu(&mut g, p2, 384, ConvParams::new(3, 1, 1), "conv3");
    let r4 = conv_relu(&mut g, r3, 384, ConvParams::new(3, 1, 1), "conv4");
    let r5 = conv_relu(&mut g, r4, 256, ConvParams::new(3, 1, 1), "conv5");
    let p5 = g.max_pool(r5, PoolParams::new(3, 2, 0), "pool5");
    let f6 = fc_relu(&mut g, p5, 4096, "fc6");
    let f7 = fc_relu(&mut g, f6, 4096, "fc7");
    let f8 = g.linear(f7, IMAGENET_CLASSES, true, "fc8");
    g.softmax_loss(f8, "loss");
    g
}

/// AlexNet as originally published: conv-relu-LRN-pool for the first two
/// groups and dropout on the fully-connected activations. The LRN outputs
/// and dropout masks exercise the "Others" stash category and the
/// bit-packed auxiliary mask accounting.
pub fn alexnet_classic(batch: usize) -> Graph {
    let mut g = Graph::new("AlexNet-classic");
    let x = g.input(Shape::nchw(batch, 3, 224, 224));
    let r1 = conv_relu(&mut g, x, 96, ConvParams::new(11, 4, 2), "conv1");
    let n1 = g.lrn(r1, LrnParams::alexnet(), "norm1");
    let p1 = g.max_pool(n1, PoolParams::new(3, 2, 0), "pool1");
    let r2 = conv_relu(&mut g, p1, 256, ConvParams::new(5, 1, 2), "conv2");
    let n2 = g.lrn(r2, LrnParams::alexnet(), "norm2");
    let p2 = g.max_pool(n2, PoolParams::new(3, 2, 0), "pool2");
    let r3 = conv_relu(&mut g, p2, 384, ConvParams::new(3, 1, 1), "conv3");
    let r4 = conv_relu(&mut g, r3, 384, ConvParams::new(3, 1, 1), "conv4");
    let r5 = conv_relu(&mut g, r4, 256, ConvParams::new(3, 1, 1), "conv5");
    let p5 = g.max_pool(r5, PoolParams::new(3, 2, 0), "pool5");
    let f6 = fc_relu(&mut g, p5, 4096, "fc6");
    let d6 = g.dropout(f6, 0.5, "drop6");
    let f7 = fc_relu(&mut g, d6, 4096, "fc7");
    let d7 = g.dropout(f7, 0.5, "drop7");
    let f8 = g.linear(d7, IMAGENET_CLASSES, true, "fc8");
    g.softmax_loss(f8, "loss");
    g
}

/// VGG16 (Simonyan & Zisserman 2014), configuration D.
pub fn vgg16(batch: usize) -> Graph {
    let mut g = Graph::new("VGG16");
    let mut x = g.input(Shape::nchw(batch, 3, 224, 224));
    let blocks: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    for (bi, (ch, n)) in blocks.iter().enumerate() {
        for ci in 0..*n {
            x = conv_relu(
                &mut g,
                x,
                *ch,
                ConvParams::new(3, 1, 1),
                &format!("conv{}_{}", bi + 1, ci + 1),
            );
        }
        x = g.max_pool(x, PoolParams::new(2, 2, 0), format!("pool{}", bi + 1));
    }
    let f6 = fc_relu(&mut g, x, 4096, "fc6");
    let f7 = fc_relu(&mut g, f6, 4096, "fc7");
    let f8 = g.linear(f7, IMAGENET_CLASSES, true, "fc8");
    g.softmax_loss(f8, "loss");
    g
}

/// Network in Network (Lin et al. 2013), ImageNet configuration: each
/// spatial convolution is followed by two 1x1 "cccp" convolutions.
pub fn nin(batch: usize) -> Graph {
    let mut g = Graph::new("NiN");
    let x = g.input(Shape::nchw(batch, 3, 224, 224));
    let mut h = conv_relu(&mut g, x, 96, ConvParams::new(11, 4, 0), "conv1");
    h = conv_relu(&mut g, h, 96, ConvParams::new(1, 1, 0), "cccp1");
    h = conv_relu(&mut g, h, 96, ConvParams::new(1, 1, 0), "cccp2");
    h = g.max_pool(h, PoolParams::new(3, 2, 0), "pool1");
    h = conv_relu(&mut g, h, 256, ConvParams::new(5, 1, 2), "conv2");
    h = conv_relu(&mut g, h, 256, ConvParams::new(1, 1, 0), "cccp3");
    h = conv_relu(&mut g, h, 256, ConvParams::new(1, 1, 0), "cccp4");
    h = g.max_pool(h, PoolParams::new(3, 2, 0), "pool2");
    h = conv_relu(&mut g, h, 384, ConvParams::new(3, 1, 1), "conv3");
    h = conv_relu(&mut g, h, 384, ConvParams::new(1, 1, 0), "cccp5");
    h = conv_relu(&mut g, h, 384, ConvParams::new(1, 1, 0), "cccp6");
    h = g.max_pool(h, PoolParams::new(3, 2, 0), "pool3");
    h = conv_relu(&mut g, h, 1024, ConvParams::new(3, 1, 1), "conv4");
    h = conv_relu(&mut g, h, 1024, ConvParams::new(1, 1, 0), "cccp7");
    h = conv_relu(&mut g, h, IMAGENET_CLASSES, ConvParams::new(1, 1, 0), "cccp8");
    // Global average pooling over the remaining spatial extent.
    let shapes = g.infer_shapes().expect("nin shapes");
    let hw = shapes[h.index()].h();
    let gap = g.avg_pool(h, PoolParams::new(hw, 1, 0), "global_avgpool");
    g.softmax_loss(gap, "loss");
    g
}

/// Overfeat (Sermanet et al. 2013), fast model, 231x231 input.
pub fn overfeat(batch: usize) -> Graph {
    let mut g = Graph::new("Overfeat");
    let x = g.input(Shape::nchw(batch, 3, 231, 231));
    let r1 = conv_relu(&mut g, x, 96, ConvParams::new(11, 4, 0), "conv1");
    let p1 = g.max_pool(r1, PoolParams::new(2, 2, 0), "pool1");
    let r2 = conv_relu(&mut g, p1, 256, ConvParams::new(5, 1, 0), "conv2");
    let p2 = g.max_pool(r2, PoolParams::new(2, 2, 0), "pool2");
    let r3 = conv_relu(&mut g, p2, 512, ConvParams::new(3, 1, 1), "conv3");
    let r4 = conv_relu(&mut g, r3, 1024, ConvParams::new(3, 1, 1), "conv4");
    let r5 = conv_relu(&mut g, r4, 1024, ConvParams::new(3, 1, 1), "conv5");
    let p5 = g.max_pool(r5, PoolParams::new(2, 2, 0), "pool5");
    let f6 = fc_relu(&mut g, p5, 3072, "fc6");
    let f7 = fc_relu(&mut g, f6, 4096, "fc7");
    let f8 = g.linear(f7, IMAGENET_CLASSES, true, "fc8");
    g.softmax_loss(f8, "loss");
    g
}

/// One GoogLeNet inception module.
///
/// Branch channel counts follow the original paper's Table 1:
/// `(#1x1, #3x3reduce, #3x3, #5x5reduce, #5x5, pool-proj)`.
#[allow(clippy::too_many_arguments)]
fn inception_module(
    g: &mut Graph,
    x: NodeId,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    cp: usize,
    name: &str,
) -> NodeId {
    let b1 = conv_relu(g, x, c1, ConvParams::new(1, 1, 0), &format!("{name}_1x1"));
    let b3r = conv_relu(g, x, c3r, ConvParams::new(1, 1, 0), &format!("{name}_3x3r"));
    let b3 = conv_relu(g, b3r, c3, ConvParams::new(3, 1, 1), &format!("{name}_3x3"));
    let b5r = conv_relu(g, x, c5r, ConvParams::new(1, 1, 0), &format!("{name}_5x5r"));
    let b5 = conv_relu(g, b5r, c5, ConvParams::new(5, 1, 2), &format!("{name}_5x5"));
    let bp = g.max_pool(x, PoolParams::new(3, 1, 1), format!("{name}_pool"));
    let bpp = conv_relu(g, bp, cp, ConvParams::new(1, 1, 0), &format!("{name}_poolproj"));
    g.concat(&[b1, b3, b5, bpp], format!("{name}_concat"))
}

/// Inception v1 / GoogLeNet (Szegedy et al. 2014), without the auxiliary
/// classifier heads.
pub fn inception(batch: usize) -> Graph {
    let mut g = Graph::new("Inception");
    let x = g.input(Shape::nchw(batch, 3, 224, 224));
    let r1 = conv_relu(&mut g, x, 64, ConvParams::new(7, 2, 3), "conv1");
    let p1 = g.max_pool(r1, PoolParams::new(3, 2, 1), "pool1");
    let r2a = conv_relu(&mut g, p1, 64, ConvParams::new(1, 1, 0), "conv2_reduce");
    let r2 = conv_relu(&mut g, r2a, 192, ConvParams::new(3, 1, 1), "conv2");
    let p2 = g.max_pool(r2, PoolParams::new(3, 2, 1), "pool2");
    let i3a = inception_module(&mut g, p2, 64, 96, 128, 16, 32, 32, "3a");
    let i3b = inception_module(&mut g, i3a, 128, 128, 192, 32, 96, 64, "3b");
    let p3 = g.max_pool(i3b, PoolParams::new(3, 2, 1), "pool3");
    let i4a = inception_module(&mut g, p3, 192, 96, 208, 16, 48, 64, "4a");
    let i4b = inception_module(&mut g, i4a, 160, 112, 224, 24, 64, 64, "4b");
    let i4c = inception_module(&mut g, i4b, 128, 128, 256, 24, 64, 64, "4c");
    let i4d = inception_module(&mut g, i4c, 112, 144, 288, 32, 64, 64, "4d");
    let i4e = inception_module(&mut g, i4d, 256, 160, 320, 32, 128, 128, "4e");
    let p4 = g.max_pool(i4e, PoolParams::new(3, 2, 1), "pool4");
    let i5a = inception_module(&mut g, p4, 256, 160, 320, 32, 128, 128, "5a");
    let i5b = inception_module(&mut g, i5a, 384, 192, 384, 48, 128, 128, "5b");
    let gap = g.avg_pool(i5b, PoolParams::new(7, 1, 0), "global_avgpool");
    let fc = g.linear(gap, IMAGENET_CLASSES, true, "fc");
    g.softmax_loss(fc, "loss");
    g
}

/// One basic (two 3x3 convolutions) residual block with batch norm.
fn basic_block(g: &mut Graph, x: NodeId, channels: usize, stride: usize, name: &str) -> NodeId {
    let c1 = g.conv(x, channels, ConvParams::new(3, stride, 1), false, format!("{name}_conv1"));
    let b1 = g.batch_norm(c1, format!("{name}_bn1"));
    let r1 = g.relu(b1, format!("{name}_relu1"));
    let c2 = g.conv(r1, channels, ConvParams::new(3, 1, 1), false, format!("{name}_conv2"));
    let b2 = g.batch_norm(c2, format!("{name}_bn2"));
    let shortcut = if stride != 1 {
        let sc = g.conv(x, channels, ConvParams::new(1, stride, 0), false, format!("{name}_proj"));
        g.batch_norm(sc, format!("{name}_projbn"))
    } else {
        x
    };
    let sum = g.add(b2, shortcut, format!("{name}_add"));
    g.relu(sum, format!("{name}_relu2"))
}

/// One ImageNet bottleneck residual block (1x1 reduce, 3x3, 1x1 expand),
/// with batch norm after each convolution.
fn bottleneck_block(
    g: &mut Graph,
    x: NodeId,
    mid: usize,
    out: usize,
    stride: usize,
    project: bool,
    name: &str,
) -> NodeId {
    let c1 = g.conv(x, mid, ConvParams::new(1, 1, 0), false, format!("{name}_conv1"));
    let b1 = g.batch_norm(c1, format!("{name}_bn1"));
    let r1 = g.relu(b1, format!("{name}_relu1"));
    let c2 = g.conv(r1, mid, ConvParams::new(3, stride, 1), false, format!("{name}_conv2"));
    let b2 = g.batch_norm(c2, format!("{name}_bn2"));
    let r2 = g.relu(b2, format!("{name}_relu2"));
    let c3 = g.conv(r2, out, ConvParams::new(1, 1, 0), false, format!("{name}_conv3"));
    let b3 = g.batch_norm(c3, format!("{name}_bn3"));
    let shortcut = if project {
        let sc = g.conv(x, out, ConvParams::new(1, stride, 0), false, format!("{name}_proj"));
        g.batch_norm(sc, format!("{name}_projbn"))
    } else {
        x
    };
    let sum = g.add(b3, shortcut, format!("{name}_add"));
    g.relu(sum, format!("{name}_relu3"))
}

/// ImageNet ResNet-50 (He et al. 2015): bottleneck stages of [3, 4, 6, 3]
/// blocks at 256/512/1024/2048 output channels on 224x224 inputs.
pub fn resnet50(batch: usize) -> Graph {
    let mut g = Graph::new("ResNet-50");
    let x = g.input(Shape::nchw(batch, 3, 224, 224));
    let c0 = g.conv(x, 64, ConvParams::new(7, 2, 3), false, "conv1");
    let b0 = g.batch_norm(c0, "bn1");
    let r0 = g.relu(b0, "relu1");
    let mut h = g.max_pool(r0, PoolParams::new(3, 2, 1), "pool1");
    let stages: [(usize, usize, usize); 4] =
        [(64, 256, 3), (128, 512, 4), (256, 1024, 6), (512, 2048, 3)];
    for (si, (mid, out, blocks)) in stages.iter().enumerate() {
        for b in 0..*blocks {
            let stride = if si > 0 && b == 0 { 2 } else { 1 };
            let project = b == 0;
            h = bottleneck_block(
                &mut g,
                h,
                *mid,
                *out,
                stride,
                project,
                &format!("s{}b{b}", si + 2),
            );
        }
    }
    let gap = g.avg_pool(h, PoolParams::new(7, 1, 0), "global_avgpool");
    let fc = g.linear(gap, IMAGENET_CLASSES, true, "fc");
    g.softmax_loss(fc, "loss");
    g
}

/// CIFAR-style ResNet of depth `6n + 2` (He et al. 2015, Section 4.2): three
/// stages of `n` basic blocks at 16/32/64 channels on 32x32 inputs. This is
/// the composable family the paper scales to 1202 layers in Figure 16.
pub fn resnet_cifar(n: usize, batch: usize) -> Graph {
    let mut g = Graph::new(format!("ResNet-{}", 6 * n + 2));
    let x = g.input(Shape::nchw(batch, 3, 32, 32));
    let c0 = g.conv(x, 16, ConvParams::new(3, 1, 1), false, "conv0");
    let b0 = g.batch_norm(c0, "bn0");
    let mut h = g.relu(b0, "relu0");
    for (stage, channels) in [(1usize, 16usize), (2, 32), (3, 64)] {
        for block in 0..n {
            let stride = if stage > 1 && block == 0 { 2 } else { 1 };
            h = basic_block(&mut g, h, channels, stride, &format!("s{stage}b{block}"));
        }
    }
    let gap = g.avg_pool(h, PoolParams::new(8, 1, 0), "global_avgpool");
    let fc = g.linear(gap, 10, true, "fc");
    g.softmax_loss(fc, "loss");
    g
}

/// ResNet of approximately the requested `depth`, rounding to the nearest
/// valid `6n + 2` (the paper cites depths 509, 851 and 1202; 1202 is exact,
/// the others round to 506 and 848).
pub fn resnet_deep(depth: usize, batch: usize) -> Graph {
    let n = ((depth.saturating_sub(2)) / 6).max(1);
    resnet_cifar(n, batch)
}

/// DenseNet-BC for CIFAR (Huang et al. 2016): depth `L = 6n + 4`, growth
/// rate `k`, bottleneck layers (BN-ReLU-1x1 -> BN-ReLU-3x3) and 0.5x
/// compression transitions.
///
/// The paper's related work cites a memory-optimized DenseNet ([39]) and
/// notes "CNTK memory allocator already implements this memory sharing" —
/// DenseNet's concat-heavy connectivity is the stress test for that claim
/// (see the `end_to_end_planning` integration tests).
pub fn densenet_cifar(n: usize, growth: usize, batch: usize) -> Graph {
    let depth = 6 * n + 4;
    let mut g = Graph::new(format!("DenseNet-BC-{depth}"));
    let x = g.input(Shape::nchw(batch, 3, 32, 32));
    let mut channels = 2 * growth;
    let mut h = g.conv(x, channels, ConvParams::new(3, 1, 1), false, "conv0");
    for block in 1..=3 {
        for layer in 0..n {
            let name = format!("b{block}l{layer}");
            let b1 = g.batch_norm(h, format!("{name}_bn1"));
            let r1 = g.relu(b1, format!("{name}_relu1"));
            let c1 =
                g.conv(r1, 4 * growth, ConvParams::new(1, 1, 0), false, format!("{name}_conv1"));
            let b2 = g.batch_norm(c1, format!("{name}_bn2"));
            let r2 = g.relu(b2, format!("{name}_relu2"));
            let c2 = g.conv(r2, growth, ConvParams::new(3, 1, 1), false, format!("{name}_conv2"));
            h = g.concat(&[h, c2], format!("{name}_concat"));
            channels += growth;
        }
        if block < 3 {
            let name = format!("t{block}");
            let bn = g.batch_norm(h, format!("{name}_bn"));
            let r = g.relu(bn, format!("{name}_relu"));
            channels /= 2;
            let c = g.conv(r, channels, ConvParams::new(1, 1, 0), false, format!("{name}_conv"));
            h = g.avg_pool(c, PoolParams::new(2, 2, 0), format!("{name}_pool"));
        }
    }
    let bn = g.batch_norm(h, "final_bn");
    let r = g.relu(bn, "final_relu");
    let shapes = g.infer_shapes().expect("densenet shapes");
    let hw = shapes[r.index()].h();
    let gap = g.avg_pool(r, PoolParams::new(hw, 1, 0), "global_avgpool");
    let fc = g.linear(gap, 10, true, "fc");
    g.softmax_loss(fc, "loss");
    g
}

/// The paper's five Figure-1/Figure-8 CNNs at a given minibatch size.
pub fn paper_suite(batch: usize) -> Vec<Graph> {
    vec![alexnet(batch), nin(batch), overfeat(batch), vgg16(batch), inception(batch)]
}

/// A small trainable CNN with LRN and dropout, for runtime tests of the
/// classic-layer execution paths. Input is `1 x 16 x 16`.
pub fn tiny_classic(batch: usize, classes: usize) -> Graph {
    let mut g = Graph::new("TinyClassic");
    let x = g.input(Shape::nchw(batch, 1, 16, 16));
    let r1 = conv_relu(&mut g, x, 8, ConvParams::new(3, 1, 1), "conv1");
    let n1 = g.lrn(r1, LrnParams { size: 3, alpha: 1e-3, beta: 0.75, k: 1.0 }, "norm1");
    let p1 = g.max_pool(n1, PoolParams::new(2, 2, 0), "pool1");
    let r2 = conv_relu(&mut g, p1, 16, ConvParams::new(3, 1, 1), "conv2");
    let p2 = g.max_pool(r2, PoolParams::new(2, 2, 0), "pool2");
    let fc1 = fc_relu(&mut g, p2, 32, "fc1");
    let d1 = g.dropout(fc1, 0.25, "drop1");
    let fc2 = g.linear(d1, classes, true, "fc2");
    g.softmax_loss(fc2, "loss");
    g
}

/// A small trainable CNN (conv-relu-pool twice, then FC) for runtime
/// accuracy experiments on synthetic data. Input is `1 x 16 x 16`.
pub fn tiny_convnet(batch: usize, classes: usize) -> Graph {
    let mut g = Graph::new("TinyConvNet");
    let x = g.input(Shape::nchw(batch, 1, 16, 16));
    let r1 = conv_relu(&mut g, x, 8, ConvParams::new(3, 1, 1), "conv1");
    let p1 = g.max_pool(r1, PoolParams::new(2, 2, 0), "pool1");
    let r2 = conv_relu(&mut g, p1, 16, ConvParams::new(3, 1, 1), "conv2");
    let p2 = g.max_pool(r2, PoolParams::new(2, 2, 0), "pool2");
    let fc = g.linear(p2, classes, true, "fc");
    g.softmax_loss(fc, "loss");
    g
}

/// A miniature VGG-style network (stacked ReLU-Conv pairs) whose stashed
/// feature maps exercise every Gist encoding; used by the SSDC sensitivity
/// experiment (Figure 14). Input is `1 x 16 x 16`.
pub fn small_vgg(batch: usize, classes: usize) -> Graph {
    let mut g = Graph::new("SmallVGG");
    let x = g.input(Shape::nchw(batch, 1, 16, 16));
    let r1 = conv_relu(&mut g, x, 8, ConvParams::new(3, 1, 1), "conv1_1");
    let r2 = conv_relu(&mut g, r1, 8, ConvParams::new(3, 1, 1), "conv1_2");
    let p1 = g.max_pool(r2, PoolParams::new(2, 2, 0), "pool1");
    let r3 = conv_relu(&mut g, p1, 16, ConvParams::new(3, 1, 1), "conv2_1");
    let r4 = conv_relu(&mut g, r3, 16, ConvParams::new(3, 1, 1), "conv2_2");
    let p2 = g.max_pool(r4, PoolParams::new(2, 2, 0), "pool2");
    let fc = g.linear(p2, classes, true, "fc");
    g.softmax_loss(fc, "loss");
    g
}

/// Canonical zoo names accepted by [`by_name`] — the single spelling list
/// shared by the CLI's `--model` flag and gist-serve's job-spec grammar.
pub const MODEL_NAMES: &[&str] = &[
    "alexnet",
    "alexnet-classic",
    "nin",
    "overfeat",
    "vgg16",
    "inception",
    "resnet50",
    "resnet-cifar",
    "densenet",
    "tiny-convnet",
    "small-vgg",
    "tiny-classic",
];

/// Builds a zoo model by its canonical name at the given minibatch size
/// (`None` for an unknown name). The parameterised builders are pinned at
/// their published depths (ResNet-110, DenseNet-BC-100) and the small
/// trainable networks at 3 classes.
pub fn by_name(name: &str, batch: usize) -> Option<Graph> {
    Some(match name {
        "alexnet" => alexnet(batch),
        "alexnet-classic" => alexnet_classic(batch),
        "nin" => nin(batch),
        "overfeat" => overfeat(batch),
        "vgg16" => vgg16(batch),
        "inception" => inception(batch),
        "resnet50" => resnet50(batch),
        "resnet-cifar" => resnet_cifar(18, batch),
        "densenet" => densenet_cifar(16, 12, batch),
        "tiny-convnet" => tiny_convnet(batch, 3),
        "small-vgg" => small_vgg(batch, 3),
        "tiny-classic" => tiny_classic(batch, 3),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_graph::class::{baseline_inventory, class_totals};
    use gist_graph::DataClass;

    fn stashed_gb(g: &Graph) -> f64 {
        let inv = baseline_inventory(g).unwrap();
        let t = class_totals(&inv);
        t.iter().find(|(c, _)| *c == DataClass::StashedFmap).unwrap().1 as f64 / (1u64 << 30) as f64
    }

    #[test]
    fn all_paper_models_infer_shapes() {
        for g in paper_suite(64) {
            assert!(g.infer_shapes().is_ok(), "{}", g.name());
        }
    }

    #[test]
    fn alexnet_canonical_layer_shapes() {
        let g = alexnet(1);
        let s = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let n = g.nodes().iter().find(|n| n.name == name).unwrap();
            s[n.id.index()]
        };
        assert_eq!(by_name("conv1"), Shape::nchw(1, 96, 55, 55));
        assert_eq!(by_name("pool1"), Shape::nchw(1, 96, 27, 27));
        assert_eq!(by_name("conv2"), Shape::nchw(1, 256, 27, 27));
        assert_eq!(by_name("pool2"), Shape::nchw(1, 256, 13, 13));
        assert_eq!(by_name("conv5"), Shape::nchw(1, 256, 13, 13));
        assert_eq!(by_name("pool5"), Shape::nchw(1, 256, 6, 6));
        assert_eq!(by_name("fc6"), Shape::matrix(1, 4096));
    }

    #[test]
    fn vgg16_has_13_convs_and_canonical_shapes() {
        let g = vgg16(1);
        let convs =
            g.nodes().iter().filter(|n| matches!(n.op, gist_graph::OpKind::Conv { .. })).count();
        assert_eq!(convs, 13);
        let s = g.infer_shapes().unwrap();
        let pool5 = g.nodes().iter().find(|n| n.name == "pool5").unwrap();
        assert_eq!(s[pool5.id.index()], Shape::nchw(1, 512, 7, 7));
    }

    #[test]
    fn inception_channel_progression() {
        let g = inception(1);
        let s = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let n = g.nodes().iter().find(|n| n.name == name).unwrap();
            s[n.id.index()]
        };
        assert_eq!(by_name("3a_concat"), Shape::nchw(1, 256, 28, 28));
        assert_eq!(by_name("3b_concat"), Shape::nchw(1, 480, 28, 28));
        assert_eq!(by_name("4e_concat"), Shape::nchw(1, 832, 14, 14));
        assert_eq!(by_name("5b_concat"), Shape::nchw(1, 1024, 7, 7));
        assert_eq!(by_name("global_avgpool"), Shape::nchw(1, 1024, 1, 1));
    }

    #[test]
    fn overfeat_spatial_sizes() {
        let g = overfeat(1);
        let s = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let n = g.nodes().iter().find(|n| n.name == name).unwrap();
            s[n.id.index()]
        };
        assert_eq!(by_name("conv1"), Shape::nchw(1, 96, 56, 56));
        assert_eq!(by_name("pool5"), Shape::nchw(1, 1024, 6, 6));
    }

    #[test]
    fn resnet_depth_formula() {
        // depth = 6n+2 nodes of *convolution* layers (2 per block * 3n blocks
        // + initial conv + fc).
        for n in [3usize, 5, 18] {
            let g = resnet_cifar(n, 1);
            let convs = g
                .nodes()
                .iter()
                .filter(|nd| matches!(nd.op, gist_graph::OpKind::Conv { .. }))
                .count();
            // 6n block convs + conv0 + 2 projection convs (stage 2, 3).
            assert_eq!(convs, 6 * n + 3);
            assert!(g.infer_shapes().is_ok());
            assert_eq!(g.name(), format!("ResNet-{}", 6 * n + 2));
        }
    }

    #[test]
    fn resnet_deep_rounds_paper_depths() {
        assert_eq!(resnet_deep(1202, 1).name(), "ResNet-1202");
        assert_eq!(resnet_deep(509, 1).name(), "ResNet-506");
        assert_eq!(resnet_deep(851, 1).name(), "ResNet-848");
    }

    #[test]
    fn vgg16_stashed_footprint_dominates_and_is_gigabytes_at_batch64() {
        // Figure 1: VGG16 at minibatch 64 has multi-GB stashed feature maps.
        let g = vgg16(64);
        let stashed = stashed_gb(&g);
        assert!(stashed > 2.0, "VGG16 stashed fmaps should be > 2 GB, got {stashed:.2}");
        let inv = baseline_inventory(&g).unwrap();
        let totals = class_totals(&inv);
        let get = |c: DataClass| totals.iter().find(|(cc, _)| *cc == c).unwrap().1;
        let stashed_b = get(DataClass::StashedFmap);
        let weights = get(DataClass::Weight);
        assert!(
            stashed_b > 5 * weights,
            "stashed ({stashed_b}) should dwarf weights ({weights}) in training"
        );
    }

    #[test]
    fn resnet50_canonical_shapes() {
        let g = resnet50(1);
        let s = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let n = g.nodes().iter().find(|n| n.name == name).unwrap();
            s[n.id.index()]
        };
        assert_eq!(by_name("pool1"), Shape::nchw(1, 64, 56, 56));
        assert_eq!(by_name("s2b2_relu3"), Shape::nchw(1, 256, 56, 56));
        assert_eq!(by_name("s3b0_relu3"), Shape::nchw(1, 512, 28, 28));
        assert_eq!(by_name("s5b2_relu3"), Shape::nchw(1, 2048, 7, 7));
        assert_eq!(by_name("global_avgpool"), Shape::nchw(1, 2048, 1, 1));
        // 53 convolutions: 1 stem + 3*3+3 + 4*3+1... = 1 + (9+1)+(12+1)+(18+1)+(9+1) = 53
        let convs =
            g.nodes().iter().filter(|n| matches!(n.op, gist_graph::OpKind::Conv { .. })).count();
        assert_eq!(convs, 53);
    }

    #[test]
    fn alexnet_classic_has_lrn_and_dropout() {
        let g = alexnet_classic(2);
        assert!(g.infer_shapes().is_ok());
        let lrn = g.nodes().iter().filter(|n| matches!(n.op, gist_graph::OpKind::Lrn(_))).count();
        let drop =
            g.nodes().iter().filter(|n| matches!(n.op, gist_graph::OpKind::Dropout { .. })).count();
        assert_eq!(lrn, 2);
        assert_eq!(drop, 2);
        // LRN preserves shape.
        let s = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let n = g.nodes().iter().find(|n| n.name == name).unwrap();
            s[n.id.index()]
        };
        assert_eq!(by_name("norm1"), by_name("conv1_relu"));
    }

    #[test]
    fn densenet_bc_100_shapes_and_params() {
        // DenseNet-BC L=100 (n=16), k=12: ~0.80M parameters.
        let g = densenet_cifar(16, 12, 1);
        assert_eq!(g.name(), "DenseNet-BC-100");
        let s = g.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let n = g.nodes().iter().find(|n| n.name == name).unwrap();
            s[n.id.index()]
        };
        // Block 1 output: 24 + 16*12 = 216 channels at 32x32.
        assert_eq!(by_name("b1l15_concat"), Shape::nchw(1, 216, 32, 32));
        // Transition halves channels and spatial size.
        assert_eq!(by_name("t1_pool"), Shape::nchw(1, 108, 16, 16));
        assert_eq!(by_name("global_avgpool").c(), 342);
    }

    #[test]
    fn small_models_train_ready() {
        for g in [tiny_convnet(4, 3), small_vgg(4, 3), tiny_classic(4, 3)] {
            assert!(g.infer_shapes().is_ok(), "{}", g.name());
            assert!(matches!(g.nodes().last().unwrap().op, gist_graph::OpKind::SoftmaxLoss));
        }
    }

    #[test]
    fn every_canonical_name_builds_and_unknowns_do_not() {
        for name in MODEL_NAMES {
            let g = by_name(name, 2).unwrap_or_else(|| panic!("{name} must build"));
            assert!(g.infer_shapes().is_ok(), "{name}");
        }
        assert!(by_name("resnet", 2).is_none());
        assert!(by_name("", 2).is_none());
    }
}
