//! The equivalence matrix (`tests/matrix/mod.rs`): every pair of axis values
//! its rules allow is crossed by a cell of the pair pass, which runs here —
//! split by model, so references of one model stay on one test thread —
//! beside the pairs no per-axis suite crossed and a seeded sample of the
//! full product.

mod matrix;

use gist_testkit::Runner;

#[test]
fn every_allowed_pair_of_axis_values_is_crossed() {
    let (allowed, uncovered) = matrix::coverage();
    eprintln!("{allowed} allowed pairs over {} cells", matrix::pass().len());
    assert!(uncovered.is_empty(), "pairs no cell crosses: {uncovered:?}");
}

fn pass_of(model: &str) {
    let model = matrix::values()[0].iter().position(|m| *m == model).expect("a model");
    for cell in matrix::pass().iter().filter(|c| c[0] == model && matrix::selected(c)) {
        matrix::check(cell);
    }
}

#[test]
fn pair_pass_tiny_convnet() {
    pass_of("tiny_convnet");
}

#[test]
fn pair_pass_small_vgg() {
    pass_of("small_vgg");
}

#[test]
fn pair_pass_tiny_classic() {
    pass_of("tiny_classic");
}

#[test]
fn pair_pass_resnet_cifar() {
    pass_of("resnet_cifar");
}

#[test]
fn pair_pass_densenet_cifar() {
    pass_of("densenet_cifar");
}

#[test]
fn pair_pass_four_branch() {
    pass_of("four_branch");
}

// Four same-wave gradient contributions into one map: an arena block merges
// each right after its compute, a concurrent heap block after all of them,
// and both must add them in program order.
matrix::views! {
    four_branch_merges_match_across_block_kinds: ["model=four_branch alloc=*"],
}

// Pairs no per-axis suite crossed before the matrix.
matrix::views! {
    pairs_first_crossed_by_the_matrix: [
        "model=tiny_classic alloc=* offload=* simd=*",
        "model=tiny_classic replicas=1|2|4|8",
        "model=small_vgg alloc=arena threads=* offload=*",
        "mode=lossless|fp8 replicas=1|2|4|8",
        "replicas=2 transport=mesh|tcp alloc=* mode=baseline|lossless",
        "model=small_vgg mode=fp8 offload=*",
    ],
}

#[test]
fn sampled_cells_match_their_references() {
    Runner::new("sampled_cells_match_their_references")
        .cases(4)
        .regressions_file("tests/equivalence_matrix.testkit-regressions")
        .run(&matrix::Sampled, |cell| {
            if matrix::selected(cell) {
                matrix::check(cell);
            }
        });
}
