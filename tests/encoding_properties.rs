//! Property-based tests (gist-testkit) for the encoding substrates and the
//! memory planner: the invariants that must hold for *any* input, not just
//! the paper's networks. Each property runs 256 generated cases (the same
//! count the proptest version used) from seeds derived from the property
//! name, so failures are reproducible from the printed `seed 0x…` line.

use gist::encodings::csr::{self, SsdcConfig};
use gist::encodings::dpr::DprBuffer;
use gist::encodings::{
    BitMask, CsrMatrix, DprFormat, EncodingError, PoolIndexMap, RoundingMode, StashCodec,
    TransferCodec, Wire, WireError, WireRef,
};
use gist::graph::{DataClass, DataStructure, Interval, NodeId, TensorRole};
use gist::memory::{peak_dynamic, plan_static, SharingPolicy};
use gist::simd::{available_levels, with_level, Level};
use gist::tensor::ops::conv::{self, ConvParams};
use gist::tensor::ops::relu;
use gist::tensor::{ScratchPool, Shape, Tensor};
use gist_testkit::prop::{bools, boxed, just, one_of, vec_of, weighted, Strategy};
use gist_testkit::Runner;

fn finite_f32() -> impl Strategy<Value = f32> {
    one_of(vec![
        boxed(-1e6f32..1e6f32),
        boxed(-1.0f32..1.0),
        boxed(-1e-3f32..1e-3),
        boxed(just(0.0f32)),
        boxed(just(-0.0f32)),
    ])
}

/// Adversarial f32s for the per-`GIST_SIMD`-level round-trips: NaN, both
/// infinities, both zeros, subnormals, and extreme normals. The pinned
/// seeds in `tests/encoding_properties.testkit-regressions` replay through
/// this strategy.
fn hostile_f32() -> impl Strategy<Value = f32> {
    one_of(vec![
        boxed(-2.0f32..2.0),
        boxed(-1e6f32..1e6),
        boxed(just(0.0f32)),
        boxed(just(-0.0f32)),
        boxed(just(f32::NAN)),
        boxed(just(f32::INFINITY)),
        boxed(just(f32::NEG_INFINITY)),
        boxed(just(f32::MIN_POSITIVE)),
        boxed(just(f32::MIN_POSITIVE / 2.0)),
        boxed(just(-1e-45f32)),
        boxed(just(f32::MAX)),
        boxed(just(f32::MIN)),
    ])
}

/// Bit-level snapshot of every codec round-trip over one `(y, dy)` input:
/// Binarize mask bits + `relu_backward_into`, SSDC/CSR in both row-pointer
/// widths, and DPR in all three formats. Raw `to_bits` throughout — codecs
/// move bits rather than create NaNs, so even NaN payloads must survive
/// byte-identically at every level.
#[allow(clippy::type_complexity)]
fn codec_snapshot(
    y: &[f32],
    dy: &[f32],
) -> (Vec<bool>, Vec<u32>, Vec<(usize, Vec<u32>)>, Vec<Vec<u32>>) {
    let raw = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
    let mask = BitMask::encode(y);
    let mask_bits: Vec<bool> = (0..mask.len()).map(|i| mask.get(i)).collect();
    let mut dx = vec![f32::NAN; y.len()];
    mask.relu_backward_into(dy, &mut dx).unwrap();
    let dx = raw(&dx);
    let csr: Vec<(usize, Vec<u32>)> = [true, false]
        .iter()
        .map(|&narrow| {
            let c = CsrMatrix::encode(y, SsdcConfig { narrow, value_format: None });
            (c.nnz(), raw(&c.decode()))
        })
        .collect();
    let dpr: Vec<Vec<u32>> = [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8]
        .iter()
        .map(|&f| raw(&DprBuffer::encode(f, y).decode()))
        .collect();
    (mask_bits, dx, csr, dpr)
}

#[test]
fn codec_roundtrips_hold_at_every_simd_level() {
    Runner::new("codec_roundtrips_hold_at_every_simd_level")
        .regressions_file("tests/encoding_properties.testkit-regressions")
        .run(&vec_of((hostile_f32(), hostile_f32()), 0..600), |pairs| {
            let (y, dy): (Vec<f32>, Vec<f32>) = pairs.iter().cloned().unzip();
            let reference = with_level(Level::Scalar, || codec_snapshot(&y, &dy));
            // The scalar snapshot obeys the FP32 reference semantics even on
            // hostile inputs (NaN is not positive; masked lanes are +0.0).
            for (i, (&yv, &dv)) in y.iter().zip(&dy).enumerate() {
                assert_eq!(reference.0[i], yv > 0.0);
                let want = if yv > 0.0 { dv.to_bits() } else { 0.0f32.to_bits() };
                assert_eq!(reference.1[i], want);
            }
            for lvl in available_levels() {
                let got = with_level(lvl, || codec_snapshot(&y, &dy));
                assert_eq!(got, reference, "GIST_SIMD={lvl} diverged from scalar");
            }
        });
}

#[test]
fn bitmask_records_positivity_exactly() {
    Runner::new("bitmask_records_positivity_exactly").run(
        &vec_of(finite_f32(), 0..500),
        |values| {
            let mask = BitMask::encode(values);
            assert_eq!(mask.len(), values.len());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(mask.get(i), v > 0.0);
            }
        },
    );
}

#[test]
fn bitmask_backward_equals_fp32_reference() {
    Runner::new("bitmask_backward_equals_fp32_reference").run(
        &vec_of((finite_f32(), finite_f32()), 1..300),
        |values| {
            let (y, dy): (Vec<f32>, Vec<f32>) = values.iter().cloned().unzip();
            let mask = BitMask::encode(&y);
            let mut from_mask = vec![f32::NAN; y.len()];
            mask.relu_backward_into(&dy, &mut from_mask).unwrap();
            let reference: Vec<f32> =
                y.iter().zip(&dy).map(|(&yv, &dv)| if yv > 0.0 { dv } else { 0.0 }).collect();
            assert_eq!(from_mask, reference);
        },
    );
}

#[test]
fn csr_roundtrip_is_lossless() {
    let sparse_value = weighted(vec![(3, boxed(just(0.0f32))), (1, boxed(finite_f32()))]);
    Runner::new("csr_roundtrip_is_lossless").run(
        &(vec_of(sparse_value, 0..2000), bools()),
        |(values, narrow)| {
            let csr = CsrMatrix::encode(values, SsdcConfig { narrow: *narrow, value_format: None });
            assert_eq!(&csr.decode(), values);
        },
    );
}

#[test]
fn csr_nnz_counts_nonzeros() {
    let sparse_value = weighted(vec![(2, boxed(just(0.0f32))), (1, boxed(0.1f32..10.0))]);
    Runner::new("csr_nnz_counts_nonzeros").run(&vec_of(sparse_value, 0..1500), |values| {
        let csr = CsrMatrix::encode(values, SsdcConfig::default());
        assert_eq!(csr.nnz(), values.iter().filter(|&&v| v != 0.0).count());
    });
}

#[test]
fn dpr_fast_encode_matches_reference() {
    let wide = one_of(vec![boxed(finite_f32()), boxed(-1e38f32..1e38f32), boxed(-7e4f32..7e4f32)]);
    Runner::new("dpr_fast_encode_matches_reference").run(&wide, |&v| {
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            assert_eq!(f.encode_one(v), f.encode_one_reference(v), "{}: v={}", f.label(), v);
        }
    });
}

#[test]
fn dpr_quantize_is_idempotent_and_sign_preserving() {
    Runner::new("dpr_quantize_is_idempotent_and_sign_preserving").run(&finite_f32(), |&v| {
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let q = f.quantize(v);
            assert_eq!(f.quantize(q), q);
            if q != 0.0 {
                assert_eq!(q.is_sign_negative(), v.is_sign_negative());
            }
            assert!(q.abs() <= f.max_value());
        }
    });
}

#[test]
fn dpr_error_is_bounded() {
    Runner::new("dpr_error_is_bounded").run(&(-60000.0f32..60000.0), |&v| {
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let q = f.quantize(v);
            if v.abs() >= f.min_normal() && v.abs() <= f.max_value() {
                let rel = ((q - v) / v).abs();
                let bound = (2.0f32).powi(-(f.mant_bits() as i32 + 1)) * 1.0001;
                assert!(rel <= bound, "{}: v={v} q={q} rel={rel}", f.label());
            }
        }
    });
}

#[test]
fn dpr_quantize_is_monotone() {
    // Round-to-nearest is order-preserving (weakly).
    Runner::new("dpr_quantize_is_monotone").run(&(finite_f32(), finite_f32()), |&(a, b)| {
        for f in [DprFormat::Fp16, DprFormat::Fp8] {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(f.quantize(lo) <= f.quantize(hi), "{}", f.label());
        }
    });
}

#[test]
fn dpr_buffer_roundtrip_matches_scalar_path() {
    Runner::new("dpr_buffer_roundtrip_matches_scalar_path").run(
        &vec_of(finite_f32(), 0..700),
        |values| {
            for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
                let buf = DprBuffer::encode(f, values);
                let decoded = buf.decode();
                let expected: Vec<f32> = values.iter().map(|&v| f.quantize(v)).collect();
                assert_eq!(&decoded, &expected, "{}", f.label());
            }
        },
    );
}

#[test]
fn pool_map_roundtrips() {
    Runner::new("pool_map_roundtrips").run(&vec_of(0u8..9, 0..600), |indices| {
        let map = PoolIndexMap::encode(indices, 3).unwrap();
        assert_eq!(&map.decode(), indices);
        assert_eq!(map.encoded_bytes(), indices.len().div_ceil(2));
    });
}

fn items_to_structures(items: &[(usize, usize, usize)], class: DataClass) -> Vec<DataStructure> {
    items
        .iter()
        .enumerate()
        .map(|(i, &(bytes, start, len))| DataStructure {
            name: format!("t{i}"),
            role: TensorRole::FeatureMap(NodeId::new(i)),
            class,
            bytes,
            interval: Interval::new(start, start + len),
        })
        .collect()
}

#[test]
fn planner_static_at_least_dynamic_at_least_max_item() {
    Runner::new("planner_static_at_least_dynamic_at_least_max_item").run(
        &vec_of((1usize..1000, 0usize..40, 0usize..10), 1..60),
        |items| {
            let ds = items_to_structures(items, DataClass::ImmediateFmap);
            let stat = plan_static(&ds, SharingPolicy::Full);
            let dynamic = peak_dynamic(&ds, 64);
            let max_item = ds.iter().map(|d| d.bytes).max().unwrap();
            let sum: usize = ds.iter().map(|d| d.bytes).sum();
            assert!(stat.total_bytes >= dynamic);
            assert!(dynamic >= max_item);
            assert!(stat.total_bytes <= sum);
            assert_eq!(stat.num_items(), ds.len());
        },
    );
}

#[test]
fn planner_groups_never_contain_overlapping_members() {
    Runner::new("planner_groups_never_contain_overlapping_members").run(
        &vec_of((1usize..100, 0usize..20, 0usize..6), 1..40),
        |items| {
            let ds = items_to_structures(items, DataClass::GradientMap);
            let plan = plan_static(&ds, SharingPolicy::Full);
            for group in &plan.groups {
                for (i, &a) in group.members.iter().enumerate() {
                    for &b in &group.members[i + 1..] {
                        assert!(
                            !ds[a].interval.overlaps(&ds[b].interval),
                            "members {a} and {b} overlap"
                        );
                    }
                }
                let max = group.members.iter().map(|&m| ds[m].bytes).max().unwrap();
                assert_eq!(group.bytes, max);
            }
        },
    );
}

#[test]
fn ssdc_with_dpr_zeros_stay_zero() {
    let sparse_value = weighted(vec![(1, boxed(just(0.0f32))), (1, boxed(0.01f32..100.0))]);
    Runner::new("ssdc_with_dpr_zeros_stay_zero").run(&vec_of(sparse_value, 0..800), |values| {
        let csr = CsrMatrix::encode(
            values,
            SsdcConfig { narrow: true, value_format: Some(DprFormat::Fp8) },
        );
        let decoded = csr.decode();
        for (orig, dec) in values.iter().zip(&decoded) {
            if *orig == 0.0 {
                assert_eq!(*dec, 0.0);
            } else {
                assert_eq!(*dec, DprFormat::Fp8.quantize(*orig));
            }
        }
    });
}

/// Every SSDC layout the runtime can stash a ReLU output in.
fn ssdc_configs() -> impl Iterator<Item = SsdcConfig> {
    let formats = [None, Some(DprFormat::Fp16), Some(DprFormat::Fp10), Some(DprFormat::Fp8)];
    [true, false]
        .into_iter()
        .flat_map(move |narrow| formats.map(|value_format| SsdcConfig { narrow, value_format }))
}

/// `CsrMatrix::relu_backward_into` against the path it replaced — decode the
/// stash to a dense map, then the dense FP32 kernel — as raw bits, over a
/// poisoned output.
fn assert_csr_relu_backward_matches_dense(y: &[f32], dy: &[f32]) {
    let raw = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
    let shape = Shape::vector(y.len());
    let dy_t = Tensor::from_vec(shape, dy.to_vec()).unwrap();
    let mut want = Tensor::full(shape, f32::NAN);
    for config in ssdc_configs() {
        let csr = CsrMatrix::encode(y, config);
        relu::backward_into(&Tensor::from_vec(shape, csr.decode()).unwrap(), &dy_t, &mut want);
        let mut dx = vec![f32::NAN; y.len()];
        csr.relu_backward_into(dy, &mut dx);
        assert_eq!(raw(&dx), raw(want.data()), "{config:?} len {}", y.len());
    }
}

#[test]
fn csr_relu_backward_equals_decode_then_dense_backward() {
    // Stored values are whatever the map held — negative, NaN, infinite and
    // subnormal ones included — so the gate has to be the dense kernel's
    // `y > 0.0`, not "is stored"; lengths straddle the ragged last row.
    let sparse = weighted(vec![(1, boxed(just(0.0f32))), (1, boxed(hostile_f32()))]);
    Runner::new("csr_relu_backward_equals_decode_then_dense_backward").run(
        &vec_of((sparse, hostile_f32()), 0..1500),
        |pairs| {
            let (y, dy): (Vec<f32>, Vec<f32>) = pairs.iter().cloned().unzip();
            assert_csr_relu_backward_matches_dense(&y, &dy);
        },
    );
}

#[test]
fn csr_relu_backward_edges() {
    let dy = |len: usize| -> Vec<f32> { (0..len).map(|i| i as f32 - 300.5).collect() };
    assert_csr_relu_backward_matches_dense(&[], &[]);
    assert_csr_relu_backward_matches_dense(&[0.0; 700], &dy(700));
    let dense: Vec<f32> =
        (0..700).map(|i| if i % 3 == 0 { -1.5 } else { i as f32 + 0.25 }).collect();
    assert_csr_relu_backward_matches_dense(&dense, &dy(700));
    // 1000 = 3 full narrow rows + a ragged one of 232.
    let ragged: Vec<f32> = (0..1000).map(|i| if i % 2 == 0 { 0.0 } else { i as f32 }).collect();
    assert_csr_relu_backward_matches_dense(&ragged, &dy(1000));
}

#[test]
fn csr_relu_backward_rejects_mismatched_lengths_like_decode_into() {
    let csr = CsrMatrix::encode(&[0.0, 1.0, 0.0, 2.0], SsdcConfig::default());
    let panics = |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
    assert!(panics(&|| csr.decode_into(&mut [0.0; 3])));
    assert!(panics(&|| csr.relu_backward_into(&[1.0; 4], &mut [0.0; 3])));
    assert!(panics(&|| csr.relu_backward_into(&[1.0; 5], &mut [0.0; 4])));
    let mut dx = [f32::NAN; 4];
    csr.relu_backward_into(&[5.0, 6.0, 7.0, 8.0], &mut dx);
    assert_eq!(dx, [0.0, 6.0, 0.0, 8.0]);
}

/// Every codec the policy can put a stash under: dense, the mask, SSDC in
/// every layout, DPR in every format (and one stochastic rounding).
fn stash_codecs() -> Vec<StashCodec> {
    let mut codecs = vec![StashCodec::Dense, StashCodec::Binarize];
    codecs.extend(ssdc_configs().map(StashCodec::Ssdc));
    codecs.extend(
        [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8]
            .map(|f| StashCodec::Dpr(f, RoundingMode::Nearest)),
    );
    codecs.push(StashCodec::Dpr(DprFormat::Fp8, RoundingMode::Stochastic { seed: 7 }));
    codecs
}

/// The stash seam's whole contract for one codec over one `(y, dy)`: the
/// payload fits the reservation the lowering makes from the same function,
/// decode and the ReLU gate are bit-equal to the containers and the dense
/// kernel, and a wrong length is a typed error before the first write.
fn assert_stash_contract(codec: StashCodec, y: &[f32], dy: &[f32]) {
    let ne = y.len();
    let shape = Shape::vector(ne);
    let stash = codec.encode(&Tensor::from_vec(shape, y.to_vec()).unwrap(), None);
    let what = format!("{codec:?} at {ne} elements");
    assert_eq!((stash.codec(), stash.shape(), stash.dense_bytes()), (codec, shape, ne * 4));

    // Reservation and payload: never above the bound, which is never above
    // dense; equal to it when the size is shape-only. SSDC holds its CSR
    // form — or, where that would be larger than dense, the dense escape.
    let (held, bound) = (stash.encoded_bytes(), codec.bound(ne));
    assert!(held <= bound, "{what}: {held} bytes held, {bound} reserved");
    assert!(bound <= ne * 4, "{what}: {bound} reserved for {} dense bytes", ne * 4);
    let escaped = match codec {
        StashCodec::Ssdc(config) => {
            let csr_bytes = CsrMatrix::encode(y, config).encoded_bytes();
            assert_eq!(held, csr_bytes.min(ne * 4), "{what}: {held} held, CSR form {csr_bytes}");
            // The reservation is tight: where the zero-sparsity CSR fits in
            // dense, a map fills it exactly when no element could be dropped.
            if csr::max_encoded_bytes(ne, config) <= ne * 4 {
                let full = y.iter().all(|&v| v != 0.0);
                assert_eq!(held == bound, full, "{what}: {held} held vs {bound} reserved");
            }
            csr_bytes > ne * 4
        }
        _ => {
            assert_eq!(held, bound, "{what}: a shape-only size is the bound");
            false
        }
    };

    // The dense map a backward reader sees: the container's own decode,
    // which is what an escaped stash holds, to the bit.
    let decoded = match codec {
        StashCodec::Dense | StashCodec::Binarize => y.to_vec(),
        StashCodec::Ssdc(config) => CsrMatrix::encode(y, config).decode(),
        StashCodec::Dpr(f, rounding) => DprBuffer::encode_with(f, y, rounding).decode(),
    };
    const POISON: f32 = -7.25;
    assert_eq!(
        stash.as_dense().map(|t| bits(t.data())),
        (codec == StashCodec::Dense || escaped).then(|| bits(&decoded)),
        "{what}: held dense"
    );
    if codec != StashCodec::Binarize {
        let mut dst = vec![POISON; ne];
        stash.decode_into(&mut dst).unwrap();
        assert_eq!(bits(&dst), bits(&decoded), "{what}: decode_into");
    }

    // The gate: the dense kernel over that map, ±0.0 / NaN / subnormals
    // included (Binarize never had the map; its reference is `y` itself).
    let tensor = |v: &[f32]| Tensor::from_vec(shape, v.to_vec()).unwrap();
    let mut want = Tensor::full(shape, POISON);
    relu::backward_into(&tensor(&decoded), &tensor(dy), &mut want);
    let mut dx = vec![POISON; ne];
    stash.relu_backward_into(dy, &mut dx).unwrap();
    assert_eq!(bits(&dx), bits(want.data()), "{what}: relu_backward_into");

    // One length contract: typed, and checked before anything is written.
    for wrong in [ne + 1, ne.saturating_sub(1)].into_iter().filter(|&w| w != ne) {
        let err = Err(EncodingError::LengthMismatch { expected: ne, actual: wrong });
        let mut dx = vec![POISON; ne];
        assert_eq!(stash.relu_backward_into(&vec![1.0; wrong], &mut dx), err, "{what}: dy");
        assert_eq!(bits(&dx), bits(&vec![POISON; ne]), "{what}: dx written before the dy check");
        let mut short = vec![POISON; wrong];
        assert_eq!(stash.relu_backward_into(dy, &mut short), err, "{what}: dx");
        assert_eq!(stash.decode_into(&mut short), err, "{what}: dst");
        assert_eq!(bits(&short), bits(&vec![POISON; wrong]), "{what}: written before the check");
    }
}

#[test]
fn every_stash_codec_honours_the_seam_contract() {
    // Lengths straddle the mask word, the DPR word, the narrow CSR row and
    // the parallel grains; a generated hostile block is tiled to each.
    const LENGTHS: [usize; 7] = [0, 1, 255, 256, 257, 1000, 70_000];
    let sparse = weighted(vec![(1, boxed(just(0.0f32))), (1, boxed(hostile_f32()))]);
    Runner::new("every_stash_codec_honours_the_seam_contract")
        .regressions_file("tests/encoding_properties.testkit-regressions")
        .run(&(vec_of((sparse, hostile_f32()), 1..300), 0..LENGTHS.len()), |(block, at)| {
            let (y, dy): (Vec<f32>, Vec<f32>) =
                block.iter().cycle().take(LENGTHS[*at]).cloned().unzip();
            for codec in stash_codecs() {
                assert_stash_contract(codec, &y, &dy);
            }
        });
    // The all-stored and all-dropped extremes of the data-dependent bound.
    for len in LENGTHS {
        let dy: Vec<f32> = (0..len).map(|i| i as f32 - 300.5).collect();
        for y in [vec![0.0f32; len], (0..len).map(|i| i as f32 + 0.5).collect()] {
            for codec in stash_codecs() {
                assert_stash_contract(codec, &y, &dy);
            }
        }
        // An all-positive map stores every element: SSDC takes the dense
        // escape wherever its CSR form outgrows dense — always under the
        // lossless narrow layout — and holds exactly its bound either way.
        let positive: Vec<f32> = (0..len).map(|i| i as f32 + 0.5).collect();
        let t = Tensor::from_vec(Shape::vector(len), positive).unwrap();
        for config in ssdc_configs() {
            let codec = StashCodec::Ssdc(config);
            let stash = codec.encode(&t, None);
            let escapes = csr::max_encoded_bytes(len, config) > len * 4;
            assert_eq!(stash.as_dense().is_some(), escapes, "{config:?} at {len}");
            assert_eq!(stash.encoded_bytes(), codec.bound(len), "{config:?} at {len}");
        }
        let lossless = StashCodec::Ssdc(SsdcConfig::default()).encode(&t, None);
        assert!(lossless.as_dense().is_some(), "narrow FP32 CSR kept at {len}");
    }
}

/// The range decodes a plane-at-a-time reader runs: every slice of the
/// map, across row boundaries and the ragged last row, bit-equal to the
/// same slice of the full decode.
#[test]
fn range_decodes_equal_the_slice_of_the_full_decode() {
    let hostile = [1.5, 0.0, -0.0, f32::NAN, -2.25e-3, 0.0, 7.0, f32::INFINITY, 0.0, 3e-40];
    for len in [0usize, 1, 35, 255, 256, 257, 1000, 1970] {
        let y: Vec<f32> = (0..len).map(|i| hostile[(i * 7 + i / 3) % hostile.len()]).collect();
        let ranges =
            [(0, len), (0, len / 2), (len / 3, len - len / 3), (len.saturating_sub(1), len)];
        for config in ssdc_configs() {
            let csr = CsrMatrix::encode(&y, config);
            let full = csr.decode();
            for (a, b) in
                ranges.iter().copied().chain((0..len).step_by(35).map(|a| (a, len.min(a + 35))))
            {
                let mut out = vec![f32::NAN; b - a];
                csr.decode_range(a, &mut out);
                assert_eq!(bits(&out), bits(&full[a..b]), "{config:?} {a}..{b} of {len}");
            }
        }
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let buf = DprBuffer::encode(f, &y);
            let full = buf.decode();
            for (a, b) in ranges {
                let mut out = vec![f32::NAN; b - a];
                buf.decode_range(a, &mut out);
                assert_eq!(bits(&out), bits(&full[a..b]), "{f:?} {a}..{b} of {len}");
            }
        }
    }
}

/// Conv backward reads its input stash in place, a channel plane at a time
/// (`ColumnSource`): from a stash under every codec the policy can put a
/// conv input under — the escaped SSDC stash included — dx, dW and db are
/// bit-equal to conv backward from the stash's decoded map. Planes of 35
/// elements put several channels in one narrow CSR row; 323 straddles rows.
/// 8 and 16 filters are whole vectors of output channels, against `ckk` of
/// 3, 27 or 75: dW's transposed product, and at kernel 1 the pointwise read
/// that decodes a whole image straight into the column buffer.
#[test]
fn conv_backward_from_a_stash_equals_conv_backward_from_its_decoded_map() {
    let ssdc = |narrow, value_format| StashCodec::Ssdc(SsdcConfig { narrow, value_format });
    let mut codecs = vec![
        StashCodec::Dense,
        ssdc(true, None),
        ssdc(false, None),
        ssdc(true, Some(DprFormat::Fp8)),
        ssdc(true, Some(DprFormat::Fp16)),
    ];
    codecs.extend(
        [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8]
            .map(|f| StashCodec::Dpr(f, RoundingMode::Nearest)),
    );
    let scratch = ScratchPool::new();
    let mut escaped = 0;
    for (h, w) in [(5, 7), (17, 19), (16, 16)] {
        let xs = Shape::nchw(2, 3, h, w);
        // A ReLU output (about half zeros) and an all-positive map (every
        // element stored, so narrow SSDC escapes to dense).
        let relu: Vec<f32> =
            (0..xs.numel()).map(|i| ((i * 37 % 23) as f32 - 11.0).max(0.0) * 0.125).collect();
        let positive: Vec<f32> = (0..xs.numel()).map(|i| (i % 13) as f32 * 0.25 + 0.5).collect();
        for (kernel, stride, pad) in
            (0..18).map(|i| ([1, 3, 5][i / 6], [1, 2][i / 3 % 2], [0, 1, 2][i % 3]))
        {
            let p = ConvParams::new(kernel, stride, pad);
            if !p.fits(h, w) {
                continue;
            }
            for (f, map) in [4, 8, 16].into_iter().flat_map(|f| [(f, &relu), (f, &positive)]) {
                let weight =
                    gist::tensor::init::uniform(Shape::nchw(f, 3, kernel, kernel), -0.5, 0.5, 3);
                let dy = gist::tensor::init::uniform(p.out_shape(xs, f), -1.0, 1.0, 5);
                let x = Tensor::from_vec(xs, map.clone()).unwrap();
                for &codec in &codecs {
                    let what = format!("{codec:?} f{f} k{kernel} s{stride} p{pad} on {h}x{w}");
                    let stash = codec.encode(&x, None);
                    escaped +=
                        usize::from(codec != StashCodec::Dense && stash.as_dense().is_some());
                    let mut decoded = Tensor::zeros(xs);
                    stash.decode_into(decoded.data_mut()).unwrap();
                    let grads = |dx: &mut Tensor, from_stash: bool| {
                        let r = if from_stash {
                            conv::backward_with_into(&stash, &weight, &dy, p, &scratch, dx)
                        } else {
                            conv::backward_with_into(&decoded, &weight, &dy, p, &scratch, dx)
                        };
                        r.unwrap()
                    };
                    let (mut dx_want, mut dx) = (Tensor::zeros(xs), Tensor::full(xs, f32::NAN));
                    let (dw_want, db_want) = grads(&mut dx_want, false);
                    let (dw, db) = grads(&mut dx, true);
                    assert_eq!(bits(dx.data()), bits(dx_want.data()), "{what}: dx");
                    assert_eq!(bits(dw.data()), bits(dw_want.data()), "{what}: dW");
                    assert_eq!(bits(db.data()), bits(db_want.data()), "{what}: db");
                }
            }
        }
    }
    assert!(escaped > 0, "no escaped SSDC stash was read");
}

#[test]
fn fp16_agrees_with_rust_half_conversion_on_samples() {
    // Spot-check our FP16 against Rust's built-in f32 -> half knowledge via
    // known constants (no `half` crate dependency).
    let f = DprFormat::Fp16;
    let cases: [(f32, u16); 6] = [
        (1.0, 0x3C00),
        (-1.0, 0xBC00),
        (0.5, 0x3800),
        (2.0, 0x4000),
        (3.140625, 0x4248),
        (65504.0, 0x7BFF),
    ];
    for (v, bits) in cases {
        assert_eq!(f.encode_one(v), bits, "encoding {v}");
        assert_eq!(f.decode_one(bits), v, "decoding {bits:#x}");
    }
}

const WIRE_CODECS: [TransferCodec; 5] = [
    TransferCodec::None,
    TransferCodec::Ssdc,
    TransferCodec::Dpr(DprFormat::Fp16),
    TransferCodec::Dpr(DprFormat::Fp10),
    TransferCodec::Dpr(DprFormat::Fp8),
];

/// Both sides of a narrow CSR row (256) and of the borrowed view's DPR
/// stack chunk (1024 words: 2048, 3072 or 4096 values by format).
const WIRE_LENS: [usize; 7] = [0, 1, 255, 256, 257, 1000, 4097];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What a receiving edge does with the bytes a peer sent.
fn accumulate_wire(bytes: &[u8], acc: &mut [f32]) -> Result<(), WireError> {
    WireRef::parse(bytes)?.accumulate_into(acc);
    Ok(())
}

#[test]
fn wire_view_decodes_and_accumulates_like_the_owned_wire() {
    Runner::new("wire_view_decodes_and_accumulates_like_the_owned_wire").cases(24).run(
        &vec_of((hostile_f32(), hostile_f32()), 4097..4098),
        |pairs| {
            let (data, held): (Vec<f32>, Vec<f32>) = pairs.iter().cloned().unzip();
            for codec in WIRE_CODECS {
                for len in WIRE_LENS {
                    let (data, held) = (&data[..len], &held[..len]);
                    let wire = Wire::encode(codec, data);
                    let bytes = wire.to_bytes();
                    // One serialization, appended where the caller wants it.
                    let mut direct = vec![0xee];
                    assert_eq!(Wire::encode_to(codec, data, &mut direct), wire.wire_bytes());
                    assert_eq!(direct[1..], bytes[..], "{codec} len={len}: encode_to bytes");

                    let decoded = Wire::from_bytes(&bytes).expect("own bytes parse").decode();
                    let view = WireRef::parse(&bytes).expect("own bytes parse");
                    assert_eq!((view.len(), view.is_empty()), (len, len == 0));
                    assert_eq!(view.wire_bytes(), wire.wire_bytes(), "{codec} len={len}");
                    let mut out = held.to_vec();
                    view.decode_into(&mut out);
                    assert_eq!(bits(&out), bits(&decoded), "{codec} len={len}: decode_into");
                    let mut acc = held.to_vec();
                    view.accumulate_into(&mut acc);
                    let sum: Vec<f32> = held.iter().zip(&decoded).map(|(a, d)| a + d).collect();
                    assert_eq!(bits(&acc), bits(&sum), "{codec} len={len}: accumulate_into");
                    assert_eq!(view.to_wire().to_bytes(), bytes, "{codec} len={len}: to_wire");
                }
            }
        },
    );
}

#[test]
fn malformed_wires_fail_the_view_as_they_fail_the_owned_parse() {
    // Agreement of the two entry points on arbitrary damage, with the
    // accumulator untouched on every rejection.
    let agree = |bad: &[u8], what: &str| -> Option<WireError> {
        let held: Vec<f32> = (0..257).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut acc = held.clone();
        let owned = Wire::from_bytes(bad).map(|w| w.decode());
        let viewed = WireRef::parse(bad).map(|v| {
            let mut out = vec![f32::NAN; v.len()];
            v.decode_into(&mut out);
            out
        });
        assert_eq!(viewed.as_ref().map(|v| bits(v)), owned.as_ref().map(|v| bits(v)), "{what}");
        let err = owned.err()?;
        assert_eq!(accumulate_wire(bad, &mut acc).err(), Some(err.clone()), "{what}");
        assert_eq!(bits(&acc), bits(&held), "{what}: a rejected wire touched the accumulator");
        Some(err)
    };
    let data: Vec<f32> =
        (0..257).map(|i| [1.5, 0.0, -0.0, f32::NAN, -2.25e-3, 0.0, 7.0][i % 7]).collect();
    for codec in WIRE_CODECS {
        let good = Wire::encode(codec, &data).to_bytes();
        assert_eq!(agree(&good, "control"), None);
        for cut in 0..good.len() {
            let err = agree(&good[..cut], &format!("{codec} cut {cut}"));
            // A cut lands in a field (truncation) or leaves the SSDC
            // payload short of what its own header promised.
            assert!(
                matches!(err, Some(WireError::Truncated { .. } | WireError::Corrupt(_))),
                "{codec} cut {cut}: {err:?}"
            );
        }
        // Magic, codec tag, element count — and the CSR header behind them.
        let header = if codec == TransferCodec::Ssdc { 19 } else { 9 };
        for at in 0..header {
            for mask in [0x01u8, 0x10, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                // Past the magic a flip may still be a wire (dpr:10 packs
                // 256 and 257 values into the same 86 words): whatever it
                // is, both entry points call it the same.
                let err = agree(&bad, &format!("{codec} byte {at} ^ {mask:#x}"));
                assert!(at >= 4 || matches!(err, Some(WireError::BadMagic(_))), "{err:?}");
            }
        }
        for extra in [0u8, 1, 0xff] {
            let mut bad = good.clone();
            bad.push(extra);
            assert_eq!(agree(&bad, "appended byte"), Some(WireError::TrailingBytes(1)));
        }
    }
}
