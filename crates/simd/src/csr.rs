//! Vectorized CSR pack (encode phase 3) and scatter (decode) row kernels.
//!
//! `count_nonzero` (phase 1) went vector in the first gist-simd PR; these
//! kernels finish the job for the two remaining scalar inner loops the
//! ROADMAP called out. Both operate on one CSR *row* at a time — rows own
//! disjoint output ranges, so `gist-encodings` keeps its existing
//! row-parallel structure and only the inner element sweeps change.
//!
//! The pack kernel keeps elements in ascending column order (a left-pack
//! through a 256-entry permutation LUT indexed by the `!= 0.0` movemask).
//! While at least 8 slots remain in the row's own output slices it stores
//! the whole permuted 8-lane vector and all 8 column indices — the lanes
//! past `popcount` are scratch that the row's later groups overwrite — and
//! only the row's tail copies exactly `popcount` results. It never stores
//! outside the row's slices, because the destination slices of adjacent rows
//! are contiguous and may be filled concurrently by other pool workers. The
//! scatter kernel exploits that
//! dense runs of a sparse row have *consecutive* column indices: a group of
//! 8 whose indices form a ramp becomes one vector store, anything else
//! falls back to the scalar sweep for that group. Values move as raw bits
//! in both directions (NaN payloads, signed zeros and denormals are
//! preserved exactly), so every level is byte-identical by construction.
//!
//! The AVX-512 level runs the AVX2 kernels. Per the DPR precedent, SSE2
//! falls back to scalar here (a 128-bit left-pack needs a byte-shuffle LUT
//! that is not worth the surface); this is a performance choice, not a
//! correctness one.

use crate::Level;

/// Permutation LUT for the AVX2 left-pack: entry `m` lists, front-aligned,
/// the lane indices whose bit is set in `m`. The permuted lane ids double
/// as the packed elements' column offsets within the group.
#[cfg(target_arch = "x86_64")]
static COMPACT: [[u32; 8]; 256] = build_compact_lut();

#[cfg(target_arch = "x86_64")]
const fn build_compact_lut() -> [[u32; 8]; 256] {
    let mut lut = [[0u32; 8]; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut k = 0usize;
        let mut b = 0usize;
        while b < 8 {
            if m & (1 << b) != 0 {
                lut[m][k] = b as u32;
                k += 1;
            }
            b += 1;
        }
        m += 1;
    }
    lut
}

macro_rules! pack_row_impl {
    ($name:ident, $col:ty, $kernel:ident, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Writes the non-zero values of `row` (unordered `!= 0.0`: NaN is
        /// kept with its payload bits, both zeros are dropped) into the
        /// front of `vals` and their column indices into `cols`, in
        /// ascending column order, returning the count. Never stores
        /// outside `vals`/`cols`, but may leave scratch in their slots past
        /// the count — size them to the row's population to avoid any.
        ///
        /// # Panics
        ///
        /// Panics if `vals` or `cols` is shorter than the count.
        pub fn $name(row: &[f32], vals: &mut [f32], cols: &mut [$col]) -> usize {
            let lvl = crate::level();
            let full = match lvl {
                Level::Avx2 | Level::Avx512 => row.len() / 8 * 8,
                _ => 0,
            };
            let mut k = 0usize;
            #[cfg(target_arch = "x86_64")]
            if full > 0 {
                debug_assert!(lvl >= Level::Avx2 && lvl <= crate::detected_level());
                // SAFETY: `full > 0` only at AVX2 and above, whose AVX2 is
                // detected before either level is ever selected.
                k = unsafe { x86::$kernel(&row[..full], vals, cols) };
            }
            for (c, &v) in row.iter().enumerate().skip(full) {
                if v != 0.0 {
                    vals[k] = v;
                    cols[k] = c as $col;
                    k += 1;
                }
            }
            k
        }
    };
}

pack_row_impl!(
    csr_pack_row_u8,
    u8,
    pack_groups_u8_avx2,
    "CSR encode fill for the narrow (≤256-column, 1-byte-index) layout."
);
pack_row_impl!(
    csr_pack_row_u32,
    u32,
    pack_groups_u32_avx2,
    "CSR encode fill for the wide (4-byte-index) layout."
);

macro_rules! scatter_row_impl {
    ($name:ident, $col:ty, $kernel:ident, $doc:literal) => {
        #[doc = $doc]
        ///
        /// The CSR decode inner loop: `dst[cols[k]] = values[k]` for every
        /// stored element of one row, in `k` order, moving raw bits.
        /// Elements whose column is absent keep whatever `dst` already
        /// holds (callers zero-fill first).
        ///
        /// # Panics
        ///
        /// Panics if `cols` and `values` lengths differ, or a column
        /// indexes past `dst`.
        pub fn $name(cols: &[$col], values: &[f32], dst: &mut [f32]) {
            assert_eq!(cols.len(), values.len(), "csr scatter row length");
            let lvl = crate::level();
            let full = match lvl {
                Level::Avx2 | Level::Avx512 => cols.len() / 8 * 8,
                _ => 0,
            };
            let mut k = 0usize;
            #[cfg(target_arch = "x86_64")]
            while k < full {
                debug_assert!(lvl <= crate::detected_level() && k + 8 <= cols.len());
                // SAFETY: AVX2 is detected; 8 cols/values at `k` are in
                // range. The kernel only stores when the 8 columns form a
                // consecutive ramp, whose highest target `cols[k + 7]` it
                // checks against `dst.len()` like the safe indexing below.
                let done = unsafe {
                    x86::$kernel(
                        cols.as_ptr().add(k),
                        values.as_ptr().add(k),
                        dst.as_mut_ptr(),
                        dst.len(),
                    )
                };
                if !done {
                    for j in k..k + 8 {
                        dst[cols[j] as usize] = values[j];
                    }
                }
                k += 8;
            }
            for j in k..cols.len() {
                dst[cols[j] as usize] = values[j];
            }
        }
    };
}

scatter_row_impl!(
    csr_scatter_row_u8,
    u8,
    scatter8_u8_avx2,
    "CSR decode scatter for the narrow (1-byte-index) layout."
);
scatter_row_impl!(
    csr_scatter_row_u32,
    u32,
    scatter8_u32_avx2,
    "CSR decode scatter for the wide (4-byte-index) layout."
);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::COMPACT;
    use std::arch::x86_64::*;

    /// Stores the 8 column indices in `c` at `dst`.
    ///
    /// # Safety
    ///
    /// AVX2 available; `dst` valid for 8 writes.
    #[target_feature(enable = "avx2")]
    unsafe fn store_cols_u32(dst: *mut u32, c: __m256i) {
        _mm256_storeu_si256(dst.cast(), c);
    }

    /// Stores the 8 column indices in `c`, each below 256, as bytes at `dst`.
    ///
    /// # Safety
    ///
    /// AVX2 available; `dst` valid for 8 writes.
    #[target_feature(enable = "avx2")]
    unsafe fn store_cols_u8(dst: *mut u8, c: __m256i) {
        let c16 = _mm_packus_epi32(_mm256_castsi256_si128(c), _mm256_extracti128_si256::<1>(c));
        _mm_storel_epi64(dst.cast(), _mm_packus_epi16(c16, c16));
    }

    macro_rules! pack_groups_impl {
        ($name:ident, $col:ty, $store_cols:ident) => {
            /// Left-packs every 8-lane group of `row` (a multiple of 8
            /// long) into the front of `vals`/`cols` and returns the count:
            /// full-width stores while 8 slots remain in both outputs, an
            /// exact copy after that (see the module docs).
            ///
            /// # Safety
            ///
            /// AVX2 available.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(row: &[f32], vals: &mut [f32], cols: &mut [$col]) -> usize {
                let cap = vals.len().min(cols.len());
                let mut k = 0usize;
                for (g, group) in row.chunks_exact(8).enumerate() {
                    let v = _mm256_loadu_ps(group.as_ptr());
                    // Unordered not-equal: NaN lanes are kept, ±0.0 lanes
                    // dropped — exactly the scalar `v != 0.0` predicate.
                    let ne = _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps());
                    let mask = (_mm256_movemask_ps(ne) as u32 & 0xFF) as usize;
                    let perm = _mm256_loadu_si256(COMPACT[mask].as_ptr().cast());
                    let packed = _mm256_permutevar8x32_ps(v, perm);
                    // The permuted lane ids are the packed elements' column
                    // offsets within the group.
                    let cols32 = _mm256_add_epi32(perm, _mm256_set1_epi32((g * 8) as i32));
                    let n = mask.count_ones() as usize;
                    if k + 8 <= cap {
                        debug_assert!(k + 8 <= vals.len() && k + 8 <= cols.len());
                        // SAFETY: `cap` is the shorter output's length, so
                        // both slices have room for 8 elements at `k` and
                        // the full-width stores stay within them.
                        _mm256_storeu_ps(vals.as_mut_ptr().add(k), packed);
                        $store_cols(cols.as_mut_ptr().add(k), cols32);
                    } else {
                        let (mut vtmp, mut ctmp) = ([0f32; 8], [0u32; 8]);
                        _mm256_storeu_ps(vtmp.as_mut_ptr(), packed);
                        _mm256_storeu_si256(ctmp.as_mut_ptr().cast(), cols32);
                        vals[k..k + n].copy_from_slice(&vtmp[..n]);
                        for (dst, &c) in cols[k..k + n].iter_mut().zip(&ctmp) {
                            *dst = c as $col;
                        }
                    }
                    k += n;
                }
                k
            }
        };
    }

    pack_groups_impl!(pack_groups_u8_avx2, u8, store_cols_u8);
    pack_groups_impl!(pack_groups_u32_avx2, u32, store_cols_u32);

    /// Stores 8 values at `dst + cols[0]` when the 8 columns are the
    /// consecutive ramp `cols[0]..cols[0]+8` (the dense-run fast path);
    /// returns `false` (no store at all) otherwise.
    ///
    /// # Safety
    ///
    /// AVX2 available; `cols`/`values` valid for 8 reads; `dst` valid for
    /// `dst_len` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter8_u8_avx2(
        cols: *const u8,
        values: *const f32,
        dst: *mut f32,
        dst_len: usize,
    ) -> bool {
        let c32 = _mm256_cvtepu8_epi32(_mm_loadl_epi64(cols.cast()));
        scatter8_ramp_avx2(c32, *cols as usize, values, dst, dst_len)
    }

    /// # Safety
    ///
    /// As [`scatter8_u8_avx2`] with 4-byte columns.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter8_u32_avx2(
        cols: *const u32,
        values: *const f32,
        dst: *mut f32,
        dst_len: usize,
    ) -> bool {
        let c32 = _mm256_loadu_si256(cols.cast());
        scatter8_ramp_avx2(c32, *cols as usize, values, dst, dst_len)
    }

    /// # Safety
    ///
    /// AVX2 available; `values` valid for 8 reads; `dst` valid for
    /// `dst_len` elements; `c32` holds the group's 8 columns with `c0` the
    /// first.
    #[target_feature(enable = "avx2")]
    unsafe fn scatter8_ramp_avx2(
        c32: __m256i,
        c0: usize,
        values: *const f32,
        dst: *mut f32,
        dst_len: usize,
    ) -> bool {
        let ramp = _mm256_add_epi32(
            _mm256_set1_epi32(c0 as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        if _mm256_movemask_epi8(_mm256_cmpeq_epi32(c32, ramp)) != -1 {
            return false;
        }
        // A consecutive group's highest target is c0 + 7; bounds-check it
        // exactly as the scalar index would.
        assert!(c0 + 8 <= dst_len, "csr scatter column out of range");
        _mm256_storeu_ps(dst.add(c0), _mm256_loadu_ps(values));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{available_levels, with_level};

    const HOSTILE: [f32; 12] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e-40,
        -1e-45,
        f32::MAX,
        f32::MIN,
        1.5,
        -2.5,
        65504.0,
    ];

    fn hostile_row(len: usize, stride: usize) -> Vec<f32> {
        (0..len).map(|i| HOSTILE[(i * stride) % HOSTILE.len()]).collect()
    }

    /// Packs `row` into the middle of sentinel-filled buffers (so a store
    /// on either side of the row's own slices is caught, not just one past
    /// an allocation) and returns the packed `(value bits, columns)`.
    fn pack_guarded<C: Copy + PartialEq + std::fmt::Debug>(
        row: &[f32],
        nnz: usize,
        guard: C,
        pack: impl Fn(&[f32], &mut [f32], &mut [C]) -> usize,
    ) -> (Vec<u32>, Vec<C>) {
        const PAD: usize = 16;
        const SENTINEL: u32 = 0xDEAD_BEEF;
        let mut vals = vec![f32::from_bits(SENTINEL); PAD + nnz + PAD];
        let mut cols = vec![guard; PAD + nnz + PAD];
        let got = pack(row, &mut vals[PAD..PAD + nnz], &mut cols[PAD..PAD + nnz]);
        assert_eq!(got, nnz);
        for side in [0..PAD, PAD + nnz..PAD + nnz + PAD] {
            assert!(vals[side.clone()].iter().all(|v| v.to_bits() == SENTINEL), "vals {side:?}");
            assert!(cols[side.clone()].iter().all(|&c| c == guard), "cols {side:?}");
        }
        (vals[PAD..PAD + nnz].iter().map(|v| v.to_bits()).collect(), cols[PAD..PAD + nnz].to_vec())
    }

    #[test]
    fn pack_levels_agree_and_never_overstore() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 255, 256] {
            for stride in [1usize, 5, 7] {
                let row = hostile_row(len, stride);
                let nnz = row.iter().filter(|&&v| v != 0.0).count();
                let reference = with_level(crate::Level::Scalar, || {
                    pack_guarded(&row, nnz, 0xA5u8, csr_pack_row_u8)
                });
                for lvl in available_levels() {
                    let got = with_level(lvl, || pack_guarded(&row, nnz, 0xA5u8, csr_pack_row_u8));
                    assert_eq!(got, reference, "{lvl} len={len} stride={stride}");
                    let (bits, cols32) = with_level(lvl, || {
                        pack_guarded(&row, nnz, 0xA5A5_A5A5u32, csr_pack_row_u32)
                    });
                    assert_eq!(bits, reference.0, "{lvl} u32 len={len} stride={stride}");
                    assert_eq!(
                        cols32,
                        reference.1.iter().map(|&c| c as u32).collect::<Vec<_>>(),
                        "{lvl} u32 cols"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_leaves_an_already_filled_neighbour_row_intact() {
        // The encode fills adjacent rows' contiguous slices in any order
        // (and concurrently): pack row 1 first, then row 0 right before it.
        // A full-width store from row 0's last groups would land on row 1.
        for (len0, len1) in [(256usize, 256usize), (64, 9), (23, 40), (8, 8)] {
            let (row0, row1) = (hostile_row(len0, 5), hostile_row(len1, 7));
            let count = |r: &[f32]| r.iter().filter(|&&v| v != 0.0).count();
            let (n0, n1) = (count(&row0), count(&row1));
            let run = || {
                let mut vals = vec![0.0f32; n0 + n1];
                let mut cols = vec![0u8; n0 + n1];
                for (row, at) in [(&row1, n0..n0 + n1), (&row0, 0..n0)] {
                    let got = csr_pack_row_u8(row, &mut vals[at.clone()], &mut cols[at.clone()]);
                    assert_eq!(got, at.len());
                }
                (vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), cols)
            };
            let reference = with_level(crate::Level::Scalar, run);
            for lvl in available_levels() {
                assert_eq!(with_level(lvl, run), reference, "{lvl} rows {len0}+{len1}");
            }
        }
    }

    #[test]
    fn scatter_levels_agree_on_dense_runs_and_gaps() {
        for len in [0usize, 1, 8, 9, 64, 256] {
            for stride in [1usize, 3, 11] {
                let row = hostile_row(256, stride);
                // Build a row's (cols, values) with mixed runs and gaps.
                let pairs: Vec<(u8, f32)> = row
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(c, &v)| (c as u8, v))
                    .take(len)
                    .collect();
                let cols: Vec<u8> = pairs.iter().map(|p| p.0).collect();
                let values: Vec<f32> = pairs.iter().map(|p| p.1).collect();
                let reference = with_level(crate::Level::Scalar, || {
                    let mut dst = vec![0.0f32; 256];
                    csr_scatter_row_u8(&cols, &values, &mut dst);
                    dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                });
                for lvl in available_levels() {
                    let mut dst = vec![0.0f32; 256];
                    with_level(lvl, || csr_scatter_row_u8(&cols, &values, &mut dst));
                    let bits: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, reference, "{lvl} len={len} stride={stride}");

                    let cols32: Vec<u32> = cols.iter().map(|&c| c as u32).collect();
                    let mut dst = vec![0.0f32; 256];
                    with_level(lvl, || csr_scatter_row_u32(&cols32, &values, &mut dst));
                    let bits: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, reference, "{lvl} u32 len={len} stride={stride}");
                }
            }
        }
    }

    #[test]
    fn pack_then_scatter_roundtrips_hostile_bits() {
        let row = hostile_row(200, 1);
        let nnz = row.iter().filter(|&&v| v != 0.0).count();
        for lvl in available_levels() {
            with_level(lvl, || {
                let mut vals = vec![0.0f32; nnz];
                let mut cols = vec![0u8; nnz];
                csr_pack_row_u8(&row, &mut vals, &mut cols);
                let mut back = vec![0.0f32; row.len()];
                csr_scatter_row_u8(&cols, &vals, &mut back);
                for (i, (&a, &b)) in row.iter().zip(&back).enumerate() {
                    // -0.0 is dropped by the predicate and comes back +0.0;
                    // everything else (NaN payloads included) is raw bits.
                    let want = if a.to_bits() == 0x8000_0000 { 0 } else { a.to_bits() };
                    assert_eq!(b.to_bits(), want, "{lvl} elem {i}");
                }
            });
        }
    }
}
