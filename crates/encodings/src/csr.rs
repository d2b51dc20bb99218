//! SSDC: Sparse Storage and Dense Compute (Section IV-A).
//!
//! Stashes a sparse feature map in Compressed Sparse Row form and decodes it
//! back to dense FP32 just before the backward-pass computation, keeping
//! compute on the fast dense path.
//!
//! The paper's *Narrow Value Optimization*: cuSPARSE-style CSR spends 4
//! bytes per column index, so compression only wins above 50% sparsity.
//! Reshaping the collapsed 2-D matrix to at most 256 columns lets each
//! column index fit in a single byte, moving the break-even point to 20%
//! sparsity. DPR can additionally be applied to the value array (not the
//! index metadata, which "affects control").

use crate::bytes::{format_tag, put_f32s, put_u32, put_u32s, tag_format, Reader};
use crate::dpr::{DprBuffer, DprFormat};
use crate::transfer::WireError;
use gist_par::{parallel_chunks_mut, parallel_for, parallel_map, SendPtr};
use std::ops::Range;

/// Rows per parallel chunk for the CSR encode/decode loops — a pure
/// function of the matrix shape.
fn csr_row_grain(rows: usize, cols: usize) -> usize {
    ((1 << 14) / cols.max(1)).clamp(1, rows.max(1))
}

/// SSDC configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdcConfig {
    /// Apply the Narrow Value Optimization (reshape to ≤256 columns, 1-byte
    /// indices). Disabled reproduces cuSPARSE's 4-byte-index behaviour.
    pub narrow: bool,
    /// Optionally compress the non-zero value array with DPR.
    pub value_format: Option<DprFormat>,
}

impl Default for SsdcConfig {
    fn default() -> Self {
        SsdcConfig { narrow: true, value_format: None }
    }
}

/// Number of columns used by the narrow reshape.
pub const NARROW_COLS: usize = 256;

/// The non-zero value payload.
#[derive(Debug, Clone, PartialEq)]
enum Values {
    F32(Vec<f32>),
    Dpr(DprBuffer),
}

/// The column-index payload.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ColIndices {
    U8(Vec<u8>),
    U32(Vec<u32>),
}

/// A CSR-encoded stash of a (flattened) feature map.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    total_len: usize,
    values: Values,
    col_idx: ColIndices,
    row_ptr: Vec<u32>,
}

impl CsrMatrix {
    /// Encodes a flat feature-map buffer.
    ///
    /// With `narrow`, the buffer is viewed as a matrix of [`NARROW_COLS`]
    /// columns (last row ragged); otherwise as a single row with 4-byte
    /// indices, reproducing the conservative cuSPARSE layout the paper
    /// criticises.
    /// The encode runs in three phases on the `gist-par` pool: (1) count
    /// non-zeros per row in parallel, (2) serial prefix-sum into `row_ptr`,
    /// (3) fill values and column indices at each row's offset in parallel.
    /// Rows scan their elements in the same ascending order as a serial
    /// sweep, so the encoding is byte-identical at every thread count.
    pub fn encode(data: &[f32], config: SsdcConfig) -> Self {
        let cols = if config.narrow { NARROW_COLS } else { data.len().max(1) };
        let rows = data.len().div_ceil(cols).max(1);
        let grain = csr_row_grain(rows, cols);
        let row = |r: usize| &data[r * cols..((r + 1) * cols).min(data.len())];
        // Phase 1: per-row non-zero counts (gist_simd: a vector compare +
        // popcount per group; NaN is non-zero under the unordered `!=`
        // predicate, exactly like the scalar comparison).
        let counts = parallel_map(rows, grain, |r| gist_simd::count_nonzero(row(r)));
        // Phase 2: exclusive prefix sum -> row_ptr.
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut acc = 0u32;
        row_ptr.push(0u32);
        for &c in &counts {
            acc += c as u32;
            row_ptr.push(acc);
        }
        let nnz = acc as usize;
        // Phase 3: fill each row's slice of the value/index arrays through
        // the gist-simd row pack kernel (left-packed in column order, so
        // byte-identical to the old scalar sweep at every level).
        let mut values_f32 = vec![0.0f32; nnz];
        let mut col_u8 = vec![0u8; if config.narrow { nnz } else { 0 }];
        let mut col_u32 = vec![0u32; if config.narrow { 0 } else { nnz }];
        {
            let vals = SendPtr::new(values_f32.as_mut_ptr());
            let c8 = SendPtr::new(col_u8.as_mut_ptr());
            let c32 = SendPtr::new(col_u32.as_mut_ptr());
            let row_ptr = &row_ptr;
            parallel_for(rows, grain, move |range| {
                for r in range {
                    let lo = row_ptr[r] as usize;
                    let n = row_ptr[r + 1] as usize - lo;
                    // Row ranges are prefix sums of the phase-1 counts, so
                    // each lies inside the `nnz`-long output arrays.
                    debug_assert!(lo + n <= nnz, "row {r} ends past nnz {nnz}");
                    // SAFETY: `values_f32` holds `nnz` floats and outlives
                    // the dispatch; `lo + n <= nnz`, and rows own disjoint
                    // [row_ptr[r], row_ptr[r+1]) ranges, so no other task
                    // touches this slice. The pack fills exactly the `n`
                    // non-zeros phase 1 counted.
                    let row_vals = unsafe { std::slice::from_raw_parts_mut(vals.get().add(lo), n) };
                    let filled = if config.narrow {
                        // SAFETY: `col_u8` holds `nnz` bytes under a narrow
                        // config and outlives the dispatch; the row's range
                        // is in bounds and disjoint from every other row's.
                        let cols = unsafe { std::slice::from_raw_parts_mut(c8.get().add(lo), n) };
                        gist_simd::csr_pack_row_u8(row(r), row_vals, cols)
                    } else {
                        // SAFETY: `col_u32` holds `nnz` indices under a wide
                        // config and outlives the dispatch; the row's range
                        // is in bounds and disjoint from every other row's.
                        let cols = unsafe { std::slice::from_raw_parts_mut(c32.get().add(lo), n) };
                        gist_simd::csr_pack_row_u32(row(r), row_vals, cols)
                    };
                    debug_assert_eq!(filled, n, "phase 1/3 non-zero count drift");
                }
            });
        }
        let values = match config.value_format {
            Some(f) => Values::Dpr(DprBuffer::encode(f, &values_f32)),
            None => Values::F32(values_f32),
        };
        let col_idx = if config.narrow { ColIndices::U8(col_u8) } else { ColIndices::U32(col_u32) };
        CsrMatrix { rows, cols, total_len: data.len(), values, col_idx, row_ptr }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        match &self.col_idx {
            ColIndices::U8(v) => v.len(),
            ColIndices::U32(v) => v.len(),
        }
    }

    /// Original (dense) element count.
    pub fn dense_len(&self) -> usize {
        self.total_len
    }

    /// Dense FP32 size this stash replaced.
    pub fn dense_bytes(&self) -> usize {
        self.total_len * 4
    }

    /// Encoded size in bytes: values + column indices + row pointers.
    pub fn encoded_bytes(&self) -> usize {
        let value_bytes = match &self.values {
            Values::F32(v) => v.len() * 4,
            Values::Dpr(b) => b.encoded_bytes(),
        };
        let idx_bytes = match &self.col_idx {
            ColIndices::U8(v) => v.len(),
            ColIndices::U32(v) => v.len() * 4,
        };
        value_bytes + idx_bytes + self.row_ptr.len() * 4
    }

    /// Achieved compression ratio (dense bytes / encoded bytes).
    pub fn compression_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Decodes back to the dense buffer. Lossless when no value DPR is
    /// configured; otherwise exact except for DPR quantization of non-zeros.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.total_len];
        self.decode_into(&mut out);
        out
    }

    /// Decodes into a preallocated dense buffer (e.g. an arena view),
    /// zero-filling before the scatter. Bit-exact with [`decode`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dense_len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.total_len, "decode_into length");
        out.fill(0.0);
        // Rows scatter through the gist-simd row scatter kernel (dense
        // column runs become vector stores; bit-identical to the scalar
        // sweep at every level).
        self.par_rows(out, |_, dst, at| {
            self.row_values(at, |k, ys| match &self.col_idx {
                ColIndices::U8(v) => gist_simd::csr_scatter_row_u8(&v[k..][..ys.len()], ys, dst),
                ColIndices::U32(v) => gist_simd::csr_scatter_row_u32(&v[k..][..ys.len()], ys, dst),
            })
        });
    }

    /// Decodes dense elements `start..start + out.len()` into `out`,
    /// overwriting every element; bit-exact with the same slice of
    /// [`decode`]. Serial, and touches only the stored elements of the rows
    /// the range crosses (found by binary search — column indices increase
    /// within a row), so a reader can walk the map plane by plane in
    /// scratch the size of one plane.
    ///
    /// [`decode`]: Self::decode
    ///
    /// # Panics
    ///
    /// Panics if the range runs past `self.dense_len()`.
    pub fn decode_range(&self, start: usize, out: &mut [f32]) {
        let end = start + out.len();
        assert!(end <= self.total_len, "decode_range {start}..{end} of {}", self.total_len);
        out.fill(0.0);
        if out.is_empty() {
            return;
        }
        for r in start / self.cols..=(end - 1) / self.cols {
            let row0 = r * self.cols;
            // The row's columns inside the range, and where they land.
            let (lo, hi) = (start.max(row0) - row0, end.min(row0 + self.cols) - row0);
            let dst = &mut out[row0 + lo - start..][..hi - lo];
            let at = self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize;
            match &self.col_idx {
                ColIndices::U8(v) => self.scatter_cols(&v[at.clone()], at.start, lo, dst),
                ColIndices::U32(v) => self.scatter_cols(&v[at.clone()], at.start, lo, dst),
            }
        }
    }

    /// `dst[c - lo] = value` for every stored element of one row whose
    /// column `c` is in `[lo, lo + dst.len())`; `cols` is the row's column
    /// array, stored from value index `first`.
    fn scatter_cols<I: Copy + Into<u32>>(
        &self,
        cols: &[I],
        first: usize,
        lo: usize,
        dst: &mut [f32],
    ) {
        let col = |c: I| c.into() as usize;
        let a = cols.partition_point(|&c| col(c) < lo);
        let b = a + cols[a..].partition_point(|&c| col(c) < lo + dst.len());
        self.row_values(first + a..first + b, |k, ys| {
            for (&c, &y) in cols[k - first..].iter().zip(ys) {
                dst[col(c) - lo] = y;
            }
        });
    }

    /// Runs `f(k, values)` over the stored values `at`, in order, where
    /// `values` starts at stored index `k`: one borrowed slice when the
    /// values are kept as FP32, a stack chunk at a time under DPR — so no
    /// reader allocates.
    fn row_values(&self, at: Range<usize>, mut f: impl FnMut(usize, &[f32])) {
        match &self.values {
            Values::F32(v) => f(at.start, &v[at]),
            Values::Dpr(buf) => {
                const CHUNK: usize = NARROW_COLS;
                let mut vals = [0.0f32; CHUNK];
                for k in at.clone().step_by(CHUNK) {
                    let vals = &mut vals[..(at.end - k).min(CHUNK)];
                    buf.decode_range(k, vals);
                    f(k, vals);
                }
            }
        }
    }

    /// ReLU backward straight off the stash: `dx = dy ⊙ [y > 0]` for the
    /// encoded map `y`, bit-exact with `relu::backward_into` over [`decode`]
    /// but without materializing the dense map — each row is zero-filled and
    /// only its stored elements are visited. Row-parallel on the same
    /// shape-derived grain as [`decode_into`]; a DPR value array is decoded
    /// once per stored non-zero, a row at a time into a stack chunk.
    ///
    /// [`decode`]: Self::decode
    /// [`decode_into`]: Self::decode_into
    ///
    /// # Panics
    ///
    /// Panics if `dy.len()` or `dx.len()` differs from `self.dense_len()`.
    pub fn relu_backward_into(&self, dy: &[f32], dx: &mut [f32]) {
        assert_eq!(dy.len(), self.total_len, "relu_backward_into gradient length");
        assert_eq!(dx.len(), self.total_len, "relu_backward_into output length");
        self.par_rows(dx, |start, dx, at| {
            let dy = &dy[start..][..dx.len()];
            dx.fill(0.0);
            // A select, not a guarded store: stored values are almost all
            // positive, but a NaN or negative one must gate to 0.0 exactly
            // like the dense kernel's `y > 0.0`.
            let mut gate = |c: usize, y: f32| dx[c] = if y > 0.0 { dy[c] } else { 0.0 };
            self.row_values(at, |k, ys| match &self.col_idx {
                ColIndices::U8(v) => v[k..].iter().zip(ys).for_each(|(&c, &y)| gate(c as usize, y)),
                ColIndices::U32(v) => {
                    v[k..].iter().zip(ys).for_each(|(&c, &y)| gate(c as usize, y))
                }
            });
        });
    }

    /// Runs `f(row's first dense index, row's slice of out, row's stored
    /// range)` for every row of the dense buffer `out`. Rows own disjoint
    /// `cols`-sized slices, so they run in parallel, chunked by a grain that
    /// is a pure function of the matrix shape.
    fn par_rows(&self, out: &mut [f32], f: impl Fn(usize, &mut [f32], Range<usize>) + Sync) {
        let grain = csr_row_grain(self.rows, self.cols);
        parallel_chunks_mut(out, grain * self.cols, |ci, chunk| {
            for (i, dst) in chunk.chunks_mut(self.cols).enumerate() {
                let r = ci * grain + i;
                f(r * self.cols, dst, self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize);
            }
        });
    }

    /// Serializes the matrix for `transfer::Wire::to_bytes`. The shape
    /// fields `rows`/`cols` are *derived* (from the narrow flag and dense
    /// length, exactly as [`Self::encode`] derives them) rather than
    /// stored, so they cannot be corrupted independently.
    pub(crate) fn write_bytes(&self, out: &mut Vec<u8>) {
        assert!(self.total_len <= u32::MAX as usize, "csr length exceeds the u32 format field");
        out.push(matches!(self.col_idx, ColIndices::U8(_)) as u8);
        out.push(match &self.values {
            Values::F32(_) => 0,
            Values::Dpr(b) => format_tag(b.format()),
        });
        put_u32(out, self.total_len as u32);
        put_u32(out, self.nnz() as u32);
        put_u32s(out, &self.row_ptr);
        match &self.col_idx {
            ColIndices::U8(v) => out.extend_from_slice(v),
            ColIndices::U32(v) => put_u32s(out, v),
        }
        match &self.values {
            Values::F32(v) => put_f32s(out, v),
            Values::Dpr(b) => b.write_words(out),
        }
    }

    /// Deserializes a [`Self::write_bytes`] payload, rejecting every
    /// inconsistency [`Self::decode_into`] would otherwise panic (or
    /// scatter out of bounds) on: non-monotone row pointers, a pointer
    /// tail disagreeing with the non-zero count, column indices outside
    /// their (possibly ragged) row, or a short value array.
    pub(crate) fn read_bytes(r: &mut Reader) -> Result<CsrMatrix, WireError> {
        let narrow = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(WireError::BadTag { field: "csr narrow", value: t }),
        };
        let vtag = r.u8()?;
        let total_len = r.u32()? as usize;
        let nnz = r.u32()? as usize;
        if nnz > total_len {
            return Err(WireError::Corrupt("csr non-zero count exceeds dense length"));
        }
        let cols = if narrow { NARROW_COLS } else { total_len.max(1) };
        let rows = total_len.div_ceil(cols).max(1);
        let row_ptr = r.u32s(rows + 1)?;
        if row_ptr[0] != 0 {
            return Err(WireError::Corrupt("csr row pointers must start at zero"));
        }
        if row_ptr.windows(2).any(|w| w[1] < w[0]) {
            return Err(WireError::Corrupt("csr row pointers not monotone"));
        }
        if *row_ptr.last().expect("rows + 1 >= 2") as usize != nnz {
            return Err(WireError::Corrupt("csr row pointers disagree with non-zero count"));
        }
        let col_idx =
            if narrow { ColIndices::U8(r.bytes(nnz)?) } else { ColIndices::U32(r.u32s(nnz)?) };
        for row in 0..rows {
            let (lo, hi) = (row_ptr[row] as usize, row_ptr[row + 1] as usize);
            let width = cols.min(total_len - (row * cols).min(total_len)) as u32;
            let mut prev: Option<u32> = None;
            for k in lo..hi {
                let c = match &col_idx {
                    ColIndices::U8(v) => v[k] as u32,
                    ColIndices::U32(v) => v[k],
                };
                if prev.is_some_and(|p| c <= p) {
                    return Err(WireError::Corrupt("csr column indices not strictly increasing"));
                }
                if c >= width {
                    return Err(WireError::Corrupt("csr column index out of row range"));
                }
                prev = Some(c);
            }
        }
        let values = match vtag {
            0 => Values::F32(r.f32s(nnz)?),
            t => match tag_format(t) {
                Some(f) => Values::Dpr(DprBuffer::read_words(f, nnz, r)?),
                None => return Err(WireError::BadTag { field: "csr value format", value: t }),
            },
        };
        Ok(CsrMatrix { rows, cols, total_len, values, col_idx, row_ptr })
    }
}

/// Worst-case encoded size (bytes) for a feature map of `len` elements:
/// the [`predicted_bytes`] arithmetic at zero sparsity (`nnz == len`). The
/// arena runtime reserves SSDC stash regions at this bound so a slab
/// planned before execution can hold any data-dependent encoding.
pub fn max_encoded_bytes(len: usize, config: SsdcConfig) -> usize {
    predicted_bytes(len, 0.0, config)
}

/// Predicted encoded size (bytes) for a feature map of `len` elements at a
/// given `sparsity`, used by the static planner before real data exists.
pub fn predicted_bytes(len: usize, sparsity: f64, config: SsdcConfig) -> usize {
    let nnz = ((1.0 - sparsity.clamp(0.0, 1.0)) * len as f64).round() as usize;
    encoded_bytes_for(len, nnz, config)
}

/// Exact encoded size (bytes) for a feature map of `len` elements holding
/// exactly `nnz` non-zeros — the same arithmetic [`CsrMatrix::encode`]
/// realizes, so a caller that has counted non-zeros (e.g. the
/// density-driven codec policy in `transfer`) can price an encoding
/// without performing it.
pub fn encoded_bytes_for(len: usize, nnz: usize, config: SsdcConfig) -> usize {
    let cols = if config.narrow { NARROW_COLS } else { len.max(1) };
    let rows = len.div_ceil(cols).max(1);
    let value_bytes = config.value_format.map_or(nnz * 4, |f| f.packed_bytes(nnz));
    let idx_bytes = if config.narrow { nnz } else { nnz * 4 };
    value_bytes + idx_bytes + (rows + 1) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_data(len: usize, sparsity_mod: usize) -> Vec<f32> {
        (0..len).map(|i| if i % sparsity_mod == 0 { (i + 1) as f32 * 0.5 } else { 0.0 }).collect()
    }

    #[test]
    fn lossless_roundtrip_narrow() {
        let data = sparse_data(1000, 3);
        let csr = CsrMatrix::encode(&data, SsdcConfig::default());
        assert_eq!(csr.decode(), data);
    }

    #[test]
    fn decode_into_matches_decode_over_garbage() {
        let data = sparse_data(777, 3);
        for config in [
            SsdcConfig::default(),
            SsdcConfig { narrow: false, value_format: None },
            SsdcConfig { narrow: true, value_format: Some(crate::DprFormat::Fp16) },
        ] {
            let csr = CsrMatrix::encode(&data, config);
            let mut out = vec![f32::NAN; data.len()];
            csr.decode_into(&mut out);
            assert_eq!(out, csr.decode());
        }
    }

    #[test]
    fn max_encoded_bytes_bounds_every_input() {
        for config in [
            SsdcConfig::default(),
            SsdcConfig { narrow: false, value_format: None },
            SsdcConfig { narrow: true, value_format: Some(crate::DprFormat::Fp8) },
            SsdcConfig { narrow: true, value_format: Some(crate::DprFormat::Fp10) },
        ] {
            for len in [1usize, 255, 256, 257, 1000, 4096] {
                // Fully dense input is the worst case; the bound must cover it
                // and every sparser variant.
                for sparsity_mod in [1usize, 2, 7] {
                    let data: Vec<f32> = (0..len)
                        .map(|i| if i % sparsity_mod == 0 { (i + 1) as f32 } else { 0.0 })
                        .collect();
                    let csr = CsrMatrix::encode(&data, config);
                    assert!(
                        csr.encoded_bytes() <= max_encoded_bytes(len, config),
                        "len {len} mod {sparsity_mod} {:?}: {} > {}",
                        config,
                        csr.encoded_bytes(),
                        max_encoded_bytes(len, config)
                    );
                }
            }
        }
    }

    #[test]
    fn lossless_roundtrip_wide() {
        let data = sparse_data(1000, 4);
        let csr = CsrMatrix::encode(&data, SsdcConfig { narrow: false, value_format: None });
        assert_eq!(csr.decode(), data);
    }

    #[test]
    fn all_zero_and_all_dense_edges() {
        let zeros = vec![0.0f32; 512];
        let csr = CsrMatrix::encode(&zeros, SsdcConfig::default());
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.decode(), zeros);
        assert!(csr.compression_ratio() > 100.0);

        let dense: Vec<f32> = (1..=512).map(|v| v as f32).collect();
        let csr = CsrMatrix::encode(&dense, SsdcConfig::default());
        assert_eq!(csr.nnz(), 512);
        assert_eq!(csr.decode(), dense);
        // Fully dense narrow CSR costs MORE than dense: 5 bytes/elt + ptrs.
        assert!(csr.compression_ratio() < 1.0);
    }

    #[test]
    fn narrow_break_even_is_20_percent() {
        // At sparsity just above 20%, narrow CSR should compress (<1x cost);
        // the wide format should still lose until 50%.
        let len = 256 * 40;
        let narrow = SsdcConfig::default();
        let wide = SsdcConfig { narrow: false, value_format: None };
        // 25% sparse.
        let b_narrow = predicted_bytes(len, 0.25, narrow);
        let b_wide = predicted_bytes(len, 0.25, wide);
        assert!(b_narrow < len * 4, "narrow wins at 25%: {b_narrow} vs {}", len * 4);
        assert!(b_wide > len * 4, "wide loses at 25%: {b_wide}");
        // 55% sparse: both win.
        assert!(predicted_bytes(len, 0.55, wide) < len * 4);
        // 15% sparse: neither wins.
        assert!(predicted_bytes(len, 0.15, narrow) > len * 4);
    }

    #[test]
    fn compression_tracks_sparsity() {
        let len = 256 * 16;
        let mut last = 0.0;
        for m in [2usize, 4, 8, 16] {
            let data: Vec<f32> = (0..len).map(|i| if i % m == 0 { 1.0 } else { 0.0 }).collect();
            // sparsity = 1 - 1/m increases with m
            let csr = CsrMatrix::encode(&data, SsdcConfig::default());
            let ratio = csr.compression_ratio();
            assert!(ratio > last, "ratio should grow with sparsity");
            last = ratio;
        }
        assert!(last > 4.0, "93.75% sparsity should compress > 4x, got {last}");
    }

    #[test]
    fn predicted_matches_actual_for_uniform_pattern() {
        let len = 256 * 10;
        // Exactly every 4th element non-zero -> sparsity 0.75.
        let data: Vec<f32> = (0..len).map(|i| if i % 4 == 0 { 2.0 } else { 0.0 }).collect();
        let csr = CsrMatrix::encode(&data, SsdcConfig::default());
        let predicted = predicted_bytes(len, 0.75, SsdcConfig::default());
        assert_eq!(csr.encoded_bytes(), predicted);
    }

    #[test]
    fn dpr_on_values_compounds_compression() {
        let data = sparse_data(256 * 8, 4);
        let plain = CsrMatrix::encode(&data, SsdcConfig::default());
        let with_dpr = CsrMatrix::encode(
            &data,
            SsdcConfig { narrow: true, value_format: Some(DprFormat::Fp8) },
        );
        assert!(with_dpr.encoded_bytes() < plain.encoded_bytes());
        // Zeros stay exactly zero; non-zeros match FP8 quantization.
        let dec = with_dpr.decode();
        for (i, (&orig, &got)) in data.iter().zip(&dec).enumerate() {
            if orig == 0.0 {
                assert_eq!(got, 0.0, "index {i}");
            } else {
                assert_eq!(got, DprFormat::Fp8.quantize(orig), "index {i}");
            }
        }
    }

    #[test]
    fn ragged_last_row_roundtrips() {
        // Length not a multiple of 256.
        let data = sparse_data(1000, 2);
        let csr = CsrMatrix::encode(&data, SsdcConfig::default());
        assert_eq!(csr.decode().len(), 1000);
        assert_eq!(csr.decode(), data);
    }

    #[test]
    fn empty_input() {
        let csr = CsrMatrix::encode(&[], SsdcConfig::default());
        assert_eq!(csr.nnz(), 0);
        assert!(csr.decode().is_empty());
    }

    #[test]
    fn negative_values_are_preserved() {
        let data = vec![0.0, -1.5, 0.0, 2.5, -0.001, 0.0];
        let csr = CsrMatrix::encode(&data, SsdcConfig::default());
        assert_eq!(csr.decode(), data);
    }
}
