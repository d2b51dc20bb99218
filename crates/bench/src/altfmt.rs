//! Alternative sparse formats: ELL, Hybrid (ELL+COO) and a bitmap format.
//!
//! Section IV-A: "For choosing a suitable sparse format, we compare 3
//! commonly used formats - ELL, Hybrid and Compressed Sparse Row (CSR). We
//! observe that CSR achieves lowest format-conversion latency among these
//! options, achieving the best compression-performance overhead tradeoff."
//!
//! This module implements the two losing candidates (plus a bitmap format
//! as an extra ablation point) so that the comparison itself is
//! reproducible: the `bench_sparse_formats` bin measures conversion
//! latency, and the unit tests here check the size trade-offs. Nothing
//! outside this crate uses them, which is why they live here and not in
//! `gist-encodings`.
//!
//! All formats view the flat buffer as a matrix of [`NARROW_COLS`] columns
//! (the Narrow Value Optimization), so column indices fit in one byte.

use gist_encodings::csr::NARROW_COLS;

/// ELLPACK: every row stores the same number of slots (the maximum row
/// nnz), padding short rows. Fast uniform access, but one dense row blows
/// up the whole matrix — the pathology that rules it out for ReLU outputs,
/// whose per-row sparsity is uneven.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    rows: usize,
    cols: usize,
    width: usize,
    total_len: usize,
    /// `rows * width` values, row-major, zero-padded.
    values: Vec<f32>,
    /// `rows * width` column indices; padding slots hold `PAD`.
    col_idx: Vec<u8>,
}

/// Padding marker for unused ELL slots (column 255 is still addressable
/// because `NARROW_COLS == 256`; we disambiguate padding by a zero value
/// AND this index — decode checks both).
const PAD: u8 = 0;

impl EllMatrix {
    /// Encodes a flat buffer.
    pub fn encode(data: &[f32]) -> Self {
        let cols = NARROW_COLS;
        let rows = data.len().div_ceil(cols).max(1);
        let mut row_nnz = vec![0usize; rows];
        for (i, &v) in data.iter().enumerate() {
            if v != 0.0 {
                row_nnz[i / cols] += 1;
            }
        }
        let width = row_nnz.iter().copied().max().unwrap_or(0);
        let mut values = vec![0.0f32; rows * width];
        let mut col_idx = vec![PAD; rows * width];
        let mut slot = vec![0usize; rows];
        for (i, &v) in data.iter().enumerate() {
            if v != 0.0 {
                let r = i / cols;
                let k = r * width + slot[r];
                values[k] = v;
                col_idx[k] = (i % cols) as u8;
                slot[r] += 1;
            }
        }
        EllMatrix { rows, cols, width, total_len: data.len(), values, col_idx }
    }

    /// Uniform slot count per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Encoded size: values (4 B) + indices (1 B) per slot.
    pub fn encoded_bytes(&self) -> usize {
        self.rows * self.width * 5
    }

    /// Decodes back to the dense buffer.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.total_len];
        for r in 0..self.rows {
            for s in 0..self.width {
                let k = r * self.width + s;
                let v = self.values[k];
                if v != 0.0 {
                    out[r * self.cols + self.col_idx[k] as usize] = v;
                }
            }
        }
        out
    }
}

/// Hybrid (HYB): an ELL part sized for the *typical* row plus a COO
/// overflow for the slots above it — cuSPARSE's answer to ELL's blow-up.
#[derive(Debug, Clone, PartialEq)]
pub struct HybMatrix {
    rows: usize,
    cols: usize,
    width: usize,
    total_len: usize,
    ell_values: Vec<f32>,
    ell_cols: Vec<u8>,
    /// Overflow entries as (row, col, value).
    coo: Vec<(u32, u8, f32)>,
}

impl HybMatrix {
    /// Encodes with the ELL width set to the mean row nnz (rounded up),
    /// the standard heuristic.
    pub fn encode(data: &[f32]) -> Self {
        let cols = NARROW_COLS;
        let rows = data.len().div_ceil(cols).max(1);
        let nnz = data.iter().filter(|&&v| v != 0.0).count();
        let width = nnz.div_ceil(rows);
        let mut ell_values = vec![0.0f32; rows * width];
        let mut ell_cols = vec![PAD; rows * width];
        let mut coo = Vec::new();
        let mut slot = vec![0usize; rows];
        for (i, &v) in data.iter().enumerate() {
            if v != 0.0 {
                let r = i / cols;
                let c = (i % cols) as u8;
                if slot[r] < width {
                    let k = r * width + slot[r];
                    ell_values[k] = v;
                    ell_cols[k] = c;
                    slot[r] += 1;
                } else {
                    coo.push((r as u32, c, v));
                }
            }
        }
        HybMatrix { rows, cols, width, total_len: data.len(), ell_values, ell_cols, coo }
    }

    /// Number of overflow (COO) entries.
    pub fn coo_len(&self) -> usize {
        self.coo.len()
    }

    /// Encoded size: ELL slots at 5 B + COO entries at 9 B (4 row + 1 col
    /// + 4 value).
    pub fn encoded_bytes(&self) -> usize {
        self.rows * self.width * 5 + self.coo.len() * 9
    }

    /// Decodes back to the dense buffer.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.total_len];
        for r in 0..self.rows {
            for s in 0..self.width {
                let k = r * self.width + s;
                let v = self.ell_values[k];
                if v != 0.0 {
                    out[r * self.cols + self.ell_cols[k] as usize] = v;
                }
            }
        }
        for &(r, c, v) in &self.coo {
            out[r as usize * self.cols + c as usize] = v;
        }
        out
    }
}

/// Bitmap format: a 1-bit occupancy mask plus the packed non-zero values.
/// No column indices at all — 4.125 bits/element of metadata regardless of
/// sparsity, so it beats CSR below ~60% sparsity and loses above it (CSR's
/// metadata shrinks with nnz, the bitmap's does not).
#[derive(Debug, Clone, PartialEq)]
pub struct BitmapMatrix {
    total_len: usize,
    mask: Vec<u32>,
    values: Vec<f32>,
}

impl BitmapMatrix {
    /// Encodes a flat buffer.
    pub fn encode(data: &[f32]) -> Self {
        let mut mask = vec![0u32; gist_encodings::BitMask::bytes_for(data.len()) / 4];
        let mut values = Vec::new();
        for (i, &v) in data.iter().enumerate() {
            if v != 0.0 {
                mask[i / 32] |= 1 << (i % 32);
                values.push(v);
            }
        }
        BitmapMatrix { total_len: data.len(), mask, values }
    }

    /// Encoded size: mask words + packed values.
    pub fn encoded_bytes(&self) -> usize {
        self.mask.len() * 4 + self.values.len() * 4
    }

    /// Decodes back to the dense buffer.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.total_len];
        let mut next = 0usize;
        for (i, slot) in out.iter_mut().enumerate() {
            if (self.mask[i / 32] >> (i % 32)) & 1 == 1 {
                *slot = self.values[next];
                next += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_encodings::csr::{CsrMatrix, SsdcConfig};

    fn pattern(len: usize, m: usize) -> Vec<f32> {
        (0..len).map(|i| if i % m == 0 { (i + 1) as f32 * 0.5 } else { 0.0 }).collect()
    }

    /// Skewed data: one dense row among sparse rows (ELL's pathology).
    fn skewed(rows: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; rows * NARROW_COLS];
        for slot in v.iter_mut().take(NARROW_COLS) {
            *slot = 1.0; // first row fully dense
        }
        for r in 1..rows {
            v[r * NARROW_COLS] = 2.0; // one nnz per remaining row
        }
        v
    }

    #[test]
    fn ell_roundtrips() {
        for m in [2usize, 3, 7, 256] {
            let data = pattern(NARROW_COLS * 5 + 17, m);
            assert_eq!(EllMatrix::encode(&data).decode(), data);
        }
        assert_eq!(EllMatrix::encode(&[]).decode(), Vec::<f32>::new());
    }

    #[test]
    fn hyb_roundtrips() {
        for m in [2usize, 3, 7, 256] {
            let data = pattern(NARROW_COLS * 5 + 17, m);
            assert_eq!(HybMatrix::encode(&data).decode(), data);
        }
    }

    #[test]
    fn bitmap_roundtrips() {
        for m in [1usize, 2, 9] {
            let data = pattern(1000, m);
            assert_eq!(BitmapMatrix::encode(&data).decode(), data);
        }
    }

    #[test]
    fn ell_blows_up_on_skewed_rows_csr_does_not() {
        let data = skewed(40);
        let ell = EllMatrix::encode(&data);
        let csr = CsrMatrix::encode(&data, SsdcConfig::default());
        // ELL pads every row to the dense row's width.
        assert_eq!(ell.width(), NARROW_COLS);
        assert!(
            ell.encoded_bytes() > 5 * csr.encoded_bytes(),
            "ELL {} vs CSR {}",
            ell.encoded_bytes(),
            csr.encoded_bytes()
        );
    }

    #[test]
    fn hyb_contains_the_blow_up_via_coo() {
        let data = skewed(40);
        let hyb = HybMatrix::encode(&data);
        let ell = EllMatrix::encode(&data);
        assert!(hyb.coo_len() > 0, "dense row must overflow to COO");
        assert!(hyb.encoded_bytes() < ell.encoded_bytes());
    }

    #[test]
    fn size_ordering_on_uniform_relu_like_data() {
        // At uniform 80% sparsity all formats compress; CSR and HYB are
        // close, bitmap pays its fixed mask, ELL is competitive only
        // because rows are uniform.
        let data = pattern(NARROW_COLS * 64, 5);
        let dense = data.len() * 4;
        let csr = CsrMatrix::encode(&data, SsdcConfig::default()).encoded_bytes();
        let ell = EllMatrix::encode(&data).encoded_bytes();
        let hyb = HybMatrix::encode(&data).encoded_bytes();
        let bmp = BitmapMatrix::encode(&data).encoded_bytes();
        for (name, b) in [("csr", csr), ("ell", ell), ("hyb", hyb), ("bitmap", bmp)] {
            assert!(b < dense, "{name} should compress: {b} vs {dense}");
        }
    }

    #[test]
    fn bitmap_beats_csr_at_low_sparsity_and_loses_at_high() {
        // 50% sparsity: CSR pays 5 B/nnz, bitmap 4 B/nnz + 0.125 B/elt.
        let low = pattern(NARROW_COLS * 16, 2);
        let csr_low = CsrMatrix::encode(&low, SsdcConfig::default()).encoded_bytes();
        let bmp_low = BitmapMatrix::encode(&low).encoded_bytes();
        assert!(bmp_low < csr_low);
        // 96.9% sparsity: CSR metadata shrinks, bitmap's does not.
        let high = pattern(NARROW_COLS * 16, 32);
        let csr_high = CsrMatrix::encode(&high, SsdcConfig::default()).encoded_bytes();
        let bmp_high = BitmapMatrix::encode(&high).encoded_bytes();
        assert!(csr_high < bmp_high);
    }

    #[test]
    fn negative_and_tiny_values_survive_all_formats() {
        let data = vec![0.0, -1.5, 0.0, 1e-30, -1e-30, 0.0, 42.0];
        assert_eq!(EllMatrix::encode(&data).decode(), data);
        assert_eq!(HybMatrix::encode(&data).decode(), data);
        assert_eq!(BitmapMatrix::encode(&data).decode(), data);
    }
}
