//! Register-tiled matrix multiplication.
//!
//! Three layouts back the conv/linear kernels: `C = A·B`, `C = Aᵀ·B`, and
//! `C = A·Bᵀ`. All share one vector strategy: output rows are swept in
//! `gist-par` chunks, and a chunk is cut into tiles of rows × two vectors
//! of columns — 4 rows at SSE2 and AVX2, 8 rows × two 512-bit vectors at
//! AVX-512. A tile keeps its accumulators in registers (8, or 16 of
//! AVX-512's 32), so each B vector is loaded once and used by every row,
//! and the add chains overlap each other's latency. Columns are cut into
//! strips of two vectors, then one; at AVX-512 a last 8 columns take one
//! AVX2 vector, so no level covers fewer columns than AVX2 does. Row-major
//! B is read **in place** (column strips outer, row blocks inner: the
//! `k × width` strip a tile column reads stays cache-resident across the
//! chunk's row blocks); only transposed B is packed, once per call
//! **before** the parallel dispatch, into strips the same tiles read.
//!
//! Bit-exactness rules (see DESIGN.md §11): lanes hold *independent output
//! columns*, so each `C[i][j]` accumulates its `p` terms in exactly the
//! serial ascending order — there is no lane reduction to reassociate,
//! and how rows are grouped into tiles or chunks touches no sum.
//! `matmul`/`matmul_at_b` skip `a == 0.0` terms (the skip is semantic,
//! because skipping changes results when B holds NaN/Inf: `0.0 × Inf =
//! NaN`); the tiles keep it as a mask on the *product*: `and(a·b, a != 0)`
//! at SSE2/AVX2, a zero-masking multiply under `a != 0`'s mask register
//! at AVX-512. Either way a skipped term is exactly `+0.0`, and an
//! accumulator that starts at `+0.0` can never become `-0.0`, so adding it
//! leaves every bit where the skip would. `matmul_a_bt` never skips.
//! Multiplies and adds stay separate instructions — FMA's fused rounding
//! would diverge from the scalar reference. Tail columns (fewer than 8, or
//! than SSE2's 4) are computed scalar, same element order, straight from
//! the unpacked B. Outputs match the scalar level bit-for-bit except NaN
//! payloads, which no compilation pins (see [`crate::canon_bits`]).

use crate::Level;
use gist_par::parallel_chunks_mut;
use std::cell::Cell;

/// Output rows per register tile of `lvl`: 8 at AVX-512, 4 below.
fn tile_rows(lvl: Level) -> usize {
    if lvl == Level::Avx512 {
        8
    } else {
        4
    }
}

/// Rows per parallel chunk: a pure function of the matrix shape (never of
/// thread count or SIMD level), targeting enough work per chunk to
/// amortize dispatch, rounded up to 8 rows — whole tiles at every level —
/// so the rows of a chunk share their B loads. Chunks share no reduction,
/// so where the partition falls moves no bit.
pub fn row_grain(m: usize, k: usize, n: usize) -> usize {
    let flops_per_row = (2 * k * n).max(1);
    let rows_per_chunk = (1 << 16) / flops_per_row;
    rows_per_chunk.clamp(1, m.max(1)).next_multiple_of(8)
}

/// Width of the narrowest vector tile `lvl` runs: its own lanes, except
/// that AVX-512 finishes on an 8-wide AVX2 tile.
fn narrowest(lvl: Level) -> usize {
    lvl.lanes().min(8)
}

/// The vector tiles' column strips over `0..ncols` (a multiple of
/// [`narrowest`]), as `(first column, tile level, vectors)`: two of
/// `lvl`'s vectors while they fit, then one; at AVX-512 a last 8 columns
/// run one AVX2 vector.
fn strips(lvl: Level, ncols: usize) -> impl Iterator<Item = (usize, Level, usize)> {
    debug_assert!(lvl != Level::Scalar && ncols.is_multiple_of(narrowest(lvl)));
    let w = lvl.lanes();
    let mut j0 = 0;
    std::iter::from_fn(move || {
        let left = ncols - j0;
        let (tl, nv) = match left {
            0 => return None,
            _ if left >= 2 * w => (lvl, 2),
            _ if left >= w => (lvl, 1),
            _ => {
                debug_assert!(lvl == Level::Avx512 && left == 8);
                (Level::Avx2, 1)
            }
        };
        let strip = (j0, tl, nv);
        j0 += nv * tl.lanes();
        Some(strip)
    })
}

thread_local! {
    /// Reusable pack buffer. `take`/`set` (not a held `RefCell` borrow):
    /// the packing scope encloses a pool dispatch, and a nested kernel on
    /// this thread must get an empty slot, not a re-entrancy panic.
    static PACK_BUF: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Leases the thread-local pack buffer at `len` elements for the duration
/// of `f`. Nested calls (a kernel inside a pool task that itself packs)
/// simply allocate a fresh buffer; steady-state top-level calls reuse. The
/// buffer only grows, and its contents are whatever the last use left:
/// [`pack_b_transposed`] writes every cell of the panel.
fn with_pack_buf<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_BUF.with(|slot| {
        let mut buf = slot.take();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let r = f(&mut buf[..len]);
        slot.set(buf);
        r
    })
}

/// Packs the first `ncols` rows of transposed `B[n × k]` (rows are output
/// columns) into the [`strips`] the tiles read: the strip starting at
/// column `j0`, `w` wide, is the row-major `k × w` block at
/// `panel[j0·k..]` — `panel[j0·k + p·w + l] = b[(j0 + l)·k + p]`. A pure
/// relayout: AVX2 and AVX-512 (whose strips are all multiples of 8 wide)
/// move 8 × 8 blocks through registers, everything else (and the `k % 8`
/// rows they leave) goes an element at a time.
fn pack_b_transposed(lvl: Level, b: &[f32], k: usize, ncols: usize, panel: &mut [f32]) {
    let blocked = if lvl >= Level::Avx2 { k - k % 8 } else { 0 };
    for (j0, tl, nv) in strips(lvl, ncols) {
        let w = nv * tl.lanes();
        let rows = &b[j0 * k..(j0 + w) * k];
        let strip = &mut panel[j0 * k..(j0 + w) * k];
        #[cfg(target_arch = "x86_64")]
        for p0 in (0..blocked).step_by(8) {
            for l0 in (0..w).step_by(8) {
                debug_assert!(lvl <= crate::detected_level() && w.is_multiple_of(8));
                // SAFETY: `blocked` is non-zero only at AVX2 and above,
                // which dispatch reports only when detected, and whose
                // strips are whole multiples of 8 columns.
                unsafe {
                    x86::transpose8_avx2(&rows[l0 * k + p0..], k, &mut strip[p0 * w + l0..], w)
                };
            }
        }
        // `p` outer: each packed row is written once, whole, from `w`
        // sequential read streams.
        for (p, dst) in strip.chunks_exact_mut(w).enumerate().skip(blocked) {
            for (l, d) in dst.iter_mut().enumerate() {
                *d = rows[l * k + p];
            }
        }
    }
}

/// How a chunk finds B: where the vector tiles load it, and how the scalar
/// tail columns index the original.
#[derive(Clone, Copy)]
enum BLayout {
    /// `b[p·n + j]` — row-major B, read in place by tiles and tail alike.
    RowMajor,
    /// `b[j·k + p]` — transposed B; tiles read [`pack_b_transposed`]'s panel.
    Transposed,
}

/// One tile's operands, each slice starting at the tile's own origin.
struct Tile<'a> {
    /// `a[r · a_row_stride + p · a_step]` is row `r`'s term `p`.
    a: &'a [f32],
    a_row_stride: usize,
    a_step: usize,
    k: usize,
    /// `b[p · ldb + v · W..][..W]` is vector `v` of B's row `p`.
    b: &'a [f32],
    ldb: usize,
    /// Row `r` of the tile lands at `out[r · ldc..]`.
    out: &'a mut [f32],
    ldc: usize,
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Tile;
    use std::arch::x86_64::*;

    /// Instantiates the one tile body at a vector width: `R` output rows ×
    /// `NV` vectors of `W` independent output columns, all `R · NV`
    /// accumulators live in registers across the `p` sweep. `p` ascends
    /// exactly as in the scalar sweep; separate mul/add — never FMA. With
    /// `SKIP`, a term whose `a` is `±0.0` contributes `+0.0` whatever B
    /// holds: `$keep` is `a != 0` (unordered: a NaN `a` is kept, as scalar
    /// keeps it), computed once per row and `p`, and `$skip_mul` the
    /// product with the dropped lanes zeroed.
    macro_rules! tile {
        ($name:ident, $feature:literal, $w:literal, $zero:ident, $set1:ident, $load:ident,
         $store:ident, $mul:ident, $add:ident, $keep:ident, $skip_mul:ident) => {
            /// # Safety
            ///
            /// The level's instructions must be available (the slices bound
            /// every access).
            #[target_feature(enable = $feature)]
            pub unsafe fn $name<const SKIP: bool, const R: usize, const NV: usize>(t: Tile) {
                let Tile { a, a_row_stride, a_step, k, b, ldb, out, ldc } = t;
                assert!(k == 0 || (R - 1) * a_row_stride + (k - 1) * a_step < a.len());
                assert!(k == 0 || (k - 1) * ldb + NV * $w <= b.len());
                assert!((R - 1) * ldc + NV * $w <= out.len());
                let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
                let mut acc = [[$zero(); NV]; R];
                for p in 0..k {
                    // SAFETY: the asserts above bound every `a`, `b` and
                    // `out` address by its last one (`p = k - 1`, last
                    // row, last vector).
                    let mut bv = [$zero(); NV];
                    for (v, bv) in bv.iter_mut().enumerate() {
                        *bv = $load(b.add(p * ldb + v * $w));
                    }
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let av = $set1(*a.add(r * a_row_stride + p * a_step));
                        let keep = $keep(av);
                        for (acc, bv) in acc.iter_mut().zip(bv) {
                            let term = if SKIP { $skip_mul(keep, av, bv) } else { $mul(av, bv) };
                            *acc = $add(*acc, term);
                        }
                    }
                }
                for (r, acc) in acc.iter().enumerate() {
                    for (v, acc) in acc.iter().enumerate() {
                        $store(out.add(r * ldc + v * $w), *acc);
                    }
                }
            }
        };
    }

    /// Lanes of `a` that are not `±0.0` (NaN included), as a lane mask.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn ne_zero_sse2(a: __m128) -> __m128 {
        _mm_cmpneq_ps(a, _mm_setzero_ps())
    }

    /// `a · b` where `keep` is set, `+0.0` elsewhere.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn and_mul_sse2(keep: __m128, a: __m128, b: __m128) -> __m128 {
        _mm_and_ps(_mm_mul_ps(a, b), keep)
    }

    /// As [`ne_zero_sse2`], 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ne_zero_avx2(a: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_NEQ_UQ>(a, _mm256_setzero_ps())
    }

    /// As [`and_mul_sse2`], 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn and_mul_avx2(keep: __m256, a: __m256, b: __m256) -> __m256 {
        _mm256_and_ps(_mm256_mul_ps(a, b), keep)
    }

    /// As [`ne_zero_sse2`], 16 lanes, into a mask register — which
    /// `_mm512_maskz_mul_ps` then applies for free.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn ne_zero_avx512(a: __m512) -> __mmask16 {
        _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_ps())
    }

    /// `dst[c · ldd + r] = src[r · lds + c]` for `r, c < 8`: unpack, shuffle
    /// and lane-permute only, so every bit pattern arrives as it left.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (the slices bound every access).
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose8_avx2(src: &[f32], lds: usize, dst: &mut [f32], ldd: usize) {
        assert!(7 * lds + 8 <= src.len() && 7 * ldd + 8 <= dst.len());
        // SAFETY: rows `0..8` of 8 elements at strides `lds` / `ldd` end
        // inside the slices by the assert above.
        let r: [__m256; 8] = std::array::from_fn(|i| _mm256_loadu_ps(src.as_ptr().add(i * lds)));
        // Pairs of rows interleaved: t[2i] / t[2i+1] hold columns {0,1,4,5} / {2,3,6,7}.
        let t: [__m256; 8] = std::array::from_fn(|i| {
            let (a, b) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
            if i % 2 == 0 {
                _mm256_unpacklo_ps(a, b)
            } else {
                _mm256_unpackhi_ps(a, b)
            }
        });
        // Quads of rows: u[4h + c] holds column c (low lane) and c + 4 (high) of rows 4h..4h+4.
        let u: [__m256; 8] = std::array::from_fn(|i| {
            let (a, b) = (t[i / 4 * 4 + i % 4 / 2], t[i / 4 * 4 + 2 + i % 4 / 2]);
            if i % 2 == 0 {
                _mm256_shuffle_ps::<0x44>(a, b)
            } else {
                _mm256_shuffle_ps::<0xEE>(a, b)
            }
        });
        for c in 0..8 {
            let (lo, hi) = (u[c % 4], u[4 + c % 4]);
            let v = if c < 4 {
                _mm256_permute2f128_ps::<0x20>(lo, hi)
            } else {
                _mm256_permute2f128_ps::<0x31>(lo, hi)
            };
            _mm256_storeu_ps(dst.as_mut_ptr().add(c * ldd), v);
        }
    }

    tile!(
        tile_avx512,
        "avx512f",
        16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_mul_ps,
        _mm512_add_ps,
        ne_zero_avx512,
        _mm512_maskz_mul_ps
    );
    tile!(
        tile_avx2,
        "avx2",
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        ne_zero_avx2,
        and_mul_avx2
    );
    tile!(
        tile_sse2,
        "sse2",
        4,
        _mm_setzero_ps,
        _mm_set1_ps,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_mul_ps,
        _mm_add_ps,
        ne_zero_sse2,
        and_mul_sse2
    );
}

/// Dispatches one `rows × (nv · lanes)` tile to the level's instantiation.
///
/// # Safety
///
/// `lvl` must be a vector level that [`crate::detected_level`] reported
/// available, and `rows` at most its [`tile_rows`].
unsafe fn tile<const SKIP: bool>(lvl: Level, rows: usize, nv: usize, t: Tile) {
    debug_assert!(lvl != Level::Scalar && lvl <= crate::detected_level());
    debug_assert!((1..=tile_rows(lvl)).contains(&rows) && (1..=2).contains(&nv));
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! by_rows {
            ($f:ident, $nv:literal, $($r:literal)+) => {
                match rows {
                    $($r => x86::$f::<SKIP, $r, $nv>(t),)+
                    _ => x86::$f::<SKIP, 1, $nv>(t),
                }
            };
        }
        match (lvl, nv) {
            (Level::Avx512, 2) => by_rows!(tile_avx512, 2, 8 7 6 5 4 3 2),
            (Level::Avx512, _) => by_rows!(tile_avx512, 1, 8 7 6 5 4 3 2),
            (Level::Avx2, 2) => by_rows!(tile_avx2, 2, 4 3 2),
            (Level::Avx2, _) => by_rows!(tile_avx2, 1, 4 3 2),
            (_, 2) => by_rows!(tile_sse2, 2, 4 3 2),
            _ => by_rows!(tile_sse2, 1, 4 3 2),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (rows, nv, t);
        unreachable!("vector matmul path requires x86_64");
    }
}

/// Shape/layout bundle for the shared vector chunk sweep.
#[derive(Clone, Copy)]
struct VecShape {
    lvl: Level,
    k: usize,
    n: usize,
    /// `i * a_row_stride (+ p * a_step)` addresses `A`'s term for `(i, p)`.
    a_row_stride: usize,
    a_step: usize,
    layout: BLayout,
}

impl VecShape {
    /// Columns the vector tiles cover: whole multiples of the narrowest tile.
    fn vector_cols(&self) -> usize {
        self.n - self.n % narrowest(self.lvl)
    }
}

/// Computes the full output rows of one chunk: column strips outer and row
/// blocks inner (so the B strip a tile column reads is reused from cache by
/// every row block), then scalar tails in ascending column order. `panel`
/// is the packed B under [`BLayout::Transposed`] and unused otherwise.
fn vector_chunk<const SKIP: bool>(
    vs: VecShape,
    a: &[f32],
    b: &[f32],
    panel: &[f32],
    row0: usize,
    cchunk: &mut [f32],
) {
    let VecShape { lvl, k, n, a_row_stride, a_step, layout } = vs;
    let rows = cchunk.len() / n;
    let ncols = vs.vector_cols();
    for (j0, tl, nv) in strips(lvl, ncols) {
        let width = nv * tl.lanes();
        let (tb, ldb) = match layout {
            BLayout::RowMajor => (&b[j0..], n),
            BLayout::Transposed => (&panel[j0 * k..], width),
        };
        let mr = tile_rows(tl);
        for r0 in (0..rows).step_by(mr) {
            let tile_rows = mr.min(rows - r0);
            // The tile's first output element to its last: rows of this
            // chunk only, whatever the neighbouring chunks' workers write.
            let out = &mut cchunk[r0 * n + j0..(r0 + tile_rows - 1) * n + j0 + width];
            let ta = &a[(row0 + r0) * a_row_stride..];
            let t = Tile { a: ta, a_row_stride, a_step, k, b: tb, ldb, out, ldc: n };
            debug_assert!(tl <= crate::detected_level());
            // SAFETY: `tl` is the ambient vector level (or AVX2 under
            // AVX-512, which detection requires alongside it), and dispatch
            // only reports a detected level; the row block is cut to `tl`'s
            // tile height.
            unsafe { tile::<SKIP>(tl, tile_rows, nv, t) };
        }
    }
    // Tail columns: scalar, same per-element `p` order, from unpacked B.
    for r in 0..rows {
        let i = row0 + r;
        let crow = &mut cchunk[r * n..(r + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate().skip(ncols) {
            let mut acc = 0.0f32;
            for p in 0..k {
                let av = a[i * a_row_stride + p * a_step];
                if SKIP && av == 0.0 {
                    continue;
                }
                let bv = match layout {
                    BLayout::RowMajor => b[p * n + j],
                    BLayout::Transposed => b[j * k + p],
                };
                acc += av * bv;
            }
            *cv = acc;
        }
    }
}

/// Whether a product takes the scalar sweep: the level is forced or
/// undetected, or there is no vector tile to run (`n` narrower than the
/// level's narrowest tile, or no terms at all).
fn scalar_sweep(lvl: Level, k: usize, n: usize) -> bool {
    lvl == Level::Scalar || n < narrowest(lvl) || k == 0
}

/// `C[m × n] = A[m × k] · B[k × n]`, row-major, into a preallocated `c`.
/// Every element of `c` is overwritten. Terms with `a == 0.0` are skipped
/// (at every level — the skip is semantic, not an optimization, once B may
/// hold non-finite values).
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    let lvl = crate::level();
    let grain = row_grain(m, k, n);
    if scalar_sweep(lvl, k, n) {
        parallel_chunks_mut(c, grain * n, |ci, cchunk| {
            cchunk.fill(0.0);
            let row0 = ci * grain;
            for (r, crow) in cchunk.chunks_mut(n).enumerate() {
                let i = row0 + r;
                for p in 0..k {
                    let av = a[i * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        });
        return;
    }
    let vs = VecShape { lvl, k, n, a_row_stride: k, a_step: 1, layout: BLayout::RowMajor };
    parallel_chunks_mut(c, grain * n, |ci, cchunk| {
        vector_chunk::<true>(vs, a, b, &[], ci * grain, cchunk);
    });
}

/// `C[m × n] = Aᵀ · B` where `A` is stored `[k × m]`, into `c`. Zero-skip
/// semantics as [`matmul_into`].
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_at_b_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    let lvl = crate::level();
    let grain = row_grain(m, k, n);
    if scalar_sweep(lvl, k, n) {
        parallel_chunks_mut(c, grain * n, |ci, cchunk| {
            cchunk.fill(0.0);
            let row0 = ci * grain;
            for (r, crow) in cchunk.chunks_mut(n).enumerate() {
                let i = row0 + r;
                for p in 0..k {
                    let av = a[p * m + i];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        });
        return;
    }
    let vs = VecShape { lvl, k, n, a_row_stride: 1, a_step: m, layout: BLayout::RowMajor };
    parallel_chunks_mut(c, grain * n, |ci, cchunk| {
        vector_chunk::<true>(vs, a, b, &[], ci * grain, cchunk);
    });
}

/// `C[m × n] = A · Bᵀ` where `B` is stored `[n × k]`, into `c`. **No**
/// zero-skip (matching the serial reference, which always multiplies
/// through); the transposed pack turns the dot products into independent
/// column lanes so the per-element accumulation order is untouched.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_a_bt_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(c.len(), m * n, "out length");
    let lvl = crate::level();
    let grain = row_grain(m, k, n);
    if scalar_sweep(lvl, k, n) {
        parallel_chunks_mut(c, grain * n, |ci, cchunk| {
            let row0 = ci * grain;
            for (r, crow) in cchunk.chunks_mut(n).enumerate() {
                let i = row0 + r;
                let arow = &a[i * k..(i + 1) * k];
                for (j, cv) in crow.iter_mut().enumerate() {
                    let brow = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    for (av, bv) in arow.iter().zip(brow) {
                        acc += av * bv;
                    }
                    *cv = acc;
                }
            }
        });
        return;
    }
    let vs = VecShape { lvl, k, n, a_row_stride: k, a_step: 1, layout: BLayout::Transposed };
    with_pack_buf(vs.vector_cols() * k, |panel| {
        pack_b_transposed(lvl, b, k, vs.vector_cols(), panel);
        let panel = &*panel;
        parallel_chunks_mut(c, grain * n, |ci, cchunk| {
            vector_chunk::<false>(vs, a, b, panel, ci * grain, cchunk);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{available_levels, canon_bits, with_level};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|&x| canon_bits(x)).collect()
    }

    fn run_all(a: &[f32], b_rm: &[f32], bt: &[f32], m: usize, k: usize, n: usize) -> [Vec<u32>; 3] {
        let mut c1 = vec![f32::NAN; m * n];
        let mut c2 = vec![f32::NAN; m * n];
        let mut c3 = vec![f32::NAN; m * n];
        // A stored transposed for at_b: at[p*m + i] = a[i*k + p].
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        matmul_into(a, b_rm, m, k, n, &mut c1);
        matmul_at_b_into(&at, b_rm, m, k, n, &mut c2);
        matmul_a_bt_into(a, bt, m, k, n, &mut c3);
        [bits(&c1), bits(&c2), bits(&c3)]
    }

    #[test]
    fn levels_agree_on_hostile_inputs() {
        // Shapes straddle both edges of the 4 × 16 and 8 × 32 tiles (and
        // their one-vector, 8-wide AVX2 and scalar-tail remainders at
        // every width); values include the NaN/Inf interactions that make
        // the zero-skip semantic, and subnormal pairs whose product
        // underflows to -0.0.
        let specials =
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1e-40, f32::MAX, -2.5, -1e-40];
        let mut shapes = vec![(1, 1, 1), (3, 5, 7), (4, 9, 8), (5, 3, 17), (2, 16, 33)];
        for m in [1, 3, 4, 5, 7, 8, 9] {
            for n in [8, 15, 16, 17, 24, 31, 32, 33, 40, 47, 48] {
                shapes.extend([1, 7, 64].map(|k| (m, k, n)));
            }
        }
        for (m, k, n) in shapes {
            // Every third row of A is all ±0.0, against a B full of Inf/NaN.
            let a: Vec<f32> = (0..m * k)
                .map(|i| if i / k % 3 == 0 { [0.0, -0.0][i % 2] } else { specials[i % 9] })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|i| specials[(i + 3) % 9]).collect();
            let bt: Vec<f32> = (0..n * k).map(|i| specials[(i + 5) % 9]).collect();
            let reference = with_level(Level::Scalar, || run_all(&a, &b, &bt, m, k, n));
            for lvl in available_levels() {
                let got = with_level(lvl, || run_all(&a, &b, &bt, m, k, n));
                assert_eq!(got, reference, "{lvl} diverged at m={m} k={k} n={n}");
                // The mask is the skip: a zero row of A yields +0.0 exactly,
                // whatever B holds, in both skipping layouts.
                for zero_row in (0..m).step_by(3) {
                    let row = zero_row * n..(zero_row + 1) * n;
                    assert!(
                        got[0][row.clone()].iter().all(|&c| c == 0),
                        "{lvl} matmul {m}x{k}x{n}"
                    );
                    assert!(got[1][row].iter().all(|&c| c == 0), "{lvl} at_b {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn known_product() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        for lvl in available_levels() {
            let mut c = vec![0.0f32; 4];
            with_level(lvl, || matmul_into(&a, &b, 2, 3, 2, &mut c));
            assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0], "{lvl}");
        }
    }

    #[test]
    fn overwrites_garbage_output() {
        // All three kernels promise every output element is overwritten.
        let a = vec![1.0f32; 2 * 4];
        let b = vec![2.0f32; 4 * 10];
        let bt = vec![3.0f32; 10 * 4];
        for lvl in available_levels() {
            with_level(lvl, || {
                let mut c = vec![f32::NAN; 2 * 10];
                matmul_into(&a, &b, 2, 4, 10, &mut c);
                assert!(c.iter().all(|&v| v == 8.0), "{lvl}");
                c.fill(f32::NAN);
                matmul_a_bt_into(&a, &bt, 2, 4, 10, &mut c);
                assert!(c.iter().all(|&v| v == 12.0), "{lvl}");
            });
        }
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn checks_dims() {
        matmul_into(&[1.0], &[1.0], 2, 2, 2, &mut [0.0; 4]);
    }
}
