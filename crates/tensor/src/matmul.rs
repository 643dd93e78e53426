//! Dense matrix multiplication: cache-blocked kernels with row-range
//! parallelism, planned through `crate::plan`.
//!
//! All three entry points (`matmul`, `matmul_tn`, `matmul_nt`) ask the
//! plan selector for one cached [`Blueprint`] per shape key — carrying
//! the cap-checked scratch/output sizes, the blocking parameters, and
//! the hoisted parallel/serial decision — then share a small set of
//! serial block kernels and partition *rows of the output* across the
//! [`crate::par`] pool. Each output element is owned by exactly one
//! chunk and its `k`-accumulation runs in increasing-`p` order in a
//! single `f32` accumulator — the same order as the reference
//! three-loop kernel — so results are **bit-exact regardless of thread
//! count or blocking choice**. That invariant is what keeps checkpoints
//! byte-reproducible and the seed-sensitive statistical tests stable;
//! see the proptests in `tests/par_invariance.rs`.
//!
//! `B` is repacked once per call into `kc × nc` panels cut into 8-, 4-
//! and 1-column strips, and one micro-kernel sweeps each panel in
//! register tiles of 4 rows of `A` by one strip. The tile's sums stay
//! in fixed-size accumulator arrays for the whole panel, so even a
//! product whose output rows are only a few columns wide (a conv on a
//! 2×2 map) keeps its running sums in registers, not in `out`. Packing
//! copies values without arithmetic, so it cannot perturb the
//! accumulation order. On the serial path the packing panel comes from
//! the thread-local scratch arena, so steady-state serving re-uses one
//! high-water buffer instead of allocating per call.

use std::ops::Range;
use std::sync::Arc;

use crate::plan::alloc;
use crate::plan::blueprint::{Blocking, Blueprint, OpKind};
use crate::plan::selector;
use crate::{par, Result, Shape, Tensor, TensorError};

/// Rows of `A` per register tile; a block's leftover rows run as
/// one-row tiles. Four rows by an 8-wide strip is 8 SSE registers of
/// accumulators, which the baseline x86-64 target holds without
/// spilling; an 8-row tile needs all 16 and measured slower.
const MR: usize = 4;

/// Columns of the widest packed `B` strip. A panel's leftover columns
/// are cut into one 4-wide strip (when at least 4 remain) and then
/// 1-wide strips.
const NR: usize = 8;

/// Width of the next packed strip when `rem` columns of a panel are
/// left. `Panel::row_tile` walks the same sequence with `chunks_exact`.
fn strip_width(rem: usize) -> usize {
    if rem >= NR {
        NR
    } else if rem >= 4 {
        4
    } else {
        1
    }
}

/// Packs `b` (`[k, n]`, row-major) into `kc × nc` panels. Panels are
/// stored one after another, `pc`-major within each `jc` column, so
/// panel `(jc, pc)` starts at `jc * k + pc * ncb` and holds `kcb · ncb`
/// floats. Inside a panel the columns are cut into strips of
/// [`strip_width`] columns, each stored `[kcb][width]` row-major, so
/// the micro-kernel reads one contiguous strip row per `p`. Pure data
/// movement. `packed` must hold exactly `k * n` elements; every slot is
/// overwritten.
pub(crate) fn pack_b_into(b: &[f32], k: usize, n: usize, bl: Blocking, packed: &mut [f32]) {
    let mut rest = packed;
    for jc in (0..n).step_by(bl.nc) {
        let ncb = bl.nc.min(n - jc);
        for pc in (0..k).step_by(bl.kc) {
            let kcb = bl.kc.min(k - pc);
            let mut j0 = 0;
            while j0 < ncb {
                let width = strip_width(ncb - j0);
                let (strip, tail) = std::mem::take(&mut rest).split_at_mut(kcb * width);
                rest = tail;
                let src_rows = b.chunks_exact(n).skip(pc);
                for (dst, src) in strip.chunks_exact_mut(width).zip(src_rows) {
                    for (d, &v) in dst.iter_mut().zip(src.iter().skip(jc + j0)) {
                        *d = v;
                    }
                }
                j0 += width;
            }
        }
    }
}

/// Serial blocked kernel: multiplies `rows` rows of `A` (`a_block`,
/// `[rows, k]` row-major) by a [`pack_b_into`]-packed `B` (`[k, n]`,
/// packed with the same `bl`), accumulating into `out` (`[rows, n]`,
/// which must arrive zeroed).
///
/// Each `kc` panel is swept in register tiles of [`MR`] rows by one
/// packed strip (8, 4 or 1 columns); see [`tile`]. Per output element
/// the `k` terms are added in increasing-`p` order into one `f32`
/// chain starting at `0.0` — identical to the naive i-k-j loop — so
/// any `(mc, kc, nc)` blocking changes nothing numerically.
pub(crate) fn gemm_rows_into(
    a_block: &[f32],
    rows: usize,
    k: usize,
    packed_b: &[f32],
    n: usize,
    bl: Blocking,
    out: &mut [f32],
) {
    let a_block = &a_block[..rows * k];
    let out = &mut out[..rows * n];
    let mut panels = packed_b;
    for jc in (0..n).step_by(bl.nc) {
        let ncb = bl.nc.min(n - jc);
        for pc in (0..k).step_by(bl.kc) {
            let kcb = bl.kc.min(k - pc);
            let (b, tail) = panels.split_at(kcb * ncb);
            panels = tail;
            let panel = Panel { b, kcb, pc, jc };
            for (a_rows, o_rows) in a_block.chunks(bl.mc * k).zip(out.chunks_mut(bl.mc * n)) {
                let mut a_tiles = a_rows.chunks_exact(MR * k);
                let mut o_tiles = o_rows.chunks_exact_mut(MR * n);
                for (a_t, o_t) in a_tiles.by_ref().zip(o_tiles.by_ref()) {
                    panel.row_tile::<MR>(a_t, k, o_t, n);
                }
                let a_left = a_tiles.remainder().chunks_exact(k);
                let o_left = o_tiles.into_remainder().chunks_exact_mut(n);
                for (a_t, o_t) in a_left.zip(o_left) {
                    panel.row_tile::<1>(a_t, k, o_t, n);
                }
            }
        }
    }
}

/// One packed `kcb × ncb` panel of `B`, with the depth offset `pc` and
/// the output column `jc` it starts at.
struct Panel<'b> {
    b: &'b [f32],
    kcb: usize,
    pc: usize,
    jc: usize,
}

impl Panel<'_> {
    /// Multiplies the `R` rows of `a_t` (`[R, k]`) by every strip of
    /// the panel, accumulating into the matching columns of `o_t`
    /// (`[R, n]`).
    fn row_tile<const R: usize>(&self, a_t: &[f32], k: usize, o_t: &mut [f32], n: usize) {
        let mut col = self.jc;
        let mut wide = self.b.chunks_exact(self.kcb * NR);
        for strip in wide.by_ref() {
            tile::<R, NR>(a_t, k, self.pc, strip, o_t, n, col);
            col += NR;
        }
        let mut four = wide.remainder().chunks_exact(self.kcb * 4);
        for strip in four.by_ref() {
            tile::<R, 4>(a_t, k, self.pc, strip, o_t, n, col);
            col += 4;
        }
        for strip in four.remainder().chunks_exact(self.kcb) {
            tile::<R, 1>(a_t, k, self.pc, strip, o_t, n, col);
            col += 1;
        }
    }
}

/// The micro-kernel: an `R × C` tile of `out` held in fixed-size
/// accumulators across one `kcb`-deep panel. `a_t` is `[R, k]` (the
/// tile's rows of `A`), `strip` the packed `[kcb, C]` strip of `B`,
/// and the tile's output columns start at `col` in the `[R, n]` rows
/// of `o_t`.
///
/// The accumulators are seeded from `out` and written back after the
/// panel, and `p` runs in ascending order, so every element's `k`-sum
/// stays the single `f32` chain of the naive loop (Rust never contracts
/// `a * b + c` to an FMA). Narrower edge tiles are the same loop with
/// smaller `R`/`C`. Kept out of line so each `(R, C)` gets its own
/// register allocation.
#[inline(never)]
fn tile<const R: usize, const C: usize>(
    a_t: &[f32],
    k: usize,
    pc: usize,
    strip: &[f32],
    o_t: &mut [f32],
    n: usize,
    col: usize,
) {
    let kcb = strip.len() / C;
    // Every row is exactly `kcb` long and `p < kcb` below, which lets
    // the compiler drop the bounds checks from the inner loop.
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a_t[r * k + pc..][..kcb]);
    let mut acc = [[0.0f32; C]; R];
    for (acc_row, o_row) in acc.iter_mut().zip(o_t.chunks_exact(n)) {
        for (c, &o) in acc_row.iter_mut().zip(o_row.iter().skip(col)) {
            *c = o;
        }
    }
    for (p, b_row) in strip.chunks_exact(C).enumerate().take(kcb) {
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let a = a_row[p];
            for (c, &b) in acc_row.iter_mut().zip(b_row) {
                *c += a * b;
            }
        }
    }
    for (acc_row, o_row) in acc.iter().zip(o_t.chunks_exact_mut(n)) {
        for (&c, o) in acc_row.iter().zip(o_row.iter_mut().skip(col)) {
            *o = c;
        }
    }
}

/// Dot-product kernel for `A × Bᵀ`: `a_block` is `[rows, k]`, `b` is
/// `[n, k]` (both row-major, so every dot streams two contiguous rows).
/// When `accumulate` is false the result is stored; when true it is
/// added onto `out` (used by `conv2d_backward`'s ∂weight accumulation
/// across samples, matching the serial `grad += gw` association).
pub(crate) fn gemm_nt_block(
    a_block: &[f32],
    rows: usize,
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    for i in 0..rows {
        let a_row = &a_block[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            if accumulate {
                *o += acc;
            } else {
                *o = acc;
            }
        }
    }
}

/// Transposes `src` (`[rows, cols]` row-major) into `dst`
/// (`[cols, rows]`, at least `rows * cols` elements).
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            if let Some(slot) = dst.get_mut(c * rows + r) {
                *slot = v;
            }
        }
    }
}

/// Serial driver: packs `B` into an arena panel and runs the blocked
/// kernel for all `bp.rows` rows. Zero heap allocation once the arena
/// is warm (the output buffer is the caller's, freshly allocated by
/// design — it outlives the call as tensor data).
fn gemm_serial(bp: &Blueprint, a: &[f32], b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = alloc::scratch_f32(bp.scratch);
    pack_b_into(b, k, n, bp.blocking, &mut packed);
    let mut out = alloc::fresh_vec(bp.out_len);
    gemm_rows_into(a, bp.rows, k, &packed, n, bp.blocking, &mut out);
    out
}

/// Parallel driver: the pool requires `'static` jobs (no unsafe
/// lifetime erasure in this workspace), so `A` and the packed `B` are
/// shared via `Arc` — one O(m·k + k·n) copy against O(m·k·n) compute.
/// Those cross-thread buffers deliberately bypass the arena: a buffer
/// dropped on another thread would migrate into that thread's pool.
fn gemm_parallel(bp: &Blueprint, a: Arc<Vec<f32>>, b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed_buf = alloc::fresh_vec(bp.scratch);
    pack_b_into(b, k, n, bp.blocking, &mut packed_buf);
    let packed = Arc::new(packed_buf);
    let blocking = bp.blocking;
    let blocks = par::parallel_rows(bp.rows, move |rows: Range<usize>| {
        let len = rows.end - rows.start;
        let mut block = alloc::fresh_vec(len * n);
        gemm_rows_into(
            &a[rows.start * k..rows.end * k],
            len,
            k,
            &packed,
            n,
            blocking,
            &mut block,
        );
        block
    });
    let mut out = alloc::fresh_with(bp.out_len);
    for block in blocks {
        out.extend_from_slice(&block);
    }
    out
}

fn check_rank2(op: &'static str, lhs: &Tensor, rhs: &Tensor) -> Result<()> {
    for t in [lhs, rhs] {
        if t.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: t.rank(),
            });
        }
    }
    Ok(())
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Cache-blocked over a packed `B` with blocking chosen by the plan
    /// selector per shape class, partitioned by output rows across the
    /// [`crate::par`] pool, and bit-exact across thread counts and
    /// blocking choices (see the module docs). Non-finite values
    /// propagate: a `NaN`/`Inf` anywhere in either operand reaches
    /// every output it mathematically touches (there is deliberately no
    /// zero-skip — `0 × NaN` must stay `NaN`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not
    /// rank 2, [`TensorError::ShapeMismatch`] if the inner dimensions
    /// disagree, or [`TensorError::Overflow`] if the output size would
    /// overflow `usize`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        check_rank2("matmul", self, other)?;
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::shape_mismatch(
                "matmul",
                self.dims(),
                other.dims(),
            ));
        }
        let bp = selector::plan_gemm(OpKind::MatMul, m, k, n)?;
        let out = if bp.parallel {
            let a = Arc::new(alloc::fresh_from(self.as_slice()));
            gemm_parallel(&bp, a, other.as_slice(), k, n)
        } else {
            gemm_serial(&bp, self.as_slice(), other.as_slice(), k, n)
        };
        Tensor::from_vec(out, Shape::of(&[m, n]))
    }

    /// `selfᵀ × other` without materializing the transpose for the
    /// caller: `self` is `[k, m]`, `other` is `[k, n]`, result `[m, n]`.
    /// This shows up in the backward pass of dense layers
    /// (`∂W = xᵀ · ∂y`).
    ///
    /// Internally `self` *is* transposed into a scratch buffer (an
    /// O(k·m) copy, arena-backed on the serial path) so the same
    /// blocked row-parallel kernel — and the same increasing-`p`
    /// accumulation order — serves all layouts.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        check_rank2("matmul_tn", self, other)?;
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::shape_mismatch(
                "matmul_tn",
                self.dims(),
                other.dims(),
            ));
        }
        let bp = selector::plan_gemm(OpKind::MatMulTn, m, k, n)?;
        let out = if bp.parallel {
            let mut at = alloc::fresh_vec(bp.scratch2);
            transpose_into(self.as_slice(), k, m, &mut at);
            gemm_parallel(&bp, Arc::new(at), other.as_slice(), k, n)
        } else {
            let mut at = alloc::scratch_f32(bp.scratch2);
            transpose_into(self.as_slice(), k, m, &mut at);
            gemm_serial(&bp, &at, other.as_slice(), k, n)
        };
        Tensor::from_vec(out, Shape::of(&[m, n]))
    }

    /// `self × otherᵀ` without materializing the transpose.
    ///
    /// `self` is `[m, k]`, `other` is `[n, k]`, result is `[m, n]`.
    /// This shows up in the backward pass of dense layers
    /// (`∂x = ∂y · Wᵀ` for a `[out, in]` weight laid out as `[n, k]`).
    /// Both operands are already row-major along `k`, so this stays a
    /// streaming dot-product kernel, row-partitioned across the pool.
    /// The dispatch decision comes from the same cached blueprint as
    /// the packed variants, so parallel/serial and blocking choices can
    /// never disagree.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        check_rank2("matmul_nt", self, other)?;
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::shape_mismatch(
                "matmul_nt",
                self.dims(),
                other.dims(),
            ));
        }
        let bp = selector::plan_gemm(OpKind::MatMulNt, m, k, n)?;
        if !bp.parallel {
            let mut out = alloc::fresh_vec(bp.out_len);
            gemm_nt_block(self.as_slice(), m, other.as_slice(), k, n, &mut out, false);
            return Tensor::from_vec(out, Shape::of(&[m, n]));
        }
        let a = Arc::new(alloc::fresh_from(self.as_slice()));
        let b = Arc::new(alloc::fresh_from(other.as_slice()));
        let blocks = par::parallel_rows(m, move |rows: Range<usize>| {
            let len = rows.end - rows.start;
            let mut block = alloc::fresh_vec(len * n);
            gemm_nt_block(
                &a[rows.start * k..rows.end * k],
                len,
                &b,
                k,
                n,
                &mut block,
                false,
            );
            block
        });
        let mut out = alloc::fresh_with(bp.out_len);
        for block in blocks {
            out.extend_from_slice(&block);
        }
        Tensor::from_vec(out, Shape::of(&[m, n]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::blueprint::{blocking_for, ShapeClass, DEFAULT_BLOCKING};
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), Shape::new(vec![rows, cols])).unwrap()
    }

    #[test]
    fn small_product() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = mat(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = mat(2, 3, &[0.0; 6]);
        let b = mat(2, 3, &[0.0; 6]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(Tensor::zeros(&[2]).matmul(&a).is_err());
    }

    #[test]
    fn blocked_kernel_matches_naive_beyond_block_bounds() {
        // Dimensions straddling the default mc/kc/nc boundaries so
        // several panels and partial edge blocks are exercised.
        let (mc, kc, nc) = (
            DEFAULT_BLOCKING.mc,
            DEFAULT_BLOCKING.kc,
            DEFAULT_BLOCKING.nc,
        );
        let (m, k, n) = (mc + 3, kc + 5, nc + 7);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37) % 101) as f32 * 0.25 - 12.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53) % 89) as f32 * 0.125 - 5.0)
            .collect();
        let fast = mat(m, k, &a).matmul(&mat(k, n, &b)).unwrap();
        // Naive reference in the same per-element accumulation order.
        for &(i, j) in &[(0usize, 0usize), (m - 1, n - 1), (mc, nc), (7, kc)] {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            assert_eq!(fast.as_slice()[i * n + j].to_bits(), acc.to_bits());
        }
    }

    /// Blockings the bit-exactness checks sweep: every class default,
    /// degenerate 1×1×1 panels, blocks smaller than one register tile,
    /// and odd sizes that leave edge tiles in every dimension.
    fn listed_blockings() -> Vec<Blocking> {
        let mut all = vec![
            DEFAULT_BLOCKING,
            Blocking {
                mc: 1,
                kc: 1,
                nc: 1,
            },
            Blocking {
                mc: 8,
                kc: 16,
                nc: 8,
            },
            Blocking {
                mc: 128,
                kc: 512,
                nc: 1024,
            },
            Blocking {
                mc: 3,
                kc: 7,
                nc: 11,
            },
            Blocking {
                mc: 13,
                kc: 5,
                nc: 4,
            },
        ];
        for class in [
            ShapeClass::SmallSerial,
            ShapeClass::VecMat,
            ShapeClass::TallSkinny,
            ShapeClass::WideFlat,
            ShapeClass::Square,
        ] {
            all.push(blocking_for(class));
        }
        all
    }

    /// Deterministic operand of `len` values, varied by `salt`.
    fn operand(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 31 + salt * 7) % 97) as f32 * 0.37 - 17.0)
            .collect()
    }

    /// The naive i-k-j product with one accumulator per element, `p`
    /// ascending: the order the tiled kernel must reproduce bit for bit.
    fn naive_bits(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<u32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a_ip = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += a_ip * b[p * n + j];
                }
            }
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs the packed tile kernel directly under `bl`.
    fn kernel_bits(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, bl: Blocking) -> Vec<u32> {
        let mut packed = vec![0.0f32; k * n];
        pack_b_into(b, k, n, bl, &mut packed);
        let mut out = vec![0.0f32; m * n];
        gemm_rows_into(a, m, k, &packed, n, bl, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_blocking_candidate_is_bit_identical() {
        // The selector's bit-safety argument, checked directly: run the
        // raw kernel under every listed (mc, kc, nc) and demand the
        // naive single-accumulator loop's exact bits. The shapes leave
        // rows short of and past a row tile, put n = 4 (a conv on a 2×2
        // map) and n between strip widths, and cross kc.
        for (m, k, n) in [
            (1, 1, 1),
            (7, 3, 4),
            (8, 17, 4),
            (9, 33, 5),
            (16, 40, 8),
            (17, 9, 12),
            (3, 40, 15),
            (40, 40, 40),
            (37, 65, 41),
        ] {
            let a = operand(m * k, m);
            let b = operand(k * n, n);
            let reference = naive_bits(&a, &b, m, k, n);
            for bl in listed_blockings() {
                assert_eq!(
                    kernel_bits(&a, &b, m, k, n, bl),
                    reference,
                    "{m}x{k}x{n} under {bl:?} changed bits"
                );
            }
        }
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = mat(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 4, &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(4, 3, &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn nan_in_left_operand_reaches_output() {
        // Regression for the removed `a_ip == 0.0` sparse-skip: a NaN
        // multiplied by anything — and anything multiplied by 0 × NaN —
        // must stay NaN instead of being laundered into a clean logit.
        let mut av = vec![1.0f32; 6];
        av[4] = f32::NAN; // a[1][1]
        let a = mat(2, 3, &av);
        let b = mat(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c = a.matmul(&b).unwrap();
        // Row 0 untouched, row 1 fully poisoned.
        assert!(c.as_slice()[..2].iter().all(|v| v.is_finite()));
        assert!(c.as_slice()[2..].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn nan_in_right_operand_reaches_output_even_against_zero() {
        // 0.0 × NaN must be NaN: the old kernel skipped zero entries of
        // A and produced a finite 0.0 here.
        let a = mat(1, 2, &[0.0, 0.0]);
        let mut bv = vec![1.0f32; 4];
        bv[2] = f32::NAN; // b[1][0]
        let b = mat(2, 2, &bv);
        let c = a.matmul(&b).unwrap();
        assert!(
            c.as_slice()[0].is_nan(),
            "0·NaN was laundered to {}",
            c.as_slice()[0]
        );
        assert!(c.as_slice()[1].is_finite());
    }

    #[test]
    fn nan_propagates_through_tn_and_nt() {
        let mut av = vec![0.0f32; 6];
        av[0] = f32::NAN;
        let a_tn = mat(3, 2, &av); // NaN at [0][0] → poisons output row 0
        let b = mat(3, 2, &[1.0; 6]);
        let c = a_tn.matmul_tn(&b).unwrap();
        assert!(c.as_slice()[..2].iter().all(|v| v.is_nan()));
        assert!(c.as_slice()[2..].iter().all(|v| v.is_finite()));

        let a = mat(2, 3, &[0.0; 6]);
        let mut bv = vec![1.0f32; 6];
        bv[0] = f32::NAN; // b row 0 → output column 0
        let b_nt = mat(2, 3, &bv);
        let c = a.matmul_nt(&b_nt).unwrap();
        assert!(c.as_slice()[0].is_nan());
        assert!(c.as_slice()[2].is_nan());
        assert!(c.as_slice()[1].is_finite());
        assert!(c.as_slice()[3].is_finite());
    }

    #[test]
    fn infinity_propagates() {
        let a = mat(1, 2, &[0.0, 1.0]);
        let b = mat(2, 1, &[f32::INFINITY, 1.0]);
        // 0·∞ = NaN, NaN + 1 = NaN.
        assert!(a.matmul(&b).unwrap().as_slice()[0].is_nan());
    }

    proptest! {
        /// Every shape up to 40 in each dimension, under every listed
        /// blocking, reproduces the naive loop's bits.
        #[test]
        fn tiled_kernel_matches_naive_bits(
            m in 1usize..41,
            k in 1usize..41,
            n in 1usize..41,
            salt in 0usize..1000,
        ) {
            let a = operand(m * k, salt);
            let b = operand(k * n, salt + 1);
            let reference = naive_bits(&a, &b, m, k, n);
            for bl in listed_blockings() {
                prop_assert_eq!(kernel_bits(&a, &b, m, k, n, bl), reference.clone());
            }
        }

        /// (A·B)·C == A·(B·C) within tolerance.
        #[test]
        fn associativity(
            a in proptest::collection::vec(-2.0f32..2.0, 6),
            b in proptest::collection::vec(-2.0f32..2.0, 6),
            c in proptest::collection::vec(-2.0f32..2.0, 6),
        ) {
            let ta = mat(2, 3, &a);
            let tb = mat(3, 2, &b);
            let tc = mat(2, 3, &c);
            let left = ta.matmul(&tb).unwrap().matmul(&tc).unwrap();
            let right = ta.matmul(&tb.matmul(&tc).unwrap()).unwrap();
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// (A·B)ᵀ == Bᵀ·Aᵀ.
        #[test]
        fn transpose_of_product(
            a in proptest::collection::vec(-2.0f32..2.0, 6),
            b in proptest::collection::vec(-2.0f32..2.0, 6),
        ) {
            let ta = mat(2, 3, &a);
            let tb = mat(3, 2, &b);
            let lhs = ta.matmul(&tb).unwrap().transpose().unwrap();
            let rhs = tb.transpose().unwrap().matmul(&ta.transpose().unwrap()).unwrap();
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
