//! The matrix-product kernel behind [`Tensor::matmul`] and
//! [`Tensor::matmul_tn`], with runtime AVX2 dispatch.
//!
//! **Determinism contract.** Every output element `out[i, j]` is
//! `((0 + a[i,p0]·b[p0,j]) + a[i,p1]·b[p1,j]) + …` over the shared index
//! `p` in ascending order, where terms whose left operand `a[i,p]` is
//! exactly zero are skipped, and each term is a separate multiply and add
//! (never a fused multiply-add). Vectorising runs across the output
//! columns `j`, never across `p`, so the 4-lane baseline build and the
//! 8-lane AVX2 build of the one body below compute the same bits. Logs and
//! checkpoints are therefore byte-identical across x86-64 hosts with and
//! without AVX2, and across versions that keep this contract (pinned by
//! the `golden_kernels` test in `flor-ml`).
//!
//! The zero skip is also a speed-up: ReLU leaves about half of each hidden
//! activation at zero, and a skipped term saves a pass over an output row.
//!
//! [`Tensor::matmul`]: crate::Tensor::matmul
//! [`Tensor::matmul_tn`]: crate::Tensor::matmul_tn

/// A strided `rows × cols` left operand. Strides let [`gemm`] read a
/// transposed matrix in place: `selfᵀ` of a row-major `[k, m]` tensor is
/// `rows = m, cols = k, row_stride = 1, col_stride = m`.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub data: &'a [f32],
    pub rows: usize,
    pub cols: usize,
    pub row_stride: usize,
    pub col_stride: usize,
}

/// `out = lhs · b` for a row-major `[lhs.cols, n]` right operand and a
/// zeroed row-major `[lhs.rows, n]` output. Uses the AVX2 build when the
/// CPU has it (`is_x86_feature_detected!` caches its CPUID probe, so this
/// is one relaxed load per call) and the baseline build otherwise; both
/// produce the same bits.
pub(crate) fn gemm(lhs: Lhs<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the only feature `gemm_avx2`
        // enables.
        unsafe { gemm_avx2(lhs, b, n, out) };
        return;
    }
    gemm_body(lhs, b, n, out);
}

/// [`gemm_body`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(lhs: Lhs<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_body(lhs, b, n, out);
}

/// The one kernel body. `#[inline(always)]` so each caller compiles it for
/// its own target features: baseline in [`gemm`], AVX2 in `gemm_avx2`.
#[inline(always)]
pub(crate) fn gemm_body(lhs: Lhs<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(b.len(), lhs.cols * n, "gemm rhs length");
    assert_eq!(out.len(), lhs.rows * n, "gemm out length");
    if n == 0 {
        return;
    }
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        for p in 0..lhs.cols {
            let a = lhs.data[i * lhs.row_stride + p * lhs.col_stride];
            if a == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *o += a * bv;
            }
        }
    }
}
