//! The dense tensor type: contiguous row-major `f32` storage over a
//! refcounted, copy-on-write slab.

use crate::kernel::{self, Lhs};
use crate::shape::Shape;
use bytes::BufMut;
use std::fmt;
use std::sync::Arc;

/// A dense, contiguous, row-major `f32` tensor.
///
/// This is the unit of model state in flor-rs: weights, gradients, optimizer
/// moment buffers, activations and batches are all `Tensor`s. Checkpoints
/// serialize tensors with [`Tensor::to_bytes`] / [`Tensor::write_payload`].
///
/// Storage is a refcounted slab (`Arc<Vec<f32>>`) with **copy-on-write**
/// mutation: cloning a tensor is an `Arc` bump, and [`Tensor::data_mut`]
/// copies the slab only when another handle still references it. This is
/// the userspace analogue of the paper's `fork()` checkpointing — a
/// snapshot taken by the background materializer holds the slab for free,
/// and the training thread pays one copy per slab only if it mutates that
/// state while the snapshot is in flight. Value semantics are preserved:
/// mutation through one handle is never visible through another.
///
/// Operations allocate their results; in-place variants (`*_inplace`,
/// [`Tensor::axpy`]) exist for the optimizer hot path.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn new(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![0.0; n]),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![value; n]),
        }
    }

    /// Rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(Vec::new()),
            data: Arc::new(vec![value]),
        }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Tensor {
            shape: Shape::from([values.len()]),
            data: Arc::new(values.to_vec()),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major). Copy-on-write: if a
    /// snapshot (or any other handle) still shares this slab, it is copied
    /// once here before mutation — the fork()-style page-copy moment.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data_mut()[off] = value;
    }

    /// The single value of a scalar (rank-0 or one-element) tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with shape {}",
            self.shape
        );
        self.data[0]
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} ({} elems) to {} ({} elems)",
            self.shape,
            self.numel(),
            shape,
            shape.numel()
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    // ---- elementwise -----------------------------------------------------

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op on mismatched shapes {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// `self += alpha * other`, the optimizer hot path (no allocation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy on mismatched shapes {} vs {}",
            self.shape, other.shape
        );
        for (x, &y) in self.data_mut().iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// Adds a bias vector to every row of a `[rows, cols]` matrix, in place
    /// (the `Linear` forward adds its bias to the fresh matmul output).
    ///
    /// # Panics
    /// Panics unless `self` is rank-2 and `bias` is rank-1 of length `cols`.
    pub fn add_row_broadcast_inplace(&mut self, bias: &Tensor) {
        assert_eq!(
            self.shape.rank(),
            2,
            "add_row_broadcast_inplace requires a matrix"
        );
        let cols = self.shape.dim(1);
        assert_eq!(
            bias.shape.dims(),
            &[cols],
            "bias shape {} incompatible with {} columns",
            bias.shape,
            cols
        );
        if cols == 0 {
            return;
        }
        for row in self.data_mut().chunks_exact_mut(cols) {
            for (x, &b) in row.iter_mut().zip(bias.data.iter()) {
                *x += b;
            }
        }
    }

    // ---- reductions ------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// L2 norm of all elements. This is the quantity Alice probes in the
    /// paper's §2.1 scenario ("magnitudes of the weights and gradients").
    pub fn norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Maximum element; `-inf` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Column-wise sum of a `[rows, cols]` matrix, yielding a `[cols]` vector.
    /// Used by bias gradients.
    ///
    /// # Panics
    /// Panics unless `self` is rank-2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "sum_rows requires a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::new([cols], out)
    }

    /// Index of the maximum element in each row of a `[rows, cols]` matrix.
    ///
    /// # Panics
    /// Panics unless `self` is rank-2 with at least one column.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows requires a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert!(cols > 0, "argmax_rows requires at least one column");
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                // First index of the maximum (ties break low, like argmax).
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    // ---- linear algebra ---------------------------------------------------

    /// Matrix product of `[m, k] × [k, n] → [m, n]`.
    ///
    /// Each output element sums its products in ascending `k` order,
    /// skipping zero left operands, with no fused multiply-add; the result
    /// is bit-identical on every host (see the `kernel` module).
    ///
    /// # Panics
    /// Panics unless both operands are rank-2 with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul lhs must be a matrix");
        assert_eq!(other.shape.rank(), 2, "matmul rhs must be a matrix");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(
            k, k2,
            "matmul inner dims differ: {} vs {}",
            self.shape, other.shape
        );
        let lhs = Lhs {
            data: &self.data,
            rows: m,
            cols: k,
            row_stride: k,
            col_stride: 1,
        };
        let mut out = vec![0.0f32; m * n];
        kernel::gemm(lhs, &other.data, n, &mut out);
        Tensor::new([m, n], out)
    }

    /// Transposed product `selfᵀ × other`: `[k, m]ᵀ × [k, n] → [m, n]`,
    /// reading `self` in place instead of materializing its transpose.
    /// Bit-identical to `self.transpose().matmul(other)`. This is the
    /// weight gradient `xᵀ · g` of a linear layer.
    ///
    /// # Panics
    /// Panics unless both operands are rank-2 with the same row count.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul_tn lhs must be a matrix");
        assert_eq!(other.shape.rank(), 2, "matmul_tn rhs must be a matrix");
        let (k, m) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(
            k, k2,
            "matmul_tn row counts differ: {} vs {}",
            self.shape, other.shape
        );
        let lhs = Lhs {
            data: &self.data,
            rows: m,
            cols: k,
            row_stride: 1,
            col_stride: m,
        };
        let mut out = vec![0.0f32; m * n];
        kernel::gemm(lhs, &other.data, n, &mut out);
        Tensor::new([m, n], out)
    }

    /// Matrix transpose `[m, n] → [n, m]`, copied in 16×16 tiles so that
    /// both the reads and the column-strided writes stay in cache.
    ///
    /// # Panics
    /// Panics unless `self` is rank-2.
    pub fn transpose(&self) -> Tensor {
        const TILE: usize = 16;
        assert_eq!(self.shape.rank(), 2, "transpose requires a matrix");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i0 in (0..m).step_by(TILE) {
            for j0 in (0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                for i in i0..(i0 + TILE).min(m) {
                    for (j, &v) in (j0..j1).zip(&self.data[i * n + j0..i * n + j1]) {
                        out[j * m + i] = v;
                    }
                }
            }
        }
        Tensor::new([n, m], out)
    }

    // ---- serialization ----------------------------------------------------

    /// Exact length in bytes of the [`Tensor::to_bytes`] /
    /// [`Tensor::write_payload`] encoding, computed without serializing.
    pub fn payload_len(&self) -> usize {
        4 + self.shape.dims().len() * 4 + self.data.len() * 4
    }

    /// Appends the [`Tensor::to_bytes`] encoding to `out` — the
    /// `Bytes`-backed export path: the background materializer calls this
    /// with a pooled buffer, so the training thread only ever hands over a
    /// refcounted slab handle and never serializes. On little-endian
    /// targets the data section is a single `memcpy` of the slab.
    pub fn write_payload(&self, out: &mut impl BufMut) {
        let dims = self.shape.dims();
        out.put_u32_le(dims.len() as u32);
        for &d in dims {
            out.put_u32_le(d as u32);
        }
        #[cfg(target_endian = "little")]
        {
            let f: &[f32] = &self.data;
            // Sound: f32 has no padding or invalid bit patterns as bytes,
            // u8 alignment is 1, and on little-endian the in-memory bytes
            // are exactly the wire (LE) encoding.
            let raw: &[u8] = unsafe {
                std::slice::from_raw_parts(f.as_ptr() as *const u8, std::mem::size_of_val(f))
            };
            out.put_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        for &x in self.data.iter() {
            out.put_slice(&x.to_le_bytes());
        }
    }

    /// Encodes the tensor as bytes: rank, dims (little-endian u32), then raw
    /// little-endian f32 data. Stable across platforms.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = bytes::BytesMut::with_capacity(self.payload_len());
        self.write_payload(&mut out);
        out.into_vec()
    }

    /// Decodes a tensor previously produced by [`Tensor::to_bytes`].
    ///
    /// Returns `None` if the buffer is truncated or inconsistent.
    pub fn from_bytes(bytes: &[u8]) -> Option<Tensor> {
        let mut pos = 0usize;
        let read_u32 = |bytes: &[u8], pos: &mut usize| -> Option<u32> {
            let end = pos.checked_add(4)?;
            let v = u32::from_le_bytes(bytes.get(*pos..end)?.try_into().ok()?);
            *pos = end;
            Some(v)
        };
        let rank = read_u32(bytes, &mut pos)? as usize;
        if rank > 8 {
            return None; // corrupt: we never build tensors this deep
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u32(bytes, &mut pos)? as usize);
        }
        let shape = Shape::new(dims);
        let n = shape.numel();
        let need = n.checked_mul(4)?;
        let payload = bytes.get(pos..pos.checked_add(need)?)?;
        if pos + need != bytes.len() {
            return None; // trailing garbage
        }
        let data = payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some(Tensor {
            shape,
            data: Arc::new(data),
        })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{}, {}, … ({} elems), norm={:.4}]",
                self.data[0],
                self.data[1],
                self.numel(),
                self.norm()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pcg64;
    use proptest::prelude::*;

    /// The original `matmul`: plain ikj with the zero skip. Bit-exact
    /// oracle for the vectorised kernel.
    fn matmul_oracle(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape.dim(0), a.shape.dim(1));
        let n = b.shape.dim(1);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a.data[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let rhs_row = &b.data[p * n..(p + 1) * n];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(rhs_row) {
                    *o += av * bv;
                }
            }
        }
        Tensor::new([m, n], out)
    }

    /// The original column-strided `transpose`.
    fn transpose_oracle(a: &Tensor) -> Tensor {
        let (m, n) = (a.shape.dim(0), a.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a.data[i * n + j];
            }
        }
        Tensor::new([n, m], out)
    }

    /// `matmul` through the baseline build of the kernel body, so the
    /// non-AVX2 path runs even on an AVX2 host.
    fn matmul_baseline(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape.dim(0), a.shape.dim(1));
        let n = b.shape.dim(1);
        let lhs = Lhs {
            data: &a.data,
            rows: m,
            cols: k,
            row_stride: k,
            col_stride: 1,
        };
        let mut out = vec![0.0f32; m * n];
        kernel::gemm_body(lhs, &b.data, n, &mut out);
        Tensor::new([m, n], out)
    }

    /// A matrix mixing ReLU-style exact zeros, signed zeros, subnormals,
    /// infinities and ordinary values.
    fn awkward_matrix(rows: usize, cols: usize, rng: &mut Pcg64) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| match rng.below(20) {
                0..=7 => 0.0,
                8 => -0.0,
                9 => {
                    f32::from_bits(1 + rng.below(0x007f_ffff)) * [1.0, -1.0][rng.below(2) as usize]
                }
                10 => [f32::INFINITY, f32::NEG_INFINITY][rng.below(2) as usize],
                _ => rng.uniform(-2.0, 2.0),
            })
            .collect();
        Tensor::new([rows, cols], data)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // 1–70 in every dimension covers rows shorter than one vector and
        // the scalar tails after the 4-, 8- and 16-lane vector loops.
        #[test]
        fn kernels_are_bit_identical_to_the_oracles(
            m in 1usize..71, k in 1usize..71, n in 1usize..71, seed in any::<u64>()
        ) {
            let mut rng = Pcg64::seeded(seed);
            let a = awkward_matrix(m, k, &mut rng);
            let b = awkward_matrix(k, n, &mut rng);
            let want = bits(&matmul_oracle(&a, &b));
            prop_assert_eq!(bits(&a.matmul(&b)), want.clone(), "dispatched matmul");
            prop_assert_eq!(bits(&matmul_baseline(&a, &b)), want, "baseline matmul");

            let at = a.transpose();
            prop_assert_eq!(bits(&at), bits(&transpose_oracle(&a)), "tiled transpose");
            // aᵀ is [k, m]; its transposed product with a [k, n] operand is
            // a · b again, read without a transposed copy.
            let c = awkward_matrix(k, n, &mut rng);
            prop_assert_eq!(
                bits(&at.matmul_tn(&c)),
                bits(&matmul_oracle(&transpose_oracle(&at), &c)),
                "matmul_tn"
            );
        }
    }

    #[test]
    fn construction_and_access() {
        let t = Tensor::new([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at(&[0, 1]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.numel(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn construction_length_mismatch_panics() {
        Tensor::new([2, 2], vec![1.0]);
    }

    #[test]
    fn zeros_ones_full_scalar() {
        assert_eq!(Tensor::zeros([3]).sum(), 0.0);
        assert_eq!(Tensor::ones([3]).sum(), 3.0);
        assert_eq!(Tensor::full([2], 2.5).sum(), 5.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::new([2, 2], vec![3., -1., 4., 2.]);
        let eye = Tensor::new([2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&eye).data(), a.data());
        assert_eq!(eye.matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[0, 1]), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1., 1., 1.]);
        let g = Tensor::from_slice(&[1., 2., 3.]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.sum_rows().data(), &[4., 6.]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = Tensor::new([2, 3], vec![0.1, 0.9, 0.5, 0.7, 0.2, 0.7]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn add_row_broadcast() {
        let mut a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        a.add_row_broadcast_inplace(&Tensor::from_slice(&[10., 20.]));
        assert_eq!(a.data(), &[11., 22., 13., 24.]);
        let mut empty = Tensor::zeros([3, 0]);
        empty.add_row_broadcast_inplace(&Tensor::zeros([0]));
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.reshape([3, 2]);
        assert_eq!(b.at(&[2, 1]), 6.0);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Tensor::new([2, 3], vec![1., -2.5, 3., 0., 5., 6.75]);
        let bytes = a.to_bytes();
        let b = Tensor::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(a, b);
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let a = Tensor::new([4], vec![1., 2., 3., 4.]);
        let bytes = a.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Tensor::from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = Tensor::from_slice(&[1.0]).to_bytes();
        bytes.push(0);
        assert!(Tensor::from_bytes(&bytes).is_none());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut b = a.clone();
        // Clone shares the slab (no copy yet).
        assert!(std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
        b.data_mut()[0] = 9.0;
        // Mutation through one handle never leaks into the other.
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.data(), &[9.0, 2.0, 3.0]);
        assert!(!std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
    }

    #[test]
    fn unshared_mutation_does_not_copy() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let before = a.data().as_ptr();
        a.map_inplace(|x| x * 2.0);
        a.axpy(1.0, &Tensor::from_slice(&[1.0, 1.0]));
        assert!(
            std::ptr::eq(before, a.data().as_ptr()),
            "sole owner mutates in place"
        );
        assert_eq!(a.data(), &[3.0, 5.0]);
    }

    #[test]
    fn write_payload_matches_to_bytes() {
        let t = Tensor::new([2, 3], vec![1.0, -2.5, 3.0, 0.0, f32::MIN, 6.75]);
        let mut buf = bytes::BytesMut::new();
        t.write_payload(&mut buf);
        assert_eq!(buf.as_ref(), t.to_bytes().as_slice());
        assert_eq!(buf.len(), t.payload_len());
        // Appends — must not clear what's already in the buffer.
        t.write_payload(&mut buf);
        assert_eq!(buf.len(), 2 * t.payload_len());
    }

    #[test]
    fn tensor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
