//! Dense 2-D `f32` tensors and the kernels the models need.
//!
//! Shapes are `(rows, cols)`; vectors are `(1, n)` rows. Batched 3-D work
//! (attention heads, batches of sequences) is expressed as loops over 2-D
//! tensors — at the model sizes this library targets (d ≤ 128, seq ≤ 64)
//! that is both simpler and fast enough.

// Index-based loops in these kernels mirror the maths they implement.
#![allow(clippy::needless_range_loop)]

use std::fmt;

/// A dense row-major 2-D tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f32>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)
    }
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Tensor {
            data: vec![v; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from data (length must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Tensor { data, rows, cols }
    }

    /// A `(1, n)` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let n = data.len();
        Tensor::from_vec(1, n, data)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — `(m,k) @ (k,n) -> (m,n)`.
    ///
    /// Dispatches on the process-global [`crate::kernels::kernel_mode`],
    /// downgraded to naive for few-output-row or sparse-A products
    /// (packing can't amortize / zero-skip wins); every mode is
    /// bit-identical (see the [`crate::kernels`] docs).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mode = crate::kernels::auto_mode_skip(self, self.rows, crate::kernels::kernel_mode());
        crate::kernels::matmul_with_mode(self, other, mode)
    }

    /// `self @ other^T` — `(m,k) @ (n,k)^T -> (m,n)`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mode = crate::kernels::auto_mode_mt(self.rows, crate::kernels::kernel_mode());
        crate::kernels::matmul_t_with_mode(self, other, mode)
    }

    /// `self^T @ other` — `(k,m)^T @ (k,n) -> (m,n)`.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let mode = crate::kernels::auto_mode_skip(self, self.cols, crate::kernels::kernel_mode());
        crate::kernels::t_matmul_with_mode(self, other, mode)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Tensor {
            data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Add a `(1, cols)` row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (o, &b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        out
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sum each column into a `(1, cols)` row.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Scale by a constant.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|x| x * k)
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_matches_manual() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_t_equals_matmul_with_transpose() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(4, 3, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        assert_eq!(a.matmul_t(&b).data, a.matmul(&b.transpose()).data);
    }

    #[test]
    fn t_matmul_equals_transpose_matmul() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        assert_eq!(a.t_matmul(&b).data, a.transpose().matmul(&b).data);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logits → larger probs.
        assert!(s.get(0, 2) > s.get(0, 0));
    }

    #[test]
    fn softmax_handles_extremes() {
        let a = t(1, 3, &[1000.0, 0.0, -1000.0]);
        let s = a.softmax_rows();
        assert!(s.data.iter().all(|v| v.is_finite()));
        assert!((s.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn broadcast_and_reductions() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::row(vec![10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&b).data, vec![11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.sum_rows().data, vec![4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
