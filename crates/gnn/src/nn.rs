//! Dense linear algebra for the training substrate.
//!
//! Row-major `f64` matrices with exactly the operations GraphSAGE needs. A
//! training step is a handful of `(rows × 64) · (64 × 64)` products, so
//! its cost is two accumulate-into kernels, `out += A·B` and `out += Aᵀ·B`
//! (`A·Bᵀ` is the first over a transposed copy of the small `B`), plus
//! row-wise passes. Both kernels share one inner loop, [`axpy4x2`] — two
//! output rows updated from four rows of `B` ([`axpy4`] for an odd last
//! row) — over `chunks_exact` slices, so no element is bounds-checked and
//! LLVM vectorises it; callers pass the output buffer, so a step reuses
//! its intermediates.
//!
//! One source body per kernel is compiled twice: at the workspace's
//! target (128-bit SSE2 on x86-64) and, on x86, inside a
//! `#[target_feature(enable = "avx2")]` wrapper that runs at twice the
//! vector width. Every call takes the AVX2 build when the CPU reports
//! AVX2. Neither build uses intrinsics, `mul_add` or the `fma` feature,
//! and Rust never reassociates or contracts floating-point arithmetic, so
//! every output element sees the same IEEE operations in the same order
//! in both: the loss does not depend on the host's vector width. The
//! guarded call into the AVX2 build is this crate's one `unsafe` block.
//! The row passes stay at the baseline build: they are memory-bound.
//!
//! No BLAS (the workspace builds offline) and no threads: a reduction
//! split across cores would make the loss depend on the core count, and
//! the pipeline already gives the other cores to prefetch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A row-major dense matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// `out[c] += a[0]·b₀[c] + a[1]·b₁[c] + a[2]·b₂[c] + a[3]·b₃[c]`, where
/// `b` holds the four rows `b₀..b₃` back to back.
#[inline(always)]
fn axpy4(out: &mut [f64], a: [f64; 4], b: &[f64]) {
    let n = out.len();
    let (b0, b) = b.split_at(n);
    let (b1, b) = b.split_at(n);
    let (b2, b3) = b.split_at(n);
    for ((((o, &b0), &b1), &b2), &b3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
        *o += a[0] * b0 + a[1] * b1 + a[2] * b2 + a[3] * b3;
    }
}

/// [`axpy4`] for two adjacent output rows (`out` holds both): each row of
/// `b` is loaded once for the pair, which makes the loop arithmetic-bound
/// instead of issue-bound — a fifth faster at 128-bit SSE2, and no longer
/// sensitive to where the linker happens to place it. The inner loop of
/// both product kernels.
#[inline(always)]
fn axpy4x2(out: &mut [f64], a0: [f64; 4], a1: [f64; 4], b: &[f64]) {
    let n = out.len() / 2;
    let (o0, o1) = out.split_at_mut(n);
    let (b0, b) = b.split_at(n);
    let (b1, b) = b.split_at(n);
    let (b2, b3) = b.split_at(n);
    let bs = b0.iter().zip(b1).zip(b2).zip(b3);
    for ((o0, o1), (((&b0, &b1), &b2), &b3)) in o0.iter_mut().zip(o1).zip(bs) {
        *o0 += a0[0] * b0 + a0[1] * b1 + a0[2] * b2 + a0[3] * b3;
        *o1 += a1[0] * b0 + a1[1] * b1 + a1[2] * b2 + a1[3] * b3;
    }
}

/// `out[c] += a · b[c]`.
#[inline(always)]
fn axpy(out: &mut [f64], a: f64, b: &[f64]) {
    for (o, &b) in out.iter_mut().zip(b) {
        *o += a * b;
    }
}

/// `params -= lr · grads`.
pub(crate) fn sgd_update(params: &mut [f64], grads: &[f64], lr: f64) {
    for (p, g) in params.iter_mut().zip(grads) {
        *p -= lr * g;
    }
}

/// The two product kernels.
#[derive(Clone, Copy)]
enum Product {
    /// `out += a @ b`.
    AB,
    /// `out += aᵀ @ b`.
    AtB,
}

/// Which build of the product kernels ran a call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Build {
    /// The workspace's target (128-bit SSE2 on x86-64).
    Baseline,
    /// The same source compiled with AVX2 enabled.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

/// The one source body of both kernels, inlined into each build.
#[inline(always)]
fn product_body(kind: Product, out: &mut Matrix, a: &Matrix, b: &Matrix) {
    match kind {
        Product::AB => out.matmul_body(a, b),
        Product::AtB => out.t_matmul_body(a, b),
    }
}

fn product_baseline(kind: Product, out: &mut Matrix, a: &Matrix, b: &Matrix) {
    product_body(kind, out, a, b);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn product_avx2(kind: Product, out: &mut Matrix, a: &Matrix, b: &Matrix) {
    product_body(kind, out, a, b);
}

/// Run `kind` on the widest build this host supports (std caches the
/// feature check) and report which one ran.
fn product(kind: Product, out: &mut Matrix, a: &Matrix, b: &Matrix) -> Build {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `product_avx2` is safe Rust whose only requirement is a
        // CPU with AVX2, which the check above has just confirmed.
        unsafe { product_avx2(kind, out, a, b) };
        return Build::Avx2;
    }
    product_baseline(kind, out, a, b);
    Build::Baseline
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap row-major `data`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from row vectors.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Xavier-style random init, deterministic under `seed`.
    pub fn glorot(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        Self::from_fn(rows, cols, |_, _| rng.random_range(-bound..bound))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Borrow a row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Chunk length that walks `data` row by row: `chunks_exact(0)` panics,
    /// so a zero-width matrix (no data) walks nothing in chunks of one.
    fn stride(&self) -> usize {
        self.cols.max(1)
    }

    /// Become a `rows × cols` matrix of zeros, keeping the allocation.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self += a @ b`.
    pub(crate) fn add_matmul(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.cols, b.rows, "add_matmul shape mismatch");
        assert_eq!((self.rows, self.cols), (a.rows, b.cols));
        product(Product::AB, self, a, b);
    }

    /// [`add_matmul`](Self::add_matmul) past its shape checks: the source
    /// body each build of the kernels inlines.
    #[inline(always)]
    fn matmul_body(&mut self, a: &Matrix, b: &Matrix) {
        let (k, n) = (a.stride(), self.stride());
        let mut out2 = self.data.chunks_exact_mut(2 * n);
        let mut a2 = a.data.chunks_exact(2 * k);
        for (out, a) in (&mut out2).zip(&mut a2) {
            let (a0, a1) = a.split_at(k);
            let mut a0 = a0.chunks_exact(4);
            let mut a1 = a1.chunks_exact(4);
            let mut b4 = b.data.chunks_exact(4 * n);
            for ((a0, a1), b) in (&mut a0).zip(&mut a1).zip(&mut b4) {
                axpy4x2(
                    out,
                    [a0[0], a0[1], a0[2], a0[3]],
                    [a1[0], a1[1], a1[2], a1[3]],
                    b,
                );
            }
            let (o0, o1) = out.split_at_mut(n);
            let tail = a0.remainder().iter().zip(a1.remainder());
            for ((&a0, &a1), b) in tail.zip(b4.remainder().chunks_exact(n)) {
                axpy(o0, a0, b);
                axpy(o1, a1, b);
            }
        }
        let a_rows = a2.remainder().chunks_exact(k);
        for (out, a_row) in out2.into_remainder().chunks_exact_mut(n).zip(a_rows) {
            let mut a4 = a_row.chunks_exact(4);
            let mut b4 = b.data.chunks_exact(4 * n);
            for (a, b) in (&mut a4).zip(&mut b4) {
                axpy4(out, [a[0], a[1], a[2], a[3]], b);
            }
            for (&a, b) in a4.remainder().iter().zip(b4.remainder().chunks_exact(n)) {
                axpy(out, a, b);
            }
        }
    }

    /// `self += aᵀ @ b` without materializing the transpose.
    pub(crate) fn add_t_matmul(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows, b.rows, "add_t_matmul shape mismatch");
        assert_eq!((self.rows, self.cols), (a.cols, b.cols));
        product(Product::AtB, self, a, b);
    }

    /// [`add_t_matmul`](Self::add_t_matmul) past its shape checks: the
    /// source body each build of the kernels inlines.
    #[inline(always)]
    fn t_matmul_body(&mut self, a: &Matrix, b: &Matrix) {
        let (k, n) = (a.stride(), self.stride());
        let mut a4 = a.data.chunks_exact(4 * k);
        let mut b4 = b.data.chunks_exact(4 * n);
        for (a, b) in (&mut a4).zip(&mut b4) {
            let col = |c: usize| [a[c], a[k + c], a[2 * k + c], a[3 * k + c]];
            let mut out2 = self.data.chunks_exact_mut(2 * n);
            for (c, out) in (&mut out2).enumerate() {
                axpy4x2(out, col(2 * c), col(2 * c + 1), b);
            }
            for out in out2.into_remainder().chunks_exact_mut(n) {
                axpy4(out, col(self.rows - 1), b);
            }
        }
        let b_rows = b4.remainder().chunks_exact(n);
        for (a_row, b_row) in a4.remainder().chunks_exact(k).zip(b_rows) {
            for (out, &a) in self.data.chunks_exact_mut(n).zip(a_row) {
                axpy(out, a, b_row);
            }
        }
    }

    /// Write `selfᵀ` into `out`. `a @ bᵀ` is `add_matmul(a, bᵀ)`; the step
    /// transposes each (small) weight matrix once and reuses the copy.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.stride()).enumerate() {
            for (o, &x) in out.data[r..].iter_mut().step_by(self.rows).zip(row) {
                *o = x;
            }
        }
    }

    /// Element-wise addition in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Become `rows` copies of `row` (the bias a layer's products
    /// accumulate onto), keeping the allocation.
    pub(crate) fn reset_rows(&mut self, rows: usize, row: &[f64]) {
        self.rows = rows;
        self.cols = row.len();
        self.data.clear();
        for _ in 0..rows {
            self.data.extend_from_slice(row);
        }
    }

    /// `sums[c] += Σ_r self[r][c]` (a bias gradient).
    pub(crate) fn add_col_sums(&self, sums: &mut [f64]) {
        assert_eq!(sums.len(), self.cols);
        for row in self.data.chunks_exact(self.stride()) {
            for (s, x) in sums.iter_mut().zip(row) {
                *s += x;
            }
        }
    }

    /// ReLU in place.
    pub(crate) fn relu(&mut self) {
        for x in &mut self.data {
            *x = x.max(0.0);
        }
    }

    /// ReLU backward in place: zero this gradient where the *activation
    /// output* was zero.
    pub(crate) fn relu_backward(&mut self, activated: &Matrix) {
        assert_eq!((self.rows, self.cols), (activated.rows, activated.cols));
        for (g, &a) in self.data.iter_mut().zip(&activated.data) {
            *g = if a > 0.0 { *g } else { 0.0 };
        }
    }

    /// Mean of rows `child[i * group..][..group]` of `self` into row `i` of
    /// `out`: GraphSAGE's mean aggregator read through a block's child table,
    /// whose entries may repeat and come in any order.
    pub(crate) fn index_mean_into(&self, child: &[u32], group: usize, out: &mut Matrix) {
        assert!(
            group > 0 && child.len().is_multiple_of(group),
            "ragged child table"
        );
        out.reset(child.len() / group, self.cols);
        let inv = 1.0 / group as f64;
        let runs = child.chunks_exact(group);
        for (o, run) in out.data.chunks_exact_mut(self.stride()).zip(runs) {
            for &c in run {
                axpy(o, 1.0, self.row(c as usize));
            }
            for x in o.iter_mut() {
                *x *= inv;
            }
        }
    }

    /// Backward of [`index_mean_into`](Self::index_mean_into), accumulated:
    /// row `i` of `grad` spreads over the rows of `self` its run of `child`
    /// names, in table order — a row named by many runs sums their shares.
    pub(crate) fn add_index_spread(&mut self, grad: &Matrix, child: &[u32], group: usize) {
        assert_eq!((child.len(), self.cols), (grad.rows * group, grad.cols));
        let n = self.stride();
        let inv = 1.0 / group as f64;
        let runs = child.chunks_exact(group.max(1));
        for (g, run) in grad.data.chunks_exact(n).zip(runs) {
            for &c in run {
                axpy(&mut self.data[c as usize * n..][..n], inv, g);
            }
        }
    }

    /// Flat view of the parameters (row-major), for optimizers.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the parameters (row-major), for optimizers.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// A dense layer `y = x W + b` with SGD-updatable parameters.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Weight matrix (in_dim × out_dim).
    pub w: Matrix,
    /// Bias vector (out_dim).
    pub b: Vec<f64>,
}

impl Dense {
    /// Glorot-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            w: Matrix::glorot(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
        }
    }

    /// Forward pass into `y` (reshaped to fit).
    pub fn forward(&self, x: &Matrix, y: &mut Matrix) {
        y.reset_rows(x.rows(), &self.b);
        y.add_matmul(x, &self.w);
    }

    /// Backward pass: writes the input gradient into `grad_x` (reshaped to
    /// fit) and accumulates parameter gradients into `gw` / `gb`.
    pub fn backward(
        &self,
        x: &Matrix,
        grad_y: &Matrix,
        gw: &mut Matrix,
        gb: &mut [f64],
        grad_x: &mut Matrix,
    ) {
        gw.add_t_matmul(x, grad_y);
        grad_y.add_col_sums(gb);
        let mut wt = Matrix::default();
        self.w.transpose_into(&mut wt);
        grad_x.reset(grad_y.rows(), self.w.rows());
        grad_x.add_matmul(grad_y, &wt);
    }

    /// SGD step.
    pub fn apply_grads(&mut self, gw: &Matrix, gb: &[f64], lr: f64) {
        assert_eq!((self.w.rows, self.w.cols), (gw.rows, gw.cols));
        sgd_update(&mut self.w.data, &gw.data, lr);
        sgd_update(&mut self.b, gb, lr);
    }
}

/// Softmax cross-entropy over logits against integer labels.
///
/// Returns `(mean_loss, grad_logits)` where the gradient is already averaged
/// over the batch.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f64, Matrix) {
    assert_eq!(logits.rows(), labels.len());
    let n = logits.rows() as f64;
    let k = logits.cols();
    // Each row of `grad` holds the logits, then their exponentials, then
    // the gradient.
    let mut grad = logits.clone();
    let mut loss = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < k, "label {label} out of range");
        let row = &mut grad.data[r * k..(r + 1) * k];
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for x in row.iter_mut() {
            *x = (*x - max).exp();
        }
        let z: f64 = row.iter().sum();
        loss += -(row[label] / z).ln();
        for (c, x) in row.iter_mut().enumerate() {
            *x = (*x / z - if c == label { 1.0 } else { 0.0 }) / n;
        }
    }
    (loss / n, grad)
}

/// The element-wise kernels the slice kernels replaced, kept as the
/// references the equivalence tests (here) and the reference training step
/// (`sage.rs`) compare against.
#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index math is the point of a reference
pub(crate) mod reference {
    use super::Matrix;

    /// `a @ b`.
    pub(crate) fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(a.rows, b.cols);
        for r in 0..a.rows {
            for k in 0..a.cols {
                let x = a.get(r, k);
                if x == 0.0 {
                    continue;
                }
                for c in 0..b.cols {
                    *out.get_mut(r, c) += x * b.get(k, c);
                }
            }
        }
        out
    }

    /// `aᵀ @ b`.
    pub(crate) fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            for k in 0..a.cols {
                let x = a.get(r, k);
                if x == 0.0 {
                    continue;
                }
                for c in 0..b.cols {
                    *out.get_mut(k, c) += x * b.get(r, c);
                }
            }
        }
        out
    }

    /// `a @ bᵀ`.
    pub(crate) fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols, "matmul_t shape mismatch");
        let mut out = Matrix::zeros(a.rows, b.rows);
        for r in 0..a.rows {
            for c in 0..b.rows {
                let mut s = 0.0;
                for k in 0..a.cols {
                    s += a.get(r, k) * b.get(c, k);
                }
                *out.get_mut(r, c) = s;
            }
        }
        out
    }

    /// Add a row vector (bias) to every row in place.
    pub(crate) fn add_row_broadcast(m: &mut Matrix, bias: &[f64]) {
        assert_eq!(bias.len(), m.cols);
        for r in 0..m.rows {
            for c in 0..m.cols {
                m.data[r * m.cols + c] += bias[c];
            }
        }
    }

    /// ReLU forward (returns the activated copy).
    pub(crate) fn relu(x: &Matrix) -> Matrix {
        Matrix {
            rows: x.rows,
            cols: x.cols,
            data: x.data.iter().map(|&x| x.max(0.0)).collect(),
        }
    }

    /// ReLU backward: zero gradient where the *activation output* was zero.
    pub(crate) fn relu_backward(grad: &Matrix, activated: &Matrix) -> Matrix {
        assert_eq!((grad.rows, grad.cols), (activated.rows, activated.cols));
        Matrix {
            rows: grad.rows,
            cols: grad.cols,
            data: grad
                .data
                .iter()
                .zip(&activated.data)
                .map(|(&g, &a)| if a > 0.0 { g } else { 0.0 })
                .collect(),
        }
    }

    /// Mean of groups of `group` consecutive rows.
    pub(crate) fn group_mean(x: &Matrix, group: usize) -> Matrix {
        assert!(
            group > 0 && x.rows.is_multiple_of(group),
            "rows not divisible"
        );
        let mut out = Matrix::zeros(x.rows / group, x.cols);
        for r in 0..x.rows {
            let o = r / group;
            for c in 0..x.cols {
                *out.get_mut(o, c) += x.get(r, c) / group as f64;
            }
        }
        out
    }

    /// Backward of [`group_mean`]: spread each output gradient row over its
    /// `group` input rows.
    pub(crate) fn group_mean_backward(grad: &Matrix, group: usize) -> Matrix {
        let mut out = Matrix::zeros(grad.rows * group, grad.cols);
        for r in 0..out.rows {
            let g = r / group;
            for c in 0..grad.cols {
                *out.get_mut(r, c) = grad.get(g, c) / group as f64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A `rows × cols` matrix of values in (-2, 2) with exact `0.0` and
    /// `-0.0` entries mixed in (the old kernels branched on zero).
    fn matrix_with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| match rng.random_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.random_range(-2.0..2.0),
        })
    }

    /// `got ≈ want` to 1e-12 relative to the larger magnitude (absolute
    /// near zero).
    fn assert_close(got: &Matrix, want: &Matrix) -> Result<(), TestCaseError> {
        prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (i, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            let tol = 1e-12 * g.abs().max(w.abs()).max(1.0);
            prop_assert!((g - w).abs() <= tol, "element {}: {} vs {}", i, g, w);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slice kernels agree with the element-wise references on
        /// every shape from empty through several 4-blocks plus remainder,
        /// starting from a non-zero `out`.
        #[test]
        fn product_kernels_match_references(
            m in 0usize..38, k in 0usize..38, n in 0usize..38, seed in any::<u64>(),
        ) {
            // out += a @ b
            let a = matrix_with_zeros(m, k, seed);
            let b = matrix_with_zeros(k, n, seed ^ 1);
            let init = matrix_with_zeros(m, n, seed ^ 2);
            let mut out = init.clone();
            out.add_matmul(&a, &b);
            let mut want = reference::matmul(&a, &b);
            want.add_assign(&init);
            assert_close(&out, &want)?;

            // out += aᵀ @ b, a: m×k, b: m×n
            let b = matrix_with_zeros(m, n, seed ^ 3);
            let init = matrix_with_zeros(k, n, seed ^ 4);
            let mut out = init.clone();
            out.add_t_matmul(&a, &b);
            let mut want = reference::t_matmul(&a, &b);
            want.add_assign(&init);
            assert_close(&out, &want)?;

            // out += a @ bᵀ through the transposed copy, b: n×k
            let b = matrix_with_zeros(n, k, seed ^ 5);
            let init = matrix_with_zeros(m, n, seed ^ 6);
            let mut bt = matrix_with_zeros(3, 3, seed); // stale contents are overwritten
            b.transpose_into(&mut bt);
            let mut out = init.clone();
            out.add_matmul(&a, &bt);
            let mut want = reference::matmul_t(&a, &b);
            want.add_assign(&init);
            assert_close(&out, &want)?;
        }

        /// The dispatched build (AVX2 where the host has it) and the
        /// baseline build give bit-identical outputs on every remainder
        /// path: zero and odd row counts, each `k % 4`, odd `n`, and a
        /// non-zero `out` to accumulate onto. Meaningful at opt-level 3,
        /// where the kernels vectorise.
        #[test]
        fn both_builds_agree_bit_for_bit(
            m in 0usize..14, k in 0usize..14, n in 0usize..20, seed in any::<u64>(),
        ) {
            if !wide_build_available() {
                return Ok(());
            }
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            // out += a @ b, then out += aᵀ @ b with a: m×k, b: m×n
            let a = matrix_with_zeros(m, k, seed);
            for (kind, b, init) in [
                (Product::AB, matrix_with_zeros(k, n, seed ^ 1), matrix_with_zeros(m, n, seed ^ 2)),
                (Product::AtB, matrix_with_zeros(m, n, seed ^ 3), matrix_with_zeros(k, n, seed ^ 4)),
            ] {
                let (mut narrow, mut wide) = (init.clone(), init);
                product_baseline(kind, &mut narrow, &a, &b);
                prop_assert!(product(kind, &mut wide, &a, &b) != Build::Baseline);
                prop_assert_eq!(bits(&narrow), bits(&wide));
            }
        }

        /// The indexed mean and scatter-add against the group references
        /// run on the table's expansion: rows repeat, arrive out of order,
        /// and some are never named.
        #[test]
        fn index_mean_and_spread_match_references(
            groups in 0usize..38, group in 1usize..38, rows in 0usize..38, cols in 0usize..38,
            seed in any::<u64>(),
        ) {
            let groups = if rows == 0 { 0 } else { groups }; // no row to name
            let mut rng = StdRng::seed_from_u64(seed ^ 7);
            let child: Vec<u32> =
                (0..groups * group).map(|_| rng.random_range(0..rows as u32)).collect();
            let x = matrix_with_zeros(rows, cols, seed);
            let expanded = Matrix::from_fn(child.len(), cols, |r, c| x.get(child[r] as usize, c));
            let mut pooled = matrix_with_zeros(2, 5, seed); // reshaped and overwritten
            x.index_mean_into(&child, group, &mut pooled);
            assert_close(&pooled, &reference::group_mean(&expanded, group))?;

            let grad = matrix_with_zeros(groups, cols, seed ^ 1);
            let init = matrix_with_zeros(rows, cols, seed ^ 2);
            let mut out = init.clone();
            out.add_index_spread(&grad, &child, group);
            let per_slot = reference::group_mean_backward(&grad, group);
            let mut want = init;
            for (slot, &row) in child.iter().enumerate() {
                for c in 0..cols {
                    *want.get_mut(row as usize, c) += per_slot.get(slot, c);
                }
            }
            assert_close(&out, &want)?;
        }

        #[test]
        fn row_passes_match_references(rows in 0usize..38, cols in 0usize..38, seed in any::<u64>()) {
            let x = matrix_with_zeros(rows, cols, seed);
            let grad = matrix_with_zeros(rows, cols, seed ^ 1);
            let bias: Vec<f64> = matrix_with_zeros(1, cols, seed ^ 2).as_slice().to_vec();

            let mut act = x.clone();
            act.relu();
            prop_assert_eq!(&act, &reference::relu(&x));
            let mut gz = grad.clone();
            gz.relu_backward(&act);
            prop_assert_eq!(&gz, &reference::relu_backward(&grad, &act));

            // Bias first, then the products on top — against products then bias.
            let mut y = Matrix::zeros(3, 2); // reshaped and overwritten
            y.reset_rows(rows, &bias);
            y.add_assign(&x);
            let mut want = x.clone();
            reference::add_row_broadcast(&mut want, &bias);
            assert_close(&y, &want)?;

            let mut sums = bias.clone();
            x.add_col_sums(&mut sums);
            for (c, (&got, &b)) in sums.iter().zip(&bias).enumerate() {
                let want = b + (0..rows).map(|r| x.get(r, c)).sum::<f64>();
                prop_assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0));
            }
        }
    }

    /// Whether this host runs the AVX2 build; prints a note when it does
    /// not, so a skipped comparison shows in the test output.
    fn wide_build_available() -> bool {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            return true;
        }
        println!("no AVX2 on this host: only the baseline build runs, nothing to compare");
        false
    }

    #[test]
    fn dispatch_picks_the_wide_build_exactly_when_the_host_has_avx2() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let want = if is_x86_feature_detected!("avx2") {
            Build::Avx2
        } else {
            Build::Baseline
        };
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let want = Build::Baseline;
        let a = Matrix::glorot(3, 5, 1);
        let mut out = Matrix::zeros(3, 6);
        assert_eq!(
            product(Product::AB, &mut out, &a, &Matrix::glorot(5, 6, 2)),
            want
        );
        let mut out = Matrix::zeros(5, 6);
        assert_eq!(
            product(Product::AtB, &mut out, &a, &Matrix::glorot(3, 6, 3)),
            want
        );
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let mut c = Matrix::zeros(2, 2);
        c.add_matmul(&a, &b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn relu_and_backward() {
        let mut y = Matrix::from_rows(&[vec![-1.0, 2.0], vec![0.5, -3.0]]);
        y.relu();
        assert_eq!(y.row(0), &[0.0, 2.0]);
        assert_eq!(y.row(1), &[0.5, 0.0]);
        let mut g = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        g.relu_backward(&y);
        assert_eq!(g.row(0), &[0.0, 1.0]);
        assert_eq!(g.row(1), &[1.0, 0.0]);
    }

    #[test]
    fn index_mean_and_backward_roundtrip() {
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ]);
        let mut m = Matrix::default();
        x.index_mean_into(&[0, 1, 2, 3], 2, &mut m);
        assert_eq!(m.row(0), &[2.0, 3.0]);
        assert_eq!(m.row(1), &[6.0, 7.0]);
        // Row 3 twice, row 0 shared by both groups, rows 1 and 2 unnamed.
        let table = [3, 3, 0, 0, 3, 0];
        x.index_mean_into(&table, 3, &mut m);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let g = Matrix::from_rows(&[vec![3.0, 3.0], vec![6.0, 6.0]]);
        let mut gx = Matrix::zeros(4, 2);
        gx.add_index_spread(&g, &table, 3);
        assert_eq!(gx.row(0), &[1.0 + 4.0, 1.0 + 4.0]);
        assert_eq!(gx.row(1), &[0.0, 0.0]);
        assert_eq!(gx.row(3), &[2.0 + 2.0, 2.0 + 2.0]);
    }

    #[test]
    fn softmax_ce_prefers_correct_label() {
        let logits = Matrix::from_rows(&[vec![5.0, 0.0], vec![0.0, 5.0]]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 0.1, "confident correct predictions: {loss}");
        // Gradient pushes the correct logit up (negative grad).
        assert!(grad.get(0, 0) < 0.0);
        assert!(grad.get(1, 1) < 0.0);
        let (bad_loss, _) = softmax_cross_entropy(&logits, &[1, 0]);
        assert!(bad_loss > 1.0, "wrong labels must hurt: {bad_loss}");
    }

    fn dense_loss(layer: &Dense, x: &Matrix, labels: &[usize]) -> (f64, Matrix) {
        let mut y = Matrix::default();
        layer.forward(x, &mut y);
        softmax_cross_entropy(&y, labels)
    }

    #[test]
    fn dense_gradient_check() {
        // Finite-difference check of dL/dW for a tiny layer.
        let mut layer = Dense::new(3, 2, 7);
        let x = Matrix::glorot(4, 3, 8);
        let labels = [0usize, 1, 0, 1];
        let (_, gy) = dense_loss(&layer, &x, &labels);
        let mut gw = Matrix::zeros(3, 2);
        let mut gb = vec![0.0; 2];
        layer.backward(&x, &gy, &mut gw, &mut gb, &mut Matrix::default());
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let orig = layer.w.get(r, c);
                *layer.w.get_mut(r, c) = orig + eps;
                let lp = dense_loss(&layer, &x, &labels).0;
                *layer.w.get_mut(r, c) = orig - eps;
                let lm = dense_loss(&layer, &x, &labels).0;
                *layer.w.get_mut(r, c) = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = gw.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn sgd_descends_on_toy_problem() {
        let mut layer = Dense::new(2, 2, 3);
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let labels = [0usize, 1];
        let mut prev = f64::INFINITY;
        for _ in 0..50 {
            let (loss, gy) = dense_loss(&layer, &x, &labels);
            let mut gw = Matrix::zeros(2, 2);
            let mut gb = vec![0.0; 2];
            layer.backward(&x, &gy, &mut gw, &mut gb, &mut Matrix::default());
            layer.apply_grads(&gw, &gb, 0.5);
            assert!(loss <= prev + 1e-9, "loss went up: {prev} -> {loss}");
            prev = loss;
        }
        assert!(prev < 0.1, "failed to fit toy problem: {prev}");
    }

    #[test]
    fn matrix_flat_views_roundtrip() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        m.as_mut_slice()[3] = 9.0;
        assert_eq!(m.get(1, 1), 9.0);
    }

    #[test]
    fn glorot_is_deterministic() {
        assert_eq!(Matrix::glorot(3, 3, 5), Matrix::glorot(3, 3, 5));
        assert_ne!(Matrix::glorot(3, 3, 5), Matrix::glorot(3, 3, 6));
    }
}
