//! The Kruskal form of a CP decomposition: column-normalized factor
//! matrices plus per-component weights `λ`.

use crate::linalg::gram;
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// A rank-`R` Kruskal tensor `Σ_r λ_r · a_r ∘ b_r ∘ c_r`.
#[derive(Debug, Clone)]
pub struct KruskalTensor {
    /// Component weights, length `R`.
    pub lambda: Vec<f64>,
    /// One `dims[m] x R` factor matrix per mode.
    pub factors: Vec<DenseMatrix>,
}

impl KruskalTensor {
    /// Builds a Kruskal tensor, validating shapes.
    pub fn new(lambda: Vec<f64>, factors: Vec<DenseMatrix>) -> Self {
        assert_eq!(factors.len(), NMODES, "need one factor per mode");
        for f in &factors {
            assert_eq!(f.cols(), lambda.len(), "factor rank != lambda length");
        }
        KruskalTensor { lambda, factors }
    }

    /// The decomposition rank.
    pub fn rank(&self) -> usize {
        self.lambda.len()
    }

    /// Mode lengths.
    pub fn dims(&self) -> [usize; NMODES] {
        [
            self.factors[0].rows(),
            self.factors[1].rows(),
            self.factors[2].rows(),
        ]
    }

    /// Model value at coordinate `(i, j, k)`.
    pub fn value_at(&self, i: usize, j: usize, k: usize) -> f64 {
        let (a, b, c) = (&self.factors[0], &self.factors[1], &self.factors[2]);
        self.lambda
            .iter()
            .enumerate()
            .map(|(r, &l)| l * a.get(i, r) * b.get(j, r) * c.get(k, r))
            .sum()
    }

    /// `||M||²` via the gram identity:
    /// `Σ_{r,s} λ_r λ_s (AᵀA ∘ BᵀB ∘ CᵀC)_{rs}`.
    pub fn sq_norm(&self) -> f64 {
        let grams: Vec<DenseMatrix> = self.factors.iter().map(gram).collect();
        sq_norm_from_grams(&grams, &self.lambda)
    }

    /// Inner product `⟨X, M⟩ = Σ_nnz x_ijk · m_ijk` with a sparse tensor.
    pub fn inner_with(&self, x: &CooTensor) -> f64 {
        assert_eq!(x.dims(), self.dims(), "tensor/model shape mismatch");
        let (a, b, c) = (&self.factors[0], &self.factors[1], &self.factors[2]);
        x.entries()
            .iter()
            .map(|e| {
                let [i, j, k] = e.idx.map(|i| i as usize);
                let model: f64 = (self.lambda.iter().zip(a.row(i)))
                    .zip(b.row(j))
                    .zip(c.row(k))
                    .map(|(((&l, &av), &bv), &cv)| l * av * bv * cv)
                    .sum();
                e.val * model
            })
            .sum()
    }

    /// The CP fit `1 - ||X - M||_F / ||X||_F`, computed without
    /// materializing `M`: `||X - M||² = ||X||² - 2⟨X, M⟩ + ||M||²`.
    pub fn fit(&self, x: &CooTensor) -> f64 {
        fit_from_norms(x.sq_norm(), self.inner_with(x), self.sq_norm())
    }

    /// Materializes the model as a dense COO tensor (test-sized only).
    pub fn to_coo(&self) -> CooTensor {
        let dims = self.dims();
        assert!(
            dims.iter().product::<usize>() <= 1 << 22,
            "to_coo is for small tensors"
        );
        let mut entries = Vec::new();
        for i in 0..dims[0] {
            for j in 0..dims[1] {
                for k in 0..dims[2] {
                    let v = self.value_at(i, j, k);
                    if v != 0.0 {
                        entries.push(tenblock_tensor::Entry::new(i as u32, j as u32, k as u32, v));
                    }
                }
            }
        }
        CooTensor::from_entries(dims, entries)
    }
}

/// `‖M‖² = λᵀ (G₀ ∘ G₁ ∘ G₂) λ` from the factors' gram matrices.
pub(crate) fn sq_norm_from_grams(grams: &[DenseMatrix], lambda: &[f64]) -> f64 {
    let mut total = 0.0;
    for (p, &lp) in lambda.iter().enumerate() {
        for (q, &lq) in lambda.iter().enumerate() {
            total += lp * lq * grams.iter().map(|g| g.get(p, q)).product::<f64>();
        }
    }
    total
}

/// The fit from `‖X‖²`, `⟨X, M⟩` and `‖M‖²`. Roundoff can push the
/// residual of a near-perfect model below zero, which is clamped; a NaN
/// residual must stay NaN (`f64::max` would turn it into a perfect fit).
pub(crate) fn fit_from_norms(x_sq: f64, inner: f64, model_sq: f64) -> f64 {
    if x_sq == 0.0 {
        return f64::from(model_sq == 0.0);
    }
    let resid_sq = x_sq - 2.0 * inner + model_sq;
    let resid_sq = if resid_sq < 0.0 { 0.0 } else { resid_sq };
    1.0 - (resid_sq.sqrt() / x_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank1() -> KruskalTensor {
        KruskalTensor::new(
            vec![2.0],
            vec![
                DenseMatrix::from_vec(2, 1, vec![1.0, 2.0]),
                DenseMatrix::from_vec(2, 1, vec![3.0, 4.0]),
                DenseMatrix::from_vec(2, 1, vec![5.0, 6.0]),
            ],
        )
    }

    #[test]
    fn value_at_rank1() {
        let m = rank1();
        assert_eq!(m.value_at(1, 0, 1), 2.0 * 2.0 * 3.0 * 6.0);
    }

    #[test]
    fn sq_norm_matches_materialization() {
        let m = rank1();
        let dense = m.to_coo();
        assert!((m.sq_norm() - dense.sq_norm()).abs() < 1e-9);
    }

    #[test]
    fn perfect_fit_on_own_materialization() {
        let m = rank1();
        let x = m.to_coo();
        assert!((m.fit(&x) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn fit_degrades_with_perturbation() {
        let m = rank1();
        let mut x = m.to_coo();
        for v in x.values_mut() {
            *v += 10.0;
        }
        let f = m.fit(&x);
        assert!(f < 0.999, "fit = {f}");
    }

    #[test]
    fn a_non_finite_model_has_a_nan_fit_not_a_perfect_one() {
        let mut m = rank1();
        let x = m.to_coo();
        m.lambda[0] = f64::NAN;
        assert!(m.fit(&x).is_nan());
        // a residual that roundoff pushed below zero is still a perfect fit
        assert_eq!(fit_from_norms(4.0, 4.0 + 1e-13, 4.0), 1.0);
    }

    #[test]
    fn inner_product_linear_in_values() {
        let m = rank1();
        let x = m.to_coo();
        let mut x2 = x.clone();
        for v in x2.values_mut() {
            *v *= 3.0;
        }
        assert!((m.inner_with(&x2) - 3.0 * m.inner_with(&x)).abs() < 1e-9);
    }
}
