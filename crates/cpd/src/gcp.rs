//! Gradient-based CP decomposition (GCP-style, Gaussian loss) on top of the
//! fused all-mode MTTKRP.
//!
//! For the squared-error loss `F = ½‖X − M‖²` over *all* tensor entries,
//! the gradient w.r.t. factor `A_m` decomposes exactly:
//!
//! ```text
//! ∇_m F = M_(m) (⊙ other factors) − X_(m) (⊙ other factors)
//!       = A_m · (∘ of other grams)  −  MTTKRP_m(X)
//! ```
//!
//! The first term is dense `R x R` algebra; the second is the sparse
//! MTTKRP — and since the gradient needs *all three modes at the same
//! factor state*, the memoized [`AllModeKernel`] computes them in a single
//! tensor traversal (the memoization trade-off of the paper's ref. [17]).
//! Optimization uses Adam.

use crate::kruskal::{sq_norm_from_grams, KruskalTensor};
use crate::linalg::{gram, hadamard_assign, matmul};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tenblock_core::mttkrp::AllModeKernel;
use tenblock_tensor::{CooTensor, DenseMatrix, NMODES};

/// Options for [`cp_gradient_descent`].
#[derive(Debug, Clone)]
pub struct GcpOptions {
    /// Decomposition rank.
    pub rank: usize,
    /// Gradient steps.
    pub max_iters: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Stop when the relative loss improvement falls below this.
    pub tol: f64,
    /// Seed for the initial factors.
    pub seed: u64,
}

impl GcpOptions {
    /// Defaults: 200 Adam steps at `lr = 0.05`.
    pub fn new(rank: usize) -> Self {
        GcpOptions {
            rank,
            max_iters: 200,
            lr: 0.05,
            tol: 1e-9,
            seed: 0x6c9,
        }
    }
}

/// Result of a gradient-descent CP run.
#[derive(Debug, Clone)]
pub struct GcpResult {
    /// The decomposition (unit `λ`; scale lives in the factors).
    pub model: KruskalTensor,
    /// Loss `½‖X − M‖²` after each step.
    pub loss_history: Vec<f64>,
    /// Steps performed.
    pub iterations: usize,
    /// True if `tol` was reached.
    pub converged: bool,
}

/// Computes the squared-error loss and all three factor gradients at the
/// given factor state, with one fused MTTKRP traversal.
pub fn cp_gradient(
    x: &CooTensor,
    kernel: &AllModeKernel,
    factors: &[DenseMatrix; NMODES],
) -> (f64, [DenseMatrix; NMODES]) {
    gradient_at(x.dims(), x.sq_norm(), kernel, factors)
}

/// [`cp_gradient`] given the tensor's shape and `‖X‖²`, which do not change
/// between steps: the Adam loop computes them once.
fn gradient_at(
    dims: [usize; NMODES],
    x_sq: f64,
    kernel: &AllModeKernel,
    factors: &[DenseMatrix; NMODES],
) -> (f64, [DenseMatrix; NMODES]) {
    let rank = factors[0].cols();
    let fs: [&DenseMatrix; NMODES] = [&factors[0], &factors[1], &factors[2]];

    // sparse side: all three MTTKRPs of X, fused
    let mut mtt = [
        DenseMatrix::zeros(dims[0], rank),
        DenseMatrix::zeros(dims[1], rank),
        DenseMatrix::zeros(dims[2], rank),
    ];
    kernel.mttkrp_all(&fs, &mut mtt);

    // dense side: grams
    let grams: Vec<DenseMatrix> = factors.iter().map(gram).collect();

    // loss: ½(‖X‖² − 2⟨X, M⟩ + ‖M‖²); ⟨X, M⟩ = <MTTKRP_0(X), A_0>
    let inner: f64 = mtt[0]
        .as_slice()
        .iter()
        .zip(factors[0].as_slice())
        .map(|(a, b)| a * b)
        .sum();
    let model_sq = sq_norm_from_grams(&grams, &vec![1.0; rank]);
    let loss = 0.5 * (x_sq - 2.0 * inner + model_sq);

    let grads = std::array::from_fn(|m| {
        let others: Vec<usize> = (0..NMODES).filter(|&o| o != m).collect();
        let mut v = grams[others[0]].clone();
        hadamard_assign(&mut v, &grams[others[1]]);
        let dense_term = matmul(&factors[m], &v);
        let mut g = dense_term;
        for (gv, &mv) in g.as_mut_slice().iter_mut().zip(mtt[m].as_slice()) {
            *gv -= mv;
        }
        g
    });
    (loss, grads)
}

/// Runs Adam on the Gaussian CP objective.
pub fn cp_gradient_descent(x: &CooTensor, opts: &GcpOptions) -> GcpResult {
    assert!(opts.rank > 0, "rank must be positive");
    let rank = opts.rank;
    let dims = x.dims();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // scale-aware init so M starts in the right magnitude ballpark
    let x_sq = x.sq_norm();
    let scale = (x_sq / (x.nnz().max(1) as f64)).sqrt().max(1e-3);
    let init = (scale / rank as f64).cbrt();
    let mut factors: [DenseMatrix; NMODES] = std::array::from_fn(|m| {
        DenseMatrix::from_fn(dims[m], rank, |_, _| (rng.random::<f64>() - 0.2) * init)
    });

    let kernel = AllModeKernel::new(x);
    let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
    let mut m1: Vec<Vec<f64>> = factors
        .iter()
        .map(|f| vec![0.0; f.as_slice().len()])
        .collect();
    let mut m2 = m1.clone();

    let mut loss_history = Vec::new();
    let mut prev_loss = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    for step in 1..=opts.max_iters {
        iterations = step;
        let (loss, grads) = gradient_at(dims, x_sq, &kernel, &factors);
        loss_history.push(loss);
        if (prev_loss - loss).abs() / prev_loss.abs().max(1.0) < opts.tol {
            converged = true;
            break;
        }
        prev_loss = loss;

        let bc1 = 1.0 - beta1.powi(step as i32);
        let bc2 = 1.0 - beta2.powi(step as i32);
        for mm in 0..NMODES {
            let f = factors[mm].as_mut_slice();
            let g = grads[mm].as_slice();
            for i in 0..f.len() {
                m1[mm][i] = beta1 * m1[mm][i] + (1.0 - beta1) * g[i];
                m2[mm][i] = beta2 * m2[mm][i] + (1.0 - beta2) * g[i] * g[i];
                let mhat = m1[mm][i] / bc1;
                let vhat = m2[mm][i] / bc2;
                f[i] -= opts.lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    GcpResult {
        model: KruskalTensor::new(vec![1.0; rank], factors.to_vec()),
        loss_history,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted(rank: usize, dims: [usize; NMODES], seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let factors: Vec<DenseMatrix> = dims
            .iter()
            .map(|&d| {
                let data: Vec<f64> = (0..d * rank).map(|_| rng.random::<f64>()).collect();
                DenseMatrix::from_vec(d, rank, data)
            })
            .collect();
        KruskalTensor::new(vec![1.0; rank], factors).to_coo()
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = planted(2, [4, 3, 5], 7);
        let rank = 2;
        let kernel = AllModeKernel::new(&x);
        let factors: [DenseMatrix; 3] = std::array::from_fn(|m| {
            DenseMatrix::from_fn(x.dims()[m], rank, |r, c| {
                ((r * 3 + c + m) % 7) as f64 * 0.11 + 0.1
            })
        });
        let (_, grads) = cp_gradient(&x, &kernel, &factors);

        let h = 1e-6;
        for m in 0..3 {
            for row in 0..x.dims()[m] {
                for col in 0..rank {
                    let mut plus = factors.clone();
                    plus[m].set(row, col, plus[m].get(row, col) + h);
                    let (lp, _) = cp_gradient(&x, &kernel, &plus);
                    let mut minus = factors.clone();
                    minus[m].set(row, col, minus[m].get(row, col) - h);
                    let (lm, _) = cp_gradient(&x, &kernel, &minus);
                    let fd = (lp - lm) / (2.0 * h);
                    let an = grads[m].get(row, col);
                    assert!(
                        (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                        "mode {m} ({row},{col}): fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn loss_decreases_and_fits_planted_data() {
        let x = planted(3, [8, 7, 6], 3);
        let mut opts = GcpOptions::new(3);
        opts.max_iters = 400;
        opts.lr = 0.03;
        let result = cp_gradient_descent(&x, &opts);
        let first = result.loss_history[0];
        let last = *result.loss_history.last().unwrap();
        assert!(last < 0.05 * first, "loss {first} -> {last}");
        // fit through the Kruskal interface agrees
        let fit = result.model.fit(&x);
        assert!(fit > 0.8, "fit {fit}");
    }

    #[test]
    fn loss_is_monotone_under_small_steps() {
        let x = planted(2, [6, 6, 6], 11);
        let mut opts = GcpOptions::new(2);
        opts.max_iters = 60;
        opts.lr = 0.01;
        opts.tol = 0.0;
        let result = cp_gradient_descent(&x, &opts);
        let mut increases = 0;
        for w in result.loss_history.windows(2) {
            if w[1] > w[0] * 1.001 {
                increases += 1;
            }
        }
        // Adam is not strictly monotone, but at a small lr increases should
        // be rare
        assert!(
            increases < result.loss_history.len() / 4,
            "{increases} increases"
        );
    }
}
