//! Layers with hand-written backward passes.

use crate::mat::Mat;
use waco_tensor::gen::Rng64;

/// A learnable parameter: value, gradient, and Adam moment buffers.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Mat,
    /// Accumulated gradient (zeroed by `zero_grad`).
    pub grad: Mat,
    /// Adam first moment.
    pub m: Mat,
    /// Adam second moment.
    pub v: Mat,
}

impl Param {
    /// A parameter with the given initial value and zeroed state.
    pub fn new(value: Mat) -> Self {
        let (r, c) = (value.rows(), value.cols());
        Self {
            value,
            grad: Mat::zeros(r, c),
            m: Mat::zeros(r, c),
            v: Mat::zeros(r, c),
        }
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// A fully connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (`in × out`).
    pub w: Param,
    /// Bias row vector (`1 × out`).
    pub b: Param,
    cached_x: Option<Mat>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        Self {
            w: Param::new(Mat::xavier(in_dim, out_dim, rng)),
            b: Param::new(Mat::zeros(1, out_dim)),
            cached_x: None,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, x: &Mat) -> Mat {
        let mut y = x.matmul(&self.w.value);
        y.add_bias(self.b.value.row(0));
        self.cached_x = Some(x.clone());
        y
    }

    /// Forward without caching (inference).
    pub fn infer(&self, x: &Mat) -> Mat {
        let mut y = x.matmul(&self.w.value);
        y.add_bias(self.b.value.row(0));
        y
    }

    /// Backward pass: accumulates `dW`, `db`, returns `dX`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Mat) -> Mat {
        let x = self.cached_x.as_ref().expect("forward before backward");
        self.w.grad.add_assign(&x.matmul_tn(dy));
        self.b.grad.add_assign(&Mat::row_vector(&dy.col_sums()));
        dy.matmul_nt(&self.w.value)
    }

    /// Mutable references to the parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// A fresh ReLU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; remembers which inputs were positive.
    pub fn forward(&mut self, x: &Mat) -> Mat {
        let (y, mask): (Vec<f32>, Vec<bool>) = x
            .as_slice()
            .iter()
            .map(|&v| if v > 0.0 { (v, true) } else { (0.0, false) })
            .unzip();
        self.mask = Some(mask);
        Mat::from_vec(x.rows(), x.cols(), y)
    }

    /// Forward without caching (inference).
    pub fn infer(&self, x: &Mat) -> Mat {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        y
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Mat) -> Mat {
        let mask = self.mask.as_ref().expect("forward before backward");
        let mut dx = dy.clone();
        for (v, &m) in dx.as_mut_slice().iter_mut().zip(mask) {
            if !m {
                *v = 0.0;
            }
        }
        dx
    }
}

/// A multi-layer perceptron: `Linear → ReLU → … → Linear [→ ReLU]`.
#[derive(Debug, Clone)]
pub struct Mlp {
    linears: Vec<Linear>,
    relus: Vec<Relu>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[128, 64, 1]`.
    /// `relu_last` adds a ReLU after the final linear layer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(dims: &[usize], relu_last: bool, rng: &mut Rng64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let linears: Vec<Linear> = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        let n_relu = if relu_last {
            linears.len()
        } else {
            linears.len() - 1
        };
        Self {
            linears,
            relus: vec![Relu::new(); n_relu],
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.linears[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.linears.last().expect("non-empty").out_dim()
    }

    /// Forward pass with caching.
    pub fn forward(&mut self, x: &Mat) -> Mat {
        let mut h = x.clone();
        let n = self.linears.len();
        for i in 0..n {
            h = self.linears[i].forward(&h);
            if i < self.relus.len() {
                h = self.relus[i].forward(&h);
            }
        }
        h
    }

    /// Forward without caching (inference).
    pub fn infer(&self, x: &Mat) -> Mat {
        let mut h = x.clone();
        let n = self.linears.len();
        for i in 0..n {
            h = self.linears[i].infer(&h);
            if i < self.relus.len() {
                h = self.relus[i].infer(&h);
            }
        }
        h
    }

    /// Backward pass; returns `dX`.
    pub fn backward(&mut self, dy: &Mat) -> Mat {
        let mut g = dy.clone();
        for i in (0..self.linears.len()).rev() {
            if i < self.relus.len() {
                g = self.relus[i].backward(&g);
            }
            g = self.linears[i].backward(&g);
        }
        g
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.linears {
            l.w.zero_grad();
            l.b.zero_grad();
        }
    }

    /// Mutable references to all parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.linears
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

/// A learnable lookup table mapping categorical indices to embedding rows —
/// the green boxes of the paper's program embedder (Figure 11).
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table (`vocab × dim`).
    pub table: Param,
    cached_idx: Option<Vec<usize>>,
}

impl Embedding {
    /// A table of `vocab` rows of width `dim`.
    pub fn new(vocab: usize, dim: usize, rng: &mut Rng64) -> Self {
        Self {
            table: Param::new(Mat::xavier(vocab, dim, rng)),
            cached_idx: None,
        }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.table.value.cols()
    }

    /// Looks up a batch of indices (one output row per index).
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds the vocabulary.
    pub fn forward(&mut self, idx: &[usize]) -> Mat {
        let out = self.lookup(idx);
        self.cached_idx = Some(idx.to_vec());
        out
    }

    /// Lookup without caching (inference).
    pub fn lookup(&self, idx: &[usize]) -> Mat {
        let dim = self.dim();
        let mut out = Mat::zeros(idx.len(), dim);
        for (r, &i) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.table.value.row(i));
        }
        out
    }

    /// Backward: scatters `dy` rows into the table gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Mat) {
        let idx = self.cached_idx.as_ref().expect("forward before backward");
        for (r, &i) in idx.iter().enumerate() {
            for (g, &d) in self.table.grad.row_mut(i).iter_mut().zip(dy.row(r)) {
                *g += d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a scalar loss `0.5‖y‖²`.
    fn grad_check_linear() -> (f32, f32) {
        let mut rng = Rng64::seed_from(5);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Mat::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.3);
        let y = layer.forward(&x);
        // loss = 0.5 * sum(y^2); dL/dy = y.
        layer.backward(&y.clone());
        let analytic = layer.w.grad.get(1, 0);

        let eps = 1e-3;
        let mut wp = layer.w.value.clone();
        wp.set(1, 0, wp.get(1, 0) + eps);
        let mut layer_p = layer.clone();
        layer_p.w.value = wp;
        let yp = layer_p.infer(&x);
        let lp: f32 = yp.as_slice().iter().map(|v| 0.5 * v * v).sum();
        let l0: f32 = y.as_slice().iter().map(|v| 0.5 * v * v).sum();
        let numeric = (lp - l0) / eps;
        (analytic, numeric)
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let (analytic, numeric) = grad_check_linear();
        assert!(
            (analytic - numeric).abs() < 1e-2 * numeric.abs().max(1.0),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn relu_masks_gradient() {
        let mut relu = Relu::new();
        let x = Mat::from_vec(1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let dy = Mat::from_vec(1, 4, vec![1.0; 4]);
        let dx = relu.backward(&dy);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn mlp_shapes_and_grads() {
        let mut rng = Rng64::seed_from(7);
        let mut mlp = Mlp::new(&[5, 8, 3], false, &mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        let x = Mat::from_fn(2, 5, |r, c| (r + c) as f32 * 0.1);
        let y = mlp.forward(&x);
        assert_eq!((y.rows(), y.cols()), (2, 3));
        mlp.zero_grad();
        let dx = mlp.backward(&Mat::from_fn(2, 3, |_, _| 1.0));
        assert_eq!((dx.rows(), dx.cols()), (2, 5));
        assert_eq!(mlp.params_mut().len(), 4);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = Rng64::seed_from(8);
        let mut mlp = Mlp::new(&[4, 6, 2], true, &mut rng);
        let x = Mat::from_fn(3, 4, |r, c| (r * c) as f32 * 0.2 - 0.5);
        let a = mlp.forward(&x);
        let b = mlp.infer(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn embedding_lookup_and_scatter() {
        let mut rng = Rng64::seed_from(9);
        let mut e = Embedding::new(10, 4, &mut rng);
        let out = e.forward(&[3, 3, 7]);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0), out.row(1));
        let dy = Mat::from_fn(3, 4, |_, _| 1.0);
        e.backward(&dy);
        // Row 3 received two gradient rows, row 7 one, others none.
        assert_eq!(e.table.grad.get(3, 0), 2.0);
        assert_eq!(e.table.grad.get(7, 0), 1.0);
        assert_eq!(e.table.grad.get(0, 0), 0.0);
    }

    #[test]
    fn mlp_gradient_check_end_to_end() {
        let mut rng = Rng64::seed_from(10);
        let mut mlp = Mlp::new(&[3, 5, 1], false, &mut rng);
        let x = Mat::from_fn(2, 3, |r, c| 0.4 * (r as f32) - 0.2 * (c as f32) + 0.1);
        let y = mlp.forward(&x);
        let l0: f32 = y.as_slice().iter().map(|v| 0.5 * v * v).sum();
        mlp.zero_grad();
        mlp.backward(&y.clone());

        // Check a weight in the first layer.
        let analytic = mlp.linears[0].w.grad.get(2, 1);
        let eps = 1e-3;
        let mut pert = mlp.clone();
        let old = pert.linears[0].w.value.get(2, 1);
        pert.linears[0].w.value.set(2, 1, old + eps);
        let yp = pert.infer(&x);
        let lp: f32 = yp.as_slice().iter().map(|v| 0.5 * v * v).sum();
        let numeric = (lp - l0) / eps;
        assert!(
            (analytic - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
            "analytic {analytic} vs numeric {numeric}"
        );
    }
}
