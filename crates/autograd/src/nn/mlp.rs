//! Multi-layer perceptron with LeakyReLU hidden activations (Eq. 13).

use super::linear::Linear;
use super::params::ParamSet;
use crate::exec::Exec;
use rand::Rng;

/// A stack of [`Linear`] layers; LeakyReLU between layers, linear output.
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// `dims = [in, h1, .., out]`; requires at least one layer.
    pub fn new(params: &mut ParamSet, name: &str, dims: &[usize], rng: &mut impl Rng) -> Mlp {
        assert!(dims.len() >= 2, "Mlp: need at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(params, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// The forward over any executor (graphed or tape-free).
    pub fn run<E: Exec>(&self, e: &mut E, x: E::V) -> E::V {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = e.linear(layer, &h);
            if i != last {
                h = e.leaky_relu(h);
            }
        }
        h
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The layer stack, in forward order (used by serving-side inspection
    /// and the no-grad parity tests).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Tape;
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_param_count() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&mut ps, "mlp", &[4, 8, 2], &mut rng);
        assert_eq!(mlp.run(&mut Tape, Tensor::zeros(&[3, 4])).shape(), &[3, 2]);
        assert_eq!(mlp.run(&mut Tape, Tensor::zeros(&[2, 5, 4])).shape(), &[2, 5, 2]);
        // 4*8 + 8 + 8*2 + 2 scalars over 4 tensors.
        assert_eq!(ps.len(), 4);
        assert_eq!(ps.num_scalars(), 32 + 8 + 16 + 2);
    }

    #[test]
    fn single_layer_is_linear() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&mut ps, "mlp", &[2, 2], &mut rng);
        // Linearity: f(2x) - 2 f(x) = -bias (affine), check additivity of the
        // linear part instead: f(x+y) - f(x) - f(y) + f(0) = 0.
        let x = Tensor::from_vec(vec![0.5, -1.0], &[1, 2]);
        let y = Tensor::from_vec(vec![2.0, 0.3], &[1, 2]);
        let xy = Tensor::from_vec(vec![2.5, -0.7], &[1, 2]);
        let zero = Tensor::zeros(&[1, 2]);
        let f = |t: &Tensor| mlp.run(&mut Tape, t.clone()).to_vec();
        let (fx, fy, fxy, f0) = (f(&x), f(&y), f(&xy), f(&zero));
        for i in 0..2 {
            assert!((fxy[i] - fx[i] - fy[i] + f0[i]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn too_few_dims_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let _ = Mlp::new(&mut ps, "mlp", &[4], &mut rng);
    }
}
