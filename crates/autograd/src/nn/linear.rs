//! Fully connected layer, usable on `[B, in]` and `[B, m, in]` inputs.

use super::init;
use super::params::ParamSet;
use crate::{ops, Tensor};
use rand::Rng;

/// `y = x · W + b`, applied over the last dimension.
pub struct Linear {
    pub weight: Tensor, // [in, out]
    pub bias: Tensor,   // [out]
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create a Xavier-initialized layer and register its parameters.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Linear {
        let weight = params.register(
            &format!("{name}.weight"),
            Tensor::param(init::uniform_xavier(rng, in_dim, out_dim), &[in_dim, out_dim]),
        );
        let bias = params.register(
            &format!("{name}.bias"),
            Tensor::param(init::zeros_init(out_dim), &[out_dim]),
        );
        Linear { weight, bias, in_dim, out_dim }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Apply to `[B, in]` (rank 2) or `[B, m, in]` (rank 3, flattened
    /// internally) inputs.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        match x.shape().len() {
            2 => {
                assert_eq!(x.shape()[1], self.in_dim, "Linear: input dim mismatch");
                ops::add_bias(&ops::matmul(x, &self.weight), &self.bias)
            }
            3 => {
                let (b, m, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                assert_eq!(d, self.in_dim, "Linear: input dim mismatch");
                let flat = ops::reshape(x, &[b * m, d]);
                let y = ops::add_bias(&ops::matmul(&flat, &self.weight), &self.bias);
                ops::reshape(&y, &[b, m, self.out_dim])
            }
            s => panic!("Linear: unsupported input rank {}", s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        assert_eq!(l.forward(&Tensor::zeros(&[5, 4])).shape(), &[5, 3]);
        assert_eq!(l.forward(&Tensor::zeros(&[2, 7, 4])).shape(), &[2, 7, 3]);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn rank3_equals_rowwise_rank2() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(&mut ps, "l", 2, 2, &mut rng);
        let data: Vec<f32> = (0..8).map(|x| x as f32 * 0.25).collect();
        let x3 = Tensor::from_vec(data.clone(), &[2, 2, 2]);
        let x2 = Tensor::from_vec(data, &[4, 2]);
        assert_eq!(l.forward(&x3).to_vec(), l.forward(&x2).to_vec());
    }

    #[test]
    fn gradients_reach_weights() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new(&mut ps, "l", 3, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let loss = ops::sum_all(&l.forward(&x));
        loss.backward();
        assert!(l.weight.grad().is_some());
        assert!(l.bias.grad().is_some());
        // d(sum)/d(bias) is all ones.
        assert_eq!(l.bias.grad().unwrap(), vec![1.0, 1.0]);
    }
}
