//! Fused time-major LSTM over `[B, m, d_in]` sequences.
//!
//! The recurrence follows Hochreiter & Schmidhuber with a single fused gate
//! projection (`[i | f | g | o]`), forget-gate bias initialized to 1, and
//! orthogonal recurrent weights. Execution is the fused model of
//! [`crate::ops::rnn_fused`]: one [`crate::ops::rnn_gate_preproject`] GEMM
//! covers every step's input projection, each step is a single
//! [`crate::ops::lstm_cell_fused`] node, and one
//! [`crate::ops::collect_states`] node assembles the output — `m + 2` graph
//! nodes per sequence instead of ~16 per step. The original step-unrolled
//! recurrence survives as [`crate::nn::reference::Lstm`] for differential
//! tests.

use super::init;
use super::params::ParamSet;
use crate::{ops, Tensor};
use rand::Rng;

/// A single-layer LSTM returning all hidden states.
pub struct Lstm {
    w_ih: Tensor, // [d_in, 4h]
    w_hh: Tensor, // [h, 4h]
    bias: Tensor, // [4h]
    input_dim: usize,
    hidden: usize,
}

impl Lstm {
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Lstm {
        let w_ih = params.register(
            &format!("{name}.w_ih"),
            Tensor::param(init::uniform_xavier(rng, input_dim, 4 * hidden), &[input_dim, 4 * hidden]),
        );
        // Orthogonal rows per gate block for a stable recurrence.
        let mut whh = Vec::with_capacity(hidden * 4 * hidden);
        let blocks: Vec<Vec<f32>> = (0..4).map(|_| init::orthogonal(rng, hidden, hidden)).collect();
        for r in 0..hidden {
            for block in &blocks {
                whh.extend_from_slice(&block[r * hidden..(r + 1) * hidden]);
            }
        }
        let w_hh = params.register(&format!("{name}.w_hh"), Tensor::param(whh, &[hidden, 4 * hidden]));
        // Forget-gate bias = 1 (standard trick to ease gradient flow).
        let mut b = vec![0.0f32; 4 * hidden];
        b[hidden..2 * hidden].iter_mut().for_each(|v| *v = 1.0);
        let bias = params.register(&format!("{name}.bias"), Tensor::param(b, &[4 * hidden]));
        Lstm { w_ih, w_hh, bias, input_dim, hidden }
    }

    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The weight tensors `(w_ih, w_hh, bias)` — used to build the
    /// step-unrolled [`crate::nn::reference::Lstm`] twin in parity tests.
    pub fn weights(&self) -> (&Tensor, &Tensor, &Tensor) {
        (&self.w_ih, &self.w_hh, &self.bias)
    }

    /// Run over a `[B, m, d_in]` sequence; returns `Z`: `[B, m, h]`, the
    /// hidden state at every time step (Eq. 12's output matrix).
    pub fn forward_seq(&self, xs: &Tensor) -> Tensor {
        self.forward_seq_impl(xs)
    }

    fn forward_seq_impl(&self, xs: &Tensor) -> Tensor {
        let s = xs.shape();
        assert_eq!(s.len(), 3, "Lstm: need [B, m, d_in], got {s:?}");
        let (bs, m, d) = (s[0], s[1], s[2]);
        assert_eq!(d, self.input_dim, "Lstm: input dim mismatch");
        let h = self.hidden;
        let pre = ops::rnn_gate_preproject(xs, &self.w_ih, &self.bias);
        let mut state = Tensor::zeros(&[bs, 2 * h]);
        let mut states = Vec::with_capacity(m);
        for t in 0..m {
            state = ops::lstm_cell_fused(&pre, t, &state, &self.w_hh);
            states.push(state.clone());
        }
        ops::collect_states(&states, h)
    }
}

impl super::rnn::Recurrent for Lstm {
    fn hidden_dim(&self) -> usize {
        self.hidden
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn forward_seq(&self, xs: &Tensor) -> Tensor {
        self.forward_seq_impl(xs)
    }

    fn stash_dim(&self) -> usize {
        7 * self.hidden
    }

    fn forward_seq_nograd(&self, xs: &[f32], bs: usize, m: usize, state: &mut [f32]) -> Vec<f32> {
        let (wi, wh, bd) = (self.w_ih.data(), self.w_hh.data(), self.bias.data());
        let w = crate::infer::LstmWeights { w_ih: &wi, w_hh: &wh, bias: &bd };
        crate::infer::lstm_seq(xs, bs, m, self.input_dim, self.hidden, &w, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make(input: usize, hidden: usize) -> (ParamSet, Lstm) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let l = Lstm::new(&mut ps, "lstm", input, hidden, &mut rng);
        (ps, l)
    }

    #[test]
    fn output_shape() {
        let (_, l) = make(3, 5);
        let x = Tensor::zeros(&[2, 4, 3]);
        assert_eq!(l.forward_seq(&x).shape(), &[2, 4, 5]);
    }

    #[test]
    fn hidden_bounded_by_tanh() {
        let (_, l) = make(2, 4);
        let x = Tensor::from_vec(vec![100.0; 2 * 6 * 2], &[2, 6, 2]);
        let z = l.forward_seq(&x);
        assert!(z.to_vec().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn zero_input_nonzero_dynamics() {
        // Forget-gate bias 1 still produces all-zero states from zero input
        // and zero initial state (c stays 0), which is the correct fixpoint.
        let (_, l) = make(2, 3);
        let x = Tensor::zeros(&[1, 3, 2]);
        let z = l.forward_seq(&x);
        assert!(z.to_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn causality_prefix_invariance() {
        // Hidden state at step t must not depend on inputs after t.
        let (_, l) = make(2, 4);
        let base: Vec<f32> = (0..10).map(|x| (x as f32 * 0.37).sin()).collect();
        let mut changed = base.clone();
        changed[8] += 5.0; // perturb only the last time step
        let za = l.forward_seq(&Tensor::from_vec(base, &[1, 5, 2])).to_vec();
        let zb = l.forward_seq(&Tensor::from_vec(changed, &[1, 5, 2])).to_vec();
        // First 4 steps identical, last step differs.
        assert_eq!(&za[..16], &zb[..16]);
        assert!(za[16..] != zb[16..]);
    }

    #[test]
    fn gradients_flow_to_all_weights() {
        let (ps, l) = make(2, 3);
        let x = Tensor::from_vec((0..12).map(|i| 0.1 * i as f32).collect(), &[2, 3, 2]);
        let z = l.forward_seq(&x);
        crate::ops::sum_all(&z).backward();
        for (name, t) in ps.iter() {
            let g = t.grad().unwrap_or_else(|| panic!("no grad for {name}"));
            assert!(g.iter().any(|&v| v != 0.0), "zero grad for {name}");
        }
    }

    #[test]
    fn lstm_gradcheck_small() {
        // Finite-difference check through 2 time steps on a tiny LSTM.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let l = Lstm::new(&mut ps, "lstm", 1, 2, &mut rng);
        let x = Tensor::param(vec![0.3, -0.8], &[1, 2, 1]);
        let inputs = [x, l.w_ih.clone(), l.w_hh.clone(), l.bias.clone()];
        crate::ops::gradcheck::check(
            &inputs,
            |t| {
                // Rebuild with the same (mutated) weights each call.
                let l2 = Lstm {
                    w_ih: t[1].clone(),
                    w_hh: t[2].clone(),
                    bias: t[3].clone(),
                    input_dim: 1,
                    hidden: 2,
                };
                crate::ops::sum_all(&l2.forward_seq(&t[0]))
            },
            2e-2,
        );
    }

    #[test]
    fn graph_node_budget_per_step() {
        // The fused path must stay at one cell node per step plus constant
        // per-sequence overhead — the whole point of the refactor.
        let (_, l) = make(3, 4);
        let m = 16;
        let x = Tensor::from_vec(vec![0.1; 2 * m * 3], &[2, m, 3]);
        let before = Tensor::scalar(0.0).id();
        let z = l.forward_seq(&x);
        let nodes = z.id() - before - 1;
        assert!(nodes <= 3 * m as u64, "fused LSTM built {nodes} nodes for {m} steps");
    }
}
