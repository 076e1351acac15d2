//! Gated Recurrent Unit (Cho et al.) — the other gated RNN the paper's
//! related work discusses (Section II-B). Used by the RNN-backbone ablation.
//!
//! Like [`super::Lstm`], execution runs on the fused time-major ops: two
//! [`crate::ops::rnn_gate_preproject`] GEMMs cover the `[r | z]` and
//! candidate input projections for every step at once, each step is one
//! [`crate::ops::gru_cell_fused`] node, and [`crate::ops::collect_states`]
//! assembles the `[B, m, h]` output. The step-unrolled original lives on as
//! [`crate::nn::reference::Gru`].

use super::init;
use super::params::ParamSet;
use super::rnn::Recurrent;
use crate::{ops, Tensor};
use rand::Rng;

/// Single-layer GRU returning all hidden states.
///
/// Gates are fused as `[r | z]` in one projection; the candidate state `n`
/// uses its own projection so the reset gate can modulate the recurrent
/// term: `n = tanh(W_in x + r ⊙ (W_hn h))`.
pub struct Gru {
    w_ih: Tensor, // [d_in, 2h] -> r, z
    w_hh: Tensor, // [h, 2h]
    bias: Tensor, // [2h]
    w_in: Tensor, // [d_in, h] -> candidate
    w_hn: Tensor, // [h, h]
    bias_n: Tensor, // [h]
    input_dim: usize,
    hidden: usize,
}

impl Gru {
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Gru {
        let w_ih = params.register(
            &format!("{name}.w_ih"),
            Tensor::param(init::uniform_xavier(rng, input_dim, 2 * hidden), &[input_dim, 2 * hidden]),
        );
        let mut whh = Vec::with_capacity(hidden * 2 * hidden);
        let blocks: Vec<Vec<f32>> = (0..2).map(|_| init::orthogonal(rng, hidden, hidden)).collect();
        for r in 0..hidden {
            for block in &blocks {
                whh.extend_from_slice(&block[r * hidden..(r + 1) * hidden]);
            }
        }
        let w_hh = params.register(&format!("{name}.w_hh"), Tensor::param(whh, &[hidden, 2 * hidden]));
        let bias = params.register(
            &format!("{name}.bias"),
            Tensor::param(init::zeros_init(2 * hidden), &[2 * hidden]),
        );
        let w_in = params.register(
            &format!("{name}.w_in"),
            Tensor::param(init::uniform_xavier(rng, input_dim, hidden), &[input_dim, hidden]),
        );
        let w_hn = params.register(
            &format!("{name}.w_hn"),
            Tensor::param(init::orthogonal(rng, hidden, hidden), &[hidden, hidden]),
        );
        let bias_n = params.register(
            &format!("{name}.bias_n"),
            Tensor::param(init::zeros_init(hidden), &[hidden]),
        );
        Gru { w_ih, w_hh, bias, w_in, w_hn, bias_n, input_dim, hidden }
    }

    /// The weight tensors `(w_ih, w_hh, bias, w_in, w_hn, bias_n)` — used to
    /// build the step-unrolled [`crate::nn::reference::Gru`] twin in parity
    /// tests.
    pub fn weights(&self) -> (&Tensor, &Tensor, &Tensor, &Tensor, &Tensor, &Tensor) {
        (&self.w_ih, &self.w_hh, &self.bias, &self.w_in, &self.w_hn, &self.bias_n)
    }
}

impl Recurrent for Gru {
    fn hidden_dim(&self) -> usize {
        self.hidden
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn forward_seq(&self, xs: &Tensor) -> Tensor {
        let s = xs.shape();
        assert_eq!(s.len(), 3, "Gru: need [B, m, d_in], got {s:?}");
        let (bs, m, d) = (s[0], s[1], s[2]);
        assert_eq!(d, self.input_dim, "Gru: input dim mismatch");
        let h = self.hidden;
        let pre_rz = ops::rnn_gate_preproject(xs, &self.w_ih, &self.bias);
        let pre_n = ops::rnn_gate_preproject(xs, &self.w_in, &self.bias_n);
        let mut state = Tensor::zeros(&[bs, h]);
        let mut states = Vec::with_capacity(m);
        for t in 0..m {
            state = ops::gru_cell_fused(&pre_rz, &pre_n, t, &state, &self.w_hh, &self.w_hn);
            states.push(state.clone());
        }
        ops::collect_states(&states, h)
    }

    fn stash_dim(&self) -> usize {
        5 * self.hidden
    }

    fn forward_seq_nograd(&self, xs: &[f32], bs: usize, m: usize, state: &mut [f32]) -> Vec<f32> {
        let (wi, wh, bd) = (self.w_ih.data(), self.w_hh.data(), self.bias.data());
        let (wn, whn, bn) = (self.w_in.data(), self.w_hn.data(), self.bias_n.data());
        let w = crate::infer::GruWeights {
            w_ih: &wi,
            w_hh: &wh,
            bias: &bd,
            w_in: &wn,
            w_hn: &whn,
            bias_n: &bn,
        };
        crate::infer::gru_seq(xs, bs, m, self.input_dim, self.hidden, &w, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make(input: usize, hidden: usize) -> (ParamSet, Gru) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(21);
        let g = Gru::new(&mut ps, "gru", input, hidden, &mut rng);
        (ps, g)
    }

    #[test]
    fn output_shape() {
        let (_, g) = make(3, 5);
        assert_eq!(g.forward_seq(&Tensor::zeros(&[2, 4, 3])).shape(), &[2, 4, 5]);
    }

    #[test]
    fn hidden_bounded() {
        let (_, g) = make(2, 4);
        let x = Tensor::from_vec(vec![50.0; 2 * 6 * 2], &[2, 6, 2]);
        assert!(g.forward_seq(&x).to_vec().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn causality() {
        let (_, g) = make(2, 4);
        let base: Vec<f32> = (0..10).map(|x| (x as f32 * 0.41).cos()).collect();
        let mut changed = base.clone();
        changed[9] -= 3.0;
        let za = g.forward_seq(&Tensor::from_vec(base, &[1, 5, 2])).to_vec();
        let zb = g.forward_seq(&Tensor::from_vec(changed, &[1, 5, 2])).to_vec();
        assert_eq!(&za[..16], &zb[..16]);
        assert!(za[16..] != zb[16..]);
    }

    #[test]
    fn gradients_flow_to_all_weights() {
        let (ps, g) = make(2, 3);
        let x = Tensor::from_vec((0..12).map(|i| 0.1 * i as f32 - 0.5).collect(), &[2, 3, 2]);
        crate::ops::sum_all(&g.forward_seq(&x)).backward();
        for (name, t) in ps.iter() {
            let gr = t.grad().unwrap_or_else(|| panic!("no grad for {name}"));
            assert!(gr.iter().any(|&v| v != 0.0), "zero grad for {name}");
        }
    }

    #[test]
    fn gru_gradcheck_small() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(22);
        let g = Gru::new(&mut ps, "gru", 1, 2, &mut rng);
        let x = Tensor::param(vec![0.4, -0.6], &[1, 2, 1]);
        let inputs = [
            x,
            g.w_ih.clone(),
            g.w_hh.clone(),
            g.bias.clone(),
            g.w_in.clone(),
            g.w_hn.clone(),
            g.bias_n.clone(),
        ];
        crate::ops::gradcheck::check(
            &inputs,
            |t| {
                let g2 = Gru {
                    w_ih: t[1].clone(),
                    w_hh: t[2].clone(),
                    bias: t[3].clone(),
                    w_in: t[4].clone(),
                    w_hn: t[5].clone(),
                    bias_n: t[6].clone(),
                    input_dim: 1,
                    hidden: 2,
                };
                crate::ops::sum_all(&g2.forward_seq(&t[0]))
            },
            2e-2,
        );
    }
}
