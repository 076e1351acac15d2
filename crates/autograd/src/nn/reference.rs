//! Step-unrolled reference recurrences, mirroring `kernels::reference`.
//!
//! These are the original per-step graph implementations of the LSTM and
//! GRU: one `select_time` gather, per-gate matmuls and
//! `slice_last` splits, and explicit state arithmetic per time step. They
//! are deliberately slow (≈16 graph nodes per step) but arithmetically
//! transparent, and exist solely as the differential-testing oracle for the
//! fused time-major layers in [`crate::nn`] — see
//! `crates/autograd/tests/fused_vs_reference.rs`.
//!
//! Reference layers are built *from existing weight tensors* (usually the
//! fused layer's parameters) so both implementations run the exact same
//! weights; they register nothing and own nothing.

use crate::{ops, Tensor};

/// Step-unrolled LSTM sharing weights with a fused [`crate::nn::Lstm`].
pub struct Lstm {
    w_ih: Tensor, // [d_in, 4h]
    w_hh: Tensor, // [h, 4h]
    bias: Tensor, // [4h]
    input_dim: usize,
    hidden: usize,
}

impl Lstm {
    /// Wrap existing weight tensors (`w_ih: [d_in, 4h]`, `w_hh: [h, 4h]`,
    /// `bias: [4h]`); dims are inferred from the shapes.
    pub fn from_weights(w_ih: &Tensor, w_hh: &Tensor, bias: &Tensor) -> Lstm {
        let input_dim = w_ih.shape()[0];
        let hidden = w_hh.shape()[0];
        assert_eq!(w_ih.shape(), &[input_dim, 4 * hidden], "reference::Lstm: w_ih shape");
        assert_eq!(w_hh.shape(), &[hidden, 4 * hidden], "reference::Lstm: w_hh shape");
        assert_eq!(bias.shape(), &[4 * hidden], "reference::Lstm: bias shape");
        Lstm { w_ih: w_ih.clone(), w_hh: w_hh.clone(), bias: bias.clone(), input_dim, hidden }
    }

    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// The original per-step recurrence over `[B, m, d_in]` → `[B, m, h]`.
    pub fn forward_seq(&self, xs: &Tensor) -> Tensor {
        let s = xs.shape();
        assert_eq!(s.len(), 3, "reference::Lstm: need [B, m, d_in], got {s:?}");
        let (bs, m, d) = (s[0], s[1], s[2]);
        assert_eq!(d, self.input_dim, "reference::Lstm: input dim mismatch");
        let h = self.hidden;
        let mut hidden = Tensor::zeros(&[bs, h]);
        let mut cell = Tensor::zeros(&[bs, h]);
        let mut outs = Vec::with_capacity(m);
        for t in 0..m {
            let x_t = ops::select_time(xs, t);
            let gates = ops::add_bias(
                &ops::add(&ops::matmul(&x_t, &self.w_ih), &ops::matmul(&hidden, &self.w_hh)),
                &self.bias,
            );
            let i = ops::sigmoid(&ops::slice_last(&gates, 0, h));
            let f = ops::sigmoid(&ops::slice_last(&gates, h, h));
            let g = ops::tanh(&ops::slice_last(&gates, 2 * h, h));
            let o = ops::sigmoid(&ops::slice_last(&gates, 3 * h, h));
            cell = ops::add(&ops::mul(&f, &cell), &ops::mul(&i, &g));
            hidden = ops::mul(&o, &ops::tanh(&cell));
            outs.push(hidden.clone());
        }
        ops::stack_time(&outs)
    }
}

/// Step-unrolled GRU sharing weights with a fused [`crate::nn::Gru`].
pub struct Gru {
    w_ih: Tensor,   // [d_in, 2h] -> r, z
    w_hh: Tensor,   // [h, 2h]
    bias: Tensor,   // [2h]
    w_in: Tensor,   // [d_in, h] -> candidate
    w_hn: Tensor,   // [h, h]
    bias_n: Tensor, // [h]
    input_dim: usize,
    hidden: usize,
}

impl Gru {
    /// Wrap existing weight tensors; dims are inferred from the shapes.
    pub fn from_weights(
        w_ih: &Tensor,
        w_hh: &Tensor,
        bias: &Tensor,
        w_in: &Tensor,
        w_hn: &Tensor,
        bias_n: &Tensor,
    ) -> Gru {
        let input_dim = w_ih.shape()[0];
        let hidden = w_hh.shape()[0];
        assert_eq!(w_ih.shape(), &[input_dim, 2 * hidden], "reference::Gru: w_ih shape");
        assert_eq!(w_hh.shape(), &[hidden, 2 * hidden], "reference::Gru: w_hh shape");
        assert_eq!(bias.shape(), &[2 * hidden], "reference::Gru: bias shape");
        assert_eq!(w_in.shape(), &[input_dim, hidden], "reference::Gru: w_in shape");
        assert_eq!(w_hn.shape(), &[hidden, hidden], "reference::Gru: w_hn shape");
        assert_eq!(bias_n.shape(), &[hidden], "reference::Gru: bias_n shape");
        Gru {
            w_ih: w_ih.clone(),
            w_hh: w_hh.clone(),
            bias: bias.clone(),
            w_in: w_in.clone(),
            w_hn: w_hn.clone(),
            bias_n: bias_n.clone(),
            input_dim,
            hidden,
        }
    }

    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// The original per-step recurrence over `[B, m, d_in]` → `[B, m, h]`.
    pub fn forward_seq(&self, xs: &Tensor) -> Tensor {
        let s = xs.shape();
        assert_eq!(s.len(), 3, "reference::Gru: need [B, m, d_in], got {s:?}");
        let (bs, m, d) = (s[0], s[1], s[2]);
        assert_eq!(d, self.input_dim, "reference::Gru: input dim mismatch");
        let h = self.hidden;
        let mut hidden = Tensor::zeros(&[bs, h]);
        let mut outs = Vec::with_capacity(m);
        for t in 0..m {
            let x_t = ops::select_time(xs, t);
            let gates = ops::add_bias(
                &ops::add(&ops::matmul(&x_t, &self.w_ih), &ops::matmul(&hidden, &self.w_hh)),
                &self.bias,
            );
            let r = ops::sigmoid(&ops::slice_last(&gates, 0, h));
            let z = ops::sigmoid(&ops::slice_last(&gates, h, h));
            let n = ops::tanh(&ops::add_bias(
                &ops::add(
                    &ops::matmul(&x_t, &self.w_in),
                    &ops::mul(&r, &ops::matmul(&hidden, &self.w_hn)),
                ),
                &self.bias_n,
            ));
            // h' = (1 - z) ⊙ n + z ⊙ h
            let one_minus_z = ops::add_scalar(&ops::neg(&z), 1.0);
            hidden = ops::add(&ops::mul(&one_minus_z, &n), &ops::mul(&z, &hidden));
            outs.push(hidden.clone());
        }
        ops::stack_time(&outs)
    }
}
