//! Abstraction over recurrent backbones (LSTM / GRU), letting models swap
//! the sequence encoder for the RNN-kind ablation.

use crate::Tensor;

/// A recurrent layer mapping `[B, m, d_in]` to per-step hiddens `[B, m, h]`.
pub trait Recurrent {
    fn hidden_dim(&self) -> usize;
    fn input_dim(&self) -> usize;
    fn forward_seq(&self, xs: &Tensor) -> Tensor;

    /// Width of one batch row of the cell state the tape-free forward
    /// carries (the fused cell's stash: `7h` for LSTM, `5h` for GRU).
    fn stash_dim(&self) -> usize;

    /// Tape-free forward over plain buffers: `xs` is `[B, m, d_in]`
    /// flattened row-major; returns `[B, m, h]` in a buffer rented from
    /// [`crate::infer`]'s pool (recycle it with [`crate::infer::recycle`]).
    /// Bitwise-identical to [`Recurrent::forward_seq`] on the same data.
    ///
    /// `state` is the `[B, stash_dim()]` cell state: zeros start a
    /// sequence, and the state after the last step is left in it, so a
    /// sequence fed in pieces gives the same bits as fed whole.
    fn forward_seq_nograd(&self, xs: &[f32], bs: usize, m: usize, state: &mut [f32]) -> Vec<f32>;
}

/// Which recurrent backbone to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RnnKind {
    /// The paper's choice (Eq. 12).
    Lstm,
    /// Ablation alternative (Section II-B mentions GRU as the other gated
    /// RNN).
    Gru,
}

impl RnnKind {
    pub fn name(&self) -> &'static str {
        match self {
            RnnKind::Lstm => "LSTM",
            RnnKind::Gru => "GRU",
        }
    }

    /// Build the chosen backbone, registering its parameters.
    pub fn build(
        &self,
        params: &mut super::ParamSet,
        name: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut impl rand::Rng,
    ) -> Box<dyn Recurrent> {
        match self {
            RnnKind::Lstm => Box::new(super::Lstm::new(params, name, input_dim, hidden, rng)),
            RnnKind::Gru => Box::new(super::Gru::new(params, name, input_dim, hidden, rng)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn both_kinds_build_and_run() {
        for kind in [RnnKind::Lstm, RnnKind::Gru] {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(1);
            let rnn = kind.build(&mut ps, "rnn", 4, 6, &mut rng);
            assert_eq!(rnn.input_dim(), 4);
            assert_eq!(rnn.hidden_dim(), 6);
            let y = rnn.forward_seq(&Tensor::zeros(&[2, 3, 4]));
            assert_eq!(y.shape(), &[2, 3, 6], "{}", kind.name());
            assert!(!ps.is_empty());
        }
    }

    #[test]
    fn gru_has_fewer_params_than_lstm() {
        let count = |kind: RnnKind| {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(2);
            kind.build(&mut ps, "rnn", 8, 8, &mut rng);
            ps.num_scalars()
        };
        assert!(count(RnnKind::Gru) < count(RnnKind::Lstm));
    }
}
