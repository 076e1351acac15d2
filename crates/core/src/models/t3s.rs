//! T3S baseline (Yang et al., ICDE 2021) — LSTM + self-attention.
//!
//! T3S learns spatial information with an LSTM and structural information
//! with a self-attention network over the points of the *same* trajectory
//! (with a learned positional embedding), then combines the two branches.
//! The combination weight λ is learned. Note the attention here is
//! *intra*-trajectory — precisely the design TMN's cross-trajectory
//! matching improves on.

use super::{Encode, EncodedBatch, ModelStream, PairModel};
use crate::batch::{PairBatch, SideBatch};
use crate::config::ModelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tmn_autograd::exec::Exec;
use tmn_autograd::nn::{Linear, Lstm, ParamSet};
use tmn_autograd::Tensor;

/// Maximum sequence length supported by the learned positional embedding.
pub const MAX_POSITIONS: usize = 512;

/// LSTM + self-attention encoder.
pub struct T3s {
    params: ParamSet,
    embed: Linear,
    lstm: Lstm,
    /// Projects the attention branch output (`d̂`) up to `d`.
    attn_proj: Linear,
    /// `[MAX_POSITIONS, d̂]` learned positional embedding.
    pos: Tensor,
    /// Raw combination logit; λ = σ(raw).
    lambda: Tensor,
    dim: usize,
    half: usize,
}

impl T3s {
    pub fn new(config: &ModelConfig) -> T3s {
        let d = config.dim;
        let dh = config.half_dim();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embed = Linear::new(&mut params, "embed", 2, dh, &mut rng);
        let lstm = Lstm::new(&mut params, "lstm", dh, d, &mut rng);
        let attn_proj = Linear::new(&mut params, "attn_proj", dh, d, &mut rng);
        let pos = params.register(
            "pos",
            Tensor::param(
                tmn_autograd::nn::uniform_xavier(&mut rng, MAX_POSITIONS, dh),
                &[MAX_POSITIONS, dh],
            ),
        );
        let lambda = params.register("lambda", Tensor::param(vec![0.0], &[1]));
        T3s { params, embed, lstm, attn_proj, pos, lambda, dim: d, half: dh }
    }
}

impl Encode for T3s {
    fn encode<E: Exec>(&self, e: &mut E, own: &SideBatch, _other: &SideBatch) -> E::V {
        assert!(own.max_len <= MAX_POSITIONS, "T3S: sequence longer than positional table");
        let feats = e.input(&own.feats);
        let x = e.linear(&self.embed, &feats);
        let x = e.leaky_relu(x);
        // Spatial branch.
        let z = e.recurrent(&self.lstm, &x);
        // Structural branch: self-attention with positional information.
        let xp = e.add_positions(x, &self.pos);
        let scores = e.bmm_nt(&xp, &xp);
        let scores = e.scale(scores, 1.0 / (self.half as f32).sqrt());
        let p = e.masked_softmax(scores, &own.mask);
        let attn = e.bmm_nn(&p, &xp);
        let attn = e.mask_rows(attn, &own.mask);
        let attn_d = e.linear(&self.attn_proj, &attn);
        // Combine: λ·LSTM + (1−λ)·attention with a learned, differentiable λ.
        e.mix(z, &attn_d, &self.lambda)
    }
}

impl PairModel for T3s {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn encode_pairs(&self, batch: &PairBatch) -> EncodedBatch {
        super::encode_pairs(self, batch)
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_nograd(&self, own: &SideBatch, other: &SideBatch) -> Vec<f32> {
        super::embed_nograd(self, own, other)
    }

    /// Self-attention mixes every point with every other, so there is no
    /// O(1) incremental update — T3S streams through the windowed fallback
    /// (full re-embed per append, window capped at [`MAX_POSITIONS`]).
    fn stream_begin(&self) -> Option<ModelStream> {
        Some(ModelStream::window(MAX_POSITIONS))
    }

    fn name(&self) -> &'static str {
        "T3S"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_autograd::ops;
    use tmn_traj::{Point, Trajectory};

    fn traj(off: f64, len: usize) -> Trajectory {
        (0..len).map(|i| Point::new(0.05 * i as f64, off + 0.01 * (i % 3) as f64)).collect()
    }

    fn model() -> T3s {
        T3s::new(&ModelConfig { dim: 8, seed: 6 })
    }

    #[test]
    fn shapes_and_independence() {
        let m = model();
        let (a, b1, b2) = (traj(0.2, 6), traj(0.5, 6), traj(0.9, 6));
        let e1 = m.encode_pairs(&PairBatch::build(&[&a], &[&b1]));
        let e2 = m.encode_pairs(&PairBatch::build(&[&a], &[&b2]));
        assert_eq!(e1.out_a.shape(), &[1, 6, 8]);
        assert_eq!(e1.out_a.to_vec(), e2.out_a.to_vec());
    }

    #[test]
    fn position_embedding_breaks_order_invariance() {
        // Same multiset of points in a different order must encode
        // differently (structural information).
        let m = model();
        let fwd: Trajectory = (0..6).map(|i| Point::new(0.1 * i as f64, 0.4)).collect();
        let rev: Trajectory = (0..6).rev().map(|i| Point::new(0.1 * i as f64, 0.4)).collect();
        let ef = m.encode_pairs(&PairBatch::build(&[&fwd], &[&fwd]));
        let er = m.encode_pairs(&PairBatch::build(&[&rev], &[&rev]));
        assert_ne!(ef.out_a.to_vec(), er.out_a.to_vec());
    }

    #[test]
    fn gradients_reach_all_parameters_including_lambda() {
        let m = model();
        let (a, b) = (traj(0.1, 5), traj(0.6, 4));
        let enc = m.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        ops::sum_all(&ops::add(&ops::sum_last(&enc.out_a), &ops::sum_last(&enc.out_b))).backward();
        for (name, t) in m.params().iter() {
            assert!(t.grad().is_some(), "no grad for {name}");
        }
    }
}
