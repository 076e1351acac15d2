//! TMN — the paper's model (Section IV-B).
//!
//! Pipeline per pair `(T_a, T_b)` padded to length `m`:
//!
//! 1. Point embedding `x = LeakyReLU(W₀ p + b₀)`, `x ∈ ℝ^{d̂}`, `d̂ = d/2`
//!    (Eq. 4–5).
//! 2. Matching mechanism: match scores `X_a · X_bᵀ` (Eq. 6), masked softmax
//!    over the *other* trajectory's valid points (Eq. 7–8), weighted sum
//!    `S_{a←b} = P_{a←b} · X_b` (Eq. 9–10), discrepancy
//!    `M_{a←b} = X_a − S_{a←b}` (Eq. 11), padded rows zeroed.
//! 3. `Z_a = LSTM(X_a ⊕ M_{a←b})` (Eq. 12), hidden size `d`.
//! 4. `O_a = MLP(Z_a)` (Eq. 13).
//!
//! With `matching = false` this is the TMN-NM ablation: the LSTM consumes
//! the point embeddings alone and the rest of the network is unchanged.

use super::{Encode, EncodedBatch, ModelStream, PairModel};
use crate::batch::{PairBatch, SideBatch};
use crate::config::ModelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tmn_autograd::exec::Exec;
use tmn_autograd::nn::{Linear, Mlp, ParamSet, Recurrent, RnnKind};
use tmn_traj::Point;

/// Trajectory Matching Network.
pub struct Tmn {
    params: ParamSet,
    embed: Linear,
    rnn: Box<dyn Recurrent>,
    mlp: Mlp,
    dim: usize,
    matching: bool,
}

impl Tmn {
    /// Build TMN (`matching = true`) or the TMN-NM ablation (`false`) with
    /// the paper's LSTM backbone.
    pub fn new(config: &ModelConfig, matching: bool) -> Tmn {
        Tmn::with_rnn(config, matching, RnnKind::Lstm)
    }

    /// Build with an explicit recurrent backbone (the RNN-kind ablation).
    pub fn with_rnn(config: &ModelConfig, matching: bool, rnn_kind: RnnKind) -> Tmn {
        let d = config.dim;
        let dh = config.half_dim();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embed = Linear::new(&mut params, "embed", 2, dh, &mut rng);
        // With matching, the RNN sees X ⊕ M (2·d̂ = d); without, just X (d̂).
        let rnn_in = if matching { d } else { dh };
        let rnn = rnn_kind.build(&mut params, "rnn", rnn_in, d, &mut rng);
        let mlp = Mlp::new(&mut params, "mlp", &[d, d, d], &mut rng);
        Tmn { params, embed, rnn, mlp, dim: d, matching }
    }

    /// Whether the matching mechanism is enabled.
    pub fn has_matching(&self) -> bool {
        self.matching
    }

    /// Eq. 4–5: embed raw coordinates.
    fn embed_side<E: Exec>(&self, e: &mut E, side: &SideBatch) -> E::V {
        let feats = e.input(&side.feats);
        let x = e.linear(&self.embed, &feats);
        e.leaky_relu(x)
    }
}

/// Eq. 6–11 for one direction: the matching matrix `M_{q←k}`.
fn matching_matrix<E: Exec>(e: &mut E, x_q: &E::V, x_k: &E::V, q: &SideBatch, k: &SideBatch) -> E::V {
    // Match scores m^{(i,j)} = x_q^{(i)} · x_k^{(j)} (Eq. 6, batched Eq. 8).
    let scores = e.bmm_nt(x_q, x_k);
    // Masked softmax over the key trajectory's real points (Eq. 7).
    let p = e.masked_softmax(scores, &k.mask);
    // Weighted sum of the key embeddings (Eq. 9–10).
    let s = e.bmm_nn(&p, x_k);
    // Discrepancy (Eq. 11), with padded query rows covered by zeros as
    // the paper prescribes for the post-softmax masking.
    let m = e.sub(x_q, s);
    e.mask_rows(m, &q.mask)
}

impl Encode for Tmn {
    fn encode<E: Exec>(&self, e: &mut E, own: &SideBatch, other: &SideBatch) -> E::V {
        let x_own = self.embed_side(e, own);
        let rnn_in = if self.matching {
            let x_other = self.embed_side(e, other);
            let m = matching_matrix(e, &x_own, &x_other, own, other);
            e.concat(&x_own, &m) // Eq. 12's X ⊕ M
        } else {
            x_own
        };
        let z = e.recurrent(self.rnn.as_ref(), &rnn_in);
        self.mlp.run(e, z) // Eq. 13
    }
}

impl PairModel for Tmn {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn encode_pairs(&self, batch: &PairBatch) -> EncodedBatch {
        super::encode_pairs(self, batch)
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn is_pair_dependent(&self) -> bool {
        self.matching
    }

    fn embed_nograd(&self, own: &SideBatch, other: &SideBatch) -> Vec<f32> {
        super::embed_nograd(self, own, other)
    }

    /// TMN-NM only: the matching variant's representations depend on the
    /// paired trajectory, so a single-trajectory stream is meaningless.
    fn stream_begin(&self) -> Option<ModelStream> {
        (!self.matching).then(|| ModelStream::rnn(self.rnn.stash_dim()))
    }

    fn embed_incremental(&self, state: &mut ModelStream, point: Point) -> Vec<f32> {
        assert!(!self.matching, "TMN: pair-dependent model has no stream");
        super::stream::step(self, state, point)
    }

    fn name(&self) -> &'static str {
        if self.matching {
            "TMN"
        } else {
            "TMN-NM"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_autograd::ops;
    use tmn_traj::{Point, Trajectory};

    fn traj(seed: u64, len: usize) -> Trajectory {
        (0..len)
            .map(|i| {
                let x = ((seed * 31 + i as u64 * 17) % 97) as f64 / 97.0;
                let y = ((seed * 13 + i as u64 * 7) % 89) as f64 / 89.0;
                Point::new(x, y)
            })
            .collect()
    }

    fn cfg() -> ModelConfig {
        ModelConfig { dim: 8, seed: 3 }
    }

    #[test]
    fn output_shapes() {
        let model = Tmn::new(&cfg(), true);
        let (a, b) = (traj(1, 6), traj(2, 9));
        let batch = PairBatch::build(&[&a], &[&b]);
        let enc = model.encode_pairs(&batch);
        assert_eq!(enc.out_a.shape(), &[1, 9, 8]);
        assert_eq!(enc.out_b.shape(), &[1, 9, 8]);
    }

    #[test]
    fn tmn_is_pair_dependent_nm_is_not() {
        // The representation of `a` under TMN must change when paired with a
        // different b; under TMN-NM it must not.
        let (a, b1, b2) = (traj(1, 6), traj(2, 6), traj(9, 6));
        for (matching, expect_differs) in [(true, true), (false, false)] {
            let model = Tmn::new(&cfg(), matching);
            let e1 = model.encode_pairs(&PairBatch::build(&[&a], &[&b1]));
            let e2 = model.encode_pairs(&PairBatch::build(&[&a], &[&b2]));
            let differs = e1.out_a.to_vec() != e2.out_a.to_vec();
            assert_eq!(differs, expect_differs, "matching={matching}");
        }
    }

    #[test]
    fn padding_does_not_change_representation() {
        // Encoding the same pair with extra padding (larger batch max) must
        // leave the last-valid-step output identical: masks must fully
        // neutralize padded key points.
        let model = Tmn::new(&cfg(), true);
        let (a, b) = (traj(1, 5), traj(2, 5));
        let tight = PairBatch::build(&[&a], &[&b]);
        // Padded: batch with a longer filler pair forces max_len = 12.
        let filler = traj(3, 12);
        let padded = PairBatch::build(&[&a, &filler], &[&b, &filler]);
        let e_tight = model.encode_pairs(&tight);
        let e_pad = model.encode_pairs(&padded);
        let d = model.dim();
        // Row 0, time step 4 (= last valid) in both encodings.
        let tight_vec = &e_tight.out_a.to_vec()[4 * d..5 * d];
        let pad_all = e_pad.out_a.to_vec();
        let pad_vec = &pad_all[4 * d..5 * d]; // batch row 0, step 4
        for (x, y) in tight_vec.iter().zip(pad_vec) {
            assert!((x - y).abs() < 1e-5, "padding leaked into representation");
        }
    }

    #[test]
    fn symmetric_pair_produces_symmetric_outputs() {
        // encode(a,b).out_a == encode(b,a).out_b — the two sides share
        // weights and the matching is direction-symmetric by construction.
        let model = Tmn::new(&cfg(), true);
        let (a, b) = (traj(4, 7), traj(5, 7));
        let e1 = model.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        let e2 = model.encode_pairs(&PairBatch::build(&[&b], &[&a]));
        assert_eq!(e1.out_a.to_vec(), e2.out_b.to_vec());
        assert_eq!(e1.out_b.to_vec(), e2.out_a.to_vec());
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let model = Tmn::new(&cfg(), true);
        let (a, b) = (traj(1, 5), traj(2, 7));
        let batch = PairBatch::build(&[&a], &[&b]);
        let enc = model.encode_pairs(&batch);
        let loss = ops::sum_all(&ops::add(
            &ops::sum_last(&enc.out_a),
            &ops::sum_last(&enc.out_b),
        ));
        loss.backward();
        for (name, t) in model.params().iter() {
            let g = t.grad().unwrap_or_else(|| panic!("no grad for {name}"));
            assert!(g.iter().any(|&v| v != 0.0), "all-zero grad for {name}");
        }
    }

    #[test]
    fn gru_backbone_builds_and_encodes() {
        let model = Tmn::with_rnn(&cfg(), true, RnnKind::Gru);
        let (a, b) = (traj(1, 6), traj(2, 6));
        let enc = model.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        assert_eq!(enc.out_a.shape(), &[1, 6, 8]);
        assert!(enc.out_a.to_vec().iter().all(|v| v.is_finite()));
        // GRU variant differs from the LSTM variant on the same pair.
        let lstm_model = Tmn::new(&cfg(), true);
        let enc2 = lstm_model.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        assert_ne!(enc.out_a.to_vec(), enc2.out_a.to_vec());
    }

    #[test]
    fn nm_variant_has_smaller_lstm_input() {
        let with = Tmn::new(&cfg(), true);
        let without = Tmn::new(&cfg(), false);
        assert!(with.params.num_scalars() > without.params.num_scalars());
    }
}
