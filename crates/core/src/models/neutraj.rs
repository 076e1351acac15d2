//! NeuTraj baseline (Yao et al., ICDE 2019) — LSTM with a grid-based
//! spatial attention memory (SAM).
//!
//! NeuTraj represents trajectories on a grid and keeps a memory of hidden
//! states keyed by grid cell; when a point is processed, the states of its
//! surrounding cells are read with attention and fed back into the network.
//! Reproduction notes: the memory read here uses the *detached* point
//! embedding as the attention query (gradients flow through the network
//! inputs, not through the memory contents), and the memory is updated with
//! an exponential moving average after every optimizer step — matching the
//! write-after-process behaviour of the original.

use super::{Encode, EncodedBatch, ModelStream, PairModel};
use crate::batch::{grid_neighbourhood, PairBatch, SideBatch, GRID_RESOLUTION};
use crate::config::ModelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use tmn_autograd::exec::Exec;
use tmn_autograd::nn::{Linear, Lstm, ParamSet, Recurrent};
use tmn_autograd::{no_grad, Tensor};
use tmn_traj::Point;

/// LSTM + spatial attention memory.
pub struct NeuTraj {
    params: ParamSet,
    embed: Linear,
    lstm: Lstm,
    dim: usize,
    half: usize,
    /// SAM: one slot per grid cell holding a `d`-dim EMA of hidden states;
    /// `None` until the cell is first written.
    memory: RefCell<Vec<Option<Vec<f32>>>>,
    /// EMA rate for memory writes.
    write_rate: f32,
}

impl NeuTraj {
    pub fn new(config: &ModelConfig) -> NeuTraj {
        let d = config.dim;
        let dh = config.half_dim();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embed = Linear::new(&mut params, "embed", 2, dh, &mut rng);
        // Input = point embedding ⊕ memory read (d dims).
        let lstm = Lstm::new(&mut params, "lstm", dh + d, d, &mut rng);
        NeuTraj {
            params,
            embed,
            lstm,
            dim: d,
            half: dh,
            memory: RefCell::new(vec![None; GRID_RESOLUTION * GRID_RESOLUTION]),
            write_rate: 0.5,
        }
    }

    /// Fraction of grid cells currently holding a memory entry.
    pub fn memory_occupancy(&self) -> f64 {
        let mem = self.memory.borrow();
        mem.iter().filter(|m| m.is_some()).count() as f64 / mem.len() as f64
    }

    /// Attention read over the 3×3 neighbourhood of each point's cell into
    /// a pre-zeroed `[b·m·d]` buffer, using the (detached) point embedding
    /// prefix as the query.
    fn memory_read(&self, side: &SideBatch, x_detached: &[f32], out: &mut [f32]) {
        let m = side.max_len;
        let mem = self.memory.borrow();
        for (row, cells) in side.grid_ids.iter().enumerate() {
            for (t, &cell) in cells.iter().enumerate().take(side.lens[row]) {
                let q = &x_detached[(row * m + t) * self.half..(row * m + t) * self.half + self.half];
                let slot = &mut out[(row * m + t) * self.dim..(row * m + t + 1) * self.dim];
                Self::memory_read_point(&mem, cell, q, slot);
            }
        }
    }

    /// One point's attention read over the 3×3 neighbourhood of `cell` into
    /// the pre-zeroed `slot` (`[d]`).
    fn memory_read_point(mem: &[Option<Vec<f32>>], cell: usize, q: &[f32], slot: &mut [f32]) {
        // Attention over occupied neighbour cells; score = dot of the
        // query with the entry's first d̂ components.
        let mut weights: Vec<(usize, f32)> = Vec::new();
        for nb in grid_neighbourhood(cell) {
            if let Some(entry) = &mem[nb] {
                let score: f32 = q.iter().zip(entry.iter()).map(|(a, b)| a * b).sum();
                weights.push((nb, score));
            }
        }
        if weights.is_empty() {
            return;
        }
        let max = weights.iter().map(|w| w.1).fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for w in &mut weights {
            w.1 = (w.1 - max).exp();
            denom += w.1;
        }
        for (nb, w) in weights {
            let entry = mem[nb].as_ref().expect("weighted cells are occupied");
            for (o, e) in slot.iter_mut().zip(entry) {
                *o += w / denom * e;
            }
        }
    }

    /// Write final hidden states back into the memory cells the trajectory
    /// visited (EMA update, gradient-free).
    fn memory_write(&self, side: &SideBatch, out: &Tensor) {
        let (_, m, d) = (side.batch_size(), side.max_len, self.dim);
        let data = out.to_vec();
        let mut mem = self.memory.borrow_mut();
        for (row, cells) in side.grid_ids.iter().enumerate() {
            let last = side.last_idx[row];
            let h = &data[(row * m + last) * d..(row * m + last + 1) * d];
            for &cell in cells.iter().take(side.lens[row]) {
                match &mut mem[cell] {
                    Some(entry) => {
                        for (e, &v) in entry.iter_mut().zip(h) {
                            *e = (1.0 - self.write_rate) * *e + self.write_rate * v;
                        }
                    }
                    None => mem[cell] = Some(h.to_vec()),
                }
            }
        }
    }
}

impl Encode for NeuTraj {
    fn encode<E: Exec>(&self, e: &mut E, own: &SideBatch, _other: &SideBatch) -> E::V {
        let feats = e.input(&own.feats);
        let x = e.linear(&self.embed, &feats);
        let x = e.leaky_relu(x);
        let read = e.detached(&x, self.dim, |xd, out| self.memory_read(own, xd, out));
        let lstm_in = e.concat(&x, &read);
        e.recurrent(&self.lstm, &lstm_in)
    }
}

impl PairModel for NeuTraj {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn encode_pairs(&self, batch: &PairBatch) -> EncodedBatch {
        super::encode_pairs(self, batch)
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn post_step(&self, batch: &PairBatch, encoded: &EncodedBatch) {
        no_grad(|| {
            self.memory_write(&batch.a, &encoded.out_a);
            self.memory_write(&batch.b, &encoded.out_b);
        });
    }

    fn embed_nograd(&self, own: &SideBatch, other: &SideBatch) -> Vec<f32> {
        super::embed_nograd(self, own, other)
    }

    /// The spatial attention memory is mutable state outside the `ParamSet`:
    /// fresh replicas would start with an empty memory and encode different
    /// representations, so the data-parallel trainer must not split batches.
    fn supports_data_parallel(&self) -> bool {
        false
    }

    /// Streams against the *current* memory snapshot — bitwise equal to a
    /// full re-embed as long as the memory is not written to in between
    /// (writes only happen in [`post_step`](PairModel::post_step), i.e.
    /// during training).
    fn stream_begin(&self) -> Option<ModelStream> {
        Some(ModelStream::rnn(self.lstm.stash_dim()))
    }

    fn embed_incremental(&self, state: &mut ModelStream, point: Point) -> Vec<f32> {
        super::stream::step(self, state, point)
    }

    fn name(&self) -> &'static str {
        "NeuTraj"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_autograd::ops;
    use tmn_traj::{Point, Trajectory};

    fn traj(off: f64, len: usize) -> Trajectory {
        (0..len).map(|i| Point::new(0.05 * i as f64, off)).collect()
    }

    fn model() -> NeuTraj {
        NeuTraj::new(&ModelConfig { dim: 8, seed: 5 })
    }

    #[test]
    fn cold_memory_behaves_like_lstm() {
        // With an empty memory the read vector is zero and encoding works.
        let m = model();
        assert_eq!(m.memory_occupancy(), 0.0);
        let (a, b) = (traj(0.2, 5), traj(0.8, 7));
        let enc = m.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        assert_eq!(enc.out_a.shape(), &[1, 7, 8]);
    }

    #[test]
    fn post_step_fills_memory() {
        let m = model();
        let (a, b) = (traj(0.2, 5), traj(0.8, 7));
        let batch = PairBatch::build(&[&a], &[&b]);
        let enc = m.encode_pairs(&batch);
        m.post_step(&batch, &enc);
        assert!(m.memory_occupancy() > 0.0);
    }

    #[test]
    fn memory_changes_subsequent_encodings() {
        let m = model();
        let (a, b) = (traj(0.2, 5), traj(0.21, 5));
        let batch = PairBatch::build(&[&a], &[&b]);
        let before = m.encode_pairs(&batch).out_a.to_vec();
        let enc = m.encode_pairs(&batch);
        m.post_step(&batch, &enc);
        let after = m.encode_pairs(&batch).out_a.to_vec();
        assert_ne!(before, after, "SAM read had no effect after writes");
    }

    #[test]
    fn gradients_reach_parameters() {
        let m = model();
        let (a, b) = (traj(0.1, 4), traj(0.6, 4));
        let enc = m.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        ops::sum_all(&ops::sum_last(&enc.out_a)).backward();
        for (name, t) in m.params().iter() {
            assert!(t.grad().is_some(), "no grad for {name}");
        }
    }
}
