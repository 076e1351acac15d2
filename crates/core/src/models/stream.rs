//! Per-trajectory streaming state for incremental embedding.
//!
//! A [`ModelStream`] is created by [`PairModel::stream_begin`] and advanced
//! one GPS point at a time by [`PairModel::embed_incremental`]. Recurrent
//! models (SRN, NeuTraj, TMN-NM with either backbone) keep the recurrent
//! layer's cell state: appending a point runs the model's one forward
//! ([`Encode::encode`]) on that single point with the `NoGrad` executor
//! resuming from the carried state — one embed row, one RNN cell step and
//! (for TMN-NM) one MLP row — and the returned embedding is **bitwise
//! equal** to a full [`PairModel::embed_nograd`] re-run over the grown
//! trajectory at batch size 1. Attention models (T3S) cannot update
//! self-attention incrementally and fall back to a *windowed* stream:
//! points are buffered (oldest dropped past the cap) and every append
//! re-embeds the window in full — equally exact over the window, but
//! O(window) per append.
//!
//! [`PairModel::stream_begin`]: super::PairModel::stream_begin
//! [`PairModel::embed_incremental`]: super::PairModel::embed_incremental
//! [`PairModel::embed_nograd`]: super::PairModel::embed_nograd

use super::{Encode, PairModel};
use crate::batch::{grid_id, SideBatch};
use std::cell::RefCell;
use tmn_autograd::exec::{Exec, NoGrad};
use tmn_traj::{Point, Trajectory};

/// Resumable state for one trajectory being embedded point-by-point.
pub struct ModelStream {
    pub(crate) inner: StreamInner,
    pub(crate) appended: usize,
}

pub(crate) enum StreamInner {
    /// The recurrent layer's `[stash_dim]` cell state (zeros before the
    /// first point): one cell step per appended point.
    Rnn(Vec<f32>),
    /// Buffered window re-embedded in full on every append (attention
    /// models). `cap` bounds the window; the oldest point is dropped first.
    Window { points: Vec<Point>, cap: usize },
}

impl ModelStream {
    /// A recurrent stream over a layer whose cell state is `stash_dim` wide.
    pub(crate) fn rnn(stash_dim: usize) -> ModelStream {
        ModelStream { inner: StreamInner::Rnn(vec![0.0; stash_dim]), appended: 0 }
    }

    pub(crate) fn window(cap: usize) -> ModelStream {
        assert!(cap > 0, "ModelStream: window cap must be positive");
        ModelStream { inner: StreamInner::Window { points: Vec::new(), cap }, appended: 0 }
    }

    /// Total points appended so far (windowed streams count evicted points
    /// too; the *current* window may be shorter).
    pub fn len(&self) -> usize {
        self.appended
    }

    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Whether appends fall back to a full re-embed over a buffered window
    /// (attention models) instead of an O(1) incremental step.
    pub fn is_windowed(&self) -> bool {
        matches!(self.inner, StreamInner::Window { .. })
    }
}

thread_local! {
    /// The one-point side batch every append on this thread encodes: a warm
    /// append overwrites its point in place instead of building tensors.
    static POINT_BATCH: RefCell<Option<SideBatch>> = const { RefCell::new(None) };
}

/// [`PairModel::embed_incremental`] for a recurrent stream: `model`'s
/// forward over `point` alone, resuming from and updating the carried
/// cell state.
pub(crate) fn step<M: Encode + PairModel>(model: &M, stream: &mut ModelStream, point: Point) -> Vec<f32> {
    let StreamInner::Rnn(state) = &mut stream.inner else {
        panic!("{}: stream state from a different (windowed) model", model.name());
    };
    let out = POINT_BATCH.with(|slot| {
        let mut slot = slot.borrow_mut();
        let side = slot.get_or_insert_with(|| SideBatch::build(&[&Trajectory::new(vec![point])], 1));
        {
            let mut feats = side.feats.data_mut();
            feats[0] = point.lon as f32;
            feats[1] = point.lat as f32;
        }
        side.grid_ids[0][0] = grid_id(point.lon, point.lat);
        let mut e = NoGrad::resuming(state);
        let seq = model.encode(&mut e, side, side);
        e.gather_last(&seq, &side.last_idx).into_vec()
    });
    stream.appended += 1;
    out
}
