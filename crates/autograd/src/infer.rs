//! Tape-free forward kernels over plain `Vec<f32>` buffers: what the
//! [`crate::exec::NoGrad`] executor runs.
//!
//! Serving only needs the forward pass, yet the graphed path pays for every
//! query what only training needs: one `Rc` graph node per op, a boxed
//! backward closure, and a fresh output allocation each. These kernels
//! compute the same layer forwards with **zero tensor construction**
//! (`crate::nodes_created` is constant across a call) and **bounded buffer
//! allocation** (a thread-local scratch pool; after warmup a whole no-grad
//! embed performs at most the one output allocation). Models never call
//! them directly: they write one forward over [`crate::exec::Exec`], and
//! the `NoGrad` executor dispatches here.
//!
//! ## Numerical contract
//!
//! Every kernel here reproduces its graphed counterpart *bitwise*:
//!
//! - GEMMs go through the same [`crate::kernels`] entry points (same
//!   dispatch, same blocking, same accumulation order);
//! - the recurrent cells call the same shared elementwise step functions as
//!   `ops::{lstm_cell_fused, gru_cell_fused}`;
//! - the masked softmax reuses the graphed op's row kernel;
//! - elementwise code copies the graphed ops' exact expressions (operation
//!   order included).
//!
//! `tests/infer_vs_train_forward.rs` holds the line. The sequence kernels
//! ([`lstm_seq`], [`gru_seq`]) take the caller's cell state, so the
//! streaming path is the same kernel run one step at a time from a carried
//! state; `kernels::mm_nn`'s row-stable dispatch keeps that bitwise equal
//! to a full run (`tests/stream_parity.rs`).
//!
//! ## Buffer reuse contract
//!
//! Intermediates are rented from a thread-local pool with [`take`] and must
//! be returned with [`recycle`]; only a function's *final* result may be a
//! fresh allocation. Pool buffers are zero-filled on rental, so kernels can
//! rely on `+=`-style accumulation. The pool keeps at most
//! [`POOL_MAX_BUFFERS`] buffers; steady-state inference allocates nothing.

use crate::kernels::{mm_nn, mm_nt};
use crate::ops::{gru_step_elementwise, lstm_step_elementwise, softmax_row};
use std::cell::RefCell;

/// Upper bound on pooled buffers per thread (bounds idle memory, not
/// correctness — overflow buffers are simply dropped).
const POOL_MAX_BUFFERS: usize = 24;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Rent a zero-filled buffer of length `n` from the thread-local pool.
///
/// Prefers the smallest pooled buffer whose capacity already fits `n`, so
/// repeated calls with the same working set converge to zero allocations.
pub fn take(n: usize) -> Vec<f32> {
    let mut buf = POOL.with(|p| {
        let free = &mut *p.borrow_mut();
        let best = free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= n)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)
            // Nothing fits: grow the largest buffer instead of a cold alloc.
            .or_else(|| {
                free.iter().enumerate().max_by_key(|(_, b)| b.capacity()).map(|(i, _)| i)
            });
        match best {
            Some(i) => free.swap_remove(i),
            None => Vec::new(),
        }
    });
    buf.clear();
    buf.resize(n, 0.0);
    buf
}

/// Return a rented buffer to the pool.
pub fn recycle(buf: Vec<f32>) {
    POOL.with(|p| {
        let free = &mut *p.borrow_mut();
        if free.len() < POOL_MAX_BUFFERS {
            free.push(buf);
        }
    });
}

/// `x · w + bias` for `rows` rows: the no-grad `nn::Linear` forward.
/// `w` is `[d_in, d_out]` row-major, `bias` is `[d_out]`.
pub fn linear(x: &[f32], rows: usize, d_in: usize, d_out: usize, w: &[f32], bias: &[f32]) -> Vec<f32> {
    debug_assert!(x.len() >= rows * d_in && w.len() == d_in * d_out && bias.len() == d_out);
    let mut out = take(rows * d_out);
    mm_nn(x, w, rows, d_in, d_out, &mut out);
    for row in out.chunks_exact_mut(d_out) {
        for (o, &bv) in row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
    out
}

/// In-place LeakyReLU with the graphed op's slope (0.1).
pub fn leaky_relu_inplace(xs: &mut [f32]) {
    const SLOPE: f32 = 0.1;
    for x in xs {
        *x = if *x >= 0.0 { *x } else { SLOPE * *x };
    }
}

/// Per-layer weight views for the fused LSTM sequence kernels.
pub struct LstmWeights<'a> {
    /// `[d_in, 4h]` input projection.
    pub w_ih: &'a [f32],
    /// `[h, 4h]` recurrent projection.
    pub w_hh: &'a [f32],
    /// `[4h]` gate bias.
    pub bias: &'a [f32],
}

/// Weight views for the fused GRU sequence kernel.
pub struct GruWeights<'a> {
    /// `[d_in, 2h]` input projection for `[r | z]`.
    pub w_ih: &'a [f32],
    /// `[h, 2h]` recurrent projection for `[r | z]`.
    pub w_hh: &'a [f32],
    /// `[2h]` gate bias.
    pub bias: &'a [f32],
    /// `[d_in, h]` input projection for `n`.
    pub w_in: &'a [f32],
    /// `[h, h]` recurrent projection for `n`.
    pub w_hn: &'a [f32],
    /// `[h]` `n`-gate bias.
    pub bias_n: &'a [f32],
}

/// Time-major gate pre-projection (`ops::rnn_gate_preproject` without the
/// node): rent `[T·B, G]` seeded with the broadcast bias, accumulate
/// `xt · w` on top. `xs` is `[B, m, d_in]` batch-major; with one row per
/// step or one step (`B = 1` or `m = 1`, e.g. a stream append) that is
/// already time-major and is used as is.
fn preproject(xs: &[f32], bs: usize, m: usize, d_in: usize, w: &[f32], bias: &[f32], g: usize) -> Vec<f32> {
    let mut pre = take(m * bs * g);
    for row in pre.chunks_exact_mut(g) {
        row.copy_from_slice(bias);
    }
    if bs == 1 || m == 1 {
        mm_nn(&xs[..m * bs * d_in], w, m * bs, d_in, g, &mut pre);
        return pre;
    }
    let mut xt = take(m * bs * d_in);
    for b in 0..bs {
        for t in 0..m {
            let src = (b * m + t) * d_in;
            let dst = (t * bs + b) * d_in;
            xt[dst..dst + d_in].copy_from_slice(&xs[src..src + d_in]);
        }
    }
    mm_nn(&xt, w, m * bs, d_in, g, &mut pre);
    recycle(xt);
    pre
}

/// Extract the first `take_cols` columns of each `[B, s]` row into `dst`
/// (the fused cells' `pack_cols`, writing into a rented buffer).
fn pack_cols_into(src: &[f32], bs: usize, s: usize, take_cols: usize, dst: &mut [f32]) {
    for b in 0..bs {
        dst[b * take_cols..(b + 1) * take_cols].copy_from_slice(&src[b * s..b * s + take_cols]);
    }
}

/// No-grad LSTM over a full sequence: `[B, m, d_in]` → `[B, m, h]`
/// (rented buffer — recycle it). Matches `nn::Lstm::forward_seq` bitwise.
///
/// `state` is the caller's `[B, 7h]` cell stash in the fused cell's layout
/// `[h | c | i | f | g | o | tanh(c)]`: zeros start a sequence, and on
/// return it holds the state after step `m`, so a later call continues the
/// same sequence (the streaming path runs this with `m = 1`).
pub fn lstm_seq(
    xs: &[f32],
    bs: usize,
    m: usize,
    d_in: usize,
    h: usize,
    w: &LstmWeights<'_>,
    state: &mut [f32],
) -> Vec<f32> {
    assert_eq!(state.len(), bs * 7 * h, "lstm_seq: state must be [B, 7h]");
    let pre = preproject(xs, bs, m, d_in, w.w_ih, w.bias, 4 * h);
    let mut hp = take(bs * h);
    let mut cp = take(bs * h);
    let mut z = take(bs * 4 * h);
    let mut out = take(bs * m * h);
    for t in 0..m {
        pack_cols_into(state, bs, 7 * h, h, &mut hp);
        for b in 0..bs {
            cp[b * h..(b + 1) * h].copy_from_slice(&state[b * 7 * h + h..b * 7 * h + 2 * h]);
        }
        z.copy_from_slice(&pre[t * bs * 4 * h..(t + 1) * bs * 4 * h]);
        mm_nn(&hp, w.w_hh, bs, h, 4 * h, &mut z);
        lstm_step_elementwise(&z, &cp, bs, h, state);
        for b in 0..bs {
            out[(b * m + t) * h..(b * m + t + 1) * h].copy_from_slice(&state[b * 7 * h..b * 7 * h + h]);
        }
    }
    recycle(pre);
    recycle(hp);
    recycle(cp);
    recycle(z);
    out
}

/// No-grad GRU over a full sequence: `[B, m, d_in]` → `[B, m, h]`
/// (rented buffer). Matches `nn::Gru::forward_seq` bitwise. `state` is the
/// caller's `[B, 5h]` stash `[h | r | z | n | q]`, carried as in
/// [`lstm_seq`].
pub fn gru_seq(
    xs: &[f32],
    bs: usize,
    m: usize,
    d_in: usize,
    h: usize,
    w: &GruWeights<'_>,
    state: &mut [f32],
) -> Vec<f32> {
    assert_eq!(state.len(), bs * 5 * h, "gru_seq: state must be [B, 5h]");
    let pre_rz = preproject(xs, bs, m, d_in, w.w_ih, w.bias, 2 * h);
    let pre_n = preproject(xs, bs, m, d_in, w.w_in, w.bias_n, h);
    let mut hp = take(bs * h);
    let mut zr = take(bs * 2 * h);
    let mut q = take(bs * h);
    let mut out = take(bs * m * h);
    for t in 0..m {
        pack_cols_into(state, bs, 5 * h, h, &mut hp);
        zr.copy_from_slice(&pre_rz[t * bs * 2 * h..(t + 1) * bs * 2 * h]);
        mm_nn(&hp, w.w_hh, bs, h, 2 * h, &mut zr);
        q.fill(0.0);
        mm_nn(&hp, w.w_hn, bs, h, h, &mut q);
        let pn_t = &pre_n[t * bs * h..(t + 1) * bs * h];
        gru_step_elementwise(&zr, &q, pn_t, &hp, bs, h, state);
        for b in 0..bs {
            out[(b * m + t) * h..(b * m + t + 1) * h].copy_from_slice(&state[b * 5 * h..b * 5 * h + h]);
        }
    }
    recycle(pre_rz);
    recycle(pre_n);
    recycle(hp);
    recycle(zr);
    recycle(q);
    out
}

/// Batched `out[i] = a[i] · b[i]ᵀ`: `[B, ma, d] × [B, mb, d]` → `[B, ma, mb]`
/// (rented buffer).
pub fn bmm_nt(a: &[f32], b: &[f32], bs: usize, ma: usize, d: usize, mb: usize) -> Vec<f32> {
    let mut out = take(bs * ma * mb);
    for i in 0..bs {
        mm_nt(
            &a[i * ma * d..(i + 1) * ma * d],
            &b[i * mb * d..(i + 1) * mb * d],
            ma,
            d,
            mb,
            &mut out[i * ma * mb..(i + 1) * ma * mb],
        );
    }
    out
}

/// Batched `out[i] = a[i] · b[i]`: `[B, ma, k] × [B, k, n]` → `[B, ma, n]`
/// (rented buffer).
pub fn bmm_nn(a: &[f32], b: &[f32], bs: usize, ma: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = take(bs * ma * n);
    for i in 0..bs {
        mm_nn(
            &a[i * ma * k..(i + 1) * ma * k],
            &b[i * k * n..(i + 1) * k * n],
            ma,
            k,
            n,
            &mut out[i * ma * n..(i + 1) * ma * n],
        );
    }
    out
}

/// Row-wise masked softmax over `scores` `[B, q, k]` with `key_mask`
/// `[B, k]`, in place — the graphed `ops::masked_softmax` forward (shared
/// row kernel).
pub fn masked_softmax_inplace(scores: &mut [f32], key_mask: &[f32], bs: usize, q: usize, k: usize) {
    for b in 0..bs {
        let mrow = &key_mask[b * k..(b + 1) * k];
        for i in 0..q {
            let row = &mut scores[(b * q + i) * k..(b * q + i + 1) * k];
            softmax_row(row, |j| mrow[j] != 0.0);
        }
    }
}

/// Zero every `[inner]`-row of `xs` `[B, m, inner]` whose mask entry is 0
/// (the graphed `ops::mul_mask_rows` forward).
pub fn mask_rows_inplace(xs: &mut [f32], mask: &[f32], bs: usize, m: usize, inner: usize) {
    for (row, &mv) in xs.chunks_exact_mut(inner).zip(mask).take(bs * m) {
        if mv == 0.0 {
            row.fill(0.0);
        }
    }
}

/// Per-row concatenation along the last dim: `[rows, da] ⊕ [rows, db]` →
/// `[rows, da+db]` (rented buffer). The graphed `ops::concat_last`.
pub fn concat_cols(a: &[f32], b: &[f32], rows: usize, da: usize, db: usize) -> Vec<f32> {
    let mut out = take(rows * (da + db));
    let dc = da + db;
    for r in 0..rows {
        out[r * dc..r * dc + da].copy_from_slice(&a[r * da..(r + 1) * da]);
        out[r * dc + da..(r + 1) * dc].copy_from_slice(&b[r * db..(r + 1) * db]);
    }
    out
}

/// Gather each sequence's last valid step: `[B, m, d]` + per-batch index →
/// `[B, d]`. This is the one **fresh** allocation of an `embed_nograd`
/// call — everything upstream lives in the pool.
pub fn gather_last(seq: &[f32], bs: usize, m: usize, d: usize, last_idx: &[usize]) -> Vec<f32> {
    debug_assert_eq!(last_idx.len(), bs);
    let mut out = Vec::with_capacity(bs * d);
    for (b, &t) in last_idx.iter().enumerate() {
        debug_assert!(t < m);
        out.extend_from_slice(&seq[(b * m + t) * d..(b * m + t + 1) * d]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers() {
        // Drain then repopulate: the second take of the same size must not
        // grow capacity beyond the first round's.
        let a = take(1000);
        let cap_a = a.capacity();
        recycle(a);
        let b = take(1000);
        assert!(b.capacity() >= 1000 && b.capacity() == cap_a, "pool must hand back the buffer");
        assert!(b.iter().all(|&v| v == 0.0), "rented buffers are zeroed");
        recycle(b);
    }

    #[test]
    fn take_prefers_tightest_fit() {
        recycle(Vec::with_capacity(4096));
        recycle(Vec::with_capacity(64));
        let b = take(60);
        assert!(b.capacity() < 4096, "should pick the 64-cap buffer, not the 4096 one");
        recycle(b);
    }

    #[test]
    fn linear_applies_bias_per_row() {
        // x = [[1, 0], [0, 2]], w = [[1, 2], [3, 4]], bias = [10, 20].
        let out = linear(&[1.0, 0.0, 0.0, 2.0], 2, 2, 2, &[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0]);
        assert_eq!(out, vec![11.0, 22.0, 16.0, 28.0]);
        recycle(out);
    }

    #[test]
    fn concat_layout() {
        let a = [1.0, 2.0, 3.0, 4.0]; // [2, 2]
        let b = [9.0, 8.0]; // [2, 1]
        let cat = concat_cols(&a, &b, 2, 2, 1);
        assert_eq!(cat, vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
        recycle(cat);
    }

    #[test]
    fn masked_softmax_zeroes_invalid_and_normalizes() {
        let mut scores = vec![0.0, 0.0, 5.0, 1.0, 1.0, 1.0]; // [1, 2, 3]
        let mask = [1.0, 1.0, 0.0];
        masked_softmax_inplace(&mut scores, &mask, 1, 2, 3);
        assert_eq!(scores[2], 0.0);
        assert_eq!(scores[5], 0.0);
        assert!((scores[0] + scores[1] - 1.0).abs() < 1e-6);
        assert!((scores[3] + scores[4] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gather_last_picks_per_batch_rows() {
        // [2, 2, 2]: batch 0 takes step 1, batch 1 takes step 0.
        let seq = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(gather_last(&seq, 2, 2, 2, &[1, 0]), vec![3.0, 4.0, 5.0, 6.0]);
    }
}
