//! One forward definition, two executors.
//!
//! A model writes its forward pass once, generically over [`Exec`], using
//! the small op vocabulary below (linear, LeakyReLU, recurrent layer,
//! batched matmuls, masked softmax, row mask, concat, gather-last, plus the
//! few elementwise ops the encoders need). The executor decides what an op
//! does:
//!
//! - [`Tape`] calls the graphed ops in [`crate::ops`] and layer forwards in
//!   [`crate::nn`], so training records exactly the graph it always did;
//! - [`NoGrad`] calls the tape-free kernels in [`crate::infer`] over pooled
//!   buffers ([`Buf`]). It constructs no tensor, and every intermediate
//!   returns to the pool when it drops.
//!
//! Streaming is the same [`NoGrad`] executor built with
//! [`NoGrad::resuming`]: the recurrent layer starts from a carried cell
//! state instead of zeros and leaves its final state there, so feeding one
//! point runs one step of the very kernel a full forward runs.
//!
//! Both executors perform the same arithmetic in the same order, so their
//! results are bitwise equal (`tests/infer_vs_train_forward.rs` at the
//! layer level, `tmn-core`'s `infer_alloc.rs` per model).

use crate::infer::{self, recycle, take};
use crate::nn::{Linear, Recurrent};
use crate::{ops, Tensor};

/// The op vocabulary a model forward is written in. Activations
/// ([`Exec::V`]) are `[B, m, d]`; masks are the batch's `[B, m]` constant
/// tensors. Ops that take a value by move may reuse its storage.
pub trait Exec {
    /// A `[B, m, d]` activation.
    type V;

    /// Bring a constant batch tensor (e.g. the point features) in.
    fn input(&mut self, t: &Tensor) -> Self::V;

    /// `x · W + b` over the last dimension.
    fn linear(&mut self, layer: &Linear, x: &Self::V) -> Self::V;

    /// LeakyReLU with the graphed op's slope.
    fn leaky_relu(&mut self, x: Self::V) -> Self::V;

    /// A recurrent layer over `[B, m, d_in]`, returning every step's hidden
    /// state `[B, m, h]`.
    fn recurrent(&mut self, rnn: &dyn Recurrent, x: &Self::V) -> Self::V;

    /// Batched `a[i] · b[i]ᵀ`: `[B, ma, d] × [B, mb, d]` → `[B, ma, mb]`.
    fn bmm_nt(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Batched `a[i] · b[i]`: `[B, ma, k] × [B, k, n]` → `[B, ma, n]`.
    fn bmm_nn(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// `x · c` for a constant `c`.
    fn scale(&mut self, x: Self::V, c: f32) -> Self::V;

    /// Row-wise softmax over `[B, q, k]` scores restricted to the keys whose
    /// `[B, k]` mask entry is non-zero.
    fn masked_softmax(&mut self, scores: Self::V, key_mask: &Tensor) -> Self::V;

    /// Zero every row whose `[B, m]` mask entry is 0.
    fn mask_rows(&mut self, x: Self::V, mask: &Tensor) -> Self::V;

    /// `a − b`.
    fn sub(&mut self, a: &Self::V, b: Self::V) -> Self::V;

    /// `a ⊕ b` along the last dimension.
    fn concat(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// `x[b, t] += table[t]`: add the first `m` rows of a `[P, d]` table
    /// to every batch row.
    fn add_positions(&mut self, x: Self::V, table: &Tensor) -> Self::V;

    /// `λ·a + (1 − λ)·b` with `λ = σ(logit)` for a `[1]` logit tensor.
    fn mix(&mut self, a: Self::V, b: &Self::V, logit: &Tensor) -> Self::V;

    /// A constant `[B, m, cols]` value computed from a detached view of `x`
    /// (gradients do not flow through it). `fill` receives `x`'s values and
    /// a zeroed output buffer.
    fn detached(&mut self, x: &Self::V, cols: usize, fill: impl FnOnce(&[f32], &mut [f32])) -> Self::V;

    /// Each sequence's row at `last_idx[b]`: `[B, m, d]` → `[B, d]`.
    fn gather_last(&mut self, seq: &Self::V, last_idx: &[usize]) -> Self::V;
}

/// The graphed executor: every op records its autograd node.
pub struct Tape;

impl Exec for Tape {
    type V = Tensor;

    fn input(&mut self, t: &Tensor) -> Tensor {
        t.clone()
    }

    fn linear(&mut self, layer: &Linear, x: &Tensor) -> Tensor {
        layer.forward(x)
    }

    fn leaky_relu(&mut self, x: Tensor) -> Tensor {
        ops::leaky_relu(&x)
    }

    fn recurrent(&mut self, rnn: &dyn Recurrent, x: &Tensor) -> Tensor {
        rnn.forward_seq(x)
    }

    fn bmm_nt(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::bmm_nt(a, b)
    }

    fn bmm_nn(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::bmm_nn(a, b)
    }

    fn scale(&mut self, x: Tensor, c: f32) -> Tensor {
        ops::scale(&x, c)
    }

    fn masked_softmax(&mut self, scores: Tensor, key_mask: &Tensor) -> Tensor {
        ops::masked_softmax(&scores, key_mask)
    }

    fn mask_rows(&mut self, x: Tensor, mask: &Tensor) -> Tensor {
        ops::mul_mask_rows(&x, mask)
    }

    fn sub(&mut self, a: &Tensor, b: Tensor) -> Tensor {
        ops::sub(a, &b)
    }

    fn concat(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        ops::concat_last(a, b)
    }

    fn add_positions(&mut self, x: Tensor, table: &Tensor) -> Tensor {
        let (b, m) = (x.shape()[0], x.shape()[1]);
        ops::add(&x, &ops::tile_rows(&ops::slice_rows(table, m), b))
    }

    fn mix(&mut self, a: Tensor, b: &Tensor, logit: &Tensor) -> Tensor {
        let lam = ops::sigmoid(logit);
        let one_minus = ops::add_scalar(&ops::neg(&lam), 1.0);
        ops::add(&ops::mul_scalar_tensor(&a, &lam), &ops::mul_scalar_tensor(b, &one_minus))
    }

    fn detached(&mut self, x: &Tensor, cols: usize, fill: impl FnOnce(&[f32], &mut [f32])) -> Tensor {
        let (b, m) = (x.shape()[0], x.shape()[1]);
        let mut out = vec![0.0f32; b * m * cols];
        fill(&x.data(), &mut out);
        Tensor::from_vec(out, &[b, m, cols])
    }

    fn gather_last(&mut self, seq: &Tensor, last_idx: &[usize]) -> Tensor {
        ops::gather_time(seq, last_idx)
    }
}

/// A [`NoGrad`] activation: a `[B, m, d]` buffer rented from the
/// [`crate::infer`] pool, returned to it on drop.
pub struct Buf {
    data: Vec<f32>,
    shape: [usize; 3],
}

impl Buf {
    fn new(data: Vec<f32>, shape: [usize; 3]) -> Buf {
        debug_assert_eq!(data.len(), shape.iter().product::<usize>());
        Buf { data, shape }
    }

    /// Take the values out; the storage leaves the pool with them.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        if self.data.capacity() > 0 {
            recycle(std::mem::take(&mut self.data));
        }
    }
}

/// The tape-free executor: pooled buffers, no tensor construction.
/// `NoGrad::default()` runs every sequence from the zero initial state.
///
/// A warm forward allocates only its [`gather_last`](Exec::gather_last)
/// output; everything else is rented from and returned to the pool.
#[derive(Default)]
pub struct NoGrad<'s> {
    /// Carried `[B, stash_dim]` recurrent cell state for a resumed
    /// (streaming) forward; `None` starts every sequence from zeros.
    state: Option<&'s mut [f32]>,
}

impl<'s> NoGrad<'s> {
    /// A forward that resumes the recurrent layer from `state` (the layer's
    /// `[B, stash_dim]` cell stash, zeros before the first step) and leaves
    /// the final state in it. Feeding a sequence in pieces this way is
    /// bitwise equal to feeding it whole, because `kernels::mm_nn` is
    /// row-stable (DESIGN §12).
    pub fn resuming(state: &'s mut [f32]) -> NoGrad<'s> {
        NoGrad { state: Some(state) }
    }
}

impl Exec for NoGrad<'_> {
    type V = Buf;

    fn input(&mut self, t: &Tensor) -> Buf {
        let s = t.shape();
        assert_eq!(s.len(), 3, "NoGrad::input: need [B, m, d], got {s:?}");
        let mut data = take(t.numel());
        data.copy_from_slice(&t.data());
        Buf::new(data, [s[0], s[1], s[2]])
    }

    fn linear(&mut self, layer: &Linear, x: &Buf) -> Buf {
        let [b, m, d] = x.shape;
        assert_eq!(d, layer.in_dim(), "Linear: input dim mismatch");
        let (w, bias) = (layer.weight.data(), layer.bias.data());
        let out = infer::linear(&x.data, b * m, d, layer.out_dim(), &w, &bias);
        Buf::new(out, [b, m, layer.out_dim()])
    }

    fn leaky_relu(&mut self, mut x: Buf) -> Buf {
        infer::leaky_relu_inplace(&mut x.data);
        x
    }

    fn recurrent(&mut self, rnn: &dyn Recurrent, x: &Buf) -> Buf {
        let [b, m, d] = x.shape;
        assert_eq!(d, rnn.input_dim(), "recurrent: input dim mismatch");
        let out = match self.state.as_deref_mut() {
            Some(state) => rnn.forward_seq_nograd(&x.data, b, m, state),
            None => {
                let mut state = take(b * rnn.stash_dim());
                let out = rnn.forward_seq_nograd(&x.data, b, m, &mut state);
                recycle(state);
                out
            }
        };
        Buf::new(out, [b, m, rnn.hidden_dim()])
    }

    fn bmm_nt(&mut self, a: &Buf, b: &Buf) -> Buf {
        let ([bs, ma, d], [_, mb, _]) = (a.shape, b.shape);
        Buf::new(infer::bmm_nt(&a.data, &b.data, bs, ma, d, mb), [bs, ma, mb])
    }

    fn bmm_nn(&mut self, a: &Buf, b: &Buf) -> Buf {
        let ([bs, ma, k], [_, _, n]) = (a.shape, b.shape);
        Buf::new(infer::bmm_nn(&a.data, &b.data, bs, ma, k, n), [bs, ma, n])
    }

    fn scale(&mut self, mut x: Buf, c: f32) -> Buf {
        for v in x.data.iter_mut() {
            *v *= c;
        }
        x
    }

    fn masked_softmax(&mut self, mut scores: Buf, key_mask: &Tensor) -> Buf {
        let [b, q, k] = scores.shape;
        infer::masked_softmax_inplace(&mut scores.data, &key_mask.data(), b, q, k);
        scores
    }

    fn mask_rows(&mut self, mut x: Buf, mask: &Tensor) -> Buf {
        let [b, m, d] = x.shape;
        infer::mask_rows_inplace(&mut x.data, &mask.data(), b, m, d);
        x
    }

    fn sub(&mut self, a: &Buf, mut b: Buf) -> Buf {
        for (bv, &av) in b.data.iter_mut().zip(&a.data) {
            *bv = av - *bv;
        }
        b
    }

    fn concat(&mut self, a: &Buf, b: &Buf) -> Buf {
        let ([bs, m, da], [_, _, db]) = (a.shape, b.shape);
        Buf::new(infer::concat_cols(&a.data, &b.data, bs * m, da, db), [bs, m, da + db])
    }

    fn add_positions(&mut self, mut x: Buf, table: &Tensor) -> Buf {
        let [bs, m, d] = x.shape;
        let pos = table.data();
        for row in x.data.chunks_exact_mut(m * d).take(bs) {
            for (v, p) in row.iter_mut().zip(&pos[..m * d]) {
                *v += *p;
            }
        }
        x
    }

    fn mix(&mut self, mut a: Buf, b: &Buf, logit: &Tensor) -> Buf {
        // σ and 1 − σ exactly as the graphed `sigmoid`/`neg`/`add_scalar`.
        let lam = 1.0 / (1.0 + (-logit.data()[0]).exp());
        let one_minus = -lam + 1.0;
        for (o, &bv) in a.data.iter_mut().zip(&b.data) {
            *o = *o * lam + bv * one_minus;
        }
        a
    }

    fn detached(&mut self, x: &Buf, cols: usize, fill: impl FnOnce(&[f32], &mut [f32])) -> Buf {
        let [b, m, _] = x.shape;
        let mut out = take(b * m * cols);
        fill(&x.data, &mut out);
        Buf::new(out, [b, m, cols])
    }

    /// The one fresh allocation of a forward: an exactly sized vector, so
    /// [`Buf::into_vec`] hands the caller no pooled capacity.
    fn gather_last(&mut self, seq: &Buf, last_idx: &[usize]) -> Buf {
        let [b, m, d] = seq.shape;
        assert_eq!(last_idx.len(), b, "gather_last: one index per batch row");
        Buf::new(infer::gather_last(&seq.data, b, m, d, last_idx), [b, 1, d])
    }
}
