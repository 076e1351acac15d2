//! Fused recurrent ops: the time-major execution model for LSTM/GRU.
//!
//! The step-unrolled recurrences (kept in [`crate::nn::reference`]) emit
//! ~16 graph nodes per time step — a `select_time` gather, two small
//! matmuls, four `slice_last` splits, four activations, and the state
//! arithmetic. At trajectory lengths in the hundreds that is thousands of
//! nodes per batch, and the profiler shows the graph bookkeeping (not the
//! GEMMs) dominating training time.
//!
//! The fused model replaces all of that with three op families:
//!
//! 1. [`rnn_gate_preproject`] — one `[B·T, d_in] × [d_in, G]` GEMM computes
//!    every time step's input projection at once and lays the result out
//!    **time-major** (`[T, B, G]`), so step `t` is the contiguous slice
//!    `[t·B·G, (t+1)·B·G)` — per-step access needs no gather node at all.
//! 2. [`lstm_cell_fused`] / [`gru_cell_fused`] — a single graph node per
//!    step: the recurrent GEMM, every gate nonlinearity, and the state
//!    update, with a hand-written backward. Gate activations are stashed in
//!    the node's output columns so the backward never recomputes a GEMM.
//! 3. [`collect_states`] — one node gathering the hidden columns of all `T`
//!    cell outputs into the `[B, T, h]` sequence output.
//!
//! A `T`-step forward is therefore `T + 2` nodes, and every
//! backward scatter accumulates straight into the parent's pooled gradient
//! buffer ([`Tensor::accumulate_grad_with`]) — no zeroed temporaries.
//!
//! Cell output layouts (columns of the last dim):
//!
//! - LSTM (`[B, 7h]`): `[h | c | i | f | g | o | tanh(c)]`
//! - GRU  (`[B, 5h]`): `[h | r | z | n | q]` with `q = h_prev · W_hn`
//!
//! Only the `h` (and, for LSTM, `c`) columns ever receive gradient — the
//! stash columns exist so the backward can read the forward's intermediate
//! values from `out_data`.

use crate::kernels::{mm_nn, mm_nt, mm_tn};
use crate::profile::op_scope;
use crate::simd;
use crate::Tensor;

/// The forward elementwise block of one LSTM step, shared verbatim by the
/// graphed op and the no-grad inference path (`crate::infer`) so the two
/// stay bitwise identical. `z` is `[B, 4h]` (pre-projection plus the
/// recurrent GEMM, gate order `[i | f | g | o]`), `cp` is the `[B, h]`
/// previous cell state; writes the full `[B, 7h]` stash layout
/// `[h | c | i | f | g | o | tanh(c)]`. Gate activations run through the
/// SIMD-dispatched slice kernels.
pub(crate) fn lstm_step_elementwise(z: &[f32], cp: &[f32], bs: usize, h: usize, out: &mut [f32]) {
    debug_assert!(z.len() >= bs * 4 * h && cp.len() >= bs * h && out.len() >= bs * 7 * h);
    for b in 0..bs {
        let zr = &z[b * 4 * h..(b + 1) * 4 * h];
        let o = &mut out[b * 7 * h..(b + 1) * 7 * h];
        // Activated gates land in their stash columns: σ over [i | f]
        // (contiguous), tanh over g, σ over the output gate.
        o[2 * h..6 * h].copy_from_slice(zr);
        simd::sigmoid_inplace(&mut o[2 * h..4 * h]);
        simd::tanh_inplace(&mut o[4 * h..5 * h]);
        simd::sigmoid_inplace(&mut o[5 * h..6 * h]);
        for j in 0..h {
            // c = f ⊙ c_prev + i ⊙ g
            o[h + j] = o[3 * h + j] * cp[b * h + j] + o[2 * h + j] * o[4 * h + j];
        }
        o.copy_within(h..2 * h, 6 * h);
        simd::tanh_inplace(&mut o[6 * h..7 * h]);
        for j in 0..h {
            // h = o ⊙ tanh(c)
            o[j] = o[5 * h + j] * o[6 * h + j];
        }
    }
}

/// The forward elementwise block of one GRU step (see
/// [`lstm_step_elementwise`] for the sharing contract). `zr` is `[B, 2h]`
/// (`[r | z]` pre-activations), `q = h_prev · w_hn` is `[B, h]`, `pn_t` is
/// step `t`'s slice of the `n`-gate pre-projection, `hp` the packed `[B, h]`
/// previous hidden state; writes the `[B, 5h]` stash layout
/// `[h | r | z | n | q]`.
pub(crate) fn gru_step_elementwise(
    zr: &[f32],
    q: &[f32],
    pn_t: &[f32],
    hp: &[f32],
    bs: usize,
    h: usize,
    out: &mut [f32],
) {
    debug_assert!(zr.len() >= bs * 2 * h && q.len() >= bs * h && pn_t.len() >= bs * h);
    debug_assert!(hp.len() >= bs * h && out.len() >= bs * 5 * h);
    for b in 0..bs {
        let zr_row = &zr[b * 2 * h..(b + 1) * 2 * h];
        let o = &mut out[b * 5 * h..(b + 1) * 5 * h];
        o[h..3 * h].copy_from_slice(zr_row);
        simd::sigmoid_inplace(&mut o[h..3 * h]); // [r | z]
        o[4 * h..5 * h].copy_from_slice(&q[b * h..(b + 1) * h]);
        for j in 0..h {
            // n pre-activation: pre_n[t] + r ⊙ q
            o[3 * h + j] = pn_t[b * h + j] + o[h + j] * o[4 * h + j];
        }
        simd::tanh_inplace(&mut o[3 * h..4 * h]);
        for j in 0..h {
            // h = (1 − z) ⊙ n + z ⊙ h_prev
            o[j] = (1.0 - o[2 * h + j]) * o[3 * h + j] + o[2 * h + j] * hp[b * h + j];
        }
    }
}

/// Extract `[B, take)`-column rows of a `[B, s]` buffer into a contiguous
/// `[B, take]` buffer (the cell state tensors carry stash columns past the
/// recurrent state, so GEMM inputs must be repacked).
fn pack_cols(src: &[f32], bs: usize, s: usize, take: usize) -> Vec<f32> {
    debug_assert!(take <= s);
    let mut out = Vec::with_capacity(bs * take);
    for b in 0..bs {
        out.extend_from_slice(&src[b * s..b * s + take]);
    }
    out
}

/// All-steps input projection, emitted time-major.
///
/// `xs` is `[B, T, d_in]` (batch-major, as produced by the embedding
/// layers), `w` is `[d_in, G]`, `bias` is `[G]`. Returns `[T, B, G]` where
/// `out[t, b, :] = xs[b, t, :] · w + bias` — one GEMM for what the
/// step-unrolled path computed as `T` per-step matmuls.
pub fn rnn_gate_preproject(xs: &Tensor, w: &Tensor, bias: &Tensor) -> Tensor {
    let (sx, sw) = (xs.shape(), w.shape());
    assert_eq!(sx.len(), 3, "rnn_gate_preproject: xs must be [B, T, d_in], got {sx:?}");
    assert_eq!(sw.len(), 2, "rnn_gate_preproject: w must be [d_in, G], got {sw:?}");
    assert_eq!(sx[2], sw[0], "rnn_gate_preproject: inner dims {sx:?} x {sw:?}");
    let (bs, t_steps, d_in, g_dim) = (sx[0], sx[1], sx[2], sw[1]);
    assert_eq!(bias.shape(), &[g_dim], "rnn_gate_preproject: bias must be [G]");
    let _prof = op_scope(
        "rnn_gate_preproject",
        (2 * bs * t_steps * d_in * g_dim + bs * t_steps * g_dim) as u64,
    );
    // Repack xs into time-major [T·B, d_in] so one GEMM covers all steps.
    let xt = {
        let xd = xs.data();
        let mut xt = vec![0.0f32; t_steps * bs * d_in];
        for b in 0..bs {
            for t in 0..t_steps {
                let src = (b * t_steps + t) * d_in;
                let dst = (t * bs + b) * d_in;
                xt[dst..dst + d_in].copy_from_slice(&xd[src..src + d_in]);
            }
        }
        xt
    };
    let mut data = {
        // Seed the output with the broadcast bias; the GEMM accumulates on top.
        let bd = bias.data();
        let mut data = Vec::with_capacity(t_steps * bs * g_dim);
        for _ in 0..t_steps * bs {
            data.extend_from_slice(&bd);
        }
        data
    };
    mm_nn(&xt, &w.data(), t_steps * bs, d_in, g_dim, &mut data);
    Tensor::from_op(
        &[t_steps, bs, g_dim],
        data,
        vec![xs.clone(), w.clone(), bias.clone()],
        Box::new(move |ctx| {
            let g = ctx.out_grad;
            if ctx.parents[0].requires_grad() {
                // d xs = g · wᵀ, transposed back to batch-major.
                let mut dxt = vec![0.0f32; t_steps * bs * d_in];
                mm_nt(g, &ctx.parents[1].data(), t_steps * bs, g_dim, d_in, &mut dxt);
                ctx.parents[0].accumulate_grad_with(|dst| {
                    for b in 0..bs {
                        for t in 0..t_steps {
                            let src = (t * bs + b) * d_in;
                            let d0 = (b * t_steps + t) * d_in;
                            for (dv, sv) in dst[d0..d0 + d_in].iter_mut().zip(&dxt[src..src + d_in]) {
                                *dv += sv;
                            }
                        }
                    }
                });
            }
            if ctx.parents[1].requires_grad() {
                // d w = xtᵀ · g; the time-major repack is recomputed (O(B·T·d)
                // moves, far below the GEMM it feeds).
                let xd = ctx.parents[0].data();
                let mut xt = vec![0.0f32; t_steps * bs * d_in];
                for b in 0..bs {
                    for t in 0..t_steps {
                        let src = (b * t_steps + t) * d_in;
                        let dst = (t * bs + b) * d_in;
                        xt[dst..dst + d_in].copy_from_slice(&xd[src..src + d_in]);
                    }
                }
                ctx.parents[1].accumulate_grad_with(|dw| {
                    mm_tn(&xt, g, t_steps * bs, d_in, g_dim, dw);
                });
            }
            if ctx.parents[2].requires_grad() {
                ctx.parents[2].accumulate_grad_with(|db| {
                    for chunk in g.chunks_exact(g_dim) {
                        for (bv, gv) in db.iter_mut().zip(chunk) {
                            *bv += gv;
                        }
                    }
                });
            }
        }),
    )
}

/// One fused LSTM step: a single graph node computing
///
/// ```text
/// z = pre[t] + h_prev · w_hh          (gate order [i | f | g | o])
/// i = σ(z_i)  f = σ(z_f)  g = tanh(z_g)  o = σ(z_o)
/// c = f ⊙ c_prev + i ⊙ g
/// h = o ⊙ tanh(c)
/// ```
///
/// `pre` is the `[T, B, 4h]` time-major projection from
/// [`rnn_gate_preproject`]; `state` carries the previous step's output (or a
/// `[B, 2h]` zero tensor at `t = 0`) with `h_prev`/`c_prev` in its first two
/// column blocks. Output is `[B, 7h]`: `[h | c | i | f | g | o | tanh(c)]` —
/// the gate/activation stash lets the hand-written backward run without
/// recomputing the GEMM or any transcendental.
pub fn lstm_cell_fused(pre: &Tensor, t: usize, state: &Tensor, w_hh: &Tensor) -> Tensor {
    let sp = pre.shape();
    assert_eq!(sp.len(), 3, "lstm_cell_fused: pre must be [T, B, 4h], got {sp:?}");
    let (t_steps, bs, h4) = (sp[0], sp[1], sp[2]);
    assert!(t < t_steps, "lstm_cell_fused: step {t} out of {t_steps}");
    assert_eq!(h4 % 4, 0, "lstm_cell_fused: gate dim {h4} not divisible by 4");
    let h = h4 / 4;
    let ss = state.shape();
    assert_eq!(ss[0], bs, "lstm_cell_fused: state batch mismatch");
    let s_cols = ss[1];
    assert!(s_cols >= 2 * h, "lstm_cell_fused: state must carry [h | c], got {ss:?}");
    assert_eq!(w_hh.shape(), &[h, 4 * h], "lstm_cell_fused: w_hh must be [h, 4h]");
    let _prof = op_scope("lstm_cell_fused", (2 * bs * h * 4 * h + 24 * bs * h) as u64);

    let (hp, cp) = {
        let sd = state.data();
        (pack_cols(&sd, bs, s_cols, h), {
            let mut cp = Vec::with_capacity(bs * h);
            for b in 0..bs {
                cp.extend_from_slice(&sd[b * s_cols + h..b * s_cols + 2 * h]);
            }
            cp
        })
    };
    // z = pre[t] (contiguous time-major slice) + h_prev · w_hh.
    let mut z = pre.data()[t * bs * h4..(t + 1) * bs * h4].to_vec();
    mm_nn(&hp, &w_hh.data(), bs, h, 4 * h, &mut z);

    let mut data = vec![0.0f32; bs * 7 * h];
    lstm_step_elementwise(&z, &cp, bs, h, &mut data);

    Tensor::from_op(
        &[bs, 7 * h],
        data,
        vec![pre.clone(), state.clone(), w_hh.clone()],
        Box::new(move |ctx| {
            let og = ctx.out_grad;
            let od = ctx.out_data;
            let sd = ctx.parents[1].data();
            // dz per gate, then one contiguous scatter into pre's pooled grad
            // and two GEMMs for the recurrent weight / previous state.
            let mut dz = vec![0.0f32; bs * 4 * h];
            let mut dcp = vec![0.0f32; bs * h];
            for b in 0..bs {
                let o_row = &od[b * 7 * h..(b + 1) * 7 * h];
                let g_row = &og[b * 7 * h..(b + 1) * 7 * h];
                let dz_row = &mut dz[b * 4 * h..(b + 1) * 4 * h];
                for j in 0..h {
                    let (dh, dc_in) = (g_row[j], g_row[h + j]);
                    let (i_g, f_g, g_g, o_g) =
                        (o_row[2 * h + j], o_row[3 * h + j], o_row[4 * h + j], o_row[5 * h + j]);
                    let tc = o_row[6 * h + j];
                    let dc = dc_in + dh * o_g * (1.0 - tc * tc);
                    let d_o = dh * tc;
                    dz_row[j] = dc * g_g * i_g * (1.0 - i_g);
                    dz_row[h + j] = dc * sd[b * s_cols + h + j] * f_g * (1.0 - f_g);
                    dz_row[2 * h + j] = dc * i_g * (1.0 - g_g * g_g);
                    dz_row[3 * h + j] = d_o * o_g * (1.0 - o_g);
                    dcp[b * h + j] = dc * f_g;
                }
            }
            if ctx.parents[0].requires_grad() {
                ctx.parents[0].accumulate_grad_with(|g| {
                    let dst = &mut g[t * bs * 4 * h..(t + 1) * bs * 4 * h];
                    for (dv, sv) in dst.iter_mut().zip(&dz) {
                        *dv += sv;
                    }
                });
            }
            if ctx.parents[1].requires_grad() {
                // d h_prev = dz · w_hhᵀ; d c_prev = dc ⊙ f.
                let mut dhp = vec![0.0f32; bs * h];
                mm_nt(&dz, &ctx.parents[2].data(), bs, 4 * h, h, &mut dhp);
                ctx.parents[1].accumulate_grad_with(|g| {
                    for b in 0..bs {
                        for j in 0..h {
                            g[b * s_cols + j] += dhp[b * h + j];
                            g[b * s_cols + h + j] += dcp[b * h + j];
                        }
                    }
                });
            }
            if ctx.parents[2].requires_grad() {
                let hp = pack_cols(&sd, bs, s_cols, h);
                ctx.parents[2].accumulate_grad_with(|g| {
                    mm_tn(&hp, &dz, bs, h, 4 * h, g);
                });
            }
        }),
    )
}

/// One fused GRU step: a single graph node computing
///
/// ```text
/// [r | z] = σ(pre_rz[t] + h_prev · w_hh)
/// q = h_prev · w_hn
/// n = tanh(pre_n[t] + r ⊙ q)
/// h = (1 − z) ⊙ n + z ⊙ h_prev
/// ```
///
/// `pre_rz` is `[T, B, 2h]`, `pre_n` is `[T, B, h]` (both time-major from
/// [`rnn_gate_preproject`]); `state` is the previous output (or `[B, h]`
/// zeros at `t = 0`) with `h_prev` in its first column block. Output is
/// `[B, 5h]`: `[h | r | z | n | q]`.
pub fn gru_cell_fused(
    pre_rz: &Tensor,
    pre_n: &Tensor,
    t: usize,
    state: &Tensor,
    w_hh: &Tensor,
    w_hn: &Tensor,
) -> Tensor {
    let (srz, sn) = (pre_rz.shape(), pre_n.shape());
    assert_eq!(srz.len(), 3, "gru_cell_fused: pre_rz must be [T, B, 2h], got {srz:?}");
    assert_eq!(sn.len(), 3, "gru_cell_fused: pre_n must be [T, B, h], got {sn:?}");
    let (t_steps, bs, h2) = (srz[0], srz[1], srz[2]);
    assert_eq!(h2 % 2, 0, "gru_cell_fused: gate dim {h2} not divisible by 2");
    let h = h2 / 2;
    assert_eq!(sn, &[t_steps, bs, h], "gru_cell_fused: pre_n shape {sn:?} != [{t_steps}, {bs}, {h}]");
    assert!(t < t_steps, "gru_cell_fused: step {t} out of {t_steps}");
    let ss = state.shape();
    assert_eq!(ss[0], bs, "gru_cell_fused: state batch mismatch");
    let s_cols = ss[1];
    assert!(s_cols >= h, "gru_cell_fused: state must carry [h], got {ss:?}");
    assert_eq!(w_hh.shape(), &[h, 2 * h], "gru_cell_fused: w_hh must be [h, 2h]");
    assert_eq!(w_hn.shape(), &[h, h], "gru_cell_fused: w_hn must be [h, h]");
    let _prof = op_scope("gru_cell_fused", (2 * bs * h * 3 * h + 20 * bs * h) as u64);

    let hp = pack_cols(&state.data(), bs, s_cols, h);
    let mut zr = pre_rz.data()[t * bs * h2..(t + 1) * bs * h2].to_vec();
    mm_nn(&hp, &w_hh.data(), bs, h, 2 * h, &mut zr);
    let mut q = vec![0.0f32; bs * h];
    mm_nn(&hp, &w_hn.data(), bs, h, h, &mut q);

    let pn = pre_n.data();
    let pn_t = &pn[t * bs * h..(t + 1) * bs * h];
    let mut data = vec![0.0f32; bs * 5 * h];
    gru_step_elementwise(&zr, &q, pn_t, &hp, bs, h, &mut data);

    Tensor::from_op(
        &[bs, 5 * h],
        data,
        vec![pre_rz.clone(), pre_n.clone(), state.clone(), w_hh.clone(), w_hn.clone()],
        Box::new(move |ctx| {
            let og = ctx.out_grad;
            let od = ctx.out_data;
            let sd = ctx.parents[2].data();
            let mut drz = vec![0.0f32; bs * 2 * h]; // [drpre | dzpre]
            let mut da = vec![0.0f32; bs * h];
            let mut dq = vec![0.0f32; bs * h];
            let mut dhp = vec![0.0f32; bs * h]; // the elementwise z ⊙ dh part
            for b in 0..bs {
                let o_row = &od[b * 5 * h..(b + 1) * 5 * h];
                for j in 0..h {
                    let dh = og[b * 5 * h + j];
                    let (r_g, z_g, n_g, qv) =
                        (o_row[h + j], o_row[2 * h + j], o_row[3 * h + j], o_row[4 * h + j]);
                    let hp_v = sd[b * s_cols + j];
                    let dzg = dh * (hp_v - n_g);
                    let dn = dh * (1.0 - z_g);
                    let dav = dn * (1.0 - n_g * n_g);
                    da[b * h + j] = dav;
                    dq[b * h + j] = dav * r_g;
                    drz[b * 2 * h + j] = dav * qv * r_g * (1.0 - r_g);
                    drz[b * 2 * h + h + j] = dzg * z_g * (1.0 - z_g);
                    dhp[b * h + j] = dh * z_g;
                }
            }
            if ctx.parents[0].requires_grad() {
                ctx.parents[0].accumulate_grad_with(|g| {
                    let dst = &mut g[t * bs * 2 * h..(t + 1) * bs * 2 * h];
                    for (dv, sv) in dst.iter_mut().zip(&drz) {
                        *dv += sv;
                    }
                });
            }
            if ctx.parents[1].requires_grad() {
                ctx.parents[1].accumulate_grad_with(|g| {
                    let dst = &mut g[t * bs * h..(t + 1) * bs * h];
                    for (dv, sv) in dst.iter_mut().zip(&da) {
                        *dv += sv;
                    }
                });
            }
            if ctx.parents[2].requires_grad() {
                // d h_prev = z ⊙ dh + dq · w_hnᵀ + drz · w_hhᵀ.
                mm_nt(&dq, &ctx.parents[4].data(), bs, h, h, &mut dhp);
                mm_nt(&drz, &ctx.parents[3].data(), bs, 2 * h, h, &mut dhp);
                ctx.parents[2].accumulate_grad_with(|g| {
                    for b in 0..bs {
                        for j in 0..h {
                            g[b * s_cols + j] += dhp[b * h + j];
                        }
                    }
                });
            }
            let needs_hp = ctx.parents[3].requires_grad() || ctx.parents[4].requires_grad();
            if needs_hp {
                let hp = pack_cols(&sd, bs, s_cols, h);
                if ctx.parents[3].requires_grad() {
                    ctx.parents[3].accumulate_grad_with(|g| {
                        mm_tn(&hp, &drz, bs, h, 2 * h, g);
                    });
                }
                if ctx.parents[4].requires_grad() {
                    ctx.parents[4].accumulate_grad_with(|g| {
                        mm_tn(&hp, &dq, bs, h, h, g);
                    });
                }
            }
        }),
    )
}

/// Gather the hidden columns of `T` fused-cell outputs into `[B, T, h]`.
///
/// Each element of `states` is one step's `[B, s]` cell output with the
/// hidden state in columns `[0, h)`; this is the fused counterpart of
/// `stack_time` and the only node the whole output sequence costs.
pub fn collect_states(states: &[Tensor], h: usize) -> Tensor {
    assert!(!states.is_empty(), "collect_states: empty input");
    let s0 = states[0].shape().to_vec();
    assert_eq!(s0.len(), 2, "collect_states: states must be [B, s], got {s0:?}");
    assert!(s0[1] >= h, "collect_states: state width {} below hidden dim {h}", s0[1]);
    let (bs, s_cols) = (s0[0], s0[1]);
    let t_steps = states.len();
    let _prof = op_scope("collect_states", 0);
    for st in states {
        assert_eq!(st.shape(), &s0[..], "collect_states: inconsistent state shapes");
    }
    let mut data = vec![0.0f32; bs * t_steps * h];
    for (t, st) in states.iter().enumerate() {
        let sd = st.data();
        for b in 0..bs {
            let dst = (b * t_steps + t) * h;
            data[dst..dst + h].copy_from_slice(&sd[b * s_cols..b * s_cols + h]);
        }
    }
    Tensor::from_op(&[bs, t_steps, h], data, states.to_vec(), Box::new(move |ctx| {
        for (t, p) in ctx.parents.iter().enumerate() {
            if !p.requires_grad() {
                continue;
            }
            p.accumulate_grad_with(|g| {
                for b in 0..bs {
                    let src = (b * t_steps + t) * h;
                    for (gv, og) in
                        g[b * s_cols..b * s_cols + h].iter_mut().zip(&ctx.out_grad[src..src + h])
                    {
                        *gv += og;
                    }
                }
            });
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gradcheck::check;
    use crate::ops::{self, mul, sum_all};

    #[test]
    fn preproject_matches_per_step_matmul() {
        let (bs, t_steps, d_in, g_dim) = (2, 3, 4, 5);
        let xs = Tensor::from_vec(
            (0..bs * t_steps * d_in).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[bs, t_steps, d_in],
        );
        let w = Tensor::from_vec(
            (0..d_in * g_dim).map(|i| (i as f32 * 0.21).cos()).collect(),
            &[d_in, g_dim],
        );
        let bias = Tensor::from_vec((0..g_dim).map(|i| 0.1 * i as f32).collect(), &[g_dim]);
        let pre = rnn_gate_preproject(&xs, &w, &bias);
        assert_eq!(pre.shape(), &[t_steps, bs, g_dim]);
        let pv = pre.to_vec();
        for t in 0..t_steps {
            let x_t = ops::select_time(&xs, t);
            let want = ops::add_bias(&ops::matmul(&x_t, &w), &bias).to_vec();
            for b in 0..bs {
                for j in 0..g_dim {
                    let got = pv[(t * bs + b) * g_dim + j];
                    assert!(
                        (got - want[b * g_dim + j]).abs() < 1e-5,
                        "pre[{t},{b},{j}] = {got} vs {}",
                        want[b * g_dim + j]
                    );
                }
            }
        }
    }

    #[test]
    fn preproject_gradcheck() {
        let xs = Tensor::param((0..12).map(|i| 0.1 * i as f32 - 0.5).collect(), &[2, 3, 2]);
        let w = Tensor::param((0..6).map(|i| 0.2 * i as f32 - 0.4).collect(), &[2, 3]);
        let bias = Tensor::param(vec![0.1, -0.2, 0.3], &[3]);
        check(&[xs, w, bias], |t| {
            let p = rnn_gate_preproject(&t[0], &t[1], &t[2]);
            sum_all(&mul(&p, &p))
        }, 1e-2);
    }

    #[test]
    fn lstm_cell_gradcheck() {
        // Two chained fused steps so the state path (h and c) is exercised.
        let (bs, h, d_in) = (2usize, 2usize, 2usize);
        let xs = Tensor::param((0..bs * 2 * d_in).map(|i| 0.13 * i as f32 - 0.4).collect(), &[bs, 2, d_in]);
        let w = Tensor::param((0..d_in * 4 * h).map(|i| 0.07 * i as f32 - 0.5).collect(), &[d_in, 4 * h]);
        let bias = Tensor::param((0..4 * h).map(|i| 0.05 * i as f32 - 0.1).collect(), &[4 * h]);
        let w_hh = Tensor::param((0..h * 4 * h).map(|i| 0.06 * i as f32 - 0.3).collect(), &[h, 4 * h]);
        check(&[xs, w, bias, w_hh], |t| {
            let pre = rnn_gate_preproject(&t[0], &t[1], &t[2]);
            let s0 = Tensor::zeros(&[bs, 2 * h]);
            let s1 = lstm_cell_fused(&pre, 0, &s0, &t[3]);
            let s2 = lstm_cell_fused(&pre, 1, &s1, &t[3]);
            let z = collect_states(&[s1, s2], h);
            sum_all(&mul(&z, &z))
        }, 2e-2);
    }

    #[test]
    fn gru_cell_gradcheck() {
        let (bs, h, d_in) = (2usize, 2usize, 2usize);
        let xs = Tensor::param((0..bs * 2 * d_in).map(|i| 0.11 * i as f32 - 0.35).collect(), &[bs, 2, d_in]);
        let w_ih = Tensor::param((0..d_in * 2 * h).map(|i| 0.09 * i as f32 - 0.4).collect(), &[d_in, 2 * h]);
        let bias = Tensor::param((0..2 * h).map(|i| 0.04 * i as f32 - 0.05).collect(), &[2 * h]);
        let w_in = Tensor::param((0..d_in * h).map(|i| 0.08 * i as f32 - 0.2).collect(), &[d_in, h]);
        let bias_n = Tensor::param((0..h).map(|i| 0.03 * i as f32).collect(), &[h]);
        let w_hh = Tensor::param((0..h * 2 * h).map(|i| 0.05 * i as f32 - 0.25).collect(), &[h, 2 * h]);
        let w_hn = Tensor::param((0..h * h).map(|i| 0.1 * i as f32 - 0.15).collect(), &[h, h]);
        check(&[xs, w_ih, bias, w_in, bias_n, w_hh, w_hn], |t| {
            let pre_rz = rnn_gate_preproject(&t[0], &t[1], &t[2]);
            let pre_n = rnn_gate_preproject(&t[0], &t[3], &t[4]);
            let s0 = Tensor::zeros(&[bs, h]);
            let s1 = gru_cell_fused(&pre_rz, &pre_n, 0, &s0, &t[5], &t[6]);
            let s2 = gru_cell_fused(&pre_rz, &pre_n, 1, &s1, &t[5], &t[6]);
            let z = collect_states(&[s1, s2], h);
            sum_all(&mul(&z, &z))
        }, 2e-2);
    }

    #[test]
    fn collect_states_layout_and_grad() {
        // Two [B=2, s=3] states with h=2: out[b, t, :] = states[t][b, 0..2].
        let s1 = Tensor::from_vec(vec![1.0, 2.0, 9.0, 3.0, 4.0, 9.0], &[2, 3]);
        let s2 = Tensor::from_vec(vec![5.0, 6.0, 9.0, 7.0, 8.0, 9.0], &[2, 3]);
        let z = collect_states(&[s1, s2], 2);
        assert_eq!(z.shape(), &[2, 2, 2]);
        assert_eq!(z.to_vec(), vec![1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0]);

        let p1 = Tensor::param(vec![0.1, 0.2, 0.9, 0.3, 0.4, 0.8], &[2, 3]);
        let p2 = Tensor::param(vec![0.5, 0.6, 0.7, 0.7, 0.8, 0.6], &[2, 3]);
        check(&[p1, p2], |t| {
            let z = collect_states(&[t[0].clone(), t[1].clone()], 2);
            sum_all(&mul(&z, &z))
        }, 1e-2);
    }
}
