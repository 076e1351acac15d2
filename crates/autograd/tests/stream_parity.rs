//! Streaming (one-point-at-a-time) RNN state vs. the full tape-free re-run.
//!
//! Streaming is [`Recurrent::forward_seq_nograd`] run for one step at a
//! time from a carried cell state. The contract is *bitwise* equality:
//! after `N` one-step calls the newest output row equals the last row of a
//! single `N`-step call from the zero state at `bs = 1`. This holds
//! because `kernels::mm_nn` dispatches on per-row work (`k·n`) only — a
//! 1-row GEMM takes the same kernel as the corresponding row of the
//! full-sequence preprojection — and both runs are the same kernel. Sizes
//! below straddle the `ROW_STABLE_MIN_KN` dispatch threshold so both the
//! naive and the blocked kernel are exercised.

use tmn_autograd::nn::{Gru, Lstm, ParamSet, Recurrent};

fn rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Deterministic pseudo-random buffer in roughly [-1, 1].
fn wiggle(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 2000) as f32 / 1000.0 - 1.0)
        .collect()
}

/// Feed `m` rows through the stream one step at a time, checking each
/// prefix against a full tape-free re-run at `bs = 1`.
fn check_stream(cell: &dyn Recurrent, m: usize, seed: u32) {
    let d_in = cell.input_dim();
    let h_out = cell.hidden_dim();
    let xs = wiggle(m * d_in, seed);
    let mut state = vec![0.0f32; cell.stash_dim()];
    for t in 0..m {
        let row = cell.forward_seq_nograd(&xs[t * d_in..(t + 1) * d_in], 1, 1, &mut state);
        let full = cell.forward_seq_nograd(&xs[..(t + 1) * d_in], 1, t + 1, &mut vec![0.0; cell.stash_dim()]);
        assert_eq!(
            row.as_slice(),
            &full[t * h_out..(t + 1) * h_out],
            "stream row diverged from full re-run at step {t} (d_in={d_in}, h_out={h_out})"
        );
    }
}

#[test]
fn lstm_stream_matches_full_rerun_bitwise() {
    // h=4 → k·n for the cell GEMM is 4·16=64 (naive); h=24 → 24·96=2304
    // (blocked). Both sides of the row-stable dispatch threshold.
    for (d_in, h, seed) in [(3, 4, 101), (6, 24, 102), (2, 16, 103)] {
        let mut ps = ParamSet::new();
        let cell = Lstm::new(&mut ps, "l", d_in, h, &mut rng(7 + seed as u64));
        check_stream(&cell, 11, seed);
    }
}

#[test]
fn gru_stream_matches_full_rerun_bitwise() {
    for (d_in, h, seed) in [(3, 5, 201), (5, 24, 202), (2, 16, 203)] {
        let mut ps = ParamSet::new();
        let cell = Gru::new(&mut ps, "g", d_in, h, &mut rng(9 + seed as u64));
        check_stream(&cell, 11, seed);
    }
}

#[test]
fn stream_survives_crossing_kernel_dispatch_sizes() {
    // A long stream on a size whose preprojection GEMM (m rows) sits above
    // the blocked threshold while each stream step's 1-row GEMM has the
    // same k·n — the dispatch must agree or bits drift.
    let (d_in, h) = (8, 16); // preproject k·n = 8·64 = 512 = threshold edge
    let mut ps = ParamSet::new();
    let cell = Lstm::new(&mut ps, "edge", d_in, h, &mut rng(99));
    check_stream(&cell, 40, 404);
}

#[test]
#[should_panic(expected = "state must be [B, 7h]")]
fn stream_state_kind_mismatch_panics() {
    let mut ps = ParamSet::new();
    let lstm = Lstm::new(&mut ps, "l", 3, 4, &mut rng(1));
    let gru = Gru::new(&mut ps, "g", 3, 4, &mut rng(2));
    let mut gru_state = vec![0.0f32; gru.stash_dim()];
    lstm.forward_seq_nograd(&[0.1, 0.2, 0.3], 1, 1, &mut gru_state);
}
