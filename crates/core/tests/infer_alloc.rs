//! Tape-free inference gates: bitwise parity with the graphed forward and
//! the allocation regression budget.
//!
//! `PairModel::embed_nograd` promises two things:
//!
//! 1. **Numerics** — the returned `[B·d]` embeddings equal the graphed
//!    `encode_pairs` last-valid-step rows *bitwise*: the fast path reuses
//!    the same kernels, the same elementwise step functions and the same
//!    operation order, so there is no tolerance to tune.
//! 2. **Allocations** — after the thread-local buffer pool is warm, one
//!    call creates **zero** graph nodes (observed via `nodes_created`) and
//!    at most two large heap buffers (observed via the counting global
//!    allocator from `tmn_obs::memory`): the returned embedding vector plus
//!    at most one pool growth.
//!
//! The budget is deliberately measured with a `#[global_allocator]` rather
//! than a hand-maintained counter: any `vec![...]` sneaking back into the
//! hot path is caught no matter which layer allocates it.

use tmn_core::batch::PairBatch;
use tmn_core::config::ModelConfig;
use tmn_autograd::nn::RnnKind;
use tmn_core::models::{ModelKind, PairModel, Tmn};
use tmn_obs::memory;
use tmn_traj::{Point, Trajectory};

/// Allocations of at least this many bytes are counted while armed. The
/// batch below makes every pooled intermediate (`B·m·d̂` and up) larger than
/// this, while graph bookkeeping and the returned `[B·d]` vector stay below.
const LARGE: usize = 4096;

/// The armed allocation counter is process-global and counts every
/// thread's allocations, so every test in this binary takes this lock: a
/// test allocating beside a measuring one would leak into its count.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn traj(seed: u64, len: usize) -> Trajectory {
    (0..len)
        .map(|i| {
            let x = ((seed * 31 + i as u64 * 17) % 97) as f64 / 97.0;
            let y = ((seed * 13 + i as u64 * 7) % 89) as f64 / 89.0;
            Point::new(x, y)
        })
        .collect()
}

/// A ragged 8-pair batch (lengths 3..=17) so masking and last-step gather
/// are actually exercised.
fn ragged_batch() -> PairBatch {
    let a: Vec<Trajectory> = (0..8).map(|i| traj(i + 1, 3 + 2 * i as usize)).collect();
    let b: Vec<Trajectory> = (0..8).map(|i| traj(i + 11, 4 + (i as usize * 3) % 13)).collect();
    let ar: Vec<&Trajectory> = a.iter().collect();
    let br: Vec<&Trajectory> = b.iter().collect();
    PairBatch::build(&ar, &br)
}

/// Last-valid-step rows of a graphed `[B, m, d]` encoding, flattened.
fn gather_graphed(out: &tmn_autograd::Tensor, last_idx: &[usize], d: usize) -> Vec<f32> {
    let (m, data) = (out.shape()[1], out.to_vec());
    let mut flat = Vec::with_capacity(last_idx.len() * d);
    for (row, &last) in last_idx.iter().enumerate() {
        flat.extend_from_slice(&data[(row * m + last) * d..(row * m + last + 1) * d]);
    }
    flat
}

#[test]
fn counting_allocator_is_compiled_in() {
    let _l = test_lock();
    // The allocation gate rests on the alloc-count feature being active for
    // this crate's test builds; fail loudly if it ever drops.
    assert!(memory::is_active(), "tmn-obs alloc-count feature must be enabled for tests");
    assert!(memory::alloc_count() > 0, "allocator must have observed this binary's allocations");
}

#[test]
fn nograd_embeddings_match_graphed_forward_bitwise() {
    let _l = test_lock();
    let batch = ragged_batch();
    let cfg = ModelConfig { dim: 16, seed: 7 };
    let mut models: Vec<Box<dyn PairModel>> = ModelKind::ALL.iter().map(|k| k.build(&cfg)).collect();
    // The GRU backbone, with matching on and off.
    for matching in [true, false] {
        models.push(Box::new(Tmn::with_rnn(&cfg, matching, RnnKind::Gru)));
    }
    for model in &models {
        let name = model.name();
        let enc = model.encode_pairs(&batch);
        let d = model.dim();
        let fast_a = model.embed_nograd(&batch.a, &batch.b);
        let fast_b = model.embed_nograd(&batch.b, &batch.a);
        assert_eq!(fast_a, gather_graphed(&enc.out_a, &batch.a.last_idx, d), "{name} side A");
        assert_eq!(fast_b, gather_graphed(&enc.out_b, &batch.b.last_idx, d), "{name} side B");
    }
}

#[test]
fn neutraj_fast_path_sees_the_warm_memory() {
    let _l = test_lock();
    // NeuTraj's embeddings depend on its spatial attention memory; the fast
    // path must read the same (written) state as the graphed forward.
    let batch = ragged_batch();
    let model = ModelKind::NeuTraj.build(&ModelConfig { dim: 16, seed: 9 });
    let enc = model.encode_pairs(&batch);
    model.post_step(&batch, &enc); // fill the memory
    let warm = model.encode_pairs(&batch);
    let fast = model.embed_nograd(&batch.a, &batch.b);
    let graphed = gather_graphed(&warm.out_a, &batch.a.last_idx, model.dim());
    assert_eq!(fast, graphed, "fast path diverged after memory writes");
    // And the memory genuinely changed the output, so this test has teeth.
    assert_ne!(fast, gather_graphed(&enc.out_a, &batch.a.last_idx, model.dim()));
}

#[test]
fn embed_nograd_allocates_no_graph_nodes_and_stays_in_the_pool() {
    let _l = test_lock();
    // dim 32 ⇒ the smallest pooled intermediate is B·m·d̂·4 = 8·17·16·4
    // ≈ 8.7 KiB, above LARGE; the returned [B·d] vector is 1 KiB, below.
    let batch = ragged_batch();
    for kind in [ModelKind::Tmn, ModelKind::TmnNm, ModelKind::Srn, ModelKind::NeuTraj, ModelKind::T3s] {
        let model = kind.build(&ModelConfig { dim: 32, seed: 3 });
        // Warm the thread-local buffer pool.
        for _ in 0..10 {
            model.embed_nograd(&batch.a, &batch.b);
        }
        let nodes_before = tmn_autograd::nodes_created();
        let (out, large) =
            memory::count_large_during(LARGE, || model.embed_nograd(&batch.a, &batch.b));
        let node_delta = tmn_autograd::nodes_created() - nodes_before;
        assert_eq!(node_delta, 0, "{kind}: embed_nograd created {node_delta} graph nodes");
        assert!(large <= 2, "{kind}: {large} large allocations in a warm embed_nograd call");
        assert_eq!(out.len(), 8 * 32, "{kind}: wrong embedding count");
    }
}
