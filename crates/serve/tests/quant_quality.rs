//! Quantization quality gate (Table II harness): a `ShardSet` storing
//! int8-quantized vectors must reproduce the hitting ratio of the same set
//! storing f32 vectors to within 0.5% absolute.
//!
//! Protocol: encode a synthetic clustered dataset with TMN-NM, rank
//! ground-truth neighbours by DTW (the Table II protocol), then compare
//! HR@10 of two sets that differ only in `quantized`. Both rerank their
//! shortlist against the exact f32 embeddings, so with a shortlist a few
//! times k the only quality risk is a true neighbour falling outside the
//! (slightly perturbed) quantized shortlist. The ≤30% memory bound of the
//! int8 vector storage is an `Hnsw` unit test in `tmn-index`.
//!
//! Set `TMN_SHORTLIST_SWEEP=1` (with `--nocapture`) to print the HR@10
//! delta across shortlist sizes — the sweep documented in EXPERIMENTS.md.

use tmn_core::{ModelConfig, ModelKind};
use tmn_eval::{encode_all, EmbeddingStore};
use tmn_serve::{ShardSet, ShardSetConfig};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::{Point, Trajectory};

/// 120 trajectories in 12 loose clusters so nearest neighbours are
/// well-defined but not degenerate.
fn clustered_trajs() -> Vec<Trajectory> {
    let mut out = Vec::new();
    for c in 0..12u64 {
        let (cx, cy) = ((c % 4) as f64 * 0.25, (c / 4) as f64 * 0.3);
        for j in 0..10u64 {
            let len = 8 + ((c * 10 + j) % 7) as usize;
            let traj: Trajectory = (0..len)
                .map(|t| {
                    let wob = ((c * 131 + j * 17 + t as u64 * 7) % 23) as f64 / 230.0;
                    Point::new(cx + 0.02 * t as f64 + wob * 0.1, cy + wob)
                })
                .collect();
            out.push(traj);
        }
    }
    out
}

/// A one-shard set over `store` (row `i` is id `i`). One shard with seed 33
/// draws the same HNSW levels as a standalone index seeded with 33.
fn set_of(store: &EmbeddingStore, quantized: bool, shortlist: usize) -> ShardSet {
    let cfg = ShardSetConfig { shards: 1, quantized, shortlist, seed: 33, ..Default::default() };
    let set = ShardSet::new(store.dim(), cfg);
    set.warm_load(store).unwrap();
    set
}

/// Mean HR@10 of `set` over `queries` (self excluded) against `truth`.
fn hr10(set: &ShardSet, emb: &[Vec<f32>], queries: &[usize], truth: &[Vec<usize>]) -> f64 {
    let mut hr = 0.0;
    for (&q, want) in queries.iter().zip(truth) {
        let got: Vec<usize> = set
            .query(&emb[q], 11)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id as usize)
            .filter(|&i| i != q)
            .take(10)
            .collect();
        hr += got.iter().filter(|i| want.contains(i)).count() as f64 / 10.0;
    }
    hr / queries.len() as f64
}

#[test]
fn int8_rerank_reproduces_f32_hitting_ratio() {
    let trajs = clustered_trajs();
    let model = ModelKind::TmnNm.build(&ModelConfig { dim: 16, seed: 21 });
    let emb = encode_all(model.as_ref(), &trajs, 16);
    let store = EmbeddingStore::from_vectors(&emb);

    // Ground truth: DTW top-10 per query (the Table II protocol).
    let params = MetricParams::default();
    let queries: Vec<usize> = (0..trajs.len()).step_by(6).collect(); // 20 queries
    let truth: Vec<Vec<usize>> = queries
        .iter()
        .map(|&q| {
            let row: Vec<f64> =
                trajs.iter().map(|t| Metric::Dtw.distance(&trajs[q], t, &params)).collect();
            tmn_eval::top_k_indices(&row, 10, q)
        })
        .collect();

    let shortlist = 60;
    let hr_f32 = hr10(&set_of(&store, false, shortlist), &emb, &queries, &truth);
    let hr_int8 = hr10(&set_of(&store, true, shortlist), &emb, &queries, &truth);
    let delta = (hr_f32 - hr_int8).abs();
    assert!(
        delta <= 0.005,
        "HR@10 moved by {delta:.4} under int8+rerank (f32 {hr_f32:.4}, int8 {hr_int8:.4})"
    );

    if std::env::var("TMN_SHORTLIST_SWEEP").is_ok() {
        println!("shortlist sweep (HR@10 f32 = {hr_f32:.4}):");
        for sl in [10, 15, 20, 30, 40, 60, 80] {
            let hr = hr10(&set_of(&store, true, sl), &emb, &queries, &truth);
            println!("  shortlist {sl:3}: HR@10 {hr:.4} (delta {:+.4})", hr - hr_f32);
        }
    }
}
