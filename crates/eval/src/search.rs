//! Encoding test trajectories and computing predicted distances.
//!
//! Independent models (SRN, NeuTraj, T3S, Traj2SimVec, TMN-NM) encode every
//! trajectory once; queries then cost one Euclidean distance per candidate.
//! TMN's representations are pair-dependent, so a query re-encodes
//! (query, candidate) pairs — the paper's Table III reflects exactly this
//! cost asymmetry (0.072 s vs 0.00059 s per-trajectory inference).
//!
//! Encoding takes the tape-free path ([`PairModel::embed_nograd`]), which
//! every model has and which is bitwise-identical to the graphed forward
//! while skipping graph-node construction entirely. [`encode_all_graphed`]
//! keeps the graphed path callable directly so the efficiency study can
//! report model cost and autograd overhead as separate numbers — earlier
//! revisions quoted a single per-trajectory figure that silently included
//! graph construction.

use tmn_autograd::{no_grad, ops};
use tmn_core::{PairBatch, PairModel};
use tmn_obs::{metrics, profiler};
use tmn_traj::Trajectory;

/// Euclidean distance between two embedding vectors.
pub fn embedding_distance(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| ((x - y) * (x - y)) as f64).sum::<f64>().sqrt()
}

/// The best `k` of `(id, distance)` candidates, ascending. Ties on distance
/// break on id, so the result is a pure function of the candidate *set* —
/// a scatter-gather merge gives the same list whatever order the shards
/// answer in. Incomparable (NaN) distances compare equal instead of
/// panicking.
pub fn merge_topk<I: Ord>(mut candidates: Vec<(I, f64)>, k: usize) -> Vec<(I, f64)> {
    candidates.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    candidates.truncate(k);
    candidates
}

/// Encode each trajectory independently (self-paired batch), returning one
/// `d`-dim embedding per trajectory. Intended for models with
/// `is_pair_dependent() == false`.
///
/// Runs the model's tape-free forward (bitwise-identical to the graphed
/// forward, zero graph-node allocation).
pub fn encode_all(model: &dyn PairModel, trajs: &[Trajectory], batch_size: usize) -> Vec<Vec<f32>> {
    assert!(batch_size > 0, "encode_all: batch_size must be positive");
    let _prof = profiler::phase("search.encode_all");
    let d = model.dim();
    let mut out = Vec::with_capacity(trajs.len());
    for chunk in trajs.chunks(batch_size) {
        let refs: Vec<&Trajectory> = chunk.iter().collect();
        let batch = PairBatch::build(&refs, &refs);
        let flat = model.embed_nograd(&batch.a, &batch.b);
        out.extend(flat.chunks_exact(d).map(<[f32]>::to_vec));
    }
    out
}

/// Encode every trajectory through the *graphed* autograd forward (under
/// `no_grad`), bypassing any tape-free fast path. The efficiency study
/// times this against [`encode_all`] to separate model cost from
/// graph-construction overhead.
pub fn encode_all_graphed(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    batch_size: usize,
) -> Vec<Vec<f32>> {
    assert!(batch_size > 0, "encode_all_graphed: batch_size must be positive");
    let _prof = profiler::phase("search.encode_all_graphed");
    let d = model.dim();
    let mut out = Vec::with_capacity(trajs.len());
    no_grad(|| {
        for chunk in trajs.chunks(batch_size) {
            let refs: Vec<&Trajectory> = chunk.iter().collect();
            let batch = PairBatch::build(&refs, &refs);
            let enc = model.encode_pairs(&batch);
            let last = ops::gather_time(&enc.out_a, &batch.a.last_idx).to_vec();
            out.extend(last.chunks_exact(d).map(<[f32]>::to_vec));
        }
    });
    out
}

/// Predicted distances from one query to every candidate for a
/// pair-dependent model: encodes `(query, candidate)` pairs in chunks.
pub fn pairwise_query_distances(
    model: &dyn PairModel,
    query: &Trajectory,
    candidates: &[Trajectory],
    batch_size: usize,
) -> Vec<f64> {
    assert!(batch_size > 0, "pairwise_query_distances: batch_size must be positive");
    let _prof = profiler::phase("search.pairwise_query");
    let d = model.dim();
    let mut out = Vec::with_capacity(candidates.len());
    for chunk in candidates.chunks(batch_size) {
        let queries: Vec<&Trajectory> = chunk.iter().map(|_| query).collect();
        let cands: Vec<&Trajectory> = chunk.iter().collect();
        let batch = PairBatch::build(&queries, &cands);
        // Two tape-free passes, one per side of the pair.
        let qa = model.embed_nograd(&batch.a, &batch.b);
        let cb = model.embed_nograd(&batch.b, &batch.a);
        out.extend(qa.chunks_exact(d).zip(cb.chunks_exact(d)).map(|(q, c)| embedding_distance(q, c)));
    }
    out
}

/// Predicted distance rows for a set of query indices against the whole
/// `trajs` database, dispatching on pair dependence.
///
/// As a serving entry point this also feeds the global metrics registry:
/// `queries_total` advances by `queries.len()`, and embed spans land in the
/// `query_embed_ns` histogram (per query for pair-dependent models, one
/// whole-batch span otherwise).
pub fn predicted_distance_rows(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    queries: &[usize],
    batch_size: usize,
) -> Vec<Vec<f64>> {
    metrics::counter_add(crate::timing::QUERIES_TOTAL, queries.len() as u64);
    if model.is_pair_dependent() {
        queries
            .iter()
            .map(|&q| {
                let start = std::time::Instant::now();
                let row = pairwise_query_distances(model, &trajs[q], trajs, batch_size);
                metrics::observe_duration(crate::timing::QUERY_EMBED_NS, start.elapsed());
                row
            })
            .collect()
    } else {
        let start = std::time::Instant::now();
        let emb = encode_all(model, trajs, batch_size);
        metrics::observe_duration(crate::timing::QUERY_EMBED_NS, start.elapsed());
        queries
            .iter()
            .map(|&q| emb.iter().map(|e| embedding_distance(&emb[q], e)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_core::{ModelConfig, ModelKind};
    use tmn_traj::Point;

    fn trajs(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let off = i as f64 * 0.07;
                (0..6 + i % 5).map(|t| Point::new(0.1 * t as f64, off)).collect()
            })
            .collect()
    }

    #[test]
    fn encode_all_shapes() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let ts = trajs(7);
        let emb = encode_all(model.as_ref(), &ts, 3);
        assert_eq!(emb.len(), 7);
        assert!(emb.iter().all(|e| e.len() == 8));
    }

    #[test]
    fn encode_all_batch_invariant() {
        // Same embeddings regardless of batch size (padding must not leak).
        let model = ModelKind::TmnNm.build(&ModelConfig { dim: 8, seed: 2 });
        let ts = trajs(5);
        let e1 = encode_all(model.as_ref(), &ts, 1);
        let e5 = encode_all(model.as_ref(), &ts, 5);
        for (a, b) in e1.iter().zip(&e5) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5, "batch size changed embeddings");
            }
        }
    }

    #[test]
    fn fast_and_graphed_encodings_are_bitwise_equal() {
        let ts = trajs(7);
        for kind in [ModelKind::Srn, ModelKind::T3s, ModelKind::TmnNm, ModelKind::Tmn] {
            let model = kind.build(&ModelConfig { dim: 8, seed: 6 });
            let fast = encode_all(model.as_ref(), &ts, 3);
            let graphed = encode_all_graphed(model.as_ref(), &ts, 3);
            assert_eq!(fast, graphed, "{kind}: fast path diverged from graphed forward");
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 3 });
        let ts = trajs(4);
        let rows = predicted_distance_rows(model.as_ref(), &ts, &[0, 2], 4);
        assert_eq!(rows.len(), 2);
        assert!(rows[0][0] < 1e-6);
        assert!(rows[1][2] < 1e-6);
    }

    #[test]
    fn pair_dependent_path_used_for_tmn() {
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 4 });
        let ts = trajs(4);
        let rows = predicted_distance_rows(model.as_ref(), &ts, &[1], 2);
        assert_eq!(rows[0].len(), 4);
        // Self pair: identical inputs on both sides -> identical outputs.
        assert!(rows[0][1] < 1e-5, "self distance {}", rows[0][1]);
        assert!(rows[0].iter().all(|d| d.is_finite()));
    }

    #[test]
    fn merge_is_order_independent_and_tie_broken_by_id() {
        let a = vec![(3u64, 1.0), (1, 0.5), (7, 2.0)];
        let b = vec![(2u64, 0.5), (9, 1.5)];
        let mut ab = a.clone();
        ab.extend(&b);
        let mut ba = b.clone();
        ba.extend(&a);
        let m1 = merge_topk(ab, 3);
        let m2 = merge_topk(ba, 3);
        assert_eq!(m1, m2, "merge must not depend on shard arrival order");
        assert_eq!(m1, vec![(1, 0.5), (2, 0.5), (3, 1.0)], "ties break on id");
    }

    #[test]
    fn embedding_distance_basics() {
        assert_eq!(embedding_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(embedding_distance(&[1.0], &[1.0]), 0.0);
    }
}
