//! Timing harness for the efficiency study (Table III): exact-metric
//! computation time, model training time per epoch, per-trajectory
//! inference time, and per-pair similarity computation time.

use std::time::Instant;
use tmn_core::PairModel;
use tmn_obs::{metrics, trace};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::Trajectory;

/// Registry names for the serving-path metrics (see DESIGN.md §8). One
/// histogram observation per query span; for independent-embedding models
/// the embed/index spans cover the whole batch and are recorded once per
/// search call (documented on [`time_search_phases_detailed`]).
pub const QUERY_EMBED_NS: &str = "query_embed_ns";
pub const QUERY_INDEX_NS: &str = "query_index_ns";
pub const QUERY_RANK_NS: &str = "query_rank_ns";
pub const QUERIES_TOTAL: &str = "queries_total";

/// One row of the efficiency table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EfficiencyRow {
    pub method: String,
    /// Seconds per training epoch (None for exact metrics).
    pub training_s: Option<f64>,
    /// Seconds to encode one trajectory on the serving path — the tape-free
    /// forward (None for exact metrics).
    pub inference_s: Option<f64>,
    /// Seconds to encode one trajectory through the graphed autograd
    /// forward. Reported alongside `inference_s` so the table separates
    /// model cost from graph-construction overhead — a single conflated
    /// number is how the original 0.072 s vs 0.00059 s asymmetry got
    /// quoted with autograd bookkeeping silently included.
    pub inference_graphed_s: Option<f64>,
    /// Seconds to compute one (pairwise) similarity.
    pub computation_s: f64,
    /// How many similarity evaluations `computation_s` was averaged over
    /// (None when the row predates counted timing).
    pub computation_ops: Option<u64>,
}

/// Wall-clock seconds to compute all pairwise distances of `trajs` under
/// `metric` (the exact-metric "Computation" entry of Table III), plus the
/// number of pair evaluations performed — the per-pair mean is
/// `secs / pairs` with no re-derived denominator.
pub fn time_exact_pairwise_counted(
    trajs: &[Trajectory],
    metric: Metric,
    params: &MetricParams,
) -> (f64, u64) {
    let start = Instant::now();
    let mut acc = 0.0f64;
    let mut pairs = 0u64;
    for (i, a) in trajs.iter().enumerate() {
        for b in trajs.iter().skip(i + 1) {
            acc += metric.distance(a, b, params);
            pairs += 1;
        }
    }
    // Keep the accumulation observable so the loop cannot be optimized out.
    std::hint::black_box(acc);
    (start.elapsed().as_secs_f64(), pairs)
}

/// Total wall-clock seconds to encode every trajectory with `model`
/// (batched, amortized), plus the number of trajectories encoded. For
/// pair-dependent models this measures self-paired encoding, matching how
/// the paper reports TMN's per-trajectory inference cost.
///
/// Measures the serving path: `encode_all` takes the tape-free forward.
/// Earlier revisions always went through the graphed forward, so the
/// reported "inference" time silently included autograd graph
/// construction; use [`time_inference_split`] to see both numbers side by
/// side.
pub fn time_inference_per_trajectory_counted(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    batch_size: usize,
) -> (f64, u64) {
    let start = Instant::now();
    let emb = crate::search::encode_all(model, trajs, batch_size);
    std::hint::black_box(&emb);
    (start.elapsed().as_secs_f64(), trajs.len() as u64)
}

/// Per-trajectory inference wall clock, split by forward implementation.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct InferenceTimings {
    /// Total seconds for the serving path (tape-free).
    pub nograd_s: f64,
    /// Total seconds for the graphed autograd forward under `no_grad`.
    pub graphed_s: f64,
    /// Trajectories encoded by each pass.
    pub trajectories: u64,
}

impl InferenceTimings {
    /// Graphed-over-fast ratio — the autograd overhead factor.
    pub fn speedup(&self) -> f64 {
        self.graphed_s / self.nograd_s.max(1e-12)
    }
}

/// Time both forward implementations over the same trajectories so Table
/// III can report model cost (tape-free) and autograd overhead (graphed)
/// as separate numbers.
pub fn time_inference_split(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    batch_size: usize,
) -> InferenceTimings {
    let start = Instant::now();
    let emb = crate::search::encode_all(model, trajs, batch_size);
    std::hint::black_box(&emb);
    let nograd_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let emb_g = crate::search::encode_all_graphed(model, trajs, batch_size);
    std::hint::black_box(&emb_g);
    let graphed_s = start.elapsed().as_secs_f64();
    InferenceTimings { nograd_s, graphed_s, trajectories: trajs.len() as u64 }
}

/// Mean seconds to compute the Euclidean similarity of two `d`-dim
/// embeddings (the learning-based "Computation" entry; effectively O(d)).
pub fn time_embedding_distance(dim: usize, reps: usize) -> f64 {
    let a: Vec<f32> = (0..dim).map(|i| i as f32 * 0.01).collect();
    let b: Vec<f32> = (0..dim).map(|i| i as f32 * 0.02).collect();
    let start = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..reps.max(1) {
        acc += crate::search::embedding_distance(&a, &b);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Wall-clock breakdown of an end-to-end top-k similarity search.
///
/// "Embed" covers model encoding (for pair-dependent models, all per-query
/// pair encodings), "index" covers building the [`crate::EmbeddingStore`]
/// (zero for pair-dependent models, which cannot be pre-indexed), and "rank"
/// covers nearest-neighbor scanning/ordering.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SearchPhases {
    pub embed_s: f64,
    pub index_s: f64,
    pub rank_s: f64,
    pub queries: usize,
}

impl SearchPhases {
    pub fn total_s(&self) -> f64 {
        self.embed_s + self.index_s + self.rank_s
    }

    /// Fraction of total time in each phase, `(embed, index, rank)`.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total_s().max(1e-12);
        (self.embed_s / t, self.index_s / t, self.rank_s / t)
    }
}

/// Exact per-span nanosecond latencies measured by one
/// [`time_search_phases_detailed`] call — the very samples fed into the
/// metrics registry histograms, returned so tests can validate exported
/// quantiles against a sorted-sample oracle.
#[derive(Debug, Clone, Default)]
pub struct QueryLatencies {
    /// Per-query embed spans (pair-dependent models), or one whole-batch
    /// span (independent models).
    pub embed_ns: Vec<u64>,
    /// One whole-batch index-build span (independent models only; empty
    /// for pair-dependent models, which cannot be pre-indexed).
    pub index_ns: Vec<u64>,
    /// Per-query rank spans.
    pub rank_ns: Vec<u64>,
}

#[inline]
fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Run a full top-k search for `queries` (database indices) over `trajs`
/// and report per-phase timings alongside each query's `(index, distance)`
/// result list (self included), plus the exact per-span latencies it
/// recorded (the metrics-histogram oracle used by `tests/serving_metrics.rs`).
///
/// Independent-embedding models go through encode → store-build → k-NN scan;
/// pair-dependent models (TMN) pay the encoding per query and skip the
/// index phase entirely — the cost asymmetry of the paper's Table III.
///
/// Serving metrics: every span is also recorded into the global
/// [`tmn_obs::metrics`] registry — per-query spans feed the
/// [`QUERY_EMBED_NS`] / [`QUERY_RANK_NS`] histograms and [`QUERIES_TOTAL`];
/// for independent models the one-shot whole-batch embed/index spans go to
/// [`QUERY_EMBED_NS`] / [`QUERY_INDEX_NS`] (one observation per call).
///
/// Tracing: when [`tmn_obs::trace`] is enabled, each call opens an
/// `eval.search` request and records the same intervals as `eval.embed` /
/// `eval.index` / `eval.rank` child spans, so offline evaluation runs land
/// in the flight recorder exactly like live serve traffic. Histogram
/// observations carry the trace id as an exemplar.
pub fn time_search_phases_detailed(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    queries: &[usize],
    k: usize,
    batch_size: usize,
) -> (SearchPhases, Vec<Vec<(usize, f64)>>, QueryLatencies) {
    let _prof = tmn_obs::profiler::phase("eval.search");
    let req = trace::request_begin("eval.search");
    let _ambient = trace::attach(req.ctx());
    let ctx = req.ctx();
    let mut lat = QueryLatencies::default();
    metrics::counter_add(QUERIES_TOTAL, queries.len() as u64);
    let (phases, results) = if model.is_pair_dependent() {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(queries.len());
        for &q in queries {
            let t0 = trace::now_ns();
            let start = Instant::now();
            let row = crate::search::pairwise_query_distances(model, &trajs[q], trajs, batch_size);
            let ns = elapsed_ns(start);
            trace::record_span(ctx, "eval.embed", t0, ns, &[("query", q as u64)]);
            metrics::observe_ns_traced(QUERY_EMBED_NS, ns, ctx.trace_id());
            lat.embed_ns.push(ns);
            rows.push(row);
        }
        let mut results = Vec::with_capacity(rows.len());
        for row in &rows {
            let t0 = trace::now_ns();
            let start = Instant::now();
            let ranked = crate::merge_topk(row.iter().copied().enumerate().collect(), k);
            let ns = elapsed_ns(start);
            trace::record_span(ctx, "eval.rank", t0, ns, &[("candidates", row.len() as u64)]);
            metrics::observe_ns_traced(QUERY_RANK_NS, ns, ctx.trace_id());
            lat.rank_ns.push(ns);
            results.push(ranked);
        }
        let embed_s = lat.embed_ns.iter().sum::<u64>() as f64 / 1e9;
        let rank_s = lat.rank_ns.iter().sum::<u64>() as f64 / 1e9;
        (SearchPhases { embed_s, index_s: 0.0, rank_s, queries: queries.len() }, results)
    } else {
        let t0 = trace::now_ns();
        let start = Instant::now();
        let emb = crate::search::encode_all(model, trajs, batch_size);
        let embed_ns = elapsed_ns(start);
        trace::record_span(ctx, "eval.embed", t0, embed_ns, &[("trajs", trajs.len() as u64)]);
        metrics::observe_ns_traced(QUERY_EMBED_NS, embed_ns, ctx.trace_id());
        lat.embed_ns.push(embed_ns);
        let t0 = trace::now_ns();
        let start = Instant::now();
        let store = crate::EmbeddingStore::from_vectors(&emb);
        let index_ns = elapsed_ns(start);
        trace::record_span(ctx, "eval.index", t0, index_ns, &[("vectors", emb.len() as u64)]);
        metrics::observe_ns_traced(QUERY_INDEX_NS, index_ns, ctx.trace_id());
        lat.index_ns.push(index_ns);
        let mut results = Vec::with_capacity(queries.len());
        for &q in queries {
            let t0 = trace::now_ns();
            let start = Instant::now();
            let ranked = store.knn_exact(&emb[q], k);
            let ns = elapsed_ns(start);
            trace::record_span(ctx, "eval.rank", t0, ns, &[("query", q as u64)]);
            metrics::observe_ns_traced(QUERY_RANK_NS, ns, ctx.trace_id());
            lat.rank_ns.push(ns);
            results.push(ranked);
        }
        let embed_s = embed_ns as f64 / 1e9;
        let index_s = index_ns as f64 / 1e9;
        let rank_s = lat.rank_ns.iter().sum::<u64>() as f64 / 1e9;
        (SearchPhases { embed_s, index_s, rank_s, queries: queries.len() }, results)
    };
    (phases, results, lat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_core::{ModelConfig, ModelKind};
    use tmn_traj::Point;

    fn trajs(n: usize, len: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| (0..len).map(|t| Point::new(0.01 * t as f64, 0.05 * i as f64)).collect())
            .collect()
    }

    #[test]
    fn exact_timing_positive_and_scales() {
        let params = MetricParams::default();
        let (small, pairs) = time_exact_pairwise_counted(&trajs(6, 20), Metric::Dtw, &params);
        let (large, _) = time_exact_pairwise_counted(&trajs(12, 40), Metric::Dtw, &params);
        assert_eq!(pairs, 15, "6 trajectories have 15 unordered pairs");
        assert!(small > 0.0);
        assert!(large > small, "more work must take longer: {small} vs {large}");
    }

    #[test]
    fn inference_timing_positive() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let (t, n) = time_inference_per_trajectory_counted(model.as_ref(), &trajs(4, 10), 4);
        assert!(t > 0.0 && t.is_finite());
        assert_eq!(n, 4);
    }

    #[test]
    fn inference_split_reports_both_paths() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let t = time_inference_split(model.as_ref(), &trajs(6, 10), 3);
        assert!(t.nograd_s > 0.0 && t.graphed_s > 0.0);
        assert_eq!(t.trajectories, 6);
        assert!(t.speedup().is_finite() && t.speedup() > 0.0);
    }

    #[test]
    fn search_phases_independent_model() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let ts = trajs(8, 10);
        let (phases, results, _) = time_search_phases_detailed(model.as_ref(), &ts, &[0, 3], 4, 4);
        assert_eq!(phases.queries, 2);
        assert!(phases.embed_s > 0.0 && phases.rank_s > 0.0);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].len(), 4);
        // The query itself is its own nearest neighbor at distance ~0.
        assert_eq!(results[0][0].0, 0);
        assert!(results[0][0].1 < 1e-6);
        let (fe, fi, fr) = phases.fractions();
        assert!((fe + fi + fr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn search_phases_pair_dependent_model_skips_index() {
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 2 });
        let ts = trajs(6, 8);
        let (phases, results, _) = time_search_phases_detailed(model.as_ref(), &ts, &[1], 3, 3);
        assert_eq!(phases.index_s, 0.0, "pair-dependent search has no index phase");
        assert!(phases.embed_s > 0.0);
        assert_eq!(results[0].len(), 3);
        assert_eq!(results[0][0].0, 1, "self match must rank first");
    }

    #[test]
    fn search_records_trace_with_phase_spans() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let ts = trajs(8, 10);
        trace::configure(tmn_obs::TraceConfig {
            slow_threshold_ns: 0, // keep every request
            ..Default::default()
        });
        trace::set_enabled(true);
        let _ = time_search_phases_detailed(model.as_ref(), &ts, &[0, 3], 4, 4);
        trace::set_enabled(false);
        let snap = trace::recent()
            .into_iter()
            .find(|t| t.name == "eval.search")
            .expect("eval.search trace must be captured");
        assert!(snap.is_well_formed(), "span tree must reassemble");
        assert_eq!(snap.spans_named("eval.embed").len(), 1, "one whole-batch embed span");
        assert_eq!(snap.spans_named("eval.index").len(), 1);
        assert_eq!(snap.spans_named("eval.rank").len(), 2, "one rank span per query");
        trace::configure(tmn_obs::TraceConfig::default());
    }

    #[test]
    fn embedding_distance_is_microscopic() {
        let t = time_embedding_distance(128, 1000);
        assert!(t > 0.0);
        // O(d) distance must be far below a millisecond.
        assert!(t < 1e-3, "embedding distance took {t}s");
    }
}
