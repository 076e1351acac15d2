//! The two serving workloads: `query_adhoc` (ad-hoc queries plus inserts
//! over a small corpus started cold) and `by_id_churn` (by-id queries plus
//! streaming appends over a large corpus warm-started from TMNS files).
//!
//! Both drive `tmn-serve` only through `ServeHandle`, with the engine
//! thread the engine's own and at most two sender threads. Each run: set
//! up `SETUP_REPS` times (median reported), warm up untimed, run the open
//! loop at the fixed nominal rate, then a closed-loop saturation phase,
//! then the output checks on the quiesced engine. A traced run replaces the
//! saturation phase with a traced repeat of the nominal phase and direct
//! calls into each layer's public functions.

use crate::host;
use crate::inputs::{self, sub_seed};
use crate::load::{self, Outcome};
use crate::report::{Obj, Report};
use crate::spans;
use crate::stats::{self, percentile};
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tmn_core::{ModelConfig, ModelKind, PairModel};
use tmn_data::DatasetKind;
use tmn_eval::{encode_all, EmbeddingStore};
use tmn_obs::{memory, metrics, trace};
use tmn_serve::{ServeConfig, ServeEngine, ServeHandle, ShardSet, ShardSetConfig};
use tmn_store::CorpusFile;
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::{DistanceMatrix, Point, Trajectory};

/// Embedding dimension of the served model.
pub const DIM: usize = 32;
/// Shard count, pinned rather than the host-dependent default.
pub const SHARDS: usize = 2;
pub const SETUP_REPS: usize = 3;
pub const WARMUP_S: f64 = 1.0;
/// Senders of the open-loop phases. Two senders plus the engine thread
/// oversubscribe two cores (see `perfbench/README.md`).
const SENDERS: usize = 1;
/// Senders of the saturation phase: both cores' worth, back to back.
const SAT_SENDERS: usize = 2;
/// Length of the saturation phase, seconds.
const SAT_S: f64 = 3.0;
/// Latency limit for `slo_ratio`, milliseconds.
const SLO_MS: f64 = 10.0;
pub const K: usize = 10;
/// Seed of the served model's initial weights and of the data its trained
/// weights come from: the model is the same in every run, so a run's seed
/// varies the traffic, not the model.
const MODEL_SEED: u64 = 0x7A11_5EED;
/// Trajectories and epochs of the training run behind the served weights.
const WEIGHT_TRAIN: usize = 300;
const WEIGHT_EPOCHS: usize = 2;
/// Held-out trajectories, each also a query, for the model's HR@10.
const EVAL_DB: usize = 400;
/// Queries sampled for the recall and query-equality checks.
const CHECK_QUERIES: usize = 200;
/// Mean recall@10 against `query_exact` below which the index is broken,
/// not approximate.
const RECALL_FLOOR: f64 = 0.95;
/// Trajectories streamed point by point in the streaming check.
const STREAM_CHECKS: usize = 20;

/// The fixed parameters of one serving workload.
pub struct Spec {
    pub name: &'static str,
    pub corpus: usize,
    /// Nominal open-loop rate, requests per second.
    pub rate: f64,
    /// Share of requests that write (insert or append).
    pub write_share: f64,
    /// Start from TMNS files with `start_warm` (by-id queries and appends)
    /// rather than cold with trained weights (ad-hoc queries and inserts).
    pub warm_start: bool,
}

pub const QUERY_ADHOC: Spec = Spec {
    name: "query_adhoc",
    corpus: 2_000,
    rate: 300.0,
    write_share: 0.10,
    warm_start: false,
};

pub const BY_ID_CHURN: Spec = Spec {
    name: "by_id_churn",
    corpus: 20_000,
    rate: 400.0,
    write_share: 0.30,
    warm_start: true,
};

/// Live ids that receive appends in `by_id_churn`.
const ROTATING: usize = 512;

/// The shipped shard settings with the shard count pinned.
fn shard_config() -> ShardSetConfig {
    ShardSetConfig {
        shards: SHARDS,
        ..ShardSetConfig::default()
    }
}

/// The shipped engine settings (`max_batch` 32, re-index on every append)
/// over the pinned shards.
fn serve_config() -> ServeConfig {
    ServeConfig {
        shard: shard_config(),
        ..ServeConfig::default()
    }
}

fn model_config() -> ModelConfig {
    ModelConfig {
        dim: DIM,
        seed: MODEL_SEED,
    }
}

/// One request of the mix.
#[derive(Clone)]
enum Op {
    Query(usize),
    Insert(u64, usize),
    QueryId(u64),
    Append(u64, Point),
}

impl Op {
    fn is_write(&self) -> bool {
        matches!(self, Op::Insert(..) | Op::Append(..))
    }
}

/// Inputs and live state the benchmark tracks alongside the engine: what
/// every live id holds, so checks can rebuild the expected answers.
struct World {
    spec: &'static Spec,
    queries: Vec<Trajectory>,
    fresh: Vec<Trajectory>,
    /// Current trajectory of every live id.
    live: HashMap<u64, Trajectory>,
    next_insert: usize,
    /// Ids that receive appends, and how many appends were generated so far.
    rotating: Vec<u64>,
    appends: usize,
    rng: StdRng,
    ops_seed: u64,
    phase: u64,
}

impl World {
    /// The op sequence of one phase with `n` requests over `senders`.
    /// Request `i` is sent by sender `i % senders`; within the phase, the
    /// rotating id at position `p` is appended to only by sender
    /// `(p - base) % senders`, so each id's appends stay in order.
    fn ops(&mut self, n: usize, senders: usize) -> Vec<Op> {
        assert_eq!(
            ROTATING % senders,
            0,
            "rotating ids split evenly over senders"
        );
        self.phase += 1;
        let seed = sub_seed(self.ops_seed, self.phase);
        let writes = inputs::coins(self.spec.write_share, n, seed);
        let picks = inputs::picks(usize::MAX >> 1, n, seed ^ 1);
        let mut tails: HashMap<u64, Trajectory> = HashMap::new();
        let mut out = Vec::with_capacity(n);
        let base = self.appends;
        let mut per_sender = vec![0usize; senders];
        for i in 0..n {
            let op = match (self.spec.warm_start, writes[i]) {
                (false, false) => Op::Query(picks[i] % self.queries.len()),
                (false, true) => {
                    let id = (self.spec.corpus + self.next_insert) as u64;
                    let idx = self.next_insert % self.fresh.len();
                    self.next_insert += 1;
                    Op::Insert(id, idx)
                }
                (true, false) => Op::QueryId((picks[i] % self.spec.corpus) as u64),
                (true, true) => {
                    let s = i % senders;
                    let id = self.rotating[(base + per_sender[s] * senders + s) % ROTATING];
                    per_sender[s] += 1;
                    self.appends += 1;
                    let tail = tails.entry(id).or_insert_with(|| self.live[&id].clone());
                    let p = inputs::next_point(tail, &mut self.rng);
                    tail.push(p);
                    Op::Append(id, p)
                }
            };
            out.push(op);
        }
        out
    }

    /// Apply the effect of an executed write to the tracked state.
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(id, idx) => {
                self.live.insert(*id, self.fresh[*idx].clone());
            }
            Op::Append(id, p) => self
                .live
                .get_mut(id)
                .expect("append targets a live id")
                .push(*p),
            Op::Query(_) | Op::QueryId(_) => {}
        }
    }
}

fn send(h: &ServeHandle, world_queries: &[Trajectory], fresh: &[Trajectory], op: &Op) -> bool {
    match op {
        Op::Query(q) => h
            .query(world_queries[*q].clone(), K)
            .is_ok_and(|r| r.len() == K),
        Op::Insert(id, idx) => h.insert(*id, fresh[*idx].clone()).is_ok(),
        Op::QueryId(id) => h.query_id(*id, K).is_ok_and(|r| r.len() == K),
        Op::Append(id, p) => h.append_point(*id, *p).is_ok_and(|o| o.reindexed),
    }
}

/// Trained TMN-NM weights: a short deterministic training run on data from
/// `MODEL_SEED`, cached under `out_dir` so later runs skip it.
fn serving_weights(out_dir: &Path) -> Vec<u8> {
    let path = out_dir.join(format!(
        "weights-tmnnm-d{DIM}-seed{MODEL_SEED}-n{WEIGHT_TRAIN}-e{WEIGHT_EPOCHS}.bin"
    ));
    let scratch = ModelKind::TmnNm.build(&model_config());
    if let Ok(bytes) = std::fs::read(&path) {
        if tmn_core::checkpoint::load_params(scratch.params(), &bytes).is_ok() {
            return bytes;
        }
    }
    let train = inputs::trajectories(DatasetKind::PortoLike, WEIGHT_TRAIN, MODEL_SEED);
    let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 2);
    let cfg = tmn_core::TrainConfig {
        epochs: WEIGHT_EPOCHS,
        batch_pairs: 64,
        threads: 1,
        seed: MODEL_SEED,
        ..tmn_core::TrainConfig::default()
    };
    let mut trainer = tmn_core::Trainer::new(
        scratch.as_ref(),
        &train,
        &dmat,
        Metric::Dtw,
        MetricParams::default(),
        Box::new(tmn_data::RankSampler),
        cfg,
        None,
    );
    trainer.train();
    let bytes = tmn_core::checkpoint::save_params(scratch.params()).to_vec();
    crate::write_atomic(&path, &bytes);
    bytes
}

/// A local copy of the served model, for the checks and direct layer calls.
fn local_model(weights: Option<&[u8]>) -> Box<dyn PairModel> {
    let m = ModelKind::TmnNm.build(&model_config());
    if let Some(w) = weights {
        tmn_core::checkpoint::load_params(m.params(), w).expect("cached weights load");
    }
    m
}

fn overlap(a: &[u64], b: &[u64]) -> usize {
    a.iter().filter(|x| b.contains(x)).count()
}

fn same_bits(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Phase-level readings taken around an open-loop phase.
struct PhaseReadings {
    outcomes: Vec<Outcome>,
    writes: Vec<bool>,
    cpu_s: f64,
    engine_cpu_ns: u64,
    allocs: u64,
    steal: f64,
    nivcsw: u64,
    wall_s: f64,
}

fn run_phase(handle: &ServeHandle, world: &mut World, seconds: f64, seed: u64) -> PhaseReadings {
    let due = load::poisson_offsets(world.spec.rate, seconds, seed);
    let ops = world.ops(due.len(), SENDERS);
    let (u0, t0, e0, a0) = (
        host::usage(),
        host::cpu_ticks(),
        host::thread_cpu_ns("tmn-serve-engine"),
        memory::alloc_count(),
    );
    let start = Instant::now();
    let (queries, fresh) = (&world.queries, &world.fresh);
    let (outcomes, spin_cpu_s) =
        load::open_loop(&due, SENDERS, |_, i| send(handle, queries, fresh, &ops[i]));
    let wall_s = start.elapsed().as_secs_f64();
    let (u1, t1, e1, a1) = (
        host::usage(),
        host::cpu_ticks(),
        host::thread_cpu_ns("tmn-serve-engine"),
        memory::alloc_count(),
    );
    for op in &ops {
        world.apply(op);
    }
    PhaseReadings {
        writes: ops.iter().map(Op::is_write).collect(),
        outcomes,
        cpu_s: u1.cpu_s - u0.cpu_s - spin_cpu_s,
        engine_cpu_ns: e1.unwrap_or(0).saturating_sub(e0.unwrap_or(0)),
        allocs: a1 - a0,
        steal: host::steal_share(t0, t1),
        nivcsw: u1.nivcsw - u0.nivcsw,
        wall_s,
    }
}

/// Write the TMNS corpus and embedding files a warm start reads. The
/// embeddings come from the model the warm-started engine runs.
fn write_store(
    out_dir: &Path,
    spec: &Spec,
    seed: u64,
    corpus: &[Trajectory],
    model: &dyn PairModel,
) -> (PathBuf, PathBuf) {
    let dir = out_dir.join(format!("{}-seed{seed}", spec.name));
    std::fs::create_dir_all(&dir).expect("create store dir");
    let corpus_path = dir.join("corpus.tmns");
    let emb_path = dir.join("embeddings.tmns");
    tmn_store::write_corpus(&corpus_path, corpus).expect("write corpus TMNS");
    let emb = encode_all(model, corpus, 64);
    EmbeddingStore::from_vectors(&emb)
        .save(&emb_path)
        .expect("write embeddings TMNS");
    (corpus_path, emb_path)
}

/// Start the engine once and load its corpus; returns it and the seconds
/// that took (engine start plus corpus inserts, or mmap opens plus warm
/// start).
fn set_up(
    weights: Option<&[u8]>,
    corpus: &[Trajectory],
    files: Option<&(PathBuf, PathBuf)>,
) -> (ServeEngine, f64) {
    let t0 = Instant::now();
    let engine = match (files, weights) {
        (Some((corpus_path, emb_path)), _) => {
            let cf = CorpusFile::open(corpus_path).expect("open corpus TMNS");
            let emb = EmbeddingStore::open_mmap(emb_path).expect("open embeddings TMNS");
            ServeEngine::start_warm(ModelKind::TmnNm, &model_config(), serve_config(), &cf, &emb)
                .expect("warm start")
        }
        (None, Some(w)) => {
            let engine = ServeEngine::start_with_params(
                ModelKind::TmnNm,
                &model_config(),
                serve_config(),
                w.to_vec(),
            )
            .expect("engine start");
            let h = engine.handle();
            let (done, _) = load::saturate(corpus.len(), SENDERS, None, |_, i| {
                h.insert(i as u64, corpus[i].clone()).is_ok()
            });
            assert!(
                done.len() == corpus.len() && done.iter().all(|&(_, ok)| ok),
                "corpus insert failed in set-up"
            );
            engine
        }
        (None, None) => unreachable!("a cold start needs weights"),
    };
    (engine, t0.elapsed().as_secs_f64())
}

/// Requests sent and succeeded, over every phase.
#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
}

impl Tally {
    fn add(&mut self, oks: impl IntoIterator<Item = bool>) {
        for ok in oks {
            self.sent += 1;
            self.ok += ok as u64;
        }
    }
}

pub fn run(spec: &'static Spec, args: &Args, report: &mut Report) {
    let seed = args.seed;
    let query_pool = 1_000;
    let fresh_pool = if spec.warm_start { 0 } else { 3_000 };
    let sizes = [spec.corpus, query_pool, fresh_pool];
    let t_inputs = Instant::now();
    let mut parts = inputs::split(
        inputs::trajectories(
            DatasetKind::PortoLike,
            sizes.iter().sum(),
            sub_seed(seed, 1),
        ),
        &sizes,
    )
    .into_iter();
    let mut part = || parts.next().expect("one part per size");
    let (corpus, queries, fresh) = (part(), part(), part());
    // `start_warm` builds the engine's model from its config alone, so the
    // warm-started workload serves the seed-initialised model and its
    // stored embeddings come from that same model.
    let weights = (!spec.warm_start).then(|| serving_weights(&args.out_dir));
    let model = local_model(weights.as_deref());
    let files = spec
        .warm_start
        .then(|| write_store(&args.out_dir, spec, seed, &corpus, model.as_ref()));
    report
        .diagnostics
        .set("inputs_s", t_inputs.elapsed().as_secs_f64());

    let rss_before_setup = host::reset_peak_rss();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        if let Some(e) = engine.take() {
            ServeEngine::shutdown(e);
        }
        let (e, s) = set_up(weights.as_deref(), &corpus, files.as_ref());
        setups.push(s);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    report
        .diagnostics
        .set("rss_before_setup_mb", rss_before_setup);
    let h = engine.handle();

    let stride = (spec.corpus / ROTATING).max(1);
    let rotating: Vec<u64> = (0..ROTATING).map(|j| (j * stride) as u64).collect();
    let mut world = World {
        spec,
        queries,
        fresh,
        live: corpus
            .into_iter()
            .enumerate()
            .map(|(i, t)| (i as u64, t))
            .collect(),
        next_insert: 0,
        rotating,
        appends: 0,
        rng: StdRng::seed_from_u64(sub_seed(seed, 2)),
        ops_seed: sub_seed(seed, 3),
        phase: 0,
    };
    let mut tally = Tally::default();

    // Warm-up, untimed: with appends, first touch every rotating id once
    // (that replays its stored points into a stream), then the mix.
    if spec.warm_start {
        let touch: Vec<Op> = world
            .rotating
            .iter()
            .map(|id| Op::Append(*id, inputs::next_point(&world.live[id], &mut world.rng)))
            .collect();
        let (queries, fresh) = (&world.queries, &world.fresh);
        let (done, _) = load::saturate(touch.len(), SENDERS, None, |_, i| {
            send(&h, queries, fresh, &touch[i])
        });
        tally.add(done.iter().map(|&(_, ok)| ok));
        for op in &touch {
            world.apply(op);
        }
    }
    let warm = run_phase(&h, &mut world, WARMUP_S, sub_seed(seed, 4));
    tally.add(warm.outcomes.iter().map(|o| o.ok));

    let nominal = run_phase(&h, &mut world, args.seconds, sub_seed(seed, 5));
    tally.add(nominal.outcomes.iter().map(|o| o.ok));

    let mut layers = Obj::default();
    if args.trace {
        traced_phase(
            spec,
            &h,
            &mut world,
            args,
            &nominal,
            &mut tally,
            &mut layers,
        );
    } else {
        let ops = world.ops(40_000 * SAT_S as usize, SAT_SENDERS);
        let (queries, fresh) = (&world.queries, &world.fresh);
        let e0 = host::thread_cpu_ns("tmn-serve-engine").unwrap_or(0);
        let (done, wall) = load::saturate(ops.len(), SAT_SENDERS, Some(SAT_S), |_, i| {
            send(&h, queries, fresh, &ops[i])
        });
        let engine_s = host::thread_cpu_ns("tmn-serve-engine")
            .unwrap_or(0)
            .saturating_sub(e0) as f64
            / 1e9;
        tally.add(done.iter().map(|&(_, ok)| ok));
        for &(i, _) in &done {
            world.apply(&ops[i]);
        }
        let ok = done.iter().filter(|&&(_, ok)| ok).count() as f64;
        report.metric("ops_per_s", ok / wall, "1/s");
        report
            .diagnostics
            .set("saturation_requests", done.len())
            .set("saturation_ops_per_engine_cpu_s", ok / engine_s);
    }

    let (recall, hr10, gt_pairs_per_s) = checks(spec, &h, &world, model.as_ref(), seed, report);
    if args.trace {
        direct_layers(
            spec,
            &engine,
            &world,
            model.as_ref(),
            files.as_ref(),
            &mut layers,
            report,
            &args.out_dir,
            seed,
        );
        layers.set("gt.dtw_pairs_per_s", gt_pairs_per_s);
        crate::emit_layers(&layers, report);
    } else {
        e2e_metrics(&setups, &nominal, &tally, recall, hr10, report);
    }
    report.attempted += tally.sent;
    report.failed += tally.sent - tally.ok;

    let engine_cfg = serve_config();
    let shard = &engine_cfg.shard;
    let mut hnsw = Obj::default();
    hnsw.set("m", shard.hnsw.m)
        .set("ef_construction", shard.hnsw.ef_construction)
        .set("ef_search", shard.hnsw.ef_search)
        .set("shortlist", shard.shortlist);
    let mut fp = Obj::default();
    fp.set("corpus", spec.corpus)
        .set("rate_per_s", spec.rate)
        .set("write_share", spec.write_share)
        .set("slo_ms", SLO_MS)
        .set("dim", DIM)
        .set("shards", SHARDS)
        .set("max_batch", engine_cfg.max_batch)
        .set("senders", SENDERS)
        .set("saturation_senders", SAT_SENDERS)
        .set("saturation_s", SAT_S)
        .set("model", "TMN-NM")
        .set("trained_weights", !spec.warm_start)
        .set("compact_ratio", shard.compact_ratio)
        .set("reembed_min_delta", engine_cfg.reembed_min_delta)
        .set("hnsw", hnsw);
    report.fingerprint.set("workload_config", fp);
    report
        .diagnostics
        .set("setup_samples_s", format!("{setups:?}"));
    engine.shutdown();
}

/// Generator lateness, steal and context switches of one phase.
fn noise(p: &PhaseReadings) -> Obj {
    let late: Vec<f64> = p
        .outcomes
        .iter()
        .map(|o| o.lateness_ns() as f64 / 1e3)
        .collect();
    let mut o = Obj::default();
    o.set("lateness_us_p50", stats::median(&late))
        .set("lateness_us_max", stats::max(&late))
        .set("steal_share", p.steal)
        .set("involuntary_ctx_switches", p.nivcsw)
        .set("requests", p.outcomes.len())
        .set("achieved_rate_per_s", p.outcomes.len() as f64 / p.wall_s);
    o
}

fn latencies_ms(p: &PhaseReadings, writes_only: bool) -> Vec<f64> {
    p.outcomes
        .iter()
        .zip(&p.writes)
        .filter(|&(o, &w)| o.ok && (!writes_only || w))
        .map(|(o, _)| ms(o.latency_ns() as f64))
        .collect()
}

fn e2e_metrics(
    setups: &[f64],
    nominal: &PhaseReadings,
    tally: &Tally,
    recall: f64,
    hr10: f64,
    report: &mut Report,
) {
    let all = latencies_ms(nominal, false);
    let writes = latencies_ms(nominal, true);
    let p95 = percentile(&all, 0.95).expect("the nominal phase holds enough requests for a p95");
    let n = nominal.outcomes.len();
    let in_slo = nominal
        .outcomes
        .iter()
        .filter(|o| o.ok && ms(o.latency_ns() as f64) <= SLO_MS)
        .count();
    let completed = nominal.outcomes.iter().filter(|o| o.ok).count();
    report.metric("setup_s", stats::median(setups), "s");
    report.metric("p50_ms", stats::median(&all), "ms");
    report.metric("p95_ms", p95.value, "ms");
    report.metric("write_p50_ms", stats::median(&writes), "ms");
    report.metric("slo_ratio", in_slo as f64 / n as f64, "ratio");
    report.metric("ok_ratio", tally.ok as f64 / tally.sent as f64, "ratio");
    report.metric(
        "cpu_us_per_op",
        nominal.cpu_s * 1e6 / completed as f64,
        "us",
    );
    report.metric("recall_at_10", recall, "ratio");
    report.metric("hr10", hr10, "ratio");
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    let mut o = Obj::default();
    o.set("latency", all.len())
        .set("p95", p95.samples)
        .set("writes", writes.len());
    report
        .diagnostics
        .set("samples", o)
        .set("noise", noise(nominal));
}

/// The output checks, on the quiesced engine. Returns `(recall_at_10,
/// hr10, DTW pairs per second of the ground truth)`.
fn checks(
    spec: &Spec,
    h: &ServeHandle,
    world: &World,
    model: &dyn PairModel,
    seed: u64,
    report: &mut Report,
) -> (f64, f64, f64) {
    let shards = h.shards();
    let mut query_mismatch = 0u64;
    let embs: Vec<Vec<f32>> = if spec.warm_start {
        // Half of the sampled ids received appends during the run.
        let mut ids: Vec<u64> = inputs::picks(spec.corpus, CHECK_QUERIES / 2, sub_seed(seed, 20))
            .into_iter()
            .map(|i| i as u64)
            .collect();
        let rot = &world.rotating;
        ids.extend(
            inputs::picks(rot.len(), CHECK_QUERIES / 2, sub_seed(seed, 21))
                .into_iter()
                .map(|i| rot[i]),
        );
        for &id in &ids {
            let by_id = h.query_id(id, K).expect("query_id on a live id");
            let by_traj = h
                .query(world.live[&id].clone(), K)
                .expect("query of the stored trajectory");
            query_mismatch += !same_bits(&by_id, &by_traj) as u64;
        }
        ids.iter()
            .map(|&id| shards.get_vec(id).expect("sampled id is live"))
            .collect()
    } else {
        let qs: Vec<Trajectory> =
            inputs::picks(world.queries.len(), CHECK_QUERIES, sub_seed(seed, 20))
                .into_iter()
                .map(|i| world.queries[i].clone())
                .collect();
        let embs = encode_all(model, &qs, 1);
        for (q, e) in qs.iter().zip(&embs) {
            let served = h.query(q.clone(), K).expect("ad-hoc query");
            let local = shards.query(e, K).expect("direct shard query");
            query_mismatch += !same_bits(&served, &local) as u64;
        }
        embs
    };
    let what = if spec.warm_start {
        "query_id(id) vs query(stored trajectory)"
    } else {
        "served query vs local embed + ShardSet::query"
    };
    report.check("query_equality", embs.len() as u64, query_mismatch, what);

    // HNSW is approximate, so single queries may miss; the check is on
    // the mean, plus every answer holding K live ids.
    let mut recalls = Vec::with_capacity(embs.len());
    let mut short = 0u64;
    for e in &embs {
        let approx: Vec<u64> = shards
            .query(e, K)
            .expect("approximate query")
            .iter()
            .map(|r| r.0)
            .collect();
        let exact: Vec<u64> = shards
            .query_exact(e, K)
            .expect("exact query")
            .iter()
            .map(|r| r.0)
            .collect();
        short += (approx.len() != K || !approx.iter().all(|&id| shards.contains(id))) as u64;
        recalls.push(overlap(&approx, &exact) as f64 / K as f64);
    }
    let recall = recalls.iter().sum::<f64>() / recalls.len() as f64;
    let failed = if recall < RECALL_FLOOR {
        embs.len() as u64
    } else {
        short
    };
    report.check(
        "recall_vs_query_exact",
        embs.len() as u64,
        failed,
        format!(
            "mean recall@10 {recall:.4} (floor {RECALL_FLOOR}); lowest single query {:.1}; {short} answers short of {K} live ids",
            recalls.iter().copied().fold(1.0, f64::min)
        ),
    );

    // Streaming: appending a trajectory point by point must give exactly
    // the embedding of the whole trajectory.
    let stream_trajs: Vec<&Trajectory> =
        inputs::picks(world.queries.len(), STREAM_CHECKS, sub_seed(seed, 22))
            .into_iter()
            .map(|i| &world.queries[i])
            .collect();
    let mut stream_mismatch = 0u64;
    for t in &stream_trajs {
        let mut s = model.stream_begin().expect("TMN-NM streams");
        let mut last = Vec::new();
        for &p in t.points() {
            last = model.embed_incremental(&mut s, p);
        }
        let whole = encode_all(model, std::slice::from_ref(*t), 1).remove(0);
        stream_mismatch += (last
            .iter()
            .map(|x| x.to_bits())
            .ne(whole.iter().map(|x| x.to_bits()))) as u64;
    }
    report.check(
        "stream_bitwise",
        stream_trajs.len() as u64,
        stream_mismatch,
        "embed_incremental vs embed_nograd of the whole trajectory",
    );

    // hr10: the served model's HR@10 against exact DTW, the paper's
    // quality measure, over a fixed held-out set: the model is fixed too,
    // so the figure moves only when the embedding path computes something
    // else.
    let eval = inputs::trajectories(DatasetKind::PortoLike, EVAL_DB, sub_seed(MODEL_SEED, 9));
    let db = &eval[..];
    let t0 = Instant::now();
    let truth = {
        let r = trace::request_begin("bench.gt_dtw_matrix");
        let _a = trace::attach(r.ctx());
        DistanceMatrix::compute(db, Metric::Dtw, &MetricParams::default(), 2)
    };
    let dtw_s = t0.elapsed().as_secs_f64();
    let queries: Vec<usize> = (0..EVAL_DB).collect();
    let pred = tmn_eval::predicted_distance_rows(model, db, &queries, 64);
    let truth_rows: Vec<Vec<f64>> = queries.iter().map(|&q| truth.row(q).to_vec()).collect();
    let hr10 = tmn_eval::evaluate(&pred, &truth_rows, &queries).hr10;
    let pairs = (EVAL_DB * (EVAL_DB - 1) / 2) as f64;
    report
        .diagnostics
        .set("hr10_queries", EVAL_DB)
        .set("recall_queries", embs.len());
    (recall, hr10, pairs / dtw_s)
}

/// A traced repeat of the nominal phase, capturing every request, and the
/// per-layer figures read from its spans and the `tmn-obs` registry.
fn traced_phase(
    spec: &Spec,
    h: &ServeHandle,
    world: &mut World,
    args: &Args,
    untraced: &PhaseReadings,
    tally: &mut Tally,
    layers: &mut Obj,
) {
    let completed = untraced.outcomes.iter().filter(|o| o.ok).count().max(1) as f64;
    layers.set(
        "engine.busy_us_per_op",
        untraced.engine_cpu_ns as f64 / 1e3 / completed,
    );
    layers.set("alloc.per_op", untraced.allocs as f64 / completed);

    trace::configure(trace::TraceConfig {
        span_ring: 1 << 16,
        flight: (spec.rate * args.seconds * 1.5) as usize + 20_000,
        slow_threshold_ns: 0,
        sample_every: 1,
    });
    trace::reset();
    metrics::reset();
    trace::set_enabled(true);
    let traced = run_phase(h, world, args.seconds, sub_seed(args.seed, 6));
    trace::set_enabled(false);
    tally.add(traced.outcomes.iter().map(|o| o.ok));
    let traces = trace::recent();
    let snap = metrics::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;

    let queue_wait = snap
        .histogram(tmn_serve::SERVE_QUEUE_WAIT_NS)
        .map(|h| h.p50_ns as f64 / 1e3)
        .unwrap_or(0.0);
    layers.set("engine.queue_wait_us_p50", queue_wait);
    let mut batches: HashMap<u64, u64> = HashMap::new();
    for t in &traces {
        for s in t.spans_named("serve.queue_wait") {
            if let (Some(b), Some(n)) = (spans::attr(s, "batch_id"), spans::attr(s, "batch_size")) {
                batches.insert(b, n);
            }
        }
    }
    let batch_mean = batches.values().sum::<u64>() as f64 / batches.len().max(1) as f64;
    layers.set("engine.batch_size_mean", batch_mean);

    let selfs = spans::self_times(&traces);
    let p50_us = |name: &str| {
        selfs
            .get(name)
            .map(|v| stats::median(v) / 1e3)
            .unwrap_or(0.0)
    };
    layers.set("embed.self_us_p50", p50_us("serve.embed"));
    let searches = traces
        .iter()
        .filter(|t| t.span_named("serve.search").is_some())
        .count()
        .max(1) as f64;
    for (metric, span) in [
        ("shard.knn_self_us", "shard.knn"),
        ("shard.rerank_self_us", "shard.rerank"),
        ("shard.merge_self_us", "serve.merge"),
    ] {
        let total: f64 = spans::per_trace_self(&traces, span).iter().sum();
        layers.set(metric, total / 1e3 / searches);
    }
    let appends = counter(tmn_serve::STREAM_APPENDS_TOTAL);
    layers.set(
        "stream.reindex_ratio",
        if appends > 0.0 {
            counter(tmn_serve::STREAM_REINDEX_TOTAL) / appends
        } else {
            0.0
        },
    );
    let by_id = traces.iter().filter(|t| t.name == "serve.query_id").count() as f64;
    layers.set(
        "cache.hit_ratio",
        if by_id > 0.0 {
            counter(tmn_serve::SERVE_CACHE_HITS_TOTAL) / by_id
        } else {
            0.0
        },
    );
    layers.set(
        "shard.compactions",
        counter(tmn_serve::SERVE_COMPACTIONS_TOTAL),
    );
    let status = h.shards().status();
    layers.set(
        "shard.tombstone_ratio",
        status.tombstones as f64 / (status.live + status.tombstones).max(1) as f64,
    );

    let p50_off = stats::median(&latencies_ms(untraced, false));
    let p50_on = stats::median(&latencies_ms(&traced, false));
    layers.set("trace.overhead_pct", (p50_on / p50_off - 1.0) * 100.0);
    // Coverage: generator lateness plus the self time of every span the
    // engine recorded, over the latency clients saw.
    let late: f64 = traced.outcomes.iter().map(|o| o.lateness_ns() as f64).sum();
    let span_self: f64 = selfs.values().flatten().sum();
    let latency: f64 = traced.outcomes.iter().map(|o| o.latency_ns() as f64).sum();
    layers.set("coverage", (late + span_self) / latency);
}

/// Direct calls into each layer's public functions, each under a
/// benchmark span, then the Chrome trace export.
#[allow(clippy::too_many_arguments)]
fn direct_layers(
    spec: &Spec,
    engine: &ServeEngine,
    world: &World,
    model: &dyn PairModel,
    files: Option<&(PathBuf, PathBuf)>,
    layers: &mut Obj,
    report: &mut Report,
    out: &Path,
    seed: u64,
) {
    trace::set_enabled(true);
    let timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let r = trace::request_begin(name);
        let _a = trace::attach(r.ctx());
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as f64
    };

    // embed: the fused forward over admission-sized batches.
    let batch = 8usize;
    let qs = &world.queries[..batch * 25];
    let mut ns = 0.0;
    for chunk in qs.chunks(batch) {
        ns += timed("bench.encode_all", &mut || {
            std::hint::black_box(encode_all(model, chunk, chunk.len()));
        });
    }
    layers.set("embed.us_per_traj", ns / 1e3 / qs.len() as f64);

    // shard: direct queries, then re-inserts of stored vectors.
    let shards = engine.shards();
    let ids: Vec<u64> = {
        let mut ids: Vec<u64> = world.live.keys().copied().collect();
        ids.sort_unstable();
        inputs::picks(ids.len(), 2_000, sub_seed(seed, 30))
            .into_iter()
            .map(|i| ids[i])
            .collect()
    };
    let vecs: Vec<Vec<f32>> = ids
        .iter()
        .map(|&id| shards.get_vec(id).expect("live id"))
        .collect();
    let q_ns: Vec<f64> = vecs
        .iter()
        .map(|v| {
            timed("bench.shard_query", &mut || {
                std::hint::black_box(shards.query(v, K).expect("shard query"));
            })
        })
        .collect();
    layers.set("shard.query_us_p50", stats::median(&q_ns) / 1e3);
    let ins_ns: Vec<f64> = ids
        .iter()
        .zip(&vecs)
        .take(500)
        .map(|(&id, v)| {
            timed("bench.shard_insert", &mut || {
                shards.insert(id, v).expect("shard re-insert")
            })
        })
        .collect();
    layers.set("shard.insert_us_p50", stats::median(&ins_ns) / 1e3);

    // stream: one incremental step per appended point.
    let mut steps = 0usize;
    let mut step_ns = 0.0;
    for t in &world.queries[..20] {
        let mut s = model.stream_begin().expect("TMN-NM streams");
        step_ns += timed("bench.embed_incremental", &mut || {
            for &p in t.points() {
                std::hint::black_box(model.embed_incremental(&mut s, p));
            }
        });
        steps += t.len();
    }
    layers.set("stream.step_us", step_ns / 1e3 / steps as f64);

    // store: mmap opens and the warm load into a fresh shard set.
    if let Some((corpus_path, emb_path)) = files {
        let mut opens = Vec::new();
        let mut emb = None;
        for _ in 0..5 {
            opens.push(timed("bench.store_open", &mut || {
                std::hint::black_box(CorpusFile::open(corpus_path).expect("open corpus"));
                emb = Some(EmbeddingStore::open_mmap(emb_path).expect("open embeddings"));
            }));
        }
        layers.set("store.open_ms", stats::median(&opens) / 1e6);
        let emb = emb.expect("opened above");
        let set = ShardSet::new(DIM, shard_config());
        let warm = timed("bench.warm_load", &mut || {
            set.warm_load(&emb).expect("warm load")
        });
        layers.set("store.warm_load_ms", warm / 1e6);
        let compact = timed("bench.compact_shard", &mut || {
            set.compact_shard(0).expect("compact shard 0")
        });
        layers.set("shard.compact_ms", compact / 1e6);
    }
    trace::set_enabled(false);

    let traces = trace::recent();
    let path = out.join(format!("trace-{}-seed{seed}.json", spec.name));
    crate::write_atomic(&path, tmn_obs::trace::to_chrome_trace(&traces).as_bytes());
    report
        .diagnostics
        .set("chrome_trace", path.display().to_string())
        .set("captured_traces", traces.len());
}
