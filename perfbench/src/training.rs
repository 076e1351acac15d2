//! The `train` workload: the paper's full TMN (pair-dependent matching)
//! trained under DTW with `RankSampler`, batches of 64 pairs, two
//! data-parallel workers, a fixed number of gradient steps after untimed
//! warm-up steps. Set-up is the DTW ground truth plus `Trainer::new`.
//! The seed drives the sample stream; data and initial weights are fixed.

use crate::host;
use crate::inputs;
use crate::report::{Obj, Report};
use crate::stats::{self, percentile};
use crate::Args;
use serde_json::Value;
use std::time::Instant;
use tmn_core::{ModelConfig, ModelKind, PairModel, TrainConfig, Trainer};
use tmn_data::{DatasetKind, RankSampler};
use tmn_obs::telemetry::{SharedBuffer, TelemetrySink};
use tmn_obs::{memory, metrics, profiler};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::DistanceMatrix;

pub const DIM: usize = 32;
pub const THREADS: usize = 2;
pub const BATCH_PAIRS: usize = 64;
/// Training trajectories. The data and the initial weights are fixed;
/// the run's seed drives the trainer's shuffles and `RankSampler` draws.
/// With the data drawn from the seed too, HR@10 after 200 steps spread
/// 0.2-0.3 (IQR / median) across seeds; with it fixed, about 0.1.
const TRAIN_TRAJ: usize = 300;
const SETUP_REPS: usize = 5;
const WARMUP_STEPS: u64 = 10;
/// Timed steps per second of `--seconds`; fixes the step count from the
/// arguments alone, so `hr10` repeats exactly for a seed. At 10 seconds
/// that is 200 steps, the fewest that support a p95.
pub const STEPS_PER_SECOND: f64 = 20.0;
/// Held-out database and queries for HR@10: one fixed set for every seed,
/// so the figure moves with the trained model, not with the test draw.
const EVAL_DB: usize = 200;
const EVAL_QUERIES: usize = 100;
const EVAL_SEED: u64 = 0xE7A1_5EED;
/// Seed of the training data and of the initial weights.
const DATA_SEED: u64 = 0x7EA1_5EED;
/// Step-time limit for `slo_ratio`, milliseconds.
pub const SLO_MS: f64 = 500.0;
/// Weight hand-offs timed for `write_p50_ms` at each of three points of
/// the run (after warm-up, mid-way, at the end), so that one slow stretch
/// of the host does not decide the median.
const HANDOFFS_PER_POINT: usize = 20;

fn config(seed: u64) -> (ModelConfig, TrainConfig) {
    let mcfg = ModelConfig {
        dim: DIM,
        seed: DATA_SEED,
    };
    let tcfg = TrainConfig {
        epochs: 1,
        batch_pairs: BATCH_PAIRS,
        threads: THREADS,
        seed,
        ..TrainConfig::default()
    };
    (mcfg, tcfg)
}

/// Per-step `(wall_ms, loss)` of every applied step, from the telemetry
/// stream.
fn steps(buf: &SharedBuffer) -> Vec<(f64, f64)> {
    buf.lines()
        .iter()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter(|v| v.get_field("record") == Some(&Value::Str("batch".into())))
        .map(|v| {
            let num = |k: &str| match v.get_field(k) {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                _ => f64::NAN,
            };
            (num("wall_ms"), num("loss"))
        })
        .collect()
}

/// Run epochs until the trainer has applied `limit` steps in total.
fn train_to<'a>(mut trainer: Trainer<'a>, limit: u64, epoch: &mut usize) -> Trainer<'a> {
    trainer = trainer.with_step_limit(limit);
    let mut idle = 0;
    while trainer.steps() < limit {
        let before = trainer.steps();
        trainer.train_epoch(*epoch);
        *epoch += 1;
        idle = if trainer.steps() == before {
            idle + 1
        } else {
            0
        };
        assert!(idle < 3, "training applies no steps");
    }
    trainer
}

fn batches_total() -> u64 {
    metrics::snapshot()
        .counter(tmn_core::TRAIN_BATCHES_TOTAL)
        .unwrap_or(0)
}

pub fn run(args: &Args, report: &mut Report) {
    let seed = args.seed;
    let train = &inputs::trajectories(DatasetKind::GeolifeLike, TRAIN_TRAJ, DATA_SEED)[..];
    let db = &inputs::trajectories(DatasetKind::GeolifeLike, EVAL_DB, EVAL_SEED)[..];
    let (mcfg, tcfg) = config(seed);
    let timed_steps = (args.seconds * STEPS_PER_SECOND).round().max(1.0) as u64;

    // Set-up, SETUP_REPS times; the last one is kept.
    let rss_before_setup = host::reset_peak_rss();
    let mut setups = Vec::new();
    let mut gt_s = Vec::new();
    let set_up = |gt_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let dmat = DistanceMatrix::compute(train, Metric::Dtw, &MetricParams::default(), THREADS);
        gt_s.push(t0.elapsed().as_secs_f64());
        let model = ModelKind::Tmn.build(&mcfg);
        (t0, dmat, model)
    };
    for _ in 1..SETUP_REPS {
        let (t0, dmat, model) = set_up(&mut gt_s);
        let trainer = Trainer::new(
            model.as_ref(),
            train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            tcfg.clone(),
            None,
        )
        .with_replicas(ModelKind::Tmn, mcfg);
        std::hint::black_box(&trainer);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (t0, dmat, model) = set_up(&mut gt_s);
    let (sink, buf) = TelemetrySink::memory();
    let trainer = Trainer::new(
        model.as_ref(),
        train,
        &dmat,
        Metric::Dtw,
        MetricParams::default(),
        Box::new(RankSampler),
        tcfg.clone(),
        None,
    )
    .with_replicas(ModelKind::Tmn, mcfg)
    .with_telemetry(sink);
    setups.push(t0.elapsed().as_secs_f64());
    let pairs = (train.len() * (train.len() - 1) / 2) as f64;

    let mut epoch = 0usize;
    let b0 = batches_total();
    let mut trainer = train_to(trainer, WARMUP_STEPS, &mut epoch);
    let handoff_target = ModelKind::Tmn.build(&mcfg);
    let mut handoffs = weight_handoffs(model.as_ref(), handoff_target.as_ref());

    // Timed steps, in two halves so that the step sequence is the same
    // whether or not a traced run profiles the second half.
    let half = timed_steps / 2;
    let (u0, ticks0, a0) = (host::usage(), host::cpu_ticks(), memory::alloc_count());
    let start = Instant::now();
    trainer = train_to(trainer, WARMUP_STEPS + half, &mut epoch);
    let a_half = memory::alloc_count();
    let half_wall = start.elapsed().as_secs_f64();
    // The mid-way hand-offs are left out of the step timings.
    let (handoff_cpu0, handoff_t0) = (host::usage().cpu_s, Instant::now());
    handoffs.extend(weight_handoffs(model.as_ref(), handoff_target.as_ref()));
    let (handoff_cpu, handoff_wall) = (
        host::usage().cpu_s - handoff_cpu0,
        handoff_t0.elapsed().as_secs_f64(),
    );
    if args.trace {
        profiler::reset();
        profiler::set_enabled(true);
    }
    trainer = train_to(trainer, WARMUP_STEPS + timed_steps, &mut epoch);
    profiler::set_enabled(false);
    let wall = start.elapsed().as_secs_f64() - handoff_wall;
    let (u1, ticks1) = (host::usage(), host::cpu_ticks());
    let cpu_s = u1.cpu_s - u0.cpu_s - handoff_cpu;
    let mut layers = Obj::default();
    let attempted = batches_total() - b0;
    drop(trainer);

    let recs = steps(&buf);
    let applied = recs.len() as u64;
    let finite = recs.iter().filter(|r| r.1.is_finite()).count() as u64;
    let w = WARMUP_STEPS as usize;
    let timed: Vec<f64> = recs[w..w + timed_steps as usize]
        .iter()
        .map(|r| r.0)
        .collect();
    report.check(
        "train_loss_finite",
        attempted,
        attempted - finite.min(applied),
        format!("{applied} of {attempted} steps applied with a finite loss"),
    );

    // HR@10 of the trained model on held-out queries against exact DTW.
    let queries: Vec<usize> = (0..EVAL_QUERIES).collect();
    let pred = tmn_eval::predicted_distance_rows(model.as_ref(), db, &queries, 64);
    let truth_m = DistanceMatrix::compute(db, Metric::Dtw, &MetricParams::default(), THREADS);
    let truth: Vec<Vec<f64>> = queries.iter().map(|&q| truth_m.row(q).to_vec()).collect();
    let eval = tmn_eval::evaluate(&pred, &truth, &queries);
    hr10_repeats(args, timed_steps, eval.hr10, report);

    if args.trace {
        let rows = profiler::snapshot();
        let n = (timed_steps - half) as f64;
        let sum = |pred: &dyn Fn(&profiler::OpRecord) -> bool,
                   f: &dyn Fn(&profiler::OpRecord) -> u64| {
            rows.iter().filter(|r| pred(r)).map(f).sum::<u64>() as f64
        };
        let fwd = sum(&|r| r.kind == "forward", &|r| r.total_ns);
        let bwd = sum(&|r| r.kind == "backward", &|r| r.total_ns);
        let optim = sum(&|r| r.name.starts_with("optim."), &|r| r.total_ns);
        let flops = sum(&|r| r.kind != "phase", &|r| r.flops);
        layers.set("train.forward_ms", fwd / n / 1e6);
        layers.set("train.backward_ms", bwd / n / 1e6);
        layers.set("train.optim_ms", optim / n / 1e6);
        layers.set("train.gflop_per_step", flops / n / 1e9);
        layers.set("gt.dtw_pairs_per_s", pairs / stats::median(&gt_s));
        layers.set("alloc.per_op", (a_half - a0) as f64 / half as f64);
        let (plain, profiled) = timed.split_at(half as usize);
        layers.set(
            "trace.overhead_pct",
            (stats::median(profiled) / stats::median(plain) - 1.0) * 100.0,
        );
        // Forward and backward run on THREADS workers at once; every other
        // scope runs on the trainer thread.
        let covered = profiler::total_ns() as f64 - (fwd + bwd) * (1.0 - 1.0 / THREADS as f64);
        layers.set("coverage", covered / 1e9 / (wall - half_wall));
        crate::emit_layers(&layers, report);
    } else {
        let p95 = percentile(&timed, 0.95).expect("enough timed steps for p95");
        handoffs.extend(weight_handoffs(model.as_ref(), handoff_target.as_ref()));
        report.metric("setup_s", stats::median(&setups), "s");
        report.metric("p50_ms", stats::median(&timed), "ms");
        report.metric("p95_ms", p95.value, "ms");
        report.metric("write_p50_ms", stats::median(&handoffs), "ms");
        report.metric("ops_per_s", timed_steps as f64 / wall, "1/s");
        report.metric(
            "slo_ratio",
            timed.iter().filter(|&&ms| ms <= SLO_MS).count() as f64 / timed.len() as f64,
            "ratio",
        );
        report.metric("ok_ratio", applied as f64 / attempted as f64, "ratio");
        report.metric("cpu_us_per_op", cpu_s * 1e6 / timed_steps as f64, "us");
        report.metric("recall_at_10", eval.r10_50, "ratio");
        report.metric("hr10", eval.hr10, "ratio");
        report.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
        let mut samples = Obj::default();
        samples
            .set("steps", timed.len())
            .set("p95", p95.samples)
            .set("weight_handoffs", handoffs.len());
        let mut noise = Obj::default();
        noise
            .set("steal_share", host::steal_share(ticks0, ticks1))
            .set("involuntary_ctx_switches", u1.nivcsw - u0.nivcsw);
        report
            .diagnostics
            .set("samples", samples)
            .set("noise", noise)
            .set("rss_before_setup_mb", rss_before_setup);
    }

    let mut fp = Obj::default();
    fp.set("model", "TMN")
        .set("dim", DIM)
        .set("train_threads", THREADS)
        .set("batch_pairs", BATCH_PAIRS)
        .set("train_trajectories", train.len())
        .set("data_seed", DATA_SEED)
        .set("warmup_steps", WARMUP_STEPS)
        .set("timed_steps", timed_steps)
        .set("metric", "DTW")
        .set("sampler", "RankSampler")
        .set("eval_db", EVAL_DB)
        .set("eval_queries", EVAL_QUERIES)
        .set("slo_ms", SLO_MS);
    report.fingerprint.set("workload_config", fp);
    report
        .diagnostics
        .set("setup_samples_s", format!("{setups:?}"));
}

/// The trainer's write: hand the trained weights to a fresh model, as a
/// serving engine receives them (checksummed encode, then validated load),
/// milliseconds each.
fn weight_handoffs(model: &dyn PairModel, target: &dyn PairModel) -> Vec<f64> {
    (0..HANDOFFS_PER_POINT)
        .map(|_| {
            let t0 = Instant::now();
            let bytes = tmn_core::save_params(model.params());
            tmn_core::load_params(target.params(), &bytes).expect("trained weights load");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The same seed and step count must give the same HR@10, bit for bit:
/// the first run records it, every later run compares.
fn hr10_repeats(args: &Args, steps: u64, hr10: f64, report: &mut Report) {
    let path = args.out_dir.join(format!(
        "hr10-train-seed{}-steps{steps}-db{EVAL_DB}-q{EVAL_QUERIES}.txt",
        args.seed
    ));
    let bits = format!("{:016x}", hr10.to_bits());
    let failed = match std::fs::read_to_string(&path) {
        Ok(prev) => (prev.trim() != bits) as u64,
        Err(_) => {
            crate::write_atomic(&path, bits.as_bytes());
            0
        }
    };
    report.check(
        "hr10_repeats",
        1,
        failed,
        format!("HR@10 {hr10} (bits {bits}) vs {}", path.display()),
    );
}
