//! `paper-trace`: the charge-only trace pipeline (`drim_ann::trace`) at the
//! scale of the paper's headline figures — the SIFT100M descriptor,
//! nlist 2^14, nprobe 96, 2,543 DPUs, 2,000-query batches.

use crate::common::*;
use crate::oracle;
use crate::tracing::Tracer;
use crate::{Args, Outcome};
use ann_core::Neighbor;
use bench::experiments::{comparison_shape, faiss_cpu_qps, faiss_gpu_qps, paper_index};
use drim_ann::perf_model::{predict, BitWidths};
use drim_ann::trace::{TraceRunner, TraceSpec};
use drim_ann::{BatchReport, DrimEngine, EngineConfig, IndexConfig};
use std::hint::black_box;
use std::time::Instant;
use upmem_sim::PimArch;

const BATCH: usize = 2000;
const NDPUS_PAPER: usize = 2543;
const NLIST: usize = 1 << 14;
const NPROBE: usize = 96;
/// Trace builds per run (one takes about 0.07 s, too short to time once).
const TRACE_BUILDS: usize = 15;
/// Batches per requested second (one batch takes about 0.12 s).
const BATCHES_PER_SECOND: u64 = 8;
/// Batches timed alone for the `trace.sample_ms_per_batch` figure.
const LAYER_BATCHES: usize = 8;
/// Paper Fig. 11b: the engine reaches 71.8-99.9 % of the model's ideal.
const FIG11B_BAND: (f64, f64) = (0.718, 0.999);

/// Functional sample behind `recall_at_10`: trace mode returns no
/// neighbors, so recall is measured on a SIFT-shaped 128-d sample indexed
/// with the paper's m, cb and k.
const SAMPLE_POINTS: usize = 10_000;
const SAMPLE_QUERIES: usize = 4096;
const SAMPLE_DPUS: usize = 32;
const SAMPLE_RECALL_FLOOR: f64 = 0.2;

fn batch_seed(seed: u64, i: usize) -> u64 {
    mix(seed, 1000 + i as u64)
}

pub fn run(a: &Args, tr: &mut Tracer) -> Outcome {
    rayon::with_num_threads(a.nproc, || run_in_pool(a, tr))
}

fn run_in_pool(a: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let desc = datasets::catalog::sift100m();
    let index = paper_index(NLIST, NPROBE);
    let cfg = EngineConfig::drim(index);
    // The trace layout keeps the descriptor's own seed; the run seed draws
    // the batches.
    let spec = TraceSpec::for_dataset(&desc, BATCH);

    let mut build_s = Vec::with_capacity(TRACE_BUILDS);
    let mut runner = None;
    for b in 0..TRACE_BUILDS {
        let t0 = Instant::now();
        let s = tr.open("trace.build", None, b as u64);
        let r = TraceRunner::build(
            spec.clone(),
            cfg.clone(),
            PimArch::upmem_sc25(),
            NDPUS_PAPER,
        );
        tr.close(s);
        build_s.push(t0.elapsed().as_secs_f64());
        runner.get_or_insert(r);
    }
    let mut runner = runner.expect("at least one trace build");
    black_box(runner.run_batch(mix(a.seed, 900)));

    let nbatches = (a.seconds * BATCHES_PER_SECOND) as usize;
    let mut quiet = Tracer::new(false);
    let (wall_s, mut latency_ms, reports) = window(&mut runner, a.seed, nbatches, &mut quiet);
    let queries_run = (nbatches * BATCH) as u64;
    let qps = queries_run as f64 / wall_s;
    let sim_s: f64 = reports.iter().map(|r| r.timing.total_s()).sum();
    let sim_j: f64 = reports.iter().map(|r| r.energy_j).sum();
    let sim_qps = queries_run as f64 / sim_s;

    // --- checks ---
    let host = upmem_sim::platform::procs::xeon_silver_4216();
    let shape = comparison_shape(&desc, &index, BATCH, BitWidths::u8_regime());
    let ideal = predict(&shape, &PimArch::upmem_sc25(), &host, true).qps;
    let ratio = sim_qps / ideal;
    out.check((FIG11B_BAND.0..=FIG11B_BAND.1).contains(&ratio), || {
        format!("sim_qps / model = {ratio:.4}, outside the Fig. 11b band {FIG11B_BAND:?}")
    });
    for (i, r) in reports.iter().enumerate() {
        let frac: f64 = r.phase_fraction.iter().sum();
        out.check((frac - 1.0).abs() < 1e-9, || {
            format!("batch {i}: phase fractions sum to {frac}")
        });
        out.check(r.imbalance >= 1.0, || {
            format!("batch {i}: imbalance {}", r.imbalance)
        });
        let e = &r.energy;
        let parts = [
            e.dpu_pipeline_j,
            e.dpu_mram_j,
            e.dpu_wram_j,
            e.transfer_j,
            e.host_busy_j,
            e.static_j,
        ];
        let sum: f64 = parts.iter().sum();
        out.check(
            parts.iter().all(|&p| p >= 0.0) && (sum - r.energy_j).abs() <= 1e-12 * r.energy_j,
            || format!("batch {i}: energy parts sum to {sum}, total {}", r.energy_j),
        );
    }
    let recall = sample_recall(a, &mut out);
    println!(
        "reference: sim_qps {sim_qps:.1} = {ratio:.4} of the model's {ideal:.1}; \
         modelled Faiss-CPU {:.1} qps, Faiss-GPU {} qps (same shape)",
        faiss_cpu_qps(&desc, &index, BATCH),
        faiss_gpu_qps(&desc, &index, BATCH).map_or("OOM".into(), |q| format!("{q:.1}")),
    );

    // --- accounting ---
    let mut scheduled = 0u64;
    for i in 0..nbatches {
        let probes = runner.sample_probes(batch_seed(a.seed, i));
        scheduled += drim_ann::sched::expand_tasks(&probes, &runner.layout, |_| 0.0).len() as u64;
    }
    out.attempted = queries_run;
    out.accounting.queries_submitted = queries_run;
    out.accounting.queries_answered = queries_run;
    out.accounting.dpu_tasks_scheduled = Some(scheduled);
    out.accounting.dpu_tasks_dropped =
        Some(reports.iter().map(|r| r.fault.dropped_tasks as u64).sum());

    if !a.trace {
        let m = &mut out.metrics;
        m.set("setup_s", median(&build_s));
        m.set("qps", qps);
        m.set("p50_ms", percentile(&mut latency_ms, 0.50));
        m.set("p99_ms", percentile(&mut latency_ms, 0.99));
        m.set("sim_qps", sim_qps);
        m.set("sim_qpj", queries_run as f64 / sim_j);
        m.set("recall_at_10", recall);
        m.set("rss_mb", peak_rss_mb());
        return out;
    }

    let (traced_wall, _, _) = window(&mut runner, a.seed, nbatches, tr);
    for i in 0..LAYER_BATCHES {
        let s = tr.open("trace.sample_probes", None, i as u64);
        black_box(runner.sample_probes(batch_seed(a.seed, i)));
        tr.close(s);
    }
    let m = &mut out.metrics;
    m.set("trace.build_s", tr.mean_s("trace.build"));
    m.set(
        "trace.sample_ms_per_batch",
        tr.mean_s("trace.sample_probes") * 1e3,
    );
    m.set("trace.run_ms_per_batch", tr.mean_s("trace.run_batch") * 1e3);
    sim_layer(tr, "trace.run_batch", m);
    m.set("trace.qps_ratio", wall_s / traced_wall);
    out
}

/// `run_batch` over the run's batch seeds: wall seconds, per-call latency
/// and the reports.
fn window(
    runner: &mut TraceRunner,
    seed: u64,
    nbatches: usize,
    tr: &mut Tracer,
) -> (f64, Vec<f64>, Vec<BatchReport>) {
    let mut latency_ms = Vec::with_capacity(nbatches);
    let mut reports = Vec::with_capacity(nbatches);
    let t0 = Instant::now();
    for i in 0..nbatches {
        let s = tr.open("trace.run_batch", None, i as u64);
        let t = Instant::now();
        let rep = runner.run_batch(batch_seed(seed, i));
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.close(s);
        record_report(tr, s, &rep);
        reports.push(rep);
    }
    (t0.elapsed().as_secs_f64(), latency_ms, reports)
}

/// Recall@10 of the functional engine on the SIFT-shaped sample, checked
/// against the benchmark's brute force.
fn sample_recall(a: &Args, out: &mut Outcome) -> f64 {
    let spec = datasets::catalog::sift100m().scaled(SAMPLE_POINTS, CORPUS_SEED);
    let data = datasets::generate(&spec);
    let qs = queries(&spec, SAMPLE_QUERIES, a.seed, 10);
    let index = IndexConfig {
        k: K,
        nprobe: 8,
        nlist: 64,
        m: 16,
        cb: 256,
    };
    let mut engine = DrimEngine::build(
        &data,
        EngineConfig::drim(index),
        PimArch::upmem_sc25(),
        SAMPLE_DPUS,
        None,
    )
    .expect("the sample's engine configuration is valid");
    let (res, _) = engine.search_batch(&qs);
    let ids: Vec<u64> = (0..SAMPLE_POINTS as u64).collect();
    let truth = oracle::brute_force(&data, &ids, &qs, K, a.nproc);
    for (i, list) in res.iter().enumerate() {
        if let Err(e) = oracle::check_list(list, K, |id| id < SAMPLE_POINTS as u64) {
            out.failures.push(format!("sample query {i}: {e}"));
            break;
        }
    }
    let lists: Vec<&[Neighbor]> = res.iter().map(Vec::as_slice).collect();
    let recall = oracle::recall(&lists, &truth, K);
    out.check(recall >= SAMPLE_RECALL_FLOOR, || {
        format!("sample recall@10 {recall:.4} below {SAMPLE_RECALL_FLOOR}")
    });
    recall
}
