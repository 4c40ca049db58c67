//! `offline-batch`: a closed loop of back-to-back `search_batch` calls on
//! 256-query batches of distinct in-distribution queries. No faults, no
//! serving layer.

use crate::common::*;
use crate::oracle;
use crate::tracing::Tracer;
use crate::{Args, Outcome};
use ann_core::{Neighbor, VecSet};
use drim_ann::{BatchReport, DrimEngine};
use std::hint::black_box;
use std::time::Instant;

pub const BATCH: usize = 256;
/// Distinct batches in one round; a run repeats whole rounds.
pub const ROUND_BATCHES: usize = 8;
/// Rounds per requested second (one round takes about a second on the
/// reference machine).
const ROUNDS_PER_SECOND: u64 = 1;
/// Unmeasured batches before the window (pool spawn, first touch).
const WARMUP_BATCHES: usize = 2;
/// Lowest recall@10 the configuration may return (measured about 0.82).
pub const RECALL_FLOOR: f64 = 0.7;

struct Window {
    wall_s: f64,
    latency_ms: Vec<f64>,
    /// Results and reports of the first round.
    first: Vec<(Vec<Vec<Neighbor>>, BatchReport)>,
    /// Later batches whose results differ from the first round's.
    mismatches: usize,
}

/// Run `rounds` rounds over `batches`; each call gets a `batch` span
/// holding an `engine.search_batch` span (no-ops when `tr` is off).
fn window(
    engine: &mut DrimEngine,
    batches: &[VecSet<f32>],
    rounds: usize,
    tr: &mut Tracer,
) -> Window {
    let mut w = Window {
        wall_s: 0.0,
        latency_ms: Vec::with_capacity(rounds * batches.len()),
        first: Vec::with_capacity(batches.len()),
        mismatches: 0,
    };
    let t0 = Instant::now();
    for r in 0..rounds {
        for (b, q) in batches.iter().enumerate() {
            let key = (r * batches.len() + b) as u64;
            let root = tr.open("batch", None, key);
            let s = tr.open("engine.search_batch", root, key);
            let t = Instant::now();
            let (res, rep) = engine.search_batch(q);
            w.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.close(s);
            tr.close(root);
            record_report(tr, s, &rep);
            if r == 0 {
                w.first.push((res, rep));
            } else if !res
                .iter()
                .zip(&w.first[b].0)
                .all(|(x, y)| oracle::same_bits(x, y))
            {
                w.mismatches += 1;
            }
        }
    }
    w.wall_s = t0.elapsed().as_secs_f64();
    w
}

pub fn run(a: &Args, tr: &mut Tracer) -> Outcome {
    rayon::with_num_threads(a.nproc, || run_in_pool(a, tr))
}

fn run_in_pool(a: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let spec = corpus_spec();
    let data = datasets::generate(&spec);
    let profile = queries(&spec, PROFILE_QUERIES, CORPUS_SEED, 3);
    let all = queries(&spec, ROUND_BATCHES * BATCH, a.seed, 2);
    out.check(duplicate_rows(&all) == 0, || {
        "generated queries are not distinct".into()
    });
    let batches: Vec<VecSet<f32>> = all
        .as_flat()
        .chunks(BATCH * DIM)
        .map(|c| VecSet::from_flat(DIM, c.to_vec()))
        .collect();
    let ids: Vec<u64> = (0..CORPUS as u64).collect();
    let truth = oracle::brute_force(&data, &ids, &all, K, a.nproc);

    let (mut engines, build_s) = build_engines(&data, &profile, SETUP_BUILDS, tr);
    let mut engine = engines.swap_remove(0);
    drop(engines);
    for q in batches.iter().take(WARMUP_BATCHES) {
        black_box(engine.search_batch(q));
    }

    let rounds = (a.seconds * ROUNDS_PER_SECOND) as usize;
    let mut quiet = Tracer::new(false);
    let mut w = window(&mut engine, &batches, rounds, &mut quiet);
    let queries_run = (rounds * ROUND_BATCHES * BATCH) as u64;
    let qps = queries_run as f64 / w.wall_s;

    // --- checks ---
    let round_q = (ROUND_BATCHES * BATCH) as f64;
    let results: Vec<&[Neighbor]> = w
        .first
        .iter()
        .flat_map(|(res, _)| res.iter().map(Vec::as_slice))
        .collect();
    for (i, list) in results.iter().enumerate() {
        if let Err(e) = oracle::check_list(list, K, |id| id < CORPUS as u64) {
            out.failures.push(format!("query {i}: {e}"));
            break;
        }
    }
    out.check(w.mismatches == 0, || {
        format!(
            "{} repeated batches returned different results",
            w.mismatches
        )
    });
    let recall = oracle::recall(&results, &truth, K);
    out.check(recall >= RECALL_FLOOR, || {
        format!("recall@10 {recall:.4} below {RECALL_FLOOR}")
    });

    // --- accounting (tasks from the benchmark's own CL/scheduling pass) ---
    let tasks_per_round: usize = batches
        .iter()
        .enumerate()
        .map(|(b, q)| shadow_cl_sched(&engine, q, &mut quiet, None, b as u64))
        .sum();
    let dropped: usize = w.first.iter().map(|(_, r)| r.fault.dropped_tasks).sum();
    out.attempted = queries_run;
    out.accounting.queries_submitted = queries_run;
    out.accounting.queries_answered = queries_run;
    out.accounting.dpu_tasks_scheduled = Some((tasks_per_round * rounds) as u64);
    out.accounting.dpu_tasks_dropped = Some((dropped * rounds) as u64);

    if !a.trace {
        let sim_s: f64 = w.first.iter().map(|(_, r)| r.timing.total_s()).sum();
        let sim_j: f64 = w.first.iter().map(|(_, r)| r.energy_j).sum();
        let m = &mut out.metrics;
        m.set("setup_s", median(&build_s));
        m.set("qps", qps);
        m.set("p50_ms", percentile(&mut w.latency_ms, 0.50));
        m.set("p99_ms", percentile(&mut w.latency_ms, 0.99));
        m.set("sim_qps", round_q / sim_s);
        m.set("sim_qpj", round_q / sim_j);
        m.set("recall_at_10", recall);
        m.set("rss_mb", peak_rss_mb());
        return out;
    }

    // --- traced: the same window with spans, then one layer pass ---
    let tw = window(&mut engine, &batches, rounds, tr);
    let traced_qps = queries_run as f64 / tw.wall_s;
    let nprobe = engine.effective_nprobe();
    for (b, q) in batches.iter().enumerate() {
        let key = (1_000_000 + b) as u64;
        let root = tr.open("batch", None, key);
        shadow_cl_sched(&engine, q, tr, root, key);
        let s = tr.open("engine.search_batch", root, key);
        let (_, rep) = engine.search_batch(q);
        tr.close(s);
        record_report(tr, s, &rep);
        let h = tr.open("host_ivf.search", root, key);
        for v in q.iter() {
            black_box(engine.ivf.search(v, nprobe, K));
        }
        tr.close(h);
        tr.attr(h, "queries", q.len() as f64);
        tr.close(root);
    }
    let m = &mut out.metrics;
    m.set("ivf.build_s", tr.mean_s("ivf.build"));
    m.set("engine.build_s", tr.mean_s("engine.build"));
    engine_layer(tr, m);
    let host_us = tr.mean_s("host_ivf.search") * 1e6 / BATCH as f64;
    m.set("host_ivf.us_per_query", host_us);
    if let Some(e) = m.get("engine.us_per_query") {
        m.set("engine.sim_tax", e / host_us);
    }
    m.set("trace.qps_ratio", traced_qps / qps);
    out
}
