//! End-to-end and per-layer benchmark of the DRIM-ANN reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run handles one workload in its own process. It generates its
//! inputs from the seed, drives the program only through public entry
//! points, checks every output against the benchmark's own brute-force
//! oracle, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! record spans around each layer call, write them to
//! `out/<workload>-seed<n>.spans.jsonl` beside this package's manifest, and
//! report the per-layer metrics. See `README.md` for the workloads, the
//! thread budget and the metric definitions.

mod common;
mod offline;
mod oracle;
mod paper;
mod serve;
mod tracing;

use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics and units; every untraced run reports each one.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("sim_qps", "1/s"),
    ("sim_qpj", "1/J"),
    ("recall_at_10", "ratio"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics and units; every traced run reports each one, with 0
/// for a layer its workload does not exercise.
pub const LAYER: &[(&str, &str)] = &[
    ("ivf.build_s", "s"),
    ("engine.build_s", "s"),
    ("serve.start_s", "s"),
    ("trace.build_s", "s"),
    ("cl.ms_per_batch", "ms"),
    ("sched.ms_per_batch", "ms"),
    ("sched.postponed", "count"),
    ("engine.search_ms_per_batch", "ms"),
    ("engine.dpu_sim_ms_per_batch", "ms"),
    ("engine.us_per_query", "us"),
    ("host_ivf.us_per_query", "us"),
    ("engine.sim_tax", "ratio"),
    ("sim.cl_s", "s"),
    ("sim.rc_s", "s"),
    ("sim.lc_s", "s"),
    ("sim.dc_s", "s"),
    ("sim.ts_s", "s"),
    ("sim.other_s", "s"),
    ("sim.push_s", "s"),
    ("sim.gather_s", "s"),
    ("sim.imbalance", "ratio"),
    ("sim.dpu_utilization", "ratio"),
    ("sim.dpu_pipeline_j", "J"),
    ("sim.dpu_mram_j", "J"),
    ("sim.dpu_wram_j", "J"),
    ("sim.transfer_j", "J"),
    ("sim.host_j", "J"),
    ("sim.static_j", "J"),
    ("sim.sqt_wram_hit_rate", "ratio"),
    ("sim.lock_locked_updates", "count"),
    ("sim.lock_pruned", "count"),
    ("serve.submit_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.closed_by_size", "count"),
    ("serve.closed_by_deadline", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.hits", "count"),
    ("cache.collapsed", "count"),
    ("cache.evictions", "count"),
    ("engine.deduped", "count"),
    ("mutation.insert_us", "us"),
    ("mutation.delete_us", "us"),
    ("mutation.maintain_ms", "ms"),
    ("mutation.push_bytes", "bytes"),
    ("maintenance.runs", "count"),
    ("maintenance.moved_bytes", "bytes"),
    ("maintenance.sim_transfer_s", "s"),
    ("engine.tombstone_filtered", "count"),
    ("fault.retried_tasks", "count"),
    ("fault.hedged_tasks", "count"),
    ("fault.host_fallback_tasks", "count"),
    ("fault.stragglers", "count"),
    ("fault.corruptions", "count"),
    ("fault.retry_ratio", "ratio"),
    ("trace.sample_ms_per_batch", "ms"),
    ("trace.run_ms_per_batch", "ms"),
    ("trace.qps_ratio", "ratio"),
];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name, v)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Operation accounting printed beside the metrics of every run.
#[derive(Default)]
pub struct Accounting {
    pub queries_submitted: u64,
    pub queries_answered: u64,
    pub queries_rejected: u64,
    pub queries_failed: u64,
    pub mutations_issued: u64,
    pub mutations_applied: u64,
    pub mutations_failed: u64,
    /// `None` where the run cannot observe the count at a public boundary
    /// (see `README.md`).
    pub dpu_tasks_scheduled: Option<u64>,
    pub dpu_tasks_dropped: Option<u64>,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations in the measured window, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run exit non-zero.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    pub accounting: Accounting,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Host threads this process may keep running at once.
    pub nproc: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        nproc,
    })
}

/// A finite JSON number with every digit Rust keeps.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tr = tracing::Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "offline-batch" => offline::run(&args, &mut tr),
        "serve-zipf" => serve::run(&args, &mut tr, serve::Kind::Zipf),
        "serve-churn" => serve::run(&args, &mut tr, serve::Kind::Churn),
        "paper-trace" => paper::run(&args, &mut tr),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };

    let table = if args.trace { LAYER } else { E2E };
    for (name, _) in table {
        if args.trace {
            if out.metrics.get(name).is_none() {
                out.metrics.set(name, 0.0);
            }
        } else {
            let v = out.metrics.get(name);
            out.check(v.is_some_and(|v| v.is_finite() && v > 0.0), || {
                format!("end-to-end metric {name} is missing or not positive: {v:?}")
            });
        }
    }
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out
                .failures
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    let a = &out.accounting;
    println!(
        "accounting {{\"queries\":{{\"submitted\":{},\"answered\":{},\"rejected\":{},\"failed\":{}}},\
         \"mutations\":{{\"issued\":{},\"applied\":{},\"failed\":{}}},\
         \"dpu_tasks\":{{\"scheduled\":{},\"dropped\":{}}}}}",
        a.queries_submitted,
        a.queries_answered,
        a.queries_rejected,
        a.queries_failed,
        a.mutations_issued,
        a.mutations_applied,
        a.mutations_failed,
        opt(a.dpu_tasks_scheduled),
        opt(a.dpu_tasks_dropped),
    );
    for f in &out.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).unwrap_or(f64::NAN);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
