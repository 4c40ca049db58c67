//! Inputs, engine set-up and metric helpers shared by the workloads.

use crate::tracing::{SpanId, Tracer};
use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::VecSet;
use datasets::queries::{generate_queries, QuerySkew};
use datasets::SynthSpec;
use drim_ann::config::SchedPolicy;
use drim_ann::kernels::cl;
use drim_ann::sched::{self, Policy};
use drim_ann::{BatchReport, DrimEngine, EngineConfig, IndexConfig, Phase};
use std::time::Instant;
use upmem_sim::PimArch;

/// Corpus shape of the functional workloads.
pub const DIM: usize = 32;
pub const CORPUS: usize = 20_000;
pub const K: usize = 10;
pub const NDPUS: usize = 64;
/// Queries fed to the layout's heat profiler at build time.
pub const PROFILE_QUERIES: usize = 1024;
/// Builds made per run; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 3;
/// Seed of the corpus and of the build's heat-profile queries. Both are
/// fixed, so every run builds the same index and the run seed varies only
/// the traffic: queries, request streams, mutations and fault draws.
pub const CORPUS_SEED: u64 = 2025;

/// Derive an independent stream seed from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn index_config() -> IndexConfig {
    IndexConfig {
        k: K,
        nprobe: 16,
        nlist: 128,
        m: 16,
        cb: 256,
    }
}

pub fn engine_config() -> EngineConfig {
    EngineConfig::drim(index_config())
}

/// The synthetic corpus of the functional workloads.
pub fn corpus_spec() -> SynthSpec {
    SynthSpec::small("perfbench", DIM, CORPUS, CORPUS_SEED)
}

/// `n` in-distribution queries from stream `salt` of the run seed.
pub fn queries(spec: &SynthSpec, n: usize, seed: u64, salt: u64) -> VecSet<f32> {
    generate_queries(spec, n, QuerySkew::InDistribution, mix(seed, salt))
}

/// Rows of `set` that are bit-identical to an earlier row.
pub fn duplicate_rows(set: &VecSet<f32>) -> usize {
    let mut seen = std::collections::HashSet::new();
    set.iter()
        .filter(|v| !seen.insert(v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()))
        .count()
}

/// Build `count` engines from the same inputs and return them with each
/// build's wall seconds. A build is the index training plus the engine
/// assembly (layout, placement, WRAM plan), each in its own span.
pub fn build_engines(
    data: &VecSet<f32>,
    profile: &VecSet<f32>,
    count: usize,
    tr: &mut Tracer,
) -> (Vec<DrimEngine>, Vec<f64>) {
    let cfg = engine_config();
    let params = IvfPqParams::new(cfg.index.nlist)
        .m(cfg.index.m)
        .cb(cfg.index.cb);
    let mut engines = Vec::with_capacity(count);
    let mut secs = Vec::with_capacity(count);
    for b in 0..count {
        let t0 = Instant::now();
        let s = tr.open("ivf.build", None, b as u64);
        let ivf = IvfPqIndex::build(data, &params);
        tr.close(s);
        let s = tr.open("engine.build", None, b as u64);
        let engine = DrimEngine::from_index(
            ivf,
            data,
            cfg.clone(),
            PimArch::upmem_sc25(),
            NDPUS,
            Some(profile),
        )
        .expect("the benchmark's engine configuration is valid");
        tr.close(s);
        secs.push(t0.elapsed().as_secs_f64());
        engines.push(engine);
    }
    (engines, secs)
}

/// Run CL, task expansion and scheduling for `queries` through their public
/// entry points exactly as `DrimEngine::search_batch` does before its DPU
/// phase (duplicate rows collapsed first, as the engine's in-batch dedup
/// does), timing each call in its own span under `parent`. Returns the
/// number of DPU tasks scheduled.
pub fn shadow_cl_sched(
    e: &DrimEngine,
    queries: &VecSet<f32>,
    tr: &mut Tracer,
    parent: SpanId,
    key: u64,
) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut distinct = VecSet::with_capacity(queries.dim(), queries.len());
    for q in queries.iter() {
        if seen.insert(q.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()) {
            distinct.push(q);
        }
    }
    let s = tr.open("cl.run", parent, key);
    let cl_out = cl::run(
        &distinct,
        &e.ivf.coarse,
        &e.ivf.coarse_norms,
        e.effective_nprobe(),
        &e.shape,
        &e.host,
    );
    tr.close(s);

    let pq = e.ivf.quant.pq();
    let arch = &e.system.arch;
    let cost = |len: usize| {
        sched::task_cost_s(
            len,
            e.cfg.index.m,
            e.cfg.index.cb,
            pq.dsub,
            e.cfg.index.k,
            e.cfg.sqt,
            &arch.costs,
            arch.freq_hz,
        )
    };
    let s = tr.open("sched.expand_tasks", parent, key);
    let tasks = sched::expand_tasks(&cl_out.probes, &e.layout, cost);
    tr.close(s);

    let policy = match e.cfg.scheduling {
        SchedPolicy::Static => Policy::Static,
        SchedPolicy::Greedy => Policy::Greedy { th3: e.cfg.th3 },
    };
    let s = tr.open("sched.schedule", parent, key);
    let mut plan = sched::schedule(&tasks, &e.layout, e.ndpus(), policy);
    let postponed = plan.postponed.len();
    while !plan.postponed.is_empty() {
        let extra = sched::schedule_with_heat(
            &plan.postponed,
            &e.layout,
            e.ndpus(),
            Policy::Greedy { th3: f64::INFINITY },
            Some(&plan.heat),
        );
        plan.heat = extra.heat;
        plan.postponed = extra.postponed;
    }
    tr.close(s);
    tr.attr(s, "tasks", tasks.len() as f64);
    tr.attr(s, "postponed", postponed as f64);
    tasks.len()
}

/// Record the simulated-clock figures of one batch on its span.
pub fn record_report(tr: &mut Tracer, s: SpanId, r: &BatchReport) {
    if !tr.on() {
        return;
    }
    let t = &r.timing;
    let e = &r.energy;
    for (name, v) in [
        ("queries", r.queries as f64),
        ("sim_s", t.total_s()),
        ("sim_j", r.energy_j),
        ("cl_s", t.host_s),
        ("rc_s", t.phase_s[Phase::Rc.idx()]),
        ("lc_s", t.phase_s[Phase::Lc.idx()]),
        ("dc_s", t.phase_s[Phase::Dc.idx()]),
        ("ts_s", t.phase_s[Phase::Ts.idx()]),
        ("other_s", t.phase_s[Phase::Other.idx()]),
        ("push_s", t.push_s),
        ("gather_s", t.gather_s),
        ("imbalance", r.imbalance),
        ("dpu_utilization", t.dpu_utilization()),
        ("dpu_pipeline_j", e.dpu_pipeline_j),
        ("dpu_mram_j", e.dpu_mram_j),
        ("dpu_wram_j", e.dpu_wram_j),
        ("transfer_j", e.transfer_j),
        ("host_j", e.host_busy_j),
        ("static_j", e.static_j),
        ("sqt_wram_hit_rate", r.sqt_wram_hit_rate),
        ("lock_locked_updates", r.lock.locked_updates as f64),
        ("lock_pruned", r.lock.pruned as f64),
        ("postponed", r.postponed as f64),
        ("deduped", r.deduped as f64),
        ("tombstone_filtered", r.tombstone_filtered as f64),
        ("retried_tasks", r.fault.retried_tasks as f64),
        ("hedged_tasks", r.fault.hedged_tasks as f64),
        ("host_fallback_tasks", r.fault.host_fallback_tasks as f64),
        ("dropped_tasks", r.fault.dropped_tasks as f64),
        ("stragglers", r.fault.stragglers as f64),
        ("corruptions", r.fault.corruptions as f64),
    ] {
        tr.attr(s, name, v);
    }
}

/// The `sim.*` per-layer metrics: per-batch means of the attributes
/// [`record_report`] put on the spans called `span`.
pub fn sim_layer(tr: &Tracer, span: &'static str, out: &mut crate::Metrics) {
    for (metric, attr) in [
        ("sim.cl_s", "cl_s"),
        ("sim.rc_s", "rc_s"),
        ("sim.lc_s", "lc_s"),
        ("sim.dc_s", "dc_s"),
        ("sim.ts_s", "ts_s"),
        ("sim.other_s", "other_s"),
        ("sim.push_s", "push_s"),
        ("sim.gather_s", "gather_s"),
        ("sim.imbalance", "imbalance"),
        ("sim.dpu_utilization", "dpu_utilization"),
        ("sim.dpu_pipeline_j", "dpu_pipeline_j"),
        ("sim.dpu_mram_j", "dpu_mram_j"),
        ("sim.dpu_wram_j", "dpu_wram_j"),
        ("sim.transfer_j", "transfer_j"),
        ("sim.host_j", "host_j"),
        ("sim.static_j", "static_j"),
        ("sim.sqt_wram_hit_rate", "sqt_wram_hit_rate"),
        ("sim.lock_locked_updates", "lock_locked_updates"),
        ("sim.lock_pruned", "lock_pruned"),
    ] {
        out.set(metric, tr.mean_attr(span, attr));
    }
}

/// Per-layer metrics of the engine's search path from a traced pass in
/// which each batch has a `batch` span holding the shadow CL/scheduling
/// spans and the `engine.search_batch` span.
pub fn engine_layer(tr: &Tracer, out: &mut crate::Metrics) {
    let cl = tr.mean_s("cl.run");
    let sched = tr.mean_s("sched.expand_tasks") + tr.mean_s("sched.schedule");
    let search = tr.mean_s("engine.search_batch");
    let queries = tr.mean_attr("engine.search_batch", "queries");
    out.set("cl.ms_per_batch", cl * 1e3);
    out.set("sched.ms_per_batch", sched * 1e3);
    out.set(
        "sched.postponed",
        tr.mean_attr("sched.schedule", "postponed"),
    );
    out.set("engine.search_ms_per_batch", search * 1e3);
    out.set("engine.dpu_sim_ms_per_batch", (search - cl - sched) * 1e3);
    if queries > 0.0 {
        out.set("engine.us_per_query", search * 1e6 / queries);
    }
    sim_layer(tr, "engine.search_batch", out);
}

/// Nearest-rank percentile of `v` (sorted in place).
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
