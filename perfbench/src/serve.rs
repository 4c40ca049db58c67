//! `serve-zipf` and `serve-churn`: closed loops through `ann-serve` with the
//! result cache on, driven from one generator thread that keeps a fixed
//! window of requests outstanding.
//!
//! `serve-zipf` is read-only Zipf traffic over a query pool that fits in the
//! cache. `serve-churn` draws from a pool larger than the cache, inserts one
//! fresh id and deletes one live id every few queries, runs background
//! maintenance, and injects transient DPU faults with the host fallback on.

use crate::common::*;
use crate::oracle;
use crate::tracing::{SpanId, Tracer};
use crate::{Args, Outcome};
use ann_core::{Neighbor, VecSet};
use ann_serve::{AnnServer, CacheConfig, ServeConfig, ServeError, ServeHandle, ServeStats, Ticket};
use datasets::zipf::Zipf;
use drim_ann::DrimEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use upmem_sim::fault::FaultConfig;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Zipf,
    Churn,
}

const MAX_BATCH: usize = 32;
const MAX_DELAY: Duration = Duration::from_micros(500);
const ZIPF_S: f64 = 1.2;
/// First id of the vectors serve-churn inserts.
const FRESH_BASE: u32 = 1 << 24;
/// serve-churn: one insert and one delete per this many queries.
const MUTATE_EVERY: usize = 10;
/// serve-churn: the server maintains the index after this many batches.
const MAINTAIN_EVERY: u64 = 8;
const FAULT_RATE: f64 = 0.01;
/// serve-churn: queries whose recall is checked on the final index.
const PROBE_QUERIES: usize = 2048;
/// serve-zipf: distinct queries whose recall is checked.
const RECALL_SAMPLE: usize = 2048;
/// serve-churn: compact a list once 2 % of it is tombstoned (the default
/// 25 % would never fire within one run).
const COMPACT_FRAC: f64 = 0.02;
const RECALL_FLOOR: f64 = crate::offline::RECALL_FLOOR;

/// Per-workload traffic shape.
struct Shape {
    /// Requests the generator keeps outstanding: enough that a full batch
    /// is always queued behind the one executing. Single-flight followers
    /// hold no queue slot, so serve-churn, where about a third of the
    /// outstanding requests are followers, needs a wider window; at 64 its
    /// batches closed by deadline at about 20 queries and its wall-clock
    /// figures moved twice as much between runs.
    window: usize,
    pool: usize,
    cache_capacity: usize,
    /// Unmeasured requests before the window (cache fill, pool spawn).
    warmup: usize,
    /// Measured requests per requested second.
    per_second: usize,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        Kind::Zipf => Shape {
            window: 2 * MAX_BATCH,
            pool: 45_056,
            cache_capacity: 90_112,
            warmup: 4_000,
            per_second: 23_000,
        },
        Kind::Churn => Shape {
            window: 4 * MAX_BATCH,
            pool: 16_384,
            cache_capacity: 1_024,
            warmup: 500,
            per_second: 2_000,
        },
    }
}

/// One insert plus one delete, issued just before request `at`.
struct Mutation {
    at: usize,
    insert_id: u32,
    delete_id: u32,
}

/// The whole request and mutation sequence of a run, fixed by the seed.
struct Plan {
    pool: VecSet<f32>,
    /// Pool row of each request.
    stream: Vec<u32>,
    warmup: usize,
    muts: Vec<Mutation>,
    /// Vector of the `j`-th insert (id `FRESH_BASE + j`).
    fresh: VecSet<f32>,
    /// Ids live after every mutation has been applied.
    final_live: Vec<u32>,
}

impl Plan {
    fn new(kind: Kind, s: &Shape, a: &Args, spec: &datasets::SynthSpec) -> Plan {
        let total = s.warmup + s.per_second * a.seconds as usize;
        let pool = queries(spec, s.pool, a.seed, 4);
        let zipf = Zipf::new(s.pool, ZIPF_S);
        let mut rng = StdRng::seed_from_u64(mix(a.seed, 5));
        let stream: Vec<u32> = (0..total).map(|_| zipf.sample(&mut rng) as u32).collect();
        let mut muts = Vec::new();
        let mut live: Vec<u32> = (0..CORPUS as u32).collect();
        if kind == Kind::Churn {
            let mut rng = StdRng::seed_from_u64(mix(a.seed, 6));
            for (j, at) in (MUTATE_EVERY - 1..total).step_by(MUTATE_EVERY).enumerate() {
                let insert_id = FRESH_BASE + j as u32;
                live.push(insert_id);
                let delete_id = live.swap_remove(rng.gen_range(0..live.len()));
                muts.push(Mutation {
                    at,
                    insert_id,
                    delete_id,
                });
            }
        }
        let fresh = queries(spec, muts.len(), a.seed, 7);
        Plan {
            pool,
            stream,
            warmup: s.warmup,
            muts,
            fresh,
            final_live: live,
        }
    }

    fn query(&self, req: usize) -> &[f32] {
        self.pool.get(self.stream[req] as usize)
    }
}

struct Pending {
    req: usize,
    t0: Instant,
    t1: Instant,
    ticket: Ticket,
}

/// Checks one served result: `(request, neighbors, inserts issued so far)`.
type Check<'a> = &'a dyn Fn(usize, &[Neighbor], usize) -> Result<(), String>;

/// The closed-loop generator.
struct Pump<'a> {
    handle: ServeHandle,
    plan: &'a Plan,
    check: Check<'a>,
    tr: &'a mut Tracer,
    window: usize,
    out: VecDeque<Pending>,
    next_mut: usize,
    measuring: bool,
    latency_ms: Vec<f64>,
    answered: u64,
    /// Answers that failed `check`, and the first failure.
    bad: u64,
    first_bad: Option<String>,
    submitted: u64,
    rejected: u64,
    failed: u64,
    mut_issued: u64,
    mut_failed: u64,
}

impl Pump<'_> {
    fn run(&mut self, reqs: std::ops::Range<usize>) {
        for i in reqs {
            while self.plan.muts.get(self.next_mut).is_some_and(|m| m.at == i) {
                self.mutate();
            }
            while self.out.len() >= self.window {
                let p = self.out.pop_front().expect("window is full");
                let r = p.ticket.wait();
                self.finish(p.req, p.t0, p.t1, r, Instant::now());
            }
            let t0 = Instant::now();
            let res = self.handle.submit(0, self.plan.query(i));
            let t1 = Instant::now();
            self.submitted += 1;
            match res {
                // A cache hit resolves at admission: record it now.
                Ok(ticket) => match ticket.try_take() {
                    Some(r) => self.finish(i, t0, t1, r, t1),
                    None => self.out.push_back(Pending {
                        req: i,
                        t0,
                        t1,
                        ticket,
                    }),
                },
                Err(ServeError::QueueFull { .. } | ServeError::Overloaded { .. }) => {
                    self.rejected += 1
                }
                Err(_) => self.failed += 1,
            }
            self.poll();
        }
    }

    /// Record every request at the head of the window that has resolved.
    fn poll(&mut self) {
        while let Some(r) = self.out.front().and_then(|p| p.ticket.try_take()) {
            let p = self.out.pop_front().expect("front exists");
            self.finish(p.req, p.t0, p.t1, r, Instant::now());
        }
    }

    fn drain(&mut self) {
        while let Some(p) = self.out.pop_front() {
            let r = p.ticket.wait();
            self.finish(p.req, p.t0, p.t1, r, Instant::now());
        }
    }

    fn finish(
        &mut self,
        req: usize,
        t0: Instant,
        t1: Instant,
        r: Result<Vec<Neighbor>, ServeError>,
        end: Instant,
    ) {
        if self.measuring {
            self.latency_ms.push((end - t0).as_secs_f64() * 1e3);
        }
        let rid = self.tr.record("serve.request", None, req as u64, t0, end);
        self.tr.record("serve.submit", rid, req as u64, t0, t1);
        match r {
            Ok(list) => {
                self.answered += 1;
                if let Err(e) = (self.check)(req, &list, self.next_mut) {
                    self.bad += 1;
                    self.first_bad.get_or_insert(e);
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    fn mutate(&mut self) {
        let m = &self.plan.muts[self.next_mut];
        let key = self.next_mut as u64;
        let s = self.tr.open("serve.insert", None, key);
        let ins = self
            .handle
            .insert(m.insert_id, self.plan.fresh.get(self.next_mut));
        self.tr.close(s);
        let s = self.tr.open("serve.delete", None, key);
        let del = self.handle.delete(m.delete_id);
        self.tr.close(s);
        self.mut_issued += 2;
        self.mut_failed += ins.is_err() as u64 + del.is_err() as u64;
        self.next_mut += 1;
    }
}

/// Counter differences over the measured window.
struct WindowStats {
    served: u64,
    batches: u64,
    closed_by_size: u64,
    closed_by_deadline: u64,
    cache_hits: u64,
    cache_misses: u64,
    collapsed: u64,
    deduped: u64,
    evictions: u64,
    sim_time_s: f64,
    sim_energy_j: f64,
}

impl WindowStats {
    fn between(a: &ServeStats, b: &ServeStats) -> Self {
        WindowStats {
            served: b.served - a.served,
            batches: b.batches - a.batches,
            closed_by_size: b.closed_by_size - a.closed_by_size,
            closed_by_deadline: b.closed_by_deadline - a.closed_by_deadline,
            cache_hits: b.cache_hits - a.cache_hits,
            cache_misses: b.cache_misses - a.cache_misses,
            collapsed: b.collapsed - a.collapsed,
            deduped: b.deduped_in_batch - a.deduped_in_batch,
            evictions: b.evictions - a.evictions,
            sim_time_s: b.sim_time_s - a.sim_time_s,
            sim_energy_j: b.sim_energy_j - a.sim_energy_j,
        }
    }
}

struct Served {
    start_s: f64,
    wall_s: f64,
    measured: usize,
    latency_ms: Vec<f64>,
    answered: u64,
    bad: u64,
    first_bad: Option<String>,
    window: WindowStats,
    stats: ServeStats,
    engine: DrimEngine,
    submitted: u64,
    rejected: u64,
    failed: u64,
    mut_issued: u64,
    mut_issued_in_window: u64,
    mut_failed: u64,
}

/// Serve the plan's whole stream on `engine`: warm-up, then the measured
/// window, then shut down (which flushes pending mutations).
fn serve(
    engine: DrimEngine,
    cfg: ServeConfig,
    window: usize,
    plan: &Plan,
    check: Check,
    tr: &mut Tracer,
) -> Served {
    let t = Instant::now();
    let s = tr.open("serve.start", None, 0);
    let server =
        AnnServer::start(engine, cfg).expect("the benchmark's serve configuration is valid");
    tr.close(s);
    let start_s = t.elapsed().as_secs_f64();
    let mut quiet = Tracer::new(false);
    let mut pump = Pump {
        handle: server.handle(),
        plan,
        check,
        tr: &mut quiet,
        window,
        out: VecDeque::with_capacity(window),
        next_mut: 0,
        measuring: false,
        latency_ms: Vec::with_capacity(plan.stream.len() - plan.warmup),
        answered: 0,
        bad: 0,
        first_bad: None,
        submitted: 0,
        rejected: 0,
        failed: 0,
        mut_issued: 0,
        mut_failed: 0,
    };
    pump.run(0..plan.warmup);
    pump.drain();
    let s0 = pump.handle.stats();
    let issued0 = pump.mut_issued;
    let (submitted0, rejected0, failed0) = (pump.submitted, pump.rejected, pump.failed);
    pump.tr = tr;
    pump.measuring = true;
    let t0 = Instant::now();
    pump.run(plan.warmup..plan.stream.len());
    pump.drain();
    let wall_s = t0.elapsed().as_secs_f64();
    let s1 = pump.handle.stats();
    let Pump {
        latency_ms,
        answered,
        bad,
        first_bad,
        submitted,
        rejected,
        failed,
        mut_issued,
        mut_failed,
        ..
    } = pump;
    let (engine, stats) = server.shutdown();
    Served {
        start_s,
        wall_s,
        measured: plan.stream.len() - plan.warmup,
        latency_ms,
        answered,
        bad,
        first_bad,
        window: WindowStats::between(&s0, &s1),
        stats,
        engine,
        submitted: submitted - submitted0,
        rejected: rejected - rejected0,
        failed: failed - failed0,
        mut_issued,
        mut_issued_in_window: mut_issued - issued0,
        mut_failed,
    }
}

fn serve_config(s: &Shape, kind: Kind, nproc: usize) -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        max_delay: MAX_DELAY,
        queue_cap: 2 * s.window,
        host_threads: Some(nproc.saturating_sub(1).max(1)),
        cache: Some(CacheConfig {
            capacity: s.cache_capacity,
            shards: 8,
        }),
        maintain_every: (kind == Kind::Churn).then_some(MAINTAIN_EVERY),
        ..ServeConfig::default()
    }
}

pub fn run(a: &Args, tr: &mut Tracer, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let s = shape(kind);
    let spec = corpus_spec();
    let data = datasets::generate(&spec);
    let profile = queries(&spec, PROFILE_QUERIES, CORPUS_SEED, 3);
    let plan = Plan::new(kind, &s, a, &spec);
    out.check(duplicate_rows(&plan.pool) == 0, || {
        "query pool is not distinct".into()
    });

    let (mut engines, build_s) =
        rayon::with_num_threads(a.nproc, || build_engines(&data, &profile, SETUP_BUILDS, tr));
    if kind == Kind::Churn {
        let mut faults = FaultConfig::none();
        faults.seed = mix(a.seed, 12);
        faults.straggler_rate = FAULT_RATE;
        faults.corruption_rate = FAULT_RATE;
        for e in engines.iter_mut() {
            e.inject_faults(faults)
                .expect("the benchmark's fault rates are valid");
            e.cfg.maintenance.compact_tombstone_frac = COMPACT_FRAC;
        }
    }
    let replay_engine = engines.pop().expect("three builds");
    let traced_engine = engines.pop().expect("three builds");
    let serve_engine = engines.pop().expect("three builds");
    let cfg = serve_config(&s, kind, a.nproc);

    // serve-zipf: the reference results every served one must equal, from
    // an engine built from the same inputs, computed before serving.
    let (zipf, mut churn_replay) = match kind {
        Kind::Zipf => (
            Some(zipf_reference(a, &plan, replay_engine, tr, &mut out)),
            None,
        ),
        Kind::Churn => (None, Some(replay_engine)),
    };
    let check_zipf = |req: usize, list: &[Neighbor], _: usize| {
        let r = zipf.as_ref().expect("zipf reference");
        let want = r.lists[plan.stream[req] as usize]
            .as_deref()
            .expect("every streamed query has a reference result");
        if oracle::same_bits(list, want) {
            Ok(())
        } else {
            Err(format!("request {req}: result differs from search_batch"))
        }
    };
    let check_churn = |req: usize, list: &[Neighbor], inserts: usize| {
        let fresh = FRESH_BASE as u64..FRESH_BASE as u64 + inserts as u64;
        oracle::check_list(list, K, |id| id < CORPUS as u64 || fresh.contains(&id))
            .map_err(|e| format!("request {req}: {e}"))
    };
    let check: Check = match kind {
        Kind::Zipf => &check_zipf,
        Kind::Churn => &check_churn,
    };

    let mut quiet = Tracer::new(false);
    let mut served = serve(
        serve_engine,
        cfg.clone(),
        s.window,
        &plan,
        check,
        &mut quiet,
    );
    let qps = served.measured as f64 / served.wall_s;

    out.check(served.rejected == 0 && served.failed == 0, || {
        format!(
            "{} rejected and {} failed queries",
            served.rejected, served.failed
        )
    });
    out.check(served.answered == plan.stream.len() as u64, || {
        format!(
            "{} of {} queries answered",
            served.answered,
            plan.stream.len()
        )
    });
    if let Some(e) = &served.first_bad {
        out.failures
            .push(format!("{} bad results; first: {e}", served.bad));
    }
    out.attempted = served.submitted + served.mut_issued_in_window;
    out.failed = served.rejected + served.failed;
    let acct = &mut out.accounting;
    acct.queries_submitted = served.submitted;
    acct.queries_answered = served.latency_ms.len() as u64;
    acct.queries_rejected = served.rejected;
    acct.queries_failed = served.failed;
    acct.mutations_issued = served.mut_issued;
    acct.mutations_applied = served.stats.inserts_applied + served.stats.deletes_applied;
    acct.mutations_failed = served.mut_failed + served.stats.mutations_failed;
    acct.dpu_tasks_dropped = (served.stats.degraded_queries == 0).then_some(0);

    let recall = match &zipf {
        Some(r) => zipf_checks(a, &plan, r, &served, &data, &mut out),
        None => check_churn_end(a, &plan, &mut served, &data, &mut out),
    };

    if !a.trace {
        let ws = &served.window;
        let mut lat = served.latency_ms;
        let m = &mut out.metrics;
        m.set("setup_s", median(&build_s) + served.start_s);
        m.set("qps", qps);
        m.set("p50_ms", percentile(&mut lat, 0.50));
        m.set("p99_ms", percentile(&mut lat, 0.99));
        m.set("sim_qps", ws.served as f64 / ws.sim_time_s);
        m.set("sim_qpj", ws.served as f64 / ws.sim_energy_j);
        m.set("recall_at_10", recall);
        m.set("rss_mb", peak_rss_mb());
        return out;
    }

    // --- traced: the same stream on a fresh server with spans ---
    let traced = serve(traced_engine, cfg, s.window, &plan, check, tr);
    let tws = &traced.window;
    if let Some(engine) = churn_replay.take() {
        replay_churn(&plan, engine, tr, &mut out);
    }
    let m = &mut out.metrics;
    m.set("ivf.build_s", tr.mean_s("ivf.build"));
    m.set("engine.build_s", tr.mean_s("engine.build"));
    m.set("serve.start_s", tr.mean_s("serve.start"));
    m.set("serve.submit_us", tr.mean_s("serve.submit") * 1e6);
    m.set("serve.batches", tws.batches as f64);
    m.set(
        "serve.mean_batch",
        tws.served as f64 / tws.batches.max(1) as f64,
    );
    m.set("serve.closed_by_size", tws.closed_by_size as f64);
    m.set("serve.closed_by_deadline", tws.closed_by_deadline as f64);
    let lookups = (tws.cache_hits + tws.cache_misses).max(1) as f64;
    m.set("cache.hit_rate", tws.cache_hits as f64 / lookups);
    m.set("cache.hits", tws.cache_hits as f64);
    m.set("cache.collapsed", tws.collapsed as f64);
    m.set("cache.evictions", tws.evictions as f64);
    m.set("engine.deduped", tws.deduped as f64);
    engine_layer(tr, m);
    m.set(
        "trace.qps_ratio",
        (traced.measured as f64 / traced.wall_s) / qps,
    );
    out
}

/// serve-zipf reference results, keyed by pool row.
struct ZipfRef {
    lists: Vec<Option<Vec<Neighbor>>>,
    /// Distinct pool rows in first-occurrence order.
    order: Vec<u32>,
    /// How many of them first occur in the measured window.
    in_window: usize,
    /// DPU tasks the scheduler makes for those.
    window_tasks: usize,
}

/// Run the stream's distinct queries in first-occurrence order, in batches
/// of `MAX_BATCH`, through `search_batch` on an engine built from the same
/// inputs as the served one. Without mutations these are exactly the
/// queries the server executes; in a traced run their spans give the
/// engine's per-layer figures.
fn zipf_reference(
    a: &Args,
    plan: &Plan,
    mut engine: DrimEngine,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> ZipfRef {
    let mut seen = vec![false; plan.pool.len()];
    let mut order: Vec<u32> = Vec::new();
    let mut in_window = 0usize;
    for (i, &p) in plan.stream.iter().enumerate() {
        if !std::mem::replace(&mut seen[p as usize], true) {
            order.push(p);
            in_window += (i >= plan.warmup) as usize;
        }
    }
    let (warm, window) = order.split_at(order.len() - in_window);
    let mut lists: Vec<Option<Vec<Neighbor>>> = vec![None; plan.pool.len()];
    let mut window_tasks = 0usize;
    rayon::with_num_threads(a.nproc, || {
        for (part, rows) in [warm, window].into_iter().enumerate() {
            for (b, chunk) in rows.chunks(MAX_BATCH).enumerate() {
                let key = (part * 1_000_000 + b) as u64;
                let mut q = VecSet::with_capacity(DIM, chunk.len());
                for &p in chunk {
                    q.push(plan.pool.get(p as usize));
                }
                let root = tr.open("batch", None, key);
                let tasks = shadow_cl_sched(&engine, &q, tr, root, key);
                let s = tr.open("engine.search_batch", root, key);
                let (res, rep) = engine.search_batch(&q);
                tr.close(s);
                record_report(tr, s, &rep);
                tr.close(root);
                if part == 1 {
                    window_tasks += tasks;
                }
                for (&p, list) in chunk.iter().zip(res) {
                    lists[p as usize] = Some(list);
                }
            }
        }
    });
    let mut bad = None;
    for &p in &order {
        let list = lists[p as usize].as_deref().expect("reference result");
        if let Err(e) = oracle::check_list(list, K, |id| id < CORPUS as u64) {
            bad.get_or_insert(format!("pool query {p}: {e}"));
        }
    }
    out.failures.extend(bad);
    ZipfRef {
        lists,
        order,
        in_window,
        window_tasks,
    }
}

/// serve-zipf after serving: DPU-task accounting and recall@10 of the
/// first `RECALL_SAMPLE` distinct queries against brute force.
fn zipf_checks(
    a: &Args,
    plan: &Plan,
    r: &ZipfRef,
    served: &Served,
    data: &VecSet<f32>,
    out: &mut Outcome,
) -> f64 {
    // Without mutations the engine runs each distinct query once; the task
    // count is exact when the server's executed rows confirm that.
    let ws = &served.window;
    if (ws.served - ws.deduped) as usize == r.in_window {
        out.accounting.dpu_tasks_scheduled = Some(r.window_tasks as u64);
    }
    let sample = &r.order[..r.order.len().min(RECALL_SAMPLE)];
    let mut qs = VecSet::with_capacity(DIM, sample.len());
    for &p in sample {
        qs.push(plan.pool.get(p as usize));
    }
    let ids: Vec<u64> = (0..CORPUS as u64).collect();
    let truth = oracle::brute_force(data, &ids, &qs, K, a.nproc);
    let lists: Vec<&[Neighbor]> = sample
        .iter()
        .map(|&p| r.lists[p as usize].as_deref().expect("reference result"))
        .collect();
    let recall = oracle::recall(&lists, &truth, K);
    out.check(recall >= RECALL_FLOOR, || {
        format!("recall@10 {recall:.4} below {RECALL_FLOOR}")
    });
    recall
}

/// serve-churn: every mutation applied, nothing degraded, and recall of a
/// probe set on the final index measured against brute force over the live
/// set the benchmark tracked itself.
fn check_churn_end(
    a: &Args,
    plan: &Plan,
    served: &mut Served,
    data: &VecSet<f32>,
    out: &mut Outcome,
) -> f64 {
    let st = &served.stats;
    let n = plan.muts.len() as u64;
    out.check(
        served.mut_failed == 0
            && st.mutations_failed == 0
            && st.inserts_applied == n
            && st.deletes_applied == n,
        || {
            format!(
                "{n} inserts and {n} deletes issued; applied {} / {}, failed {} at enqueue, {} at apply",
                st.inserts_applied, st.deletes_applied, served.mut_failed, st.mutations_failed
            )
        },
    );
    out.check(st.degraded_queries == 0, || {
        format!("{} degraded queries", st.degraded_queries)
    });

    let mut points = VecSet::with_capacity(DIM, plan.final_live.len());
    let mut ids = Vec::with_capacity(plan.final_live.len());
    for &id in &plan.final_live {
        let v = if id < FRESH_BASE {
            data.get(id as usize)
        } else {
            plan.fresh.get((id - FRESH_BASE) as usize)
        };
        points.push(v);
        ids.push(id as u64);
    }
    let spec = corpus_spec();
    let probe = queries(&spec, PROBE_QUERIES, a.seed, 11);
    let truth = oracle::brute_force(&points, &ids, &probe, K, a.nproc);
    let engine = &mut served.engine;
    out.check(engine.live_len() == plan.final_live.len(), || {
        format!(
            "engine holds {} live points, expected {}",
            engine.live_len(),
            plan.final_live.len()
        )
    });
    let (res, _) = rayon::with_num_threads(a.nproc, || engine.search_batch(&probe));
    let live: std::collections::HashSet<u64> = ids.iter().copied().collect();
    for (i, list) in res.iter().enumerate() {
        if let Err(e) = oracle::check_list(list, K, |id| live.contains(&id)) {
            out.failures
                .push(format!("probe query {i} on the final index: {e}"));
            break;
        }
    }
    let lists: Vec<&[Neighbor]> = res.iter().map(Vec::as_slice).collect();
    let recall = oracle::recall(&lists, &truth, K);
    out.check(recall >= RECALL_FLOOR, || {
        format!("final-index recall@10 {recall:.4} below {RECALL_FLOOR}")
    });
    recall
}

/// Traced serve-churn: mutations and maintenance run on the server's own
/// thread, out of the generator's sight, so the workload's mutation and
/// query sequence is replayed directly on an engine, one span per call.
/// Batches are cut every `MAX_BATCH` requests; the mutations issued before
/// a batch's last request are applied before it, and maintenance runs every
/// `MAINTAIN_EVERY` batches, as the server does.
fn replay_churn(plan: &Plan, mut engine: DrimEngine, tr: &mut Tracer, out: &mut Outcome) {
    let mut next = 0usize;
    let mut dropped = 0usize;
    for (b, rows) in plan.stream.chunks(MAX_BATCH).enumerate() {
        let key = b as u64;
        let last = b * MAX_BATCH + rows.len();
        let root = tr.open("batch", None, key);
        while plan.muts.get(next).is_some_and(|m| m.at < last) {
            let m = &plan.muts[next];
            let s = tr.open("engine.insert", root, next as u64);
            let ins = engine.insert(m.insert_id, plan.fresh.get(next));
            tr.close(s);
            let s = tr.open("engine.delete", root, next as u64);
            let del = engine.delete(m.delete_id);
            tr.close(s);
            out.check(ins.is_ok() && del, || {
                format!("replayed mutation {next}: insert {ins:?}, delete applied {del}")
            });
            next += 1;
        }
        if b > 0 && (b as u64).is_multiple_of(MAINTAIN_EVERY) {
            let s = tr.open("engine.maintain", root, key);
            let rep = engine.maintain();
            tr.close(s);
            tr.attr(s, "moved_bytes", rep.moved_bytes as f64);
            tr.attr(s, "transfer_s", rep.transfer_s);
        }
        engine.set_fault_batch(key);
        let mut q = VecSet::with_capacity(DIM, rows.len());
        for &p in rows {
            q.push(plan.pool.get(p as usize));
        }
        shadow_cl_sched(&engine, &q, tr, root, key);
        let s: SpanId = tr.open("engine.search_batch", root, key);
        let (_, rep) = engine.search_batch(&q);
        tr.close(s);
        record_report(tr, s, &rep);
        tr.close(root);
        dropped += rep.fault.dropped_tasks;
    }
    out.check(dropped == 0, || {
        format!("{dropped} DPU tasks dropped in the replay")
    });

    let m = &mut out.metrics;
    m.set("mutation.insert_us", tr.mean_s("engine.insert") * 1e6);
    m.set("mutation.delete_us", tr.mean_s("engine.delete") * 1e6);
    m.set("mutation.maintain_ms", tr.mean_s("engine.maintain") * 1e3);
    m.set("mutation.push_bytes", engine.mutation_push_bytes() as f64);
    m.set(
        "maintenance.runs",
        tr.spans("engine.maintain").count() as f64,
    );
    m.set(
        "maintenance.moved_bytes",
        tr.sum_attr("engine.maintain", "moved_bytes"),
    );
    m.set(
        "maintenance.sim_transfer_s",
        tr.sum_attr("engine.maintain", "transfer_s"),
    );
    m.set(
        "engine.tombstone_filtered",
        tr.sum_attr("engine.search_batch", "tombstone_filtered"),
    );
    let retried = tr.sum_attr("engine.search_batch", "retried_tasks");
    for (metric, attr) in [
        ("fault.retried_tasks", "retried_tasks"),
        ("fault.hedged_tasks", "hedged_tasks"),
        ("fault.host_fallback_tasks", "host_fallback_tasks"),
        ("fault.stragglers", "stragglers"),
        ("fault.corruptions", "corruptions"),
    ] {
        m.set(metric, tr.sum_attr("engine.search_batch", attr));
    }
    m.set(
        "fault.retry_ratio",
        retried / tr.sum_attr("sched.schedule", "tasks").max(1.0),
    );
}
