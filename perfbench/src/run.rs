//! One benchmark run: generate the inputs, set up, run the phases, check
//! every output outside the timed regions, and collect the metrics.
//!
//! A run is split into [`ROUNDS`] rounds. Each round sets up afresh, then
//! runs single-source BFS, its part of the `lo` and `hi` serve phases,
//! PageRank and SSSP, each until it has reached this round's part of its
//! minimum sample count and of its share of `--seconds`. Spreading every timed phase over the whole run means a burst
//! of host noise lasting a few seconds lands in a minority of each
//! phase's samples, which the reported medians then ignore. A traced run
//! ends with the layer probes of [`crate::layers`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slimsell_core::{
    graph500_validate, pagerank, sssp, BfsEngine, BfsOptions, ChunkMatrix, ExecutedSweep,
    PageRankOptions, SlimSellMatrix, TropicalSemiring, VertexMask, WeightedSellCSigma,
};
use slimsell_graph::weighted::{dijkstra, synthetic_weighted_twin};
use slimsell_graph::{CsrGraph, VertexId, WeightedCsrGraph};
use slimsell_serve::{BfsServer, QueryError, QuerySpec, ServeOptions, ServerStats};

use crate::inputs::{self, Family, Query, RootSampler, Stream, Workload};
use crate::layers;
use crate::metrics::Values;
use crate::stats::{median, percentile, samples_needed};
use crate::trace::{SpanId, Tracer};

/// Chunk height of every matrix (the paper's AVX2 configuration).
pub const C: usize = 8;
/// Source lanes per serve batch.
pub const B: usize = 8;
pub type Matrix = SlimSellMatrix<C>;
type Server = BfsServer<Matrix, C, B>;

/// Rounds per run.
pub const ROUNDS: usize = 3;

/// Shares of `--seconds` each phase measures for, at the least.
const SETUP_SHARE: f64 = 0.1;
const BFS_SHARE: f64 = 0.25;
const LO_SHARE: f64 = 0.15;
const HI_SHARE: f64 = 0.2;
const PAGERANK_SHARE: f64 = 0.1;
const SSSP_SHARE: f64 = 0.2;

/// PageRank scores must sum to 1 within this, the workspace's own
/// mass-conservation tolerance for f32 PageRank
/// (`pagerank_mass_conserved_everywhere` in `tests/extensions.rs`).
const PAGERANK_MASS_TOL: f64 = 1e-3;
/// Scaled to sum to 1, PageRank scores must lie within this L1 distance
/// of the f64 reference (converging to the f32 tolerance leaves ~6e-7).
const PAGERANK_L1_TOL: f64 = 1e-5;
/// SSSP distances must match Dijkstra within this relative error
/// (f32 path sums may round differently when equal-length paths tie).
const SSSP_REL_TOL: f32 = 1e-5;
/// Roots timed both untraced and traced to measure tracing overhead.
const OVERHEAD_ROOTS: usize = 10;
/// Roots timed on a one-thread pool for the parallel-efficiency baseline.
const SERIAL_ROOTS: usize = 20;

/// How much a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Measured time budget, split among the phases.
    pub seconds: f64,
    /// Set-ups per round, at the least; `setup_s` is the median of all.
    pub setups: usize,
    pub bfs_min: usize,
    pub lo_min: usize,
    pub hi_min: usize,
    pub sssp_min: usize,
}

impl Plan {
    /// Minimum counts give every reported tail at least ten samples
    /// beyond it (p90 of BFS and `lo`, p99 of `hi`).
    pub fn new(seconds: f64) -> Self {
        Self {
            seconds,
            setups: 3,
            bfs_min: samples_needed(90.0),
            lo_min: samples_needed(90.0),
            hi_min: samples_needed(99.0),
            sssp_min: 20,
        }
    }

    fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// The part of a phase's budget it must have spent by the end of
    /// `round`.
    fn budget_by(&self, share: f64, round: usize) -> Duration {
        self.budget(share) * (round + 1) as u32 / ROUNDS as u32
    }
}

/// The part of a phase's minimum count it must have reached by the end
/// of `round`.
fn min_by(total: usize, round: usize) -> usize {
    (total * (round + 1)).div_ceil(ROUNDS)
}

/// What one run produced.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Timed samples per phase.
    pub samples: Vec<(&'static str, usize)>,
    /// Run context as a JSON object.
    pub context: String,
}

/// Operations attempted and failed; the first few failures are reported
/// on standard error.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {what}: {e}");
            }
        }
    }
}

/// What every phase shares: the plan, the seed and the span sink, and
/// where phases record metrics and checks.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub seed: u64,
    pub tr: &'a Tracer,
    /// Span of the whole run, the parent of each phase span.
    pub parent: SpanId,
    pub values: Values,
    pub tally: Tally,
    /// Timed samples behind each phase's percentiles, by phase.
    pub samples: Vec<(&'static str, usize)>,
}

struct Inputs {
    bfs: CsrGraph,
    bfs_pool: Vec<VertexId>,
    bfs_edges: u64,
    serve: CsrGraph,
    serve_pool: Vec<VertexId>,
    mask_ids: Vec<VertexId>,
    masked_pool: Vec<VertexId>,
    /// PageRank graphs; SSSP runs on the weighted twin of the first.
    analytics: Vec<CsrGraph>,
    /// f64 PageRank of each analytics graph, the scores are checked against.
    pagerank_ref: Vec<Vec<f64>>,
    sssp_pool: Vec<VertexId>,
    weighted: WeightedCsrGraph,
}

impl Inputs {
    fn generate(w: &Workload, seed: u64) -> Self {
        let graph =
            |scale, stream| inputs::graph(w.family, scale, inputs::stream_seed(seed, stream));
        // Analytics run on Kronecker graphs in every workload: the
        // real-semiring kernels are measured in the flood regime, where
        // their cost is MV, not per-iteration synchronisation.
        let bfs = graph(w.bfs_scale, Stream::BfsGraph);
        let bfs_pool = inputs::giant_component(&bfs);
        let bfs_edges = inputs::edges_within(&bfs, &bfs_pool);
        let serve = graph(w.serve_scale, Stream::ServeGraph);
        let serve_pool = inputs::giant_component(&serve);
        let mask_ids = inputs::half_mask(serve.num_vertices(), seed);
        let masked_pool =
            serve_pool.iter().copied().filter(|v| mask_ids.binary_search(v).is_ok()).collect();
        let analytics: Vec<CsrGraph> = (0..inputs::PAGERANK_GRAPHS as u64)
            .map(|k| {
                let seed = inputs::stream_seed(inputs::ANALYTICS_SEED, Stream::AnalyticsGraph)
                    .wrapping_add(k);
                inputs::graph(Family::Kronecker, w.analytics_scale, seed)
            })
            .collect();
        let pagerank_ref = analytics.iter().map(pagerank_reference).collect();
        let sssp_pool = inputs::giant_component(&analytics[0]);
        let weighted = synthetic_weighted_twin(&analytics[0]);
        Self {
            bfs,
            bfs_pool,
            bfs_edges,
            serve,
            serve_pool,
            mask_ids,
            masked_pool,
            analytics,
            pagerank_ref,
            sssp_pool,
            weighted,
        }
    }
}

struct Built {
    bfs: Matrix,
    /// One per PageRank graph.
    analytics: Vec<Matrix>,
    serve: Arc<Matrix>,
    weighted: WeightedSellCSigma<C>,
    server: Server,
}

#[derive(Clone, Copy, Default)]
struct SetupTimes {
    slimsell: f64,
    dep_graph: f64,
    weighted: f64,
    server_start: f64,
    total: f64,
}

/// Runs `f` and records it as a span; returns its result and seconds.
fn timed<T>(
    tr: &Tracer,
    name: &'static str,
    parent: SpanId,
    key: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    tr.record(name, parent, key, t0, t1);
    (out, (t1 - t0).as_secs_f64())
}

/// Builds every structure, forces the lazy dependency graphs, starts the
/// server and pays first-use costs (one BFS, one served query), so that
/// none of it lands in a timed phase.
fn set_up(
    inp: &Inputs,
    tr: &Tracer,
    parent: SpanId,
    key: u64,
    tally: &mut Tally,
) -> (Built, SetupTimes) {
    let t0 = Instant::now();
    let span = tr.id();
    let mut t = SetupTimes::default();
    let build = |g: &CsrGraph| {
        timed(tr, "SlimSellMatrix::build", span, key, || Matrix::build(g, g.num_vertices()))
    };
    let (bfs, s1) = build(&inp.bfs);
    let (analytics, s2): (Vec<Matrix>, Vec<f64>) = inp.analytics.iter().map(build).unzip();
    let (serve, s3) = build(&inp.serve);
    t.slimsell = s1 + s2.iter().sum::<f64>() + s3;
    let (weighted, w) = timed(tr, "WeightedSellCSigma::build", span, key, || {
        WeightedSellCSigma::<C>::build(&inp.weighted, inp.weighted.num_vertices())
    });
    t.weighted = w;
    let ((), d) = timed(tr, "SellStructure::dep_graph", span, key, || {
        bfs.structure().dep_graph();
        for m in &analytics {
            m.structure().dep_graph();
        }
        serve.structure().dep_graph();
        weighted.dep_graph();
    });
    t.dep_graph = d;
    let serve = Arc::new(serve);
    let (server, s) = timed(tr, "BfsServer::start", span, key, || {
        let server = Server::start(Arc::clone(&serve), ServeOptions::default());
        let root = inp.serve_pool[0];
        let warm = server.submit(root).wait().map_err(|e| e.to_string());
        tally.check(
            "warm-up query",
            warm.and_then(|out| graph500_validate(&inp.serve, root, &out.dist, None)),
        );
        server
    });
    t.server_start = s;
    let (warm, _) = timed(tr, "BfsEngine::run", span, key, || {
        BfsEngine::run::<_, TropicalSemiring, C>(&bfs, inp.bfs_pool[0], &BfsOptions::default())
    });
    tally.check("warm-up BFS", graph500_validate(&inp.bfs, inp.bfs_pool[0], &warm.dist, None));
    t.total = t0.elapsed().as_secs_f64();
    tr.record_as(span, "setup", parent, key, t0, Instant::now());
    (Built { bfs, analytics, serve, weighted, server }, t)
}

/// One timed single-source BFS.
struct BfsSample {
    ms: f64,
    stats: slimsell_core::RunStats,
}

fn run_bfs(
    m: &Matrix,
    root: VertexId,
    tr: &Tracer,
    parent: SpanId,
    key: u64,
) -> (BfsSample, Vec<u32>) {
    let t0 = Instant::now();
    let out = BfsEngine::run::<_, TropicalSemiring, C>(m, root, &BfsOptions::default());
    let t1 = Instant::now();
    tr.record("BfsEngine::run", parent, key, t0, t1);
    (BfsSample { ms: (t1 - t0).as_secs_f64() * 1e3, stats: out.stats }, out.dist)
}

/// Single-source BFS from sampled roots, spread over the rounds.
struct BfsPhase<'a> {
    sampler: RootSampler<'a>,
    roots: Vec<VertexId>,
    samples: Vec<BfsSample>,
    busy: Duration,
    /// Untraced reference timings of the first roots, for the overhead.
    untraced: Vec<f64>,
}

impl<'a> BfsPhase<'a> {
    fn new(inp: &'a Inputs, seed: u64) -> Self {
        Self {
            sampler: RootSampler::new(&inp.bfs_pool, seed, Stream::BfsRoots),
            roots: Vec::new(),
            samples: Vec::new(),
            busy: Duration::ZERO,
            untraced: Vec::new(),
        }
    }

    fn round(&mut self, cx: &mut Ctx, inp: &Inputs, built: &Built, round: usize) {
        let (plan, tr) = (cx.plan, cx.tr);
        if tr.enabled() && round == 0 {
            let off = Tracer::new(false);
            for _ in 0..OVERHEAD_ROOTS {
                let r = self.sampler.next().expect("endless");
                let (s, dist) = run_bfs(&built.bfs, r, &off, 0, 0);
                cx.tally.check("BFS", graph500_validate(&inp.bfs, r, &dist, None));
                self.untraced.push(s.ms);
                self.roots.push(r);
            }
        }
        let span = tr.id();
        let t0 = Instant::now();
        let min = min_by(plan.bfs_min, round).max(self.roots.len());
        while self.samples.len() < min || self.busy < plan.budget_by(BFS_SHARE, round) {
            let i = self.samples.len();
            if i == self.roots.len() {
                self.roots.push(self.sampler.next().expect("endless"));
            }
            let (s, dist) = run_bfs(&built.bfs, self.roots[i], tr, span, i as u64);
            self.busy += Duration::from_secs_f64(s.ms / 1e3);
            cx.tally.check("BFS", graph500_validate(&inp.bfs, self.roots[i], &dist, None));
            self.samples.push(s);
        }
        tr.record_as(span, "phase.bfs", cx.parent, round as u64, t0, Instant::now());
    }

    /// Reports the metrics; a traced run also times the one-thread
    /// baseline on the first roots.
    fn finish(self, cx: &mut Ctx, inp: &Inputs, built: &Built) {
        let (samples, tr) = (&self.samples, cx.tr);
        cx.samples.push(("bfs", samples.len()));
        bfs_metrics(cx.plan, inp, samples, &mut cx.values);
        if !tr.enabled() {
            return;
        }
        let traced: Vec<f64> = samples[..OVERHEAD_ROOTS].iter().map(|s| s.ms).collect();
        cx.values
            .set("trace.overhead_pct", (median(&traced) / median(&self.untraced) - 1.0) * 100.0);
        let parallel: Vec<f64> = samples[..SERIAL_ROOTS].iter().map(|s| s.ms).collect();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("infallible");
        let serial: Vec<f64> = pool.install(|| {
            self.roots[..SERIAL_ROOTS]
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    let (s, dist) = run_bfs(&built.bfs, r, tr, cx.parent, i as u64);
                    cx.tally.check("BFS (1 thread)", graph500_validate(&inp.bfs, r, &dist, None));
                    s.ms
                })
                .collect()
        });
        let t1 = median(&serial);
        cx.values.set("bfs.ms_p50_1t", t1);
        cx.values.set("bfs.par_eff", t1 / median(&parallel) / rayon::current_num_threads() as f64);
    }
}

fn bfs_metrics(plan: &Plan, inp: &Inputs, samples: &[BfsSample], values: &mut Values) {
    let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    values.set("bfs_ms_p50", median(&ms));
    values.set("bfs_ms_p90", percentile(&ms, 90.0).expect("bfs_min covers p90"));
    // Graph500 harmonic-mean TEPS over every timed BFS.
    let inv_teps: f64 = ms.iter().map(|&t| t / 1e3 / inp.bfs_edges as f64).sum();
    values.set("bfs_gteps", ms.len() as f64 / inv_teps / 1e9);

    // Exact counters over the first `bfs_min` roots, which every run with
    // the same seed times.
    let fixed = &samples[..plan.bfs_min];
    let sum = |f: &dyn Fn(&slimsell_core::RunStats) -> u64| -> u64 {
        fixed.iter().map(|s| f(&s.stats)).sum()
    };
    let cells = sum(&|s| s.total_cells());
    let visited = sum(&|s| s.total_visited());
    values.set("bfs.iters", sum(&|s| s.num_iterations() as u64) as f64);
    values.set("bfs.col_steps", sum(&|s| s.total_col_steps()) as f64);
    values.set("bfs.cells", cells as f64);
    values.set("bfs.activations", sum(&|s| s.total_activations()) as f64);
    values.set("bfs.worklist_iters", sum(&|s| s.worklist_sweep_iterations() as u64) as f64);
    values.set("bfs.mode_switches", sum(&|s| s.mode_switches() as u64) as f64);
    values.set("bfs.lane_util", sum(&|s| s.total_active_cells()) as f64 / cells.max(1) as f64);
    values.set("bfs.skip_frac", sum(&|s| s.total_skipped() as u64) as f64 / visited.max(1) as f64);

    // Time split by executed sweep mode, per BFS over every timed BFS.
    let mode_secs = |mode| -> f64 {
        samples
            .iter()
            .flat_map(|s| &s.stats.iters)
            .filter(|it| it.sweep_mode == mode)
            .map(|it| it.elapsed.as_secs_f64())
            .fold(0.0, |a, b| a + b)
    };
    let (full_s, worklist_s) = (mode_secs(ExecutedSweep::Full), mode_secs(ExecutedSweep::Worklist));
    values.set("bfs.full_ms", full_s * 1e3 / samples.len() as f64);
    values.set("bfs.worklist_ms", worklist_s * 1e3 / samples.len() as f64);
    let outside: Vec<f64> =
        samples.iter().map(|s| s.ms - s.stats.total_time().as_secs_f64() * 1e3).collect();
    values.set("bfs.outside_ms", median(&outside));
    let iter_us: Vec<f64> = samples
        .iter()
        .flat_map(|s| &s.stats.iters)
        .map(|it| it.elapsed.as_secs_f64() * 1e6)
        .collect();
    values.set("bfs.iter_us_p50", median(&iter_us));
}

/// What one part of a serve phase measured.
struct ServePart {
    /// Latency of every query, scheduled send to resolution, in ms.
    latency_ms: Vec<f64>,
    /// Served queries within the workload's goodput limit.
    within_limit: usize,
    /// Part start to the last resolution.
    wall: Duration,
    /// Largest delay between a query's scheduled and actual send.
    max_lag: Duration,
    /// Queries unresolved when the last one was sent.
    backlog_end: usize,
    before: ServerStats,
    after: ServerStats,
}

/// Sends `queries` open-loop from this thread at their scheduled times;
/// one waiter thread per query records when it resolves. Results picked for checking are validated after the part
/// ends.
#[allow(clippy::too_many_arguments)]
fn serve_part(
    cx: &mut Ctx,
    name: &'static str,
    queries: &[Query],
    limit_ms: f64,
    inp: &Inputs,
    built: &Built,
    mask: &Arc<VertexMask>,
    key0: u64,
) -> ServePart {
    let (server, tr) = (&built.server, cx.tr);
    let before = server.stats();
    let outstanding = AtomicUsize::new(0);
    let span = tr.id();
    let start = Instant::now() + Duration::from_millis(2);
    let mut max_lag = Duration::ZERO;
    let mut backlog_end = 0;
    type Resolved = (Result<Option<Vec<u32>>, QueryError>, Instant);
    let resolved: Vec<Resolved> = std::thread::scope(|sc| {
        let mut waiters = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let due = start + q.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            max_lag = max_lag.max(sent - due);
            let spec = if q.masked {
                QuerySpec::default().mask(Arc::clone(mask))
            } else {
                QuerySpec::default()
            };
            let handle = server.submit_spec(q.root, spec);
            let submitted = Instant::now();
            outstanding.fetch_add(1, Ordering::SeqCst);
            let (outstanding, check, key) = (&outstanding, q.check, key0 + i as u64);
            let waiter = std::thread::Builder::new()
                .stack_size(64 * 1024)
                .spawn_scoped(sc, move || {
                    let result = handle.wait();
                    let done = Instant::now();
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                    let query = tr.id();
                    tr.record("BfsServer::submit_spec", query, key, sent, submitted);
                    tr.record("QueryHandle::wait", query, key, submitted, done);
                    tr.record_as(query, "query", span, key, due, done);
                    (result.map(|out| check.then_some(out.dist)), done)
                })
                .expect("spawn waiter thread");
            waiters.push(waiter);
        }
        backlog_end = outstanding.load(Ordering::SeqCst);
        waiters.into_iter().map(|w| w.join().expect("waiter thread panicked")).collect()
    });
    let after = server.stats();
    let last = resolved.iter().map(|r| r.1).max().unwrap_or(start);
    tr.record_as(span, name, cx.parent, key0, start, last);

    let mut latency_ms = Vec::with_capacity(queries.len());
    let mut within_limit = 0;
    for (q, (result, done)) in queries.iter().zip(resolved) {
        let ms = done.saturating_duration_since(start + q.due).as_secs_f64() * 1e3;
        latency_ms.push(ms);
        let checked = match result {
            Err(e) => Err(format!("root {}: {e}", q.root)),
            Ok(None) => Ok(()),
            Ok(Some(dist)) if q.masked => {
                let opts = BfsOptions::default().mask(Some(Arc::clone(mask)));
                let want = BfsEngine::run::<_, TropicalSemiring, C>(&*built.serve, q.root, &opts);
                if want.dist == dist {
                    Ok(())
                } else {
                    Err(format!("masked root {}: differs from BfsEngine::run", q.root))
                }
            }
            Ok(Some(dist)) => graph500_validate(&inp.serve, q.root, &dist, None),
        };
        if checked.is_ok() && ms <= limit_ms {
            within_limit += 1;
        }
        cx.tally.check(name, checked);
    }
    ServePart { latency_ms, within_limit, wall: last - start, max_lag, backlog_end, before, after }
}

/// The `lo` and `hi` serve phases, each split into one part per round;
/// every round sends its part of `lo`, then of `hi`, to that round's
/// server. Each part is its own Poisson schedule over a fixed span, so
/// goodput per part has no seed-dependent denominator.
struct ServePhases {
    limit_ms: f64,
    /// Queries of each part, by round.
    lo_q: Vec<Vec<Query>>,
    hi_q: Vec<Vec<Query>>,
    lo: Vec<ServePart>,
    hi: Vec<ServePart>,
}

impl ServePhases {
    fn new(plan: &Plan, w: &Workload, inp: &Inputs, seed: u64) -> Self {
        let parts = |min: usize, qps: f64, share: f64, phase: u64| -> Vec<Vec<Query>> {
            let n = min.max((qps * plan.budget(share).as_secs_f64()) as usize).div_ceil(ROUNDS);
            (0..ROUNDS as u64)
                .map(|r| {
                    let (pool, masked) = (&inp.serve_pool, &inp.masked_pool);
                    inputs::serve_queries(n, qps, seed, 2 * r + phase, pool, masked)
                })
                .collect()
        };
        Self {
            limit_ms: w.goodput_limit_ms,
            lo_q: parts(plan.lo_min, w.lo_qps, LO_SHARE, 0),
            hi_q: parts(plan.hi_min, w.hi_qps, HI_SHARE, 1),
            lo: Vec::new(),
            hi: Vec::new(),
        }
    }

    fn round(&mut self, cx: &mut Ctx, inp: &Inputs, built: &Built, round: usize) {
        let mask = Arc::new(VertexMask::from_original(
            built.serve.structure(),
            inp.mask_ids.iter().copied(),
        ));
        // Span keys number the queries of both phases consecutively.
        let before = |parts: &[Vec<Query>]| parts[..round].iter().map(Vec::len).sum::<usize>();
        let lo_total: usize = self.lo_q.iter().map(Vec::len).sum();
        let (lo0, hi0) = (before(&self.lo_q) as u64, (lo_total + before(&self.hi_q)) as u64);
        let limit = self.limit_ms;
        let mut send = |name, queries: &[Query], key0| {
            serve_part(cx, name, queries, limit, inp, built, &mask, key0)
        };
        self.lo.push(send("phase.serve_lo", &self.lo_q[round], lo0));
        self.hi.push(send("phase.serve_hi", &self.hi_q[round], hi0));
    }

    fn finish(self, cx: &mut Ctx) {
        let pooled = |parts: &[ServePart]| -> Vec<f64> {
            parts.iter().flat_map(|p| p.latency_ms.iter().copied()).collect()
        };
        let (lo, hi) = (pooled(&self.lo), pooled(&self.hi));
        cx.samples.extend([("serve_lo", lo.len()), ("serve_hi", hi.len())]);
        let values = &mut cx.values;
        values.set("serve_lo_p50_ms", median(&lo));
        values.set("serve_lo_p90_ms", percentile(&lo, 90.0).expect("lo_min covers p90"));
        values.set("serve_hi_p50_ms", median(&hi));
        values.set("serve_hi_p99_ms", percentile(&hi, 99.0).expect("hi_min covers p99"));
        // Median over the parts of the `hi` phase.
        let goodput: Vec<f64> =
            self.hi.iter().map(|p| p.within_limit as f64 / p.wall.as_secs_f64()).collect();
        values.set("serve_goodput_qps", median(&goodput));

        // Batching counters of the `hi` phase; partition buckets over
        // every query of both phases.
        let delta = |parts: &[ServePart], f: fn(&ServerStats) -> u64| -> u64 {
            parts.iter().map(|p| f(&p.after) - f(&p.before)).sum()
        };
        let both = |f: fn(&ServerStats) -> u64| delta(&self.lo, f) + delta(&self.hi, f);
        let batches = delta(&self.hi, |s| s.batches);
        values.set("serve.batches", batches as f64);
        values.set(
            "serve.batch_fill",
            delta(&self.hi, |s| s.coalesced) as f64 / batches.max(1) as f64,
        );
        values.set("serve.mask_splits", delta(&self.hi, |s| s.mask_splits) as f64);
        let cells = delta(&self.hi, |s| s.total_cells);
        let active = delta(&self.hi, |s| s.total_active_cells);
        values.set("serve.lane_util", active as f64 / cells.max(1) as f64);
        values.set("serve.served", both(|s| s.served) as f64);
        values.set("serve.expired", both(|s| s.expired) as f64);
        values.set("serve.cancelled", both(|s| s.cancelled) as f64);
        values.set("serve.rejected", both(|s| s.rejected) as f64);
        values.set("serve.failed", both(|s| s.failed) as f64);
        values.set("serve.shed", both(|s| s.shed) as f64);
        let lag = self.lo.iter().chain(&self.hi).map(|p| p.max_lag).max().unwrap_or_default();
        values.set("serve.gen_lag_ms", lag.as_secs_f64() * 1e3);
        let backlog = self.hi.iter().map(|p| p.backlog_end).max().unwrap_or(0);
        values.set("serve.backlog_end", backlog as f64);
    }
}

/// PageRank on every analytics graph, repeated until the phase's share
/// of the budget is spent; every round runs at least one pass over the
/// graphs. `pagerank_s` is the median over graphs of each graph's median
/// time, as the iterations to converge differ between graphs.
struct PageRankPhase {
    /// Seconds of each run, by graph.
    secs: Vec<Vec<f64>>,
    per_arc_iter: Vec<f64>,
    /// Iterations of the first pass over the graphs.
    iters: usize,
    busy: f64,
}

impl PageRankPhase {
    fn new() -> Self {
        Self {
            secs: vec![Vec::new(); inputs::PAGERANK_GRAPHS],
            per_arc_iter: Vec::new(),
            iters: 0,
            busy: 0.0,
        }
    }

    fn round(&mut self, cx: &mut Ctx, inp: &Inputs, built: &Built, round: usize) {
        let tr = cx.tr;
        let span = tr.id();
        let t0 = Instant::now();
        let target = cx.plan.budget_by(PAGERANK_SHARE, round).as_secs_f64();
        loop {
            for (k, m) in built.analytics.iter().enumerate() {
                let (out, s) = timed(tr, "pagerank", span, k as u64, || {
                    pagerank::<_, C>(m, &PageRankOptions::default())
                });
                cx.tally.check("PageRank", pagerank_check(&out.scores, &inp.pagerank_ref[k]));
                if self.secs[k].is_empty() {
                    self.iters += out.iterations;
                }
                self.per_arc_iter
                    .push(s * 1e9 / (m.structure().arcs() as f64 * out.iterations as f64));
                self.secs[k].push(s);
                self.busy += s;
            }
            if self.busy >= target {
                break;
            }
        }
        tr.record_as(span, "phase.pagerank", cx.parent, round as u64, t0, Instant::now());
    }

    fn finish(self, cx: &mut Ctx) {
        let per_graph: Vec<f64> = self.secs.iter().map(|s| median(s)).collect();
        cx.samples.push(("pagerank", self.secs.iter().map(Vec::len).sum()));
        cx.values.set("pagerank_s", median(&per_graph));
        cx.values.set("pagerank.iters", self.iters as f64);
        cx.values.set("pagerank.ns_per_arc_iter", median(&self.per_arc_iter));
    }
}

/// PageRank of `g` in f64 with the program's default damping and update
/// (dangling mass spread uniformly), iterated until the L1 change is
/// below 1e-10.
fn pagerank_reference(g: &CsrGraph) -> Vec<f64> {
    let d = f64::from(PageRankOptions::default().damping);
    let n = g.num_vertices();
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    for _ in 0..1000 {
        let mut dangling = 0.0;
        for (v, yv) in y.iter_mut().enumerate() {
            let deg = g.degree(v as VertexId);
            if deg == 0 {
                dangling += x[v];
                *yv = 0.0;
            } else {
                *yv = x[v] / deg as f64;
            }
        }
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        let mut change = 0.0;
        for (v, xv) in x.iter_mut().enumerate() {
            let s: f64 = g.neighbors(v as VertexId).iter().map(|&u| y[u as usize]).sum();
            let new = base + d * s;
            change += (new - *xv).abs();
            *xv = new;
        }
        if change < 1e-10 {
            break;
        }
    }
    x
}

/// Checks PageRank scores in two parts: their mass, and their shape
/// against the f64 reference once scaled to sum to 1. The f32 scores
/// drift from mass 1 by a near-uniform factor (up to ~2e-4 on Kronecker
/// 2^17), so the shape check is the tight one.
fn pagerank_check(got: &[f32], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} scores for {} vertices", got.len(), want.len()));
    }
    let mass: f64 = got.iter().map(|&x| f64::from(x)).sum();
    if (mass - 1.0).abs() > PAGERANK_MASS_TOL {
        return Err(format!("scores sum to {mass}"));
    }
    let l1: f64 = got.iter().zip(want).map(|(&a, &b)| (f64::from(a) / mass - b).abs()).sum();
    if l1 > PAGERANK_L1_TOL {
        return Err(format!("scaled scores lie {l1:.3e} (L1) from the f64 reference"));
    }
    Ok(())
}

fn sssp_check(got: &[f32], want: &[f32]) -> Result<(), String> {
    for (v, (&a, &b)) in got.iter().zip(want).enumerate() {
        let ok =
            if b.is_finite() { (a - b).abs() <= SSSP_REL_TOL * b.abs().max(1.0) } else { a == b };
        if !ok {
            return Err(format!("vertex {v}: {a} vs Dijkstra {b}"));
        }
    }
    Ok(())
}

/// SSSP on the weighted graph from sampled roots, spread over the rounds.
struct SsspPhase<'a> {
    roots: RootSampler<'a>,
    ms: Vec<f64>,
    /// Counters over the first `sssp_min` roots.
    iters: u64,
    col_steps: u64,
    cells: u64,
    busy: f64,
}

impl<'a> SsspPhase<'a> {
    fn new(inp: &'a Inputs, seed: u64) -> Self {
        Self {
            roots: RootSampler::new(&inp.sssp_pool, seed, Stream::SsspRoots),
            ms: Vec::new(),
            iters: 0,
            col_steps: 0,
            cells: 0,
            busy: 0.0,
        }
    }

    fn round(&mut self, cx: &mut Ctx, inp: &Inputs, built: &Built, round: usize) {
        let (plan, tr) = (cx.plan, cx.tr);
        let span = tr.id();
        let t0 = Instant::now();
        let target = plan.budget_by(SSSP_SHARE, round).as_secs_f64();
        while self.ms.len() < min_by(plan.sssp_min, round) || self.busy < target {
            let r = self.roots.next().expect("endless");
            let (out, s) =
                timed(tr, "sssp", span, self.ms.len() as u64, || sssp(&built.weighted, r));
            cx.tally.check("SSSP", sssp_check(&out.dist, &dijkstra(&inp.weighted, r)));
            if self.ms.len() < plan.sssp_min {
                self.iters += out.iterations as u64;
                self.col_steps += out.stats.total_col_steps();
            }
            self.cells += out.stats.total_cells();
            self.busy += s;
            self.ms.push(s * 1e3);
        }
        tr.record_as(span, "phase.sssp", cx.parent, round as u64, t0, Instant::now());
    }

    fn finish(self, cx: &mut Ctx) {
        cx.samples.push(("sssp", self.ms.len()));
        cx.values.set("sssp_ms_p50", median(&self.ms));
        cx.values.set("sssp.iters", self.iters as f64);
        cx.values.set("sssp.col_steps", self.col_steps as f64);
        cx.values.set("sssp.ns_per_cell", self.busy * 1e9 / self.cells.max(1) as f64);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Runs workload `w` with `seed` under `plan`; a traced run also probes
/// each layer and, given `trace_path`, writes its spans there.
pub fn run(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
    trace_path: Option<PathBuf>,
) -> Outcome {
    let ticks0 = layers::cpu_ticks();
    let tr = Tracer::new(traced);
    let t_run = Instant::now();
    let parent = tr.id();
    let mut cx = Ctx {
        plan,
        seed,
        tr: &tr,
        parent,
        values: Values::default(),
        tally: Tally::default(),
        samples: Vec::new(),
    };

    let (inp, _) = timed(&tr, "generate_inputs", parent, 0, || Inputs::generate(w, seed));

    // Each round sets up afresh: at least `plan.setups` times and until
    // set-up has spent this round's part of its share.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut setup_busy = Duration::ZERO;
    let mut built: Option<Built> = None;
    let mut bfs = BfsPhase::new(&inp, seed);
    let mut pr = PageRankPhase::new();
    let mut ss = SsspPhase::new(&inp, seed);
    let mut serve = ServePhases::new(plan, w, &inp, seed);
    for round in 0..ROUNDS {
        while setups.len() < plan.setups * (round + 1)
            || setup_busy < plan.budget_by(SETUP_SHARE, round)
        {
            if let Some(b) = built.take() {
                b.server.shutdown();
            }
            let (b, t) = set_up(&inp, &tr, parent, setups.len() as u64, &mut cx.tally);
            built = Some(b);
            setup_busy += Duration::from_secs_f64(t.total);
            setups.push(t);
        }
        let b = built.as_ref().expect("set up this round");
        bfs.round(&mut cx, &inp, b, round);
        serve.round(&mut cx, &inp, b, round);
        pr.round(&mut cx, &inp, b, round);
        ss.round(&mut cx, &inp, b, round);
    }
    let built = built.expect("at least one set-up");
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    cx.values.set("setup_s", med(|t| t.total));
    cx.values.set("build.slimsell_s", med(|t| t.slimsell));
    cx.values.set("build.dep_graph_s", med(|t| t.dep_graph));
    cx.values.set("build.weighted_s", med(|t| t.weighted));
    cx.values.set("build.server_start_s", med(|t| t.server_start));
    cx.samples.push(("setup", setups.len()));
    bfs.finish(&mut cx, &inp, &built);
    serve.finish(&mut cx);
    pr.finish(&mut cx);
    ss.finish(&mut cx);
    if traced {
        layers::probe(&mut cx, &inp.bfs, &built.bfs, &inp.serve, &built.serve, &inp.serve_pool);
    }
    let report = built.server.shutdown();
    let joins = report.unclean_joins;
    cx.tally.check(
        "server shutdown",
        if joins == 0 { Ok(()) } else { Err(format!("{joins} unclean joins")) },
    );
    cx.values.set("rss_peak_mb", rss_peak_mb());

    let context = layers::context(w, seed, plan, traced, &inp.bfs, &built.bfs, ticks0);
    tr.record_as(parent, "run", 0, seed, t_run, Instant::now());
    cx.values.set("trace.spans", tr.len() as f64);
    if let Some(path) = trace_path.filter(|_| traced) {
        if let Err(e) = tr.write(&path, &context) {
            cx.tally.check("write trace", Err(format!("{}: {e}", path.display())));
        }
    }
    Outcome {
        values: cx.values,
        attempted: cx.tally.attempted,
        failed: cx.tally.failed,
        samples: cx.samples,
        context,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The program's scores pass against the f64 reference, and so do
    /// scores drifted in mass by a uniform factor; moving mass between
    /// vertices fails, as does a mass drift past the tolerance.
    #[test]
    fn pagerank_check_tests_shape_and_mass() {
        let g = inputs::graph(Family::Kronecker, 10, 5);
        let want = pagerank_reference(&g);
        assert!((want.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let got =
            pagerank::<_, C>(&Matrix::build(&g, g.num_vertices()), &PageRankOptions::default())
                .scores;
        assert_eq!(pagerank_check(&got, &want), Ok(()));
        let drifted: Vec<f32> = got.iter().map(|&x| x * (1.0 + 5e-4)).collect();
        assert_eq!(pagerank_check(&drifted, &want), Ok(()));
        let too_far: Vec<f32> = got.iter().map(|&x| x * (1.0 + 2e-3)).collect();
        assert!(pagerank_check(&too_far, &want).is_err());
        let mut moved = got.clone();
        let top = (0..moved.len()).max_by(|&a, &b| moved[a].total_cmp(&moved[b])).unwrap();
        let shift = moved[top] * 1e-3;
        moved[top] -= shift;
        let next = (top + 1) % moved.len();
        moved[next] += shift;
        assert!(pagerank_check(&moved, &want).is_err());
        assert!(pagerank_check(&got[1..], &want).is_err());
    }
}
