//! Workloads and the inputs generated from a seed.
//!
//! The program under test receives only what this module generates: the
//! graphs, the BFS/SSSP roots, the serve arrival schedule and the shared
//! query mask. Every input is a pure function of the workload and the
//! `--seed` value, so the same seed gives the same inputs.

use std::time::Duration;

use slimsell_gen::geometric::road_network;
use slimsell_gen::rng::splitmix64;
use slimsell_gen::{kronecker, KroneckerParams, Xoshiro256pp};
use slimsell_graph::{CsrGraph, VertexId};

/// Graph family of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Graph500 Kronecker, ρ = 16: diameter ≈ 6, every BFS level after
    /// the first is a full-range sweep (the flood regime).
    Kronecker,
    /// `road_network(2^scale, 2.8)`: hundreds of levels per BFS, each a
    /// small worklist sweep (the high-diameter regime).
    Road,
}

/// One workload: a graph regime plus the serve traffic sized to it.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Graph family of the BFS and served graphs. PageRank and SSSP run
    /// on Kronecker graphs in every workload.
    pub family: Family,
    /// log2 size of the graph the single-source BFS runs on.
    pub bfs_scale: u32,
    /// log2 size of the served graph.
    pub serve_scale: u32,
    /// log2 size of the PageRank and SSSP (Kronecker) graphs.
    pub analytics_scale: u32,
    /// Offered load of the `lo` serve phase: the worker is busy about a
    /// tenth of the time, so nearly every query rides a one-lane batch.
    pub lo_qps: f64,
    /// Offered load of the `hi` serve phase: about 40% of the knee (the
    /// highest rate served within 100 ms without a growing backlog), so
    /// batches fill more than one lane while host noise pushes few
    /// queries past the goodput limit.
    pub hi_qps: f64,
    /// A `hi` query counts toward `serve_goodput_qps` only when served
    /// within this many ms: about five one-lane batch times, which few
    /// queries miss on a quiet host, so that goodput falls once batches
    /// get slower, not only at the knee.
    pub goodput_limit_ms: f64,
}

/// The workloads `--workload` accepts. Each runs every phase (BFS, serve,
/// PageRank, SSSP) so that every end-to-end metric applies to both; they
/// differ in the regime of BFS and serving. The analytics phase is the
/// same Kronecker one in both: on road graphs its thousands of tiny
/// synchronised sweeps made `pagerank_s` and `sssp_ms_p50` track host
/// CPU steal (spread up to 0.3 of the median across seeds).
pub const WORKLOADS: [Workload; 2] = [
    // Kronecker 2^15 on 2 vCPUs: one-lane batch ≈ 7.5 ms, eight-lane
    // ≈ 8–16 ms; masked and unmasked queries never share a batch, which
    // puts the knee near 350 qps.
    Workload {
        name: "kron",
        family: Family::Kronecker,
        bfs_scale: 18,
        serve_scale: 15,
        analytics_scale: 17,
        lo_qps: 12.0,
        hi_qps: 140.0,
        goodput_limit_ms: 40.0,
    },
    // Road 2^13: one-lane batch ≈ 5 ms, eight-lane ≈ 21 ms (the batch
    // kernel runs ~180 levels); knee near 350 qps.
    Workload {
        name: "road",
        family: Family::Road,
        bfs_scale: 17,
        serve_scale: 13,
        analytics_scale: 17,
        lo_qps: 15.0,
        hi_qps: 150.0,
        goodput_limit_ms: 25.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Graphs PageRank runs on per run. Its iterations to converge vary from
/// 21 to 46 across Kronecker graphs of one scale, so `pagerank_s` is the
/// median over several graphs rather than one graph's count.
pub const PAGERANK_GRAPHS: usize = 3;

/// Seed of the PageRank graphs (and of the SSSP graph, the weighted twin
/// of the first), the same in every run: with three graphs drawn per
/// run, `pagerank_s` tracked the draw, not the program (over ten seeds
/// its quartiles lay 0.13 to 0.22 of the median apart). `--seed` still
/// picks the SSSP roots.
pub const ANALYTICS_SEED: u64 = 1;

/// Independent input streams derived from the run seed.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    BfsGraph = 1,
    ServeGraph,
    AnalyticsGraph,
    BfsRoots,
    ServeSchedule,
    ServeRoots,
    Mask,
    SsspRoots,
    MsBfsRoots,
}

/// The seed of one input stream.
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    let mut s = seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// A generator for one input stream.
pub fn rng(seed: u64, stream: Stream) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(stream_seed(seed, stream))
}

/// Generates a graph of the workload's family.
pub fn graph(family: Family, scale: u32, seed: u64) -> CsrGraph {
    match family {
        Family::Kronecker => kronecker(scale, 16.0, KroneckerParams::GRAPH500, seed),
        Family::Road => road_network(1 << scale, 2.8, seed),
    }
}

/// Vertices of the largest connected component, in increasing id order.
/// Roots are drawn from it, as Graph500 draws roots from the giant
/// component, so that every BFS traverses the regime the workload names.
pub fn giant_component(g: &CsrGraph) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut stack = Vec::new();
    let (mut best, mut best_size) = (0u32, 0usize);
    for s in 0..n as VertexId {
        if label[s as usize] != u32::MAX {
            continue;
        }
        let mut size = 0;
        label[s as usize] = s;
        stack.push(s);
        while let Some(v) = stack.pop() {
            size += 1;
            for &w in g.neighbors(v) {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = s;
                    stack.push(w);
                }
            }
        }
        if size > best_size {
            (best, best_size) = (s, size);
        }
    }
    (0..n as VertexId).filter(|&v| label[v as usize] == best).collect()
}

/// Undirected edges inside a vertex set: the traversed-edge count of
/// Graph500 TEPS for any root in that (connected) set.
pub fn edges_within(g: &CsrGraph, component: &[VertexId]) -> u64 {
    component.iter().map(|&v| g.degree(v) as u64).sum::<u64>() / 2
}

/// Draws roots uniformly, with replacement, from `pool`.
pub struct RootSampler<'a> {
    pool: &'a [VertexId],
    rng: Xoshiro256pp,
}

impl<'a> RootSampler<'a> {
    pub fn new(pool: &'a [VertexId], seed: u64, stream: Stream) -> Self {
        assert!(!pool.is_empty(), "no vertex to draw roots from");
        Self { pool, rng: rng(seed, stream) }
    }
}

impl Iterator for RootSampler<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        Some(self.pool[self.rng.bounded_usize(self.pool.len())])
    }
}

/// Poisson arrivals: `n` send offsets at mean rate `qps`, sorted. A
/// Poisson process conditioned on `n` arrivals in `[0, T)` places them
/// uniformly and independently, so the horizon `T = n / qps` is fixed and
/// only the arrival pattern depends on the seed.
pub fn poisson_schedule(n: usize, qps: f64, seed: u64, phase: u64) -> Vec<Duration> {
    let horizon = n as f64 / qps;
    let mut r = rng(phase_seed(seed, phase), Stream::ServeSchedule);
    let mut at: Vec<f64> = (0..n).map(|_| r.next_f64() * horizon).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed ^ phase.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The shared query mask: each vertex is in with probability ½.
pub fn half_mask(n: usize, seed: u64) -> Vec<VertexId> {
    let mut r = rng(seed, Stream::Mask);
    (0..n as VertexId).filter(|_| r.coin(0.5)).collect()
}

/// Share of served queries that carry the shared mask.
pub const MASKED_SHARE: f64 = 1.0 / 8.0;

/// One query in this many has its result checked after its phase.
pub const CHECK_EVERY: usize = 16;

/// One scheduled query of a serve phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Send time, relative to the start of the phase.
    pub due: Duration,
    pub root: VertexId,
    /// Whether the query carries the shared mask (its root is then drawn
    /// from `masked_pool`).
    pub masked: bool,
    /// Whether the result is checked after the phase.
    pub check: bool,
}

/// The queries of one serve phase: Poisson arrivals at `qps`, roots from
/// `pool`, and a seeded [`MASKED_SHARE`] of them masked with roots from
/// `masked_pool`. Exactly one query in [`CHECK_EVERY`] is checked, at a
/// seeded offset.
pub fn serve_queries(
    n: usize,
    qps: f64,
    seed: u64,
    phase: u64,
    pool: &[VertexId],
    masked_pool: &[VertexId],
) -> Vec<Query> {
    assert!(!pool.is_empty() && !masked_pool.is_empty(), "no vertex to draw roots from");
    let mut r = rng(phase_seed(seed, phase), Stream::ServeRoots);
    let offset = r.bounded_usize(CHECK_EVERY);
    poisson_schedule(n, qps, seed, phase)
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            let masked = r.coin(MASKED_SHARE);
            let from = if masked { masked_pool } else { pool };
            let root = from[r.bounded_usize(from.len())];
            Query { due, root, masked, check: i % CHECK_EVERY == offset }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(500, 250.0, 7, 0);
        assert_eq!(a, poisson_schedule(500, 250.0, 7, 0));
        assert_ne!(a, poisson_schedule(500, 250.0, 8, 0));
        assert_ne!(a, poisson_schedule(500, 250.0, 7, 1));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < Duration::from_secs(2));
        // Mean gap ≈ 1/qps.
        let mean_gap = a.last().unwrap().as_secs_f64() / (a.len() - 1) as f64;
        assert!((mean_gap - 1.0 / 250.0).abs() < 0.2 / 250.0, "mean gap {mean_gap}");
    }

    #[test]
    fn roots_are_a_function_of_the_seed() {
        let g = graph(Family::Kronecker, 10, 3);
        let pool = giant_component(&g);
        let a: Vec<_> = RootSampler::new(&pool, 5, Stream::BfsRoots).take(100).collect();
        let b: Vec<_> = RootSampler::new(&pool, 5, Stream::BfsRoots).take(100).collect();
        let c: Vec<_> = RootSampler::new(&pool, 6, Stream::BfsRoots).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|r| pool.binary_search(r).is_ok()));
        assert_eq!(half_mask(1000, 4), half_mask(1000, 4));
    }

    #[test]
    fn serve_queries_are_a_function_of_the_seed() {
        let pool: Vec<VertexId> = (0..100).collect();
        let masked: Vec<VertexId> = (0..100).step_by(2).collect();
        let a = serve_queries(800, 100.0, 9, 1, &pool, &masked);
        assert_eq!(a, serve_queries(800, 100.0, 9, 1, &pool, &masked));
        assert_ne!(a, serve_queries(800, 100.0, 10, 1, &pool, &masked));
        assert_eq!(a.iter().filter(|q| q.check).count(), 800 / CHECK_EVERY);
        let n_masked = a.iter().filter(|q| q.masked).count();
        assert!((60..140).contains(&n_masked), "{n_masked} masked of 800");
        assert!(a.iter().filter(|q| q.masked).all(|q| q.root % 2 == 0));
    }

    #[test]
    fn giant_component_is_connected_and_largest() {
        // Path 0-1-2 plus edge 3-4 plus isolated 5.
        let g = slimsell_graph::GraphBuilder::new(6).edges([(0, 1), (1, 2), (3, 4)]).build();
        assert_eq!(giant_component(&g), vec![0, 1, 2]);
        assert_eq!(edges_within(&g, &[0, 1, 2]), 2);
    }
}
