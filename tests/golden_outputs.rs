//! Golden outputs: every kernel's result bits and per-iteration counter
//! trace on one seeded Kronecker graph, pinned as FNV-1a digests.
//!
//! The determinism contract says outputs are bit-identical across
//! thread counts and sweep modes; this suite additionally pins them
//! across *code changes*. A refactor or optimization of the SIMD
//! primitives, the sweep drivers or the kernels passes only if every
//! digest below is unchanged: BFS `dist`/`parent` for the four semirings
//! × {full, worklist, adaptive}, each BFS iteration's `col_steps`,
//! `cells`, `activations`, `changed_chunks` and `sweep_mode`, SSSP
//! distance bits, PageRank score bits (uniform and personalized), and
//! one multi-source BFS batch of eight roots — at C = 8 and C = 16.
//!
//! Every sweep mode is pinned explicitly, so the digests do not depend
//! on `SLIMSELL_SWEEP`; thread counts do not matter by the determinism
//! contract. On a mismatch the test prints the whole recomputed table.

use slimsell::core::counters::RunStats;
use slimsell::core::{multi_bfs_with, MsBfsOptions};
use slimsell::graph::stats::sample_roots;
use slimsell::graph::weighted::synthetic_weighted_twin;
use slimsell::prelude::*;

/// 64-bit FNV-1a over little-endian encodings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32s(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn trace(&mut self, stats: &RunStats) {
        self.u64(stats.iters.len() as u64);
        for it in &stats.iters {
            self.u64(it.col_steps);
            self.u64(it.cells);
            self.u64(it.activations);
            self.u64(it.changed_chunks as u64);
            self.u64(match it.sweep_mode {
                ExecutedSweep::Full => 0,
                ExecutedSweep::Worklist => 1,
            });
        }
    }
}

const SWEEPS: [(&str, SweepMode); 3] = [
    ("full", SweepMode::Full),
    ("worklist", SweepMode::Worklist),
    ("adaptive", SweepMode::Adaptive),
];

fn graph() -> CsrGraph {
    kronecker(11, 16.0, KroneckerParams::GRAPH500, 2017)
}

fn bfs_digests<S: Semiring, const C: usize>(
    m: &SlimSellMatrix<C>,
    root: VertexId,
    out: &mut Vec<(String, u64)>,
) {
    for (mode, sweep) in SWEEPS {
        let run = BfsEngine::run::<_, S, C>(m, root, &BfsOptions::default().sweep(sweep));
        let mut h = Fnv::new();
        h.u32s(&run.dist);
        match &run.parent {
            Some(p) => h.u32s(p),
            None => h.u64(u64::MAX),
        }
        out.push((format!("c{C}/bfs/{}/{mode}", S::NAME), h.0));
        let mut h = Fnv::new();
        h.trace(&run.stats);
        out.push((format!("c{C}/bfs-trace/{}/{mode}", S::NAME), h.0));
    }
}

fn digests<const C: usize>(g: &CsrGraph, out: &mut Vec<(String, u64)>) {
    let n = g.num_vertices();
    let roots = sample_roots(g, 8);
    let root = roots[0];
    let m = SlimSellMatrix::<C>::build(g, n);
    bfs_digests::<TropicalSemiring, C>(&m, root, out);
    bfs_digests::<BooleanSemiring, C>(&m, root, out);
    bfs_digests::<RealSemiring, C>(&m, root, out);
    bfs_digests::<SelMaxSemiring, C>(&m, root, out);

    let w = WeightedSellCSigma::<C>::build(&synthetic_weighted_twin(g), n);
    let sp = sssp_with(&w, root, &SsspOptions::default().sweep(SweepMode::Adaptive));
    let mut h = Fnv::new();
    h.f32s(&sp.dist);
    out.push((format!("c{C}/sssp"), h.0));

    let pr_opts = PageRankOptions::default().sweep(SweepMode::Adaptive);
    for (label, opts) in
        [("uniform", pr_opts.clone()), ("personalized", pr_opts.personalize(roots[..3].to_vec()))]
    {
        let pr = pagerank(&m, &opts);
        let mut h = Fnv::new();
        h.f32s(&pr.scores);
        out.push((format!("c{C}/pagerank/{label}"), h.0));
    }

    let batch: [VertexId; 8] = std::array::from_fn(|b| roots[b % roots.len()]);
    let ms =
        multi_bfs_with::<_, C, 8>(&m, &batch, &MsBfsOptions::default().sweep(SweepMode::Adaptive));
    let mut h = Fnv::new();
    for d in &ms.dist {
        h.u32s(d);
    }
    h.trace(&ms.stats);
    out.push((format!("c{C}/msbfs-b8"), h.0));
}

/// Digests recorded before the SIMD dispatch layer was removed; every
/// backend it offered (scalar, AVX2, AVX-512) produced this same table.
const GOLDEN: &[(&str, u64)] = &[
    ("c8/bfs/tropical/full", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/tropical/full", 0xf5c07bad0579c237),
    ("c8/bfs/tropical/worklist", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/tropical/worklist", 0xe1d34b24867df3f4),
    ("c8/bfs/tropical/adaptive", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/tropical/adaptive", 0x22b09b15f203c3bc),
    ("c8/bfs/boolean/full", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/boolean/full", 0xf5c07bad0579c237),
    ("c8/bfs/boolean/worklist", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/boolean/worklist", 0x4e0d8d352a7141d5),
    ("c8/bfs/boolean/adaptive", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/boolean/adaptive", 0x6b37b816d7fe3be9),
    ("c8/bfs/real/full", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/real/full", 0xf5c07bad0579c237),
    ("c8/bfs/real/worklist", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/real/worklist", 0x4e0d8d352a7141d5),
    ("c8/bfs/real/adaptive", 0x31dc3acc7c6b558f),
    ("c8/bfs-trace/real/adaptive", 0x6b37b816d7fe3be9),
    ("c8/bfs/sel-max/full", 0xd35971bba0ef5e5f),
    ("c8/bfs-trace/sel-max/full", 0xf5c07bad0579c237),
    ("c8/bfs/sel-max/worklist", 0xd35971bba0ef5e5f),
    ("c8/bfs-trace/sel-max/worklist", 0xe1d34b24867df3f4),
    ("c8/bfs/sel-max/adaptive", 0xd35971bba0ef5e5f),
    ("c8/bfs-trace/sel-max/adaptive", 0x22b09b15f203c3bc),
    ("c8/sssp", 0x7307e2743f592568),
    ("c8/pagerank/uniform", 0x1ace084650b17043),
    ("c8/pagerank/personalized", 0x5e1392f81861b41b),
    ("c8/msbfs-b8", 0xdcdf537e656d0e93),
    ("c16/bfs/tropical/full", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/tropical/full", 0x80afdfa88549b470),
    ("c16/bfs/tropical/worklist", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/tropical/worklist", 0xe9e9c7950d222efd),
    ("c16/bfs/tropical/adaptive", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/tropical/adaptive", 0x971a9273d3e15993),
    ("c16/bfs/boolean/full", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/boolean/full", 0x80afdfa88549b470),
    ("c16/bfs/boolean/worklist", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/boolean/worklist", 0x9a839aa39a23bf48),
    ("c16/bfs/boolean/adaptive", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/boolean/adaptive", 0xb020289a906272c0),
    ("c16/bfs/real/full", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/real/full", 0x80afdfa88549b470),
    ("c16/bfs/real/worklist", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/real/worklist", 0x9a839aa39a23bf48),
    ("c16/bfs/real/adaptive", 0x31dc3acc7c6b558f),
    ("c16/bfs-trace/real/adaptive", 0xb020289a906272c0),
    ("c16/bfs/sel-max/full", 0xd35971bba0ef5e5f),
    ("c16/bfs-trace/sel-max/full", 0x80afdfa88549b470),
    ("c16/bfs/sel-max/worklist", 0xd35971bba0ef5e5f),
    ("c16/bfs-trace/sel-max/worklist", 0xe9e9c7950d222efd),
    ("c16/bfs/sel-max/adaptive", 0xd35971bba0ef5e5f),
    ("c16/bfs-trace/sel-max/adaptive", 0x971a9273d3e15993),
    ("c16/sssp", 0x7307e2743f592568),
    ("c16/pagerank/uniform", 0x1ace084650b17043),
    ("c16/pagerank/personalized", 0x5e1392f81861b41b),
    ("c16/msbfs-b8", 0x6f9250dec35cfff8),
];

#[test]
fn kernel_outputs_match_golden_digests() {
    let g = graph();
    let mut got = Vec::new();
    digests::<8>(&g, &mut got);
    digests::<16>(&g, &mut got);
    let table: String =
        got.iter().map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n")).collect();
    let expected: Vec<(String, u64)> =
        GOLDEN.iter().map(|&(label, d)| (label.to_string(), d)).collect();
    assert!(got == expected, "digests moved; recomputed table:\n{table}");
}
