//! Frontier-proportional worklist acceptance: on high-diameter graphs
//! (the road-network / ring-lattice regime where the paper found
//! SlimWork gives "small or no improvement", §IV-A5) the worklist
//! engine must execute strictly fewer total column steps than the full
//! sweep with SlimWork, while staying bit-identical to the sequential
//! oracle in every mode. Counters are exact and host-independent, so
//! the inequalities here are deterministic, not timing-based.
//!
//! Lane-granular change masks are pinned here too: they must agree with
//! a per-lane replay of the chunk-granular change test, and filtering
//! worklist activation probes through them must never pay more than the
//! chunk-granular fan-out — and must pay strictly less on a
//! high-diameter graph, where partial-chunk frontiers dominate.

use slimsell::gen::geometric::road_network;
use slimsell::gen::smallworld::watts_strogatz;
use slimsell::prelude::*;
use slimsell_core::semiring::StateVecs;
use slimsell_gen::rng::Xoshiro256pp;

/// Scale-log2 of the acceptance graphs (the criterion requires >= 12).
const SCALE: u32 = 12;

fn full_opts() -> BfsOptions {
    BfsOptions::default().sweep(SweepMode::Full)
}

fn wl_opts() -> BfsOptions {
    BfsOptions::default().sweep(SweepMode::Worklist)
}

fn ad_opts() -> BfsOptions {
    BfsOptions::default().sweep(SweepMode::Adaptive)
}

fn high_diameter_graphs() -> Vec<(&'static str, CsrGraph)> {
    let n = 1usize << SCALE;
    vec![("geometric", road_network(n, 2.8, 42)), ("smallworld", watts_strogatz(n, 4, 0.02, 42))]
}

#[test]
fn worklist_executes_strictly_fewer_column_steps_on_high_diameter_graphs() {
    for (name, g) in high_diameter_graphs() {
        let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let reference = serial_bfs(&g, root);
        let full = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &full_opts());
        let wl = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &wl_opts());
        assert_eq!(full.dist, reference.dist, "{name}: full sweep wrong");
        assert_eq!(wl.dist, reference.dist, "{name}: worklist wrong");
        assert_eq!(
            wl.stats.num_iterations(),
            full.stats.num_iterations(),
            "{name}: iteration counts diverged"
        );
        // A high-diameter BFS actually exercises the wavefront regime.
        assert!(
            wl.stats.num_iterations() > 50,
            "{name}: diameter too small ({} iterations) for the acceptance regime",
            wl.stats.num_iterations()
        );
        assert!(
            wl.stats.total_col_steps() < full.stats.total_col_steps(),
            "{name}: worklist col steps {} !< full-sweep-with-SlimWork col steps {}",
            wl.stats.total_col_steps(),
            full.stats.total_col_steps()
        );
        assert!(wl.stats.total_not_on_worklist() > 0, "{name}: worklist never excluded a chunk");
    }
}

#[test]
fn worklist_outputs_bit_identical_to_sequential_oracle_in_all_modes() {
    let (_, g) = &high_diameter_graphs()[0];
    let root = slimsell::graph::stats::sample_roots(g, 1)[0];
    let m = SlimSellMatrix::<8>::build(g, g.num_vertices());
    let oracle = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| BfsEngine::run::<_, SelMaxSemiring, 8>(&m, root, &full_opts()));
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        for slimchunk in [None, Some(4)] {
            for schedule in [Schedule::Static, Schedule::Dynamic] {
                let opts =
                    BfsOptions { slimchunk, ..Default::default() }.sweep(sweep).schedule(schedule);
                let out = BfsEngine::run::<_, SelMaxSemiring, 8>(&m, root, &opts);
                assert_eq!(out.dist, oracle.dist, "dist: {sweep:?} sc={slimchunk:?}");
                assert_eq!(out.parent, oracle.parent, "parents: {sweep:?} sc={slimchunk:?}");
            }
        }
    }
}

#[test]
fn worklist_counters_are_coherent_per_iteration() {
    let (_, g) = &high_diameter_graphs()[0];
    let root = slimsell::graph::stats::sample_roots(g, 1)[0];
    let m = SlimSellMatrix::<8>::build(g, g.num_vertices());
    let nc = m.structure().num_chunks();
    let wl = BfsEngine::run::<_, BooleanSemiring, 8>(&m, root, &wl_opts());
    for (k, it) in wl.stats.iters.iter().enumerate() {
        assert_eq!(
            it.chunks_processed + it.chunks_skipped,
            it.worklist_len,
            "iter {k}: visit accounting broken"
        );
        assert_eq!(
            it.chunks_not_on_worklist,
            nc - it.worklist_len,
            "iter {k}: exclusion accounting broken"
        );
        assert_eq!(it.cells, it.col_steps * 8, "iter {k}: cells != C * col_steps");
        assert!(it.changed_chunks <= it.worklist_len, "iter {k}: more changes than visits");
    }
    // The wavefront never floods a high-diameter graph: some iteration
    // must leave most chunks off the worklist.
    let min_wl = wl.stats.iters.iter().map(|i| i.worklist_len).min().unwrap();
    assert!(min_wl < nc / 2, "worklist never shrank below half the chunk range");
}

#[test]
fn adaptive_tracks_the_better_pure_mode_on_every_regime() {
    // The acceptance shape of the adaptive controller: on the
    // high-diameter generators it must stay in the worklist regime and
    // match the worklist engine's column steps (within 5%); everywhere
    // it is hard-bounded by the worse pure mode. Counters are exact,
    // so the inequalities are deterministic.
    for (name, g) in high_diameter_graphs() {
        let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let full = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &full_opts());
        let wl = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &wl_opts());
        let ad = BfsEngine::run::<_, TropicalSemiring, 8>(&m, root, &ad_opts());
        assert_eq!(ad.dist, full.dist, "{name}: adaptive distances wrong");
        assert_eq!(ad.stats.num_iterations(), full.stats.num_iterations());
        let (f, w, a) =
            (full.stats.total_col_steps(), wl.stats.total_col_steps(), ad.stats.total_col_steps());
        assert!(a <= f.max(w), "{name}: adaptive {a} exceeds max(full {f}, worklist {w})");
        let best = f.min(w) as f64;
        assert!(
            (a as f64) <= best * 1.05,
            "{name}: adaptive {a} not within 5% of the better pure mode {best}"
        );
        // High-diameter wavefronts never flood: the controller should
        // never pay a full sweep after the start-up transient.
        assert!(
            ad.stats.worklist_sweep_iterations() * 10 >= ad.stats.num_iterations() * 9,
            "{name}: adaptive ran mostly full sweeps on a wavefront regime ({} of {})",
            ad.stats.worklist_sweep_iterations(),
            ad.stats.num_iterations()
        );
    }
}

#[test]
fn adaptive_mode_trace_is_recorded_per_iteration() {
    let (_, g) = &high_diameter_graphs()[0];
    let root = slimsell::graph::stats::sample_roots(g, 1)[0];
    let m = SlimSellMatrix::<8>::build(g, g.num_vertices());
    let ad = BfsEngine::run::<_, BooleanSemiring, 8>(&m, root, &ad_opts());
    let nc = m.structure().num_chunks();
    for (k, it) in ad.stats.iters.iter().enumerate() {
        match it.sweep_mode {
            ExecutedSweep::Full => {
                assert_eq!(it.worklist_len, nc, "iter {k}: full sweep must visit every chunk");
                assert_eq!(it.chunks_not_on_worklist, 0, "iter {k}");
            }
            ExecutedSweep::Worklist => {
                assert_eq!(it.chunks_not_on_worklist, nc - it.worklist_len, "iter {k}");
            }
        }
    }
    // The switch count derived from the trace matches the aggregate.
    let switches = ad.stats.iters.windows(2).filter(|w| w[0].sweep_mode != w[1].sweep_mode).count();
    assert_eq!(switches, ad.stats.mode_switches());
}

#[test]
fn worklist_direction_optimized_matches_on_high_diameter_graphs() {
    for (name, g) in high_diameter_graphs() {
        let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let reference = serial_bfs(&g, root);
        // Force bottom-up so the worklist path actually runs.
        let mk = |sweep| DirOptOptions {
            alpha: f64::INFINITY,
            beta: f64::INFINITY,
            spmv: BfsOptions::default().sweep(sweep),
        };
        let full = run_diropt(&m, root, &mk(SweepMode::Full));
        let wl = run_diropt(&m, root, &mk(SweepMode::Worklist));
        assert_eq!(full.bfs.dist, reference.dist, "{name}: full diropt wrong");
        assert_eq!(wl.bfs.dist, reference.dist, "{name}: worklist diropt wrong");
        assert_eq!(wl.modes, full.modes, "{name}: mode sequences diverged");
        assert!(
            wl.bfs.stats.total_col_steps() < full.bfs.stats.total_col_steps(),
            "{name}: worklist diropt did not reduce column steps"
        );
    }
}

/// `state_changed_mask` must equal a per-lane replay of the
/// chunk-granular `state_changed` test (and be non-zero exactly when it
/// fires), for every semiring and lane count, over randomized state
/// windows that include the engines' sentinel values.
#[test]
fn change_mask_equals_per_lane_replay() {
    fn check<S: Semiring, const C: usize>(rng: &mut Xoshiro256pp) {
        // Values the engines actually store: identities, depths, ±0,
        // and a NaN bit pattern (bit-wise comparison must see through
        // all of them).
        const VALS: [f32; 6] = [0.0, -0.0, 1.0, 2.5, f32::INFINITY, f32::NAN];
        let pick = |r: &mut Xoshiro256pp| VALS[(r.next_u32() as usize) % VALS.len()];
        for _ in 0..200 {
            let mut cur = StateVecs::new(2 * C);
            let (mut nx, mut ng, mut np) = (vec![0.0f32; C], vec![0.0f32; C], vec![0.0f32; C]);
            let base = if rng.next_u32().is_multiple_of(2) { 0 } else { C };
            for l in 0..C {
                cur.x[base + l] = pick(rng);
                cur.g[base + l] = pick(rng);
                cur.p[base + l] = pick(rng);
                // Bias toward equality so unchanged lanes are common.
                nx[l] = if rng.next_u32().is_multiple_of(2) { cur.x[base + l] } else { pick(rng) };
                ng[l] = if rng.next_u32().is_multiple_of(2) { cur.g[base + l] } else { pick(rng) };
                np[l] = if rng.next_u32().is_multiple_of(2) { cur.p[base + l] } else { pick(rng) };
            }
            let mask = S::state_changed_mask::<C>(&cur, base, &nx, &ng, &np);
            assert_eq!(mask & !slimsell_core::worklist::full_lane_mask(C), 0, "stray bits");
            for l in 0..C {
                let lane =
                    S::state_changed(&cur, base + l, &nx[l..l + 1], &ng[l..l + 1], &np[l..l + 1]);
                assert_eq!(
                    mask >> l & 1 == 1,
                    lane,
                    "{} C={C} lane {l}: mask {mask:#x} vs replay {lane}",
                    S::NAME
                );
            }
            assert_eq!(mask != 0, S::state_changed(&cur, base, &nx, &ng, &np), "{}", S::NAME);
        }
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0xC0FFEE);
    macro_rules! all_c {
        ($sem:ty) => {
            check::<$sem, 4>(&mut rng);
            check::<$sem, 8>(&mut rng);
            check::<$sem, 16>(&mut rng);
            check::<$sem, 32>(&mut rng);
        };
    }
    all_c!(TropicalSemiring);
    all_c!(BooleanSemiring);
    all_c!(RealSemiring);
    all_c!(SelMaxSemiring);
}

/// Replays a tropical worklist run's seed stream against the dependency
/// graph and returns (lane-filtered, chunk-granular) activation totals.
/// The iteration-`k` seeds are exactly the lanes finalized at depth `k`
/// (tropical `x` goes ∞ → k there and never changes again), so the
/// whole stream is recoverable from the reference distances.
fn activation_totals<const C: usize>(g: &CsrGraph, root: VertexId) -> (u64, u64, u64) {
    let n = g.num_vertices();
    let m = SlimSellMatrix::<C>::build(g, n);
    let s = m.structure();
    let dep = s.dep_graph();
    let perm = s.perm();
    let reference = serial_bfs(g, root);
    let max_depth = reference.dist.iter().filter(|&&d| d != UNREACHABLE).max().copied().unwrap();
    let nc = s.num_chunks();
    let (mut filtered, mut granular) = (0u64, 0u64);
    for depth in 0..=max_depth {
        // Per-chunk merged lane masks of this depth layer — what
        // collect_changed_into hands the next worklist build.
        let mut masks = vec![0u32; nc];
        for old in 0..n {
            if reference.dist[old] == depth {
                let v = perm.to_new(old as VertexId) as usize;
                masks[v / C] |= 1u32 << (v % C);
            }
        }
        for (j, &mask) in masks.iter().enumerate() {
            if mask == 0 {
                continue;
            }
            granular += dep.dependents(j).len() as u64;
            filtered += dep.edge_masks(j).iter().filter(|&&em| em & mask != 0).count() as u64;
        }
    }
    // The engine's own total for cross-checking the replay.
    let opts = BfsOptions::default().sweep(SweepMode::Worklist);
    let out = BfsEngine::run::<_, TropicalSemiring, C>(&m, root, &opts);
    assert_eq!(out.dist, reference.dist);
    (filtered, granular, out.stats.total_activations())
}

/// Lane-filtered activation probes are never more than the
/// chunk-granular fan-out, the engine's counter matches an independent
/// replay of its seed stream, and a high-diameter (road-network) graph
/// at scale 13 saves strictly.
#[test]
fn lane_masks_cut_worklist_activations() {
    let g = road_network(1 << 13, 3.0, 7);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let (filtered, granular, engine) = activation_totals::<8>(&g, root);
    assert_eq!(engine, filtered, "engine counter disagrees with seed-stream replay");
    assert!(
        filtered < granular,
        "lane masks saved nothing on a high-diameter graph: {filtered} vs {granular}"
    );
    // Low-diameter sanity: still never more.
    let g = kronecker(10, 16.0, KroneckerParams::GRAPH500, 3);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let (filtered, granular, engine) = activation_totals::<8>(&g, root);
    assert_eq!(engine, filtered);
    assert!(filtered <= granular);
}
