//! Probes of single layers, run only in a traced run: the SIMD primitives,
//! the chunk-MV kernel, direct multi-source BFS calls and the storage
//! accounting; plus the run context recorded with every result.

use std::hint::black_box;
use std::time::Instant;

use slimsell_core::storage::StorageComparison;
use slimsell_core::{chunk_mv, graph500_validate, multi_bfs, ChunkMatrix, TropicalSemiring};
use slimsell_graph::{CsrGraph, VertexId};
use slimsell_simd::{active_backend, detect_best, SimdF32, SimdI32};

use crate::inputs::{RootSampler, Stream, Workload};
use crate::metrics::Values;
use crate::run::{Ctx, Matrix, Plan, B, C};
use crate::stats::median;
use crate::trace::SpanId;

/// f32 elements per SIMD microloop array: 4 KiB, resident in L1.
const L1_LEN: usize = 1024;
/// Passes over the array per timed sample.
const SIMD_REPS: usize = 2000;
/// Timed samples per probe; the median is reported.
const SAMPLES: usize = 5;
/// Direct `multi_bfs` calls per batch shape.
const MSBFS_BATCHES: usize = 10;

/// Median ns per vector step of `step`, folded over an L1-resident array.
fn simd_loop(step: impl Fn(SimdF32<C>, usize) -> SimdF32<C>) -> f64 {
    let steps = SIMD_REPS * L1_LEN / C;
    let times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = SimdF32::<C>::inf();
            for _ in 0..SIMD_REPS {
                for j in (0..L1_LEN).step_by(C) {
                    acc = step(acc, black_box(j));
                }
            }
            black_box(acc);
            t0.elapsed().as_secs_f64() * 1e9 / steps as f64
        })
        .collect();
    median(&times)
}

fn simd_probe(values: &mut Values) {
    let x: Vec<f32> = (0..L1_LEN).map(|i| (i % 13) as f32).collect();
    let masks: Vec<f32> = (0..L1_LEN).map(|i| f32::from(u8::from(i % 3 == 0))).collect();
    // A fixed scatter of in-range indices (multiplicative hashing).
    let idx: Vec<i32> = (0..L1_LEN).map(|i| ((i * 2_654_435_761) % L1_LEN) as i32).collect();
    let one = SimdF32::<C>::one();
    values.set("simd.min_add_ns", simd_loop(|acc, j| acc.min(SimdF32::load(&x[j..]).add(one))));
    values.set(
        "simd.gather_ns",
        simd_loop(|acc, j| acc.min(SimdF32::gather_or(&x, SimdI32::load(&idx[j..]), 0.0))),
    );
    values.set(
        "simd.blend_ns",
        simd_loop(|acc, j| SimdF32::blend(acc, SimdF32::load(&x[j..]), SimdF32::load(&masks[j..]))),
    );
}

/// One pass of `chunk_mv` over every chunk of `m`, on a tropical state
/// with a third of the vertices reached.
fn chunk_mv_probe(m: &Matrix, values: &mut Values) {
    let s = m.structure();
    let x: Vec<f32> = (0..s.n_padded())
        .map(|v| if v % 3 == 0 { (v % 7) as f32 } else { f32::INFINITY })
        .collect();
    let times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..s.num_chunks() {
                black_box(chunk_mv::<_, TropicalSemiring, C>(m, black_box(&x), i));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let t = median(&times);
    let cells = s.total_cells() as f64;
    values.set("chunk_mv.ns_per_cell", t * 1e9 / cells);
    // Computed, not measured, traffic: per cell one 4-byte `col` entry and
    // one gathered 4-byte `x` value; per row one accumulator load.
    let bytes = cells * 8.0 + s.n_padded() as f64 * 4.0;
    values.set("chunk_mv.gbps_computed", bytes / t / 1e9);
}

/// Direct `multi_bfs` calls with one live lane (the other lanes repeat
/// its root, as the server fills a one-query batch) and with eight.
fn msbfs_probe(cx: &mut Ctx, g: &CsrGraph, m: &Matrix, pool: &[VertexId], parent: SpanId) {
    let mut roots = RootSampler::new(pool, cx.seed, Stream::MsBfsRoots);
    let mut col_steps = 0u64;
    let tr = cx.tr;
    let tally = &mut cx.tally;
    let mut shape = |name: &'static str, distinct: usize| -> f64 {
        let ms: Vec<f64> = (0..MSBFS_BATCHES)
            .map(|k| {
                let mut batch = [roots.next().expect("endless"); B];
                for r in &mut batch[1..distinct] {
                    *r = roots.next().expect("endless");
                }
                let t0 = Instant::now();
                let out = multi_bfs::<_, C, B>(m, &batch);
                let t1 = Instant::now();
                tr.record(name, parent, k as u64, t0, t1);
                col_steps += out.stats.total_col_steps();
                for (lane, &r) in batch.iter().enumerate().take(distinct) {
                    tally.check(name, graph500_validate(g, r, &out.dist[lane], None));
                }
                (t1 - t0).as_secs_f64() * 1e3
            })
            .collect();
        median(&ms)
    };
    let batch1 = shape("multi_bfs.batch1", 1);
    let batch8 = shape("multi_bfs.batch8", B);
    cx.values.set("msbfs.batch1_ms", batch1);
    cx.values.set("msbfs.batch8_ms", batch8);
    cx.values.set("msbfs.col_steps", col_steps as f64);
}

fn storage(g: &CsrGraph, m: &Matrix) -> StorageComparison {
    StorageComparison::from_structure(g, m.structure())
}

/// Runs every layer probe of a traced run.
pub fn probe(
    cx: &mut Ctx,
    bfs_graph: &CsrGraph,
    bfs: &Matrix,
    serve_graph: &CsrGraph,
    serve: &Matrix,
    serve_pool: &[VertexId],
) {
    let t0 = Instant::now();
    let span = cx.tr.id();
    simd_probe(&mut cx.values);
    chunk_mv_probe(bfs, &mut cx.values);
    msbfs_probe(cx, serve_graph, serve, serve_pool, span);
    let st = storage(bfs_graph, bfs);
    let mib = |cells: usize| cells as f64 * 4.0 / (1024.0 * 1024.0);
    cx.values.set("storage.slimsell_mb", mib(st.slimsell));
    cx.values.set("storage.sell_mb", mib(st.sell_c_sigma));
    cx.values.set("storage.padding_frac", st.padding as f64 / bfs.structure().total_cells() as f64);
    cx.tr.record_as(span, "phase.layers", cx.parent, 0, t0, Instant::now());
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Size in bytes of the first CPU's cache at `level` (unified or data),
/// from sysfs; `None` where the kernel does not report it.
fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let lvl: u32 = read("level")?.trim().parse().ok()?;
        let kind = read("type")?;
        if lvl != level || kind.trim() == "Instruction" {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(k) => (k, 1024),
            None => match size.strip_suffix('M') {
                Some(m) => (m, 1024 * 1024),
                None => (size, 1),
            },
        };
        num.parse::<u64>().ok().map(|v| v * mult)
    })
}

/// Steal and total ticks of all CPUs from `/proc/stat`: the time a
/// shared host ran other guests on this one's vCPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).map_while(|t| t.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal
    let first8 = ticks.get(..8)?;
    Some((first8[7], first8.iter().sum()))
}

/// The run context, as a JSON object: host parallelism and thread budget,
/// SIMD backends, every `SLIMSELL_*` variable that is set, the BFS
/// matrix's computed working set beside the cache sizes, and the share of
/// CPU time stolen by the host during the run (since `ticks0`).
pub fn context(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
    g: &CsrGraph,
    m: &Matrix,
    ticks0: Option<(u64, u64)>,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("SLIMSELL_")).collect();
    env.sort();
    let env: Vec<String> =
        env.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let st = storage(g, m);
    let steal = match (ticks0, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.2}", (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64)
        }
        _ => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, ",
            "\"nproc\": {}, \"threads\": {}, \"simd_active\": {}, \"simd_best\": {}, ",
            "\"env\": {{{}}}, \"bfs_graph\": {{\"n\": {}, \"m\": {}}}, ",
            "\"working_set_bytes_computed\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, ",
            "\"steal_pct\": {}}}"
        ),
        json_str(w.name),
        seed,
        plan.seconds,
        traced,
        nproc,
        rayon::current_num_threads(),
        json_str(active_backend().name()),
        json_str(detect_best().name()),
        env.join(", "),
        g.num_vertices(),
        g.num_edges(),
        st.slimsell_bytes(),
        opt(cache_bytes(2)),
        opt(cache_bytes(3)),
        steal,
    )
}
