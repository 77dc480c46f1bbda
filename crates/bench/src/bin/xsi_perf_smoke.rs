//! `xsi_perf_smoke` — the CI perf-smoke harness: a split/merge-heavy
//! micro-benchmark over the data-plane hot path, with JSON artifacts so
//! the perf trajectory has a recorded baseline (EXPERIMENTS.md, "Perf
//! smoke").
//!
//! The measured kernels are chosen to live almost entirely inside the
//! maintenance inner loops — splitter scans, partner classification,
//! iedge-count updates, merge folding — rather than graph mutation or
//! driver overhead:
//!
//! * `1index_pair` / `ak3_pair`: insert + delete of a pooled IDREF edge
//!   (the index returns to its starting partition, so each iteration
//!   does one full split phase and one full merge phase);
//! * `1index_build` / `ak3_build`: Paige–Tarjan refinement from scratch
//!   (pure splitter-scan throughput);
//! * `1index_build_chain` / `1index_build_comb` (tier 2): 1-index
//!   construction on a 4,000-deep single-label chain and on a comb of 40
//!   single-label teeth 100 deep — the deep shapes on which a naive
//!   refinement worklist goes quadratic;
//! * `subtree_remove_wide` (tier 2): one `movie` subtree removed and
//!   re-added, as two batches over a 1-index and an A(2), under a root
//!   whose one inode holds 10,000 movies — the split step that must scan
//!   only the singled-out movie, not the other 9,999.
//!
//! Usage: `xsi_perf_smoke [--scale 0.05] [--seed 42] [--json out.json]
//! [--bench-out BENCH.json] [--metrics-out m.json]`.
//!
//! `--bench-out` writes the versioned trajectory record
//! (`xsi-bench-trajectory-v1`): per bench, median/p90/min/max ns, a
//! per-bench noise threshold, and key span counters from one separate
//! instrumented pass (timing batches run with span collection OFF, so
//! the numbers keep the zero-cost disabled path). `xsi_perf_diff`
//! compares two such records; CI gates on the committed
//! `BENCH_baseline.json`. Medians of 11 batches via `micro::bench` —
//! honest but container-noisy; compare trends, not single digits.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use xsi_bench::micro::{bench_value, group, MicroResult};
use xsi_bench::Args;
use xsi_core::obs::postmortem;
use xsi_core::obs::span::{self, SpanKind, SpanTree};
use xsi_core::{
    apply_batch_traced, AkIndex, NodeRef, OneIndex, StructuralIndex, UpdateEngine, UpdateOp,
};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_query::{eval_index_raw, PathExpr};
use xsi_workload::{generate_xmark, EdgePool, XmarkParams};

/// The frozen-view benchmark query; hits the xmark vocabulary so the
/// walk touches real extents instead of short-circuiting on a miss.
const FROZEN_QUERY: &str = "//item//name";

/// Tier-1 benches: the split/merge hot path the CI regression gate
/// fails on. Everything else is tier 2 (tracked, warn-only).
const TIER1: [&str; 4] = ["1index_pair", "ak3_pair", "1index_build", "ak3_build"];

/// Key span counters from one instrumented execution of a bench
/// closure — workload shape, not timing (deterministic under a fixed
/// seed, unlike the nanos they ride along with).
#[derive(Clone, Copy, Default)]
struct SpanSummary {
    spans: u64,
    compound_process: u64,
    kernel_scans: u64,
    blocks: u64,
    elems: u64,
}

fn summarize(tree: &SpanTree) -> SpanSummary {
    let compound = tree.kind_counters(SpanKind::CompoundProcess);
    let scans = tree.kind_counters(SpanKind::KernelScan);
    SpanSummary {
        spans: tree.len() as u64,
        compound_process: tree.kind_count(SpanKind::CompoundProcess) as u64,
        kernel_scans: tree.kind_count(SpanKind::KernelScan) as u64,
        blocks: compound.blocks + scans.blocks,
        elems: compound.elems + scans.elems,
    }
}

/// Runs `f` once with span collection armed and summarizes the tree.
fn instrumented<R>(f: &mut impl FnMut() -> R) -> SpanSummary {
    span::begin_collection();
    std::hint::black_box(f());
    summarize(&span::end_collection())
}

/// Per-bench noise threshold for `xsi_perf_diff`, as a percentage of
/// the median: half the observed min→max batch spread, clamped to
/// [5%, 40%] so a lucky tight run cannot make the gate hair-trigger
/// and a noisy one cannot disable it.
fn noise_pct(r: &MicroResult) -> f64 {
    if r.median_ns <= 0.0 {
        return 40.0;
    }
    (50.0 * (r.max_ns - r.min_ns) / r.median_ns).clamp(5.0, 40.0)
}

fn setup(scale: f64, seed: u64) -> (Graph, Vec<(NodeId, NodeId)>) {
    let mut g = generate_xmark(&XmarkParams::new(scale, 1.0, seed));
    let mut pool = EdgePool::extract(&mut g, 0.2, seed);
    let mut edges = Vec::new();
    for _ in 0..64 {
        if let Some(e) = pool.next_insert() {
            edges.push(e);
        }
    }
    // The sampled edges stay OUT of the graph; each pair benchmark
    // inserts then deletes one, returning the index to its start state.
    (g, edges)
}

/// `teeth` chains of `depth` `t` elements under one `comb` element.
fn comb_graph(teeth: usize, depth: usize) -> Graph {
    fn add(g: &mut Graph, parent: NodeId, label: &str) -> NodeId {
        let n = g.add_node(label, None);
        g.insert_edge(parent, n, EdgeKind::Child).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        n
    }
    let mut g = Graph::new();
    let root = g.root();
    let comb = add(&mut g, root, "comb");
    for _ in 0..teeth {
        (0..depth).fold(comb, |prev, _| add(&mut g, prev, "t"));
    }
    g
}

/// `n` `movie` elements under the root, each with a `title` and a
/// `year` child; returns the graph and the last movie.
fn wide_siblings(n: usize) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let root = g.root();
    let mut last = root;
    for _ in 0..n {
        last = g.add_node("movie", None);
        g.insert_edge(root, last, EdgeKind::Child).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        for label in ["title", "year"] {
            let c = g.add_node(label, None);
            g.insert_edge(last, c, EdgeKind::Child).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        }
    }
    (g, last)
}

/// The batch that adds one `movie` subtree of [`wide_siblings`] under
/// `root`.
fn add_movie(root: NodeId) -> Vec<UpdateOp> {
    let edge = |from, to| UpdateOp::InsertEdge {
        from,
        to,
        kind: EdgeKind::Child,
    };
    let mut batch: Vec<UpdateOp> = ["movie", "title", "year"]
        .iter()
        .map(|&label| UpdateOp::AddNode {
            label: label.into(),
        })
        .collect();
    batch.push(edge(NodeRef::Existing(root), NodeRef::New(0)));
    batch.push(edge(NodeRef::New(0), NodeRef::New(1)));
    batch.push(edge(NodeRef::New(0), NodeRef::New(2)));
    batch
}

fn write_artifact(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("xsi_perf_smoke: write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("{what} written to {path}");
}

fn main() {
    let args = Args::parse_env();
    // Black box: a panic anywhere in the benchmark body snapshots
    // message/location/open-spans pre-unwind; the catch_unwind below
    // dumps the capture as JSONL and exits 101 instead of losing a CI
    // soak's evidence to the default abort message.
    postmortem::arm(true);
    let pm_out = args
        .str("postmortem-out")
        .unwrap_or("xsi_perf_smoke.postmortem.jsonl")
        .to_owned();
    if catch_unwind(AssertUnwindSafe(|| run(&args))).is_err() {
        let capture = postmortem::last_capture();
        match postmortem::write_blackbox(std::path::Path::new(&pm_out), capture.as_ref(), &[], None)
        {
            Ok(lines) => {
                eprintln!("xsi_perf_smoke: panicked; black box ({lines} lines) at {pm_out}")
            }
            Err(e) => eprintln!("xsi_perf_smoke: panicked AND the black box failed: {e}"),
        }
        std::process::exit(101);
    }
}

fn run(args: &Args) {
    let scale = args.f64("scale", 0.05);
    let seed = args.u64("seed", 42);

    // Fail fast on unwritable destinations instead of burning the full
    // benchmark run first; CI points these at target/perf which may not
    // exist yet.
    for flag in ["json", "bench-out", "metrics-out"] {
        if let Some(path) = args.str(flag) {
            if let Some(dir) = std::path::Path::new(&path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("xsi_perf_smoke: cannot create {}: {e}", dir.display());
                    std::process::exit(2);
                }
            }
        }
    }
    let want_counters = args.str("bench-out").is_some();

    let mut results: Vec<(MicroResult, SpanSummary)> = Vec::new();
    group(&format!("perf_smoke / xmark(scale={scale}, seed={seed})"));

    {
        let (mut g, edges) = setup(scale, seed);
        let mut idx = OneIndex::build(&g);
        let mut i = 0usize;
        let mut work = || {
            let (u, v) = edges[i % edges.len()]; // xsi-lint: allow(slice-index, i mod len is in range)
            i += 1;
            idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
            idx.delete_edge(&mut g, u, v).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        };
        let r = bench_value("1index_pair", &mut work);
        let c = if want_counters {
            instrumented(&mut work)
        } else {
            SpanSummary::default()
        };
        results.push((r, c));
    }
    {
        let (mut g, edges) = setup(scale, seed);
        let mut idx = AkIndex::build(&g, 3);
        let mut i = 0usize;
        let mut work = || {
            let (u, v) = edges[i % edges.len()]; // xsi-lint: allow(slice-index, i mod len is in range)
            i += 1;
            idx.insert_edge(&mut g, u, v, EdgeKind::IdRef).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
            idx.delete_edge(&mut g, u, v).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        };
        let r = bench_value("ak3_pair", &mut work);
        let c = if want_counters {
            instrumented(&mut work)
        } else {
            SpanSummary::default()
        };
        results.push((r, c));
    }
    {
        let (g, _) = setup(scale, seed);
        let mut build1 = || OneIndex::build(&g);
        let r = bench_value("1index_build", &mut build1);
        let c = if want_counters {
            instrumented(&mut build1)
        } else {
            SpanSummary::default()
        };
        results.push((r, c));
        let mut build_ak = || AkIndex::build(&g, 3);
        let r = bench_value("ak3_build", &mut build_ak);
        let c = if want_counters {
            instrumented(&mut build_ak)
        } else {
            SpanSummary::default()
        };
        results.push((r, c));
    }
    for (name, g) in [
        // A one-tooth comb is a single-label chain.
        ("1index_build_chain", comb_graph(1, 4_000)),
        ("1index_build_comb", comb_graph(40, 100)),
    ] {
        let mut build = || OneIndex::build(&g);
        let r = bench_value(name, &mut build);
        let c = if want_counters {
            instrumented(&mut build)
        } else {
            SpanSummary::default()
        };
        results.push((r, c));
    }
    {
        let (mut g, mut movie) = wide_siblings(10_000);
        let mut one = OneIndex::build(&g);
        let mut ak = AkIndex::build(&g, 2);
        let mut work = || {
            let remove: Vec<UpdateOp> = std::iter::once(movie)
                .chain(g.succ(movie))
                .map(|node| UpdateOp::RemoveNode { node })
                .collect();
            let add = add_movie(g.root());
            let mut both: [&mut dyn StructuralIndex; 2] = [&mut one, &mut ak];
            apply_batch_traced(&mut both, &mut g, &remove).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
            let (added, _) = apply_batch_traced(&mut both, &mut g, &add).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
            movie = added.created[0]; // xsi-lint: allow(slice-index, the add batch creates three nodes)
        };
        let r = bench_value("subtree_remove_wide", &mut work);
        let c = if want_counters {
            instrumented(&mut work)
        } else {
            SpanSummary::default()
        };
        results.push((r, c));
    }
    // Engine for the freeze bench; kept alive to the end of main so the
    // --metrics-out export (store reports included) can reuse it.
    let mut engine = {
        // Freeze cost: O(blocks) Arc bumps per family, no extent copies
        // (the dropped snapshots decref the same Arcs — both sides of
        // the copy-on-write contract are in the loop).
        let (g, _) = setup(scale, seed);
        let mut engine = UpdateEngine::new(g);
        engine.register(Box::new(OneIndex::build(engine.graph())));
        engine.register(Box::new(AkIndex::build(engine.graph(), 3)));
        if args.str("metrics-out").is_some() {
            engine.obs_mut().enable_metrics();
        }
        let mut work = || engine.freeze();
        let r = bench_value("snapshot_freeze", &mut work);
        let c = if want_counters {
            instrumented(&mut work)
        } else {
            SpanSummary::default()
        };
        results.push((r, c));
        engine
    };
    {
        // Query evaluation over a frozen view: the raw block walk on
        // owned data, no live graph or index in sight.
        let (g, _) = setup(scale, seed);
        let idx = OneIndex::build(&g);
        let snap = idx
            .freeze(&g)
            .expect("invariant: the 1-index supports freeze");
        let expr = PathExpr::parse(FROZEN_QUERY).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
        results.push((
            bench_value("frozen_query", || eval_index_raw(&snap, &expr)),
            SpanSummary::default(),
        ));
    }
    {
        // Reader throughput: 4 threads answering the same query over one
        // shared frozen snapshot (ns per 4-reader round, spawn included).
        let (g, _) = setup(scale, seed);
        let idx = OneIndex::build(&g);
        let snap = Arc::new(
            idx.freeze(&g)
                .expect("invariant: the 1-index supports freeze"),
        );
        results.push((
            bench_value("frozen_reader_throughput", || {
                let readers: Vec<_> = (0..4)
                    .map(|_| {
                        let snap = Arc::clone(&snap);
                        std::thread::spawn(move || {
                            let expr = PathExpr::parse(FROZEN_QUERY).unwrap(); // xsi-lint: allow(panic-unwrap, bench harness aborts loudly on a broken workload)
                            eval_index_raw(&*snap, &expr).len()
                        })
                    })
                    .collect();
                readers
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .expect("invariant: frozen-view readers never panic")
                    })
                    .sum::<usize>()
            }),
            SpanSummary::default(),
        ));
    }

    if let Some(path) = args.str("json") {
        // Legacy flat record (xsi-perf-smoke-v1), kept for downstream
        // scripts that predate the trajectory schema.
        let mut out = String::from("{\"benchmarks\":[");
        for (i, (r, _)) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"median_ns\":{:.0},\"min_ns\":{:.0},\"max_ns\":{:.0},\"iters\":{}}}",
                r.name, r.median_ns, r.min_ns, r.max_ns, r.iters
            ));
        }
        out.push_str(&format!(
            "],\"scale\":{scale},\"seed\":{seed},\"schema\":\"xsi-perf-smoke-v1\"}}\n"
        ));
        write_artifact(path, &out, "perf-smoke JSON");
    }

    if let Some(path) = args.str("bench-out") {
        let mut out = String::from("{\n  \"schema\": \"xsi-bench-trajectory-v1\",\n");
        out.push_str(&format!("  \"scale\": {scale},\n  \"seed\": {seed},\n"));
        out.push_str("  \"benches\": [\n");
        for (i, (r, c)) in results.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let tier = if TIER1.contains(&r.name.as_str()) {
                1
            } else {
                2
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"tier\": {tier}, \"median_ns\": {:.0}, \"p90_ns\": {:.0}, \
                 \"min_ns\": {:.0}, \"max_ns\": {:.0}, \"iters\": {}, \"noise_pct\": {:.1}, \
                 \"counters\": {{\"spans\": {}, \"compound_process\": {}, \"kernel_scans\": {}, \
                 \"blocks\": {}, \"elems\": {}}}}}",
                r.name,
                r.median_ns,
                r.p90_ns,
                r.min_ns,
                r.max_ns,
                r.iters,
                noise_pct(r),
                c.spans,
                c.compound_process,
                c.kernel_scans,
                c.blocks,
                c.elems,
            ));
        }
        out.push_str("\n  ]\n}\n");
        write_artifact(path, &out, "trajectory record");
    }

    if let Some(path) = args.str("metrics-out") {
        // Store AND mem/quality reports are published inside
        // export_metrics_json, so probe-length/spill telemetry and the
        // mem_*/quality_* attribution always land in the artifact.
        match engine.export_metrics_json() {
            Some(metrics) => write_artifact(path, &metrics, "metrics registry"),
            None => {
                eprintln!("xsi_perf_smoke: metrics were not enabled (internal flag ordering bug)");
                std::process::exit(2);
            }
        }
    }
}
