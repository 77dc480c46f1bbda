//! `doc-load`: each round parses XML text with `xsi_xml::parse_str` and
//! builds the 1-index and A(3) for every document of two groups.
//!
//! * `docs` — serialized XMark, IMDB and DBLP: shallow documents on which
//!   1-index construction converges in few refinement rounds.
//! * `shapes` — a single-label chain, an alternating a/b chain, a comb of
//!   depth-100 chains and a long IDREF cycle: deep documents that hit the
//!   quadratic 1-index build.
//!
//! Construction does all of the work here, while the other workloads
//! build only during set-up. A faster refinement kernel should move the
//! `shapes` figures and leave the `docs` figures alone.

use std::time::Instant;

use xsi_core::obs::span::{self, SpanKind};
use xsi_core::reference::{bisim_classes, canonical_partition, k_bisim_chain};
use xsi_core::{AkIndex, OneIndex, StructuralIndex};
use xsi_graph::Graph;
use xsi_workload::{
    generate_dblp, generate_imdb, generate_xmark, DblpParams, ImdbParams, XmarkParams,
};
use xsi_xml::{parse_str, serialize, ParseOptions, SerializeOptions};

use crate::common::{index_bytes, median, ns_since, Checks, Config, Metrics, Outcome, Stop, MIB};
use crate::speed::Speed;

/// The A(k) parameter of the construction workload.
const K: usize = 3;
/// Depth of each comb tooth.
const TOOTH: usize = 100;
/// Builds per chain length in the doubling sweep; the median is used.
const SWEEP_REPEATS: usize = 3;
/// Set-ups timed before the rounds; the last one is used.
const SETUPS_BEFORE: usize = 5;
/// Set-ups timed after the rounds, so that `setup_s`, the median of all
/// of them, does not hang on one moment's machine load.
const SETUPS_AFTER: usize = 4;

/// Runs `setup` `n` times, appending each duration to `times`; returns
/// the last result.
fn time_setups<T>(n: usize, mut setup: impl FnMut() -> T, times: &mut Vec<f64>) -> T {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    Docs,
    Shapes,
}

/// One input document: its text and what parsing and indexing it must give.
struct Doc {
    name: &'static str,
    group: Group,
    xml: String,
    nodes: usize,
    edges: usize,
    /// Exact 1-index size where the shape determines it; `None` for the
    /// generated documents, which are checked against the reference
    /// bisimulation instead.
    blocks: Option<usize>,
}

fn generated(name: &'static str, g: &Graph) -> Doc {
    let options = SerializeOptions {
        indent: None,
        ..SerializeOptions::default()
    };
    Doc {
        name,
        group: Group::Docs,
        xml: serialize(g, &options).expect("generated documents are containment trees"),
        nodes: g.node_count(),
        edges: g.edge_count(),
        blocks: None,
    }
}

/// A chain of `labels.len()`-periodic labels, `depth` elements deep,
/// written directly (the serializer recurses once per nesting level).
/// Every element is its own bisimulation class.
fn chain(name: &'static str, labels: &[&str], depth: usize) -> Doc {
    let mut xml = String::new();
    for i in 0..depth {
        xml.push_str(&format!("<{}>", labels[i % labels.len()]));
    }
    for i in (0..depth).rev() {
        xml.push_str(&format!("</{}>", labels[i % labels.len()]));
    }
    Doc {
        name,
        group: Group::Shapes,
        xml,
        nodes: depth + 1,
        edges: depth,
        blocks: Some(depth + 1),
    }
}

/// `teeth` single-label chains of depth [`TOOTH`] under one `comb`
/// element: one class per depth, plus the root and the comb.
fn comb(teeth: usize) -> Doc {
    let tooth = format!("{}{}", "<t>".repeat(TOOTH), "</t>".repeat(TOOTH));
    Doc {
        name: "comb",
        group: Group::Shapes,
        xml: format!("<comb>{}</comb>", tooth.repeat(teeth)),
        nodes: 2 + teeth * TOOTH,
        edges: 1 + teeth * TOOTH,
        blocks: Some(2 + TOOTH),
    }
}

/// A single-label chain whose tail references its head: the head is the
/// only node with two parents, so every element is its own class.
fn cycle(depth: usize) -> Doc {
    let xml = format!(
        "<c id=\"head\">{}<c refs=\"head\"/>{}</c>",
        "<c>".repeat(depth - 2),
        "</c>".repeat(depth - 2)
    );
    Doc {
        name: "cycle",
        group: Group::Shapes,
        xml,
        nodes: depth + 1,
        edges: depth + 1,
        blocks: Some(depth + 1),
    }
}

/// The documents, the `docs` group first: `rounds` samples the machine's
/// speed where the group changes.
fn documents(cfg: &Config) -> Vec<Doc> {
    let s = cfg.scale;
    vec![
        generated(
            "xmark",
            &generate_xmark(&XmarkParams::new(s.load_docs, 1.0, cfg.seed)),
        ),
        generated(
            "imdb",
            &generate_imdb(&ImdbParams::new(s.load_docs, cfg.seed)),
        ),
        generated(
            "dblp",
            &generate_dblp(&DblpParams::new(s.load_docs, cfg.seed)),
        ),
        chain("chain", &["a"], s.shape_chain),
        chain("ab-chain", &["a", "b"], s.shape_chain),
        comb(s.comb_teeth),
        cycle(s.shape_chain),
    ]
}

/// One document parsed and indexed. With `steps` (the traced run) each
/// call is timed on its own; otherwise the load is timed as a whole and
/// the step times stay 0.
struct Loaded {
    graph: Graph,
    one: OneIndex,
    ak: AkIndex,
    total_ns: u64,
    steps: Round,
}

fn load(doc: &Doc, steps: bool, checks: &mut Checks) -> Option<Loaded> {
    let options = ParseOptions::default();
    let mut r = Round::default();
    let timed = |ns: &mut u64, t: Instant| {
        if steps {
            *ns = ns_since(t);
        }
    };
    let start = Instant::now();
    let parsed = parse_str(&doc.xml, &options);
    timed(&mut r.parse_ns, start);
    let graph = checks.op(doc.name, parsed)?.graph;
    let t = Instant::now();
    let one = OneIndex::build(&graph);
    timed(&mut r.one_ns, t);
    let t = Instant::now();
    let ak = AkIndex::build(&graph, K);
    timed(&mut r.ak_ns, t);
    Some(Loaded {
        total_ns: ns_since(start),
        graph,
        one,
        ak,
        steps: r,
    })
}

/// Checks every load: parsed counts equal the source's, and the 1-index
/// size is the expected one (the first round's, after `thorough` checks).
fn check_load(doc: &Doc, l: &Loaded, first_blocks: Option<usize>, checks: &mut Checks) {
    checks.count(
        &format!("{} nodes", doc.name),
        l.graph.node_count(),
        doc.nodes,
    );
    checks.count(
        &format!("{} edges", doc.name),
        l.graph.edge_count(),
        doc.edges,
    );
    if let Some(b) = first_blocks {
        checks.count(
            &format!("{} 1-index blocks", doc.name),
            l.one.block_count(),
            b,
        );
    }
}

/// The first round's checks against independent oracles: both indexes
/// pass their consistency checks, A(3) equals the reference 3-bisimulation
/// (Theorem 2), and the 1-index equals the minimum — the shape's known
/// class count, or the reference bisimulation of a generated document.
fn check_thoroughly(doc: &Doc, l: &Loaded, checks: &mut Checks) {
    let g = &l.graph;
    checks.oracle(&format!("{} 1-index", doc.name), l.one.check(g));
    checks.oracle(&format!("{} A(k)", doc.name), l.ak.check(g));
    let chain = k_bisim_chain(g, K);
    checks.check(
        l.ak.canonical() == canonical_partition(g, &chain[K]),
        || {
            format!(
                "{}: A(k) differs from the reference k-bisimulation",
                doc.name
            )
        },
    );
    match doc.blocks {
        Some(b) => checks.count(
            &format!("{} 1-index blocks", doc.name),
            l.one.block_count(),
            b,
        ),
        None => checks.check(
            l.one.canonical() == canonical_partition(g, &bisim_classes(g)),
            || {
                format!(
                    "{}: 1-index differs from the reference bisimulation",
                    doc.name
                )
            },
        ),
    }
}

/// Per-group sums of one round's step times.
#[derive(Default, Clone, Copy)]
struct Round {
    parse_ns: u64,
    one_ns: u64,
    ak_ns: u64,
}

/// One point of the chain doubling sweep on a single-label chain of `n`
/// elements: `OneIndex::build` time (median of [`SWEEP_REPEATS`]) and the
/// `elems` of the `KernelScan` spans that `OneIndex::build` and
/// `AkIndex::build` open.
fn sweep_point(n: usize, checks: &mut Checks) -> (f64, u64, u64) {
    let doc = chain("sweep-chain", &["a"], n);
    let Some(parsed) = checks.op("sweep chain", parse_str(&doc.xml, &ParseOptions::default()))
    else {
        return (0.0, 0, 0);
    };
    let g = parsed.graph;
    let mut times = Vec::new();
    for _ in 0..SWEEP_REPEATS {
        let t = Instant::now();
        let one = OneIndex::build(&g);
        times.push(t.elapsed().as_secs_f64());
        checks.count("sweep chain 1-index blocks", one.block_count(), n + 1);
    }
    let scanned = |build: &dyn Fn()| {
        span::begin_collection();
        build();
        span::end_collection()
            .kind_counters(SpanKind::KernelScan)
            .elems
    };
    let one = scanned(&|| drop(std::hint::black_box(OneIndex::build(&g))));
    let ak = scanned(&|| drop(std::hint::black_box(AkIndex::build(&g, K))));
    (median(&times), one, ak)
}

/// Loads every document in whole rounds, so each is loaded equally
/// often, until `stop`. The first round is checked against the oracles.
/// `speed` is sampled before each round and after each of its two
/// groups, so `speed.scales()` holds two scales per round: the `docs`
/// group's, then the `shapes` group's.
fn rounds(docs: &[Doc], stop: Stop, steps: bool, speed: &mut Speed, checks: &mut Checks) -> Rounds {
    let mut out = Rounds::default();
    let mut blocks: Vec<Option<usize>> = vec![None; docs.len()];
    let start = Instant::now();
    speed.sample();
    while out.groups.is_empty() || !stop.done(start, out.groups.len() as u64) {
        let mut totals = [0u64; 2];
        let mut round = [Round::default(); 2];
        out.last.clear();
        for (i, doc) in docs.iter().enumerate() {
            if i > 0 && doc.group != docs[i - 1].group {
                speed.sample();
            }
            let Some(l) = load(doc, steps, checks) else {
                continue;
            };
            if out.groups.is_empty() {
                check_thoroughly(doc, &l, checks);
                blocks[i] = Some(l.one.block_count());
            }
            check_load(doc, &l, blocks[i], checks);
            let g = usize::from(doc.group == Group::Shapes);
            totals[g] += l.total_ns;
            round[g].parse_ns += l.steps.parse_ns;
            round[g].one_ns += l.steps.one_ns;
            round[g].ak_ns += l.steps.ak_ns;
            out.last.push(l);
        }
        out.groups.push(totals);
        out.steps.push(round);
        speed.sample();
    }
    out
}

#[derive(Default)]
struct Rounds {
    /// Per round: total load time of the docs and of the shapes group.
    groups: Vec<[u64; 2]>,
    /// Per round and group: step times (traced run only).
    steps: Vec<[Round; 2]>,
    /// The last round's loads.
    last: Vec<Loaded>,
}

impl Rounds {
    /// A per-round figure in nanoseconds, in seconds, for every round.
    fn per_round(&self, f: impl Fn(usize) -> u64) -> Vec<f64> {
        (0..self.groups.len()).map(|i| f(i) as f64 / 1e9).collect()
    }

    /// Seconds spent loading documents.
    fn busy_s(&self) -> f64 {
        self.groups.iter().flatten().sum::<u64>() as f64 / 1e9
    }

    fn mib(&self) -> (f64, f64) {
        let one: u64 = self.last.iter().map(|l| index_bytes(&l.one)).sum();
        let ak: u64 = self.last.iter().map(|l| index_bytes(&l.ak)).sum();
        (one as f64 / MIB, ak as f64 / MIB)
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut checks = Checks::new(cfg.corrupt);
    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let mut setups = Vec::new();
    let docs = time_setups(SETUPS_BEFORE, || documents(cfg), &mut setups);
    let mut speed = Speed::new();

    if !cfg.trace {
        let r = rounds(
            &docs,
            Stop::After(cfg.budget),
            false,
            &mut speed,
            &mut checks,
        );
        let (one_mib, ak_mib) = r.mib();
        let scales = speed.scales();
        // Each round's group times, scaled by the group's own scale.
        let group = |g: usize| -> Vec<f64> {
            r.per_round(|i| r.groups[i][g])
                .iter()
                .zip(scales.iter().skip(g).step_by(2))
                .map(|(s, scale)| s * scale)
                .collect()
        };
        let (docs_rounds, shapes_rounds) = (group(0), group(1));
        let whole_rounds: Vec<f64> = docs_rounds
            .iter()
            .zip(&shapes_rounds)
            .map(|(d, s)| d + s)
            .collect();
        let round_s = median(&whole_rounds);
        let docs_s = median(&docs_rounds);
        let shapes_s = median(&shapes_rounds);
        let in_group = |g: Group| docs.iter().filter(|d| d.group == g).count() as f64;
        time_setups(SETUPS_AFTER, || documents(cfg), &mut setups);
        // The set-ups run just before and after the rounds: the run's
        // median scale stands for theirs.
        metrics.set("setup_s", median(&setups) * median(&scales), "s");
        metrics.set("ops_per_s", docs.len() as f64 / round_s, "1/s");
        // Per-group figures, not quantiles over single documents: the
        // generated documents are the typical load, the shapes the slow
        // tail, and neither figure changes meaning if documents reorder.
        metrics.set("op_us_p50", docs_s * 1e6 / in_group(Group::Docs), "us");
        metrics.set("op_us_p99", shapes_s * 1e6 / in_group(Group::Shapes), "us");
        metrics.set("index_mib", one_mib + ak_mib, "MiB");
        extra.set("load_docs_s", docs_s, "s");
        extra.set("load_shapes_s", shapes_s, "s");
        extra.set("rounds", r.groups.len() as f64, "count");
        speed.report(&mut extra);
        for (g, suffix) in [(Group::Docs, "docs"), (Group::Shapes, "shapes")] {
            let of =
                |f: fn(&Doc) -> usize| docs.iter().filter(|d| d.group == g).map(f).sum::<usize>();
            extra.set(&format!("dnodes.{suffix}"), of(|d| d.nodes) as f64, "count");
            extra.set(&format!("dedges.{suffix}"), of(|d| d.edges) as f64, "count");
        }
        return Outcome {
            checks,
            metrics,
            extra,
        };
    }

    // Traced run: untraced rounds for half the budget, then as many rounds
    // again with every call timed, then the chain doubling sweep.
    let untraced = rounds(
        &docs,
        Stop::After(cfg.budget / 2),
        false,
        &mut speed,
        &mut checks,
    );
    let n_rounds = untraced.groups.len() as u64;
    let r = rounds(&docs, Stop::Count(n_rounds), true, &mut speed, &mut checks);
    for (g, suffix) in [(0, "docs"), (1, "shapes")] {
        let s = |f: fn(&Round) -> u64| median(&r.per_round(|i| f(&r.steps[i][g])));
        metrics.set(&format!("xml.parse_s.{suffix}"), s(|x| x.parse_ns), "s");
        metrics.set(&format!("oneindex.build_s.{suffix}"), s(|x| x.one_ns), "s");
        metrics.set(&format!("akindex.build_s.{suffix}"), s(|x| x.ak_ns), "s");
    }
    let n = cfg.scale.sweep_chain;
    let (t1, e1, _) = sweep_point(n, &mut checks);
    let (t2, e2, ak_elems) = sweep_point(2 * n, &mut checks);
    metrics.set("oneindex.build_doubling_ratio", t2 / t1, "ratio");
    metrics.set("kernel.scan_elems", e2 as f64, "count");
    metrics.set(
        "kernel.scan_elems_doubling_ratio",
        e2 as f64 / e1.max(1) as f64,
        "ratio",
    );
    // The A(k) build opens no kernel span today, so this reads 0 until
    // one is added.
    metrics.set("kernel.akindex_scan_elems", ak_elems as f64, "count");
    let (one_mib, ak_mib) = r.mib();
    metrics.set("mem.oneindex_mib", one_mib, "MiB");
    metrics.set("mem.akindex_mib", ak_mib, "MiB");
    metrics.set("setup.generate_s", median(&setups), "s");
    metrics.set(
        "trace.overhead_frac",
        r.busy_s() / untraced.busy_s() - 1.0,
        "ratio",
    );
    Outcome {
        checks,
        metrics,
        extra,
    }
}
