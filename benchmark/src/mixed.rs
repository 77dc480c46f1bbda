//! `imdb-mixed`: reads beside writes on clustered IMDB. A seeded mix of
//! path queries (live 1-index, live A(2) with validation, and a frozen
//! 1-index snapshot), single-edge IDREF updates, movie subtrees removed
//! and re-added as batches, and a periodic `freeze()`. This is the only
//! workload in which `xsi-query`, the view layer and batches do work.

use std::time::Instant;

use xsi_core::{IndexSnapshot, NodeRef, UpdateOp};
use xsi_graph::{extract_subtree, EdgeKind, Graph, NodeId};
use xsi_query::{
    eval_ak_index, eval_ak_validated, eval_graph, eval_index_raw, eval_one_index, PathExpr,
};
use xsi_workload::{generate_imdb, EdgePool, ImdbParams, SplitMix64};

use crate::common::{
    median, ns_since, passes, Checks, Config, Metrics, Outcome, PerStretch, Samples, Stop,
};
use crate::speed::Speed;
use crate::update::{Direct, Indexed, TracedLegs};

/// The fixed query set: rooted paths no longer than k = 2 (answered
/// exactly by A(2)), rooted paths longer than k (A(2) must validate) and
/// `//` paths. The sequel chain query looks further back than two steps,
/// so A(2) returns candidates that validation must drop.
const QUERIES: [&str; 9] = [
    "/imdb/movies",
    "/imdb/people",
    "/imdb/movies/movie/title",
    "/imdb/movies/movie/cast/actor",
    "/imdb/people/person/filmography/acted_in",
    "//sequel_of",
    "//movie/releases/release",
    "//person/name",
    "//sequel_of/movie/sequel_of/movie",
];

/// Operations per pass; each pass starts from a freshly generated graph.
const PASS_OPS: u64 = 2000;
/// Shares of the operations other than freezes: queries, then single-edge
/// updates; the rest are subtree remove-and-re-add pairs. Each kind is to
/// take a third of the operation time, so the shares are proportional to
/// the inverse of each kind's mean time on the commit that defined the
/// benchmark (queries 520 µs, updates 240 µs, pairs 0.70 ms; README.md).
/// The run prints the shares it gets as `time_frac.*`.
const QUERY_SHARE: f64 = 0.26;
const UPDATE_SHARE: f64 = 0.55;
/// Every `FREEZE_EVERY`-th operation freezes the indexes: often enough
/// that a snapshot serves, on average, each of the nine queries once
/// (queries pick one of three targets, so 9 × 3 / `QUERY_SHARE` ≈ 104
/// operations), with about 77 writes to the live graph in between.
const FREEZE_EVERY: u64 = 104;
const POOL_FRACTION: f64 = 0.2;

struct State {
    ix: Indexed,
    pool: EdgePool,
    /// The `movies` element the movie subtrees hang from.
    movies: NodeId,
    /// Current roots of the movie subtrees that touch no IDREF edge, so
    /// removing them never invalidates a pooled edge.
    roots: Vec<NodeId>,
    rng: SplitMix64,
    queries: Vec<PathExpr>,
    /// The latest 1-index snapshot and each query's data-graph answer at
    /// the moment it was frozen.
    snapshot: Option<(IndexSnapshot, Vec<Vec<NodeId>>)>,
    /// Data-graph answers for the current graph, cleared on every write.
    oracle: Vec<Option<Vec<NodeId>>>,
    edge_ops: u64,
    generate_s: f64,
    build_s: f64,
    direct: Option<Direct>,
}

/// Movie subtrees with no IDREF edge inside or across their boundary,
/// other than the containment edge from `movies`.
fn free_movies(g: &Graph, movies: NodeId) -> Vec<NodeId> {
    g.succ(movies)
        .filter(|&m| {
            let (sub, _) = extract_subtree(g, m);
            sub.incoming.len() == 1
                && sub.outgoing.is_empty()
                && sub.internal_edges().iter().all(|e| e.2 == EdgeKind::Child)
        })
        .collect()
}

fn setup(cfg: &Config, seed: u64, direct: bool) -> State {
    let t = Instant::now();
    let mut g = generate_imdb(&ImdbParams::new(cfg.scale.mixed_imdb, seed));
    let movies = g
        .nodes()
        .find(|&n| g.label_name(n) == "movies")
        .expect("IMDB has a movies element");
    let roots = free_movies(&g, movies);
    let pool = EdgePool::extract(&mut g, POOL_FRACTION, seed);
    let generate_s = t.elapsed().as_secs_f64();
    let (ix, direct, build_s) = Indexed::build(g, direct);
    let queries: Vec<PathExpr> = QUERIES
        .iter()
        .map(|q| PathExpr::parse(q).expect("the fixed queries parse"))
        .collect();
    State {
        ix,
        pool,
        movies,
        roots,
        rng: SplitMix64::seed_from_u64(seed),
        oracle: vec![None; queries.len()],
        queries,
        snapshot: None,
        edge_ops: 0,
        generate_s,
        build_s,
        direct,
    }
}

/// Latencies by operation kind.
#[derive(Default)]
struct Lat {
    all: Samples,
    query: Samples,
    update: Samples,
    subtree: Samples,
    freeze: Samples,
}

impl Lat {
    fn extend(&mut self, other: &Lat) {
        self.all.extend(&other.all);
        self.query.extend(&other.query);
        self.update.extend(&other.update);
        self.subtree.extend(&other.subtree);
        self.freeze.extend(&other.freeze);
    }
}

impl State {
    fn oracle(&mut self, q: usize, tl: &mut Option<TracedLegs>) -> Vec<NodeId> {
        let g = self.ix.engine.graph();
        // The traced run times the data-graph oracle on every query.
        if let Some(tl) = tl {
            let t = Instant::now();
            let a = eval_graph(g, &self.queries[q]);
            tl.trace.record("query.graph", ns_since(t));
            return a;
        }
        self.oracle[q]
            .get_or_insert_with(|| eval_graph(g, &self.queries[q]))
            .clone()
    }

    fn wrote(&mut self) {
        self.oracle.iter_mut().for_each(|a| *a = None);
    }

    fn query(&mut self, checks: &mut Checks, tl: &mut Option<TracedLegs>) -> u64 {
        let q = self.rng.random_range(0..self.queries.len());
        let targets: usize = if self.snapshot.is_some() { 3 } else { 2 };
        let target = self.rng.random_range(0..targets);
        let expr = &self.queries[q];
        let g = self.ix.engine.graph();
        let t = Instant::now();
        let (span, got) = match target {
            0 => (
                "query.oneindex",
                eval_one_index(g, self.ix.one_index(), expr),
            ),
            1 => (
                "query.ak_validated",
                eval_ak_validated(g, self.ix.ak_index(), expr),
            ),
            _ => {
                let (snap, _) = self.snapshot.as_ref().expect("snapshot target drawn");
                ("query.snapshot", eval_index_raw(snap, expr))
            }
        };
        let ns = ns_since(t);
        if let Some(tl) = tl {
            tl.trace.record(span, ns);
            tl.main_ns += ns;
            if target == 1 {
                tl.ak_candidates += eval_ak_index(g, self.ix.ak_index(), expr).len() as u64;
                tl.ak_results += got.len() as u64;
            }
        }
        if target == 2 {
            let (_, answers) = self.snapshot.as_ref().expect("snapshot target drawn");
            checks.answer(QUERIES[q], &got, &answers[q]);
        } else {
            let expected = self.oracle(q, tl);
            checks.answer(QUERIES[q], &got, &expected);
        }
        ns
    }

    fn edge_update(&mut self, checks: &mut Checks, tl: &mut Option<TracedLegs>) -> Option<u64> {
        let insert = self.edge_ops.is_multiple_of(2);
        self.edge_ops += 1;
        let edge = if insert {
            self.pool.next_insert()
        } else {
            self.pool.next_delete()
        };
        let edge = checks.op("edge pool", edge.ok_or("pool exhausted"))?;
        self.wrote();
        self.ix.edge_update(insert, edge, checks, tl)
    }

    /// Removes one free movie subtree and re-adds it, as two batches.
    fn subtree_pair(&mut self, checks: &mut Checks, tl: &mut Option<TracedLegs>) -> Option<u64> {
        let k = self.rng.random_range(0..self.roots.len());
        let root = self.roots[k];
        let (sub, members) = extract_subtree(self.ix.engine.graph(), root);
        let mut remove = vec![UpdateOp::DeleteEdge {
            from: self.movies,
            to: root,
        }];
        remove.extend(members.iter().map(|&node| UpdateOp::RemoveNode { node }));
        let mut add: Vec<UpdateOp> = (0..sub.node_count() as u32)
            .map(|i| UpdateOp::AddNode {
                label: sub.label(i).to_owned(),
            })
            .collect();
        add.push(UpdateOp::InsertEdge {
            from: NodeRef::Existing(self.movies),
            to: NodeRef::New(sub.root_local() as usize),
            kind: EdgeKind::Child,
        });
        add.extend(
            sub.internal_edges()
                .iter()
                .map(|&(a, b, kind)| UpdateOp::InsertEdge {
                    from: NodeRef::New(a as usize),
                    to: NodeRef::New(b as usize),
                    kind,
                }),
        );
        self.wrote();
        let (_, remove_ns) = self.ix.batch("batch.remove", &remove, checks, tl)?;
        let (added, add_ns) = self.ix.batch("batch.add", &add, checks, tl)?;
        self.roots[k] = added.created[sub.root_local() as usize];
        Some(remove_ns + add_ns)
    }

    fn freeze(&mut self, tl: &mut Option<TracedLegs>) -> u64 {
        let t = Instant::now();
        let snaps = self.ix.engine.freeze();
        let ns = ns_since(t);
        if let Some(tl) = tl {
            tl.trace.record("view.freeze", ns);
            tl.main_ns += ns;
        }
        let g = self.ix.engine.graph();
        let answers = self.queries.iter().map(|q| eval_graph(g, q)).collect();
        // Registration order: the 1-index snapshot comes first.
        let snap = snaps
            .into_iter()
            .next()
            .flatten()
            .expect("the 1-index freezes");
        self.snapshot = Some((snap, answers));
        ns
    }
}

/// Runs [`PASS_OPS`] operations of the mix.
fn mix(s: &mut State, lat: &mut Lat, checks: &mut Checks, tl: &mut Option<TracedLegs>) {
    TracedLegs::attach(tl, s.direct.take());
    for op in 1..=PASS_OPS {
        let ns = if op % FREEZE_EVERY == 0 {
            let ns = s.freeze(tl);
            lat.freeze.push(ns);
            Some(ns)
        } else {
            let r = s.rng.next_f64();
            if r < QUERY_SHARE {
                let ns = s.query(checks, tl);
                lat.query.push(ns);
                Some(ns)
            } else if r < QUERY_SHARE + UPDATE_SHARE {
                let ns = s.edge_update(checks, tl);
                ns.inspect(|&ns| lat.update.push(ns))
            } else {
                let ns = s.subtree_pair(checks, tl);
                ns.inspect(|&ns| lat.subtree.push(ns))
            }
        };
        if let Some(ns) = ns {
            lat.all.push(ns);
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut checks = Checks::new(cfg.corrupt);
    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let mut setups = Vec::new();
    // Index memory at the end of each pass.
    let mut mib = Vec::new();
    let mut lat = Lat::default();

    if !cfg.trace {
        // One stretch between samples of the machine's speed per pass.
        let mut stretches = PerStretch::default();
        let mut speed = Speed::new();
        speed.sample();
        let (_, s) = passes(
            cfg.seed,
            Stop::After(cfg.budget),
            &mut setups,
            |seed| setup(cfg, seed, false),
            |s| {
                let mut pass = Lat::default();
                mix(s, &mut pass, &mut checks, &mut None);
                speed.sample();
                stretches.add(&pass.all);
                lat.extend(&pass);
                let (one, ak) = s.ix.index_mib();
                mib.push(one + ak);
            },
        );
        let quality = s.ix.final_checks(&mut checks);
        let scales = speed.scales();
        metrics.set("setup_s", median(&setups) * median(&scales), "s");
        metrics.set("ops_per_s", stretches.per_s(&scales), "1/s");
        metrics.set("op_us_p50", stretches.p50_us(&scales), "us");
        metrics.set("op_us_p99", stretches.p99_us(&scales), "us");
        metrics.set("index_mib", median(&mib), "MiB");
        extra.set("update_us_p50", lat.update.p50() / 1e3, "us");
        extra.set("update_us_p99", lat.update.p99() / 1e3, "us");
        extra.set("query_us_p50", lat.query.p50() / 1e3, "us");
        extra.set("query_us_p99", lat.query.p99() / 1e3, "us");
        extra.set("subtree_ms_p50", lat.subtree.p50() / 1e6, "ms");
        // Each kind's share of operation time: the basis of the mix.
        let total = lat.all.sum().max(1) as f64;
        for (kind, samples) in [
            ("query", &lat.query),
            ("update", &lat.update),
            ("subtree", &lat.subtree),
            ("freeze", &lat.freeze),
        ] {
            extra.set(
                &format!("time_frac.{kind}"),
                samples.sum() as f64 / total,
                "ratio",
            );
            extra.set(
                &format!("mean_us.{kind}"),
                samples.sum() as f64 / samples.len().max(1) as f64 / 1e3,
                "us",
            );
        }
        extra.set("quality_1index", quality, "ratio");
        speed.report(&mut extra);
        extra.set("dnodes", s.ix.engine.graph().node_count() as f64, "count");
        extra.set("dedges", s.ix.engine.graph().edge_count() as f64, "count");
        extra.set("op_samples", lat.all.len() as f64, "count");
        extra.set("update_samples", lat.update.len() as f64, "count");
        extra.set("query_samples", lat.query.len() as f64, "count");
        extra.set("subtree_samples", lat.subtree.len() as f64, "count");
        return Outcome {
            checks,
            metrics,
            extra,
        };
    }

    // Traced run, as in `xmark-churn`: untraced passes for half the
    // budget, then the same passes again with spans and the direct leg.
    let (n, _) = passes(
        cfg.seed,
        Stop::After(cfg.budget / 2),
        &mut setups,
        |seed| setup(cfg, seed, false),
        |s| mix(s, &mut lat, &mut checks, &mut None),
    );
    let untraced_ns = lat.all.sum();
    let mut tl = None;
    let (_, s) = passes(
        cfg.seed,
        Stop::Count(n),
        &mut setups,
        |seed| setup(cfg, seed, true),
        |s| mix(s, &mut Lat::default(), &mut checks, &mut tl),
    );
    s.ix.final_checks(&mut checks);
    let tl = tl.expect("traced passes build the traced legs");
    tl.report(&mut metrics, &s.ix, untraced_ns);
    let t = &tl.trace;
    let us = |name: &str| t.samples(name).p50() / 1e3;
    metrics.set("batch.remove_us_p50", us("batch.remove"), "us");
    metrics.set("batch.add_us_p50", us("batch.add"), "us");
    metrics.set("query.oneindex_us_p50", us("query.oneindex"), "us");
    metrics.set("query.ak_validated_us_p50", us("query.ak_validated"), "us");
    metrics.set("query.snapshot_us_p50", us("query.snapshot"), "us");
    metrics.set("query.graph_us_p50", us("query.graph"), "us");
    metrics.set(
        "query.index_speedup",
        us("query.graph") / us("query.oneindex").max(f64::MIN_POSITIVE),
        "ratio",
    );
    metrics.set(
        "query.ak_candidates_per_result",
        tl.ak_candidates as f64 / tl.ak_results.max(1) as f64,
        "ratio",
    );
    metrics.set("view.freeze_us_p50", us("view.freeze"), "us");
    metrics.set("setup.generate_s", s.generate_s, "s");
    metrics.set("setup.build_s", s.build_s, "s");
    Outcome {
        checks,
        metrics,
        extra,
    }
}
