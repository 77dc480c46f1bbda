//! Cross-crate checks for the observability layer: identically seeded
//! runs must produce identical deterministic metrics and identical
//! stable span traces, and the metrics registry must agree with the
//! engine's own op accounting.

use xsi_core::obs::json::Json;
use xsi_core::obs::{span, stable_lines, IndexFamily, MetricKey, SpanKind, SpanTree};
use xsi_core::{AkIndex, IndexHandle, OneIndex, SimpleAkIndex, StructuralIndex, UpdateEngine};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_workload::SplitMix64;

const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// Builds a small random acyclic base graph (edges only from earlier to
/// later handles, mirroring `engine_equivalence.rs`).
fn random_base(rng: &mut SplitMix64) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let mut handles = vec![g.root()];
    for _ in 0..rng.random_range(4..9usize) {
        let l = LABELS[rng.random_range(0..LABELS.len())];
        handles.push(g.add_node(l, None));
    }
    for _ in 0..rng.random_range(3..14usize) {
        let (i, j) = (
            rng.random_range(0..handles.len()),
            rng.random_range(0..handles.len()),
        );
        if i == j {
            continue;
        }
        let (u, v) = (handles[i.min(j)], handles[i.max(j)]);
        let kind = if rng.random_bool(0.7) {
            EdgeKind::Child
        } else {
            EdgeKind::IdRef
        };
        let _ = g.insert_edge(u, v, kind);
    }
    (g, handles)
}

/// Runs one fixed seeded workload through a fully instrumented engine
/// (metrics on, spans collected) and returns it with its span tree.
fn instrumented_run(seed: u64) -> (UpdateEngine, SpanTree) {
    instrumented_run_with(seed, true)
}

/// [`instrumented_run`], with span collection armed only when `spans`.
fn instrumented_run_with(seed: u64, spans: bool) -> (UpdateEngine, SpanTree) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (g, mut handles) = random_base(&mut rng);
    let mut engine = UpdateEngine::new(g);
    engine.obs_mut().enable_metrics();
    if spans {
        span::begin_collection();
    }
    engine.register(Box::new(OneIndex::build(engine.graph())));
    engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));

    for _ in 0..60 {
        match rng.random_range(0..4usize) {
            0 => {
                let l = LABELS[rng.random_range(0..LABELS.len())];
                handles.push(engine.add_node(l, None));
            }
            1 | 2 => {
                let (i, j) = (
                    rng.random_range(0..handles.len()),
                    rng.random_range(0..handles.len()),
                );
                if i != j {
                    let (u, v) = (handles[i.min(j)], handles[i.max(j)]);
                    let _ = engine.insert_edge(u, v, EdgeKind::IdRef);
                }
            }
            _ => {
                let (i, j) = (
                    rng.random_range(0..handles.len()),
                    rng.random_range(0..handles.len()),
                );
                let _ = engine.delete_edge(handles[i], handles[j]);
            }
        }
    }
    (engine, span::end_collection())
}

#[test]
fn identical_seeded_runs_emit_identical_deterministic_state() {
    for seed in [1u64, 7, 0xDEAD] {
        let (a, ta) = instrumented_run(seed);
        let (b, tb) = instrumented_run(seed);
        // Deterministic metrics projection (timing histograms excluded)
        // must be byte-identical.
        assert_eq!(
            a.obs().metrics_deterministic_json(),
            b.obs().metrics_deterministic_json(),
            "seed {seed}: deterministic metrics diverge"
        );
        // The stable span-line projection (timestamps excluded) too.
        let lines = |e: &UpdateEngine, t: &SpanTree| stable_lines(t, e.obs().families(), t.len());
        assert_eq!(
            lines(&a, &ta),
            lines(&b, &tb),
            "seed {seed}: stable traces diverge"
        );
        assert!(!ta.is_empty(), "seed {seed}: no spans");
    }
}

#[test]
fn span_collection_does_not_perturb_metrics() {
    let (traced, tree) = instrumented_run(11);
    assert!(!tree.is_empty());
    // The same run with span collection left off.
    let (untraced, _) = instrumented_run_with(11, false);
    assert_eq!(
        traced.obs().metrics_deterministic_json(),
        untraced.obs().metrics_deterministic_json()
    );
}

#[test]
fn metrics_op_counters_match_engine_stats() {
    let (engine, _) = instrumented_run(42);
    let v = Json::parse(&engine.obs().metrics_json()).expect("valid metrics JSON");
    let counters = v.get("counters").and_then(Json::as_arr).expect("counters");
    let ops_total: f64 = counters
        .iter()
        .filter(|c| c.get("name").and_then(Json::as_str) == Some("ops_total"))
        .filter_map(|c| c.get("value").and_then(Json::as_f64))
        .sum();
    assert_eq!(
        ops_total as usize,
        engine.stats().ops,
        "sum of ops_total series must equal EngineStats::ops"
    );
}

#[test]
fn span_tree_has_one_op_per_engine_op_and_one_dispatch_per_index() {
    let (engine, tree) = instrumented_run(3);
    assert!(tree.is_well_formed());
    assert_eq!(tree.dropped, 0, "workload fits the collection cap");
    // Every applied op opens one Op span, with one IndexDispatch child
    // per registered index.
    assert_eq!(tree.kind_count(SpanKind::Op), engine.stats().ops);
    for op in tree.spans.iter().filter(|s| s.kind == SpanKind::Op) {
        let dispatches = tree
            .children_of(op.id)
            .filter(|c| c.kind == SpanKind::IndexDispatch)
            .count();
        assert_eq!(dispatches, engine.index_count());
    }
}

/// Runs `publish` on a metrics-on engine holding one index of each
/// maintained family after a few updates, and checks that it files
/// every gauge in `series` once per family whose report `has` returns —
/// and that `other`, the other publisher's series, stays unfiled.
fn check_publisher(
    publish: fn(&mut UpdateEngine),
    has: fn(&dyn StructuralIndex) -> bool,
    series: &[&str],
    other: &str,
) -> (UpdateEngine, Vec<IndexHandle>) {
    let (g, handles) = random_base(&mut SplitMix64::seed_from_u64(0xB0B));
    let mut engine = UpdateEngine::new(g);
    engine.obs_mut().enable_metrics();
    let indexes = vec![
        engine.register(Box::new(OneIndex::build(engine.graph()))),
        engine.register(Box::new(AkIndex::build(engine.graph(), 2))),
        engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2))),
    ];
    for w in handles.windows(2) {
        let _ = engine.insert_edge(w[0], w[1], EdgeKind::IdRef);
    }
    // Sorted family labels of every `name` gauge in the metrics JSON.
    let families_of = |e: &UpdateEngine, name: &str| {
        let v = Json::parse(&e.obs().metrics_json()).expect("valid metrics JSON");
        let mut fams: Vec<String> = (v.get("gauges").and_then(Json::as_arr).expect("gauges"))
            .iter()
            .filter(|g| g.get("name").and_then(Json::as_str) == Some(name))
            .filter_map(|g| g.get("labels")?.get("family")?.as_str().map(str::to_string))
            .collect();
        fams.sort();
        fams
    };
    assert!(
        families_of(&engine, series[0]).is_empty(),
        "filed before publishing"
    );
    publish(&mut engine);
    let mut expected: Vec<String> = (indexes.iter().map(|&h| engine.index(h)))
        .filter(|&i| has(i))
        .map(|i| i.describe())
        .collect();
    expected.sort();
    assert!(!expected.is_empty(), "no registered index has the report");
    for name in series {
        assert_eq!(families_of(&engine, name), expected, "{name}");
    }
    assert!(
        families_of(&engine, other).is_empty(),
        "{other} filed by the wrong publisher"
    );
    (engine, indexes)
}

#[test]
fn publish_store_reports_files_store_series_for_every_reporting_family() {
    check_publisher(
        UpdateEngine::publish_store_reports,
        |i| i.store_report().is_some(),
        &[
            "store_inline_maps",
            "store_spilled_maps",
            "store_spill_events",
            "store_entries",
            "store_max_entries",
        ],
        "mem_total_bytes",
    );
}

#[test]
fn publish_mem_reports_files_mem_and_quality_series_for_every_reporting_family() {
    let (engine, indexes) = check_publisher(
        UpdateEngine::publish_mem_reports,
        |i| i.mem_report().is_some(),
        &[
            "mem_total_bytes",
            "mem_blocks",
            "quality_minimum_blocks",
            "quality_blocks_over_minimum",
        ],
        "store_entries",
    );
    // The gauges carry the live and rebuild-to-minimum block counts.
    let m = engine.obs().metrics().expect("metrics enabled");
    for (fam, &h) in indexes.iter().enumerate() {
        let (idx, key) = (engine.index(h), |name| {
            MetricKey::named(name).family(IndexFamily(fam as u16))
        });
        assert_eq!(
            m.gauge_value(&key("mem_blocks")),
            Some(idx.block_count() as f64)
        );
        let minimum = idx.minimum_block_count(engine.graph()) as f64;
        assert_eq!(m.gauge_value(&key("quality_minimum_blocks")), Some(minimum));
    }
}

#[test]
fn untouched_index_aggregate_stays_at_the_no_op_identity() {
    // Satellite 1 regression: the per-index accumulator starts at (and,
    // absent real work, stays at) `UpdateStats::identity()`, so an
    // all-no-op history reports `no_op == true` instead of the old
    // `Default`-derived `false`.
    let mut g = Graph::new();
    let a = g.add_node("a", None);
    let b = g.add_node("b", None);
    g.insert_edge(g.root(), a, EdgeKind::Child).unwrap();
    g.insert_edge(a, b, EdgeKind::Child).unwrap();
    let mut engine = UpdateEngine::new(g);
    engine.obs_mut().enable_metrics();
    let h = engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 1)));

    let stats = engine.index_stats(h);
    assert!(stats.no_op, "freshly registered index starts at identity");
    assert_eq!(stats.splits + stats.merges, 0);
    assert_eq!(stats.split_nanos + stats.merge_nanos, 0);
    let v = Json::parse(&engine.obs().metrics_json()).unwrap();
    let counters = v.get("counters").and_then(Json::as_arr).unwrap();
    let phase_events: f64 = counters
        .iter()
        .filter(|c| {
            matches!(
                c.get("name").and_then(Json::as_str),
                Some("splits_total" | "merges_total")
            )
        })
        .filter_map(|c| c.get("value").and_then(Json::as_f64))
        .sum();
    assert_eq!(phase_events, 0.0, "no phase work was recorded");
}
