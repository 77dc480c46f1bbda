//! Golden test for the metrics registry: one fixed seeded engine run —
//! edge and node ops, a batch, a policy-triggered rebuild, two freezes
//! and a full `export_metrics_json()` — must reproduce the committed
//! deterministic metrics projection byte for byte. Every series keeps
//! its name, labels and value whatever instrumentation path files it.

use xsi_core::{
    AkIndex, NodeRef, OneIndex, PropagateOneIndex, SimpleAkIndex, UpdateEngine, UpdateOp,
};
use xsi_graph::{EdgeKind, Graph, NodeId};
use xsi_workload::SplitMix64;

const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// The committed projection, captured from the run below.
const GOLDEN: &str = include_str!("golden/metrics_deterministic.json");

fn pick(rng: &mut SplitMix64, handles: &[NodeId]) -> NodeId {
    handles[rng.random_range(0..handles.len())]
}

/// The seeded run: a random acyclic base graph, four index families
/// (the propagate 1-index under the 5 %-growth rebuild policy), then a
/// mix of every engine entry point that files metrics.
fn golden_run() -> UpdateEngine {
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    let mut g = Graph::new();
    let mut handles = vec![g.root()];
    for _ in 0..24 {
        let l = LABELS[rng.random_range(0..LABELS.len())];
        handles.push(g.add_node(l, None));
    }
    for i in 1..handles.len() {
        let parent = handles[rng.random_range(0..i)];
        let _ = g.insert_edge(parent, handles[i], EdgeKind::Child);
    }
    let mut engine = UpdateEngine::new(g);
    engine.obs_mut().enable_metrics();
    engine.register(Box::new(OneIndex::build(engine.graph())));
    engine.register(Box::new(AkIndex::build(engine.graph(), 2)));
    engine.register_with_policy(Box::new(PropagateOneIndex::build(engine.graph())));
    engine.register(Box::new(SimpleAkIndex::build(engine.graph(), 2)));

    // Single edge and node ops.
    for step in 0..80 {
        match rng.random_range(0..6usize) {
            0 => {
                let l = LABELS[rng.random_range(0..LABELS.len())];
                let n = engine.add_node(l, None);
                let p = pick(&mut rng, &handles);
                let _ = engine.insert_edge(p, n, EdgeKind::Child);
                handles.push(n);
            }
            1..=3 => {
                let (u, v) = (pick(&mut rng, &handles), pick(&mut rng, &handles));
                if u != v {
                    let _ = engine.insert_edge(u, v, EdgeKind::IdRef);
                }
            }
            4 => {
                let (u, v) = (pick(&mut rng, &handles), pick(&mut rng, &handles));
                let _ = engine.delete_edge(u, v);
            }
            _ => {
                let n = pick(&mut rng, &handles);
                if engine.remove_node(n).is_ok() {
                    handles.retain(|&h| h != n);
                }
            }
        }
        if step == 40 {
            let _ = engine.freeze();
        }
    }

    // One batch touching all four segments.
    let (u, v) = (pick(&mut rng, &handles), pick(&mut rng, &handles));
    let victim = handles[handles.len() - 1];
    let batch = vec![
        UpdateOp::AddNode { label: "b".into() },
        UpdateOp::AddNode { label: "c".into() },
        UpdateOp::InsertEdge {
            from: NodeRef::Existing(u),
            to: NodeRef::New(0),
            kind: EdgeKind::Child,
        },
        UpdateOp::InsertEdge {
            from: NodeRef::New(0),
            to: NodeRef::New(1),
            kind: EdgeKind::Child,
        },
        UpdateOp::InsertEdge {
            from: NodeRef::New(1),
            to: NodeRef::Existing(v),
            kind: EdgeKind::IdRef,
        },
        UpdateOp::RemoveNode { node: victim },
    ];
    engine.apply_batch(&batch).expect("golden batch applies");
    handles.retain(|&h| h != victim);

    // Toggle IDREF edges until the propagate baseline's drift fires the
    // rebuild policy.
    let (a, b) = (handles[1], handles[2]);
    for _ in 0..12 {
        if engine.insert_edge(a, b, EdgeKind::IdRef).is_ok() {
            let _ = engine.delete_edge(a, b);
        }
        let (u, v) = (pick(&mut rng, &handles), pick(&mut rng, &handles));
        if u != v && engine.insert_edge(u, v, EdgeKind::IdRef).is_ok() {
            let _ = engine.delete_edge(u, v);
        }
    }

    let _ = engine.freeze();
    engine
        .export_metrics_json()
        .expect("metrics were enabled above");
    engine
}

#[test]
fn deterministic_metrics_match_the_committed_golden() {
    let engine = golden_run();
    let got = engine.obs().metrics_deterministic_json();
    for series in [
        "\"ops_total\"",
        "\"splits_total\"",
        "\"rebuilds_total\"",
        "\"batch_segments_total\"",
        "\"snapshots_total\"",
        "\"store_inline_maps\"",
        "\"mem_total_bytes\"",
        "\"rank_levels_touched\"",
    ] {
        assert!(got.contains(series), "golden run files no {series} series");
    }
    assert_eq!(got, GOLDEN.trim_end(), "deterministic metrics drifted");
}
